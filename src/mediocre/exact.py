"""Exact selection primitives: sort oracle, median-of-medians, tournament, Floyd-Rivest.

All selectors answer "k-th largest" questions, k counted from 1.  Apart from
the sort oracle, every order query goes through the caller's
CountingComparator, and no selector ever reads an element outside the buffer
it was handed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .core import CountingComparator, Element, Rng

# Floyd-Rivest drops to plain insertion selection below this size.  Measured
# on random permutations this keeps the lower-order comparison overhead small
# enough that the n + min(k, n-k) average is visible already at n ~ 10^4.
_FR_SMALL = 32


def _check_k(buffer: Sequence[Element], k: int) -> None:
    if not 1 <= k <= len(buffer):
        raise ValueError(f"1 <= k <= len(buffer) violated: k = {k}, len = {len(buffer)}")


def select_by_sort(buffer: Sequence[Element], k: int, cmp: CountingComparator | None = None) -> Element:
    """k-th largest via the built-in sort.

    Ground-truth oracle only, never benchmarked: it sorts natively and does
    not consume the comparator (accepted for signature interchangeability
    with the instrumented selectors).
    """
    _check_k(buffer, k)
    return sorted(buffer)[len(buffer) - k]


def _insertion_sort_range(arr: list, lo: int, hi: int, cmp: CountingComparator) -> None:
    """Sort arr[lo..hi] ascending in place, one tally per order query."""
    less = cmp.less
    for idx in range(lo + 1, hi + 1):
        v = arr[idx]
        pos = idx
        while pos > lo and less(v, arr[pos - 1]):
            arr[pos] = arr[pos - 1]
            pos -= 1
        arr[pos] = v


def _group_fives(vals: list, cmp: CountingComparator) -> list[tuple]:
    """Each full group of five as (low, low, median, high, high), 6 comparisons each.

    Knuth's procedure (TAOCP vol. 3, 5.3.3): order two pairs, drop the lower
    end of the pair with the smaller low, pair the fifth element with the
    survivor and repeat; the median is the smaller of the two remaining
    candidates.  In each tuple the lows are <= the median <= the highs.
    Trailing elements that fill no group are left out.
    """
    less = cmp.less
    groups = []
    for a, b, c, d, e in zip(*[iter(vals)] * 5):
        if less(b, a):
            a, b = b, a
        if less(d, c):
            c, d = d, c
        if less(c, a):
            a, b, c, d = c, d, a, b
        # a <= b, c, d: a is one of the two lowest; b takes the fifth's place
        if less(e, b):
            b, e = e, b
        if less(c, b):
            b, c, d, e = c, b, e, d
        # b <= c, d, e: b is the other low; the median is min(c, e)
        if less(e, c):
            c, e = e, c
        groups.append((a, b, c, d, e))
    return groups


def _mom_smallest(vals: list, t: int, cmp: CountingComparator) -> Element:
    """t-th smallest (0-based) of the multiset vals, groups-of-5 pivoting.

    Worst-case linear comparisons; duplicates supported (a value's copies
    occupy consecutive ranks, any of which yields the same answer).  The
    partition compares only a group's median with the pivot and then the two
    members on the side the median does not settle.
    """
    less = cmp.less
    while True:
        n = len(vals)
        if n <= 5:
            _insertion_sort_range(vals, 0, n - 1, cmp)
            return vals[t]
        groups = _group_fives(vals, cmp)
        medians = [group[2] for group in groups]
        full = n - n % 5
        if full < n:
            _insertion_sort_range(vals, full, n - 1, cmp)
            medians.append(vals[full + (n - full) // 2])
        pivot = _mom_smallest(medians, len(medians) // 2, cmp)
        below: list = []
        above: list = []
        unsettled = vals[full:]
        eq = 0
        for lo0, lo1, median, hi0, hi1 in groups:
            if median == pivot:
                # lows <= pivot <= highs: only copies of the pivot need sorting out
                eq += (lo0, lo1, median, hi0, hi1).count(pivot)
                below += [v for v in (lo0, lo1) if v != pivot]
                above += [v for v in (hi0, hi1) if v != pivot]
            elif less(median, pivot):
                below += (lo0, lo1, median)
                unsettled += (hi0, hi1)
            else:
                above += (median, hi0, hi1)
                unsettled += (lo0, lo1)
        for v in unsettled:
            if v == pivot:
                eq += 1
            elif less(v, pivot):
                below.append(v)
            else:
                above.append(v)
        nb = len(below)
        if t < nb:
            vals = below
        elif t < nb + eq:
            return pivot
        else:
            t -= nb + eq
            vals = above


def select_mom(buffer: Sequence[Element], k: int, cmp: CountingComparator) -> Element:
    """k-th largest by median-of-medians: deterministic, worst-case linear."""
    _check_k(buffer, k)
    return _mom_smallest(list(buffer), len(buffer) - k, cmp)


def select_second_tournament(buffer: Sequence[Element], cmp: CountingComparator) -> Element:
    """Second largest via a single-elimination tournament plus a playoff.

    Byes are granted in the first round only, so the bracket is perfect
    afterwards and nobody plays more than ceil(log2 s) matches.  The playoff
    runs among the direct losers to the champion, giving at most
    s - 2 + ceil(log2 s) comparisons, with equality whenever s is a power of
    two.
    """
    s = len(buffer)
    if s < 2:
        raise ValueError(f"len(buffer) >= 2 violated: len = {s}")
    less = cmp.less
    full = 1 << (s - 1).bit_length()  # next power of two >= s
    byes = full - s
    # entrants: (value, values beaten so far)
    survivors: list[tuple[Element, list[Element]]] = [(buffer[idx], []) for idx in range(byes)]
    rest = [(buffer[idx], []) for idx in range(byes, s)]
    while True:
        for pos in range(0, len(rest), 2):
            a, a_beat = rest[pos]
            b, b_beat = rest[pos + 1]
            if less(a, b):
                b_beat.append(a)
                survivors.append((b, b_beat))
            else:
                a_beat.append(b)
                survivors.append((a, a_beat))
        if len(survivors) == 1:
            break
        rest = survivors
        survivors = []
    _, losers = survivors[0]
    runner_up = losers[0]
    for v in losers[1:]:
        if less(runner_up, v):
            runner_up = v
    return runner_up


def _fr_smallest(arr: list, lo: int, hi: int, t: int, cmp: CountingComparator) -> Element:
    """Value of the (t - lo)-th smallest (0-based) of arr[lo..hi], in place.

    Narrowing selection: the pivot comes from recursing on a window of about
    size^(2/3) elements positioned so that the window's order statistic at
    index t estimates the global one.  The recursion leaves its window
    partitioned around that pivot, so the outer pass classifies only the
    elements outside the window and stitches the segments back together.
    On return arr[t] holds the answer, everything left of it resolved <= it
    and everything right >= it (duplicates of a value are interchangeable).
    """
    while True:
        size = hi - lo + 1
        if size <= _FR_SMALL:
            _insertion_sort_range(arr, lo, hi, cmp)
            return arr[t]
        window = math.ceil(size ** (2.0 / 3.0))
        slack = math.isqrt(window) // 2 + 1
        loc = t - lo + 1
        wlo = max(lo, t - loc * window // size - slack)
        whi = min(hi, t + (size - loc) * window // size + slack)
        if whi - wlo + 1 >= size:
            _insertion_sort_range(arr, lo, hi, cmp)
            return arr[t]
        _fr_smallest(arr, wlo, whi, t, cmp)
        pivot = arr[t]
        less = cmp.less
        low_out: list = []
        high_out: list = []
        for idx in range(lo, wlo):
            v = arr[idx]
            if less(v, pivot):
                low_out.append(v)
            else:
                high_out.append(v)
        for idx in range(whi + 1, hi + 1):
            v = arr[idx]
            if less(v, pivot):
                low_out.append(v)
            else:
                high_out.append(v)
        wleft = arr[wlo:t]
        wright = arr[t + 1 : whi + 1]
        p = lo + len(low_out) + len(wleft)
        arr[lo : hi + 1] = low_out + wleft + [pivot] + wright + high_out
        if p == t:
            return arr[p]
        if t < p:
            hi = p - 1
        else:
            lo = p + 1


def select_floyd_rivest(buffer: Sequence[Element], k: int, cmp: CountingComparator, rng: Rng) -> Element:
    """k-th largest by sampling-window selection, n + min(k, n-k) + o(n) on average.

    The buffer copy is shuffled first (no comparisons), so the average-case
    bound holds for every input, not just randomly ordered ones; the result
    is always exact regardless of the random draws.
    """
    _check_k(buffer, k)
    arr = list(buffer)
    rng.shuffle(arr)
    return _fr_smallest(arr, 0, len(arr) - 1, len(arr) - k, cmp)
