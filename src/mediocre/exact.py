"""Exact selection primitives: sort oracle, tournament, median-of-medians, Floyd-Rivest.

All selectors answer "k-th largest" questions, k counted from 1.  Apart from
the sort oracle, every order query goes through the caller's
CountingComparator, and no selector ever reads an element outside the buffer
it was handed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .core import CountingComparator, Element, Rng

# Floyd-Rivest insertion-sorts ranges of at most this size.  It cannot go
# lower: only from size 11 on is the window, at most ceil(size^(2/3)) +
# 2 * slack + 1 positions, narrower than its range, and a window spanning the
# whole range would recurse on it forever.  Insertion sort costs about s^2/4
# comparisons on s elements, so the smallest size the window allows is also
# the cheapest: of 10, 12, 16, 20, 24, 32 and 48, 10 gave the lowest tally on
# every shape measured.
_FR_SMALL = 10


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


def _mom_smallest(vals: list, t: int, cmp: CountingComparator, lower: set | None = None) -> Element:
    """t-th smallest (0-based) of the multiset vals, groups-of-5 pivoting.

    Worst-case linear comparisons; duplicates supported (a value's copies
    occupy consecutive ranks, any of which yields the same answer).  The
    recursion that picks the pivot from the group medians also reports which
    medians it found below the pivot, so the partition compares only the two
    members of each group on the side its median does not settle.  If lower
    is a set, the call adds to it every value it placed below its answer,
    and perhaps the answer's own value, which a caller tells apart with ==.
    """
    less = cmp.less
    while True:
        n = len(vals)
        if n <= 5:
            _insertion_sort_range(vals, 0, n - 1, cmp)
            if lower is not None:
                lower.update(vals[:t])
            return vals[t]
        groups = _group_fives(vals, cmp)
        medians = [group[2] for group in groups]
        full = n - n % 5
        if full < n:
            _insertion_sort_range(vals, full, n - 1, cmp)
            medians.append(vals[full + (n - full) // 2])
        settled: set = set()
        pivot = _mom_smallest(medians, len(medians) // 2, cmp, settled)
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
            elif median in settled:
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
        if t >= nb and lower is not None:
            lower.update(below)
            lower.add(pivot)
        if t < nb:
            vals = below
        elif t < nb + eq:
            return pivot
        else:
            t -= nb + eq
            vals = above


# Tournament worst case allowed, in units of P.  Of the random pools with
# P <= 200, one of the 5761 (P, k) cells within 2P cost more than mom (P = 6,
# k = 3: 9 against 8), and 63 of the 10687 cells between 2P and 4P did, all
# at P <= 109; that band as a whole cost 35% less.  Beyond 4P the replays
# cost more Python time than the comparisons they save.
_TOURNAMENT_BUDGET = 4


def select_mom(buffer: Sequence[Element], k: int, cmp: CountingComparator) -> Element:
    """k-th largest, deterministic and worst-case linear.

    A knockout tournament when its worst case on P = len(buffer) elements,
    P - 1 + (k' - 1) * ceil(log2 P) with k' = min(k, P - k + 1), is at most
    _TOURNAMENT_BUDGET * P; median-of-medians otherwise.  The choice reads
    only (P, k), never the data.  A k outside 1..P gives k' <= 0, within the
    budget, so select_tournament rejects it.
    """
    size = len(buffer)
    rank = min(k, size - k + 1)
    if size - 1 + (rank - 1) * (size - 1).bit_length() <= _TOURNAMENT_BUDGET * size:
        return select_tournament(buffer, k, cmp)
    return _mom_smallest(list(buffer), size - k, cmp)


def select_tournament(buffer: Sequence[Element], k: int, cmp: CountingComparator) -> Element:
    """k-th largest by one knockout tournament and k' - 1 replays.

    k' = min(k, P - k + 1) on P = len(buffer) elements: a max-tournament
    when k is nearer the top, a min-tournament when it is nearer the bottom.
    The bracket holds leaf positions, not values, so copies of a value stay
    apart; an odd trailing entry takes a bye at each level.  Each replay
    empties the champion's leaf and replays only the matches on its path.
    At k' = 1 a plain scan finds the same element, so no bracket is built.
    Costs at most P - 1 + (k' - 1) * ceil(log2 P) comparisons; for k = 2
    that is Kislitsyn's P - 2 + ceil(log2 P), exact when P is a power of two.
    """
    _check_k(buffer, k)
    vals = list(buffer)
    size = len(vals)
    rank = min(k, size - k + 1)
    less = cmp.less
    # before(x, y): x is knocked out by y
    before = less if rank == k else (lambda x, y: less(y, x))
    if rank == 1:
        best = vals[0]
        for v in vals[1:]:
            if before(best, v):
                best = v
        return best
    level = list(range(size))
    levels = [level]
    while len(level) > 1:
        winners = []
        it = iter(level)
        for a, b in zip(it, it):
            winners.append(b if before(vals[a], vals[b]) else a)
        if len(level) & 1:
            winners.append(level[-1])
        levels.append(winners)
        level = winners
    climbs = list(zip(levels, levels[1:]))
    for _ in range(rank - 1):
        pos = levels[-1][0]
        levels[0][pos] = w = -1  # the emptied leaf loses every match unplayed
        for below, above in climbs:
            sib = pos ^ 1
            if sib < len(below):
                s = below[sib]
                if w < 0 or (s >= 0 and before(vals[w], vals[s])):
                    w = s
            pos >>= 1
            above[pos] = w
    return vals[levels[-1][0]]


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
        _fr_smallest(arr, wlo, whi, t, cmp)
        pivot = arr[t]
        less = cmp.less
        low_out: list = []
        high_out: list = []
        for v in arr[lo:wlo] + arr[whi + 1 : hi + 1]:
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
