"""Exact selection primitives: sort oracle, tournament, median-of-medians, Floyd-Rivest.

All selectors answer "k-th largest" questions, k counted from 1.  Apart from
the sort oracle, every order query goes through the caller's
CountingComparator, and no selector ever reads an element outside the buffer
it was handed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import compress

from .core import CountingComparator, Element, Rng

# Floyd-Rivest hands ranges of at most this size to _select_range.  It cannot
# go lower: only from size 11 on is the window, at most ceil(size^(2/3)) +
# 2 * slack + 1 positions, narrower than its range, and a window spanning the
# whole range would recurse on it forever.  Of 10, 12, 16, 24, 32 and 48, 10
# gave the lowest tally on small-sweep, and on median-lv at all but seed 1
# (1.2042 comparisons per element there, 1.2039 at 12 and 1.2171 at 48).
_FR_SMALL = 10
# _split classifies at least this many values with one batch query, and
# fewer with one less call each, where building the batch's two sides costs
# more than the calls save.  Floyd-Rivest, minimum time per call at the
# median over two sweeps of 61 in-process rounds: batching every split was
# 20-23% slower at 16 and 64 elements; this floor, the fastest at 16637, was
# 12-13% faster than none there.  128 and 256 lay within 3% of it at every
# size and on a2lv, and 32 was 3-8% slower at 64.  Median-of-medians gains
# nothing from it: select_mom at the median took 16.1 -> 17.3 ms at
# P = 19000 and 2.68 -> 2.73 ms at P = 2000 against one less call each
# (faster in 11 and 13 of 31 rounds).
_BATCH = 64
# Swaps the 0 and 1 bytes of a batch's answer, selecting the other side.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


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


def _select_range(arr: list, lo: int, hi: int, t: int, cmp: CountingComparator) -> Element:
    """Value of the (t - lo)-th smallest (0-based) of arr[lo..hi], in place.

    Partial insertion keeps the shorter side of t sorted: arr[lo..t] the
    smallest values seen, or arr[t..hi] the largest.  A later value that beats
    arr[t] is inserted from arr[t] inward, the evicted arr[t] taking its slot.
    On return arr[t] holds it, everything left of it <= it and right >= it.
    """
    less = cmp.less
    if t - lo <= hi - t:
        for idx in range(lo + 1, hi + 1):
            v, pos = arr[idx], idx
            if idx > t:
                if not less(v, arr[t]):
                    continue
                arr[idx], pos = arr[t], t
            while pos > lo and less(v, arr[pos - 1]):
                arr[pos] = arr[pos - 1]
                pos -= 1
            arr[pos] = v
    else:
        for idx in range(hi - 1, lo - 1, -1):
            v, pos = arr[idx], idx
            if idx < t:
                if not less(arr[t], v):
                    continue
                arr[idx], pos = arr[t], t
            while pos < hi and less(arr[pos + 1], v):
                arr[pos] = arr[pos + 1]
                pos += 1
            arr[pos] = v
    return arr[t]


def _split(values: list, pivot: Element, cmp: CountingComparator) -> tuple[list, list]:
    """The values strictly below pivot and the rest, each side in input order.

    One tally per value: one less_each batch from _BATCH values on, one less
    call each below that.
    """
    if len(values) >= _BATCH:
        flags = cmp.less_each(values, pivot)
        return list(compress(values, flags)), list(compress(values, flags.translate(_FLIP)))
    less = cmp.less
    below, rest = [], []
    for v in values:
        if less(v, pivot):
            below.append(v)
        else:
            rest.append(v)
    return below, rest


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
    members of each group on the side its median does not settle.  The
    n mod 5 trailing values fill no group: they skip pivot selection and go
    straight to the partition.  If lower is a set, the call adds to it
    every value it placed below its answer, and perhaps the answer's own
    value, which a caller tells apart with ==.
    """
    while True:
        n = len(vals)
        if n <= 5:
            _select_range(vals, 0, n - 1, t, cmp)
            if lower is not None:
                lower.update(vals[:t])
            return vals[t]
        groups = _group_fives(vals, cmp)
        medians = [group[2] for group in groups]
        settled: set = set()
        pivot = _mom_smallest(medians, len(medians) // 2, cmp, settled)
        below: list = []
        above: list = []
        unsettled = vals[n - n % 5 :]
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
        copies = unsettled.count(pivot)  # set aside for free: == asks the comparator nothing
        eq += copies
        low, high = _split([v for v in unsettled if v != pivot] if copies else unsettled, pivot, cmp)
        below += low
        above += high
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


# Tournament worst case allowed, in units of P: beyond 4P the replays cost
# more Python time than the comparisons they save.  Over every k of one
# Rng(P)-shuffled pool per P <= 200, 4 of the 5761 (P, k) cells within 2P cost
# more than _mom_smallest, all at P <= 9 (P = 9, k = 3: 14 against 12); 191 of
# the 10687 between 2P and 4P did, up to P = 199, and that band cost 30% less.
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
    size = len(buffer)
    rank = min(k, size - k + 1)
    less = cmp.less
    # before(x, y): x is knocked out by y
    before = less if rank == k else (lambda x, y: less(y, x))
    if rank == 1:
        best = buffer[0]
        for v in buffer[1:]:
            if before(best, v):
                best = v
        return best
    level = list(range(size))
    levels = [level]
    while len(level) > 1:
        winners = []
        it = iter(level)
        for a, b in zip(it, it):
            winners.append(b if before(buffer[a], buffer[b]) else a)
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
                if w < 0 or (s >= 0 and before(buffer[w], buffer[s])):
                    w = s
            pos >>= 1
            above[pos] = w
    return buffer[levels[-1][0]]


def _fr_smallest(arr: list, lo: int, hi: int, t: int, cmp: CountingComparator) -> Element:
    """Value of the (t - lo)-th smallest (0-based) of arr[lo..hi], in place.

    Narrowing selection: the pivot comes from recursing on a window of about
    size^(2/3) elements positioned so that the window's order statistic at
    index t estimates the global one.  The recursion leaves its window
    partitioned around that pivot, so the outer pass classifies only the
    elements outside the window and moves the window back between them as
    one block.  On return arr[t] holds the answer, everything left of it
    resolved <= it and everything right >= it (duplicates of a value are
    interchangeable).
    """
    while True:
        size = hi - lo + 1
        if size <= _FR_SMALL:
            return _select_range(arr, lo, hi, t, cmp)
        window = math.ceil(size ** (2.0 / 3.0))
        slack = math.isqrt(window) // 2 + 1
        loc = t - lo + 1
        wlo = max(lo, t - loc * window // size - slack)
        whi = min(hi, t + (size - loc) * window // size + slack)
        pivot = _fr_smallest(arr, wlo, whi, t, cmp)
        low_out, high_out = _split(arr[lo:wlo] + arr[whi + 1 : hi + 1], pivot, cmp)
        p = lo + len(low_out) + t - wlo
        arr[lo : hi + 1] = low_out + arr[wlo : whi + 1] + high_out
        if p == t:
            return pivot
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
