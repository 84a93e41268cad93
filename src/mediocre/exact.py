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

# Floyd-Rivest ends ranges of at most this size in the knockout bracket.  It
# cannot go below 10: only from size 11 on is the window, at most
# ceil(size^(2/3)) + 2 * slack + 1 positions, narrower than its range, and a
# window spanning the whole range would recurse on it forever.  Of 10, 16,
# 24, 32 and 48, 24 gave the lowest pass-0 tally on median-lv at seeds 1 and
# 71-74 (1.18114 against 1.18234 at 10 at seed 1) and tied 32 and 48 on
# small-sweep; 32 and 48 ran up to 7% faster on 1542 values, but asked more.
_FR_SMALL = 24
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


def _fives(groups, less, vee: bool = False, lam: bool = False) -> list[tuple]:
    """Each group (a, b, c, d, e) as (low, low, median, high, high).

    Knuth's procedure (TAOCP vol. 3, 5.3.3): order two pairs, drop the lower
    end of the pair with the smaller low, pair the fifth element with the
    survivor and repeat; the median is the smaller of the two remaining
    candidates: 6 comparisons.  A carried V (x, m, u, w, y) with x, y <= m or
    lambda (h, u, h', w, m) with m <= h, h' skips what that settles: 4 or 5.
    """
    out = []
    for a, b, c, d, e in groups:
        low1 = not vee and less(b, a)
        if low1:
            a, b = b, a
        low2 = less(d, c)
        if low2:
            c, d = d, c
        swapped = less(c, a)
        if swapped:
            a, b, c, d = c, d, a, b
        # a <= b, c, d: a is one of the two lowest; b takes the fifth's place.
        # A lambda's m is below b (an h or above one), a V's y below b = m
        # if the pairs kept their places.
        if lam or vee and not swapped or less(e, b):
            b, e = e, b
        # a lambda's m = b is below c too, unless u and w were both pair lows
        if (not lam or low1 and low2) and less(c, b):
            b, c, d, e = c, b, e, d
            known = lam or vee and swapped  # c is a lambda's m, or e a V's m
        else:
            known = False
        # b <= c, d, e: b is the other low; the median is min(c, e)
        if not known and less(e, c):
            c, e = e, c
        out.append((a, b, c, d, e))
    return out


def _group_fives(vals: list, cmp: CountingComparator) -> list[tuple]:
    """Each full group of five consecutive values by _fives, 6 comparisons each; the rest is left out."""
    return _fives(zip(*[iter(vals)] * 5), cmp.less)


def _mom_smallest(vals: list, t: int, cmp: CountingComparator, lower: set | None = None) -> Element:
    """t-th smallest (0-based) of the multiset vals, groups-of-5 pivoting.

    Worst-case linear comparisons; duplicates supported (a value's copies
    occupy consecutive ranks, any of which yields the same answer).  The
    recursion that picks the pivot from the group medians also reports which
    medians it found below the pivot, so the partition compares only the two
    members of each group on the side its median does not settle; the other
    three go on as a triple that the next round groups with two fresh values.
    Values left over form fresh groups, whose n mod 5 trailing values skip
    pivot selection and go straight to the partition.  A partition leaves the
    answer near an end of the side kept, so the loop then asks whether
    select_mom would pick the tournament at the size and rank left, and if so
    ends in it; so do at most 4 values, too few for a round.  If lower is a
    set, the call adds to it every value it placed below its answer, and
    perhaps the answer's own value, which a caller tells apart with ==.
    """
    upper, carried, n = False, [], len(vals)  # flat triples: V (x, m, y) below, lambda (h, h', m) if upper
    while n > 4:
        groups = []
        if carried:
            # each triple takes two values from the end: (x, m, u, w, y) or (h, u, h', w, m)
            paired = min(len(carried) // 3, len(vals) // 2)
            cut = len(vals) - 2 * paired
            old, new = iter(carried), iter(vals[cut:])
            groups = zip(old, new, old, new, old) if upper else zip(old, old, new, new, old)
            groups = _fives(groups, cmp.less, not upper, upper)
            del vals[cut:]
            vals += carried[3 * paired :]
        groups += _group_fives(vals, cmp)
        medians = [group[2] for group in groups]
        settled: set = set()
        pivot = _mom_smallest(medians, len(medians) // 2, cmp, settled)
        below, above, lows, highs = [], [], [], []  # lows, highs: each side's triples
        unsettled = vals[len(vals) - len(vals) % 5 :]
        eq = 0
        for lo0, lo1, median, hi0, hi1 in groups:
            if median == pivot:
                # lows <= pivot <= highs: only copies of the pivot need sorting out
                eq += (lo0, lo1, median, hi0, hi1).count(pivot)
                below += [v for v in (lo0, lo1) if v != pivot]
                above += [v for v in (hi0, hi1) if v != pivot]
            elif median in settled:
                lows += (lo0, median, lo1)
                unsettled += (hi0, hi1)
            else:
                highs += (hi0, hi1, median)
                unsettled += (lo0, lo1)
        copies = unsettled.count(pivot)  # set aside for free: == asks the comparator nothing
        eq += copies
        low, high = _split([v for v in unsettled if v != pivot] if copies else unsettled, pivot, cmp)
        below += low
        above += high
        nb = len(below) + len(lows)
        if t >= nb and lower is not None:
            lower.update(below)
            lower.update(lows)
            lower.add(pivot)
        if t < nb:
            vals, carried, upper = below, lows, False
        elif t < nb + eq:
            return pivot
        else:
            t -= nb + eq
            vals, carried, upper = above, highs, True
        n = len(vals) + len(carried)
        if _tournament_fits(n, n - t):
            break
    return select_tournament(vals + carried, n - t, cmp, lower)


# Tournament worst case allowed, in units of P: beyond 4P the replays cost
# more Python time than the comparisons they save.  Over every k of one
# Rng(P)-shuffled pool per P <= 200, 5 of the 5761 (P, k) cells within 2P cost
# more than _mom_smallest, all at P <= 9 (P = 9, k = 3: 13 against 12); 1709 of
# the 10687 between 2P and 4P did, up to P = 200, and that band cost 20.9% less.
# Inside _mom_smallest, 3, 5 and 6 raised skew-det's tally at
# seeds 1-3 (seed 1: 1.983, 1.991 and 2.027 against 1.976 per element).
_TOURNAMENT_BUDGET = 4


def _tournament_fits(size: int, k: int) -> bool:
    """Whether select_tournament's worst case at the k-th largest of size values is at most _TOURNAMENT_BUDGET * size."""
    rank = min(k, size - k + 1)
    return size - 1 + (rank - 1) * (size - 1).bit_length() <= _TOURNAMENT_BUDGET * size


def select_mom(buffer: Sequence[Element], k: int, cmp: CountingComparator) -> Element:
    """k-th largest, deterministic and worst-case linear.

    A knockout tournament when _tournament_fits the P = len(buffer)
    elements at k; median-of-medians otherwise.  The choice reads only
    (P, k), never the data.  A k outside 1..P fits, so select_tournament
    rejects it.
    """
    if _tournament_fits(len(buffer), k):
        return select_tournament(buffer, k, cmp)
    return _mom_smallest(list(buffer), len(buffer) - k, cmp)


def _knockout(vals: Sequence[Element], rank: int, flip: bool, less) -> list[int]:
    """The knockout bracket on vals after rank - 1 replays; the root, last, holds the rank-th champion's leaf.

    One flat list of the P = len(vals) leaf positions, not values, so copies
    of a value stay apart: entry P + h plays entries 2h and 2h + 1 (Knuth's
    tree selection, TAOCP vol. 3, 5.3.3), and the leaves sit at two adjacent
    depths.  Each replay empties the champion's leaf to -1 and replays only
    the matches on its path.  A max-bracket unless flip: then x is knocked
    out by y if less(y, x).  Asks at most P - 1 + (rank - 1) * ceil(log2 P)
    questions.
    """
    size = len(vals)
    root = 2 * size - 2
    tree = list(range(size))  # entry size + h: the winner of entries 2h and 2h + 1, read as it is appended
    it = iter(tree)
    for a, b in zip(it, it):
        tree.append(b if (less(vals[b], vals[a]) if flip else less(vals[a], vals[b])) else a)
    for _ in range(rank - 1):
        node = tree[root]
        tree[node] = w = -1  # the emptied leaf loses every match unplayed
        while node != root:
            s = tree[node ^ 1]
            if w < 0 or s >= 0 and (less(vals[s], vals[w]) if flip else less(vals[w], vals[s])):
                w = s
            node = size + (node >> 1)
            tree[node] = w
    return tree


def select_tournament(buffer: Sequence[Element], k: int, cmp: CountingComparator, lower: set | None = None) -> Element:
    """k-th largest by one knockout tournament and k' - 1 replays (_knockout).

    k' = min(k, P - k + 1) on P = len(buffer) elements: a max-tournament
    when k is nearer the top, a min-tournament when it is nearer the bottom.
    At k' = 1 a plain scan finds the same element, so no bracket is built.
    Costs at most P - 1 + (k' - 1) * ceil(log2 P) comparisons; for k = 2
    that is Kislitsyn's P - 2 + ceil(log2 P), exact when P is a power of two.
    If lower is a set, the call adds to it, as _mom_smallest does, the values
    it placed at or below its answer: a max-tournament every value but the
    k' - 1 champions it took out, a min-tournament those champions.
    """
    _check_k(buffer, k)
    size = len(buffer)
    rank = min(k, size - k + 1)
    less = cmp.less
    flip = rank != k  # a min-tournament: x is knocked out by y if less(y, x)
    if rank == 1:  # the same P - 1 questions; the bracket took 1.5-1.9x as long from P = 5 to 20000
        best = buffer[0]
        for v in buffer[1:]:
            if less(v, best) if flip else less(best, v):
                best = v
        if lower is not None and not flip:
            lower.update(buffer)
        return best
    tree = _knockout(buffer, rank, flip, less)
    if lower is not None:
        lower.update(v for v, leaf in zip(buffer, tree) if (leaf < 0) == flip)
    return buffer[tree[-1]]


def _fr_smallest(arr: list, lo: int, hi: int, t: int, cmp: CountingComparator) -> Element:
    """Value of the (t - lo)-th smallest (0-based) of arr[lo..hi], in place.

    Narrowing selection: the pivot comes from recursing on a window of about
    size^(2/3) elements positioned so that the window's order statistic at
    index t estimates the global one.  The recursion leaves its window
    partitioned around that pivot, so the outer pass classifies only the
    elements outside the window and moves the window back between them as
    one block.  On return arr[t] holds the answer, everything left of it
    resolved <= it and everything right >= it (duplicates of a value are
    interchangeable).  A range of at most _FR_SMALL values ends in
    _knockout at k' = min(t - lo, hi - t) + 1, a min-bracket when t is nearer
    lo; its k' - 1 champions take the nearer end, each side in input order.
    """
    while (size := hi - lo + 1) > _FR_SMALL:
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
    vals = arr[lo : hi + 1]
    flip = t - lo < hi - t  # a min-bracket: its champions are the t - lo smallest
    tree = _knockout(vals, min(t - lo, hi - t) + 1, flip, cmp.less)
    x = vals[tree[-1]]
    tree[tree[-1]] = -2  # the answer's leaf, apart from the champions' -1
    taken, rest = [], []
    for v, leaf in zip(vals, tree):  # one pass: two comprehensions took 0.6-1.3 us longer at 10-24 values
        if leaf >= 0:
            rest.append(v)
        elif leaf == -1:
            taken.append(v)
    arr[lo : hi + 1] = taken + [x] + rest if flip else rest + [x] + taken
    return x


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
