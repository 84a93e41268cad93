"""Approximate selection: the grouped scheme (prefix, pairing, hyperpair) and sampling.

Every routine here returns an element guaranteed to sit outside both the top i
and the bottom j of the instance (the randomized one may instead report a
detected failure, never a wrong element).  The "arbitrary subset" each scheme
is free to choose is fixed as the instance prefix so runs are deterministic
and replayable.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import compress

from .core import CountingComparator, Element, Instance, Rng, SelectionOutcome, _check_shape
from .costmodel import a2_round
from .exact import _fr_smallest

ExactSelector = Callable[[Sequence[Element], int, CountingComparator], Element]

_LAS_VEGAS_CAP = 100


A2Params = namedtuple("A2Params", "m r k")
A2Params.__doc__ = "Working-set size m, sample size r and target sample rank k."


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _group_max(values: Sequence[Element], g: int, cmp: CountingComparator) -> Sequence[Element]:
    """Knockout maxima of consecutive groups of g, a power of two.

    Plays log2(g) rounds of adjacent-pair matches; an odd trailing element
    takes a bye.  Costs len(values) - len(result) comparisons, so g - 1 per
    full group.
    """
    less = cmp.less
    while g > 1:
        winners = []
        it = iter(values)
        for a, b in zip(it, it):
            winners.append(b if less(a, b) else a)
        if len(values) & 1:
            winners.append(values[-1])
        values = winners
        g >>= 1
    return values


def grouped_select(
    instance: Instance, g: int, size: int, exact: ExactSelector, cmp: CountingComparator
) -> SelectionOutcome:
    """Grouped scheme: the (i+1)-th largest knockout maximum of the first size elements.

    Groups of g (a power of two) are played out as knockout tournaments, and
    their maxima form the pool handed to exact.  The i maxima above the
    selected one guard the top; every group whose maximum it beats lies
    wholly below it, as does the rest of its own group, which guards the
    bottom.  The knockout stage costs size - len(pool) comparisons (see
    _group_max), which the outcome records as stage_comparisons.
    """
    pool = _group_max(instance.elements[:size], g, cmp)
    return SelectionOutcome(exact(pool, instance.i + 1, cmp), size - len(pool))  # positional: cheaper


def yao_select(instance: Instance, exact: ExactSelector, cmp: CountingComparator) -> SelectionOutcome:
    """Prefix scheme: the (i+1)-th largest of the first i+j+1 elements (g = 1).

    Whatever beats it inside the subset gives the i guard above; whatever it
    beats gives the j guard below.
    """
    return grouped_select(instance, 1, instance.i + instance.j + 1, exact, cmp)


def a1_select(instance: Instance, exact: ExactSelector, cmp: CountingComparator) -> SelectionOutcome:
    """Pairing scheme: pre-compare disjoint pairs, then select among winners (g = 2).

    Applies on i <= j <= n - 2i - 1; outside that range it degrades to the
    plain prefix scheme.  Uses the first 2i + j + 1 elements, pays exactly
    m = i + floor((j+1)/2) pairing comparisons, and selects the (i+1)-th
    largest of the pair winners (plus the unplayed leftover when j is even).
    """
    n, i, j = instance.n, instance.i, instance.j
    if not i <= j <= n - 2 * i - 1:
        return yao_select(instance, exact, cmp)
    return grouped_select(instance, 2, 2 * i + j + 1, exact, cmp)


def _check_group_size(g: int) -> None:
    """Hyperpair's rule for its group size, which the CLI also checks before any instance."""
    if g < 2 or g & (g - 1):
        raise ValueError(f"group size must be a power of 2 >= 2, got {g}")


def hyperpair_select(
    instance: Instance, group_size: int, exact: ExactSelector, cmp: CountingComparator
) -> SelectionOutcome:
    """Hyperpair scheme: knockout maxima of groups of a power-of-two size.

    Takes the first group_size * m elements with m = i + ceil((j+1)/group_size),
    spends exactly group_size - 1 comparisons per group on tournaments, and
    selects the (i+1)-th largest group maximum.  With group_size = 2 and odd j
    this reproduces the pairing scheme exactly.  Out-of-range parameters raise;
    there is deliberately no silent fallback here.
    """
    _check_group_size(group_size)
    n = instance.n
    pool = instance.i + -(-(instance.j + 1) // group_size)
    if group_size * pool > n:
        raise ValueError(f"group_size * pool_size <= n violated: {group_size} * {pool} > {n}")
    return grouped_select(instance, group_size, group_size * pool, exact, cmp)


def a2_params(i: int, j: int, n: int) -> A2Params:
    """Sampling parameters: m = i+j+2(i+j)^(3/4), r = m^(3/4), k = j*m^(-1/4) + sqrt(m)/2.

    Real-valued formulas are rounded half-up; k is clamped into the band
    [ceil(sqrt(m)/2), r - floor(sqrt(m)/2)] that keeps it at least sqrt(m)/2
    ranks from either end of the sample.
    """
    _check_shape(n, i, j)
    if i + j < 16:
        raise ValueError(f"i + j >= 16 violated: {i} + {j} < 16")
    m = _round_half_up(i + j + 2.0 * (i + j) ** 0.75)
    if m > n:
        raise ValueError(f"i + j + 2(i+j)^(3/4) <= n violated: {m} > {n}")
    r = _round_half_up(m**0.75)
    half_root = m**0.5 / 2.0
    # i + j >= 16 gives m >= 32, where the band is never empty (8 wide at m = 32)
    low, high = math.ceil(half_root), r - math.floor(half_root)
    k = max(low, min(high, _round_half_up(j * m**-0.25 + half_root)))
    return A2Params(m=m, r=r, k=k)


@lru_cache(maxsize=256)
def a2lv_params(i: int, j: int, n: int) -> A2Params:
    """The round parameters with the least modelled Las Vegas cost, E[round] / (1 - p).

    Raises where a2_params raises.  The candidates are a2's own parameters
    and, for each slack c = 0.2, 0.3, ..., 2.0, m = i + j + c(i+j)^(3/4) and
    r = m^(3/4) rounded half-up, with k within 3 of r(j + m - i) / (2m), the
    centre between the two guards; so m never exceeds a2's.  The model is
    costmodel.a2_round.
    """
    paper = a2_params(i, j, n)
    candidates = [paper]
    for tenths in range(2, 21):
        m = _round_half_up(i + j + tenths / 10 * (i + j) ** 0.75)
        r = _round_half_up(m**0.75)
        centre = _round_half_up(r * (j + m - i) / (2 * m))
        candidates += [A2Params(m, r, k) for k in range(max(1, centre - 3), min(r, centre + 3) + 1)]

    def lv_cost(params: A2Params) -> float:
        cost, p = a2_round(i, j, *params)
        return cost / (1.0 - p) if p < 1.0 else math.inf

    return min(candidates, key=lv_cost)


def a2_once(
    instance: Instance, cmp: CountingComparator, rng: Rng, params: A2Params | None = None
) -> SelectionOutcome:
    """One Monte Carlo round: sample, select the k-th smallest, verify.

    Uses params (m, r, k) when given, else the paper's, a2_params, and raises
    ValueError unless 1 <= k <= r and m <= n.  Draws r indices from the first
    m elements uniformly with replacement, selects the k-th smallest of the
    sampled multiset, then checks the candidate against every working-set
    element: it is returned only if at least i elements are larger and at
    least j smaller, otherwise the outcome is flagged failed.  A wrong
    element can never escape.

    The sample is selected in place by the narrowing selector, so the whole
    round stays within m + O(m^(3/4)) comparisons.  The sides of the
    partition that selection leaves give every sampled element's relation to
    the candidate, so only never-sampled elements are compared afterwards,
    in one batch.
    """
    m, r, k = params or a2_params(instance.i, instance.j, instance.n)
    if not (1 <= k <= r and m <= instance.n):
        raise ValueError(f"1 <= k <= r and m <= n violated: (m, r, k) = {(m, r, k)}, n = {instance.n}")
    elements = instance.elements
    idxs = rng.sample_with_replacement(m, r)
    sample = [elements[q] for q in idxs]

    x = _fr_smallest(sample, 0, r - 1, k - 1, cmp)
    # The selection pass leaves sample[:k-1] <= x <= sample[k:], so only
    # copies of x can sit on both sides.
    smaller = len(set(sample[: k - 1]) - {x})
    larger = len(set(sample[k:]) - {x})
    unsampled = bytearray(b"\x01") * m
    for q in idxs:
        unsampled[q] = 0
    flags = cmp.less_each(compress(elements, unsampled), x)
    below = flags.count(1)
    smaller += below
    larger += len(flags) - below
    ok = larger >= instance.i and smaller >= instance.j
    return SelectionOutcome(x, failed=not ok)


def a2_las_vegas(instance: Instance, cmp: CountingComparator, rng: Rng) -> SelectionOutcome:
    """Repeat the Monte Carlo round with fresh samples until it succeeds.

    Every round runs at a2lv_params, chosen for the expected cost of the
    whole loop.  The returned outcome is never failed; the comparator's tally
    covers every repetition.  The repetition cap, _LAS_VEGAS_CAP, only guards
    against implementation bugs: a round's modelled failure probability is at
    most 0.21 (at i, j = 14, 3, over every i + j <= 200; a grid of larger
    shapes stays below 0.07), so reaching it honestly is astronomically
    unlikely.
    """
    params = a2lv_params(instance.i, instance.j, instance.n)
    for rep in range(1, _LAS_VEGAS_CAP + 1):
        out = a2_once(instance, cmp, rng, params)
        if not out.failed:
            return SelectionOutcome(out.element, failed=False, repetitions=rep)
    raise RuntimeError(
        f"sampling selection failed {_LAS_VEGAS_CAP} consecutive times; "
        "this points at a broken sampler or comparator"
    )
