"""Closed-form comparison-cost constants, published-table generation and lower bounds.

The per-element cost of selecting the (alpha*n)-th largest with the best known
non-recursive deterministic selector is modelled by g(alpha, l); the fine-tuned
f(alpha) takes the better of two adjacent l values, capped at the flat
worst-case bound 3.  From f the per-element constants of the prefix scheme
(Yao) and of the pairing/hyperpair schemes follow in closed form.  `TABLES`
holds each published table's CSV header, percentile grid and row function.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import _check_shape


InstanceConstants = namedtuple("InstanceConstants", "alpha c_a1 c_yao c_a4 c_yao4")
InstanceConstants.__doc__ = """Per-element comparison constants on the standard instance families.

c_a1/c_yao live on 0 < alpha < 1/3 (pairs), c_a4/c_yao4 on
0 < alpha <= 1/5 (groups of four); fields outside their domain are None.
"""


def g(alpha: float, l: int) -> float:
    """Cost constant 1 + (l+2) * (alpha + (1-alpha)/2^l)."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"0 < alpha <= 1/2 violated: alpha = {alpha}")
    if l < 0:
        raise ValueError(f"l >= 0 violated: l = {l}")
    return 1.0 + (l + 2) * (alpha + math.ldexp(1.0 - alpha, -l))


def l_star(alpha: float) -> int:
    """Tuning integer near log2(1/alpha) + log2(log2(1/alpha)).

    The published cost tables use the largest integer strictly below the
    expression when it is integral (their 0.25 row reads l = 2, not 3), with
    a floor of 1 so that alpha = 1/2 still yields l = 1.  Non-integral values
    reduce to the plain floor.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"0 < alpha <= 1/2 violated: alpha = {alpha}")
    x = -math.log2(alpha)
    return max(1, math.ceil(x + math.log2(x)) - 1)


def f(alpha: float) -> float:
    """Fine-tuned cost constant: best of g at l_star and l_star + 1, capped at 3.

    Defined on (0, 1); arguments above 1/2 reduce through the symmetry
    f(alpha) = f(1 - alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"0 < alpha < 1 violated: alpha = {alpha}")
    if alpha > 0.5:
        alpha = 1.0 - alpha
    l = l_star(alpha)
    return min(g(alpha, l), g(alpha, l + 1), 3.0)


def instance_constants(alpha: float) -> InstanceConstants:
    """All four scheme constants at alpha."""
    if not 0.0 < alpha < 1.0 / 3.0:
        raise ValueError(f"0 < alpha < 1/3 violated: alpha = {alpha}")
    c_a1 = (1.0 + f(2.0 * alpha)) / 2.0
    c_yao = (1.0 - alpha) * f(alpha / (1.0 - alpha))
    if alpha <= 0.2:
        c_a4 = (3.0 + f(4.0 * alpha)) / 4.0
        c_yao4 = (1.0 - 3.0 * alpha) * f(alpha / (1.0 - 3.0 * alpha))
    else:
        c_a4 = None
        c_yao4 = None
    return InstanceConstants(alpha=alpha, c_a1=c_a1, c_yao=c_yao, c_a4=c_a4, c_yao4=c_yao4)


def _upper_tail(r: int, q: float, k: int) -> float:
    """P[Bin(r, q) >= k] for 1 <= k <= r, with k not far below the mean r*q.

    The boundary term comes from math.lgamma; the sum runs outward from it
    until the terms fall below 1e-16, where they vanish against 1 - p.
    """
    if q == 0.0:
        return 0.0
    term = math.exp(
        math.lgamma(r + 1) - math.lgamma(k + 1) - math.lgamma(r - k + 1)
        + k * math.log(q) + (r - k) * math.log1p(-q)
    )
    odds, above, x = q / (1.0 - q), r - k, k + 1
    total = 0.0
    while term >= 1e-16:
        total += term
        term *= odds * above / x
        above -= 1
        x += 1
    return total


def a2_round(i: int, j: int, m: int, r: int, k: int) -> tuple[float, float]:
    """Expected comparisons of one a2 round with parameters (m, r, k), and its failure probability p.

    Selecting the k-th smallest of the r draws costs r + min(k-1, r-k) at its
    average-case floor, and verification compares the m(1 - 1/m)^r expected
    never-sampled elements.  The round fails when at least k draws fall among
    the working set's j lowest, or at least r - k + 1 among its i highest:
    p = P[Bin(r, j/m) >= k] + P[Bin(r, i/m) >= r-k+1], exact for draws with
    replacement.  The Las Vegas wrapper pays cost / (1 - p) on average.
    """
    cost = r + min(k - 1, r - k) + m * (1.0 - 1.0 / m) ** r
    return cost, _upper_tail(r, j / m, k) + _upper_tail(r, i / m, r - k + 1)


def lower_bound(i: int, j: int) -> int:
    """ceil(log2((i+j+1)! / (i! j!))), exactly, or ValueError.

    The ratio N equals (j+1) * C(i+j+1, i), an integer, and ceil(log2 N) is
    (N-1).bit_length().  That integer is the specification, but it has about
    i + j bits, so it is built only when log2 N, estimated with math.lgamma,
    lies within the estimate's error bound of an integer.  The bound allows
    each lgamma value a relative error of 2^-40, thousands of times the few
    ulps it has, so outside it the ceiling of the estimate is exact.  Inside
    it, an N that may have over 2^17 bits raises ValueError.
    """
    _check_shape(i + j + 1, i, j)
    if i + j + 2 <= 2**53:  # every float argument below is exact
        whole, low, high = math.lgamma(i + j + 2), math.lgamma(i + 1), math.lgamma(j + 2)
        estimate = math.log2(j + 1) + (whole - low - high) / math.log(2)
        if abs(estimate - round(estimate)) > 2**-40 * (whole + low + high + estimate + 1):
            return math.ceil(estimate)
    # C(i+j+1, i) < 2^(i+j+1), and at most (i+j+1)^min(i, j+1).  Building N
    # took 0.23 s at 2^17 bits and 0.78 s at 2^18 on one Xeon core.
    bits = (j + 1).bit_length() + min(i + j + 1, min(i, j + 1) * (i + j + 1).bit_length())
    if bits > 2**17:
        raise ValueError(f"exact bits <= {2**17} violated: N may have {bits} bits at i = {i}, j = {j}")
    ratio = (j + 1) * math.comb(i + j + 1, i)
    return (ratio - 1).bit_length()


def _f_row(alpha: float) -> tuple[float, int, float, float, float]:
    l = l_star(alpha)
    return alpha, l, g(alpha, l), g(alpha, l + 1), f(alpha)


def _pair_row(alpha: float) -> tuple[float, float, float]:
    ic = instance_constants(alpha)
    return ic.alpha, ic.c_a1, ic.c_yao


def _group4_row(alpha: float) -> tuple[float, float, float]:
    ic = instance_constants(alpha)
    return ic.alpha, ic.c_a4, ic.c_yao4


# name -> (CSV header, percentile grid alpha = s/100, row function)
TABLES = {
    "f": ("alpha,l,g_l,g_l1,f", range(1, 34), _f_row),
    "constants": ("alpha,c_a1,c_yao", range(1, 34), _pair_row),
    "hyper4": ("alpha,c_a4,c_yao4", range(9, 17), _group4_row),
}


def tables(which: str) -> list[tuple]:
    """Row data of the named published table, one row per percentile of its grid."""
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r}: expected one of {', '.join(TABLES)}")
    _, grid, row = TABLES[which]
    return [row(s / 100.0) for s in grid]


# curve builds every row before any is printed; the published grids have at most 329 points
_CURVE_POINTS_MAX = 10**6


def curve(alpha_from: float, alpha_to: float, step: float) -> list[tuple[float, float, float]]:
    """(alpha, c_a1, c_yao) sampled on an inclusive grid inside (0, 1/3), at most 10^6 points."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"step > 0 violated: step = {step}")
    if not 0.0 < alpha_from < alpha_to:
        raise ValueError(
            f"0 < alpha_from < alpha_to violated: from = {alpha_from}, to = {alpha_to}"
        )
    if alpha_to >= 1.0 / 3.0:
        raise ValueError(f"alpha_to < 1/3 violated: to = {alpha_to}")
    span = (alpha_to - alpha_from) / step + 1e-9
    if span >= _CURVE_POINTS_MAX:  # also a span that overflowed to inf
        points = math.floor(span) + 1 if span < math.inf else span
        raise ValueError(f"points <= {_CURVE_POINTS_MAX} violated: points = {points}")
    count = int(span) + 1
    # snap away accumulated binary drift so grid points that coincide
    # with table percentiles evaluate identically
    return [_pair_row(round(alpha_from + idx * step, 12)) for idx in range(count)]
