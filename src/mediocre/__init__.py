"""Comparison-counted exact and approximate selection with a closed-form cost model."""

from .approx import (
    A2Params,
    a1_select,
    a2_las_vegas,
    a2_once,
    a2_params,
    hyperpair_select,
    yao_select,
)
from .core import (
    CountingComparator,
    Element,
    Instance,
    Rng,
    SelectionOutcome,
    generate_instance,
    is_mediocre,
    rank_of,
)
from .costmodel import (
    InstanceConstants,
    curve,
    f,
    g,
    instance_constants,
    l_star,
    lower_bound,
    tables,
)
from .exact import (
    select_by_sort,
    select_floyd_rivest,
    select_mom,
    select_tournament,
)

__all__ = [
    "A2Params",
    "CountingComparator",
    "Element",
    "Instance",
    "InstanceConstants",
    "Rng",
    "SelectionOutcome",
    "a1_select",
    "a2_las_vegas",
    "a2_once",
    "a2_params",
    "curve",
    "f",
    "g",
    "generate_instance",
    "hyperpair_select",
    "instance_constants",
    "is_mediocre",
    "l_star",
    "lower_bound",
    "rank_of",
    "select_by_sort",
    "select_floyd_rivest",
    "select_mom",
    "select_tournament",
    "tables",
    "yao_select",
]
