"""Spans around the entry points of each mediocre layer, recorded from outside.

The tracer replaces module attributes of the imported package with wrappers
for the duration of a traced pass and puts the originals back afterwards, so
the program itself carries no tracing code.  A span holds its name, its start
and end in ``perf_counter_ns``, its parent span, the comparison tally at its
start and end, and the call's arguments and result (kept for the checks and
the per-layer sums, which run after the pass, outside every span).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns

# (owner, key, span name).  The owner is a dotted path below the mediocre
# package naming a module, a class or a dict; the key is an attribute or an
# item of it.  The cli-level names are what `mediocre bench` calls per trial.
HOOKS = (
    ("cli", "generate_instance", "core.generate"),
    ("cli", "yao_select", "approx.yao"),
    ("cli", "a1_select", "approx.a1"),
    ("cli", "hyperpair_select", "approx.hyper"),
    ("cli", "a2_las_vegas", "approx.a2lv"),
    ("cli", "select_floyd_rivest", "exact.fr"),
    ("cli._EXACT", "mom", "exact.mom"),
    ("approx", "_group_max", "approx.group_max"),
    ("approx", "a2_once", "approx.a2.round"),
    ("approx", "_fr_smallest", "approx.a2.sample_select"),
    ("core.Rng", "sample_with_replacement", "approx.a2.draw"),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "tally0", "tally1", "args", "result", "raised")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0
        self.tally0 = self.tally1 = None
        self.args = ()
        self.result = None
        self.raised = True

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def tally(self) -> int:
        return self.tally1 - self.tally0

    def record(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "start_ns": self.start,
            "end_ns": self.end,
            "tally_start": self.tally0,
            "tally_end": self.tally1,
            "raised": self.raised,
        }


class Tracer:
    """Records spans in memory; ``spans[k].parent`` indexes ``spans``."""

    def __init__(self, comparator_type: type) -> None:
        self._comparator_type = comparator_type
        self.spans: list[Span] = []
        # (span index, comparator) of the open spans, innermost last
        self._stack: list[tuple[int, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        comparator_type = self._comparator_type

        def traced(*args, **kwargs):
            cmp = next(
                (a for a in (*args, *kwargs.values()) if type(a) is comparator_type),
                stack[-1][1] if stack else None,
            )
            span = Span(name, stack[-1][0] if stack else -1)
            stack.append((len(spans), cmp))
            spans.append(span)
            if cmp is not None:
                span.tally0 = cmp.comparisons
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                if cmp is not None:
                    span.tally1 = cmp.comparisons
                span.args = args
            span.result = result
            span.raised = False
            return result

        return traced


def _resolve(package, dotted: str):
    owner = package
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@contextmanager
def installed(tracer: Tracer, package, missing: dict[str, str]):
    """Wrap every hook target that exists; note the others in ``missing``.

    ``missing`` maps a span name to the reason it cannot be recorded, so the
    layers behind it are reported as unmeasured instead of stopping the run.
    """
    undo = []
    try:
        for owner_path, key, name in HOOKS:
            try:
                owner = _resolve(package, owner_path)
                original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
            except (AttributeError, KeyError, TypeError):
                missing[name] = f"hook target mediocre.{owner_path}.{key} not found"
                continue
            wrapped = tracer.wrap(name, original)
            if isinstance(owner, dict):
                owner[key] = wrapped
            else:
                setattr(owner, key, wrapped)
            undo.append((owner, key, original))
        yield
    finally:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
