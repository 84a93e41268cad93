"""Element model, instrumented comparisons, deterministic randomness and the rank oracle.

Elements are plain integers.  Problem instances generated here are uniformly
random permutations of 0..n-1, so all elements are distinct and the rank of an
element can be cross-checked trivially.  Every pairwise order query made by an
algorithm goes through a CountingComparator, whose tally is the sole cost
metric of this library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Element = int

_MASK64 = (1 << 64) - 1


class CountingComparator:
    """Strict-order comparator that counts every invocation.

    The order is the natural order on integers.  There is no "equal" outcome:
    callers resolve identity with ``==`` (free: duplicates can only be copies
    of the same element), and ask the comparator only genuine order questions.
    """

    __slots__ = ("comparisons",)

    def __init__(self) -> None:
        self.comparisons = 0

    def less(self, a: Element, b: Element) -> bool:
        """True iff a orders strictly below b. Adds exactly 1 to the tally."""
        self.comparisons += 1
        return a < b


class Rng:
    """Deterministic 64-bit generator (SplitMix64).

    Constants are the reference SplitMix64 ones: increment 0x9E3779B97F4A7C15,
    mixers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  Identical seeds give
    bit-identical streams on any platform, which keeps every benchmark in this
    package replayable from its command line.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound > 0 violated: bound = {bound}")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle.

        Draws exactly what swapping xs[idx] with xs[self.below(idx + 1)], for
        idx from len(xs) - 1 down to 1, would draw, with the first next_u64 of
        each below() call inlined.  A draw below 2**64 - len(xs) is accepted
        at once: every bound <= len(xs) has a rejection limit above it.
        """
        s = self._state
        early = _MASK64 + 1 - len(xs)
        for idx in range(len(xs) - 1, 0, -1):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z >= early and z >= _MASK64 + 1 - ((_MASK64 + 1) % (idx + 1)):
                # Rejected: below() goes on drawing from the next state.
                self._state = s
                other = self.below(idx + 1)
                s = self._state
            else:
                other = z % (idx + 1)
            xs[idx], xs[other] = xs[other], xs[idx]
        self._state = s

    def sample_with_replacement(self, bound: int, count: int) -> list[int]:
        """count independent uniform draws from [0, bound)."""
        return [self.below(bound) for _ in range(count)]


def _check_shape(n: int, i: int, j: int) -> None:
    """Raise unless an n-set has an element outside its top i and bottom j."""
    if i < 0:
        raise ValueError(f"i >= 0 violated: i = {i}")
    if j < 0:
        raise ValueError(f"j >= 0 violated: j = {j}")
    if i + j + 1 > n:
        raise ValueError(f"i + j + 1 <= n violated: {i} + {j} + 1 > {n}")


@dataclass(slots=True)
class Instance:
    """A selection problem: find an element outside the top i and bottom j of elements.

    n = len(elements) is kept in a slot, as the schemes read it on every call.
    Treat as immutable after construction.
    """

    i: int
    j: int
    elements: tuple[Element, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        self.n = len(self.elements)
        _check_shape(self.n, self.i, self.j)
        if len(set(self.elements)) != self.n:
            raise ValueError("elements must be pairwise distinct")


@dataclass(slots=True)
class SelectionOutcome:
    """Result of one selection run; its tally is on the comparator the caller passed.

    stage_comparisons is the tally of the grouped schemes' knockout stage,
    None for the other paths.  failed is meaningful only for the Monte Carlo
    randomized path.  repetitions counts Las Vegas retries.
    """

    element: Element
    stage_comparisons: int | None = None
    failed: bool = False
    repetitions: int = 1


def generate_instance(n: int, i: int, j: int, seed: int) -> Instance:
    """Instance over a seeded uniformly random permutation of 0..n-1."""
    if n < 1:
        raise ValueError(f"n >= 1 violated: n = {n}")
    _check_shape(n, i, j)
    perm = list(range(n))
    Rng(seed).shuffle(perm)
    return Instance(i=i, j=j, elements=tuple(perm))


def rank_of(x: Element, instance: Instance) -> int:
    """Number of instance elements strictly smaller than x (0-based rank).

    Full scan, independent of any algorithm under test; never touches a
    CountingComparator.
    """
    if x not in instance.elements:
        raise ValueError(f"element {x} not present in instance")
    return sum(1 for e in instance.elements if e < x)


def is_mediocre(x: Element, instance: Instance) -> bool:
    """True iff x avoids both the top i and the bottom j of the instance."""
    r = rank_of(x, instance)
    return instance.j <= r <= instance.n - 1 - instance.i
