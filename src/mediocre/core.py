"""Element model, instrumented comparisons, deterministic randomness and the rank oracle.

Problem instances generated here are uniformly random permutations of the
integers 0..n-1, so all elements are distinct and the rank of an element can
be cross-checked trivially.  The counted algorithms use nothing of an element
but ==, hashing and the order a CountingComparator answers, whose tally is the
sole cost metric of this library.
"""

from __future__ import annotations

import sys
from _thread import allocate_lock
from collections.abc import Iterable
from functools import cache
from itertools import repeat
from operator import attrgetter, lt, mod

Element = int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Outputs per packed block: extra memory is a few 16-byte-per-lane ints.
_BLOCK = 1024
# The low word of every 128-bit lane, in lane order, of the packed bytes
# written in native byte order.
_LOW_WORDS = slice(0, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


class CountingComparator:
    """Strict-order comparator that counts every invocation.

    The order is the natural order on integers.  There is no "equal" outcome:
    callers resolve identity with ``==`` (free: duplicates can only be copies
    of the same element), and ask the comparator only genuine order questions.
    less answers one question and adds 1 to the tally; less_each answers one
    question per value of a batch and adds one per value, so the tally still
    counts questions.  Whenever type(self).less is not this class's less,
    less_each asks self.less once per value, in order; checked at each call,
    this covers a less from a class body, a mixin or an assignment alike.
    """

    __slots__ = ("comparisons",)

    def __init__(self) -> None:
        self.comparisons = 0

    def less(self, a: Element, b: Element) -> bool:
        """True iff a orders strictly below b. Adds exactly 1 to the tally."""
        self.comparisons += 1
        return a < b

    def less_each(self, values: Iterable[Element], b: Element) -> bytes:
        """Byte q is 1 iff the q-th value orders strictly below b, else 0.

        Adds exactly 1 to the tally per value.
        """
        if type(self).less is not CountingComparator.less:
            return bytes(map(self.less, values, repeat(b)))
        flags = bytes(map(lt, values, repeat(b)))
        self.comparisons += len(flags)
        return flags


class Rng:
    """Deterministic 64-bit generator (SplitMix64).

    Constants are the reference SplitMix64 ones: increment 0x9E3779B97F4A7C15,
    mixers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  Identical seeds give
    bit-identical streams on any platform, which keeps every benchmark in this
    package replayable from its command line.

    Output k after state s is the mixer applied to s + k * increment, so
    shuffle and sample_with_replacement compute up to _BLOCK outputs at once:
    one 128-bit lane per output in one packed int, mixed with whole-int
    operations (a 64-bit lane times a 64-bit constant cannot carry into the
    next lane).  The low word of each lane is read back from the packed bytes
    in native order with the matching word stride (every other word forwards
    on a little-endian host, backwards from the last on a big-endian one), so
    the draws are the same on both; only the little-endian path has been run.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection sampling."""
        limit = _MASK64 + 1 - _spare(bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def _block(self, count: int, spare: int) -> tuple[memoryview, int]:
        """The next count <= _BLOCK outputs, without advancing the state.

        Also returns a packed int whose bit 128 * k is set iff output k is at
        least 2**64 - spare.
        """
        ks, ones, mask = _lanes()
        if count < _BLOCK:
            cut = (1 << 128 * count) - 1
            ks, ones, mask = ks & cut, ones & cut, mask & cut
        z = (ks + self._state * ones) & mask
        z = (z ^ (z >> 30)) & mask
        z = z * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) & mask
        z = z * 0x94D049BB133111EB & mask
        # The shift moves the next lane's low bits into bits 97..127 only, so
        # bit 64 stays clear for the flag test's carry.
        z ^= z >> 31
        words = memoryview(z.to_bytes(16 * count, sys.byteorder)).cast("Q")[_LOW_WORDS]
        return words, ((z + ones * spare) >> 64) & ones

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle.

        Draws exactly what swapping xs[idx] with xs[self.below(idx + 1)], for
        idx from len(xs) - 1 down to 1, would draw.  The draws come in blocks
        (see the class docstring); a draw below 2**64 - len(xs) is accepted at
        once, as every bound <= len(xs) has a rejection limit above it.  The
        first draw of a block at or above that line goes through below(), and
        the next block starts from the state below() leaves.
        """
        n = len(xs)
        idx = n - 1
        while idx > 0:
            words, flags = self._block(min(idx, _BLOCK), n)
            used = ((flags & -flags).bit_length() - 1) >> 7 if flags else len(words)
            for pos, other in zip(range(idx, 0, -1), map(mod, words[:used], range(idx + 1, 1, -1))):
                xs[pos], xs[other] = xs[other], xs[pos]
            self._state = (self._state + used * _GAMMA) & _MASK64
            idx -= used
            if flags:
                other = self.below(idx + 1)
                xs[idx], xs[other] = xs[other], xs[idx]
                idx -= 1

    def sample_with_replacement(self, bound: int, count: int) -> list[int]:
        """count independent uniform draws from [0, bound).

        Exactly [self.below(bound) for _ in range(count)], drawn in blocks
        (see the class docstring).  below() rejects the same top outputs for
        every draw, so a block that holds any simply drops them.
        """
        out: list[int] = []
        while len(out) < count:
            spare = _spare(bound)
            words, flags = self._block(min(count - len(out), _BLOCK), spare)
            self._state = (self._state + len(words) * _GAMMA) & _MASK64
            if flags:
                words = [w for w in words if w <= _MASK64 - spare]
            out += map(mod, words, repeat(bound))
        return out


def _spare(bound: int) -> int:
    """How many of the 2**64 outputs, the top ones, below(bound) rejects."""
    if bound <= 0:
        raise ValueError(f"bound > 0 violated: bound = {bound}")
    if bound > _MASK64 + 1:
        raise ValueError(f"bound <= 2**64 violated: bound = {bound}")
    return (_MASK64 + 1) % bound


@cache
def _lanes() -> tuple[int, int, int]:
    """Packed constants for a full block.

    Lane k of the three ints holds (k + 1) * increment mod 2**64, 1 and 2**64 - 1.
    """
    ks = b"".join((k * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(1, _BLOCK + 1))
    ones = int.from_bytes((1).to_bytes(16, "little") * _BLOCK, "little")
    return int.from_bytes(ks, "little"), ones, ones * _MASK64


def _check_shape(n: int, i: int, j: int) -> None:
    """Raise unless an n-set has an element outside its top i and bottom j."""
    if i < 0:
        raise ValueError(f"i >= 0 violated: i = {i}")
    if j < 0:
        raise ValueError(f"j >= 0 violated: j = {j}")
    if i + j + 1 > n:
        raise ValueError(f"i + j + 1 <= n violated: {i} + {j} + 1 > {n}")


class _Record:
    """Field-wise == and a repr that names every slot."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        fields = attrgetter(*self.__slots__)
        return other.__class__ is self.__class__ and fields(self) == fields(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"


class Instance(_Record):
    """A selection problem: find an element outside the top i and bottom j of elements.

    n = len(elements) is kept in a slot, as the schemes read it on every call.
    Treat as immutable after construction.
    """

    __slots__ = ("i", "j", "elements", "n")

    def __init__(self, i: int, j: int, elements: tuple[Element, ...]) -> None:
        self.i, self.j, self.elements, self.n = i, j, elements, len(elements)
        _check_shape(self.n, i, j)
        if len(set(elements)) != self.n:
            raise ValueError("elements must be pairwise distinct")


class SelectionOutcome(_Record):
    """Result of one selection run; its tally is on the comparator the caller passed.

    None marks a field that does not apply to the path that ran:
    stage_comparisons is the grouped schemes' knockout tally, failed the
    sampling schemes' verdict, and repetitions the Las Vegas round count.
    """

    __slots__ = ("element", "stage_comparisons", "failed", "repetitions")

    def __init__(self, element: Element, stage_comparisons: int | None = None,
                 failed: bool | None = None, repetitions: int | None = None) -> None:
        self.element, self.stage_comparisons = element, stage_comparisons
        self.failed, self.repetitions = failed, repetitions


def generate_instance(n: int, i: int, j: int, seed: int) -> Instance:
    """Instance over a seeded uniformly random permutation of 0..n-1.

    The permutation, Rng(seed).shuffle of range(n), is memoized per (n, seed):
    the cache drops its least recently used entries to hold at most
    _PERM_BUDGET elements in all, and a permutation longer than that is not
    kept.  Cached permutations share one set of ints, as many as the longest
    ever cached: the budget bounds the ints either way, but a miss slices old
    ints instead of making n new ones (0.07 against 0.46 ms at n = 20000;
    median-lv passes ran about 8% faster in-process).  The cache is one per
    process and locked for threads.  Equal (n, seed) share one elements
    tuple, each call returns its own Instance, and the permutation, distinct
    by construction, skips Instance's distinctness scan.  An n whose
    permutation the process cannot hold raises ValueError.
    """
    if n < 1:
        raise ValueError(f"n >= 1 violated: n = {n}")
    _check_shape(n, i, j)
    try:
        elements = _permutation(n, seed)
    except (MemoryError, OverflowError):
        raise ValueError(f"n = {n} is too large: its permutation does not fit in memory") from None
    instance = Instance.__new__(Instance)
    instance.i, instance.j, instance.elements, instance.n = i, j, elements, n
    return instance


# Most elements the permutation cache holds at once, over all its entries:
# 3.3 times the largest set a benchmark workload reuses, skew-det's four seeds
# at n = 20000.
_PERM_BUDGET = 1 << 18
# (n, seed) -> permutation, least recently used first; _perm_total counts its
# elements.  Both change under _perm_lock.
_perms: dict[tuple[int, int], tuple[int, ...]] = {}
_perm_total = 0
# 0, 1, 2, ... as one set of int objects that every cached permutation
# shares, as long as the longest one ever cached (at most _PERM_BUDGET).
_ints: list[int] = []
_perm_lock = allocate_lock()


def _permutation(n: int, seed: int) -> tuple[int, ...]:
    """Rng(seed).shuffle of range(n), from the cache if it holds it."""
    global _perm_total
    key = (n, seed)
    with _perm_lock:
        perm = _perms.pop(key, None)
        if perm is None:
            if n > _PERM_BUDGET:
                xs = list(range(n))
                Rng(seed).shuffle(xs)
                return tuple(xs)
            _ints.extend(range(len(_ints), n))
            xs = _ints[:n]
            Rng(seed).shuffle(xs)
            perm = tuple(xs)
            while _perm_total + n > _PERM_BUDGET:
                _perm_total -= len(_perms.pop(next(iter(_perms))))
            _perm_total += n
        _perms[key] = perm
        return perm


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
