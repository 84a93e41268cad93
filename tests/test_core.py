import copy
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mediocre import A2Params, InstanceConstants, SelectionOutcome, core
from mediocre.core import (
    _BLOCK,
    CountingComparator,
    Instance,
    Rng,
    generate_instance,
    is_mediocre,
    rank_of,
)

from doubles import MixinComparator, RecordingComparator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
ROOT = Path(__file__).resolve().parent.parent


def _uncached(n, seed):
    """The permutation generate_instance must return for (n, seed), built without the cache."""
    xs = list(range(n))
    Rng(seed).shuffle(xs)
    return tuple(xs)


def _reference_shuffle(rng, length):
    """Fisher-Yates on Rng.below, the definition Rng.shuffle must match."""
    xs = list(range(length))
    for idx in range(length - 1, 0, -1):
        other = rng.below(idx + 1)
        xs[idx], xs[other] = xs[other], xs[idx]
    return xs


def _seed_drawing(z, position):
    """A seed whose draw at 0-based position is z."""
    return (_state_drawing(z) - (position + 1) * _GAMMA) & _MASK64


def _peak_above_result(fn):
    """Peak traced bytes fn allocates beyond what its result still holds."""
    tracemalloc.start()
    try:
        result = fn()  # still alive below, so it counts in current, not in the excess
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


def _state_drawing(z):
    """The SplitMix64 state whose output is z (the output mixer is a bijection)."""

    def unshift(x, k):
        y = x
        for _ in range(64 // k + 1):
            y = x ^ (y >> k)
        return y

    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)


class TestGenerateInstance:
    def test_single_element(self):
        inst = generate_instance(1, 0, 0, seed=7)
        assert inst.elements == (0,)

    def test_deterministic_for_equal_seeds(self):
        a = generate_instance(5, 2, 2, seed=123)
        b = generate_instance(5, 2, 2, seed=123)
        assert a.elements == b.elements == _uncached(5, 123)

    def test_different_seeds_differ(self):
        a = generate_instance(50, 0, 0, seed=1)
        b = generate_instance(50, 0, 0, seed=2)
        assert a.elements != b.elements

    def test_large_instance_is_a_permutation(self):
        inst = generate_instance(10_000, 100, 100, seed=1)
        assert sorted(inst.elements) == list(range(10_000))

    @pytest.mark.parametrize(
        "n,i,j,fragment",
        [
            (3, 2, 1, "i + j + 1 <= n"),
            (0, 0, 0, "n >= 1"),
            (5, -1, 0, "i >= 0"),
            (5, 0, -2, "j >= 0"),
        ],
    )
    def test_invalid_parameters_name_the_inequality(self, n, i, j, fragment):
        # Instance has no n >= 1 check; i + j + 1 <= n catches n = 0.
        with pytest.raises(ValueError, match=re.escape(fragment)):
            generate_instance(n, i, j, seed=0)
        direct = "i + j + 1 <= n" if fragment == "n >= 1" else fragment
        with pytest.raises(ValueError, match=re.escape(direct)):
            Instance(i=i, j=j, elements=tuple(range(n)))

    def test_instance_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            Instance(i=0, j=0, elements=(1, 1, 2))

    @pytest.fixture
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(core, "_perms", {})
        monkeypatch.setattr(core, "_perm_total", 0)
        monkeypatch.setattr(core, "_ints", [])

    CASES = [(1, 0), (2, 5), (64, 3), (64, 4), (1000, 7), (3000, 2**64 - 1)]

    @pytest.mark.usefixtures("empty_cache")
    def test_cache_matches_uncached_shuffle_on_miss_hit_and_after_eviction(self, monkeypatch):
        for n, seed in self.CASES:
            first = generate_instance(n, 0, 0, seed).elements
            assert first == _uncached(n, seed)  # miss
            assert generate_instance(n, 0, 0, seed).elements is first  # hit
        monkeypatch.setattr(core, "_PERM_BUDGET", 3000)
        generate_instance(3000, 0, 0, seed=99)  # evicts every other entry
        assert list(core._perms) == [(3000, 99)]
        for n, seed in self.CASES:
            assert generate_instance(n, 0, 0, seed).elements == _uncached(n, seed)  # regenerated

    @pytest.mark.usefixtures("empty_cache")
    def test_cache_stays_within_budget_and_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(core, "_PERM_BUDGET", 100)
        for seed in range(4):
            generate_instance(30, 0, 0, seed)
        assert list(core._perms) == [(30, 1), (30, 2), (30, 3)]  # seed 0 went first
        generate_instance(30, 0, 0, seed=1)  # a hit makes seed 1 the most recent
        generate_instance(20, 0, 0, seed=0)  # 90 + 20 > 100 evicts seed 2, then 60 + 20 fits
        assert list(core._perms) == [(30, 3), (30, 1), (20, 0)]
        generate_instance(101, 0, 0, seed=0)  # longer than the budget: returned, not kept
        assert list(core._perms) == [(30, 3), (30, 1), (20, 0)]
        assert core._perm_total == sum(map(len, core._perms.values())) == 80

    @pytest.mark.usefixtures("empty_cache")
    def test_cache_total_never_exceeds_budget(self, monkeypatch):
        monkeypatch.setattr(core, "_PERM_BUDGET", 500)
        for k in range(300):
            generate_instance(1 + k * 37 % 200, 0, 0, seed=k % 7)
            assert core._perm_total == sum(map(len, core._perms.values())) <= 500

    @pytest.mark.usefixtures("empty_cache")
    def test_cache_stays_consistent_under_threads(self, monkeypatch):
        monkeypatch.setattr(core, "_PERM_BUDGET", 200)
        shapes = [(1 + 7 * k % 60, k % 3) for k in range(30)]
        expected = {shape: _uncached(*shape) for shape in shapes}
        wrong, done = [], []

        def work(offset):
            for k in range(400):
                n, seed = shapes[(k + offset) % len(shapes)]
                if generate_instance(n, 0, 0, seed).elements != expected[n, seed]:
                    wrong.append((n, seed))
            done.append(offset)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(8)) and not wrong
        assert core._perm_total == sum(map(len, core._perms.values())) <= 200

    @pytest.mark.parametrize("n,i,j,fragment", [(3, 2, 1, "i + j + 1 <= n"), (5, -1, 0, "i >= 0"), (5, 0, -2, "j >= 0")])
    def test_invalid_parameters_raise_alike_on_hit_and_miss(self, empty_cache, n, i, j, fragment):
        for _ in ("miss", "hit"):
            with pytest.raises(ValueError, match=re.escape(fragment)):
                generate_instance(n, i, j, seed=0)
            generate_instance(n, 0, 0, seed=0)
        assert list(core._perms) == [(n, 0)]

    def test_checks_the_shape_once_and_skips_the_distinctness_scan(self, monkeypatch):
        calls = []
        check = core._check_shape
        monkeypatch.setattr(core, "_check_shape", lambda *a: calls.append(a) or check(*a))
        # Instance's constructor is what scans for duplicates
        monkeypatch.setattr(Instance, "__init__", lambda *a, **k: pytest.fail("scanned"))
        for _ in ("miss", "hit"):
            generate_instance(64, 3, 4, seed=5)
        assert calls == [(64, 3, 4)] * 2

    @pytest.mark.usefixtures("empty_cache")
    def test_cached_permutations_share_their_ints(self):
        # ints above 256 are separate objects unless the cache shares them
        shapes = [(3000, 1), (3000, 2), (1000, 3), (5000, 4)]
        perms = [generate_instance(n, 0, 0, seed).elements for n, seed in shapes]
        shared = {v: v for v in perms[-1]}
        for (n, seed), perm in zip(shapes, perms):
            assert perm == _uncached(n, seed)
            assert all(shared[v] is v for v in perm), (n, seed)

    @pytest.mark.usefixtures("empty_cache")
    def test_budget_bounds_the_cached_elements_and_the_shared_ints(self, monkeypatch):
        monkeypatch.setattr(core, "_PERM_BUDGET", 100)
        shapes = [(90, 0), (30, 1), (20, 2), (30, 3), (101, 9), (50, 4), (10, 5), (100, 6), (60, 7), (45, 8)]
        for n, seed in shapes:
            ints = len(core._ints)
            assert generate_instance(n, 0, 0, seed).elements == _uncached(n, seed)
            assert core._perm_total <= 100 and len(core._ints) <= 100, (n, seed)
            if n == 101:  # longer than the budget: neither kept nor grows the shared ints
                assert (101, 9) not in core._perms and len(core._ints) == ints

    @pytest.mark.usefixtures("empty_cache")
    def test_budget_holds_a_skew_det_pass(self):
        # skew-det reuses four seeds at n = 20000 within each pass
        first = [generate_instance(20000, 0, 0, seed).elements for seed in range(4)]
        for seed, perm in enumerate(first):
            assert generate_instance(20000, 0, 0, seed).elements is perm

    def test_instances_sharing_a_permutation_keep_their_own_shape(self):
        a = generate_instance(40, 3, 30, seed=11)
        b = generate_instance(40, 20, 1, seed=11)
        assert a.elements is b.elements
        assert (a.i, a.j, a.n) == (3, 30, 40)
        assert (b.i, b.j, b.n) == (20, 1, 40)
        assert a != b


class TestRankOracle:
    def test_minimum_has_rank_zero(self):
        inst = generate_instance(9, 0, 0, seed=3)
        assert rank_of(0, inst) == 0

    def test_maximum_has_rank_n_minus_one(self):
        inst = generate_instance(9, 0, 0, seed=3)
        assert rank_of(8, inst) == 8

    def test_identity_permutation_ranks(self):
        inst = Instance(i=0, j=0, elements=tuple(range(10)))
        assert rank_of(4, inst) == 4

    def test_missing_element_raises(self):
        inst = generate_instance(4, 0, 0, seed=1)
        with pytest.raises(ValueError, match="not present"):
            rank_of(99, inst)

    @given(st.permutations(list(range(8))))
    def test_rank_is_a_bijection(self, perm):
        inst = Instance(i=0, j=0, elements=tuple(perm))
        assert sorted(rank_of(x, inst) for x in perm) == list(range(8))


class TestIsMediocre:
    def test_three_elements_only_median_qualifies(self):
        inst = Instance(i=1, j=1, elements=(2, 0, 1))
        assert [is_mediocre(x, inst) for x in (0, 1, 2)] == [False, True, False]

    def test_no_exclusions_everything_qualifies(self):
        inst = generate_instance(5, 0, 0, seed=11)
        assert all(is_mediocre(x, inst) for x in inst.elements)

    def test_qualifying_ranks_enumeration(self):
        # n=12, i=2, j=7: exactly ranks 7, 8, 9 satisfy j <= r <= n-1-i
        inst = generate_instance(12, 2, 7, seed=5)
        good = sorted(rank_of(x, inst) for x in inst.elements if is_mediocre(x, inst))
        assert good == [7, 8, 9]

    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, n - 1),
                st.permutations(list(range(n))),
            )
        )
    )
    def test_counting_equivalence(self, case):
        # mediocre iff at least i elements larger and at least j smaller
        n, i, perm = case
        j = n - 1 - i
        inst = Instance(i=i, j=j, elements=tuple(perm))
        for x in perm:
            larger = sum(1 for e in perm if e > x)
            smaller = sum(1 for e in perm if e < x)
            assert is_mediocre(x, inst) == (larger >= i and smaller >= j)


class InheritingComparator(RecordingComparator):
    """Defines neither less nor less_each."""

    __slots__ = ()


class BatchComparator(RecordingComparator):
    """Defines both methods; its less_each answers without asking its less."""

    __slots__ = ()

    def less(self, a, b):
        return super().less(a, b)

    def less_each(self, values, b):
        return b"own"


# small values, so lists hold duplicates and b often equals a member
batches = given(st.lists(st.integers(-3, 3), max_size=30), st.integers(-3, 3))


class TestCountingComparator:
    @batches
    @example([], 0)
    def test_less_each_answers_every_value_and_counts_each(self, values, b):
        cmp = CountingComparator()
        cmp.less(0, 1)
        assert cmp.less_each(values, b) == bytes(v < b for v in values)
        assert cmp.comparisons == 1 + len(values)

    @batches
    @example([], 0)
    @pytest.mark.parametrize("cls", [RecordingComparator, InheritingComparator])
    def test_a_subclass_with_its_own_less_answers_batches_through_it(self, cls, values, b):
        cmp = cls()
        assert cmp.less_each(values, b) == bytes(v < b for v in values)
        assert cmp.pairs == [(v, b) for v in values]
        assert cmp.comparisons == len(values)

    @batches
    @example([], 0)
    def test_a_less_from_a_mixin_answers_batches(self, values, b):
        cmp = MixinComparator()
        assert cmp.less_each(values, b) == bytes(v > b for v in values)
        assert cmp.pairs == [(v, b) for v in values]
        assert cmp.comparisons == len(cmp.pairs) == len(values)

    def test_a_subclass_defining_less_each_keeps_it(self):
        cmp = BatchComparator()
        assert cmp.less_each([1, 2], 3) == b"own"
        assert cmp.pairs == [] and cmp.comparisons == 0

    def test_tally_counts_each_invocation(self):
        cmp = CountingComparator()
        assert cmp.comparisons == 0
        assert cmp.less(1, 2) is True
        assert cmp.less(2, 1) is False
        assert cmp.comparisons == 2

    @given(st.lists(st.integers(), min_size=3, max_size=3, unique=True))
    def test_order_is_strict_and_transitive(self, vals):
        cmp = CountingComparator()
        a, b, c = vals
        assert cmp.less(a, b) != cmp.less(b, a)
        if cmp.less(a, b) and cmp.less(b, c):
            assert cmp.less(a, c)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42)
        b = Rng(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    @given(st.integers(0, 2**64 - 1), st.integers(1, 10_000))
    @settings(max_examples=50)
    def test_below_stays_in_bounds(self, seed, bound):
        rng = Rng(seed)
        assert all(0 <= rng.below(bound) < bound for _ in range(20))

    def test_below_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="bound > 0"):
            Rng(1).below(0)

    def test_below_and_sample_reject_a_bound_above_2_to_64(self):
        # every 64-bit draw would be rejected, so neither could ever return
        with pytest.raises(ValueError, match=r"bound <= 2\*\*64 violated"):
            Rng(1).below(2**64 + 1)
        with pytest.raises(ValueError, match=r"bound <= 2\*\*64 violated"):
            Rng(1).sample_with_replacement(2**64 + 1, 1)

    def test_shuffle_is_a_permutation(self):
        xs = list(range(100))
        Rng(9).shuffle(xs)
        assert xs != list(range(100))
        assert sorted(xs) == list(range(100))

    def test_stream_matches_published_splitmix64_vector(self):
        rng = Rng(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_shuffle_stream_is_pinned(self):
        rng = Rng(9)
        xs = list(range(10))
        rng.shuffle(xs)
        assert xs == [3, 2, 1, 9, 7, 5, 0, 6, 4, 8]
        assert rng._state == 0x8FF34785799E5CC6

    @given(st.integers(0, 2**64 - 1), st.integers(0, 300))
    @settings(max_examples=200)
    def test_shuffle_equals_fisher_yates_on_below(self, seed, length):
        fast, ref = Rng(seed), Rng(seed)
        xs = list(range(length))
        fast.shuffle(xs)
        assert xs == _reference_shuffle(ref, length)
        assert fast.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("length", [3, 4, 6, 7, 301])
    def test_shuffle_equals_fisher_yates_on_a_top_draw(self, length):
        # The second draw, for bound length - 1, is 2**64 - 1: accepted for
        # bound 2, rejected for bounds 3, 5, 6 and 300.
        seed = _seed_drawing(_MASK64, 1)
        probe = Rng(seed)
        probe.next_u64()
        assert probe.next_u64() == _MASK64
        fast, ref = Rng(seed), Rng(seed)
        xs = list(range(length))
        fast.shuffle(xs)
        assert xs == _reference_shuffle(ref, length)
        assert fast.next_u64() == ref.next_u64()

    def test_sample_with_replacement(self):
        draws = Rng(3).sample_with_replacement(10, 1000)
        assert len(draws) == 1000
        assert set(draws) <= set(range(10))
        # with 1000 draws from 10 buckets every bucket should appear
        assert len(set(draws)) == 10

    @pytest.mark.parametrize("length", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 20000])
    def test_shuffle_equals_fisher_yates_across_blocks(self, length):
        fast, ref = Rng(length), Rng(length)
        xs = list(range(length))
        fast.shuffle(xs)
        assert xs == _reference_shuffle(ref, length)
        assert fast._state == ref._state

    @pytest.mark.parametrize("position", [1500, 1976])
    def test_shuffle_equals_fisher_yates_on_a_deep_top_draw(self, position):
        # Draw `position` of a 3000-element shuffle, in its second block, is
        # 2**64 - 1, for bound 3000 - position: rejected for 1500, accepted for 1024.
        seed = _seed_drawing(_MASK64, position)
        probe = Rng(seed)
        assert [probe.next_u64() for _ in range(position + 1)][-1] == _MASK64
        fast, ref = Rng(seed), Rng(seed)
        xs = list(range(3000))
        fast.shuffle(xs)
        assert xs == _reference_shuffle(ref, 3000)
        assert fast._state == ref._state

    @given(
        st.integers(0, 2**64 - 1),
        st.one_of(st.integers(1, 2**64), st.integers(2**63 + 1, 2**63 + 2**20)),
        st.integers(0, 3000),
    )
    @settings(max_examples=100, deadline=None)
    def test_sample_equals_below_draws(self, seed, bound, count):
        fast, ref = Rng(seed), Rng(seed)
        assert fast.sample_with_replacement(bound, count) == [ref.below(bound) for _ in range(count)]
        assert fast.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("bound", [3, 2**40 + 1, 2**63 + 1, 2**64])
    def test_sample_equals_below_draws_on_a_top_draw(self, bound):
        # Draw 1500 of 3000 is 2**64 - 1: rejected unless bound is a power of two.
        fast, ref = Rng(_seed_drawing(_MASK64, 1500)), Rng(_seed_drawing(_MASK64, 1500))
        assert fast.sample_with_replacement(bound, 3000) == [ref.below(bound) for _ in range(3000)]
        assert fast._state == ref._state

    @pytest.mark.parametrize("bound", [-5, 0, 1, 7])
    def test_empty_sample_draws_nothing(self, bound):
        rng = Rng(4)
        assert rng.sample_with_replacement(bound, 0) == []
        assert rng._state == 4

    @pytest.mark.parametrize("bound", [-5, 0])
    def test_sample_rejects_nonpositive_bound(self, bound):
        with pytest.raises(ValueError, match="bound > 0 violated"):
            Rng(4).sample_with_replacement(bound, 1)


class TestRngMemory:
    """Extra memory is bounded by the block, not by the length (16 bytes a lane if packed whole)."""

    ALLOWANCE = 256 * 1024

    def test_shuffle_of_200k(self):
        xs = list(range(200_000))
        assert _peak_above_result(lambda: Rng(2).shuffle(xs)) < self.ALLOWANCE < 16 * len(xs)

    def test_sample_of_100k(self):
        count = 100_000
        assert _peak_above_result(lambda: Rng(3).sample_with_replacement(200_000, count)) < self.ALLOWANCE < 16 * count


class TestPublicRecords:
    RECORDS = [
        (SelectionOutcome, {"element": 7, "stage_comparisons": 3, "failed": False, "repetitions": 2}),
        (A2Params, {"m": 32, "r": 13, "k": 6}),
        (InstanceConstants, {"alpha": 0.25, "c_a1": 1.5, "c_yao": 1.8, "c_a4": None, "c_yao4": None}),
    ]

    @pytest.mark.parametrize("cls,fields", RECORDS, ids=lambda r: getattr(r, "__name__", ""))
    def test_records_compare_and_print_field_by_field(self, cls, fields):
        record = cls(*fields.values())
        assert record == cls(**fields)
        assert [getattr(record, name) for name in fields] == list(fields.values())
        assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
        first = next(iter(fields))
        assert record != cls(**{**fields, first: -1})

    def test_outcome_defaults_to_none(self):
        out = SelectionOutcome(5)
        assert out == SelectionOutcome(element=5, stage_comparisons=None, failed=None, repetitions=None)
        assert (out.stage_comparisons, out.failed, out.repetitions) == (None, None, None)

    def test_instance_checks_its_shape_and_elements(self):
        inst = Instance(1, 1, (2, 0, 1))
        assert (inst.i, inst.j, inst.elements, inst.n) == (1, 1, (2, 0, 1), 3)
        assert inst == Instance(i=1, j=1, elements=(2, 0, 1))
        assert inst != Instance(1, 0, (2, 0, 1))
        generated = generate_instance(9, 2, 3, seed=4)
        assert generated == Instance(2, 3, generated.elements) and generated.n == 9
        assert all(f"{name}=" in repr(inst) for name in ("i", "j", "elements"))
        assert pickle.loads(pickle.dumps(inst)) == copy.copy(inst) == inst
        with pytest.raises(ValueError, match=re.escape("i + j + 1 <= n violated: 2 + 1 + 1 > 3")):
            Instance(2, 1, (2, 0, 1))
        with pytest.raises(ValueError, match="^elements must be pairwise distinct$"):
            Instance(0, 0, (1, 1, 2))


def test_import_builds_no_lane_constants():
    code = (
        "import sys, mediocre, mediocre.cli; from mediocre import core; "
        "print(core._lanes.cache_info().currsize, 'array' in sys.modules); "
        "core.Rng(1).shuffle(list(range(50))); core.Rng(2).shuffle(list(range(3000))); "
        "print(core._lanes.cache_info().misses)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["0 False", "1"]  # import builds nothing; two shuffles, one build


def test_import_loads_no_dataclasses_or_inspect():
    # -S skips site, so only what the package itself imports is loaded
    code = (
        "import sys; before = set(sys.modules); import mediocre, mediocre.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
