import math
import re
from collections import defaultdict
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mediocre.approx as approx
from mediocre.approx import (
    A2Params,
    a1_select,
    a2_las_vegas,
    a2_once,
    a2_params,
    hyperpair_select,
    yao_select,
)
from mediocre.core import (
    CountingComparator,
    Instance,
    Rng,
    generate_instance,
    is_mediocre,
    rank_of,
)
from mediocre.exact import select_by_sort, select_floyd_rivest, select_mom, select_tournament


class RecordingComparator(CountingComparator):
    """Records each answer as a (lower, higher) edge."""

    __slots__ = ("edges",)

    def __init__(self):
        super().__init__()
        self.edges = []

    def less(self, a, b):
        answer = super().less(a, b)
        self.edges.append((a, b) if answer else (b, a))
        return answer

    @property
    def seen(self):
        """Every element the comparator was asked about."""
        return {v for edge in self.edges for v in edge}


def certificate(x, edges):
    """How many elements the transitive closure of the answers puts above x and below x."""
    up, down = defaultdict(list), defaultdict(list)
    for lower, higher in edges:
        up[lower].append(higher)
        down[higher].append(lower)

    def reach(graph):
        found, stack = {x}, [x]
        while stack:
            for w in graph[stack.pop()]:
                if w not in found:
                    found.add(w)
                    stack.append(w)
        return len(found) - 1

    return reach(up), reach(down)


class Key:
    """An element with no native order: identity == and hashing, a hidden value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class KeyComparator(CountingComparator):
    """Orders Keys by their hidden values and counts its own calls."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def less(self, a, b):
        self.calls += 1
        return super().less(a.value, b.value)


class ReversedOrder:
    """A mixin whose less reverses the order."""

    __slots__ = ()

    def less(self, a, b):
        return super().less(b, a)


class MixinComparator(ReversedOrder, CountingComparator):
    """Gets its less from the mixin, not from its own class body."""

    __slots__ = ()


def staged(exact, cmp):
    """Selector wrapper capturing the tally consumed before pool selection."""
    cell = []

    def wrapped(buffer, k, c):
        if not cell:
            cell.append(cmp.comparisons)
        return exact(buffer, k, c)

    return wrapped, cell


class TestYao:
    def test_three_elements_returns_median(self):
        inst = Instance(i=1, j=1, elements=(2, 0, 1))
        out = yao_select(inst, select_by_sort, CountingComparator())
        assert out.element == 1

    def test_hand_traced_prefix(self):
        # prefix of size i+j+1 = 3 is (5, 1, 4); its 2nd largest is 4
        inst = Instance(i=1, j=1, elements=(5, 1, 4, 2, 3))
        out = yao_select(inst, select_by_sort, CountingComparator())
        assert out.element == 4
        assert is_mediocre(4, inst)

    def test_mediocre_over_many_seeds(self):
        for seed in range(40):
            inst = generate_instance(1000, 100, 200, seed=seed)
            out = yao_select(inst, select_mom, CountingComparator())
            assert is_mediocre(out.element, inst)

    def test_only_prefix_is_touched(self):
        inst = generate_instance(300, 20, 30, seed=2)
        cmp = RecordingComparator()
        yao_select(inst, select_mom, cmp)
        assert cmp.seen <= set(inst.elements[:51])


class TestA1:
    def test_pairing_count_fig_configuration(self):
        # n=12, i=2, j=7: six pairs, no leftover, then select 3rd of 6 winners
        inst = generate_instance(12, 2, 7, seed=5)
        cmp = CountingComparator()
        wrapped, cell = staged(select_by_sort, cmp)
        out = a1_select(inst, wrapped, cmp)
        assert cell[0] == 6
        assert out.stage_comparisons == cell[0]
        assert rank_of(out.element, inst) in (7, 8, 9)

    def test_leftover_configuration(self):
        # n=11, i=2, j=6: five pairs plus one leftover, pool of six
        inst = generate_instance(11, 2, 6, seed=5)
        cmp = CountingComparator()
        pools = []

        def spy(buffer, k, c):
            pools.append(list(buffer))
            return select_by_sort(buffer, k, c)

        out = a1_select(inst, spy, cmp)
        assert len(pools[0]) == 6
        assert is_mediocre(out.element, inst)

    def test_exhaustive_small_case(self):
        # n=5, i=j=1: four elements in two pairs, all 120 orderings
        for perm in permutations(range(5)):
            inst = Instance(i=1, j=1, elements=perm)
            out = a1_select(inst, select_by_sort, CountingComparator())
            assert 1 <= out.element <= 3

    def test_delegates_outside_range(self):
        # i > j falls back to the plain prefix scheme
        inst = generate_instance(30, 5, 2, seed=9)
        ours_cmp, plain_cmp = CountingComparator(), CountingComparator()
        ours = a1_select(inst, select_by_sort, ours_cmp)
        plain = yao_select(inst, select_by_sort, plain_cmp)
        assert ours.element == plain.element
        assert ours_cmp.comparisons == plain_cmp.comparisons

    @given(st.integers(0, 2**32), st.integers(0, 200), st.integers(0, 3000))
    @settings(max_examples=60)
    def test_pairing_count_identity(self, seed, i, j):
        n = min(4096, 2 * i + j + 2 + (seed % 97))
        assume(i <= j <= n - 2 * i - 1)
        inst = generate_instance(n, i, j, seed=seed)
        cmp = CountingComparator()
        wrapped, cell = staged(select_by_sort, cmp)
        out = a1_select(inst, wrapped, cmp)
        assert cell[0] == i + (j + 1) // 2
        assert out.stage_comparisons == cell[0]

    def test_only_declared_subset_is_touched(self):
        inst = generate_instance(300, 10, 40, seed=3)
        cmp = RecordingComparator()
        a1_select(inst, select_mom, cmp)
        assert cmp.seen <= set(inst.elements[: 2 * 10 + 40 + 1])


class TestHyperpair:
    def test_groups_of_four_figure_configuration(self):
        # n=24, i=2, j=15, g=4: six groups, 18 tournament comparisons
        inst = generate_instance(24, 2, 15, seed=1)
        cmp = CountingComparator()
        wrapped, cell = staged(select_by_sort, cmp)
        out = hyperpair_select(inst, 4, wrapped, cmp)
        assert cell[0] == 6 * 3
        assert out.stage_comparisons == cell[0]
        assert is_mediocre(out.element, inst)

    def test_g2_matches_pairing_scheme_for_odd_j(self):
        for seed in range(10):
            inst = generate_instance(40, 3, 11, seed=seed)
            a_cmp, h_cmp = CountingComparator(), CountingComparator()
            a = a1_select(inst, select_by_sort, a_cmp)
            h = hyperpair_select(inst, 2, select_by_sort, h_cmp)
            assert a.element == h.element
            assert a_cmp.comparisons == h_cmp.comparisons

    def test_single_group_returns_maximum(self):
        inst = generate_instance(8, 0, 7, seed=2)
        cmp = CountingComparator()
        out = hyperpair_select(inst, 8, select_by_sort, cmp)
        assert out.element == 7
        assert cmp.comparisons == 7

    def test_group_stage_count_identity(self):
        # yao is the grouped scheme with g = 1: a pool of i + j + 1 and no stage
        for g, i, j, n in [(1, 3, 9, 40), (2, 3, 9, 40), (4, 2, 19, 64), (8, 1, 30, 64), (16, 0, 31, 70)]:
            inst = generate_instance(n, i, j, seed=g)
            m = i + -(-(j + 1) // g)
            cmp = CountingComparator()
            wrapped, cell = staged(select_by_sort, cmp)
            out = yao_select(inst, wrapped, cmp) if g == 1 else hyperpair_select(inst, g, wrapped, cmp)
            assert cell[0] == m * (g - 1)
            assert out.stage_comparisons == cell[0]

    def test_range_violation_raises_without_fallback(self):
        inst = generate_instance(10, 2, 7, seed=0)
        with pytest.raises(ValueError, match="<= n violated"):
            hyperpair_select(inst, 4, select_by_sort, CountingComparator())

    @pytest.mark.parametrize("bad", [0, 1, 3, 6, 12])
    def test_group_size_must_be_power_of_two(self, bad):
        inst = generate_instance(64, 1, 1, seed=0)
        with pytest.raises(ValueError, match="power of 2"):
            hyperpair_select(inst, bad, select_by_sort, CountingComparator())

    def test_only_declared_subset_is_touched(self):
        # 4 + ceil(31 / 4) = 12 groups of 4
        inst = generate_instance(300, 4, 30, seed=8)
        cmp = RecordingComparator()
        hyperpair_select(inst, 4, select_mom, cmp)
        assert cmp.seen <= set(inst.elements[:48])


class TestA2Params:
    def test_worked_example(self):
        assert a2_params(8, 8, 1000) == A2Params(m=32, r=13, k=6)

    @pytest.mark.parametrize(
        "i,j,n,fragment",
        [(1, 1, 100, "i + j >= 16"), (-1, 20, 100, "i >= 0"), (20, -1, 100, "j >= 0")],
    )
    def test_too_small_exclusion_counts(self, i, j, n, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            a2_params(i, j, n)

    def test_working_set_must_fit(self):
        with pytest.raises(ValueError, match="<= n violated"):
            a2_params(50, 50, 120)

    def test_large_symmetric_instance(self):
        params = a2_params(8318, 8318, 20000)
        assert params.m <= 20000
        half_root = math.sqrt(params.m) / 2
        assert math.ceil(half_root) <= params.k <= params.r - math.floor(half_root)

    @given(st.integers(0, 5000), st.integers(0, 5000))
    @settings(max_examples=100)
    def test_sample_rank_band(self, i, j):
        assume(i + j >= 16)
        params = a2_params(i, j, 10**9)
        half_root = math.sqrt(params.m) / 2
        assert math.ceil(half_root) <= params.k <= params.r - math.floor(half_root)
        assert params.r <= 2 * (i + j) ** 0.75 + 1

    def test_rank_band_is_never_empty(self):
        # the band depends only on s = i + j; j = 0 and j = s meet its two
        # clamps, and an empty band would put k above its upper end
        for s in range(16, 10**5 + 1):
            for j in (0, s):
                m, r, k = a2_params(s - j, j, 10**9)
                half_root = math.sqrt(m) / 2
                assert math.ceil(half_root) <= k <= r - math.floor(half_root), (s, j)


class TestA2Once:
    def test_deterministic_given_seed(self):
        inst = generate_instance(200, 40, 40, seed=12)
        runs = []
        for _ in range(2):
            cmp = CountingComparator()
            out = a2_once(inst, cmp, Rng(77))
            runs.append((out.element, cmp.comparisons, out.failed))
        assert runs[0] == runs[1]

    def test_success_implies_mediocre(self):
        hits = 0
        for seed in range(300):
            inst = generate_instance(60, 16, 16, seed=seed)
            out = a2_once(inst, CountingComparator(), Rng(seed))
            if not out.failed:
                hits += 1
                assert is_mediocre(out.element, inst)
        assert hits > 0

    @pytest.mark.parametrize("n,i,j", [(500, 100, 0), (300, 0, 16)])
    def test_failure_rate_at_an_empty_side(self, n, i, j):
        # the 2 m^(-1/4) failure bound must survive the clamped sample rank
        bound = 2.0 * a2_params(i, j, n).m ** -0.25
        failures = 0
        for seed in range(1000):
            inst = generate_instance(n, i, j, seed=seed)
            out = a2_once(inst, CountingComparator(), Rng(seed))
            if out.failed:
                failures += 1
            else:
                assert is_mediocre(out.element, inst)
        assert failures / 1000 <= bound

    def test_comparison_budget(self):
        # per-run ceiling m + 16r documented alongside the implementation
        for seed in range(30):
            inst = generate_instance(20000, 8318, 8318, seed=seed)
            params = a2_params(8318, 8318, 20000)
            cmp = CountingComparator()
            a2_once(inst, cmp, Rng(seed))
            assert cmp.comparisons <= params.m + 16 * params.r

    def test_only_working_set_is_touched(self):
        inst = generate_instance(500, 60, 60, seed=6)
        params = a2_params(60, 60, 500)
        cmp = RecordingComparator()
        a2_once(inst, cmp, Rng(6))
        assert cmp.seen <= set(inst.elements[: params.m])


class TestInstrumentationSoundness:
    def test_tally_equals_invocations_for_every_scheme(self):
        # Keys have no <, so a native order query on an element raises TypeError.
        # At (200, 30, 40) every scheme's pool takes the tournament, so
        # median-of-medians is run directly.
        runs = {
            "mom-tournament": lambda inst, c: select_mom(inst.elements, 3, c),
            "mom-median-of-medians": lambda inst, c: select_mom(inst.elements, 100, c),
            "tournament-top": lambda inst, c: select_tournament(inst.elements, 5, c),
            "tournament-bottom": lambda inst, c: select_tournament(inst.elements, 196, c),
            "floyd-rivest": lambda inst, c: select_floyd_rivest(inst.elements, 90, c, Rng(5)),
            "yao": lambda inst, c: yao_select(inst, select_mom, c).element,
            "a1": lambda inst, c: a1_select(inst, select_mom, c).element,
            "hyper2": lambda inst, c: hyperpair_select(inst, 2, select_mom, c).element,
            "hyper4": lambda inst, c: hyperpair_select(inst, 4, select_mom, c).element,
            "a2_once": lambda inst, c: a2_once(inst, c, Rng(3)).element,
            "a2lv": lambda inst, c: a2_las_vegas(inst, c, Rng(4)).element,
        }
        inst = generate_instance(200, 30, 40, seed=15)
        keys = Instance(30, 40, tuple(map(Key, inst.elements)))
        for name, run in runs.items():
            plain, opaque = CountingComparator(), KeyComparator()
            assert run(keys, opaque).value == run(inst, plain), name
            assert opaque.comparisons == opaque.calls == plain.comparisons > 0, name

    def test_tally_equals_invocations_in_batched_splits(self):
        # At (2000, 700, 700) Floyd-Rivest's outer splits, including those of
        # a2's sample selection, reach the batch floor, and so does
        # median-of-medians' first partition of 1401 elements
        runs = {
            "floyd-rivest": lambda inst, c: select_floyd_rivest(inst.elements[:1401], 701, c, Rng(5)),
            "mom-median-of-medians": lambda inst, c: select_mom(inst.elements[:1401], 701, c),
            "a2_once": lambda inst, c: a2_once(inst, c, Rng(3)).element,
            "a2lv": lambda inst, c: a2_las_vegas(inst, c, Rng(4)).element,
        }
        inst = generate_instance(2000, 700, 700, seed=15)
        keys = Instance(700, 700, tuple(map(Key, inst.elements)))
        for name, run in runs.items():
            plain, opaque = CountingComparator(), KeyComparator()
            assert run(keys, opaque).value == run(inst, plain), name
            assert opaque.comparisons == opaque.calls == plain.comparisons > 0, name


class TestCertificates:
    """Every answer is certified by the comparisons made: in the transitive
    closure of the comparator's answers, x has at least i elements above it
    and at least j below it."""

    @given(st.integers(1, 120), st.integers(0, 119), st.integers(0, 119), st.integers(0, 2**32))
    @example(120, 0, 0, 1)
    @example(120, 0, 119, 2)
    @example(120, 119, 0, 3)
    @settings(max_examples=150, deadline=None)
    def test_every_answer_is_certified(self, n, i, j, seed):
        i %= n
        j %= n - i
        inst = generate_instance(n, i, j, seed=seed)
        runs = [
            lambda c: yao_select(inst, select_mom, c).element,
            lambda c: a1_select(inst, select_mom, c).element,
            lambda c: select_floyd_rivest(inst.elements[: i + j + 1], i + 1, c, Rng(seed)),
        ]
        for g in (2, 4):
            if g * (i + -(-(j + 1) // g)) <= n:
                runs.append(lambda c, g=g: hyperpair_select(inst, g, select_mom, c).element)
        try:
            a2_params(i, j, n)
        except ValueError:
            pass
        else:
            runs.append(lambda c: a2_las_vegas(inst, c, Rng(seed)).element)
            self.a2_once_failed(inst, seed)
        for run in runs:
            cmp = RecordingComparator()
            x = run(cmp)
            up, down = certificate(x, cmp.edges)
            assert up >= i and down >= j

    def test_a2_once_fails_exactly_when_its_certificate_is_short(self):
        # the shapes of TestA2Once.test_failure_rate_at_an_empty_side; (300, 0, 16) fails
        # in about 4% of rounds
        failures = 0
        for n, i, j in [(500, 100, 0), (300, 0, 16)]:
            for seed in range(300):
                failures += self.a2_once_failed(generate_instance(n, i, j, seed=seed), seed)
        assert failures > 0

    @staticmethod
    def a2_once_failed(inst, seed):
        """Run a2_once, check that it fails exactly when its certificate is short."""
        cmp = RecordingComparator()
        out = a2_once(inst, cmp, Rng(seed))
        up, down = certificate(out.element, cmp.edges)
        assert out.failed == (up < inst.i or down < inst.j)
        return out.failed


class TestA2LasVegas:
    def test_never_fails_and_counts_cumulatively(self, monkeypatch):
        once = approx.a2_once
        tallies = []

        def recorded(instance, cmp, rng):
            start = cmp.comparisons
            out = once(instance, cmp, rng)
            tallies.append(cmp.comparisons - start)
            return out

        monkeypatch.setattr(approx, "a2_once", recorded)
        retried = 0
        for seed in range(50):
            inst = generate_instance(80, 18, 18, seed=seed)
            cmp = CountingComparator()
            tallies.clear()
            out = a2_las_vegas(inst, cmp, Rng(seed))
            assert not out.failed
            assert out.repetitions == len(tallies) >= 1
            assert sum(tallies) == cmp.comparisons
            assert is_mediocre(out.element, inst)
            retried += out.repetitions > 1
        assert retried  # some seed needs a second round, so the sum spans rounds

    def test_repetition_cap_raises(self, monkeypatch):
        def always_fail(instance, cmp, rng):
            return approx.SelectionOutcome(element=0, failed=True)

        monkeypatch.setattr(approx, "a2_once", always_fail)
        inst = generate_instance(80, 18, 18, seed=1)
        with pytest.raises(RuntimeError, match="consecutive"):
            a2_las_vegas(inst, CountingComparator(), Rng(1))


class TestMixinOrder:
    """A comparator whose less comes from a mixin answers every question."""

    def test_floyd_rivest_takes_the_largest_in_that_order(self):
        assert select_floyd_rivest(list(range(500)), 1, MixinComparator(), Rng(1)) == 0

    def test_a2lv_returns_an_element_mediocre_in_that_order(self):
        for seed in range(10):
            inst = generate_instance(2000, 100, 1200, seed=seed)
            x = a2_las_vegas(inst, MixinComparator(), Rng(seed)).element
            below = sum(e > x for e in inst.elements)  # below x in the reversed order
            assert inst.j <= below <= inst.n - 1 - inst.i, seed
