import math
import statistics
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mediocre.core import CountingComparator, Rng, generate_instance
from mediocre.exact import (
    _BATCH,
    _FR_SMALL,
    _TOURNAMENT_BUDGET,
    _fr_smallest,
    _group_fives,
    _mom_smallest,
    _select_range,
    _split,
    select_by_sort,
    select_floyd_rivest,
    select_mom,
    select_tournament,
)


class RecordingComparator(CountingComparator):
    """Remembers every question, in order, as the pair it was asked about."""

    __slots__ = ("pairs",)

    def __init__(self):
        super().__init__()
        self.pairs = []

    def less(self, a, b):
        self.pairs.append((a, b))
        return super().less(a, b)

    @property
    def seen(self):
        """Every value it was asked about."""
        return set().union(*self.pairs)


class AuditComparator(CountingComparator):
    """Counts invocations of less() independently of the tally."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def less(self, a, b):
        self.calls += 1
        return super().less(a, b)


def tournament_bound(size, k):
    """P - 1 + (k' - 1) * ceil(log2 P), k' = min(k, P - k + 1)."""
    return size - 1 + (min(k, size - k + 1) - 1) * (size - 1).bit_length()


@pytest.mark.parametrize(
    "select", [select_by_sort, select_tournament, select_mom, select_floyd_rivest],
    ids=["sort", "tournament", "mom", "fr"],
)
@pytest.mark.parametrize(
    "buffer,k", [([1, 2], 0), ([1, 2], 3), ([], 1)], ids=["k_zero", "k_above_len", "empty"]
)
def test_invalid_k_is_rejected(select, buffer, k):
    cmp = CountingComparator()
    rng = (Rng(0),) if select is select_floyd_rivest else ()
    with pytest.raises(ValueError, match=rf"1 <= k <= len\(buffer\) violated: k = {k}, len = {len(buffer)}"):
        select(buffer, k, cmp, *rng)
    assert cmp.comparisons == 0


# At P = 69 the median's tournament worst case, 68 + 34 * 7, exceeds the
# budget, so select_mom takes median-of-medians there (whose four trailing
# values fill no group) and the tournament at k = 2.  On a tuple any
# write into the buffer raises.
@pytest.mark.parametrize("select,k", [
    (select_by_sort, 35),
    (select_tournament, 1), (select_tournament, 69),
    (select_tournament, 3), (select_tournament, 67),
    (select_mom, 2), (select_mom, 35),
    (select_floyd_rivest, 35),
], ids=["sort", "tournament-max", "tournament-min", "tournament-top", "tournament-bottom",
        "mom-tournament", "mom-groups", "fr"])
@pytest.mark.parametrize("kind", [list, tuple])
def test_does_not_mutate_input(select, k, kind):
    elements = generate_instance(69, 0, 0, seed=1).elements
    buf = kind(elements)
    rng = (Rng(0),) if select is select_floyd_rivest else ()
    assert select(buf, k, CountingComparator(), *rng) == sorted(elements)[69 - k]
    assert buf == kind(elements)


class TestSelectBySort:
    @pytest.mark.parametrize(
        "buffer,k,expected",
        [([3, 1, 2], 1, 3), ([3, 1, 2], 3, 1), ([5, 9, 2, 7], 2, 7)],
    )
    def test_examples(self, buffer, k, expected):
        assert select_by_sort(buffer, k, CountingComparator()) == expected


class TestSelectMom:
    def test_k1_is_maximum(self):
        buf = [4, 8, 0, 3]
        assert select_mom(buf, 1, CountingComparator()) == 8

    def test_exhaustive_small_oracle(self):
        for size in range(1, 7):
            for perm in permutations(range(size)):
                for k in range(1, size + 1):
                    cmp = CountingComparator()
                    assert select_mom(perm, k, cmp) == sorted(perm)[size - k]

    def test_random_oracle_sweep(self):
        for size in range(1, 201):
            inst = generate_instance(size, 0, 0, seed=size)
            k = (size * 7) % size + 1
            cmp = CountingComparator()
            got = select_mom(inst.elements, k, cmp)
            assert got == sorted(inst.elements)[size - k]

    def test_multiset_selection(self):
        vals = [3, 1, 3, 3, 2, 1, 2, 2, 2]
        ordered = sorted(vals)
        for k in range(1, len(vals) + 1):
            assert select_mom(vals, k, CountingComparator()) == ordered[len(vals) - k]

    def test_tally_ceiling_at_1e5(self):
        # loose worst-case ceiling on every input; the median costs about
        # 5.2n on each of these: a pass spends 6 comparisons per group of
        # five on its median and 2 per group to partition, 1.6 per element
        n = 100_000
        random = generate_instance(n, 0, 0, seed=17).elements
        ascending = list(range(n))
        organ_pipe = list(range(0, n, 2)) + list(range(n - 1, 0, -2))
        for buf in (random, ascending, ascending[::-1], organ_pipe):
            cmp = CountingComparator()
            assert select_mom(buf, n // 2, cmp) == select_by_sort(buf, n // 2)
            assert cmp.comparisons <= 25 * n
            if buf is random:
                assert cmp.comparisons <= 5.5 * n

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_small_alphabet_oracle(self, vals):
        # copies of the pivot can sit on a group's settled side
        for k in range(1, len(vals) + 1):
            cmp = AuditComparator()
            assert select_mom(vals, k, cmp) == select_by_sort(vals, k)
            assert cmp.comparisons == cmp.calls

    def test_rank_and_size_pick_the_tournament(self):
        # the tournament runs exactly when its worst case is at most the budget times P
        for size in (1, 2, 10, 26, 333, 1000):
            buf = generate_instance(size, 0, 0, seed=size).elements
            for k in sorted({1, 2, 3, 6, 50, 100, size // 2 + 1, size - 5, size - 1, size}):
                if not 1 <= k <= size:
                    continue
                mom, tour, oracle = AuditComparator(), AuditComparator(), AuditComparator()
                assert select_mom(buf, k, mom) == select_by_sort(buf, k)
                select_tournament(buf, k, tour)
                assert _mom_smallest(list(buf), size - k, oracle) == select_by_sort(buf, k)
                picks = tournament_bound(size, k) <= _TOURNAMENT_BUDGET * size
                assert mom.calls == (tour.calls if picks else oracle.calls), (size, k)

    @pytest.mark.parametrize("size,k", [(10_000, 1001), (17_000, 3001), (5000, 1001)],
                             ids=["a1-0.05", "yao-0.15", "hyper4-0.05"])
    def test_skew_pools_between_2p_and_4p_take_the_tournament(self, size, k):
        # the n = 20000 pools of a1 and hyper g = 4 at alpha = 0.05 and of yao at 0.15
        bound = tournament_bound(size, k)
        assert 2 * size < bound <= 4 * size
        ascending = list(range(size))
        for buf in (ascending, ascending[::-1], generate_instance(size, 0, 0, seed=size).elements):
            mom, tour = CountingComparator(), CountingComparator()
            assert select_mom(buf, k, mom) == select_tournament(buf, k, tour) == size - k
            assert mom.comparisons == tour.comparisons <= bound

    def test_never_touches_outside_buffer(self):
        inst = generate_instance(200, 0, 0, seed=4)
        buf = inst.elements[:50]
        cmp = RecordingComparator()
        select_mom(buf, 20, cmp)
        assert cmp.seen <= set(buf)


class TestMomSmallest:
    # select_mom hands every pool below P = 65 to the tournament, so only
    # these tests reach median-of-medians' small sizes from the top
    @staticmethod
    def check(vals, t):
        cmp, lower = AuditComparator(), set()
        got = _mom_smallest(list(vals), t, cmp, lower)
        assert got == sorted(vals)[t]
        assert {v for v in vals if v < got} <= lower <= {v for v in vals if v <= got}
        assert cmp.comparisons == cmp.calls

    @pytest.mark.parametrize("size", range(1, 8))
    def test_every_order_and_rank(self, size):
        for perm in permutations(range(size)):
            for t in range(size):
                self.check(perm, t)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_every_sequence_over_three_values(self, size):
        for vals in product(range(3), repeat=size):
            for t in range(size):
                self.check(vals, t)

    @pytest.mark.parametrize("size", [7, 8, 9, 104])
    def test_trailing_values_meet_the_pivot_first(self, size):
        # the n mod 5 values that fill no group are first compared with a
        # value from a full group, never with each other
        for seed in range(20):
            vals = generate_instance(size, 0, 0, seed=seed).elements
            trailing = set(vals[size - size % 5 :])
            cmp = RecordingComparator()
            _mom_smallest(list(vals), size // 2, cmp)
            first = next(pair for pair in cmp.pairs if trailing.intersection(pair))
            assert not trailing.issuperset(first), (seed, first)


class TestGroupFives:
    @pytest.mark.parametrize("groups", [
        list(permutations(range(5))),
        list(product(range(3), repeat=5)),
    ], ids=["permutations", "multisets"])
    def test_six_comparisons_and_layout(self, groups):
        for group in groups:
            cmp = CountingComparator()
            [layout] = _group_fives(list(group), cmp)
            median = sorted(group)[2]
            assert cmp.comparisons == 6
            assert layout[2] == median
            assert sorted(layout) == sorted(group)
            assert max(layout[:2]) <= median <= min(layout[3:])

    def test_only_full_groups(self):
        cmp = CountingComparator()
        groups = _group_fives([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 12, 11], cmp)
        assert [group[2] for group in groups] == [7, 2]
        assert cmp.comparisons == 12


def insertion_sort_tally(values):
    """Comparisons that a plain insertion sort of values makes."""
    arr, tally = list(values), 0
    for idx in range(1, len(arr)):
        v, pos = arr[idx], idx
        while pos > 0:
            tally += 1
            if not v < arr[pos - 1]:
                break
            arr[pos] = arr[pos - 1]
            pos -= 1
        arr[pos] = v
    return tally


class TestSelectRange:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_partition_of_a_sub_range(self, data):
        values = st.integers(0, 4)
        before = data.draw(st.lists(values, max_size=6))
        inside = data.draw(st.lists(values, min_size=1, max_size=12))
        arr = before + inside + data.draw(st.lists(values, max_size=6))
        lo, hi = len(before), len(before) + len(inside) - 1
        t = data.draw(st.integers(lo, hi))
        original = list(arr)
        cmp = AuditComparator()
        assert _select_range(arr, lo, hi, t, cmp) == arr[t] == sorted(inside)[t - lo]
        assert all(v <= arr[t] for v in arr[lo:t])
        assert all(arr[t] <= v for v in arr[t + 1 : hi + 1])
        assert sorted(arr[lo : hi + 1]) == sorted(inside)
        assert arr[:lo] == original[:lo] and arr[hi + 1 :] == original[hi + 1 :]
        assert cmp.comparisons == cmp.calls

    @pytest.mark.parametrize("size", range(1, 8))
    def test_exhaustive_against_insertion_sort(self, size):
        # one (order, t) at size 4 and one at size 6 cost one more than
        # insertion sort, so the worst case and the mean are what is bounded
        perms = list(permutations(range(size)))
        worst = total = 0
        for t in range(size):
            for perm in perms:
                arr = list(perm)
                cmp = CountingComparator()
                assert _select_range(arr, 0, size - 1, t, cmp) == arr[t] == t
                assert sorted(arr[:t]) == list(range(t))
                worst = max(worst, cmp.comparisons)
                total += cmp.comparisons
        assert worst <= size * (size - 1) // 2
        sorting = sum(map(insertion_sort_tally, perms))
        if size >= 3:
            assert total < sorting * size  # means over every order and every t
        else:
            assert total == sorting * size


class TestTournament:
    def test_two_elements(self):
        cmp = CountingComparator()
        assert select_tournament([7, 3], 2, cmp) == 3
        assert cmp.comparisons == 1

    def test_four_elements_count_and_value(self):
        for perm in permutations(range(4)):
            cmp = CountingComparator()
            assert select_tournament(perm, 2, cmp) == 2
            assert cmp.comparisons == 4  # 4 - 2 + log2(4)

    @pytest.mark.parametrize("size", [2, 4, 8, 16, 256, 1024, 4096])
    def test_power_of_two_counts_are_exact(self, size):
        buf = list(range(size))
        Rng(size).shuffle(buf)
        cmp = CountingComparator()
        assert select_tournament(buf, 2, cmp) == size - 2
        assert cmp.comparisons == size - 2 + int(math.log2(size))

    @given(st.integers(2, 700), st.integers(0, 2**32))
    @settings(max_examples=80)
    def test_bound_holds_for_every_size(self, size, seed):
        buf = list(range(size))
        Rng(seed).shuffle(buf)
        cmp = CountingComparator()
        assert select_tournament(buf, 2, cmp) == size - 2
        assert cmp.comparisons <= size - 2 + math.ceil(math.log2(size))

    def test_second_of_j_plus_2_matches_closed_form(self):
        # j = 6: at most 6 + ceil(log2(8)) = 9 comparisons for 8 elements
        buf = list(range(8))
        Rng(5).shuffle(buf)
        cmp = CountingComparator()
        assert select_tournament(buf, 2, cmp) == 6
        assert cmp.comparisons <= 9

    @given(st.one_of(
        st.lists(st.integers(0, 4), min_size=1, max_size=300),
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300),
    ))
    @settings(max_examples=100, deadline=None)
    def test_oracle_and_bound_for_every_k(self, vals):
        # copies of a value occupy distinct leaves, and replays from either end
        for k in range(1, len(vals) + 1):
            cmp = AuditComparator()
            assert select_tournament(vals, k, cmp) == select_by_sort(vals, k)
            assert cmp.comparisons <= tournament_bound(len(vals), k)
            assert cmp.comparisons == cmp.calls

    def test_never_touches_outside_buffer(self):
        inst = generate_instance(200, 0, 0, seed=4)
        buf = inst.elements[:50]
        for k in (1, 3, 48):
            cmp = RecordingComparator()
            select_tournament(buf, k, cmp)
            assert cmp.seen <= set(buf)


class TestFloydRivest:
    def test_k1_is_maximum(self):
        buf = [4, 8, 0, 3]
        assert select_floyd_rivest(buf, 1, CountingComparator(), Rng(0)) == 8

    def test_exhaustive_small_oracle(self):
        for size in range(1, 7):
            for perm in permutations(range(size)):
                for k in range(1, size + 1):
                    got = select_floyd_rivest(perm, k, CountingComparator(), Rng(k))
                    assert got == sorted(perm)[size - k]

    def test_random_oracle_sweep(self):
        for size in range(1, 201):
            inst = generate_instance(size, 0, 0, seed=size + 1000)
            for k in (1, (size + 1) // 2, size):
                got = select_floyd_rivest(inst.elements, k, CountingComparator(), Rng(k))
                assert got == sorted(inst.elements)[size - k]

    def test_larger_fuzzed_cases(self):
        rng = Rng(99)
        for _ in range(60):
            size = 601 + rng.below(2000)
            k = 1 + rng.below(size)
            inst = generate_instance(size, 0, 0, seed=rng.next_u64())
            got = select_floyd_rivest(inst.elements, k, CountingComparator(), Rng(rng.next_u64()))
            assert got == sorted(inst.elements)[size - k]

    def test_deterministic_given_seed(self):
        inst = generate_instance(5000, 0, 0, seed=8)
        runs = []
        for _ in range(2):
            cmp = CountingComparator()
            v = select_floyd_rivest(inst.elements, 700, cmp, Rng(31))
            runs.append((v, cmp.comparisons))
        assert runs[0] == runs[1]

    def test_never_touches_outside_buffer(self):
        inst = generate_instance(3000, 0, 0, seed=21)
        buf = inst.elements[:2000]
        cmp = RecordingComparator()
        select_floyd_rivest(buf, 1000, cmp, Rng(2))
        assert cmp.seen <= set(buf)

    def test_median_average_band_at_1e5(self):
        # 100 seeded runs at the median: the n + min(k, n-k) behaviour puts
        # the mean squarely between 1.40n and 1.60n
        n = 100_000
        tallies = []
        for seed in range(100):
            inst = generate_instance(n, 0, 0, seed=5_000 + seed)
            cmp = CountingComparator()
            v = select_floyd_rivest(inst.elements, n // 2, cmp, Rng(seed))
            assert v == sorted(inst.elements)[n - n // 2]
            tallies.append(cmp.comparisons)
        mean = statistics.mean(tallies)
        assert 1.40 * n <= mean <= 1.60 * n, mean

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_partition_contract(self, data):
        # a2_once reads the sides of its sample, a multiset drawn with
        # replacement, straight from the partition _fr_smallest leaves
        values = st.integers(0, 7)
        before = data.draw(st.lists(values, max_size=20))
        size = data.draw(st.integers(1, 500))
        inside = data.draw(st.lists(values, min_size=size, max_size=size))
        arr = before + inside + data.draw(st.lists(values, max_size=20))
        lo, hi = len(before), len(before) + len(inside) - 1
        t = data.draw(st.integers(lo, hi))
        original = list(arr)
        x = _fr_smallest(arr, lo, hi, t, CountingComparator())
        assert x == arr[t] == sorted(original[lo : hi + 1])[t - lo]
        assert all(v <= x for v in arr[lo:t])
        assert all(x <= v for v in arr[t + 1 : hi + 1])
        assert sorted(arr[lo : hi + 1]) == sorted(original[lo : hi + 1])
        assert len(arr) == len(original)
        assert arr[:lo] == original[:lo] and arr[hi + 1 :] == original[hi + 1 :]

    def test_window_is_narrower_than_its_range(self):
        # _fr_smallest has no exit for a window spanning its whole range: above
        # _FR_SMALL the window and its slack must always leave a position out
        for size in range(_FR_SMALL + 1, 2 * 10**5 + 1):
            window = math.ceil(size ** (2.0 / 3.0))
            slack = math.isqrt(window) // 2 + 1
            assert window + 2 * slack + 1 < size, size


class TestSplit:
    @given(st.lists(st.integers(0, 6), max_size=130), st.integers(-1, 7))
    @example(([6, 2, 4, 0, 3, 5, 1] * _BATCH)[: _BATCH - 1], 3)  # one less call each
    @example(([6, 2, 4, 0, 3, 5, 1] * _BATCH)[:_BATCH], 3)  # one batch
    @settings(max_examples=300)
    def test_sides_keep_input_order_and_every_value_counts_once(self, values, pivot):
        # values 0..6 and pivots -1..7: pivots among the values and next to them,
        # on lists on both sides of the batch floor
        for cmp in (CountingComparator(), AuditComparator()):
            cmp.less(0, 1)
            below, rest = _split(values, pivot, cmp)
            assert below == [v for v in values if v < pivot]
            assert rest == [v for v in values if not v < pivot]
            assert cmp.comparisons == 1 + len(values)
        assert cmp.calls == cmp.comparisons


class TestInstrumentationSoundness:
    def test_tally_equals_invocations(self):
        inst = generate_instance(500, 0, 0, seed=6)
        for run in (
            lambda c: select_mom(inst.elements, 77, c),
            lambda c: select_tournament(inst.elements, 77, c),
            lambda c: select_floyd_rivest(inst.elements, 250, c, Rng(1)),
        ):
            cmp, plain = AuditComparator(), CountingComparator()
            assert run(cmp) == run(plain)
            assert cmp.comparisons == cmp.calls > 0
            assert plain.comparisons == cmp.comparisons
