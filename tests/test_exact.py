import math
import statistics
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mediocre import exact
from mediocre.core import CountingComparator, Rng, generate_instance
from mediocre.exact import (
    _FR_SMALL,
    _TOURNAMENT_BUDGET,
    _fives,
    _fr_smallest,
    _group_fives,
    _mom_smallest,
    _split,
    select_by_sort,
    select_floyd_rivest,
    select_mom,
    select_tournament,
)

from doubles import RecordingComparator, adversary_worst_case, questions_over_every_order


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
        # 2.63n on each of these: the first pass spends up to 6 comparisons
        # per group of five on its median and 2 per group to partition, and
        # the knockout tournament finishes the rank it leaves near an end
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
            cmp = RecordingComparator()
            assert select_mom(vals, k, cmp) == select_by_sort(vals, k)
            assert cmp.comparisons == cmp.calls

    def test_rank_and_size_pick_the_tournament(self):
        # the tournament runs exactly when its worst case is at most the budget times P
        for size in (1, 2, 10, 26, 333, 1000):
            buf = generate_instance(size, 0, 0, seed=size).elements
            for k in sorted({1, 2, 3, 6, 50, 100, size // 2 + 1, size - 5, size - 1, size}):
                if not 1 <= k <= size:
                    continue
                mom, tour, oracle = RecordingComparator(), RecordingComparator(), RecordingComparator()
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

    @pytest.mark.parametrize("size,worst", enumerate([0, 1, 3, 4, 7, 9, 12, 13, 17], 1))
    def test_worst_case_over_every_order(self, size, worst):
        # every pool of these sizes takes the tournament; 8 at size 5 and 20
        # at size 9 while an odd trailing entry took a bye at each level
        def select(vals, t, cmp):
            return select_mom(vals, size - t, cmp)

        assert max(adversary_worst_case(select, size, t) for t in range(size)) == worst

    def test_median_and_quartiles_at_2e4(self):
        # 4.45-4.55n on each before median-of-medians finished with the tournament
        n = 20_000
        ascending = list(range(n))
        organ_pipe = list(range(0, n, 2)) + list(range(n - 1, 0, -2))
        for buf in (generate_instance(n, 0, 0, seed=17).elements, ascending, ascending[::-1], organ_pipe):
            for k, most in ((n // 2 + 1, 2.75), (n // 4, 3.4), (3 * n // 4, 3.4)):
                cmp = CountingComparator()
                assert select_mom(buf, k, cmp) == select_by_sort(buf, k)
                assert cmp.comparisons <= most * n

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
        cmp, lower = RecordingComparator(), set()
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

    def test_sizes_that_carry_triples(self):
        # from n = 10 on a round settles triples and carries them into the next
        rng = Rng(2027)
        for case in range(1000):
            size = 10 + rng.below(291)
            if case % 2:
                alphabet = 2 + rng.below(4)
                vals = [rng.below(alphabet) for _ in range(size)]
            else:
                vals = list(range(size))
                rng.shuffle(vals)
            for t in {0, 1, size // 4, size // 2 - 1, size // 2, size - 2, size - 1, rng.below(size)}:
                self.check(vals, t)

    def test_the_tournament_finishes_and_fills_lower(self, monkeypatch):
        # after a partition, from either end, with and without copies, the
        # tournament's share of lower keeps its contract
        kinds = set()

        def spy(buffer, k, cmp, lower):
            size = len(buffer)
            rank = min(k, size - k + 1)
            assert tournament_bound(size, k) <= _TOURNAMENT_BUDGET * size
            got = select_tournament(buffer, k, cmp, lower)
            assert {v for v in buffer if v < got} <= lower
            assert all(v <= got for v in lower)
            kinds.add((rank == k, rank == 1))
            return got

        monkeypatch.setattr(exact, "select_tournament", spy)
        rng = Rng(2029)
        for case in range(300):
            size = 6 + rng.below(95)
            vals = [rng.below(2 + case % 4) for _ in range(size)] if case % 2 else list(range(size))
            rng.shuffle(vals)
            for t in {0, 1, size // 4, size // 2, size - 2, size - 1, rng.below(size)}:
                self.check(vals, t)
        assert kinds == set(product((True, False), repeat=2))

    @pytest.mark.parametrize("size", range(1, 5))
    def test_at_most_four_values_go_to_the_tournament(self, size):
        for perm in permutations(range(size)):
            for t in range(size):
                mom, tour, mom_lower, tour_lower = RecordingComparator(), RecordingComparator(), set(), set()
                assert _mom_smallest(list(perm), t, mom, mom_lower) == t
                assert select_tournament(perm, size - t, tour, tour_lower) == t
                assert (mom.log, mom_lower) == (tour.log, tour_lower)

    def test_five_values_cost_six_at_the_median(self):
        # one group of five, whose median is the pivot and the answer
        for perm in permutations(range(5)):
            cmp = CountingComparator()
            assert _mom_smallest(list(perm), 2, cmp) == 2
            assert cmp.comparisons == 6

    @pytest.mark.parametrize("size,worst", enumerate([0, 1, 3, 4, 7, 10, 12, 16, 19], 1))
    def test_worst_case_over_every_order(self, size, worst):
        # 13, 18 and 20 at sizes 7 to 9 before the tournament finished, 17 at
        # size 8 while its bracket gave byes; 5 and 9 at sizes 4 and 5 while a
        # partial insertion finished a first round
        assert max(adversary_worst_case(_mom_smallest, size, t) for t in range(size)) == worst

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


class TestImpliedQuestions:
    def test_a_question_settled_by_transitivity_counts_as_implied(self):
        cmp = RecordingComparator()
        cmp.less(1, 2)
        cmp.less(2, 3)
        assert cmp.implied == 0
        cmp.less(1, 3)
        cmp.less(3, 1)
        assert cmp.implied == 2

    def test_median_of_medians_asks_no_more_implied_questions(self):
        # the median of 20 shuffled pools of P = 400: 1860 of its 20904
        # questions were implied by earlier answers when these bounds were set
        # (1867 of 20914 while the tournament's bracket gave byes, 2757 of
        # 29754 before the tournament finished once it fit, 5692 of 33386
        # before settled triples were carried into the next round)
        questions = implied = 0
        for seed in range(1, 21):
            pool = list(range(400))
            Rng(seed).shuffle(pool)
            cmp = RecordingComparator()
            assert _mom_smallest(pool, 199, cmp) == 199
            questions += cmp.comparisons
            implied += cmp.implied
        assert questions <= 20904
        assert implied <= 1860


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


class TestCarriedFives:
    # a V comes as (x, m, u, w, y) with x, y <= m, a lambda as
    # (h, u, h2, w, m) with m <= h, h2: the positions of each known (lower, higher)
    KNOWN = {"vee": [(0, 1), (4, 1)], "lambda": [(4, 0), (4, 2)]}

    def run(self, group, shape):
        """Layout and tally of one carried group, and how many of its questions
        the order it came with and the answers before them already settled."""
        cmp = RecordingComparator()
        for lower, higher in self.KNOWN[shape]:
            cmp.less(group[lower], group[higher])
        [layout] = _fives([group], cmp.less, shape == "vee", shape == "lambda")
        return layout, cmp.comparisons - 2, cmp.implied

    def fits(self, group, shape):
        return all(group[lower] <= group[higher] for lower, higher in self.KNOWN[shape])

    @pytest.mark.parametrize("shape,total", [("vee", 176), ("lambda", 172)])
    def test_every_order_that_fits(self, shape, total):
        tallies = []
        for group in permutations(range(5)):
            if not self.fits(group, shape):
                continue
            layout, tally, implied = self.run(group, shape)
            assert sorted(layout) == list(range(5))
            assert max(layout[:2]) < layout[2] == 2 < min(layout[3:])
            assert tally <= 5
            assert implied == 0
            tallies.append(tally)
        # 4 or 5 questions: 4.4 on average over the 40 orders of a V, 4.3 of a lambda
        assert len(tallies) == 40
        assert sum(tallies) == total

    @pytest.mark.parametrize("shape", ["vee", "lambda"])
    def test_every_sequence_over_three_values_that_fits(self, shape):
        for group in product(range(3), repeat=5):
            if not self.fits(group, shape):
                continue
            layout, tally, _ = self.run(group, shape)
            median = sorted(group)[2]
            assert sorted(layout) == sorted(group)
            assert max(layout[:2]) <= layout[2] == median <= min(layout[3:])
            assert tally <= 5


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
    """_fr_smallest on ranges near _FR_SMALL, which end in the knockout bracket."""

    @given(
        st.lists(st.integers(0, 4), max_size=6),
        st.lists(st.integers(0, 4), min_size=1, max_size=_FR_SMALL + 8),
        st.lists(st.integers(0, 4), max_size=6),
        st.integers(0, 2**16),
    )
    @settings(max_examples=400, deadline=None)
    # the largest range the bracket takes and the smallest that narrows first,
    # one each with duplicates; the values outside must stay untouched
    @example([4, 4], [v % 5 for v in range(_FR_SMALL)], [0], 7)
    @example([1], [v % 3 for v in range(_FR_SMALL + 1)], [2, 3], 5)
    @example([], list(range(_FR_SMALL - 1, -1, -1)), [], _FR_SMALL - 2)
    @example([0], list(range(_FR_SMALL + 1)), [], _FR_SMALL // 2)
    def test_partition_of_a_sub_range(self, before, inside, after, pick):
        arr = before + inside + after
        lo, hi = len(before), len(before) + len(inside) - 1
        t = lo + pick % len(inside)
        original = list(arr)
        cmp = RecordingComparator()
        assert _fr_smallest(arr, lo, hi, t, cmp) == arr[t] == sorted(inside)[t - lo]
        assert all(v <= arr[t] for v in arr[lo:t])
        assert all(arr[t] <= v for v in arr[t + 1 : hi + 1])
        assert sorted(arr[lo : hi + 1]) == sorted(inside)
        assert arr[:lo] == original[:lo] and arr[hi + 1 :] == original[hi + 1 :]
        assert cmp.comparisons == cmp.calls

    @pytest.mark.parametrize("size", range(1, 8))
    def test_exhaustive_against_insertion_sort(self, size):
        # the bracket's totals and worst cases over every order and every t;
        # partial insertion asked 344 in all and at most 5 at size 4, 3126
        # and 9 at 5, 29736 and 12 at 6, and 311484 and 18 at 7
        def select(arr, t, cmp):
            assert _fr_smallest(arr, 0, size - 1, t, cmp) == arr[t]
            assert sorted(arr[:t]) == list(range(t))
            return arr[t]

        total, worst = questions_over_every_order(select, size)
        assert (total, worst) == [(0, 0), (4, 1), (40, 3), (336, 4), (3036, 7), (28512, 9), (290880, 12)][size - 1]
        assert worst <= size * (size - 1) // 2
        sorting = sum(map(insertion_sort_tally, permutations(range(size))))
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
            cmp = RecordingComparator()
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

    @pytest.mark.parametrize("size", range(1, 7))
    def test_lower_holds_the_values_at_or_below_the_answer(self, size):
        # every order and every sequence over three values; a max-tournament
        # reports all but its champions, a min-tournament its champions, and
        # the k' = 1 scans at k = 1 and k = P take out none
        for vals in [*permutations(range(size)), *product(range(3), repeat=size)]:
            for k in range(1, size + 1):
                plain, cmp, lower = RecordingComparator(), RecordingComparator(), set()
                got = select_tournament(vals, k, cmp, lower)
                assert got == select_tournament(vals, k, plain) == select_by_sort(vals, k)
                assert cmp.log == plain.log
                assert {v for v in vals if v < got} <= lower <= {v for v in vals if v <= got}

    @pytest.mark.parametrize("size,total,worst", [
        (3, 40, 3), (4, 336, 4), (5, 3036, 7), (6, 28512, 9), (7, 290880, 12), (8, 3175680, 13),
    ])
    def test_questions_over_every_order_and_k(self, size, total, worst):
        # one flat bracket: entry P + h plays entries 2h and 2h + 1, so every
        # leaf sits at one of two adjacent depths; at P = 5 the old per-level
        # bracket, which gave byes, asked 3120 in all and at most 8
        tallies = questions_over_every_order(lambda vals, t, cmp: select_tournament(vals, size - t, cmp), size)
        assert tallies == (total, worst)

    def test_a_min_tournament_asks_the_mirrored_questions(self):
        # the questions of the max-tournament on the negated values, each
        # asked the other way round
        for size, seed in product((2, 7, 64, 301), range(3)):
            vals = list(range(size))
            Rng(seed).shuffle(vals)
            for rank in {1, min(2, size // 2), size // 2}:
                low, high = RecordingComparator(), RecordingComparator()
                assert select_tournament(vals, size - rank + 1, low) == -select_tournament([-v for v in vals], rank, high)
                assert low.log == [(-b, -a, answer) for a, b, answer in high.log]


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
    @example([], 3)
    @example([5], 3)
    @example(([6, 2, 4, 0, 3, 5, 1] * 2)[:13], 3)
    @example(([6, 2, 4, 0, 3, 5, 1] * 9)[:63], 3)
    @settings(max_examples=300)
    def test_sides_keep_input_order_and_every_value_counts_once(self, values, pivot):
        # values 0..6 and pivots -1..7: pivots among the values and next to them,
        # on lists of the lengths the workloads split, from none to over 64
        for cmp in (CountingComparator(), RecordingComparator()):
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
            cmp, plain = RecordingComparator(), CountingComparator()
            assert run(cmp) == run(plain)
            assert cmp.comparisons == cmp.calls > 0
            assert plain.comparisons == cmp.comparisons
