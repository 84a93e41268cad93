"""Test doubles shared by the suite.

- RecordingComparator logs every question with its answer; pairs, edges,
  seen, calls and implied are read from that log.
- ReversedOrder is a mixin that reverses the order, and MixinComparator a
  recorder that gets its less from it.
- AdversaryComparator answers from a script of answers, and
  adversary_worst_case walks a selector's decision tree with it.
- questions_over_every_order totals a selector's tally over every order
  and every rank.
- staged wraps a pool selector to note the tally spent before it runs.
- run_cli runs one command in process and returns its exit code and output.
"""

from itertools import permutations

from mediocre.cli import main
from mediocre.core import CountingComparator


class RecordingComparator(CountingComparator):
    """Logs each question, in the order asked, as (a, b, answer)."""

    __slots__ = ("log",)

    def __init__(self):
        super().__init__()
        self.log = []

    def less(self, a, b):
        answer = super().less(a, b)
        self.log.append((a, b, answer))
        return answer

    @property
    def pairs(self):
        """Each question as the (a, b) it asked about."""
        return [(a, b) for a, b, _ in self.log]

    @property
    def edges(self):
        """Each answer as a (lower, higher) edge."""
        return [(a, b) if answer else (b, a) for a, b, answer in self.log]

    @property
    def seen(self):
        """Every element the comparator was asked about."""
        return {v for a, b, _ in self.log for v in (a, b)}

    @property
    def calls(self):
        """How many times less was invoked, counted apart from the tally."""
        return len(self.log)

    @property
    def implied(self):
        """How many questions the answers before them already settle by transitivity.

        Each element seen gets a bit; down[x] and up[x] are the bitmasks of
        the elements known at or below x and at or above x.
        """
        index, down, up, implied = {}, [], [], 0
        for lower, higher in self.edges:
            for v in (lower, higher):
                if v not in index:
                    index[v] = len(down)
                    down.append(1 << index[v])
                    up.append(1 << index[v])
            lo, hi = index[lower], index[higher]
            if down[hi] >> lo & 1:
                implied += 1
                continue
            below, above = down[lo], up[hi]
            for x in _members(above):
                down[x] |= below
            for x in _members(below):
                up[x] |= above
        return implied


def _members(mask):
    """The positions of the set bits of mask."""
    return [k for k, bit in enumerate(reversed(bin(mask))) if bit == "1"]


class AdversaryComparator(CountingComparator):
    """Answers questions about the values 0..n-1 from a script of answers.

    A question that earlier answers settle by transitivity gets that answer.
    Any other takes the script's next answer, False once it runs out, and
    the answer is noted in free.  down[x] is the bitmask of the values known
    at or below x.
    """

    __slots__ = ("script", "free", "down")

    def __init__(self, n, script):
        super().__init__()
        self.script, self.free = script, []
        self.down = [1 << v for v in range(n)]

    def less(self, a, b):
        self.comparisons += 1
        down = self.down
        if down[a] >> b & 1:  # b <= a already, or b is a
            return False
        if down[b] >> a & 1:
            return True
        answer = self.script[len(self.free)] if len(self.free) < len(self.script) else False
        self.free.append(answer)
        lo, hi = (a, b) if answer else (b, a)
        below = down[lo]
        for x, known in enumerate(down):
            if known >> hi & 1:
                down[x] = known | below
        return answer


def adversary_worst_case(select, n, t):
    """The most comparisons select(values, t, cmp) makes over every order of n distinct values.

    Walks select's decision tree depth first, one run per leaf: each run
    replays the free answers of the last with its last False turned True,
    and runs on with False.  Every order reaches a leaf and every leaf some
    order.  Each leaf's answer must be the t-th smallest (0-based) by the
    answers given: t values known below it and n - t - 1 above.
    """
    script, most = [], 0
    while True:
        cmp = AdversaryComparator(n, script)
        got = select(list(range(n)), t, cmp)
        above = sum(known >> got & 1 for known in cmp.down)
        assert (cmp.down[got].bit_count(), above) == (t + 1, n - t), (n, t, script)
        most = max(most, cmp.comparisons)
        free = cmp.free
        while free and free[-1]:
            free.pop()
        if not free:
            return most
        script = free[:-1] + [True]


def questions_over_every_order(select, size):
    """The total and the most comparisons select(values, t, cmp) makes over every order of 0..size-1 and every t.

    Each call gets a fresh list and must return t, the t-th smallest (0-based).
    """
    total = most = 0
    for perm in permutations(range(size)):
        for t in range(size):
            cmp = CountingComparator()
            assert select(list(perm), t, cmp) == t, (perm, t)
            total += cmp.comparisons
            most = max(most, cmp.comparisons)
    return total, most


class ReversedOrder:
    """A mixin whose less reverses the order of the less after it.

    It asks that less the same question, so a recorder after it logs the
    question as asked (with the answer in the original order).
    """

    __slots__ = ()

    def less(self, a, b):
        below = super().less(a, b)
        return not below and a != b


class MixinComparator(ReversedOrder, RecordingComparator):
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


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one in-process CLI command."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err
