"""Command-line front end: table reproduction, single runs, benchmarks, lower bounds.

Everything is emitted as CSV on stdout (diagnostics on stderr) with fixed
formatting so identical invocations produce byte-identical output.  Exit
status: 0 success, 2 usage or parameter error (stdout left empty), 3 a
detected Monte Carlo failure in `run --algo a2`.

Seed scheme: the instance for seed s is generated from s; the algorithm's
random stream uses s XOR 2^63 and the fr-median baseline s XOR 2^62, so the
streams never collide with each other or with neighbouring trial seeds
(trial t of a bench uses seed_base + t).  A bench generates each seed's
instance once and runs the algorithm and then the baseline on it; the
permutation behind it is shuffled once per process for each (n, seed) and
shared by every later command with that n and seed (see generate_instance).

The argument parser is built, and argparse imported, on the first `main` call
(not at import) and reused: each call parses into a fresh namespace.
"""

from __future__ import annotations

import functools
import math
import sys

from .approx import _check_group_size, a1_select, a2_las_vegas, a2_once, hyperpair_select, yao_select
from .core import CountingComparator, Instance, Rng, SelectionOutcome, generate_instance, rank_of
from .costmodel import TABLES, curve, lower_bound, tables
from .exact import select_by_sort, select_floyd_rivest, select_mom

_ALGO_RNG_TAG = 1 << 63
_BASELINE_RNG_TAG = 1 << 62

_EXACT = {"mom": select_mom, "sort": select_by_sort}

RUN_HEADER = (
    "algo,n,i,j,g,seed,element,rank_from_bottom,mediocre,"
    "comparisons,stage_comparisons,repetitions,failed"
)
BENCH_HEADER = (
    "algorithm,n,i,j,trials,mean_comparisons,stddev,max_comparisons,"
    "failure_rate,mean_repetitions,seed_base"
)


def _csv(*cells) -> str:
    """One CSV line: None empty, bools true or false, floats to four decimals, the rest as str."""
    return ",".join(
        "" if c is None
        else ("true" if c else "false") if isinstance(c, bool)  # before str(): a bool is an int
        else f"{c:.4f}" if isinstance(c, float)
        else str(c)
        for c in cells
    )


def table_lines(which: str) -> list[str]:
    """The CSV lines of a published cost table, header first, alpha to two decimals."""
    return [TABLES[which][0]] + [_csv(f"{alpha:.2f}", *rest) for alpha, *rest in tables(which)]


def curve_lines(alpha_from: float, alpha_to: float, step: float) -> list[str]:
    """The CSV lines of the cost-constant curve on an alpha grid, header first."""
    return [TABLES["constants"][0]] + [_csv(*row) for row in curve(alpha_from, alpha_to, step)]


def cmd_table(args: argparse.Namespace) -> tuple[int, list[str]]:
    return 0, table_lines(args.which)


def _select(
    algo: str, instance: Instance, g: int | None, exact_name: str, seed: int, cmp: CountingComparator
) -> SelectionOutcome:
    """One seeded trial of algo on the instance of seed; its tally accrues on cmp.

    fr-median is the baseline: yao's prefix scheme with Floyd-Rivest, the
    exact (i+1)-th largest of the first i+j+1 elements (their median at i = j).
    """
    if algo == "yao":
        return yao_select(instance, _EXACT[exact_name], cmp)
    if algo == "a1":
        return a1_select(instance, _EXACT[exact_name], cmp)
    if algo == "hyper":
        return hyperpair_select(instance, g, _EXACT[exact_name], cmp)
    if algo == "a2":
        return a2_once(instance, cmp, Rng(seed ^ _ALGO_RNG_TAG))
    if algo == "a2lv":
        return a2_las_vegas(instance, cmp, Rng(seed ^ _ALGO_RNG_TAG))
    subset = instance.elements[: instance.i + instance.j + 1]
    x = select_floyd_rivest(subset, instance.i + 1, cmp, Rng(seed ^ _BASELINE_RNG_TAG))
    return SelectionOutcome(x)


def _check_g(args: argparse.Namespace) -> None:
    """--g goes with --algo hyper and no other; run and bench check it before any instance."""
    if args.algo == "hyper" and args.g is None:
        raise ValueError("--g is required for --algo hyper")
    if args.algo != "hyper" and args.g is not None:
        raise ValueError("--g applies only to --algo hyper")
    if args.g is not None:
        _check_group_size(args.g)


def cmd_run(args: argparse.Namespace) -> tuple[int, list[str]]:
    _check_g(args)
    instance = generate_instance(args.n, args.i, args.j, args.seed)
    cmp = CountingComparator()
    out = _select(args.algo, instance, args.g, args.exact, args.seed, cmp)
    rank = rank_of(out.element, instance)
    mediocre = args.j <= rank <= args.n - 1 - args.i and not out.failed
    row = _csv(
        args.algo, args.n, args.i, args.j, args.g, args.seed, out.element, rank, mediocre,
        cmp.comparisons, out.stage_comparisons, out.repetitions, out.failed,
    )
    return 3 if out.failed else 0, [RUN_HEADER, row]


def _stats_row(algo: str, n: int, i: int, j: int, seed_base: int, results) -> str:
    """One bench row from the (outcome, comparisons) pair of every trial.

    Only a2's failure rate is reported: a2lv outcomes are never failed.
    """
    trials = len(results)
    counts = [c for _, c in results]
    mean = sum(counts) / trials
    sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / trials)
    failure = sum(out.failed for out, _ in results) / trials if algo == "a2" else None
    reps = [out.repetitions for out, _ in results]
    mean_reps = None if None in reps else sum(reps) / trials
    return _csv(algo, n, i, j, trials, mean, sd, max(counts), failure, mean_reps, seed_base)


def cmd_bench(args: argparse.Namespace) -> tuple[int, list[str]]:
    if args.trials < 1:
        raise ValueError(f"trials >= 1 violated: trials = {args.trials}")
    _check_g(args)
    algos = [args.algo] + (["fr-median"] if args.baseline == "fr-median" else [])
    results = {algo: [] for algo in algos}
    for seed in range(args.seed_base, args.seed_base + args.trials):
        instance = generate_instance(args.n, args.i, args.j, seed)
        for algo in algos:
            cmp = CountingComparator()
            out = _select(algo, instance, args.g, args.exact, seed, cmp)
            results[algo].append((out, cmp.comparisons))
    lines = [BENCH_HEADER]
    for algo in algos:
        lines.append(_stats_row(algo, args.n, args.i, args.j, args.seed_base, results[algo]))
    return 0, lines


def cmd_lower_bound(args: argparse.Namespace) -> tuple[int, list[str]]:
    return 0, [str(lower_bound(args.i, args.j))]


def cmd_plot_data(args: argparse.Namespace) -> tuple[int, list[str]]:
    return 0, curve_lines(args.alpha_from, args.alpha_to, args.step)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse  # here, not at module level, so importing the CLI stays cheap
    parser = argparse.ArgumentParser(
        prog="mediocre",
        description="Comparison-counted selection: cost tables, single runs, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument("--algo", required=True, choices=["yao", "a1", "hyper", "a2", "a2lv"])
    selection.add_argument("--n", required=True, type=int)
    selection.add_argument("--i", required=True, type=int)
    selection.add_argument("--j", required=True, type=int)
    selection.add_argument("--exact", default="mom", choices=["mom", "sort"])
    selection.add_argument("--g", type=int, help="group size (hyper only)")

    p = sub.add_parser("table", help="reproduce a published cost table as CSV")
    p.add_argument("--which", required=True, choices=list(TABLES))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("run", parents=[selection], help="one seeded selection run with an oracle check")
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", parents=[selection], help="aggregate seeded trials into one CSV row")
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed-base", default=0, type=int)
    p.add_argument("--baseline", choices=["fr-median"])
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lower-bound", help="information-theoretic comparison lower bound")
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--j", required=True, type=int)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("plot-data", help="cost-constant curves on an alpha grid")
    p.add_argument("--from", dest="alpha_from", required=True, type=float)
    p.add_argument("--to", dest="alpha_to", required=True, type=float)
    p.add_argument("--step", required=True, type=float)
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its CSV lines reach stdout only once it has returned."""
    args = _build_parser().parse_args(argv)
    try:
        status, lines = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return status
