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

The argument parser is built once per process, on the first `main` call (not
at import), and reused: each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .approx import a1_select, a2_las_vegas, a2_once, hyperpair_select, yao_select
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


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _csv_row(row: tuple, alpha_spec: str) -> str:
    """alpha in alpha_spec, then ints as is and floats to four decimals."""
    alpha, *cells = row
    cells = [str(c) if isinstance(c, int) else _fmt(c) for c in cells]
    return ",".join([format(alpha, alpha_spec), *cells])


def table_lines(which: str) -> list[str]:
    """The CSV lines of a published cost table, header first."""
    return [TABLES[which][0]] + [_csv_row(row, ".2f") for row in tables(which)]


def curve_lines(alpha_from: float, alpha_to: float, step: float) -> list[str]:
    """The CSV lines of the cost-constant curve on an alpha grid, header first."""
    rows = curve(alpha_from, alpha_to, step)
    return [TABLES["constants"][0]] + [_csv_row(row, ".4f") for row in rows]


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
        if g is None:
            raise ValueError("--g is required for --algo hyper")
        return hyperpair_select(instance, g, _EXACT[exact_name], cmp)
    if algo == "a2":
        return a2_once(instance, cmp, Rng(seed ^ _ALGO_RNG_TAG))
    if algo == "a2lv":
        return a2_las_vegas(instance, cmp, Rng(seed ^ _ALGO_RNG_TAG))
    subset = instance.elements[: instance.i + instance.j + 1]
    x = select_floyd_rivest(subset, instance.i + 1, cmp, Rng(seed ^ _BASELINE_RNG_TAG))
    return SelectionOutcome(x)


def cmd_run(args: argparse.Namespace) -> tuple[int, list[str]]:
    instance = generate_instance(args.n, args.i, args.j, args.seed)
    cmp = CountingComparator()
    out = _select(args.algo, instance, args.g, args.exact, args.seed, cmp)
    rank = rank_of(out.element, instance)
    mediocre = args.j <= rank <= args.n - 1 - args.i and not out.failed
    stage = out.stage_comparisons
    repetitions = out.repetitions if args.algo == "a2lv" else ""
    failed = str(out.failed).lower() if args.algo in ("a2", "a2lv") else ""
    row = (
        f"{args.algo},{args.n},{args.i},{args.j},{args.g if args.g is not None else ''},"
        f"{args.seed},{out.element},{rank},{'true' if mediocre else 'false'},"
        f"{cmp.comparisons},{stage if stage is not None else ''},{repetitions},{failed}"
    )
    return 3 if out.failed else 0, [RUN_HEADER, row]


def _stats_row(algo: str, n: int, i: int, j: int, seed_base: int, results) -> str:
    """One bench row from the (outcome, comparisons) pair of every trial."""
    trials = len(results)
    counts = [c for _, c in results]
    mean = sum(counts) / trials
    sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / trials)
    failure = sum(out.failed for out, _ in results) / trials
    reps = sum(out.repetitions for out, _ in results) / trials
    failure_s = _fmt(failure) if algo == "a2" else ""
    reps_s = _fmt(reps) if algo == "a2lv" else ""
    return (
        f"{algo},{n},{i},{j},{trials},{_fmt(mean)},{_fmt(sd)},{max(counts)},"
        f"{failure_s},{reps_s},{seed_base}"
    )


def cmd_bench(args: argparse.Namespace) -> tuple[int, list[str]]:
    if args.trials < 1:
        raise ValueError(f"trials >= 1 violated: trials = {args.trials}")
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
    """Run one command; its CSV lines reach stdout only once it has returned.

    The parser is built on the first call in a process and reused after.
    """
    args = _build_parser().parse_args(argv)
    try:
        status, lines = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
