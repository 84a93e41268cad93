"""Command-line front end: table reproduction, single runs, benchmarks, lower bounds.

Everything is emitted as CSV on stdout (diagnostics on stderr) with fixed
formatting so identical invocations produce byte-identical output.  Exit
status: 0 success, 2 usage or parameter error, 3 a detected Monte Carlo
failure in `run --algo a2`.

Seed scheme: the instance for seed s is generated from s; the algorithm's
random stream uses s XOR 2^63 and the fr-median baseline s XOR 2^62, so the
streams never collide with each other or with neighbouring trial seeds
(trial t of a bench uses seed_base + t).  A bench generates each seed's
instance once and runs the algorithm and then the baseline on it.
"""

from __future__ import annotations

import argparse
import math
import sys

from .approx import a1_select, a2_las_vegas, a2_once, hyperpair_select, yao_select
from .core import CountingComparator, Instance, Rng, generate_instance, rank_of
from .costmodel import curve, lower_bound, tables
from .exact import select_by_sort, select_floyd_rivest, select_mom

_ALGO_RNG_TAG = 1 << 63
_BASELINE_RNG_TAG = 1 << 62

_TABLE_HEADERS = {
    "f": "alpha,l,g_l,g_l1,f",
    "constants": "alpha,c_a1,c_yao",
    "hyper4": "alpha,c_a4,c_yao4",
}

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


def cmd_table(args: argparse.Namespace) -> int:
    rows = tables(args.which)
    print(_TABLE_HEADERS[args.which])
    if args.which == "f":
        for alpha, l, g_l, g_l1, f_val in rows:
            print(f"{alpha:.2f},{l},{_fmt(g_l)},{_fmt(g_l1)},{_fmt(f_val)}")
    else:
        for alpha, left, right in rows:
            print(f"{alpha:.2f},{_fmt(left)},{_fmt(right)}")
    return 0


def _staged_selector(exact, cmp):
    """Wrap a selector to record the tally consumed before it first runs."""
    stage = []

    def wrapped(buffer, k, c):
        if not stage:
            stage.append(cmp.comparisons)
        return exact(buffer, k, c)

    return wrapped, stage


def cmd_run(args: argparse.Namespace) -> int:
    if args.algo == "hyper" and args.g is None:
        raise ValueError("--g is required for --algo hyper")
    instance = generate_instance(args.n, args.i, args.j, args.seed)
    cmp = CountingComparator()
    rng = Rng(args.seed ^ _ALGO_RNG_TAG)
    exact = _EXACT[args.exact]
    stage = None
    repetitions = ""
    failed = ""
    if args.algo == "yao":
        wrapped, cell = _staged_selector(exact, cmp)
        out = yao_select(instance, wrapped, cmp)
        stage = cell[0]
    elif args.algo == "a1":
        wrapped, cell = _staged_selector(exact, cmp)
        out = a1_select(instance, wrapped, cmp)
        stage = cell[0]
    elif args.algo == "hyper":
        wrapped, cell = _staged_selector(exact, cmp)
        out = hyperpair_select(instance, args.g, wrapped, cmp)
        stage = cell[0]
    elif args.algo == "a2":
        out = a2_once(instance, None, cmp, rng)
        failed = "true" if out.failed else "false"
    else:  # a2lv
        out = a2_las_vegas(instance, None, cmp, rng)
        repetitions = str(out.repetitions)
        failed = "false"
    rank = rank_of(out.element, instance)
    mediocre = args.j <= rank <= args.n - 1 - args.i and not out.failed
    print(RUN_HEADER)
    print(
        f"{args.algo},{args.n},{args.i},{args.j},{args.g if args.g is not None else ''},"
        f"{args.seed},{out.element},{rank},{'true' if mediocre else 'false'},"
        f"{out.comparisons},{stage if stage is not None else ''},{repetitions},{failed}"
    )
    return 3 if (args.algo == "a2" and out.failed) else 0


def _bench_one(algo: str, instance: Instance, g: int | None, exact_name: str, seed: int):
    """One seeded trial on the instance of seed: (comparisons, failed, repetitions)."""
    cmp = CountingComparator()
    exact = _EXACT[exact_name]
    if algo == "yao":
        out = yao_select(instance, exact, cmp)
    elif algo == "a1":
        out = a1_select(instance, exact, cmp)
    elif algo == "hyper":
        out = hyperpair_select(instance, g, exact, cmp)
    elif algo == "a2":
        out = a2_once(instance, None, cmp, Rng(seed ^ _ALGO_RNG_TAG))
    elif algo == "a2lv":
        out = a2_las_vegas(instance, None, cmp, Rng(seed ^ _ALGO_RNG_TAG))
    else:  # fr-median over the prefix subset
        subset = instance.elements[: instance.i + instance.j + 1]
        k = (len(subset) + 1) // 2
        select_floyd_rivest(subset, k, cmp, Rng(seed ^ _BASELINE_RNG_TAG))
        return cmp.comparisons, False, 1
    return out.comparisons, out.failed, out.repetitions


def _stats_row(algo: str, n: int, i: int, j: int, trials: int, seed_base: int, results) -> str:
    counts = [c for c, _, _ in results]
    mean = sum(counts) / trials
    sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / trials)
    failure = sum(1 for _, failed, _ in results if failed) / trials
    reps = sum(r for _, _, r in results) / trials
    failure_s = _fmt(failure) if algo == "a2" else ""
    reps_s = _fmt(reps) if algo == "a2lv" else ""
    return (
        f"{algo},{n},{i},{j},{trials},{_fmt(mean)},{_fmt(sd)},{max(counts)},"
        f"{failure_s},{reps_s},{seed_base}"
    )


def cmd_bench(args: argparse.Namespace) -> int:
    if args.algo == "hyper" and args.g is None:
        raise ValueError("--g is required for --algo hyper")
    if args.trials < 1:
        raise ValueError(f"trials >= 1 violated: trials = {args.trials}")
    algos = [args.algo] + (["fr-median"] if args.baseline == "fr-median" else [])
    results = {algo: [] for algo in algos}
    print(BENCH_HEADER)
    for seed in range(args.seed_base, args.seed_base + args.trials):
        instance = generate_instance(args.n, args.i, args.j, seed)
        for algo in algos:
            results[algo].append(_bench_one(algo, instance, args.g, args.exact, seed))
    for algo in algos:
        print(_stats_row(algo, args.n, args.i, args.j, args.trials, args.seed_base, results[algo]))
    return 0


def cmd_lower_bound(args: argparse.Namespace) -> int:
    print(lower_bound(args.i, args.j))
    return 0


def cmd_plot_data(args: argparse.Namespace) -> int:
    rows = curve(args.alpha_from, args.alpha_to, args.step)
    print("alpha,c_a1,c_yao")
    for alpha, c_a1, c_yao in rows:
        print(f"{alpha:.4f},{_fmt(c_a1)},{_fmt(c_yao)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediocre",
        description="Comparison-counted selection: cost tables, single runs, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="reproduce a published cost table as CSV")
    p.add_argument("--which", required=True, choices=["f", "constants", "hyper4"])
    p.add_argument("--format", default="csv", choices=["csv"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("run", help="one seeded selection run with an oracle check")
    p.add_argument("--algo", required=True, choices=["yao", "a1", "hyper", "a2", "a2lv"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--j", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--exact", default="mom", choices=["mom", "sort"])
    p.add_argument("--g", type=int, help="group size (hyper only)")
    p.add_argument("--format", default="csv", choices=["csv"])
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="aggregate seeded trials into one CSV row")
    p.add_argument("--algo", required=True, choices=["yao", "a1", "hyper", "a2", "a2lv"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--j", required=True, type=int)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed-base", default=0, type=int)
    p.add_argument("--baseline", choices=["fr-median"])
    p.add_argument("--exact", default="mom", choices=["mom", "sort"])
    p.add_argument("--g", type=int)
    p.add_argument("--format", default="csv", choices=["csv"])
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lower-bound", help="information-theoretic comparison lower bound")
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--j", required=True, type=int)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("plot-data", help="cost-constant curves on an alpha grid")
    p.add_argument("--from", dest="alpha_from", required=True, type=float)
    p.add_argument("--to", dest="alpha_to", required=True, type=float)
    p.add_argument("--step", required=True, type=float)
    p.add_argument("--format", default="csv", choices=["csv"])
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
