#!/usr/bin/env python3
"""Benchmark of `mediocre bench`: trial throughput, comparison tallies, per-layer spans.

Drives the real entry point ``mediocre.cli.main(argv)`` in this process, one
``bench`` invocation at a time: a closed loop with a single client, no thread
pool, and MEDIOCRE_THREADS removed from the environment.  A workload is a
fixed list of invocations built from the seed base; one *pass* runs that list
once.  Pass p uses seed base ``seed * 10**6 + p * 1000`` so that no two passes
share an instance, and pass 0 (which every run makes) is the one whose tallies
are reported, so tallies do not depend on how many passes fit in the time.

    python3 perfbench/run.py --workload median-lv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

With --trace 0 the passes run untraced for --seconds and the end-to-end
metrics are reported: trials per reference second (the time of a fixed
reference loop, measured between passes, tracks the machine's current speed),
the comparison tally per element, and the import time.  Pass 0 is then
replayed once with spans recorded, for the correctness checks.  With
--trace 1 every untraced pass is followed by its traced replay, and the
per-layer metrics come from the replays.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  The exit status is 0 when
every check passed, 1 when one failed and 2 when the benchmark could not run.
perfbench/README.md defines every metric and says why each workload exists.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

from spans import Tracer, installed

# The top-level algorithm spans and the CSV algorithm each one reports as.
ALGO_SPANS = {
    "approx.yao": "yao",
    "approx.a1": "a1",
    "approx.hyper": "hyper",
    "approx.a2lv": "a2lv",
    "exact.fr": "fr-median",
}
CMP_KEYS = ("yao", "a1", "hyper2", "hyper4", "a2lv", "fr-median")
# The CSV format this benchmark parses: cli.BENCH_HEADER when it was written.
BENCH_HEADER = ("algorithm,n,i,j,trials,mean_comparisons,stddev,max_comparisons,"
                "failure_rate,mean_repetitions,seed_base")
SETUP_REPEATS = 11
REF_LOOPS_PER_REF_S = 50


@dataclass(frozen=True)
class Call:
    """One `mediocre bench` invocation."""

    algo: str
    n: int
    i: int
    j: int
    trials: int
    seed_base: int
    g: int | None = None
    baseline: bool = False

    @property
    def argv(self) -> list[str]:
        argv = ["bench", "--algo", self.algo, "--n", str(self.n), "--i", str(self.i),
                "--j", str(self.j), "--trials", str(self.trials),
                "--seed-base", str(self.seed_base)]
        if self.g is not None:
            argv += ["--g", str(self.g)]
        if self.algo in ("yao", "a1", "hyper"):
            argv += ["--exact", "mom"]
        if self.baseline:
            argv += ["--baseline", "fr-median"]
        return argv

    def keys(self) -> list[str]:
        """Metric key of each CSV row, in row order (hyper is keyed by g)."""
        main = f"hyper{self.g}" if self.algo == "hyper" else self.algo
        return [main, "fr-median"] if self.baseline else [main]


# ---------------------------------------------------------------- workloads
# Why each workload exists is in perfbench/README.md and BENCHMARK.json.

def median_lv(base: int) -> list[Call]:
    return [Call("a2lv", 20000, 8318, 8318, 20, base, baseline=True)]


def skew_det(base: int) -> list[Call]:
    n = 20000
    calls = []
    for alpha in (0.05, 0.15, 0.25):
        i = round(alpha * n)
        calls += [Call(algo, n, i, n - 2 * i - 1, 4, base) for algo in ("yao", "a1")]
    for alpha in (0.05, 0.15):
        i = round(alpha * n)
        calls += [Call("yao", n, i, n - 4 * i - 1, 4, base), Call("hyper", n, i, n - 4 * i - 1, 4, base, g=4)]
    return calls


SWEEP_N = 64
SWEEP_VALUES = (0, 1, 4, 10, 20, 31)


def _a2_domain(n: int, i: int, j: int) -> bool:
    """The a2 parameter domain as documented: i + j >= 16 and m <= n."""
    return i + j >= 16 and int(i + j + 2.0 * (i + j) ** 0.75 + 0.5) <= n


def small_sweep(base: int) -> list[Call]:
    n = SWEEP_N
    calls = []
    for i in SWEEP_VALUES:
        for j in SWEEP_VALUES:
            if i + j + 1 > n:
                continue
            calls += [Call("yao", n, i, j, 20, base), Call("a1", n, i, j, 20, base)]
            for g in (2, 4):
                if g * (i + -(-(j + 1) // g)) <= n:
                    calls.append(Call("hyper", n, i, j, 20, base, g=g))
            if _a2_domain(n, i, j):
                calls.append(Call("a2lv", n, i, j, 20, base))
    return calls


WORKLOADS = {"median-lv": median_lv, "skew-det": skew_det, "small-sweep": small_sweep}


def calls_for(workload: str, seed: int, pass_no: int) -> list[Call]:
    return WORKLOADS[workload](seed * 10**6 + pass_no * 1000)


# ------------------------------------------------------------- invocations

@dataclass
class Outcome:
    call: Call
    rc: int
    error: str | None
    stdout: str
    rows: list[dict[str, str]]  # empty unless the CSV header is BENCH_HEADER
    trials: int


def invoke(main, call: Call) -> Outcome:
    """Run one invocation; anything raised or a non-zero status is a failure."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(call.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is counted and listed, and the run goes on
            rc, error = 1, f"{type(exc).__name__}: {exc}"
    if rc != 0 and error is None:
        error = f"exit {rc}: {err.getvalue().strip()}"
    stdout = out.getvalue()
    rows = []
    lines = stdout.splitlines()
    if rc == 0 and lines and lines[0] == BENCH_HEADER:
        cols = BENCH_HEADER.split(",")
        rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    return Outcome(call, rc, error, stdout, rows, sum(int(r["trials"]) for r in rows))


def check_output(o: Outcome, cli_header: str | None, problems: list[str]) -> None:
    """Header, rows and the echoed parameters of a successful invocation."""
    header = o.stdout.splitlines()[:1]
    if header != [cli_header] or cli_header != BENCH_HEADER:
        problems.append(f"{o.call.argv}: CSV header {header} is not cli.BENCH_HEADER {cli_header!r} "
                        f"in the format {BENCH_HEADER!r}")
        return
    c = o.call
    labels = [c.algo] + (["fr-median"] if c.baseline else [])
    got = [(r["algorithm"], r["n"], r["i"], r["j"], r["trials"], r["seed_base"]) for r in o.rows]
    want = [(a, str(c.n), str(c.i), str(c.j), str(c.trials), str(c.seed_base)) for a in labels]
    if got != want:
        problems.append(f"{c.argv}: rows {got} != expected {want}")


# ------------------------------------------------------- reference loop

_MASK64 = (1 << 64) - 1


def reference_loop() -> list[int]:
    """Fixed pure-Python work that does not use mediocre: a SplitMix64
    Fisher-Yates shuffle of 20000 integers.  Its instruction mix and memory
    footprint are those of the program's instance generation and partition
    loops, so its time tracks the speed the machine gives the program.  It
    runs in about 20 ms on the machine described in README.md."""
    xs = list(range(20000))
    s = 1
    for idx in range(len(xs) - 1, 0, -1):
        s = (s + 0x9E3779B97F4A7C15) & _MASK64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        other = (z ^ (z >> 31)) % (idx + 1)
        xs[idx], xs[other] = xs[other], xs[idx]
    return xs


def time_reference_loop() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


# ------------------------------------------------------------ layer sums

class Layers:
    """Per-layer sums over the traced invocations, and the checks on their spans."""

    def __init__(self, missing: dict[str, str]) -> None:
        self.s: dict[str, float] = defaultdict(float)
        self.missing = missing  # span name -> why its hook is not installed
        self.unchecked: dict[str, str] = {}  # check -> why it could not run

    def add(self, spans, call: Call, untraced: Outcome, traced: Outcome, mediocre,
            problems: list[str]) -> None:
        s = self.s
        root = spans[0]
        top = [0] * len(spans)  # index of each span's top-level (child-of-root) ancestor
        kids: dict[int, list] = defaultdict(list)
        for k in range(1, len(spans)):
            sp = spans[k]
            top[k] = k if sp.parent == 0 else top[sp.parent]
            kids[sp.parent].append(sp)
        s["invocations"] += 1
        s["inv_ns"] += root.ns
        s["cli_self_ns"] += root.ns - sum(sp.ns for sp in kids[0])

        per_label: dict[str, list] = defaultdict(list)  # label -> top-level algorithm spans
        rounds_under: dict[int, int] = defaultdict(int)
        draw_under: dict[int, int] = defaultdict(int)
        outputs = []
        instance = None
        for k in range(1, len(spans)):
            sp = spans[k]
            name = sp.name
            if sp.raised:
                continue
            if name == "core.generate" and sp.parent == 0:
                s["gen_calls"] += 1
                s["gen_ns"] += sp.ns
                instance = sp.result
            elif name in ALGO_SPANS and sp.parent == 0:
                label = ALGO_SPANS[name]
                per_label[label].append((k, sp))
                s["trials"] += 1
                s["alg_ns"] += sp.ns
                s["alg_cmp"] += sp.tally
                if label == "fr-median":
                    s["fr_calls"] += 1
                    s["fr_cmp"] += sp.tally
                    s["fr_subset"] += len(sp.args[0])
                    s["fr_ns"] += sp.ns
                    outputs.append((label, sp.result, instance))
                else:
                    outputs.append((label, sp.result.element, sp.args[0]))
                if label in ("a1", "hyper"):
                    self._stage(sp, kids[k], call, s, problems)
                if label == "a2lv":
                    s["lv_trials"] += 1
                    s["lv_cmp"] += sp.tally
            elif name == "exact.mom":
                s["mom_calls"] += 1
                s["mom_cmp"] += sp.tally
                s["mom_pool"] += len(sp.args[0])
                s["mom_ns"] += sp.ns
            elif name == "approx.a2.round":
                child = kids[k]
                draw_ns = sum(c.ns for c in child if c.name == "approx.a2.draw")
                select = [c for c in child if c.name == "approx.a2.sample_select"]
                s["rounds"] += 1
                s["draw_ns"] += draw_ns
                s["ss_cmp"] += sum(c.tally for c in select)
                s["ss_ns"] += sum(c.ns for c in select)
                s["verify_cmp"] += sp.tally - sum(c.tally for c in select)
                s["verify_n"] += sp.args[0].n
                s["verify_ns"] += sp.ns - draw_ns - sum(c.ns for c in select)
                if sp.result.failed:
                    s["failed_round_cmp"] += sp.tally
                else:
                    s["good_rounds"] += 1
                if top[k] != k:
                    rounds_under[top[k]] += 1
            elif name == "approx.a2.draw":
                draw_under[top[k]] += sp.ns
        for label in per_label:
            for k, sp in per_label[label]:
                s["alg_ns"] -= draw_under[k]
            if label == "a2lv":
                s["lv_rounds"] += sum(rounds_under[k] for k, _ in per_label[label])

        if traced.stdout != untraced.stdout or traced.error != untraced.error:
            problems.append(f"{call.argv}: traced replay output differs from the untraced run")
        if untraced.rc == 0:
            self._check_tallies(call, untraced, per_label, rounds_under, problems)
        for label, element, inst in outputs:
            if inst is not None and not mediocre(element, inst):
                problems.append(f"{call.argv}: {label} returned {element}, which is not mediocre")

    def _stage(self, sp, children, call: Call, s, problems: list[str]) -> None:
        """Pairing or knockout stage: the tally and time before the pool selector starts."""
        selectors = [c for c in children if c.name == "exact.mom"]
        if not selectors:
            self.unchecked["stage tallies"] = "no pool-selector spans recorded"
            return
        first = selectors[0]
        stage = first.tally0 - sp.tally0
        s["stage_trials"] += 1
        s["stage_cmp"] += stage
        s["stage_n"] += call.n
        s["stage_ns"] += first.start - sp.start
        n, i, j, g = call.n, call.i, call.j, call.g
        if call.algo == "a1":
            want = i + (j + 1) // 2 if i <= j <= n - 2 * i - 1 else 0
        else:
            want = (i + -(-(j + 1) // g)) * (g - 1)
            knockouts = [c.tally for c in children if c.name == "approx.group_max"]
            if not knockouts:
                self.unchecked["knockout tallies"] = "no approx.group_max spans recorded"
            elif sum(knockouts) != want:
                problems.append(f"{call.argv}: knockout tallies sum to {sum(knockouts)}, expected {want}")
        if stage != want:
            problems.append(f"{call.argv}: stage tally {stage}, expected {want}")

    def _check_tallies(self, call: Call, untraced: Outcome, per_label, rounds_under, problems) -> None:
        """Per-trial tallies of the traced replay, summed, against the untraced CSV."""
        for row in untraced.rows:
            spans = per_label.get(row["algorithm"], [])
            if not spans:
                self.unchecked[f"{row['algorithm']} tallies"] = "no traced trial spans recorded"
                continue
            trials = int(row["trials"])
            if len(spans) != trials:
                problems.append(f"{call.argv}: {len(spans)} traced {row['algorithm']} trials, CSV says {trials}")
                continue
            tallies = [sp.tally for _, sp in spans]
            if f"{sum(tallies) / trials:.4f}" != row["mean_comparisons"] or str(max(tallies)) != row["max_comparisons"]:
                problems.append(f"{call.argv}: traced tallies {sum(tallies)}/{trials} disagree with {row}")
            if row["algorithm"] == "a2lv":
                reps = sum(rounds_under[k] for k, _ in spans)
                if not reps:
                    self.unchecked["a2lv repetitions"] = "no approx.a2.round spans recorded"
                elif f"{reps / trials:.4f}" != row["mean_repetitions"]:
                    problems.append(f"{call.argv}: traced rounds {reps}/{trials} disagree with {row}")

    def metrics(self, missing: dict[str, str]) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
        """(per-layer metrics, reasons for those left unmeasured)."""
        s = self.s
        out: dict[str, tuple[float, str]] = {}
        unmeasured: dict[str, str] = {}

        def ratio(name, num, den, unit, spans, scale=1.0):
            need = [sp for sp in spans if sp in missing]
            if need:
                unmeasured[name] = missing[need[0]]
            elif not s[den]:
                unmeasured[name] = f"no {spans[0]} spans on this workload"
            out[name] = (s[num] / s[den] * scale if s[den] and not need else 0.0, unit)

        algos = [*ALGO_SPANS]
        ratio("core.generate.ms_per_call", "gen_ns", "gen_calls", "ms", ["core.generate"], 1e-6)
        ratio("core.generate.calls_per_trial", "gen_calls", "trials", "calls/trial", ["core.generate", *algos])
        ratio("core.generate.time_share", "gen_ns", "inv_ns", "share", ["core.generate"])
        ratio("core.less.ns_per_cmp", "alg_ns", "alg_cmp", "ns/cmp", algos)
        ratio("approx.stage.cmp_per_n", "stage_cmp", "stage_n", "cmp/n", ["approx.a1", "exact.mom"])
        ratio("approx.stage.ms", "stage_ns", "stage_trials", "ms", ["approx.a1", "exact.mom"], 1e-6)
        ratio("approx.a2.draw.ms", "draw_ns", "rounds", "ms", ["approx.a2.round", "approx.a2.draw"], 1e-6)
        ratio("approx.a2.sample_select.cmp", "ss_cmp", "rounds", "cmp", ["approx.a2.round", "approx.a2.sample_select"])
        ratio("approx.a2.sample_select.ms", "ss_ns", "rounds", "ms", ["approx.a2.round", "approx.a2.sample_select"], 1e-6)
        ratio("approx.a2.verify.cmp_per_n", "verify_cmp", "verify_n", "cmp/n", ["approx.a2.round", "approx.a2.sample_select"])
        ratio("approx.a2.verify.ms", "verify_ns", "rounds", "ms",
              ["approx.a2.round", "approx.a2.sample_select", "approx.a2.draw"], 1e-6)
        ratio("approx.lv.rounds_per_trial", "lv_rounds", "lv_trials", "rounds/trial", ["approx.a2lv", "approx.a2.round"])
        ratio("approx.lv.success_ratio", "good_rounds", "rounds", "share", ["approx.a2.round"])
        ratio("approx.lv.wasted_cmp_share", "failed_round_cmp", "lv_cmp", "share", ["approx.a2lv", "approx.a2.round"])
        ratio("exact.mom.cmp_per_pool", "mom_cmp", "mom_pool", "cmp/elem", ["exact.mom"])
        ratio("exact.mom.ms", "mom_ns", "mom_calls", "ms", ["exact.mom"], 1e-6)
        ratio("exact.mom.ns_per_cmp", "mom_ns", "mom_cmp", "ns/cmp", ["exact.mom"])
        ratio("exact.fr.cmp_per_subset", "fr_cmp", "fr_subset", "cmp/elem", ["exact.fr"])
        ratio("exact.fr.ms", "fr_ns", "fr_calls", "ms", ["exact.fr"], 1e-6)
        ratio("cli.self_ms_per_invocation", "cli_self_ns", "invocations", "ms", ["core.generate", *algos], 1e-6)
        ratio("cli.self_share", "cli_self_ns", "inv_ns", "share", ["core.generate", *algos])
        return out, unmeasured



# ----------------------------------------------------------- tally metrics

def tally_metrics(pass0: list[Outcome], costmodel) -> tuple[dict, dict, dict]:
    """From the untraced CSV of pass 0: the end-to-end cmp_per_n, and the
    per-algorithm cmp_per_n.*, costmodel.gap.* and costmodel.lb_ratio.* values,
    each as (values, unmeasured reasons).  Computed here, not timed."""
    total_cmp = total_n = 0.0
    per_key: dict[str, list[float]] = defaultdict(list)
    lb: dict[str, list[float]] = defaultdict(list)
    gaps: dict[str, list[float]] = defaultdict(list)
    for o in pass0:
        if o.rc != 0:
            continue
        c = o.call
        alpha = c.i / c.n
        for key, row in zip(c.keys(), o.rows):
            mean = float(row["mean_comparisons"])
            total_cmp += mean * c.trials
            total_n += c.n * c.trials
            per_key[key].append(mean / c.n)
            bound = costmodel.lower_bound(c.i, c.j)
            if bound:
                lb[key].append(mean / bound)
            if c.j == c.n - 2 * c.i - 1 and 0 < alpha < 1 / 3 and key in ("yao", "a1"):
                k = costmodel.instance_constants(alpha)
                gaps[key].append(mean / c.n - (k.c_yao if key == "yao" else k.c_a1))
            if c.j == c.n - 4 * c.i - 1 and 0 < alpha <= 0.2 and key in ("yao", "hyper4"):
                k = costmodel.instance_constants(alpha)
                gaps["yao4" if key == "yao" else "a4"].append(mean / c.n - (k.c_yao4 if key == "yao" else k.c_a4))
    values: dict[str, tuple[float, str]] = {}
    unmeasured: dict[str, str] = {}

    def mean_of(name, xs, unit, why):
        values[name] = (statistics.fmean(xs) if xs else 0.0, unit)
        if not xs:
            unmeasured[name] = why

    for key in CMP_KEYS:
        mean_of(f"cmp_per_n.{key}", per_key[key], "cmp/n", f"the workload runs no {key} trials")
    for key in ("a1", "yao", "a4", "yao4"):
        mean_of(f"costmodel.gap.{key}", gaps[key], "cmp/n",
                f"no {key} invocation on the instance family that costmodel prices")
    for key in CMP_KEYS:
        mean_of(f"costmodel.lb_ratio.{key}", lb[key], "ratio",
                f"the workload runs no {key} trials with a positive lower bound")
    return {"cmp_per_n": (total_cmp / total_n if total_n else 0.0, "cmp/n")}, values, unmeasured


# ------------------------------------------------------------- the run

def load_package():
    """Import mediocre from this checkout's src/, or exit 2."""
    if not (SRC / "mediocre" / "__init__.py").is_file():
        print(f"error: no mediocre sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mediocre
    import mediocre.approx
    import mediocre.cli
    import mediocre.core
    import mediocre.costmodel

    if Path(mediocre.__file__).resolve().parent != SRC / "mediocre":
        print(f"error: imported mediocre from {mediocre.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return mediocre


def setup_seconds() -> float:
    """Median time to import mediocre and mediocre.cli in a fresh interpreter.

    One untimed import first writes the bytecode caches, as any first use does.
    """
    code = ("import time; t = time.perf_counter(); import mediocre, mediocre.cli; "
            "print(time.perf_counter() - t)")
    env = {k: v for k, v in os.environ.items() if k != "MEDIOCRE_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    samples = []
    for r in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if r:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_facts(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed_base": seed * 10**6,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": threading.active_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def replay(pkg, outcomes: list[Outcome], layers: Layers, missing: dict[str, str],
           problems: list[str], dump: list | None) -> tuple[float, int]:
    """Run the invocations of one pass again with spans recorded.

    Returns (seconds inside the invocations, trials completed).  The checks and
    sums over each invocation's spans run after it returns, outside every span.
    """
    tracer = Tracer(pkg.core.CountingComparator)
    main = tracer.wrap("cli.invocation", pkg.cli.main)
    elapsed = 0.0
    trials = 0
    with installed(tracer, pkg, missing):
        for number, o in enumerate(outcomes):
            tracer.spans.clear()
            t0 = time.perf_counter()
            again = invoke(main, o.call)
            elapsed += time.perf_counter() - t0
            trials += again.trials
            layers.add(tracer.spans, o.call, o, again, pkg.core.is_mediocre, problems)
            if dump is not None:
                dump.extend({"invocation": number, **sp.record()} for sp in tracer.spans)
    return elapsed, trials


def run_workload(pkg, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, int]:
    """Measure one workload; returns (result object, exit status)."""
    cli = pkg.cli
    problems: list[str] = []
    failures: dict[tuple, str] = {}
    missing: dict[str, str] = {}
    layers = Layers(missing)
    rates: list[float] = []
    ref_rates: list[float] = []  # trials per reference second, one per pass
    ref_times: list[float] = [time_reference_loop()]
    traced_s = untraced_s = 0.0
    traced_trials = untraced_trials = 0
    attempted = failed = 0
    dump: list | None = [] if trace else None
    pass0: list[Outcome] = []

    start = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - start < seconds:
        calls = calls_for(workload, seed, p)
        t0 = time.perf_counter()
        outcomes = [invoke(cli.main, c) for c in calls]
        elapsed = time.perf_counter() - t0
        ref_times.append(time_reference_loop())
        trials = sum(o.trials for o in outcomes)
        rates.append(trials / elapsed)
        # the machine's speed during the pass: the reference loop just before and after it
        ref_rates.append(trials / elapsed * (ref_times[-2] + ref_times[-1]) / 2 * REF_LOOPS_PER_REF_S)
        for o in outcomes:
            attempted += 1
            if o.rc != 0:
                failed += 1
                c = o.call
                failures[(c.keys()[0], c.n, c.i, c.j)] = o.error
            else:
                check_output(o, getattr(cli, "BENCH_HEADER", None), problems)
        if p == 0:
            pass0 = outcomes
        if trace:
            untraced_s += elapsed
            untraced_trials += trials
            s, t = replay(pkg, outcomes, layers, missing, problems, dump if p == 0 else None)
            traced_s += s
            traced_trials += t
        p += 1
    if not trace:
        replay(pkg, pass0, layers, missing, problems, None)

    end_to_end, per_algo, unmeasured = tally_metrics(pass0, pkg.costmodel)
    info = {
        "passes": len(rates),
        "error_rate": failed / attempted,
        "trials_per_s": statistics.median(rates),
        "trials_per_s.quartiles": statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3,
        "reference_loop_ms.median": statistics.median(ref_times) * 1e3,
    }
    if trace:
        metrics, layer_unmeasured = layers.metrics(missing)
        metrics.update(per_algo)
        unmeasured.update(layer_unmeasured)
        metrics["trace.overhead"] = (1.0 - (traced_trials / traced_s) / (untraced_trials / untraced_s), "share")
    else:
        metrics = {
            "trials_per_ref_s": (statistics.median(ref_rates), "1/ref-s"),
            **end_to_end,
            "setup_s": (setup_seconds(), "s"),
        }
        info.update({k: v[0] for k, v in per_algo.items() if k.startswith("cmp_per_n.") and k not in unmeasured})
        unmeasured = {}

    problems = list(dict.fromkeys(problems))
    facts = machine_facts(workload, seed, seconds, trace)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    listed_failures = [{"algo": a, "n": n, "i": i, "j": j, "error": e} for (a, n, i, j), e in failures.items()]
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        "facts": facts, "result": result, "info": info, "failures": listed_failures,
        "unmeasured": unmeasured, "missing_hooks": missing, "unchecked": layers.unchecked,
        "problems": problems,
    }, indent=1) + "\n")
    if dump is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in dump)

    print("facts " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, value in info.items():
        print(f"info {name} = {value}")
    for f in listed_failures:
        print(f"failed invocation: {f['algo']} n={f['n']} i={f['i']} j={f['j']}: {f['error']}")
    for name, why in missing.items():
        print(f"unmeasured span {name}: {why}")
    for name, why in unmeasured.items():
        print(f"unmeasured {name}: {why}")
    for name, why in layers.unchecked.items():
        print(f"unchecked {name}: {why}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"CHECK FAILED: {len(problems) - 20} more, listed in {stem.with_suffix('.json')}")
    print(json.dumps(result))
    return result, 0 if result["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    os.environ.pop("MEDIOCRE_THREADS", None)
    pkg = load_package()
    names = [*WORKLOADS] if args.workload == "all" else [args.workload]
    return max(run_workload(pkg, name, args.seed, args.seconds, args.trace)[1] for name in names)


if __name__ == "__main__":
    sys.exit(main())
