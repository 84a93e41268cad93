import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mediocre.cli as cli
from mediocre.cli import main
from mediocre.core import CountingComparator, Rng, is_mediocre
from mediocre.exact import select_floyd_rivest

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_records(out):
    """The data rows of a CSV output as dicts keyed by its header."""
    header, *rows = (line.split(",") for line in out.splitlines())
    return [dict(zip(header, row)) for row in rows]


class TestTable:
    def test_constants_header_and_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "constants")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "alpha,c_a1,c_yao"
        assert "0.10,1.7500,1.7750" in lines
        assert len(lines) == 34

    def test_f_table_has_33_data_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "f")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "alpha,l,g_l,g_l1,f"
        assert len(lines) == 34
        assert lines[1].startswith("0.01,9,1.131")

    def test_hyper4_has_8_data_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "hyper4")
        lines = out.splitlines()
        assert lines[0] == "alpha,c_a4,c_yao4"
        assert len(lines) == 9
        assert "0.10,1.5000,1.5250" in lines
        assert "0.13,1.5000,1.5600" in lines

    def test_unknown_table_exits_2(self):
        # argparse rejects the choice itself
        with pytest.raises(SystemExit) as exc:
            main(["table", "--which", "bogus"])
        assert exc.value.code == 2


class TestRun:
    def test_yao_median_of_three(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--algo", "yao", "--n", "3", "--i", "1", "--j", "1", "--seed", "1")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "yao"
        assert row[8] == "true"  # mediocre

    def test_a1_reports_pairing_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--algo", "a1", "--n", "12", "--i", "2", "--j", "7", "--seed", "5")
        assert code == 0
        header = out.splitlines()[0].split(",")
        row = out.splitlines()[1].split(",")
        record = dict(zip(header, row))
        assert record["stage_comparisons"] == "6"
        assert record["mediocre"] == "true"
        assert int(record["rank_from_bottom"]) in (7, 8, 9)

    def test_a2_never_wrong_and_exit_code_contract(self, capsys):
        for seed in range(25):
            code, out, _ = run_cli(
                capsys, "run", "--algo", "a2", "--n", "100", "--i", "20", "--j", "20", "--seed", str(seed)
            )
            header, row = (line.split(",") for line in out.splitlines())
            record = dict(zip(header, row))
            if code == 0:
                assert record["failed"] == "false"
                assert record["mediocre"] == "true"
            else:
                assert code == 3
                assert record["failed"] == "true"

    def test_a2_small_j_exits_cleanly(self, capsys):
        # j much smaller than i puts the unclamped k below the sample-rank band;
        # an exception there would propagate out of main and fail the test
        code, out, _ = run_cli(capsys, "run", "--algo", "a2", "--n", "100", "--i", "21", "--j", "0", "--seed", "1")
        assert code in (0, 3)
        assert out.startswith("algo,")

    def test_a2lv_reports_repetitions(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--algo", "a2lv", "--n", "80", "--i", "18", "--j", "18", "--seed", "4")
        assert code == 0
        record = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert int(record["repetitions"]) >= 1
        assert record["mediocre"] == "true"

    def test_hyper_requires_group_size(self, capsys):
        for command, count in (("run", "--seed"), ("bench", "--trials")):
            code, out, err = run_cli(
                capsys, command, "--algo", "hyper", "--n", "24", "--i", "2", "--j", "15", count, "1"
            )
            assert code == 2
            assert out == ""
            assert "--g is required" in err

    @pytest.mark.parametrize("algo", ["yao", "a2"])
    def test_group_size_only_for_hyper(self, capsys, algo):
        for command, count in (("run", "--seed"), ("bench", "--trials")):
            code, out, err = run_cli(
                capsys, command, "--algo", algo, "--g", "4", "--n", "50", "--i", "5", "--j", "20", count, "3"
            )
            assert code == 2
            assert out == ""
            assert "--g applies only to --algo hyper" in err

    def test_parameter_error_names_inequality(self, capsys):
        code, _, err = run_cli(capsys, "run", "--algo", "yao", "--n", "3", "--i", "2", "--j", "2", "--seed", "1")
        assert code == 2
        assert "i + j + 1 <= n" in err

    # Pinned rows: a changed element, rank, tally or stage count shows up here.
    @pytest.mark.parametrize("argv,row", [
        ("yao --n 50 --i 5 --j 20 --seed 3", "yao,50,5,20,,3,43,43,true,44,0,,"),
        ("a1 --n 40 --i 3 --j 11 --seed 2", "a1,40,3,11,,2,20,20,true,26,9,,"),
        ("a1 --n 40 --i 3 --j 12 --seed 2", "a1,40,3,12,,2,20,20,true,27,9,,"),
        ("a1 --n 30 --i 5 --j 2 --seed 9", "a1,30,5,2,,9,10,10,true,11,0,,"),
        ("hyper --g 2 --n 64 --i 3 --j 11 --seed 4", "hyper,64,3,11,2,4,46,46,true,22,9,,"),
        ("hyper --g 4 --n 24 --i 2 --j 15 --seed 1", "hyper,24,2,15,4,1,19,19,true,26,18,,"),
        ("hyper --g 8 --n 64 --i 1 --j 30 --seed 8", "hyper,64,1,30,8,8,61,61,true,41,35,,"),
        ("a2 --n 200 --i 40 --j 40 --seed 9", "a2,200,40,40,,9,82,82,true,200,,,false"),
        ("a2lv --n 80 --i 18 --j 18 --seed 4", "a2lv,80,18,18,,4,30,30,true,302,,3,false"),
    ])
    def test_golden_rows(self, capsys, argv, row):
        code, out, _ = run_cli(capsys, "run", "--algo", *argv.split())
        assert code == 0
        assert out == f"{cli.RUN_HEADER}\n{row}\n"

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "run", "--algo", "a2", "--n", "200", "--i", "40", "--j", "40", "--seed", "9")
        _, second, _ = run_cli(capsys, "run", "--algo", "a2", "--n", "200", "--i", "40", "--j", "40", "--seed", "9")
        assert first == second


class TestBench:
    def test_single_trial_pairing_identity(self, capsys):
        # i + floor((j+1)/2) = 1000 + 3500 comparisons before pool selection
        code, out, _ = run_cli(
            capsys, "bench", "--algo", "a1", "--n", "10000", "--i", "1000", "--j", "6999",
            "--trials", "1", "--seed-base", "3",
        )
        assert code == 0
        record = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert float(record["mean_comparisons"]) >= 4500

    def test_reproducible_output(self, capsys):
        args = ("bench", "--algo", "a2lv", "--n", "200", "--i", "40", "--j", "40",
                "--trials", "5", "--seed-base", "11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert first.splitlines()[0].startswith("algorithm,")

    def test_baseline_adds_fr_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--algo", "a2lv", "--n", "300", "--i", "60", "--j", "60",
            "--trials", "2", "--seed-base", "0", "--baseline", "fr-median",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("a2lv,")
        assert lines[2].startswith("fr-median,")

    def test_baseline_shares_one_instance_per_seed(self, capsys, monkeypatch):
        args = ("bench", "--algo", "a2lv", "--n", "200", "--i", "40", "--j", "40", "--trials", "3")
        _, alone, _ = run_cli(capsys, *args)
        calls = []
        generate = cli.generate_instance

        def counted(*a):
            calls.append(a)
            return generate(*a)

        monkeypatch.setattr(cli, "generate_instance", counted)
        code, out, _ = run_cli(capsys, *args, "--baseline", "fr-median")
        assert code == 0
        assert len(calls) == 3
        assert out.splitlines()[1] == alone.splitlines()[1]

    @pytest.mark.parametrize("n,i,j", [(11, 0, 10), (30, 2, 20), (100, 5, 60)])
    def test_baseline_element_is_mediocre_when_i_differs_from_j(self, n, i, j):
        for seed in range(50):
            instance = cli.generate_instance(n, i, j, seed)
            out = cli._select("fr-median", instance, None, "mom", seed, CountingComparator())
            assert is_mediocre(out.element, instance), seed

    def test_mc_row_reports_failure_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--algo", "a2", "--n", "100", "--i", "20", "--j", "20",
            "--trials", "20", "--seed-base", "0",
        )
        record = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert 0.0 <= float(record["failure_rate"]) <= 1.0

    def test_trials_must_be_positive(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--algo", "yao", "--n", "10", "--i", "1", "--j", "1",
            "--trials", "0",
        )
        assert code == 2
        assert out == ""
        assert "trials >= 1" in err

    def test_failing_trial_prints_nothing(self, capsys):
        # every trial runs before the header is printed, so exit 2 leaves stdout empty
        code, out, err = run_cli(
            capsys, "bench", "--algo", "hyper", "--g", "3", "--n", "24", "--i", "2", "--j", "15",
            "--trials", "2",
        )
        assert code == 2
        assert out == ""
        assert "power of 2" in err

    # Pinned rows: failure_rate is set on a2 only, mean_repetitions on a2lv only.
    @pytest.mark.parametrize("argv,rows", [
        ("a2 --n 120 --i 24 --j 20 --trials 40 --seed-base 17",
         ["a2,120,24,20,40,117.3250,13.2766,157,0.0500,,17"]),
        ("a2lv --n 120 --i 20 --j 30 --trials 8 --seed-base 100 --baseline fr-median", [
            "a2lv,120,20,30,8,149.1250,42.8148,257,,1.1250,100",
            "fr-median,120,20,30,8,110.8750,20.3005,148,,,100",
        ]),
        ("yao --n 50 --i 5 --j 20 --trials 6 --seed-base 3", ["yao,50,5,20,6,43.8333,0.6872,45,,,3"]),
        ("hyper --g 8 --n 200 --i 3 --j 60 --trials 4 --seed-base 9", ["hyper,200,3,60,4,94.7500,0.8292,96,,,9"]),
    ])
    def test_golden_rows(self, capsys, argv, rows):
        code, out, _ = run_cli(capsys, "bench", "--algo", *argv.split())
        assert code == 0
        assert out == "\n".join([cli.BENCH_HEADER, *rows]) + "\n"

    def test_single_trial_replays_as_run(self, capsys):
        # trial t of a bench is exactly `run` with seed seed_base + t, each
        # trial and the fr-median baseline counted on a comparator of its own
        shape = ("--n", "120", "--i", "20", "--j", "20")
        seeds = range(42, 45)
        baseline = []
        for seed in seeds:
            elements = cli.generate_instance(120, 20, 20, seed).elements
            cmp = CountingComparator()
            select_floyd_rivest(elements[:41], 21, cmp, Rng(seed ^ 1 << 62))
            baseline.append(cmp.comparisons)
        for algo in ("yao", "a1", "a2", "a2lv"):
            runs = []
            for seed in seeds:
                _, run_out, _ = run_cli(capsys, "run", "--algo", algo, *shape, "--seed", str(seed))
                runs.append(int(csv_records(run_out)[0]["comparisons"]))
            _, single_out, _ = run_cli(
                capsys, "bench", "--algo", algo, *shape, "--trials", "1", "--seed-base", "42"
            )
            _, triple_out, _ = run_cli(
                capsys, "bench", "--algo", algo, *shape, "--trials", "3", "--seed-base", "42",
                "--baseline", "fr-median",
            )
            cases = [(csv_records(single_out)[0], runs[:1]), *zip(csv_records(triple_out), (runs, baseline))]
            for record, counts in cases:
                assert record["mean_comparisons"] == f"{sum(counts) / len(counts):.4f}", (algo, record)
                assert record["max_comparisons"] == str(max(counts)), (algo, record)


class TestLowerBound:
    @pytest.mark.parametrize("i,j,expected", [(0, 0, "0"), (1, 2, "4")])
    def test_values(self, capsys, i, j, expected):
        code, out, _ = run_cli(capsys, "lower-bound", "--i", str(i), "--j", str(j))
        assert code == 0
        assert out.strip() == expected

    def test_negative_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lower-bound", "--i", "-1", "--j", "2")
        assert code == 2
        assert "i >= 0" in err


class TestPlotData:
    def test_grid_matches_constants_table(self, capsys):
        _, table_out, _ = run_cli(capsys, "table", "--which", "constants")
        _, plot_out, _ = run_cli(capsys, "plot-data", "--from", "0.01", "--to", "0.33", "--step", "0.01")
        table_rows = [line.split(",") for line in table_out.splitlines()[1:]]
        plot_rows = [line.split(",") for line in plot_out.splitlines()[1:]]
        assert len(plot_rows) == 33
        for trow, prow in zip(table_rows, plot_rows):
            assert float(trow[0]) == pytest.approx(float(prow[0]), abs=1e-9)
            assert trow[1:] == prow[1:]

    def test_finer_grid_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "plot-data", "--from", "0.005", "--to", "0.325", "--step", "0.005")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 65
        assert all(float(v) > 0 for row in rows for v in row.split(","))

    def test_pair_constant_capped_at_two(self, capsys):
        _, out, _ = run_cli(capsys, "plot-data", "--from", "0.002", "--to", "0.332", "--step", "0.002")
        assert all(float(line.split(",")[1]) <= 2.0 for line in out.splitlines()[1:])

    def test_range_error(self, capsys):
        code, _, err = run_cli(capsys, "plot-data", "--from", "0.01", "--to", "0.35", "--step", "0.01")
        assert code == 2
        assert "1/3" in err

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_step_is_usage_error(self, capsys, step):
        code, out, err = run_cli(capsys, "plot-data", "--from", "0.1", "--to", "0.2", "--step", step)
        assert code == 2
        assert out == ""
        assert "step" in err

    @pytest.mark.parametrize("step", ["1e-9", "1e-320"])
    def test_oversized_grid_is_usage_error(self, capsys, step):
        # 1e-9 asks for 10^8 + 1 rows; at 1e-320 the point count overflows a float
        code, out, err = run_cli(capsys, "plot-data", "--from", "0.1", "--to", "0.2", "--step", step)
        assert code == 2
        assert out == ""
        assert "points <= 1000000 violated" in err


@pytest.mark.parametrize(
    "argv,digest",
    [
        (("table", "--which", "f"),
         "3a5d23919d19f58625ce922461a271c36b613e407d05261ee1229ce55ed091db"),
        (("table", "--which", "constants"),
         "6185776bac014acf18e0f804f5361100c2c4f15da0e1d9595ec8613fe77f2efe"),
        (("table", "--which", "hyper4"),
         "c420d94782a2bdd4e64834c0e118df856de2b76775338a6cbfb7844f95cc1992"),
        (("plot-data", "--from", "0.005", "--to", "0.33", "--step", "0.005"),
         "19cb518ee69921d7c3403dd98f536fc7b8cedc5cb8cfea3ae4150e1e68cea188"),
        (tuple("bench --algo a2lv --n 2000 --i 700 --j 700 --trials 5 --baseline fr-median".split()),
         "6735f9f796bb40b3f1f91e82dc6577bc4d2cc1373891aa67608c3bcff927e955"),
        # averages 1.2 rounds per trial, so retried tallies are summed
        (tuple("bench --algo a2lv --n 80 --i 18 --j 18 --trials 10 --baseline fr-median".split()),
         "1ad956bd9d2b73d7f902d98c5cd906b85e10051d81bbf79d582a4f6790d764f9"),
        (tuple("bench --algo a1 --n 200 --i 10 --j 179 --trials 4 --baseline fr-median".split()),
         "cb71c44c50c1c0bde456ebdc96044d39745cbe3afea39df22ca7bd686cff694a"),
        (tuple("bench --algo hyper --g 4 --n 64 --i 4 --j 20 --trials 20".split()),
         "050b994b5398c855fae3d741b6bf060446550eaaa454e4b65ba8cae107ecfb14"),
        (tuple("bench --algo a2 --n 200 --i 40 --j 40 --trials 50".split()),
         "df680b1251f6262508ffd57f1156e5136b7b079eed6fc42a280f5ce7e5000823"),
        # P = 1500, k = 501: the tournament's worst case is 4.67P, so median-of-medians
        (tuple("bench --algo yao --n 2000 --i 500 --j 999 --trials 3".split()),
         "91ecdda74b01960e1be377c7f3e312d17cb9f477a39a1c8cd21d258e44c0412d"),
    ],
)
def test_table_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reproduce_tables_script_matches_cli(capsys, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"), "--out-dir", str(tmp_path)],
        env=env, check=True, capture_output=True,
    )
    expected = {f"{which}_table.csv": ("table", "--which", which) for which in ("f", "constants", "hyper4")}
    expected["curve.csv"] = ("plot-data", "--from", "0.005", "--to", "0.33", "--step", "0.005")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(expected)
    for name, argv in expected.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (tmp_path / name).read_text() == out


@given(
    command=st.sampled_from(["run", "bench"]),
    algo=st.sampled_from(["yao", "a1", "hyper", "a2", "a2lv"]),
    n=st.integers(0, 64),
    g=st.one_of(st.none(), st.integers(0, 9)),
    exact=st.sampled_from(["mom", "sort"]),
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(0, 3),
    baseline=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_exit_contract_fuzz(command, algo, n, g, exact, seed, trials, baseline, data):
    # i and j are drawn against n so that valid and invalid shapes both come up often
    i = data.draw(st.integers(-1, n), label="i")
    j = data.draw(st.integers(-1, n - max(i, 0)), label="j")
    argv = [command, "--algo", algo, "--n", str(n), "--i", str(i), "--j", str(j), "--exact", exact]
    if command == "run":
        argv += ["--seed", str(seed)]
    else:
        argv += ["--trials", str(trials), "--seed-base", str(seed)]
        if baseline:
            argv += ["--baseline", "fr-median"]
    if g is not None:
        argv += ["--g", str(g)]
    out, err = io.StringIO(), io.StringIO()
    # an exception escaping main would fail the test with its traceback
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    if code == 3:
        assert command == "run" and algo == "a2"


class TestParserReuse:
    """One parser serves every `main` call of a process and keeps no state between them."""

    SEQUENCE = [
        "run --algo bogus --n 3 --i 1 --j 1 --seed 1",
        "run --algo yao --n 3 --i 2 --j 2 --seed 1",
        "run --algo a2 --n 100 --i 20 --j 20 --seed 1",
        "run --algo a1 --n 40 --i 3 --j 11 --seed 2",
        "bench --algo a2lv --n 80 --i 18 --j 18 --trials 3 --baseline fr-median",
        "bench --algo a2lv --n 80 --i 18 --j 18 --trials 3",
    ]

    @staticmethod
    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        return status, out.getvalue(), err.getvalue()

    def test_calls_in_one_process_match_fresh_processes(self, monkeypatch):
        # a fixed width, so the usage text wraps alike here and in the subprocesses
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        parser = cli._build_parser()
        results = [self.in_process(argv.split()) for argv in self.SEQUENCE]
        assert cli._build_parser() is parser
        for argv, result in zip(self.SEQUENCE, results):
            proc = subprocess.run(
                [sys.executable, "-m", "mediocre", *argv.split()], env=env, capture_output=True, text=True
            )
            assert result == (proc.returncode, proc.stdout, proc.stderr), argv
        statuses = [status for status, _, _ in results]
        assert statuses == [2, 2, 3, 0, 0, 0]
        assert results[1][1] == ""
        assert results[3][1] == f"{cli.RUN_HEADER}\na1,40,3,11,,2,20,20,true,26,9,,\n"
        # no --baseline default carried over from the call before
        assert [len(r[1].splitlines()) for r in results[4:]] == [3, 2]

    def test_import_does_not_build_the_parser(self):
        code = (
            "import mediocre.cli as cli; print(cli._build_parser.cache_info().currsize); "
            "cli.main(['lower-bound', '--i', '1', '--j', '2']); cli.main(['table', '--which', 'hyper4']); "
            "print(cli._build_parser.cache_info().misses)"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        assert lines[0] == "0"  # importing builds nothing
        assert lines[-1] == "1"  # two calls, one build


def test_module_entry_point_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "mediocre", "lower-bound", "--i", "1", "--j", "2"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"
