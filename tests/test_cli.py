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

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_parameter_error_names_inequality(self, capsys):
        code, _, err = run_cli(capsys, "run", "--algo", "yao", "--n", "3", "--i", "2", "--j", "2", "--seed", "1")
        assert code == 2
        assert "i + j + 1 <= n" in err

    # Pinned rows: a changed element, rank, tally or stage count shows up here.
    @pytest.mark.parametrize("argv,row", [
        ("yao --n 50 --i 5 --j 20 --seed 3", "yao,50,5,20,,3,43,43,true,74,0,,"),
        ("a1 --n 40 --i 3 --j 11 --seed 2", "a1,40,3,11,,2,20,20,true,26,9,,"),
        ("a1 --n 40 --i 3 --j 12 --seed 2", "a1,40,3,12,,2,20,20,true,25,9,,"),
        ("a1 --n 30 --i 5 --j 2 --seed 9", "a1,30,5,2,,9,10,10,true,20,0,,"),
        ("hyper --g 2 --n 64 --i 3 --j 11 --seed 4", "hyper,64,3,11,2,4,46,46,true,36,9,,"),
        ("hyper --g 4 --n 24 --i 2 --j 15 --seed 1", "hyper,24,2,15,4,1,19,19,true,26,18,,"),
        ("hyper --g 8 --n 64 --i 1 --j 30 --seed 8", "hyper,64,1,30,8,8,61,61,true,41,35,,"),
        ("a2 --n 200 --i 40 --j 40 --seed 9", "a2,200,40,40,,9,82,82,true,318,,,false"),
        ("a2lv --n 80 --i 18 --j 18 --seed 4", "a2lv,80,18,18,,4,30,30,true,563,,3,false"),
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

    def test_single_trial_replays_as_run(self, capsys):
        # trial t of a bench is exactly `run` with seed seed_base + t
        for algo in ("yao", "a1", "a2", "a2lv"):
            _, bench_out, _ = run_cli(
                capsys, "bench", "--algo", algo, "--n", "120", "--i", "20", "--j", "20",
                "--trials", "1", "--seed-base", "42",
            )
            _, run_out, _ = run_cli(
                capsys, "run", "--algo", algo, "--n", "120", "--i", "20", "--j", "20",
                "--seed", "42",
            )
            bench_record = dict(zip(*(line.split(",") for line in bench_out.splitlines())))
            run_record = dict(zip(*(line.split(",") for line in run_out.splitlines())))
            assert float(bench_record["mean_comparisons"]) == float(run_record["comparisons"])
            assert bench_record["max_comparisons"] == run_record["comparisons"]

    def test_thread_env_keeps_results_identical(self, capsys, monkeypatch):
        args = ("bench", "--algo", "a2", "--n", "150", "--i", "30", "--j", "30",
                "--trials", "8", "--seed-base", "5")
        _, sequential, _ = run_cli(capsys, *args)
        monkeypatch.setenv("MEDIOCRE_THREADS", "4")
        _, threaded, _ = run_cli(capsys, *args)
        assert sequential == threaded


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mediocre", "lower-bound", "--i", "1", "--j", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"
