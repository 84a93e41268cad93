import subprocess
import sys

import pytest

import mediocre.cli as cli
from mediocre.cli import main


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
        code, _, err = run_cli(capsys, "run", "--algo", "hyper", "--n", "24", "--i", "2", "--j", "15", "--seed", "1")
        assert code == 2
        assert "--g is required" in err

    def test_parameter_error_names_inequality(self, capsys):
        code, _, err = run_cli(capsys, "run", "--algo", "yao", "--n", "3", "--i", "2", "--j", "2", "--seed", "1")
        assert code == 2
        assert "i + j + 1 <= n" in err

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
        code, _, err = run_cli(
            capsys, "bench", "--algo", "yao", "--n", "10", "--i", "1", "--j", "1",
            "--trials", "0",
        )
        assert code == 2
        assert "trials >= 1" in err

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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mediocre", "lower-bound", "--i", "1", "--j", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"
