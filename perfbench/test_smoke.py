"""Smoke test of the benchmark: every workload briefly, in both modes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from spans import HOOKS, Tracer, installed  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in spec] == list(result["metrics"])
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_hook_target_is_reported_not_fatal() -> None:
    cli = types.SimpleNamespace(_EXACT={"mom": lambda buffer, k, cmp: buffer[0]})
    package = types.SimpleNamespace(cli=cli)
    missing: dict[str, str] = {}
    with installed(Tracer(type("Comparator", (), {})), package, missing):
        assert cli._EXACT["mom"]([7], 1, None) == 7
    assert "exact.mom" not in missing
    assert set(missing) == {name for _, _, name in HOOKS} - {"exact.mom"}
    assert cli._EXACT["mom"].__name__ == "<lambda>"
