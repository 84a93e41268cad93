"""Pass 0 of every benchmark workload at seed 1 prints the bytes pinned here.

The invocations come from perfbench/run.py's calls_for, loaded read-only, and
run through cli.main in process.  A change that moves a tally or any other
byte of the benchmark's output re-pins the workload's digest and says why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from doubles import run_cli

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# sha256 of the concatenated stdout of each workload's invocations
DIGESTS = {
    "median-lv": "957e7b4f5cfe3ca4fc1148acb9f0c1af132ab427944311d6c3c8ce6059007758",
    "skew-det": "eb1f9670faa2fa33200a7730344537f59e862762cc42d937313db20bee061470",
    "small-sweep": "2df0913289087afd594c7573d1888a7b0744d8702f557fba48962c43fce0ec6c",
}


def calls_for(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports spans.py by its bare name
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up there
    spec.loader.exec_module(run)
    return run.calls_for(workload, 1, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_0_at_seed_1_prints_the_pinned_bytes(monkeypatch, capsys, workload):
    monkeypatch.delenv("MEDIOCRE_THREADS", raising=False)  # as the benchmark runs
    out = []
    for call in calls_for(monkeypatch, workload):
        code, stdout, _ = run_cli(capsys, *call.argv)
        assert code == 0, call.argv
        out.append(stdout)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == DIGESTS[workload]
