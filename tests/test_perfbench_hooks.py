"""The benchmark's hook table names only attributes the package has.

perfbench/spans.py wraps mediocre attributes by name and reports a missing
one as an unmeasured layer, not as a failure, so a renamed or no longer
imported target would otherwise pass every test.  This guard goes when the
hook table does.
"""

import importlib.util
from pathlib import Path

import mediocre
import mediocre.cli  # noqa: F401  (the benchmark imports it; the hooks live there)
from mediocre.core import CountingComparator

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_hook_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing: dict[str, str] = {}
    with spans.installed(spans.Tracer(CountingComparator), mediocre, missing):
        pass
    assert missing == {}
