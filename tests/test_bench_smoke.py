"""Every benchmark workload runs end to end and reports its metrics.

For each workload BENCHMARK.json declares, one short ``--tiny`` run of the
harness, as the benchmark invokes it, must exit 0 and end with a result line
that is correct, has no failed operation, and names exactly the benchmark's
end-to-end metrics.  perfbench/smoke.py checks more, and takes longer.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_is_correct_and_reports_the_end_to_end_metrics(workload):
    cmd = [
        sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
