"""The benchmark's result line is strict JSON with every metric a finite number.

``benchmarks/test_benchmark.py`` lets a metric be ``null`` (a count whose
source is gone); a consumer that wants a number per metric does not.  This
runs each workload in both modes as a user would, in a child process: the
reflect-sweep workload, whose rows all go through the CLI's column writers;
the lz-sweep workload, the one whose TDSE oracle feeds a count that can go
``null``; and the oracle-check workload, whose Numerov metrics are split by
barrier family.  Each run is made in a directory of its own under the
test's ``tmp_path``, with this checkout's ``src/`` beside its benchmark,
so the traced runs' span files do not land in the checkout.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _run_dir(dest):
    sys.path.insert(0, str(TOOLS))
    try:
        import bench_rounds
    finally:
        sys.path.pop(0)
    return bench_rounds.run_dir(ROOT / "src", dest)


def _reject(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _check_result_line(workload, trace, where):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--size", "small", "--seconds", "1", "--trace", trace],
        cwd=_run_dir(where), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject)
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
    assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_reflect_sweep_result_line_is_finite(trace, tmp_path):
    _check_result_line("reflect-sweep", trace, tmp_path)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_lz_sweep_result_line_is_finite(trace, tmp_path):
    _check_result_line("lz-sweep", trace, tmp_path)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_oracle_check_result_line_is_finite(trace, tmp_path):
    _check_result_line("oracle-check", trace, tmp_path)
