"""Self-test of the benchmark: a small run of every workload, both modes.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run(workload, trace):
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0",
                           "--trace", str(trace), "--size", "small"])
    info, result = run.run_workload(args)

    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        value = metric["value"]  # None marks a count whose source is gone
        assert value is None or (isinstance(value, (int, float)) and math.isfinite(value))
    assert tracer.wrapped_bindings() == []
    assert result["attempted"] == info["rows_per_pass"] * (
        1 + info["untraced_passes"] + info["traced_passes"]
    )
    assert result["failed"] == 0 and result["correct"]


def test_gate_counts_a_wrong_row():
    run.import_program()
    inv = workloads.make("oracle-check", 7, "small")[0]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sys.modules["semiref.cli"].main(list(inv.argv))
    rows = json.loads(out.getvalue())
    assert workloads.check(inv, code, out.getvalue(), "") == 0
    numerov = next(r for r in rows if r["method"] == "numerov")
    numerov["log_prob"] += 1e-4  # beyond the 1e-5 sech2 scattering tolerance
    assert workloads.check(inv, code, json.dumps(rows), "") == 1
    assert workloads.check(inv, 2, "", "error: bad flag") == inv.n_rows
