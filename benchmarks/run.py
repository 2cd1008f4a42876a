"""semiref benchmark: seeded sweeps through ``semiref.cli.main``, in process.

Run from the repository root:

    python3 benchmarks/run.py --workload reflect-sweep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

A run of one workload, serially in this one process:

1. builds the workload's argv list from the seed (``workloads.py``) and
   imports semiref from ``src/`` of this checkout;
2. times ``import semiref.cli`` in fresh child interpreters (``setup_s``),
   or with ``--trace 1`` parses ``-X importtime`` of such children;
3. runs one untimed warm-up pass over every argv, then timed passes until
   ``--seconds`` have gone; with ``--trace 1`` the second half of that time
   runs traced passes (``tracer.py``); a fixed reference computation
   (``reference.py``) is timed before the first call and after each call,
   and ``sweep_s`` is each pass's call time in units of it, converted to
   seconds;
4. checks every row of every pass (``workloads.check``), outside the timed
   region.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` count rows, and ``metrics`` holds the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics (``--trace 1``).
``--workload all`` runs each workload in a child process and prints one
table.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; exit code 2."""


def load_definition() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _child_import(*flags: str) -> tuple[float, str]:
    """Wall time and stderr of a fresh interpreter running ``import semiref.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import semiref.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"import semiref.cli failed:\n{proc.stderr.strip()[-2000:]}")
    return elapsed, proc.stderr


def measure_setup() -> float:
    """Median wall time of ``import semiref.cli`` in a fresh interpreter.

    One untimed child first writes the bytecode caches, which users have."""
    _child_import()
    return statistics.median(_child_import()[0] for _ in range(SETUP_REPEATS))


def import_breakdown() -> dict[str, float]:
    """Median cumulative import times of numpy, scipy.integrate and semiref."""
    _child_import()
    samples = []
    for _ in range(SETUP_REPEATS):
        cumulative, semiref_s = {}, 0.0
        for line in _child_import("-X", "importtime")[1].splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name, seconds = fields[2].strip(), int(fields[1]) * 1e-6
            cumulative.setdefault(name, seconds)
            # Top-level lines only: a package's import nests inside the
            # import of its first submodule.
            if name.split(".")[0] == "semiref" and fields[2][:2] != "  ":
                semiref_s += seconds
        samples.append({
            "setup.import.numpy_s": cumulative.get("numpy", 0.0),
            "setup.import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
            "setup.import.semiref_s": semiref_s,
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def import_program():
    """Import semiref from this checkout's ``src/`` and nowhere else."""
    package = SRC / "semiref"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no semiref sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import semiref
    import semiref.cli

    if Path(semiref.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported semiref from {semiref.__file__}, not {package}")
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def run_pass(invocations, trace=None) -> tuple[list[float], list[float], int, float]:
    """Wall seconds of each CLI call, of the reference computation before the
    first call and after each call, failed rows, and seconds spent checking."""
    cli = sys.modules["semiref.cli"]
    outputs, times, refs = [], [], [reference.timed()]
    for i, inv in enumerate(invocations):
        if trace is not None:
            trace.invocation = i
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = cli.main(list(inv.argv))
            times.append(perf_counter() - start)
        refs.append(reference.timed())
        outputs.append((code, out.getvalue(), err.getvalue()))
    start = perf_counter()
    failed = sum(workloads.check(inv, *o) for inv, o in zip(invocations, outputs))
    return times, refs, failed, perf_counter() - start


def scaled_median(passes: list[tuple]) -> float:
    """Median over the passes of their call time at reference speed."""
    return statistics.median(reference.scaled_sweep(t, refs) for t, refs, _ in passes)


class Run:
    """Row counts, call times and check times of one workload run."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.rows_per_pass = sum(inv.n_rows for inv in invocations)
        self.attempted = 0
        self.failed = 0
        self.check_s: list[float] = []

    def one_pass(self, trace=None) -> tuple[list[float], list[float], object]:
        times, refs, failed, check_s = run_pass(self.invocations, trace)
        self.attempted += self.rows_per_pass
        self.failed += failed
        self.check_s.append(check_s)
        return times, refs, trace

    def passes(self, seconds: float, traced: bool = False) -> list[tuple]:
        """(call times, reference times, tracer or None) of each pass run in
        ``seconds``."""
        out = []
        start = perf_counter()
        while not out or perf_counter() - start < seconds:
            if traced:
                with tracer.Tracer() as trace:
                    out.append(self.one_pass(trace))
            else:
                out.append(self.one_pass())
        return out


def run_workload(args) -> tuple[dict, dict]:
    spec = load_definition()
    invocations = workloads.make(args.workload, args.seed, args.size)
    versions = import_program()
    if args.trace:
        setup = import_breakdown()
    else:
        setup_s = measure_setup()
    run = Run(invocations)
    run.one_pass()  # warm-up, untimed but checked

    if not args.trace:
        passes = run.passes(args.seconds)
        defs = {m["name"]: m for m in spec["end_to_end"]}
        values = {
            "sweep_s": scaled_median(passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - run.failed / run.attempted,
        }
    else:
        passes = run.passes(0.5 * args.seconds)
        traced = run.passes(0.5 * args.seconds, traced=True)
        if tracer.wrapped_bindings():
            raise BenchError(f"tracer left wrappers: {tracer.wrapped_bindings()}")
        # Per-layer values come from the fastest traced pass, so its self
        # times add up to its call time; counts are the same in every pass.
        times, _, trace = min(traced, key=lambda pass_: sum(pass_[0]))
        values = trace.layer_stats()
        values.update(setup)
        values.update({
            "trace.sweep_s": sum(times),
            "trace.overhead_s": scaled_median(traced) - scaled_median(passes),
            "trace.unattributed_s": sum(times) - values["trace.self_sum_s"],
            "bench.check_s": statistics.median(run.check_s),
        })
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv",
            [trace.spans for _, _, trace in traced],
        )
        defs = {m["name"]: m for m in spec["per_layer"]}
    missing = sorted(set(defs) - set(values))
    if missing:
        raise BenchError(f"no measurement for {missing}")
    metrics = {name: {"value": values[name], "unit": m["unit"]} for name, m in defs.items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "invocations": len(invocations),
        "rows_per_pass": run.rows_per_pass,
        "untraced_passes": len(passes),
        "traced_passes": len(traced) if args.trace else 0,
        "pass_s": {"median": statistics.median(sum(p[0]) for p in passes),
                   "max": max(sum(p[0]) for p in passes)},
        "ref_s": {"min": min(min(p[1]) for p in passes),
                  "median": statistics.median(r for p in passes for r in p[1])},
        "setup_samples": SETUP_REPEATS,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return info, result


def run_all(args) -> int:
    """Each workload in a child process of its own; one table of results."""
    print(f"{'workload':<14} {'metric':<14} {'value':>14}  unit")
    all_correct = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--size", args.size],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise BenchError(f"{workload} failed:\n{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("failed_share", result["failed"] / result["attempted"], "share"))
        for name, value, unit in rows:
            print(f"{workload:<14} {name:<14} {value:>14.6g}  {unit}")
        all_correct &= result["correct"]
    return 0 if all_correct else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'small' is the self-test size")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        info, result = run_workload(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
