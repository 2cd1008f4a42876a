"""Time semiref trees against each other in alternating benchmark rounds.

    python3 tools/bench_rounds.py A B [C ...] --out BENCH_<n>.json
        [--labels parent change ...] [--workloads W ...] [--seeds 83 ...]
        [--pairs 10] [--seconds 25] [--size full]

A, B, ... are each a directory that holds ``src/semiref`` or a git revision
of this repository (``compare_rows.tree_src``).  Each tree gets a run
directory of its own: its ``src/`` beside this checkout's ``benchmarks/``
and ``BENCHMARK.json``, so the trees differ only in the program.  A no-op
control, labelled ``control``, is built from the last tree: its ``src/``
with one never-called function appended to ``semiref/wkb_reflection.py``.
It moves the code layout only, so its distance from the last tree is what
layout alone does to the timings.

Each round runs ``benchmarks/run.py --trace 0`` once per tree, workload and
seed, the trees of a workload back to back in an order rotated by one each
round (with A B and the control: A B C, B C A, C A B, ...), so every tree
meets the same spells of a shared host.  After the rounds, one
``benchmarks/run.py --trace 1`` run per tree, workload and seed records
where the time goes (``traced``).

The output file holds every run's end-to-end metrics; per workload, seed,
tree and metric the median and quartiles; and for each tree after the
first, per metric, in how many rounds it did better than the first tree
(``wins``), whether the medians lie further apart, in its favour, than
the first tree's interquartile range (``clear``), and whether both make a
gain: at least nine tenths of the rounds won and ``clear`` (``holds``); and
for the control, per metric, its median over the last tree's, less one
(``layout_shift``).
"Better" is each metric's direction in ``BENCHMARK.json``.  Exits 2 if a
tree cannot be read or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_rows import ROOT, fail, tree_src  # noqa: E402

_IGNORE = shutil.ignore_patterns("__pycache__", ".bench_out")
CONTROL = "control"
_NOOP = '\n\ndef _unused_control():\n    """Never called: moves the code layout only."""\n    return None\n'


def run_dir(src: Path, dest: Path) -> Path:
    """``dest`` holding ``src`` beside this checkout's benchmark."""
    shutil.copytree(src, dest / "src", ignore=_IGNORE)
    shutil.copytree(ROOT / "benchmarks", dest / "benchmarks", ignore=_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def control_dir(run: Path, dest: Path) -> Path:
    """A copy of the run directory ``run`` with the no-op function added."""
    shutil.copytree(run, dest, ignore=_IGNORE)
    with open(dest / "src" / "semiref" / "wkb_reflection.py", "a") as module:
        module.write(_NOOP)
    return dest


def describe(tree: str) -> str:
    """A directory as given; a revision as its commit's short hash."""
    if (Path(tree) / "src" / "semiref").is_dir():
        return tree
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", tree],
                          capture_output=True, text=True, check=True).stdout.strip()


def bench(where: Path, workload: str, seed: int, args, trace: int) -> dict:
    """The result line of one ``run.py`` run in ``where``."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--size", args.size, "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=where, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        fail(f"{' '.join(argv[1:])} in {where} exited {proc.returncode}:\n"
             f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], labels: list[str], metrics: dict) -> dict:
    """Per workload, seed, tree and metric: median, quartiles and, against
    the first tree, wins, whether the gap clears its quartile range, and
    whether the two together make a gain (wins in 9/10 of the rounds)."""
    summary: dict = {}
    for run in runs:
        summary.setdefault(run["workload"], {}).setdefault(str(run["seed"]), {})
    for workload, seeds in summary.items():
        for seed in seeds:
            mine = [r for r in runs if (r["workload"], str(r["seed"])) == (workload, seed)]
            by_arm = {label: sorted((r for r in mine if r["arm"] == label),
                                    key=lambda r: r["round"]) for label in labels}
            for label in labels:
                stats = {}
                for name, better in metrics.items():
                    values = [r[name] for r in by_arm[label]]
                    q1, median, q3 = quartiles(values)
                    stats[name] = {"median": median, "q1": q1, "q3": q3}
                    if label == labels[0]:
                        continue
                    sign = 1.0 if better == "lower" else -1.0
                    base = [r[name] for r in by_arm[labels[0]]]
                    b_q1, b_median, b_q3 = quartiles(base)
                    stats[name]["wins"] = sum(sign * (b - x) > 0 for b, x in zip(base, values))
                    stats[name]["clear"] = sign * (b_median - median) > b_q3 - b_q1
                    stats[name]["holds"] = (stats[name]["wins"] >= 0.9 * min(len(base), len(values))
                                            and stats[name]["clear"])
                seeds[seed][label] = stats
    return summary


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+",
                        help="directories holding src/semiref, or git revisions; the first "
                             "is the one the others are compared with")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--labels", nargs="+", help="a name per tree (default: the trees)")
    parser.add_argument("--workloads", nargs="+",
                        default=["reflect-sweep", "oracle-check", "lz-sweep"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[83])
    parser.add_argument("--pairs", type=int, default=10, help="rounds (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="run.py --seconds (default %(default)s)")
    parser.add_argument("--size", default="full", help="run.py --size (default %(default)s)")
    args = parser.parse_args(argv)
    if len(args.trees) < 2:
        parser.error("give at least two trees")
    args.labels = args.labels or args.trees
    if (len(args.labels) != len(args.trees) or len(set(args.labels)) != len(args.labels)
            or CONTROL in args.labels):
        parser.error(f"give one distinct label per tree, none of them {CONTROL!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs, traced = [], []
    with tempfile.TemporaryDirectory(prefix="bench-rounds-") as tmp:
        scratch = Path(tmp)
        dirs = [run_dir(tree_src(tree, scratch), scratch / f"arm-{i}")
                for i, tree in enumerate(args.trees)]
        dirs.append(control_dir(dirs[-1], scratch / "arm-control"))
        arms = list(zip(args.labels + [CONTROL], dirs))
        for rnd in range(args.pairs):
            order = arms[rnd % len(arms):] + arms[: rnd % len(arms)]
            for seed in args.seeds:
                for workload in args.workloads:
                    for label, where in order:
                        result = bench(where, workload, seed, args, trace=0)
                        runs.append({
                            "round": rnd, "arm": label, "workload": workload, "seed": seed,
                            **{name: m["value"] for name, m in result["metrics"].items()},
                            "failed": result["failed"], "attempted": result["attempted"],
                        })
                        print(f"round {rnd} {workload} seed {seed} {label}: sweep_s "
                              f"{runs[-1]['sweep_s']:.4g}", file=sys.stderr)
        for seed in args.seeds:
            for workload in args.workloads:
                for label, where in arms:
                    result = bench(where, workload, seed, args, trace=1)
                    traced.append({
                        "arm": label, "workload": workload, "seed": seed,
                        "metrics": {n: m["value"] for n, m in result["metrics"].items()},
                    })
    out = {
        "what": (f"{args.pairs} alternating rounds of benchmarks/run.py --seconds "
                 f"{args.seconds:g} --size {args.size} --trace 0 per workload and seed, "
                 "then one --trace 1 run each; every tree runs this checkout's benchmarks/"),
        "machine": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "processor": platform.processor() or platform.machine(),
            "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        },
        "trees": {
            **dict(zip(args.labels, map(describe, args.trees))),
            CONTROL: f"{describe(args.trees[-1])} plus a never-called function at the end "
                     "of semiref/wkb_reflection.py",
        },
        "runs": runs,
        "summary": summarize(runs, args.labels + [CONTROL], metrics),
        "traced": traced,
    }
    for seeds in out["summary"].values():
        for by_label in seeds.values():
            for name, stats in by_label[CONTROL].items():
                source = by_label[args.labels[-1]][name]["median"]
                stats["layout_shift"] = stats["median"] / source - 1 if source else None
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, seeds in out["summary"].items():
        for seed, by_label in seeds.items():
            for label, stats in by_label.items():
                s = stats["sweep_s"]
                extra = (f"  wins {s['wins']}/{args.pairs} clear {s['clear']} holds {s['holds']}"
                         if "wins" in s else "")
                if label == CONTROL and s["layout_shift"] is not None:
                    extra += f"  layout_shift {s['layout_shift']:+.1%}"
                print(f"{workload:<14} seed {seed:<4} {label:<10} sweep_s median "
                      f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
