import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_rounds.py"


def bench_rounds(*argv):
    return subprocess.run([sys.executable, str(TOOL), *map(str, argv)],
                          capture_output=True, text=True, check=False, timeout=300)


def test_one_round_writes_runs_quartiles_wins_control_and_traces(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = bench_rounds(ROOT, ROOT, "--labels", "before", "after", "--workloads", "lz-sweep",
                        "--seeds", "1", "--pairs", "1", "--seconds", "0.2", "--size", "small",
                        "--out", out)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(out.read_text())
    labels = ("before", "after", "control")
    assert [(r["round"], r["arm"], r["workload"], r["seed"]) for r in result["runs"]] == [
        (0, label, "lz-sweep", 1) for label in labels]
    assert all(r["ok_share"] == 1.0 and r["failed"] == 0 for r in result["runs"])
    assert result["trees"]["control"].startswith(result["trees"]["after"] + " plus ")
    arms = result["summary"]["lz-sweep"]["1"]
    for label, run in zip(labels, result["runs"]):
        stats = arms[label]["sweep_s"]
        assert stats["q1"] == stats["median"] == stats["q3"] == run["sweep_s"]
    assert "wins" not in arms["before"]["sweep_s"]
    before, after, control = (r["sweep_s"] for r in result["runs"])
    stats = arms["after"]["sweep_s"]
    assert stats["wins"] == int(after < before)
    assert stats["clear"] == bool(stats["wins"])  # a single run has no quartile range
    assert f"wins {stats['wins']}/1" in proc.stdout
    assert arms["control"]["sweep_s"]["layout_shift"] == control / after - 1
    assert "layout_shift" not in arms["after"]["sweep_s"]
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    lines = proc.stdout.splitlines()
    for name, bound in bounds.items():
        # One line per metric: every tree's median, the later trees' wins,
        # holds and change beside the bound, and the control's layout shift.
        line, = (x for x in lines if x.split()[:4] == ["lz-sweep", "seed", "1", name])
        base = arms["before"][name]["median"]
        for label in ("after", "control"):
            stats = arms[label][name]
            assert stats["bound"] == bound
            assert stats["change"] == (stats["median"] / base - 1 if base else None)
            assert f"{label} {stats['median']:.4g} " in line
            assert f"holds {stats['holds']}" in line
        assert f"before {base:.4g} " in line
        assert "layout_shift" in line
    assert [(t["arm"], t["workload"], t["seed"]) for t in result["traced"]] == [
        (label, "lz-sweep", 1) for label in labels]
    for traced in result["traced"]:
        assert traced["metrics"]["landau_zener.evolve_tdse.calls"] > 0
        assert traced["metrics"]["landau_zener.evolve_tdse.self_s"] > 0


def test_control_differs_from_its_tree_by_one_unused_function(tmp_path):
    sys.path.insert(0, str(TOOL.parent))
    try:
        import bench_rounds
    finally:
        sys.path.pop(0)
    run = bench_rounds.run_dir(ROOT / "src", tmp_path / "run")
    control = bench_rounds.control_dir(run, tmp_path / "control")
    module = "src/semiref/wkb_reflection.py"
    before, after = (where.joinpath(module).read_text() for where in (run, control))
    assert after == before + bench_rounds._NOOP
    namespace = {}
    exec(bench_rounds._NOOP, namespace)
    assert namespace["_unused_control"]() is None
    others = sorted(str(f.relative_to(run)) for f in run.rglob("*") if f.is_file())
    assert others == sorted(str(f.relative_to(control)) for f in control.rglob("*")
                            if f.is_file())
    for name in others:
        if name != module:
            assert (run / name).read_bytes() == (control / name).read_bytes(), name


def test_control_label_is_taken(tmp_path):
    proc = bench_rounds(ROOT, ROOT, "--labels", "a", "control", "--out", tmp_path / "B.json")
    assert proc.returncode == 2
    assert "none of them 'control'" in proc.stderr


def test_unknown_tree_exits_2(tmp_path):
    proc = bench_rounds(ROOT, "no-such-revision", "--pairs", "1", "--out", tmp_path / "B.json")
    assert proc.returncode == 2
    assert "neither a directory" in proc.stderr
    assert not (tmp_path / "B.json").exists()


def _summarize(*args):
    sys.path.insert(0, str(TOOL.parent))
    try:
        import bench_rounds
    finally:
        sys.path.pop(0)
    return bench_rounds.summarize(*args)


def _synthetic_runs(parent, change):
    """One run per round of each arm on one workload and seed, with these
    sweep_s values."""
    return [{"round": rnd, "arm": arm, "workload": "w", "seed": 1, "sweep_s": value}
            for arm, values in (("parent", parent), ("change", change))
            for rnd, value in enumerate(values)]


def test_summary_holds_only_with_nine_tenths_of_the_wins_and_a_clear_gap():
    # The parent's median is 1.05 and its quartiles 1.0125 and 1.0875: a
    # change's median of 0.8 clears that range, one of 0.99 does not.
    parent = [1.0, 1.0, 1.0, 1.05, 1.05, 1.05, 1.05, 1.1, 1.1, 1.1]
    cases = {
        "ten wins": ([0.8] * 10, 10, True, True),
        "nine wins": ([1.2] + [0.8] * 9, 9, True, True),
        "eight wins": ([1.2, 1.2] + [0.8] * 8, 8, True, False),
        "ten wins inside the quartiles": ([0.99] * 10, 10, False, False),
    }
    for case, (change, wins, clear, holds) in cases.items():
        stats = _summarize(_synthetic_runs(parent, change), ["parent", "change"],
                           {"sweep_s": "lower"})["w"]["1"]
        assert "holds" not in stats["parent"]["sweep_s"], case
        assert (stats["change"]["sweep_s"]["wins"], stats["change"]["sweep_s"]["clear"],
                stats["change"]["sweep_s"]["holds"]) == (wins, clear, holds), case


def test_summary_counts_higher_is_better_metrics_the_other_way():
    parent = [0.9] * 5 + [0.95] * 5
    runs = _synthetic_runs(parent, [1.0] * 10)
    for run in runs:
        run["ok_share"] = run.pop("sweep_s")
    stats = _summarize(runs, ["parent", "change"], {"ok_share": "higher"})["w"]["1"]
    assert stats["change"]["ok_share"]["wins"] == 10
    assert stats["change"]["ok_share"]["holds"] is True
