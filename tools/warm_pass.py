"""Time warm in-process passes of the benchmark's workloads, with their page faults.

    python3 tools/warm_pass.py [TREE] [--seeds 83 7 11] [--passes 15] [--size full]

TREE is a directory that holds ``src/semiref`` or a git revision of this
repository (``compare_rows.tree_src``); the default is this checkout.  Per
workload and seed, one child process imports ``semiref.cli`` from TREE and
runs ``main`` in process on every argv that ``benchmarks/workloads.make``
builds, in order, as one pass: 2 warm-up passes, then ``--passes`` timed
ones.  Prints, per workload and seed, the median wall time of a pass and
the median number of minor page faults it took (``resource.getrusage``):
a warm pass that reuses its memory takes none.  Exits 2 if the tree cannot
be read or a child fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_rows import ROOT, fail, tree_src  # noqa: E402

sys.path.insert(0, str(ROOT / "benchmarks"))
import workloads  # noqa: E402

sys.path.pop(0)

WARM_UP = 2

# Runs in the child: argv[1] is the tree's src/, argv[2] the number of
# passes, warm-ups included, and argv[3] the number of warm-ups; stdin holds
# the argvs as JSON.  Prints the timed passes' (seconds, minor page faults)
# as JSON.
_CHILD = """
import io, json, resource, sys, time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

src, passes, warm = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
argvs = json.load(sys.stdin)
sys.path.insert(0, src)
import semiref.cli

where = Path(semiref.cli.__file__).resolve().parent
if where != (Path(src) / "semiref").resolve():
    sys.exit(f"imported semiref from {where}, not {src}")
measured = []
for _ in range(passes):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in argvs:
            semiref.cli.main(list(argv))
    seconds = time.perf_counter() - start
    measured.append((seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
print(json.dumps(measured[warm:]))
"""


def warm_passes(src: Path, argvs: list[list[str]], passes: int) -> list[list]:
    """(seconds, minor page faults) of each timed pass over ``argvs`` under
    ``src``, after the warm-up passes."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(WARM_UP + passes), str(WARM_UP)],
        input=json.dumps(argvs), capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        fail(f"the run under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT),
                        help="directory holding src/semiref, or a git revision "
                             "(default: this checkout)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[83, 7, 11])
    parser.add_argument("--passes", type=int, default=15,
                        help="timed passes after the warm-up (default %(default)s)")
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'small' is the self-test size")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    with tempfile.TemporaryDirectory(prefix="warm-pass-") as tmp:
        src = tree_src(args.tree, Path(tmp))
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                argvs = [list(inv.argv) for inv in workloads.make(name, seed, args.size)]
                times, faults = zip(*warm_passes(src, argvs, args.passes))
                print(f"{name} seed {seed}: median pass {statistics.median(times):.4f} s, "
                      f"{statistics.median(faults):g} minor page faults "
                      f"({args.passes} passes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
