"""Compare what two semiref trees print for the same command lines.

    python3 tools/compare_rows.py A B [--seeds 83 7] [--argvs FILE]

A and B are each a directory that holds ``src/semiref`` or a git revision
of this repository (its ``src/`` is extracted with ``git archive``).  The
command lines are every workload argv that ``benchmarks/workloads.make``
builds at each seed, then each line of FILE (shell words, an optional
leading ``semiref``; blank lines and ``#`` comments are skipped).

For each tree one child process imports ``semiref.cli`` from that tree
and runs ``main`` in process on every command line, in order, in a
working directory seeded with copies of the ``*.toml`` files beside FILE,
so a line may name one with ``--config``.  The exit code, stdout, stderr
and the files each run leaves in that directory (name and text; they are
removed before the next line) are compared.  Prints how many command
lines give identical results and, for each one that does not, the command
line and its first differing line or file.  Where the two runs agree in
exit code, stderr and files and print the same rows (CSV or JSON, the
same in every column but log_prob, prob and err_estimate), it also prints
how far log_prob moves at most, absolutely and relative to the row's
err_estimate in A.  Exits 1 if any differs, 2 if a tree cannot be read or
run, else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in the child: argv[1] is the tree's src/, argv[2] a JSON file of
# command lines, argv[3] the file the (code, stdout, stderr, files) list
# goes to.  The files are the (name, text) pairs of the files a command
# line leaves in the working directory beside the seeded ones.
_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

src, argvs_path, out_path = sys.argv[1:4]
sys.path.insert(0, src)
import semiref.cli

where = Path(semiref.cli.__file__).resolve().parent
if where != (Path(src) / "semiref").resolve():
    sys.exit(f"imported semiref from {where}, not {src}")
seeded = {path.name for path in Path.cwd().iterdir()}
results = []
for argv in json.loads(Path(argvs_path).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = semiref.cli.main(argv)
    left = sorted(path for path in Path.cwd().iterdir() if path.name not in seeded)
    files = [(path.name, path.read_text()) for path in left]
    for path in left:
        path.unlink()
    results.append((code, out.getvalue(), err.getvalue(), files))
Path(out_path).write_text(json.dumps(results))
"""


def fail(message: str):
    print(message, file=sys.stderr)
    sys.exit(2)


def workload_argvs(seeds: list[int]) -> list[list[str]]:
    """Every workload's argvs at each seed, from this checkout's benchmark."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [
        list(inv.argv)
        for seed in seeds
        for name in workloads.WORKLOADS
        for inv in workloads.make(name, seed)
    ]


def file_argvs(path: Path) -> list[list[str]]:
    argvs = []
    for line in path.read_text().splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["semiref"]:
            words = words[1:]
        if words:
            argvs.append(words)
    return argvs


def tree_src(spec: str, scratch: Path) -> Path:
    """The ``src`` directory of ``spec``: a directory, else a git revision."""
    if (Path(spec) / "src" / "semiref").is_dir():
        return Path(spec).resolve() / "src"
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", spec, "src"],
        capture_output=True, check=False,
    )
    if archive.returncode != 0:
        fail(f"{spec!r} is neither a directory holding src/semiref nor a "
             f"revision: {archive.stderr.decode().strip()}")
    dest = Path(tempfile.mkdtemp(prefix="tree-", dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_tree(src: Path, argvs_file: Path, scratch: Path, configs: list[Path]) -> list[tuple]:
    """(exit code, stdout, stderr, files written) of each command line, run
    under ``src`` in a directory seeded with copies of ``configs``."""
    run = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    out, workdir = run / "rows.json", run / "cwd"
    workdir.mkdir()
    for config in configs:
        shutil.copy(config, workdir)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(argvs_file), str(out)],
        cwd=workdir, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        fail(f"the run under {src} failed:\n{proc.stderr}")
    return [(code, stdout, stderr, tuple(map(tuple, files)))
            for code, stdout, stderr, files in json.loads(out.read_text())]


def first_difference(a: tuple, b: tuple) -> str:
    """Where two differing (exit code, stdout, stderr, files) results first
    differ: the exit code, a stream's line, or the first file by name."""
    if a[0] != b[0]:
        return f"exit code {a[0]} != {b[0]}"
    if a[1] != b[1]:
        return line_difference("stdout", a[1], b[1])
    if a[2] != b[2]:
        return line_difference("stderr", a[2], b[2])
    files_a, files_b = dict(a[3]), dict(b[3])
    name = min(n for n in files_a.keys() | files_b.keys() if files_a.get(n) != files_b.get(n))
    if name not in files_b or name not in files_a:
        return f"file {name!r} written by {'A' if name in files_a else 'B'} only"
    return line_difference(f"file {name!r}", files_a[name], files_b[name])


def line_difference(where: str, x: str, y: str) -> str:
    """The first line at which two differing texts differ."""
    lines_a, lines_b = x.splitlines(keepends=True), y.splitlines(keepends=True)
    i = next((i for i, pair in enumerate(zip(lines_a, lines_b)) if pair[0] != pair[1]),
             min(len(lines_a), len(lines_b)))
    la = repr(lines_a[i]) if i < len(lines_a) else "<end>"
    lb = repr(lines_b[i]) if i < len(lines_b) else "<end>"
    return f"{where} line {i + 1}:\n    A: {la}\n    B: {lb}"


_VALUES = ("log_prob", "prob", "err_estimate")  # the columns a route computes


def parse_rows(text: str) -> list[dict] | None:
    """The rows of a CLI's CSV or JSON output, or None if it holds none."""
    try:
        rows = json.loads(text)
    except ValueError:
        rows = list(csv.DictReader(io.StringIO(text)))
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, dict) and set(_VALUES) <= row.keys() for row in rows)):
        return None
    return rows


def _number(cell) -> float:
    """A CSV or JSON cell as a float; JSON's null is nan."""
    return math.nan if cell is None else float(cell)


def log_prob_moves(a: tuple, b: tuple) -> tuple[float, float] | None:
    """(largest |Delta log_prob|, largest |Delta log_prob| / err_estimate)
    over the rows of two (exit code, stdout, stderr, files) results that
    agree but for the values of the same rows in stdout, else None.  A
    value that turns nan, or any move of a row with no positive
    err_estimate, is infinitely far."""
    if a[0] != b[0] or a[2] != b[2] or a[3] != b[3]:
        return None
    rows_a, rows_b = parse_rows(a[1]), parse_rows(b[1])
    if rows_a is None or rows_b is None or len(rows_a) != len(rows_b):
        return None
    largest = ratio = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        if row_a.keys() != row_b.keys() or any(
                row_a[k] != row_b[k] for k in row_a if k not in _VALUES):
            return None
        x, y = _number(row_a["log_prob"]), _number(row_b["log_prob"])
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        move = abs(x - y) if not math.isnan(x - y) else math.inf
        err = _number(row_a["err_estimate"])
        largest = max(largest, move)
        ratio = max(ratio, move / err if err > 0.0 else math.inf)
    return largest, ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="directory holding src/semiref, or a git revision")
    parser.add_argument("b", help="directory holding src/semiref, or a git revision")
    parser.add_argument("--seeds", type=int, nargs="*", default=[83, 7],
                        help="workload seeds (default %(default)s; none for no workloads)")
    parser.add_argument("--argvs", type=Path, help="file of extra command lines")
    args = parser.parse_args(argv)

    argvs, configs = workload_argvs(args.seeds), []
    if args.argvs is not None:
        argvs += file_argvs(args.argvs)
        configs = sorted(args.argvs.parent.glob("*.toml"))
    with tempfile.TemporaryDirectory(prefix="compare-rows-") as tmp:
        scratch = Path(tmp)
        argvs_file = scratch / "argvs.json"
        argvs_file.write_text(json.dumps(argvs))
        a = run_tree(tree_src(args.a, scratch), argvs_file, scratch, configs)
        b = run_tree(tree_src(args.b, scratch), argvs_file, scratch, configs)
    differ = [(argv, x, y) for argv, x, y in zip(argvs, a, b) if x != y]
    for argv, x, y in differ:
        print(f"differs: semiref {shlex.join(argv)}\n  {first_difference(x, y)}")
        moves = log_prob_moves(x, y)
        if moves is not None:
            print(f"  log_prob moves by at most {moves[0]:.3g}, "
                  f"{moves[1]:.3g} times its err_estimate")
    print(f"{len(argvs) - len(differ)}/{len(argvs)} command lines identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
