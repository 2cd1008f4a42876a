import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_rows.py"


def compare(a, b, argvs_file):
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--seeds", "--argvs", str(argvs_file)],
        capture_output=True, text=True, check=False,
    )


def test_compare_rows_names_the_command_line_that_differs(tmp_path):
    argvs = tmp_path / "argvs.txt"
    argvs.write_text(
        "# comments and blank lines are skipped\n"
        "semiref reflect --model sech2 --emin 1 --methods closed\n"
        "\n"
        "lz --T 2 --eps 1 --methods closed --format json\n"
    )
    same = compare(ROOT, ROOT, argvs)
    assert (same.returncode, same.stdout) == (0, "2/2 command lines identical\n"), same.stderr

    # JSON cells are printed with repr, so only the CSV row changes.
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "semiref", copy / "src" / "semiref",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "src" / "semiref" / "cli.py"
    assert '".12g"' in cli.read_text()
    cli.write_text(cli.read_text().replace('".12g"', '".11g"'))
    differ = compare(ROOT, copy, argvs)
    assert differ.returncode == 1, differ.stderr
    lines = differ.stdout.splitlines()
    assert lines[0] == "differs: semiref reflect --model sech2 --emin 1 --methods closed"
    assert lines[1] == "  stdout line 2:"
    # The closed form's err_estimate is 0, so its move is inf times that.
    move = lines[4].split()
    assert move[:5] == ["log_prob", "moves", "by", "at", "most"]
    assert 0.0 < float(move[5].rstrip(",")) <= 1e-10
    assert move[6:] == ["inf", "times", "its", "err_estimate"]
    assert lines[-1] == "1/2 command lines identical"


def test_compare_rows_replays_config_files_and_names_the_written_file_that_differs(tmp_path):
    # The *.toml files beside the argvs file are copied into each run's
    # directory; the files a line writes there are its result too.
    argvs = tmp_path / "argvs.txt"
    argvs.write_text(
        "semiref reflect --config run.toml\n"
        "semiref reflect --model sech2 --emin 1 --methods closed\n"
    )
    (tmp_path / "run.toml").write_text(
        'model = "sech2"\nemin = 1\nmethods = "closed"\nout = "rows.csv"\n')
    same = compare(ROOT, ROOT, argvs)
    assert (same.returncode, same.stdout) == (0, "2/2 command lines identical\n"), same.stderr

    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "semiref", copy / "src" / "semiref",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "src" / "semiref" / "cli.py"
    assert cli.read_text().count("handle.write(text)") == 1
    cli.write_text(cli.read_text().replace("handle.write(text)", 'handle.write(text + "#\\n")'))
    differ = compare(ROOT, copy, argvs)
    assert differ.returncode == 1, differ.stderr
    assert differ.stdout.splitlines() == [
        "differs: semiref reflect --config run.toml",
        "  file 'rows.csv' line 3:",
        "    A: <end>",
        "    B: '#\\n'",
        "1/2 command lines identical",
    ]
