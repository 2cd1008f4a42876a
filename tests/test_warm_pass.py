import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "warm_pass.py"


def test_warm_pass_prints_median_time_and_faults_per_workload_and_seed():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--size", "small", "--passes", "2", "--seeds", "1", "2"],
        capture_output=True, text=True, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = re.compile(r"(\S+) seed (\d+): median pass (\S+) s, (\S+) minor page faults "
                      r"\(2 passes\)")
    printed = [line.fullmatch(text) for text in proc.stdout.splitlines()]
    assert all(printed), proc.stdout
    assert [(m[1], int(m[2])) for m in printed] == [
        (name, seed) for name in ("reflect-sweep", "oracle-check", "lz-sweep") for seed in (1, 2)]
    assert all(float(m[3]) > 0.0 and float(m[4]) >= 0.0 for m in printed)
