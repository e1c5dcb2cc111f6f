"""The desk-scale driver script runs every experiment end to end."""
import subprocess
import sys
from pathlib import Path

from mixcara.harness import EXPERIMENTS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_all_bounds.py"


def test_run_all_bounds_fast(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPT), "--fast", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    held = [line for line in proc.stdout.splitlines() if line.split()[1:2] == ["held"]]
    assert [line.split()[0] for line in held] == list(EXPERIMENTS)
    expected = {f"{e}.{ext}" for e in EXPERIMENTS for ext in ("csv", "json")}
    assert {p.name for p in out.iterdir()} == expected
