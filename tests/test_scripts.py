"""The desk-scale driver script runs every experiment end to end."""
import ast
import subprocess
import sys
from pathlib import Path

from mixcara.harness import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_all_bounds.py"


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


def literal_assignment(path, name):
    """The literal value assigned to ``name`` at the top level of ``path``,
    read without importing the module."""
    (value,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return value


def test_benchmark_fast_trials_match_the_script():
    # importing perfbench/run.py would pin environment variables of this process
    bench = literal_assignment(ROOT / "perfbench" / "run.py", "HARNESS_FAST_TRIALS")
    assert bench == literal_assignment(SCRIPT, "FAST_TRIALS")
