"""`tools/trace_cli.py` reports layers on stderr and leaves a command's stdout as it was."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["verify", "cone-table-a3", "quivers/a3.quiver"]


def test_trace_cli_keeps_stdout_and_reports_layers():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    plain = subprocess.run([sys.executable, "-m", "clusterchar.cli", *ARGS], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=300)
    traced = subprocess.run([sys.executable, "tools/trace_cli.py", *ARGS], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert any(line.split()[:1] == ["replab.decompose"] for line in traced.stderr.splitlines())
