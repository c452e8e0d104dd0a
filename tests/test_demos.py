"""The self-asserting demos under demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_every_demo_exits_cleanly(tmp_path):
    assert len(DEMOS) == 7
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              cwd=tmp_path, env=env, timeout=120)
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"
