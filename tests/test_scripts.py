"""Smoke tests: the experiment scripts run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("modulus_sweep.py", ["--count", "16", "--radii", "log:1e-6..0.5:4"]),
    ("energy_table.py", ["--samples", "2000", "--tol", "1e-5"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
