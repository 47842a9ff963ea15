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
    if script == "energy_table.py":
        # E[phi] diverges for iterlog k=1, alpha=0.4 at n=2, but E[F] is
        # finite: its row prints the K integral and the MC estimate
        row = next(line for line in done.stdout.splitlines()
                   if "alpha=0.4" in line).split()
        assert row[1:3] == ["divergent", "divergent"] and row[4] == "divergent"
        assert abs(float(row[3]) - 3.121393) <= 1e-5
        assert abs(float(row[5]) - float(row[3])) <= 5 * float(row[6].lstrip("+-"))
