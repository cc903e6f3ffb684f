"""The scripts in ``scripts/`` still run against the library.

They import ``diffhom`` by name, so a rename in the library would break them
without failing any other test.  Each runs at tiny caps in a fresh
interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, header", [
    ("census_sweep.py", "N,d,k,n,count"),
    ("theta_ranks.py", "N,d,theta,observed_rank,full_dimension"),
])
def test_script_runs_at_tiny_caps(script, header):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                          "--max-n", "1", "--max-d", "2"],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == header and len(lines) > 1
