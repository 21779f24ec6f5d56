"""Smoke test: the quick demos run to completion against the package, and
the lines that show a result print as they should.

benchmark_2d_comparison.py and scheduler_early_freedom.py take tens of
seconds each and are left to manual runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Lines each demo must print verbatim: the tightened half-width of the band
# |a.x| <= sqrt(b) below, at and above the radius where it collapses.
PINNED = {
    "tightening_walkthrough.py": [
        "quadratic (a.x1)^2 <= b at t=0.6, n=0.5: critical b = 0.251084",
        "  b = 0.5*crit (below critical): inactive this step",
        "  b = 1.0*crit (   at critical): |a.x_t| <= 0.000000",
        "  b = 2.0*crit (above critical): |a.x_t| <= 0.124533",
    ],
    "reaction_diffusion_recovery.py": [],
}


@pytest.mark.parametrize("demo", ["tightening_walkthrough.py",
                                  "reaction_diffusion_recovery.py"])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for line in PINNED[demo]:
        assert line in lines
