"""Smoke test: every demo runs to completion against the package, and the
lines that show a result print as they should."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Lines each demo must print verbatim: the tightened half-width of the band
# |a.x| <= sqrt(b) below, at and above the radius where it collapses; the
# constraint count and the pathwise ccfm row of the reaction-diffusion
# recovery; the ccfm and repeated rows of the head-to-head table; the default
# and the slowest schedule of the movement table.
PINNED = {
    "tightening_walkthrough.py": [
        "quadratic (a.x1)^2 <= b at t=0.6, n=0.5: critical b = 0.251084",
        "  b = 0.5*crit (below critical): inactive this step",
        "  b = 1.0*crit (   at critical): |a.x_t| <= 0.000000",
        "  b = 2.0*crit (above critical): |a.x_t| <= 0.124533",
    ],
    "reaction_diffusion_recovery.py": [
        "constraints: 16 initial-condition bands + 18 mass-balance faces, tolerance 1e-10",
        "ccfm/pathwise      0.0106     0.0092    0.00e+00    4.99e-14",
    ],
    "benchmark_2d_comparison.py": [
        "repeated     100.0%      0.3320      0.9674",
        "ccfm         100.0%      0.1950      0.3490",
    ],
    "scheduler_early_freedom.py": [
        "  0.50   step   0       56 of 100      |*+*#%@#=.           |     0.1950",
        "  4.00   step  30       30 of 100      |        .:+#@*. ....|     0.4658",
    ],
}


@pytest.mark.parametrize("demo", sorted(PINNED))
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
