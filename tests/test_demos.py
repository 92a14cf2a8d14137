"""The demos run to completion against the current library API.

Demo 03 takes about 8 s: it draws 20000 states of the transposition walk,
40 steps apart, next to the sequential sampler.  Demo 05 takes about 5 s,
most of it drawing 111000 cycle types for the plug-in estimate; it drives
both ``tv_exact`` and ``tv_empirical``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "01_exact_counting.py",
        "02_dickman_numerics.py",
        "03_samplers.py",
        "04_event_identities.py",
        "05_poisson_distance.py",
        "06_bound_assembly.py",
    ],
)
def test_demo_exits_zero(script, src_env):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=src_env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
