"""Smoke test: every narrative script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=300)


def test_demos_exist():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()


def test_spin_ensemble_runs_the_checked_command():
    """The spin-1/2 walk-through is ``phasegeo demo spin`` at p1 = 0.75 and 0.5, each checked against its closed form."""
    done = _run(ROOT / "demos" / "spin_ensemble.py")
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.count("reference values reproduced within 1e-10") == 2
