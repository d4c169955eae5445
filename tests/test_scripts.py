"""Smoke test: every example script runs to completion on its defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run(script, *args):
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_exits_0(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr


def test_visibility_curve_lindblad_backend_follows_the_law():
    proc = _run(ROOT / "scripts" / "visibility_curve.py", "--backend", "lindblad")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 25
    # zero rates: the exact master equation lands on the closed-form law
    assert max(abs(float(row.split()[-1])) for row in rows) <= 1e-12
