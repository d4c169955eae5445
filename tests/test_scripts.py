"""The example scripts: each runs to completion on its defaults, prints
pinned bytes, and exits with the command's code on a bad argument."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the scripts; modules whose name starts with "_" are their shared helpers
SCRIPTS = sorted(p for p in (ROOT / "scripts").glob("*.py") if not p.name.startswith("_"))

# sha256 of stdout, taken when the scripts called the library directly; the
# propagated ones re-taken once the closed spaces went block by block and
# expm's Pade coefficients were scaled to b_0 = 2.  Without a rate the
# Lindblad backend walks the unitary backend's pure state, so its pin is
# the unitary one (test_visibility_curve_lindblad_backend_follows_the_law
# compares the bytes themselves).
# readout_dephasing.py's is of its table, without the line it printed first.
# fringe_demo.py's is of its times read as the nearest double of "<t>ns".
_UNITARY_VISIBILITY = "d2b0197f9527b7965338c201f84a1ad57feea4a99485bc9849b385c79c57cf5e"
STDOUT_SHA256 = {
    ("fringe_demo.py",): "ec46b26f444eda7afd1246660a3f951fc1c73d99fdcfdc8c643cc16ae7f3562d",
    ("visibility_curve.py",):
        "91d34d779e02fa5dcbb9d7555b71d484686212f66c5d00f7e5fc5b8f31d2598f",
    ("visibility_curve.py", "--backend", "unitary"): _UNITARY_VISIBILITY,
    ("visibility_curve.py", "--backend", "lindblad"): _UNITARY_VISIBILITY,
    ("readout_dephasing.py",):
        "d5223876aa6ca24a5f765252c22eca507616135c2c394bc1a94d77355580cd56",
}


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


@pytest.mark.parametrize("argv", STDOUT_SHA256, ids=" ".join)
def test_script_stdout_bytes_are_pinned(argv):
    proc = _run(ROOT / "scripts" / argv[0], *argv[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_script_bad_argument_exits_with_the_config_diagnostic():
    proc = _run(ROOT / "scripts" / "fringe_demo.py", "--points", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "scan.points" in proc.stderr


def test_visibility_curve_lindblad_backend_follows_the_law():
    proc = _run(ROOT / "scripts" / "visibility_curve.py", "--backend", "lindblad")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 25
    # zero rates: the exact master equation lands on the closed-form law,
    # as the pure state of the unitary backend, to the byte
    assert max(abs(float(row.split()[-1])) for row in rows) <= 1e-12
    unitary = _run(ROOT / "scripts" / "visibility_curve.py", "--backend", "unitary")
    assert unitary.returncode == 0, unitary.stderr
    assert proc.stdout == unitary.stdout
