"""The benchmark's required span names resolve to seqlab functions, the
README lists the config's sections, and every seqlab function serves a
command or a script.

Run as a script (``python tests/test_tooling.py DIR``), this file runs
every command and script in one process under a call profile and prints
the seqlab functions entered, as JSON; it imports seqlab only once the
profile is set, so functions that run at import count too.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
SRC = ROOT / "src" / "seqlab"


def _required_spans() -> dict:
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REQUIRED_SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no REQUIRED_SPANS in {WORKLOADS}")


SPANS = sorted({name for names in _required_spans().values() for name in names})


@pytest.mark.parametrize("span", SPANS)
def test_required_span_is_a_seqlab_function(span):
    module, *path = span.split(".")
    mod = importlib.import_module(f"seqlab.{module}")
    obj = mod
    for attr in path:
        obj = getattr(obj, attr, None)
        assert obj is not None, f"seqlab.{module} has no {'.'.join(path)}"
    # the bench traces functions defined in the module that names them
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, span


def test_readme_lists_the_config_sections():
    from seqlab.config import RunConfig

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"^Sections: (.*?)\.", text, re.M | re.S).group(1)
    sections, _, top = listed.partition("plus top-level")
    assert re.findall(r"`(\w+)`", sections) == [
        f.name for f in fields(RunConfig) if is_dataclass(f.default_factory)
    ]
    assert re.findall(r"`(\w+)`", top) == [
        f.name for f in fields(RunConfig) if not is_dataclass(f.default_factory)
    ]


# ---------------------------------------------------------------------------
# no code is reachable only from tests

# Functions that no command or script enters, kept on purpose:
ALLOWED_UNREACHED = {
    # the equality contract of a segment: == by value, arrays included,
    # and a hash that agrees with it
    "qcore.py:DriveSegment.__eq__",
    "qcore.py:DriveSegment.__hash__",
    # the JSON fallback for numpy scalars in a payload
    "io.py:_json_default",
}

_COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def _function_key(code) -> str | None:
    """file:qualname:line of a function or lambda of src/seqlab, else None."""
    path = Path(code.co_filename)
    if path.parent != SRC or code.co_name in _COMPREHENSIONS:
        return None
    if not code.co_flags & inspect.CO_OPTIMIZED:  # a module or class body
        return None
    return f"{path.name}:{code.co_qualname}:{code.co_firstlineno}"


def _defined_functions() -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if inspect.iscode(c)]
            found.add(_function_key(code))
    return found - {None}


SCAN_VARIANTS = (
    "",
    "interaction.p2 = 0.1\ninteraction.v_int = 1MHz\n",
    "scan.gap = 20ns\n",
    "dissipation.gamma_decay_1 = 0.1MHz\ndissipation.gamma_deph_2 = 0.2MHz\n",
    "scan.t_mu2 = 0ns\n",
)

SEQUENCE_WITH_A_WAIT = """\
pulse mu1 area=0.5pi duration=20ns
wait 30ns
readout bin=1
pulse mu1 rabi=12.5MHz detuning=0.1MHz phase=0.5pi duration=40ns
readout bin=2
"""


def _traffic(tmp: Path) -> None:
    """Every command, over its backends, modes, formats and error exits,
    and every script, in this process; AssertionError on a wrong exit code."""
    from seqlab import cli

    def run(*argv, config=None, code=0):
        args = list(argv)
        if config is not None:
            cfg = tmp / "run.cfg"
            cfg.write_text(config, encoding="utf-8")
            args += ["--config", str(cfg)]
        assert cli.main(args) == code, args

    scan = "scan.points = 11\nscan.t_mu1 = 100ns\nscan.i0 = 2\nseed = 7\n"
    for backend in ("analytic", "unitary", "lindblad"):
        for variant in SCAN_VARIANTS:
            for fmt in ("csv", "json"):
                run("ramsey-scan", "--backend", backend, "--format", fmt,
                    config=scan + variant)
    run("ramsey-scan", config=scan + "scan.backend = unitary\noutput.format = json\n")
    scan_csv = tmp / "scan.csv"
    run("ramsey-scan", "--out", str(scan_csv), config=scan)
    run("fit", "--in", str(scan_csv), config=scan)
    run("fit", "--in", str(scan_csv), "--format", "csv", config="fit.t_total_hint = 450ns\n")
    for fmt in ("csv", "json"):
        run("rabi-scan", "--format", fmt, config="rabi.points = 9\nrabi.t_max = 80ns\n")
    seq = tmp / "wait.seq"
    seq.write_text(SEQUENCE_WITH_A_WAIT, encoding="utf-8")
    run("readout", "--seq", str(ROOT / "sequences" / "ramsey_readout.seq"))
    run("readout", "--seq", str(seq), "--format", "json", "--out", str(tmp / "bins.json"),
        config="readout.eta_2 = 0.9\nreadout.deph = 1MHz\n")
    shots = "shots.n_trials = 2000\n"
    for g2 in ("", "g2.mode = mixture\ninteraction.p2 = 0.2\nshots.dark_rate = 0.01\n",
               "g2.mode = coherent\ng2.bin = 2\nshots.mean_photons = 2\nshots.dark_rate = 0.01\n"):
        for fmt in ("csv", "json"):
            run("g2", "--seed", "3", "--format", fmt, config=shots + g2)

    run("--help")
    run(code=2)
    run("ramsey-scan", config="scan.nope = 1\n", code=2)
    run("ramsey-scan", config="scan.points = 4\n", code=2)
    run("ramsey-scan", "--config", str(tmp / "missing.cfg"), code=2)
    run("readout", code=2)
    bad_seq = tmp / "bad.seq"
    bad_seq.write_text("pulse mu3 rabi=1MHz duration=1ns\n", encoding="utf-8")
    run("readout", "--seq", str(bad_seq), code=2)
    run("fit", code=2)
    run("fit", "--in", str(bad_seq), code=2)
    run("g2", config=shots + "g2.bin = 2\n", code=3)

    for script, args in (
        ("fringe_demo.py", []),
        ("readout_dephasing.py", []),
        ("visibility_curve.py", []),
        ("visibility_curve.py",
         ["--backend", "lindblad", "--points", "3", "--gamma-deph-2-mhz", "1"]),
    ):
        path = ROOT / "scripts" / script
        argv, sys.argv = sys.argv, [str(path), *args]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_every_seqlab_function_serves_a_command_or_script(tmp_path):
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    entered = set(json.loads(proc.stdout))
    defined = _defined_functions()
    assert ALLOWED_UNREACHED <= {key.rsplit(":", 1)[0] for key in defined}
    unreached = sorted(
        key for key in defined - entered
        if key.rsplit(":", 1)[0] not in ALLOWED_UNREACHED
    )
    assert not unreached, "reached only from tests, or from nothing"


if __name__ == "__main__":
    entered = set()

    def _profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(_profile)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        _traffic(Path(sys.argv[1]))
    sys.setprofile(None)
    print(json.dumps(sorted({_function_key(code) for code in entered} - {None})))
