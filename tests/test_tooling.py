"""The benchmark's required span names resolve to seqlab functions, the
README lists the config's sections, the package version is the project's,
and every seqlab function, defaulted parameter and dataclass field serves
a command or a script.

Run as a script (``python tests/test_tooling.py DIR``), this file runs
every command and script in one process under a call profile and prints,
as JSON, the seqlab functions entered, their defaulted parameters, the
parameters some call gave a non-default value and the dataclass fields
that seqlab or script code read; it imports seqlab only once the profile
is set, so functions that run at import count too.
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

import numpy as np
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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs tomllib")
def test_package_version_is_the_project_version():
    import tomllib

    import seqlab

    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert seqlab.__version__ == tomllib.load(fh)["project"]["version"]


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


def _module_objects() -> list:
    """The objects that the modules of src/seqlab define at top level."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "seqlab" if path.stem == "__init__" else f"seqlab.{path.stem}"
        found += [
            obj for obj in vars(importlib.import_module(name)).values()
            if getattr(obj, "__module__", None) == name
        ]
    return found


def _defaulted_parameters() -> dict:
    """code -> ((name, default), ...) of every function and method defined
    in src/seqlab that has defaulted parameters.  A dataclass's generated
    ``__init__`` is compiled from a string, not from src/seqlab, so the
    field defaults are out of reach of this guard."""
    found = {}
    functions = []
    for obj in _module_objects():
        if inspect.isclass(obj):  # methods, static and class methods too
            functions += [getattr(v, "__func__", v) for v in vars(obj).values()]
        else:
            functions.append(obj)
    for fn in functions:
        if not inspect.isfunction(fn) or _function_key(fn.__code__) is None:
            continue
        params = inspect.signature(fn).parameters.values()
        defaults = tuple((p.name, p.default) for p in params if p.default is not p.empty)
        if defaults:
            found[fn.__code__] = defaults
    return found


def _dataclasses() -> list[type]:
    """The dataclasses defined in src/seqlab."""
    return [obj for obj in _module_objects() if inspect.isclass(obj) and is_dataclass(obj)]


def _record_field_reads(cls: type, read: set, readers: tuple[str, ...]) -> None:
    """Make cls add Class.field to read whenever code in a file under one of
    the readers directories reads one of its fields, except in the class's
    own __post_init__, __eq__ and __hash__, which only check or compare
    the value.  A NamedTuple's fields are tuple items, read by index or
    unpacking as often as by name, so they are out of reach of this guard."""
    names = {f.name for f in fields(cls)}
    own = {f"{cls.__qualname__}.{m}" for m in ("__post_init__", "__eq__", "__hash__")}
    get = cls.__getattribute__

    def __getattribute__(self, name):
        if name in names:
            code = sys._getframe(1).f_code
            reader = code.co_qualname.split(".<locals>")[0]
            if code.co_filename.startswith(readers) and reader not in own:
                read.add(f"{cls.__qualname__}.{name}")
        return get(self, name)

    cls.__getattribute__ = __getattribute__


def _differs(value, default) -> bool:
    """value is neither the default object nor equal to it; an array
    always differs."""
    if value is default:
        return False
    if isinstance(value, np.ndarray) or isinstance(default, np.ndarray):
        return True
    try:
        return bool(value != default)
    except (TypeError, ValueError):  # e.g. a tuple that holds arrays
        return True


def _parameter_key(code, name: str) -> str:
    return f"{_function_key(code).rsplit(':', 1)[0]}({name})"


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
    rabi = "rabi.points = 9\nrabi.t_max = 80ns\n"
    run("rabi-scan", "--format", "csv", config=rabi)
    run("rabi-scan", "--format", "json", config=rabi + "rabi.t_mu1 = 30ns\nrabi.detuning2 = 1MHz\n")
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
    run("ramsey-scan", "--backend", "lindblad",
        config=scan + "interaction.p2 = 0.5\ndissipation.gamma_decay_1 = 5MHz\n", code=2)
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


needs_qualname = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="needs code.co_qualname"
)


@pytest.fixture(scope="module")
def call_profile(tmp_path_factory) -> dict:
    """The JSON this file prints when run as a script over the traffic."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path_factory.mktemp("traffic"))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@needs_qualname
def test_every_seqlab_function_serves_a_command_or_script(call_profile):
    entered = set(call_profile["entered"])
    defined = _defined_functions()
    assert ALLOWED_UNREACHED <= {key.rsplit(":", 1)[0] for key in defined}
    unreached = sorted(
        key for key in defined - entered
        if key.rsplit(":", 1)[0] not in ALLOWED_UNREACHED
    )
    assert not unreached, "reached only from tests, or from nothing"


@needs_qualname
def test_every_defaulted_parameter_is_set_by_a_command_or_script(call_profile):
    unset = sorted(set(call_profile["defaulted"]) - set(call_profile["varied"]))
    assert not unset, "set only by tests, or by nothing"


@needs_qualname
def test_every_dataclass_field_is_read_by_a_command_or_script(call_profile):
    defined = {f"{cls.__qualname__}.{f.name}" for cls in _dataclasses() for f in fields(cls)}
    unread = sorted(defined - set(call_profile["fields_read"]))
    assert not unread, "read only by tests, or by nothing"


if __name__ == "__main__":
    entered, varied, defaults, at_import = set(), set(), {}, []
    src = f"{SRC}{os.sep}"

    def _judge(code, args) -> None:
        for name, default in defaults.get(code, ()):
            if _differs(args[name], default):
                varied.add((code, name))

    def _profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
            if defaults:
                _judge(frame.f_code, frame.f_locals)
            elif frame.f_code.co_filename.startswith(src):
                # seqlab is importing: judge the call once the defaults are known
                at_import.append((frame.f_code, dict(frame.f_locals)))

    sys.setprofile(_profile)
    defaults.update(_defaulted_parameters())
    for code, args in at_import:
        _judge(code, args)
    fields_read: set[str] = set()
    readers = (src, f"{ROOT / 'scripts'}{os.sep}")
    for cls in _dataclasses():
        _record_field_reads(cls, fields_read, readers)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        _traffic(Path(sys.argv[1]))
    sys.setprofile(None)
    print(json.dumps({
        "entered": sorted({_function_key(code) for code in entered} - {None}),
        "defaulted": sorted(
            _parameter_key(code, name) for code, params in defaults.items() for name, _ in params
        ),
        "varied": sorted(_parameter_key(code, name) for code, name in varied),
        "fields_read": sorted(fields_read),
    }))
