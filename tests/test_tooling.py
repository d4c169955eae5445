"""The benchmark's required span names resolve to seqlab functions, the
README lists the config's sections, the package version is the project's,
and every seqlab function, every line, every defaulted parameter and every
dataclass field serves a command or a script.

Run as a script (``python tests/test_tooling.py DIR``), this file runs
every command and script in one process under a call profile and a line
trace and prints, as JSON, the seqlab functions entered, the lines of
seqlab functions that ran, their defaulted parameters, the parameters
some call gave a non-default value and the dataclass fields that seqlab
or script code read; it imports seqlab only once the profile and the
trace are set, so code that runs at import counts too.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
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

_INVARIANT = "internal invariant: no input is known to break it"
_NON_FINITE_CELL = "a non-finite cell: every command raises on overflow, so none is emitted"

# Lines that no command or script runs, kept on purpose:
# (file:qualname, stripped line) -> why
ALLOWED_UNRUN = {
    ("dissipative.py:_validate_density",
     'raise NumericError("density matrix has non-finite entries")'): _INVARIANT,
    ("dissipative.py:_validate_density",
     'raise NumericError(f"hermiticity violated: max |rho - rho^+| = {herm:.3e}")'): _INVARIANT,
    ("dissipative.py:_validate_density",
     'raise NumericError(f"positivity violated: min eigenvalue {lo:.3e}")'): _INVARIANT,
    ("dissipative.py:expm", 'raise NumericError("generator has non-finite entries")'):
        "internal invariant: an overflowing generator raises before expm sees it",
    ("io.py:format_value", "return repr(float(v))"): _NON_FINITE_CELL,
    ("io.py:_table",
     'raise ValueError(f"table width {len(columns)} != header width {len(names)}")'):
        "internal invariant: every command gives one column per header field",
    ("io.py:_table", 'raise ValueError(f"columns differ in length: {sorted(lengths)}")'):
        "internal invariant: every command gives columns of one length",
    ("io.py:write_text", "except OSError:"): "the temp file was removed by another process",
    ("io.py:write_text", "pass"): "the temp file was removed by another process",
    ("photostats.py:TimeBinPopulations.__post_init__",
     'raise ValueError("bin probabilities must be finite and non-negative")'): _INVARIANT,
    ("photostats.py:TimeBinPopulations.__post_init__",
     'raise ValueError("bin probabilities exceed unity")'): _INVARIANT,
    ("photostats.py:fit_sinusoid", "except np.linalg.LinAlgError:"):
        "the damped normal matrix is positive definite: no scan is known to make it singular",
    ("photostats.py:fit_sinusoid", "break  # a singular system ends the fit unconverged"):
        "the damped normal matrix is positive definite: no scan is known to make it singular",
    ("ramsey.py:RamseyScanConfig.__post_init__",
     'raise ValueError("deltas must be strictly increasing")'):
        "a grid step underflows only past ~1.3e7 points (scan.points), too costly to run",
}

_COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def _line_key(code, line: int) -> str | None:
    """file:qualname:line of a line of a function, lambda or comprehension
    of src/seqlab, else None."""
    path = Path(code.co_filename)
    if path.parent != SRC or not code.co_flags & inspect.CO_OPTIMIZED:
        return None  # not seqlab, or a module or class body
    return f"{path.name}:{code.co_qualname}:{line}"


def _function_key(code) -> str | None:
    """file:qualname:line of a function or lambda of src/seqlab, else None."""
    if code.co_name in _COMPREHENSIONS:
        return None
    return _line_key(code, code.co_firstlineno)


def _code_objects():
    """(source lines of its file, code object) for every code object
    compiled from src/seqlab."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        todo = [compile(text, str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if inspect.iscode(c)]
            yield source, code


def _defined_functions() -> set[str]:
    return {_function_key(code) for _, code in _code_objects()} - {None}


def _executable_lines() -> dict[str, str]:
    """file:qualname:line -> stripped text, for every line that a function,
    lambda or comprehension of src/seqlab executes, its first line aside."""
    found = {}
    for source, code in _code_objects():
        for _, _, line in code.co_lines():
            key = _line_key(code, line) if line else None
            if key and line != code.co_firstlineno:
                found[key] = source[line - 1].strip()
    return found


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
    own __post_init__, which only checks the value.  A NamedTuple's fields are tuple items, read by index or
    unpacking as often as by name, so they are out of reach of this guard."""
    names = {f.name for f in fields(cls)}
    own = f"{cls.__qualname__}.__post_init__"
    get = cls.__getattribute__

    def __getattribute__(self, name):
        if name in names:
            code = sys._getframe(1).f_code
            reader = code.co_qualname.split(".<locals>")[0]
            if code.co_filename.startswith(readers) and reader != own:
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

# (sequence text, a piece of its diagnostic): every code of the parser
BAD_SEQUENCES = (
    ("", "[E_EMPTY]"),
    ("frobnicate", "unknown command 'frobnicate' [E_SYNTAX]"),
    ("pulse", "needs a field tag (mu1 or mu2) [E_SYNTAX]"),
    ("pulse mu1 rabi", "expected key=value, got 'rabi' [E_SYNTAX]"),
    ("pulse mu3 rabi=1MHz duration=1ns", "[E_UNKNOWN_FIELD]"),
    ("pulse mu1 foo=1 duration=1ns", "unknown key 'foo' [E_UNKNOWN_KEY]"),
    ("pulse mu1 rabi=1MHz rabi=2MHz duration=1ns", "[E_DUPLICATE_KEY]"),
    ("pulse mu1 rabi=xMHz duration=1ns", "expected a number [E_BAD_NUMBER]"),
    ("pulse mu1 rabi=1kHz duration=1ns", "[E_BAD_UNIT]"),
    ("pulse mu1 rabi=1e400MHz duration=1ns", "is out of range [E_BAD_NUMBER]"),
    ("pulse mu1 rabi=-1MHz duration=1ns", "rabi must be non-negative [E_BAD_NUMBER]"),
    ("pulse mu1 area=-1pi duration=1ns", "area must be non-negative [E_BAD_NUMBER]"),
    ("pulse mu1 area=1e300pi duration=1e-300ns", "s is out of range [E_BAD_NUMBER]"),
    ("pulse mu1 duration=1ns", "[E_MISSING_AMPLITUDE]"),
    ("pulse mu1 rabi=1MHz area=1pi duration=1ns", "[E_CONFLICTING_AMPLITUDE]"),
    ("pulse mu1 rabi=1MHz", "[E_MISSING_DURATION]"),
    ("pulse mu1 area=1pi", "[E_AREA_WITHOUT_DURATION]"),
    ("pulse mu1 rabi=1MHz duration=0ns", "[E_NONPOSITIVE_DURATION]"),
    ("wait", "wait takes exactly one duration [E_SYNTAX]"),
    ("wait 0ns", "[E_NONPOSITIVE_DURATION]"),
    ("readout", "readout takes exactly bin=<1|2|3> [E_SYNTAX]"),
    ("readout foo=1", "unknown key 'foo' [E_UNKNOWN_KEY]"),
    ("readout bin=4", "[E_BAD_BIN]"),
    ("readout bin=1\nreadout bin=1", "[E_DUPLICATE_BIN]"),
    ("readout bin=2\nreadout bin=1", "[E_BIN_ORDER]"),
)

# (config line, a piece of its diagnostic): every parse error of the config
BAD_CONFIGS = (
    ("scan.nope = 1", "unknown key 'scan.nope'"),
    ("scan.points 11", "expected key = value"),
    ("scan.i0 = abc", "bad number 'abc'"),
    ("scan.i0 = inf", "value must be finite"),
    ("scan.t_mu1 = 10kHz", "as unit suffix"),
    ("scan.points = 3.5", "bad integer '3.5'"),
    ("scan.backend = euler", "expected one of"),
    ("scan.points = 4", "must be an odd integer >= 3"),
)

_X = [float(k) for k in range(16)]
_FRINGE = [1.0 + 0.5 * math.cos(0.7 * x) for x in _X]

# (name, rows or text of a scan CSV, exit code, a piece of stderr):
# every path of fit --in
FIT_INPUTS = (
    ("fringe", [*zip(_X, _FRINGE)], 0, ""),  # converges on a step too small to move
    ("zero_offset", [(x, math.cos(0.7 * x)) for x in _X], 0, ""),
    ("faint", [(x, 1e-200 * y) for x, y in zip(_X, _FRINGE)], 0, ""),  # power underflows
    ("not_converged", [(x, float(5 * k * k % 6)) for k, x in enumerate(_X)], 0, ""),
    ("non_uniform", [(x * (x + 1) / 2, y) for x, y in zip(_X, _FRINGE)], 0, ""),
    ("flat", [(x, 0.25) for x in _X], 0, ""),
    ("short", [*zip(_X[:5], _FRINGE)], 2, "need at least 8 points"),
    ("decreasing", [*zip(_X[::-1], _FRINGE)], 2, "x must be strictly increasing"),
    ("one_row", "0.0,1.0\n", 2, "need at least two data rows"),
    ("wide", "0.0,1.0\n1.0,2.0,3.0\n", 2, "malformed row"),
    ("word", "0.0,abc\n1.0,2.0\n", 2, "could not convert string to float"),
    ("infinite", "0.0,inf\n1.0,2.0\n", 2, "data row 1 is not finite"),
)


def _traffic(tmp: Path) -> None:
    """Every command, over its backends, modes, formats, paths and error
    exits, and every script, over its own argument checks, in this process;
    AssertionError on a wrong exit code or diagnostic."""
    from seqlab import cli

    def run(*argv, config=None, code=0, err=None):
        args = list(argv)
        if config is not None:
            cfg = tmp / "run.cfg"
            cfg.write_text(config, encoding="utf-8")
            args += ["--config", str(cfg)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert cli.main(args) == code, args
        assert err is None or err in stderr.getvalue(), (args, stderr.getvalue())

    scan = "# a short scan\n\nscan.points = 11\nscan.t_mu1 = 100ns\nscan.i0 = 2\nseed = 7\n"
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
    run("fit", "--in", str(scan_csv), config="scan.t_mu1 = 1e308s\n", code=2,
        err="+ 2*scan.gap, which overflows")
    for name, rows, code, err in FIT_INPUTS:
        path = tmp / f"{name}.csv"
        if not isinstance(rows, str):
            rows = "".join(f"{x!r},{y!r}\n" for x, y in rows)
        path.write_text("delta_rad_s,intensity\n" + rows, encoding="utf-8")
        run("fit", "--in", str(path), code=code, err=err)
    rabi = "rabi.points = 9\nrabi.t_max = 80ns\n"
    run("rabi-scan", "--format", "csv", config=rabi)
    run("rabi-scan", "--format", "json", config=rabi + "rabi.t_mu1 = 30ns\nrabi.detuning2 = 1MHz\n")
    seq = tmp / "wait.seq"
    seq.write_text(SEQUENCE_WITH_A_WAIT, encoding="utf-8")
    canonical = str(ROOT / "sequences" / "ramsey_readout.seq")
    run("readout", "--seq", canonical)
    run("readout", "--seq", str(seq), "--format", "json", "--out", str(tmp / "bins.json"),
        config="readout.eta_2 = 0.9\nreadout.deph = 1MHz\n")
    seq.write_text("readout bin=1\n", encoding="utf-8")
    run("readout", "--seq", str(seq))
    for text, err in BAD_SEQUENCES:
        seq.write_text(text, encoding="utf-8")
        run("readout", "--seq", str(seq), code=2, err=err)
    (tmp / "dir").mkdir()
    run("readout", "--seq", canonical, "--out", str(tmp / "dir"), code=2, err="Is a directory")
    shots = "shots.n_trials = 2000\n"
    for g2 in ("", "g2.mode = mixture\ninteraction.p2 = 0.2\nshots.dark_rate = 0.01\n",
               "g2.mode = coherent\ng2.bin = 2\nshots.mean_photons = 2\nshots.dark_rate = 0.01\n"):
        for fmt in ("csv", "json"):
            run("g2", "--seed", "3", "--format", fmt, config=shots + g2)
    # records of a bin other than bin 1, where the doubles land
    run("g2", config=shots + "g2.mode = mixture\ng2.bin = 3\nshots.dark_rate = 0.01\n")
    run("g2", config=shots + "g2.mode = coherent\ng2.bin = 3\n")
    run("g2", config=shots + "g2.bin = 2\n", code=3, err="g2 undefined")
    run("g2", config="g2.mode = coherent\nshots.n_trials = 10\nshots.mean_photons = 140000\n",
        code=2, err="overflows the int16 shot records")
    run("g2", config="g2.mode = coherent\nshots.n_trials = 10000000000000\n",
        code=3, err="out of memory")

    run("--help")
    run(code=2)
    for line, err in BAD_CONFIGS:
        run("ramsey-scan", config=line + "\n", code=2, err=err)
    run("ramsey-scan", "--config", str(tmp / "missing.cfg"), code=2)
    run("ramsey-scan", "--backend", "lindblad",
        config=scan + "interaction.p2 = 0.5\ndissipation.gamma_decay_1 = 5MHz\n", code=2)
    run("ramsey-scan", "--backend", "lindblad",
        config=scan + "dissipation.gamma_deph_2 = 1e300MHz\n", code=3, err="trace drifted")
    run("readout", code=2)
    run("fit", code=2)
    run("fit", "--in", str(seq), code=2, err="expected header")

    def script(name, *args, err=None):
        path = ROOT / "scripts" / name
        argv, sys.argv = sys.argv, [str(path), *args]
        try:
            runpy.run_path(str(path), run_name="__main__")
        except ValueError as exc:
            assert err is not None and err in str(exc), (name, args, exc)
        else:
            assert err is None, (name, args)
        finally:
            sys.argv = argv

    script("fringe_demo.py")
    script("fringe_demo.py", "--points", "4", err="points must be odd")
    script("fringe_demo.py", "--span-mhz", "0", err="span must be strictly positive")
    script("fringe_demo.py", "--t-mu1-ns", "0", err="t_mu1 must be strictly positive")
    script("fringe_demo.py", "--t-mu2-ns", "-1", err="must be non-negative")
    script("fringe_demo.py", "--t-mu1-ns", "1e-306", err="rabi must be finite")
    with np.errstate(all="ignore"):  # the closed form runs first, on an infinite time
        script("fringe_demo.py", "--t-mu2-ns", "inf", err="duration must be finite")
    script("readout_dephasing.py")
    script("readout_dephasing.py", "--rates-mhz", "-1", err="deph_between_bins must be")
    script("visibility_curve.py")
    script("visibility_curve.py",
           "--backend", "lindblad", "--points", "3", "--gamma-deph-2-mhz", "1")
    script("visibility_curve.py", "--gamma-deph-2-mhz", "-1", err="rates must be finite")


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
    unreached = sorted(_defined_functions() - set(call_profile["entered"]))
    assert not unreached, "reached only from tests, or from nothing"


@needs_qualname
def test_every_seqlab_line_serves_a_command_or_script(call_profile):
    ran = set(call_profile["ran"])
    lines = {key: (key.rsplit(":", 1)[0], text) for key, text in _executable_lines().items()}
    named = Counter(lines.values())
    unclear = [entry for entry in ALLOWED_UNRUN if named[entry] != 1]
    assert not unclear, "names no line, or several"
    unrun = {entry for key, entry in lines.items() if key not in ran}
    stale = sorted(set(ALLOWED_UNRUN) - unrun)
    assert not stale, "allowed to stay unrun, but runs or is gone"
    stray = sorted(unrun - set(ALLOWED_UNRUN))
    assert not stray, "run only by tests, or by nothing"


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

    ran: set = set()

    def _lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return _lines

    def _trace(frame, event, arg):
        return _lines if frame.f_code.co_filename.startswith(src) else None

    sys.setprofile(_profile)
    sys.settrace(_trace)
    defaults.update(_defaulted_parameters())
    for code, args in at_import:
        _judge(code, args)
    fields_read: set[str] = set()
    readers = (src, f"{ROOT / 'scripts'}{os.sep}")
    for cls in _dataclasses():
        _record_field_reads(cls, fields_read, readers)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        _traffic(Path(sys.argv[1]))
    sys.settrace(None)
    sys.setprofile(None)
    print(json.dumps({
        "ran": sorted(
            key for key in (_line_key(code, line) for code, line in ran) if key
        ),
        "entered": sorted({_function_key(code) for code in entered} - {None}),
        "defaulted": sorted(
            _parameter_key(code, name) for code, params in defaults.items() for name, _ in params
        ),
        "varied": sorted(_parameter_key(code, name) for code, name in varied),
        "fields_read": sorted(fields_read),
    }))
