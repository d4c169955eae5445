"""Command line: artifact formats, exit codes, determinism, diagnostics."""

import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqlab import cli
from seqlab import io as seqlab_io
from seqlab import pairwise
from seqlab.cli import RAMSEY_CSV_HEADER, _read_scan_csv, main
from seqlab.units import PLAIN, BadValue, read_value

CANONICAL = "sequences/ramsey_readout.seq"


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _table(csv: str) -> np.ndarray:
    return np.array(
        [[float(v) for v in ln.split(",")] for ln in csv.splitlines()[1:]]
    )


# ---------------------------------------------------------------- ramsey-scan

def test_ramsey_scan_csv_shape(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["ramsey-scan", "--out", str(out)]) == 0
    text = _read(out)
    lines = text.splitlines()
    assert lines[0] == "delta_rad_s,intensity"
    assert len(lines) == 202  # header + 201 grid points
    assert text.endswith("\n")
    table = _table(text)
    assert table[100, 0] == 0.0  # symmetric grid contains the exact center
    assert np.all(table[:, 1] >= 0.0)


def test_ramsey_scan_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["ramsey-scan", "--out", str(a)]) == 0
    assert main(["ramsey-scan", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ramsey_scan_json_mirrors_csv(tmp_path):
    csv_out, json_out = tmp_path / "scan.csv", tmp_path / "scan.json"
    assert main(["ramsey-scan", "--out", str(csv_out)]) == 0
    assert main(["ramsey-scan", "--out", str(json_out), "--format", "json"]) == 0
    rows = json.loads(_read(json_out))
    table = _table(_read(csv_out))
    assert len(rows) == 201
    assert [r["delta_rad_s"] for r in rows] == list(table[:, 0])
    assert [r["intensity"] for r in rows] == list(table[:, 1])


def test_ramsey_scan_backend_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.points = 21\n", encoding="utf-8")
    out = tmp_path / "u.csv"
    code = main(
        ["ramsey-scan", "--config", str(cfg), "--backend", "unitary",
         "--out", str(out)]
    )
    assert code == 0
    assert len(_read(out).splitlines()) == 22


def test_ramsey_scan_lindblad_backend(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.points = 5\nscan.backend = lindblad\n", encoding="utf-8")
    out = tmp_path / "l.csv"
    assert main(["ramsey-scan", "--config", str(cfg), "--out", str(out)]) == 0
    table = _table(_read(out))
    assert table.shape == (5, 2)
    assert np.all(np.isfinite(table))


@pytest.mark.parametrize("omega", ["5e-324MHz", "3e-324MHz"])
def test_lindblad_scan_at_a_subnormal_mu2_rabi(tmp_path, capsys, omega):
    # the mu2 generator's 1-norm is subnormal; expm once exited 2 with
    # "error: math domain error" where the unitary backend exited 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scan.omega_mu2 = {omega}\nscan.points = 3\n", encoding="utf-8")
    tables = {}
    for backend in ("lindblad", "unitary"):
        out = tmp_path / f"{backend}.csv"
        argv = ["ramsey-scan", "--backend", backend, "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        tables[backend] = _table(_read(out))
    assert np.abs(tables["lindblad"] - tables["unitary"]).max() <= 1e-12  # I0 = 1


@pytest.mark.parametrize(
    "key",
    [
        "integrator.method",
        "integrator.dt_max",
        "integrator.tolerance",
        "readout.pulse_mu1",
        "readout.pulse_mu2",
    ],
)
def test_removed_config_keys_exit_2(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scan.points = 5\n{key} = 1\n", encoding="utf-8")
    assert main(["ramsey-scan", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config line 2: unknown key {key!r}\n"


@pytest.mark.parametrize(
    "setting, rule",
    [
        ("scan.span = -5MHz", "must be positive"),
        ("scan.i0 = -1", "must be positive"),
        ("scan.gap = -10ns", "must be non-negative"),
        ("scan.omega_mu2 = -1MHz", "must be non-negative"),
        ("rabi.omega_mu2 = -1MHz", "must be non-negative"),
    ],
)
def test_out_of_range_scan_values_exit_2_under_every_command(tmp_path, capsys, setting, rule):
    # once accepted by every command but the one that used the value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scan.points = 5\n{setting}\n", encoding="utf-8")
    key = setting.split(" = ")[0]
    out = tmp_path / "out.csv"
    for command in ("ramsey-scan", "rabi-scan", "readout", "g2", "fit"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config line 2: {key}: {rule}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "backend, setting",
    [
        ("analytic", "scan.span = 1e300MHz"),  # once exit 0 with nan rows
        ("unitary", "scan.i0 = 1.7e308\ninteraction.p2 = 0.9"),  # once exit 0 with inf rows
        # with a rate, expm of the Liouvillian overflows; without one, see
        # test_zero_rate_lindblad_at_an_extreme_span_is_the_unitary_table
        pytest.param("lindblad", "scan.span = 1e300MHz\ndissipation.gamma_deph_2 = 0.1MHz",
                     id="lindblad-scan.span = 1e300MHz with dissipation.gamma_deph_2 = 0.1MHz"),
    ],
)
def test_overflow_exits_3_without_warnings(tmp_path, backend, setting):
    # in a child process, because pytest would capture the warnings itself
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scan.points = 11\nscan.t_mu1 = 100ns\n{setting}\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = ["ramsey-scan", "--backend", backend, "--config", str(cfg), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "seqlab.cli", *argv], capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": ""},
        timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert not out.exists()
    assert proc.stderr.startswith("numeric failure: overflow encountered in ")
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr


def test_zero_rate_lindblad_at_an_extreme_span_is_the_unitary_table(tmp_path):
    # once exit 3, "overflow encountered in matmul", from expm's squarings;
    # without a rate the walk is the unitary backend's own, and every row
    # away from resonance reads I0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.points = 11\nscan.t_mu1 = 100ns\nscan.span = 1e300MHz\n",
                   encoding="utf-8")
    tables = {}
    for backend in ("unitary", "lindblad"):
        out = tmp_path / f"{backend}.csv"
        assert main(["ramsey-scan", "--backend", backend, "--config", str(cfg),
                     "--out", str(out)]) == 0
        tables[backend] = _read(out)
    assert tables["lindblad"] == tables["unitary"]
    rows = [line.split(",") for line in tables["lindblad"].splitlines()[1:]]
    assert [i for d, i in rows if float(d) != 0.0] == ["1.0"] * 10


@pytest.mark.parametrize("backend", ["analytic", "unitary", "lindblad"])
def test_t_mu1_without_a_finite_pi_half_rabi_exits_2(tmp_path, capsys, backend):
    # 1e-300 ns: pi/(2 t_mu1) overflows; analytic once exited 0 with a fringe,
    # unitary and lindblad exited 2 with "error: rabi must be finite"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.points = 5\nscan.t_mu1 = 1e-300ns\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = ["ramsey-scan", "--backend", backend, "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config line 2: scan.t_mu1: must be positive, with pi/(2 t_mu1) finite\n"
    )
    assert not out.exists()


def test_trace_drift_message_quotes_a_plain_float(tmp_path, capsys):
    # the trace was once quoted as np.complex128(0j); 28 squarings of the
    # mu2 pulse's map leave this drift
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dissipation.gamma_deph_3 = 1e10MHz\nscan.points = 5\n", encoding="utf-8")
    assert main(["ramsey-scan", "--backend", "lindblad", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: at t=3.500e-07 s: trace drifted to 0.9999999763390982\n"
    )
    assert "np." not in captured.err


def test_trace_drift_message_shows_a_small_drift(tmp_path, capsys):
    # a drift of 1.4e-8, beyond TRACE_TOL, would read "1.000e+00" in a short format
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dissipation.gamma_decay_2 = 1e9MHz\nscan.points = 5\n", encoding="utf-8")
    assert main(["ramsey-scan", "--backend", "lindblad", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: at t=4.500e-07 s: trace drifted to 0.9999999860180872\n"
    )


@pytest.mark.parametrize("argv, gain, message", [
    (["ramsey-scan", "--backend", "unitary"], 1.0 + 1e-6,
     "at t=1.000e-07 s: trace drifted to 1.0000020000010001"),
    (["ramsey-scan", "--backend", "lindblad"], 1.0 + 1e-6,
     "at t=1.000e-07 s: trace drifted to 1.0000020000010001"),
    # the Rabi scan once exited 0 here, with P1 = P2 = 0.500002
    (["rabi-scan"], 1.0 + 1e-6, "at t=2.000e-08 s: trace drifted to 1.000002000001"),
    # the read-out once exited 0 on this loss, with bin 1 = 0.9253225619491585
    (["readout", "--seq", CANONICAL], 1.0 - 1e-6,
     "at t=2.000e-08 s: trace drifted to 0.9999980000009998"),
], ids=["unitary", "lindblad", "rabi-scan", "readout"])
def test_closed_scans_check_the_norm_after_every_segment(capsys, monkeypatch, argv, gain, message):
    # a propagator that gains or loses 1e-6 in amplitude: the closed walk,
    # of the unitary backend, of lindblad without a rate, of the Rabi scan
    # and of the read-out, exits 3 with the trace check's message at the
    # end of the first mu1 pulse; the read-out prints its budget line first
    from seqlab import qcore

    exact = qcore.hermitian_propagator
    for name, module in list(sys.modules.items()):
        if name.startswith("seqlab") and vars(module).get("hermitian_propagator") is exact:
            monkeypatch.setattr(
                module, "hermitian_propagator",
                lambda H, t, blocks: gain * exact(H, t, blocks),
            )
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[-1] == f"numeric failure: {message}"
    assert len(lines) == 1 + (argv[0] == "readout")


def test_the_pair_walk_checks_its_norm(tmp_path, capsys, monkeypatch):
    # the double branch of a mixture scan is norm-checked as the single
    # branch is: a pair propagator that gains 1e-3 in amplitude exits 3
    exact = pairwise.hermitian_propagator
    monkeypatch.setattr(
        pairwise, "hermitian_propagator",
        lambda H, t, blocks: (1.0 + 1e-3) * exact(H, t, blocks),
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("interaction.p2 = 0.3\n", encoding="utf-8")
    assert main(["ramsey-scan", "--backend", "unitary", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: at t=1.000e-07 s: trace drifted to 1.0020010000000013\n"
    )


@pytest.mark.parametrize(
    "setting, limit",
    [
        # R2 dephased at once: the mu1 pulses cannot move the excitation (Zeno)
        ("dissipation.gamma_deph_2 = 1e300MHz", 1.0),
        # R1 empties within 1e-18 s, before any pulse acts
        ("dissipation.gamma_decay_1 = 1e12MHz", 0.0),
    ],
)
def test_extreme_rates_reach_their_limits(tmp_path, capsys, setting, limit):
    # both once exited 3 with a trace drift: each squaring of expm's Pade
    # step carried the 1 - 2**-53 of a zero generator's diagonal
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{setting}\nscan.points = 5\n", encoding="utf-8")
    assert main(["ramsey-scan", "--backend", "lindblad", "--config", str(cfg)]) == 0
    table = _table(capsys.readouterr().out)
    assert np.abs(table[:, 1] - limit).max() <= 1e-30


@pytest.mark.parametrize("p2", [0.0, 0.5])
def test_zero_rate_lindblad_at_a_3s_pulse_stays_within_its_bound(tmp_path, capsys, p2):
    # once 1.0000000079162419 > I0 (1.50000000395812 > 1.5 I0 at p2 = 0.5),
    # exit 0, from the round-off of expm's squarings at |Lv| t ~ 1e8
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scan.t_mu1 = 3s\nscan.points = 5\ninteraction.p2 = {p2}\n",
                   encoding="utf-8")
    tables = {}
    for backend in ("unitary", "lindblad"):
        assert main(["ramsey-scan", "--backend", backend, "--config", str(cfg)]) == 0
        tables[backend] = _table(capsys.readouterr().out)
    intensity = tables["lindblad"][:, 1]
    assert intensity.min() >= 0.0 and intensity.max() <= 1.0 + p2  # (1 - p2) + 2 p2, I0 = 1
    assert np.abs(intensity - tables["unitary"][:, 1]).max() <= 1e-12


def test_zero_rate_lindblad_at_a_10ms_pulse_is_the_unitary_table(tmp_path, capsys):
    # once 1.0000000000000004 > I0 on the four rows off resonance, where the
    # unitary backend printed 1.0: the U kron conj(U) maps rounded otherwise
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.t_mu1 = 10ms\nscan.points = 5\n", encoding="utf-8")
    outputs = {}
    for backend in ("unitary", "lindblad"):
        assert main(["ramsey-scan", "--backend", backend, "--config", str(cfg)]) == 0
        outputs[backend] = capsys.readouterr().out
    assert outputs["lindblad"] == outputs["unitary"]
    rows = [line.split(",") for line in outputs["lindblad"].splitlines()[1:]]
    assert [i for d, i in rows if float(d) != 0.0] == ["1.0"] * 4


def test_lindblad_cli_path_imports_no_scipy(tmp_path):
    # scipy would double the memory and start-up of every CLI call, and it
    # is a test dependency only: no seqlab module may import it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.points = 3\ndissipation.gamma_decay_1 = 0.1MHz\n", encoding="utf-8")
    code = (
        "import importlib, pkgutil, sys\n"
        "from seqlab.cli import main\n"
        f"rc = main(['ramsey-scan', '--backend', 'lindblad', '--config', {str(cfg)!r},"
        f" '--out', {str(tmp_path / 'l.csv')!r}])\n"
        "assert rc == 0, rc\n"
        "import seqlab\n"
        "names = [m.name for m in pkgutil.iter_modules(seqlab.__path__)]\n"
        "assert 'dissipative' in names and 'cli' in names, names\n"
        "for name in names:\n"
        "    importlib.import_module('seqlab.' + name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": src, "PATH": ""}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ramsey_scan_mixture_path(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scan.points = 41\nscan.span = 7MHz\n"
        "interaction.p2 = 0.3\ninteraction.v_int = 0.1MHz\n",
        encoding="utf-8",
    )
    out = tmp_path / "m.csv"
    assert main(["ramsey-scan", "--config", str(cfg), "--out", str(out)]) == 0
    table = _table(_read(out))
    assert table.shape == (41, 2)
    assert np.all(table[:, 1] >= -1e-12)


MIXTURE_WITH_DECAY = (
    "scan.points = 5\ninteraction.p2 = 0.5\n"
    "dissipation.gamma_decay_1 = 5MHz\ndissipation.gamma_decay_2 = 5MHz\n"
    "dissipation.gamma_decay_3 = 5MHz\n"
)


def test_lindblad_mixture_scan_with_rates_exits_2(tmp_path, capsys):
    # the double branch has no dissipative model: this used to exit 0 with
    # a damped single branch mixed into an undamped double one
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MIXTURE_WITH_DECAY, encoding="utf-8")
    out = tmp_path / "m.csv"
    for extra in ([], ["--out", str(out)]):
        argv = ["ramsey-scan", "--backend", "lindblad", "--config", str(cfg), *extra]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: interaction.p2 = 0.5 with non-zero dissipation rates: the lindblad "
            "backend has no dissipative model of the double-excitation branch\n"
        )
    assert not out.exists()


@pytest.mark.parametrize("backend", ["analytic", "unitary"])
def test_closed_mixture_scans_ignore_rates(tmp_path, capsys, backend):
    cfg = tmp_path / "run.cfg"
    outputs = []
    for text in (MIXTURE_WITH_DECAY, "scan.points = 5\ninteraction.p2 = 0.5\n"):
        cfg.write_text(text, encoding="utf-8")
        assert main(["ramsey-scan", "--backend", backend, "--config", str(cfg)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("backend", ["analytic", "unitary", "lindblad"])
def test_ramsey_scan_ignores_v_int_at_p2_zero(tmp_path, capsys, backend):
    # one command path: at p2 = 0 the mixture scan is the single scan
    cfg = tmp_path / "run.cfg"
    outputs = []
    for extra in ("", "interaction.v_int = 1MHz\n"):
        cfg.write_text("scan.points = 11\n" + extra, encoding="utf-8")
        assert main(["ramsey-scan", "--backend", backend, "--config", str(cfg)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_format_priority_flag_over_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output.format = json\nscan.points = 5\n", encoding="utf-8")
    from_cfg, forced = tmp_path / "a.out", tmp_path / "b.out"
    assert main(["ramsey-scan", "--config", str(cfg), "--out", str(from_cfg)]) == 0
    assert _read(from_cfg).lstrip().startswith("[")
    code = main(
        ["ramsey-scan", "--config", str(cfg), "--out", str(forced),
         "--format", "csv"]
    )
    assert code == 0
    assert _read(forced).startswith("delta_rad_s,intensity\n")


@pytest.mark.parametrize(
    "command, flag, key, value, other",
    [
        ("ramsey-scan", "--backend", "scan.backend", "unitary", "analytic"),
        ("g2", "--seed", "seed", "7", "8"),
        ("ramsey-scan", "--format", "output.format", "json", "csv"),
    ],
)
def test_each_flag_sets_its_config_key(tmp_path, capsys, command, flag, key, value, other):
    # a flag gives the bytes of its key set in the config, and wins over it
    cfg = tmp_path / "run.cfg"

    def run(*argv, setting=""):
        base = "scan.points = 11\nshots.n_trials = 2000\ng2.mode = coherent\n"
        cfg.write_text(base + setting, encoding="utf-8")
        assert main([command, *argv, "--config", str(cfg)]) == 0
        return capsys.readouterr().out

    by_flag = run(flag, value)
    assert run(setting=f"{key} = {value}\n") == by_flag
    assert run(flag, value, setting=f"{key} = {other}\n") == by_flag
    assert run(setting=f"{key} = {other}\n") != by_flag


def test_stdout_when_no_out_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.points = 5\n", encoding="utf-8")
    assert main(["ramsey-scan", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("delta_rad_s,intensity\n")
    assert len(captured.out.splitlines()) == 6


# ------------------------------------------------------------------ rabi-scan

def test_rabi_scan_populations(tmp_path):
    out = tmp_path / "rabi.csv"
    assert main(["rabi-scan", "--out", str(out)]) == 0
    text = _read(out)
    assert text.splitlines()[0] == "t_mu2_s,P1,P2,P3"
    table = _table(text)
    assert table.shape == (81, 4)
    t, p1, p2, p3 = table.T
    # stored population is untouched by the mu2 drive
    assert np.abs(p1 - 0.5).max() <= 1e-9
    assert abs(p2[0] - 0.5) <= 1e-12 and abs(p3[0]) <= 1e-12
    # crossing at a quarter period (20 ns), full period at 80 ns
    i20 = int(np.argmin(np.abs(t - 20e-9)))
    assert abs(t[i20] - 20e-9) <= 1e-15
    assert abs(p2[i20] - p3[i20]) <= 1e-9
    assert abs(p2[i20] - 0.25) <= 1e-9
    i80 = int(np.argmin(np.abs(t - 80e-9)))
    assert abs(p2[i80] - 0.5) <= 1e-9 and abs(p3[i80]) <= 1e-9


def test_rabi_scan_json(tmp_path):
    out = tmp_path / "rabi.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rabi.points = 5\n", encoding="utf-8")
    code = main(
        ["rabi-scan", "--config", str(cfg), "--format", "json", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads(_read(out))
    assert len(rows) == 5
    assert set(rows[0]) == {"t_mu2_s", "P1", "P2", "P3"}


# -------------------------------------------------------------------- readout

def test_readout_canonical_sequence(tmp_path, capsys):
    out = tmp_path / "ro.csv"
    assert main(["readout", "--seq", CANONICAL, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("sequence ramsey_readout.seq: total duration ")
    assert "within budget" in err
    text = _read(out)
    lines = text.splitlines()
    assert lines[0] == "bin,probability"
    assert len(lines) == 4
    table = _table(text)
    assert list(table[:, 0]) == [1.0, 2.0, 3.0]
    assert table[0, 1] == 0.9253281139039624  # ideal retrieval of the canonical file
    # exact: R1 after pi/2, a 2pi*12.5 MHz mu2 pulse of 250 ns and pi/2 is (1 + cos(pi/8))^2 / 4
    assert abs(table[0, 1] - 0.92532811390396182) <= 1e-15
    assert np.all(table[:, 1] >= 0.0) and table[:, 1].sum() <= 1.0 + 1e-12


def test_readout_reports_budget_excess(tmp_path, capsys):
    seq = tmp_path / "slow.seq"
    seq.write_text("wait 1900ns\nreadout bin=1\n", encoding="utf-8")
    out = tmp_path / "ro.csv"
    assert main(["readout", "--seq", str(seq), "--out", str(out)]) == 0
    assert "EXCEEDS budget" in capsys.readouterr().err


def test_readout_of_a_read_out_only_sequence(tmp_path, capsys):
    # no drive: the stored excitation is read out of R1 whole
    seq = tmp_path / "only.seq"
    seq.write_text("readout bin=1\n", encoding="utf-8")
    assert main(["readout", "--seq", str(seq)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "bin,probability\n1,1.0\n2,0.0\n3,0.0\n"
    assert captured.err == (
        "sequence only.seq: total duration 0.0 s (budget 1.8e-06 s, within budget)\n"
    )


def test_out_naming_a_directory_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    assert main(["readout", "--seq", CANONICAL, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: [Errno 21] Is a directory: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
    assert not any(target.iterdir())


def test_empty_out_path_exits_2_and_makes_no_temp_file(tmp_path, capsys, monkeypatch):
    # an empty --out (say, an unset shell variable) is a missing file, as an
    # empty --config is: no temp file is made, beside the working directory
    # or anywhere else
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    made = []
    mkstemp = seqlab_io.tempfile.mkstemp
    monkeypatch.setattr(seqlab_io.tempfile, "mkstemp", lambda **kw: made.append(kw) or mkstemp(**kw))
    assert main(["ramsey-scan", "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"
    assert made == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
    assert not any(work.iterdir())


@pytest.mark.parametrize(
    "out, err",
    [
        ("missing/scan.csv", "error: [Errno 2] No such file or directory: 'missing/scan.csv'\n"),
        ("dir", "error: [Errno 21] Is a directory: 'dir'\n"),
        ("", "error: [Errno 2] No such file or directory: ''\n"),
    ],
    ids=["missing-directory", "directory", "empty"],
)
def test_bad_out_is_refused_before_the_command_runs(tmp_path, capsys, monkeypatch, out, err):
    # the scan never starts, and the diagnostic names the path as typed
    work = tmp_path / "work"
    (work / "dir").mkdir(parents=True)
    monkeypatch.chdir(work)

    def never(*args, **kwargs):
        raise AssertionError("the scan ran before --out was checked")

    monkeypatch.setattr(pairwise, "fringe_scan", never)
    assert main(["ramsey-scan", "--out", out]) == 2
    assert capsys.readouterr() == ("", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
    assert sorted(p.name for p in work.iterdir()) == ["dir"]
    assert not any((work / "dir").iterdir())


def test_a_failed_write_names_the_out_path(tmp_path, capsys):
    # a name too long for the file system passes the up-front check, and the
    # write's own diagnostic names it, not the temp file, which is removed
    name = "x" * 300 + ".csv"
    assert main(["rabi-scan", "--out", str(tmp_path / name)]) == 2
    code = errno.ENAMETOOLONG
    assert capsys.readouterr() == (
        "", f"error: [Errno {code}] {os.strerror(code)}: {str(tmp_path / name)!r}\n"
    )
    assert not any(tmp_path.iterdir())


def test_readout_requires_seq(capsys):
    assert main(["readout"]) == 2
    assert "requires --seq" in capsys.readouterr().err


def test_readout_parse_error_exits_2(tmp_path, capsys):
    seq = tmp_path / "bad.seq"
    seq.write_text("pulse mu3 rabi=1MHz duration=1ns\n", encoding="utf-8")
    assert main(["readout", "--seq", str(seq)]) == 2
    err = capsys.readouterr().err
    assert "line 1, column 7" in err and "E_UNKNOWN_FIELD" in err


def test_readout_underflowing_duration_exits_2(tmp_path, capsys):
    # 1e-320 ns is 0 s: a coded diagnostic, not a ZeroDivisionError
    seq = tmp_path / "tiny.seq"
    seq.write_text("pulse mu1 area=1pi duration=1e-320ns\nreadout bin=1\n", encoding="utf-8")
    assert main(["readout", "--seq", str(seq)]) == 2
    err = capsys.readouterr().err
    assert "line 1, column 29" in err and "E_NONPOSITIVE_DURATION" in err


def test_readout_missing_file_exits_2(tmp_path, capsys):
    assert main(["readout", "--seq", str(tmp_path / "nope.seq")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ------------------------------------------------------------------------- g2

def test_g2_antibunched_default(tmp_path):
    out = tmp_path / "g2.csv"
    assert main(["g2", "--out", str(out)]) == 0
    text = _read(out)
    assert text.splitlines()[0] == "g2,stderr,n_trials"
    assert text.splitlines()[1] == "0.0,0.0,100000"


def test_g2_deterministic_and_seed_sensitive(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "g2.mode = coherent\nshots.n_trials = 20000\n", encoding="utf-8"
    )
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["g2", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["g2", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["g2", "--config", str(cfg), "--seed", "7", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_g2_coherent_near_one(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "g2.mode = coherent\nshots.n_trials = 100000\nshots.mean_photons = 0.1\n",
        encoding="utf-8",
    )
    out = tmp_path / "g2.json"
    code = main(
        ["g2", "--config", str(cfg), "--format", "json", "--out", str(out)]
    )
    assert code == 0
    est = json.loads(_read(out))
    assert set(est) == {"g2", "stderr", "n_trials"}
    assert est["n_trials"] == 100000
    assert abs(est["g2"] - 1.0) <= 3.0 * est["stderr"]


def test_g2_coherent_many_photons_per_shot(tmp_path):
    # about 200 photons an arm, so na * nb is near 40 000 a trial
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "g2.mode = coherent\nshots.n_trials = 20000\nshots.mean_photons = 400\n",
        encoding="utf-8",
    )
    out = tmp_path / "g2.json"
    assert main(["g2", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    est = json.loads(_read(out))
    assert abs(est["g2"] - 1.0) <= 5.0 * est["stderr"]


def test_g2_counts_beyond_int16_exit_2(tmp_path, capsys):
    # the mean photon number is bounded by the config at the line that sets it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "g2.mode = coherent\nshots.n_trials = 20000\nshots.mean_photons = 140000\n",
        encoding="utf-8",
    )
    out = tmp_path / "g2.csv"
    assert main(["g2", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config line 3: shots.mean_photons: must be non-negative and at most 32767\n"
    )
    assert not out.exists()


def test_g2_seed_flag_meets_the_config_seed_bound(tmp_path, capsys):
    # the flag's value takes the bound of the config's seed key, and the
    # diagnostic names the flag
    out = tmp_path / "g2.csv"
    assert main(["g2", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("error: argument --seed: must be non-negative\n")
    assert main(["g2", "--seed", "1.5", "--out", str(out)]) == 2
    assert "error: argument --seed: bad integer '1.5'" in capsys.readouterr().err
    assert not out.exists()


def test_g2_mixture_recovers_closed_form(tmp_path):
    # p2 chosen so the two-photon mixture has g2 = 2 p2 / (1 + p2)^2 = 0.45
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "g2.mode = mixture\n"
        "interaction.p2 = 0.5194938532959157\n"
        "shots.n_trials = 400000\n",
        encoding="utf-8",
    )
    out = tmp_path / "g2.json"
    code = main(
        ["g2", "--config", str(cfg), "--seed", "11", "--format", "json",
         "--out", str(out)]
    )
    assert code == 0
    est = json.loads(_read(out))
    assert abs(est["g2"] - 0.45) <= 3.0 * est["stderr"]
    assert est["stderr"] < 0.005


def test_g2_undefined_exits_3(tmp_path, capsys):
    # a single antibunched trial puts its one click in one arm; the other
    # arm never fires and the estimator denominator vanishes
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots.n_trials = 1\n", encoding="utf-8")
    assert main(["g2", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


def test_g2_output_bytes_are_pinned(tmp_path):
    # data lines captured with numpy 2.4.6 once the samplers drew the
    # outcome histogram and the stderr came from the delta method; a change
    # to the draws moves both columns, a change to the stderr only its own
    cases = [
        ("g2.mode = mixture\ninteraction.p2 = 0.05\nshots.dark_rate = 0.001\n",
         "0.09436280568226474,0.0038881125521806406,20000"),
        ("g2.mode = coherent\nshots.mean_photons = 2.0\nshots.dark_rate = 0.01\n",
         "1.0184231604595957,0.007147234682663168,20000"),
        ("g2.mode = coherent\nshots.mean_photons = 400\n",
         "0.9999254533368432,3.5601576377252546e-05,20000"),
        ("g2.mode = mixture\ninteraction.p2 = 0.05\nshots.dark_rate = 0.001\n",
         "0.09413968334602754,0.002078501541299938,70001"),
        # off bin 1: dark clicks only
        ("g2.mode = mixture\ninteraction.p2 = 0.05\nshots.dark_rate = 0.01\ng2.bin = 2\n",
         "0.8626478803812028,0.34914311995023084,70001"),
        ("g2.mode = coherent\nshots.mean_photons = 2.0\nshots.dark_rate = 0.01\ng2.bin = 3\n",
         "1.0002932016471602,0.0037437218708100965,70001"),
        ("g2.mode = antibunched\nshots.dark_rate = 0.01\n",
         "0.03931080545280663,0.00144995701952736,70001"),
    ]
    cfg, out = tmp_path / "run.cfg", tmp_path / "g2.csv"
    for settings, line in cases:
        n_trials = line.rsplit(",", 1)[1]
        cfg.write_text(settings + f"shots.n_trials = {n_trials}\n", encoding="utf-8")
        code = main(["g2", "--config", str(cfg), "--seed", "7", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        assert _read(out) == f"g2,stderr,n_trials\n{line}\n"


_MIXTURE = "interaction.p2 = 0.1\ninteraction.v_int = 1MHz\n"
_RATES = (
    "dissipation.gamma_decay_2 = 0.5MHz\ndissipation.gamma_deph_2 = 1MHz\n"
    "dissipation.gamma_deph_3 = 0.3MHz\n"
)

# sha256 of the emitted bytes, captured with numpy 2.4.6 once the closed
# spaces propagated block by block and expm's Pade coefficients were scaled
# to b_0 = 2; the rated Lindblad ones re-taken once the master equation
# walked its 10-dim invariant subspace, and the readout one each time its
# walk changed: through qcore.propagate, in the 10-dim subspace, and as
# the qutrit state psi.  Without a rate the Lindblad backend runs the
# unitary backend's closed walk, so its CSV, JSON and _MIXTURE digests are
# the unitary ones (test_zero_rate_lindblad_bytes_are_the_unitary_bytes
# compares the bytes themselves).  A refactor that moves a last bit
# anywhere in these outputs fails here.
# ROADMAP item 1 (one rotating frame)
# changes on purpose: the unitary and Lindblad scans (CSV and JSON); Lindblad
# with _RATES; _MIXTURE on all three backends, the analytic one too, as its
# double branch is propagated; both scan.gap cases.  Outside this list it
# moves the fit of the unitary scan (test_fit_output_bytes_are_pinned) and
# the fringe_demo.py stdout pin (tests/test_scripts.py).
_UNITARY_CSV = "522ee12059e975d089e397cc1f15b58651e512dc368096df7a2ba8c1a3b6f5ce"
_UNITARY_JSON = "221b866bf6241df13a7a66f010798d5bf49974078f48e296b72e6e7d028ab5ed"
_UNITARY_MIXTURE = "719f11b814e18e19991e923821351a84529153b0cd2fa912a2e2b0cac51654d7"
OUTPUT_SHA256 = [
    (["ramsey-scan", "--backend", "analytic", "--format", "csv"], "",
     "faa8b6b6fa89d3b6e8471e2335fe021c9f964f9bf89c515b3e2105273cfa3b7e"),
    (["ramsey-scan", "--backend", "analytic", "--format", "json"], "",
     "5266ffe4215be17026ac1b6076f1050f6f4de3f447eb9ac812ae754611c9f6df"),
    (["ramsey-scan", "--backend", "unitary", "--format", "csv"], "", _UNITARY_CSV),
    (["ramsey-scan", "--backend", "unitary", "--format", "json"], "", _UNITARY_JSON),
    (["ramsey-scan", "--backend", "lindblad", "--format", "csv"], "", _UNITARY_CSV),
    (["ramsey-scan", "--backend", "lindblad", "--format", "json"], "", _UNITARY_JSON),
    (["ramsey-scan", "--backend", "analytic"], _MIXTURE,
     "a0dad3f352672fe41a67f2cc63efc64ccfe888aa350db960074bdd7b971a2434"),
    (["ramsey-scan", "--backend", "unitary"], _MIXTURE, _UNITARY_MIXTURE),
    (["ramsey-scan", "--backend", "lindblad"], _MIXTURE, _UNITARY_MIXTURE),
    (["ramsey-scan", "--backend", "lindblad"], _RATES,
     "2dc801def734cb41c66af750802f4139a86fcb08f892455fccb7092ff7a79d15"),
    (["rabi-scan"], "",
     "b746e52a8b18dbd311cf8664982234b7f280c3d2b1bd1bafafd4787f4742b5c2"),
    (["readout", "--seq", CANONICAL], "readout.eta_2 = 0.9\nreadout.deph = 1MHz\n",
     "4bdafb2572e5af8472483d1343698e0bdde20a8115726b75df218e9565cdb46c"),
    # a stacked mu2 drive at a detuning, and one gap wait on both sides of mu2
    (["rabi-scan"], "rabi.points = 301\nrabi.t_max = 400ns\nrabi.detuning2 = 3MHz\n",
     "686c6129df77c61a37d39b8c94119edddf7eb21499eb8f9f2458f6bb803df0d3"),
    (["ramsey-scan", "--backend", "lindblad"], "scan.gap = 50ns\n" + _RATES,
     "c113723cd8ef5e0dc33cd09f32f4075487a37296421e29f9cd1e4f0d1d9e0b33"),
    (["ramsey-scan", "--backend", "unitary"], "scan.gap = 50ns\n" + _MIXTURE,
     "b3d06a4bee04940bdde29c8af2a6569c08bb18c791897ed72395753900962bc0"),
    # the coherent source at many outcomes, and with dark clicks at many
    # trials, and the emitter's mixture: a change to the draws moves them
    (["g2", "--seed", "3"], "g2.mode = coherent\nshots.mean_photons = 400\n",
     "90687948e937a92cecb29bb98a6c215b6c488ac7fa1d9afef9c21ef1b6d99048"),
    (["g2", "--seed", "3"],
     "g2.mode = coherent\nshots.mean_photons = 2\nshots.dark_rate = 0.01\n"
     "shots.n_trials = 500000\n",
     "396c90857684c39c9b758bb2cf760ea84d2a1b7417ec114da78ee9c83ee4f8b9"),
    (["g2", "--seed", "3"], "g2.mode = mixture\ninteraction.p2 = 0.05\n",
     "32f86ad5a35d285da948a731ed8adda662fa6616a347d02a0acbf28d3ba9b83a"),
]


def _pin_id(argv, settings) -> str:
    """A scan's command and flags, marked +cfg and +gap; a g2 run's
    command and the values that its settings set."""
    if argv[0] == "g2":
        return " ".join(argv + [line.split(" = ")[1] for line in settings.splitlines()])
    return (" ".join(argv[:3]) + (" +cfg" if settings else "")
            + (" +gap" if "scan.gap" in settings else ""))


@pytest.mark.parametrize(
    "argv,settings,digest", OUTPUT_SHA256, ids=[_pin_id(a, s) for a, s, _ in OUTPUT_SHA256],
)
def test_output_bytes_are_pinned(tmp_path, argv, settings, digest):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(settings, encoding="utf-8")
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "settings",
    ["", _MIXTURE, "scan.gap = 50ns\n"],
    ids=["default", "mixture", "gap"],
)
def test_zero_rate_lindblad_bytes_are_the_unitary_bytes(tmp_path, capsys, fmt, settings):
    # without a rate the Lindblad backend runs the unitary backend's
    # closed walk, so both print and write the same bytes
    cfg = tmp_path / "run.cfg"
    cfg.write_text(settings, encoding="utf-8")
    printed, written = {}, {}
    for backend in ("unitary", "lindblad"):
        argv = ["ramsey-scan", "--backend", backend, "--format", fmt, "--config", str(cfg)]
        assert main(argv) == 0
        printed[backend] = capsys.readouterr().out
        out = tmp_path / f"{backend}.{fmt}"
        assert main([*argv, "--out", str(out)]) == 0
        written[backend] = out.read_bytes()
    assert printed["lindblad"] == printed["unitary"]
    assert written["lindblad"] == written["unitary"]
    assert written["unitary"] == printed["unitary"].encode()


def test_fit_output_bytes_are_pinned(tmp_path):
    scan, fit = tmp_path / "scan.csv", tmp_path / "fit.json"
    assert main(["ramsey-scan", "--backend", "unitary", "--out", str(scan)]) == 0
    assert main(["fit", "--in", str(scan), "--out", str(fit)]) == 0
    assert hashlib.sha256(fit.read_bytes()).hexdigest() == (
        "dbd38916f255d4d938af371fe42cfa5eaa4f0c105ea3c48f4283aa7e32def67c"
    )


@pytest.mark.parametrize(
    "settings",
    [
        "g2.mode = mixture\ninteraction.p2 = 0.05\nshots.dark_rate = 0.001\n",
        "g2.mode = coherent\nshots.mean_photons = 2.0\n",
        "g2.mode = coherent\nshots.mean_photons = 400\n",
    ],
    ids=["mixture-dark", "coherent", "coherent-400"],
)
def test_g2_command_peak_memory_per_trial(tmp_path, settings):
    # sampler and estimator together hold nothing trial-long: from 10**4 to
    # 10**12 trials the peak grows by less than 4 MiB, under 4e-6 B/trial
    # (at 400 photons it grows at all only because more of the outcomes'
    # support is seen; at 10**4 trials it is about 0.7 MiB)
    cfg, out = tmp_path / "run.cfg", tmp_path / "g2.csv"
    peaks = []
    for n in (10**4, 10**12):
        cfg.write_text(settings + f"shots.n_trials = {n}\n", encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["g2", "--config", str(cfg), "--out", str(out)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] - peaks[0] <= 4 * 2**20


def test_g2_runs_every_trial_count_below_the_config_bound(tmp_path, capsys):
    # 10**13 trials: nothing is drawn per trial, so the run is as cheap as
    # 10**4; the config bound is numpy's int64 multinomial draw
    cfg, out = tmp_path / "run.cfg", tmp_path / "g2.json"
    cfg.write_text("g2.mode = coherent\nshots.n_trials = 10000000000000\n", encoding="utf-8")
    assert main(["g2", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    est = json.loads(_read(out))
    assert est["n_trials"] == 10**13
    assert abs(est["g2"] - 1.0) <= 5.0 * est["stderr"]
    out.unlink()
    cfg.write_text(f"g2.mode = coherent\nshots.n_trials = {2**63}\n", encoding="utf-8")
    assert main(["g2", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config line 2: shots.n_trials: must be positive and below 2**63\n"
    )
    assert not out.exists()


def test_rabi_scan_unallocatable_point_count_exits_3(tmp_path, capsys):
    # the time grid asks for 7 PiB, past any address space, and fails
    # before touching memory
    cfg, out = tmp_path / "run.cfg", tmp_path / "rabi.csv"
    cfg.write_text("rabi.points = 1000000000000000\n", encoding="utf-8")
    assert main(["rabi-scan", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: out of memory")
    assert err.count("\n") == 1
    assert not out.exists()


# ------------------------------------------------------------------------ fit

def test_fit_scan_roundtrip(tmp_path):
    # short pi/2 pulses keep the envelope wide so the scan shows real fringes
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.t_mu1 = 20ns\nscan.t_mu2 = 250ns\n", encoding="utf-8")
    scan = tmp_path / "scan.csv"
    assert main(["ramsey-scan", "--config", str(cfg), "--out", str(scan)]) == 0
    out = tmp_path / "fit.json"
    assert main(["fit", "--config", str(cfg), "--in", str(scan), "--out", str(out)]) == 0
    result = json.loads(_read(out))
    assert set(result) == {
        "offset", "amplitude", "frequency", "phase", "visibility",
        "residual_rms", "converged", "flags",
    }
    assert result["converged"] is True
    assert result["flags"] == []
    # fringe frequency ~ stored-interval duration 2*t_mu1 + t_mu2 = 290 ns
    assert abs(result["frequency"] - 2.9e-7) <= 0.1 * 2.9e-7
    assert 0.9 <= result["visibility"] <= 1.0


def test_fit_of_a_faint_scan_matches_the_unit_scan(tmp_path):
    fits = []
    for i0 in ("1", "1e-13"):
        cfg = tmp_path / f"run{i0}.cfg"
        cfg.write_text(f"scan.i0 = {i0}\n", encoding="utf-8")
        scan = tmp_path / f"scan{i0}.csv"
        args = ["--config", str(cfg), "--out"]
        assert main(["ramsey-scan", "--backend", "unitary", *args, str(scan)]) == 0
        out = tmp_path / f"fit{i0}.json"
        assert main(["fit", "--in", str(scan), *args, str(out)]) == 0
        fits.append(json.loads(_read(out)))
    unit, faint = fits
    assert faint["converged"] is True
    assert faint["flags"] == unit["flags"] == ["frequency_far_from_hint"]
    assert faint["visibility"] == pytest.approx(unit["visibility"], rel=1e-12)
    assert faint["frequency"] == pytest.approx(unit["frequency"], rel=1e-12)
    assert 0.6 < faint["visibility"] < 0.63


@pytest.mark.parametrize("backend", ["analytic", "unitary"])
def test_fit_of_a_default_scan_is_scale_free(tmp_path, backend):
    # f is pinned where d(rss)/df changes sign, so scaling the intensities
    # by any factor moves the frequency and visibility by rounding only
    scan = tmp_path / "scan.csv"
    assert main(["ramsey-scan", "--backend", backend, "--out", str(scan)]) == 0
    deltas, intensities = _read_scan_csv(scan)
    fits = {}
    for k in (0, -13, -11, -3, 3, 13):
        rows = "".join(f"{float(x)!r},{float(10.0**k * y)!r}\n" for x, y in zip(deltas, intensities))
        scaled, out = tmp_path / f"scan{k}.csv", tmp_path / f"fit{k}.json"
        scaled.write_text(RAMSEY_CSV_HEADER + "\n" + rows, encoding="utf-8")
        assert main(["fit", "--in", str(scaled), "--out", str(out)]) == 0
        fits[k] = json.loads(_read(out))
    unit = fits.pop(0)
    assert unit["converged"] is True
    for fit in fits.values():
        assert fit["converged"] is True and fit["flags"] == unit["flags"]
        assert fit["visibility"] == pytest.approx(unit["visibility"], rel=1e-12)
        assert fit["frequency"] == pytest.approx(unit["frequency"], rel=1e-12)


def _fit_of_scaled_fringe(tmp_path, scale) -> dict:
    """fit of the 16-point fringe scale * (1 + 0.5 cos(0.7 x))."""
    scan = tmp_path / f"fringe{scale!r}.csv"
    rows = "".join(
        f"{x!r},{scale * (1.0 + 0.5 * math.cos(0.7 * x))!r}\n" for x in map(float, range(16))
    )
    scan.write_text(RAMSEY_CSV_HEADER + "\n" + rows, encoding="utf-8")
    out = tmp_path / f"fit{scale!r}.json"
    assert main(["fit", "--in", str(scan), "--out", str(out)]) == 0
    return json.loads(_read(out))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_fit_of_a_scan_whose_squares_leave_the_float_range(tmp_path, scale):
    # unscaled, the faint scan fitted V = 1 at the hint frequency with no
    # flag, and the huge one overflowed in the residual squares (exit 3)
    unit, scaled = _fit_of_scaled_fringe(tmp_path, 1.0), _fit_of_scaled_fringe(tmp_path, scale)
    assert unit["visibility"] == pytest.approx(0.5, abs=1e-12)
    assert unit["frequency"] == pytest.approx(0.7, abs=1e-12)
    assert scaled["converged"] is True and scaled["flags"] == unit["flags"]
    assert scaled["visibility"] == pytest.approx(unit["visibility"], abs=1e-12)
    assert scaled["frequency"] == pytest.approx(unit["frequency"], abs=1e-12)
    assert scaled["offset"] == pytest.approx(scale, rel=1e-12)


def test_fit_defaults_to_json_even_with_csv_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output.format = csv\nscan.points = 41\n", encoding="utf-8")
    scan = tmp_path / "scan.csv"
    assert main(["ramsey-scan", "--config", str(cfg), "--out", str(scan)]) == 0
    out = tmp_path / "fit.out"
    assert main(["fit", "--config", str(cfg), "--in", str(scan), "--out", str(out)]) == 0
    json.loads(_read(out))  # JSON by default for fit reports


def test_fit_help_names_its_json_default(capsys):
    # fit ignores output.format (the test above); its --format help says so
    assert main(["fit", "--help"]) == 0
    assert "json for fit" in " ".join(capsys.readouterr().out.split())


def test_fit_csv_format(tmp_path):
    scan = tmp_path / "scan.csv"
    assert main(["ramsey-scan", "--out", str(scan)]) == 0
    out = tmp_path / "fit.csv"
    code = main(["fit", "--in", str(scan), "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == (
        "offset,amplitude,frequency,phase,visibility,residual_rms,converged,flags"
    )
    assert len(lines) == 2
    assert lines[1].split(",")[6] == "true"


def test_fit_names_the_keys_of_an_overflowing_derived_hint(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    assert main(["ramsey-scan", "--out", str(scan)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.gap = 1e308s\n", encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(scan), "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: fit.t_total_hint = 0 takes the hint scan.t_mu1 + scan.t_mu2 "
        "+ 2*scan.gap, which overflows; set fit.t_total_hint\n"
    )
    assert not out.exists()
    # a hint of its own fits the same scan
    cfg.write_text("scan.gap = 1e308s\nfit.t_total_hint = 350ns\n", encoding="utf-8")
    assert main(["fit", "--in", str(scan), "--config", str(cfg), "--out", str(out)]) == 0


def test_fit_requires_in(capsys):
    assert main(["fit"]) == 2
    assert "requires --in" in capsys.readouterr().err


def test_fit_missing_file_exits_2(tmp_path, capsys):
    assert main(["fit", "--in", str(tmp_path / "nope.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fit_rejects_wrong_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n3,4\n", encoding="utf-8")
    assert main(["fit", "--in", str(bad)]) == 2
    assert "expected header" in capsys.readouterr().err


def test_fit_rejects_non_finite_rows(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.points = 21\n", encoding="utf-8")
    assert main(["ramsey-scan", "--config", str(cfg), "--out", str(scan)]) == 0
    lines = _read(scan).splitlines()
    assert len(lines) == 22
    for bad in ("1e999", "-1e999"):
        broken = list(lines)
        broken[5] = broken[5].split(",")[0] + "," + bad
        broken[9] = "1e999," + broken[9].split(",")[1]
        path = tmp_path / f"{bad}.csv"
        path.write_text("\n".join(broken) + "\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        assert main(["fit", "--in", str(path), "--out", str(out)]) == 2
        assert "data row 5 is not finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "rows, bad",
    [
        (["0,1", "0.5", "1,0"], "0.5"),
        (["0,1", "0.5,1,2", "1,0"], "0.5,1,2"),
        # one cell in one row and three in another still make two cells a row
        (["0,1", "2", "3,4,5", "6,7"], "2"),
    ],
)
def test_fit_rejects_a_row_of_the_wrong_width(tmp_path, capsys, rows, bad):
    scan = tmp_path / "scan.csv"
    scan.write_text("\n".join([RAMSEY_CSV_HEADER, *rows, ""]), encoding="utf-8")
    assert main(["fit", "--in", str(scan)]) == 2
    assert capsys.readouterr().err == f"error: {scan}: malformed row {bad!r}\n"


@pytest.mark.parametrize(
    "rows, row, bad",
    [
        (["0,1", "2,abc", "3,4"], 2, "2,abc"),
        (["0,1", "1,2", "2,"], 3, "2,"),
        # the first faulty row in file order, before a later non-finite one
        (["x,1", "1,1e999", "2,3"], 1, "x,1"),
        # cells follow the config's decimal grammar, not float()'s
        (["0,1", "1,nan", "2,3"], 2, "1,nan"),
        (["0,1", "1,-inf", "2,3"], 2, "1,-inf"),
        (["0,1", "1_0,2", "2,3"], 2, "1_0,2"),
        (["0,1", "\u0661,2", "2,3"], 2, "\u0661,2"),
        (["0,1", "1,2 5", "2,3"], 2, "1,2 5"),
    ],
)
def test_fit_names_the_row_of_a_cell_that_is_not_a_number(tmp_path, capsys, rows, row, bad):
    scan = tmp_path / "scan.csv"
    scan.write_text("\n".join([RAMSEY_CSV_HEADER, *rows, ""]), encoding="utf-8")
    assert main(["fit", "--in", str(scan)]) == 2
    assert capsys.readouterr().err == f"error: {scan}: data row {row} is not a number: {bad!r}\n"


def test_fit_needs_two_data_rows(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    scan.write_text(f"{RAMSEY_CSV_HEADER}\n0,1\n\n", encoding="utf-8")
    assert main(["fit", "--in", str(scan)]) == 2
    assert capsys.readouterr().err == f"error: {scan}: need at least two data rows\n"


def test_fit_tolerates_blank_lines_spaces_and_crlf(tmp_path):
    scan, fit = tmp_path / "scan.csv", tmp_path / "fit.json"
    assert main(["ramsey-scan", "--backend", "unitary", "--out", str(scan)]) == 0
    assert main(["fit", "--in", str(scan), "--out", str(fit)]) == 0
    header, *rows = _read(scan).splitlines()
    messy_rows = [f" \t{r}  " if i % 3 else f"{r}\r\n \r\n" for i, r in enumerate(rows)]
    messy = tmp_path / "messy.csv"
    messy.write_bytes(("\r\n" + f"  {header}\r\n" + "\r\n".join(messy_rows) + "\r\n\r\n").encode())
    messy_fit = tmp_path / "messy.json"
    assert main(["fit", "--in", str(messy), "--out", str(messy_fit)]) == 0
    assert messy_fit.read_bytes() == fit.read_bytes()


def _row_by_row_scan_csv(path):
    """Reference ingest: one line at a time, the first faulty row reported."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != RAMSEY_CSV_HEADER:
        raise ValueError(f"{path}: expected header {RAMSEY_CSV_HEADER!r}")
    rows = []
    for row, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed row {ln!r}")
        values = []
        for cell in parts:
            try:
                values.append(read_value(cell, PLAIN))
            except BadValue as exc:
                what = "finite" if exc.kind == "range" else "a number"
                raise ValueError(f"{path}: data row {row} is not {what}: {ln!r}") from None
        rows.append(values)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return np.array(rows)[:, 0], np.array(rows)[:, 1]


_csv_cells = st.sampled_from(
    ["0", "-0.0", "1.5", " 2e300 ", "5e-324", "1_0", "nan", "-inf", "1e999", "x", "",
     "+.5e-3", "1.", "1e", "2 5", "\u0661"]
)
_csv_lines = st.one_of(
    st.lists(_csv_cells, min_size=2, max_size=2).map(",".join),
    st.lists(_csv_cells, min_size=0, max_size=4).map(",".join),
    st.sampled_from(["", "  ", "\t", RAMSEY_CSV_HEADER]),
)


@given(
    header=st.sampled_from([RAMSEY_CSV_HEADER, f" {RAMSEY_CSV_HEADER}\t", "x,y"]),
    lines=st.lists(_csv_lines, max_size=8),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_ingest_matches_a_row_by_row_reader(tmp_path_factory, header, lines, newline):
    path = tmp_path_factory.mktemp("ingest") / "scan.csv"
    path.write_bytes(newline.join([header, *lines]).encode())
    try:
        want = _row_by_row_scan_csv(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _read_scan_csv(path)
        assert str(got.value) == str(exc)
        return
    got = _read_scan_csv(path)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
        assert a.flags.c_contiguous


def test_fit_rejects_a_constant_detuning_axis(tmp_path, capsys):
    # a constant axis holds no fringe, so it must not fit to a visibility near 1
    scan = tmp_path / "const.csv"
    rows = "".join(f"0.0,{0.5 + 0.4 * (-1) ** i}\n" for i in range(21))
    scan.write_text(f"delta_rad_s,intensity\n{rows}", encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(scan), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: x must be strictly increasing\n"
    assert not out.exists()


# ----------------------------------------------------------- usage and errors

def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scan.bogus = 1\n", encoding="utf-8")
    assert main(["ramsey-scan", "--config", str(cfg)]) == 2
    assert "config line 1" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["ramsey-scan", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["ramsey-scan", "g2"])
def test_empty_config_path_exits_2(capsys, command):
    # an empty path (say, an unset shell variable) is a missing file, not
    # a request for the defaults
    assert main([command, "--config", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_repeated_calls_in_one_process_stay_independent(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()

    def run(*argv):
        code = main(list(argv))
        return (code, *capsys.readouterr())

    # help is wrapped to the terminal width of each call
    helps = {}
    for columns in (60, 140):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, helps[columns], _ = run("ramsey-scan", "--help")
        assert code == 0
    widths = {c: max(map(len, text.splitlines())) for c, text in helps.items()}
    assert widths[60] < widths[140]
    assert helps[60].split() == helps[140].split()

    # a successful command leaves nothing behind for the next parse
    failures = (("ramsey-scan", "--bogus"), ("g2", "--seed", "-1"), ("readout",))
    before = [run(*argv) for argv in failures]
    assert [code for code, _, _ in before] == [2, 2, 2]
    assert run("ramsey-scan", "--backend", "unitary")[0] == 0
    assert [run(*argv) for argv in failures] == before


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bad_backend_choice_exits_2(capsys):
    assert main(["ramsey-scan", "--backend", "euler"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "ramsey-scan" in capsys.readouterr().out
