"""Command line: artifact formats, exit codes, determinism, diagnostics."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqlab.cli import RAMSEY_CSV_HEADER, _read_scan_csv, main
from seqlab.photostats import SHOT_BLOCK

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
        ("lindblad", "scan.span = 1e300MHz"),
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
    # the trace was once quoted as np.complex128(0j)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dissipation.gamma_deph_2 = 1e300MHz\nscan.points = 5\n", encoding="utf-8")
    assert main(["ramsey-scan", "--backend", "lindblad", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: at t=1.000e-07 s: trace drifted to 0.0\n"
    assert "np." not in captured.err


def test_trace_drift_message_shows_a_small_drift(tmp_path, capsys):
    # a drift of 7.6e-6, beyond TRACE_TOL, once read "trace drifted to 1.000e+00"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dissipation.gamma_decay_1 = 1e12MHz\nscan.points = 5\n", encoding="utf-8")
    assert main(["ramsey-scan", "--backend", "lindblad", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: at t=1.000e-07 s: trace drifted to 0.9999923706345158\n"
    )


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
    assert table[0, 1] == 0.9253281139039611  # ideal retrieval of the canonical file
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
    # na * nb exceeds the int16 range of the stored counts
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
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "g2.mode = coherent\nshots.n_trials = 20000\nshots.mean_photons = 140000\n",
        encoding="utf-8",
    )
    out = tmp_path / "g2.csv"
    assert main(["g2", "--config", str(cfg), "--out", str(out)]) == 2
    assert "overflows" in capsys.readouterr().err
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
    # data lines captured before the sampler and estimator were rewritten
    # for speed (numpy 2.4.6), and the 70001-trial line before the samplers
    # were streamed in blocks; a change to the draws or the bootstrap moves them
    cases = [
        ("g2.mode = mixture\ninteraction.p2 = 0.05\nshots.dark_rate = 0.001\n",
         "0.09509303601394675,0.004026878400424597,20000"),
        ("g2.mode = coherent\nshots.mean_photons = 2.0\nshots.dark_rate = 0.01\n",
         "1.0012709199727272,0.006298534538589159,20000"),
        ("g2.mode = coherent\nshots.mean_photons = 400\n",
         "1.000011090912176,3.683950036513352e-05,20000"),
        # more than two blocks of trials, so a block boundary bug shows
        ("g2.mode = mixture\ninteraction.p2 = 0.05\nshots.dark_rate = 0.001\n",
         "0.09577034175929568,0.0020702292017074704,70001"),
        # off bin 1, captured while the records still held all three bins
        ("g2.mode = mixture\ninteraction.p2 = 0.05\nshots.dark_rate = 0.01\ng2.bin = 2\n",
         "0.8724478667915774,0.36418058710857243,70001"),
        ("g2.mode = coherent\nshots.mean_photons = 2.0\nshots.dark_rate = 0.01\ng2.bin = 3\n",
         "0.9957527370237262,0.0037402244579349646,70001"),
        ("g2.mode = antibunched\nshots.dark_rate = 0.01\n",
         "0.03836343888829827,0.0012665792287752842,70001"),
    ]
    assert 70001 > 2 * SHOT_BLOCK
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

# sha256 of the emitted bytes, captured with numpy 2.4.6 before the start
# state was fixed to the stored excitation; a refactor that moves a last bit
# anywhere in these outputs fails here.  ROADMAP item 1 (one rotating frame)
# changes the unitary and Lindblad scan hashes on purpose, and the fit of the
# unitary scan with them.
OUTPUT_SHA256 = [
    (["ramsey-scan", "--backend", "analytic", "--format", "csv"], "",
     "faa8b6b6fa89d3b6e8471e2335fe021c9f964f9bf89c515b3e2105273cfa3b7e"),
    (["ramsey-scan", "--backend", "analytic", "--format", "json"], "",
     "5266ffe4215be17026ac1b6076f1050f6f4de3f447eb9ac812ae754611c9f6df"),
    (["ramsey-scan", "--backend", "unitary", "--format", "csv"], "",
     "78efb3a6080a6fbfcbd87abc3b73c48b1849b6db059a52a3615bac5f6d7c12d9"),
    (["ramsey-scan", "--backend", "unitary", "--format", "json"], "",
     "b5cf5ee548e313ea98be6fd4cc3af927e4f83a16969dfbd7d6d6a111bcd8c099"),
    (["ramsey-scan", "--backend", "lindblad", "--format", "csv"], "",
     "ba84f045748d8fdc94400246b954acbdd28def3a612ab8cabd23bb287b836ed2"),
    (["ramsey-scan", "--backend", "lindblad", "--format", "json"], "",
     "369393c10859951fde7102a5d71f9a53d87f47d4ec8d1f7500dff476debefdf1"),
    (["ramsey-scan", "--backend", "analytic"], _MIXTURE,
     "f46f2cbd69bce2d2bb17c0f4a2615a514d75a0c0e0edecd6d98fb9586ef0e4c1"),
    (["ramsey-scan", "--backend", "unitary"], _MIXTURE,
     "55bce9fc784ab0359fcea11e7deea1c91593bed47501bb5a1d4a3a3097d8f581"),
    (["ramsey-scan", "--backend", "lindblad"], _MIXTURE,
     "d69ada3d58e6822f116c46ed33ad3c8acfa5d177fefd86529dcb8cce20873a8c"),
    (["ramsey-scan", "--backend", "lindblad"], _RATES,
     "a243ae21cfa045726116b98b7d37f4f2a33ad4b69ecccf631e3d4ecd0b725791"),
    (["rabi-scan"], "",
     "6d6452fa0bef960665351e281739a06f7bacdd344e02e5cee676167390af4507"),
    (["readout", "--seq", CANONICAL], "readout.eta_2 = 0.9\nreadout.deph = 1MHz\n",
     "eacb97533566ea574a958e9069eebcd8c69b6e0635a887c2831bdce664f3b1ab"),
]


@pytest.mark.parametrize(
    "argv,settings,digest", OUTPUT_SHA256,
    ids=[" ".join(a[:3]) + (" +cfg" if s else "") for a, s, _ in OUTPUT_SHA256],
)
def test_output_bytes_are_pinned(tmp_path, argv, settings, digest):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(settings, encoding="utf-8")
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_fit_output_bytes_are_pinned(tmp_path):
    scan, fit = tmp_path / "scan.csv", tmp_path / "fit.json"
    assert main(["ramsey-scan", "--backend", "unitary", "--out", str(scan)]) == 0
    assert main(["fit", "--in", str(scan), "--out", str(fit)]) == 0
    assert hashlib.sha256(fit.read_bytes()).hexdigest() == (
        "2f9938db3085699fa7adbdc341de17593375bf8ba79cc3a3e1928d55833344d5"
    )


@pytest.mark.parametrize(
    "settings",
    [
        "g2.mode = mixture\ninteraction.p2 = 0.05\nshots.dark_rate = 0.001\n",
        "g2.mode = coherent\nshots.mean_photons = 2.0\n",
    ],
    ids=["mixture-dark", "coherent"],
)
def test_g2_command_peak_memory_per_trial(tmp_path, settings):
    # sampler and estimator together; three-bin records with trial-long
    # estimator temporaries peaked at about 24 B/trial
    n = 500_000
    cfg, out = tmp_path / "run.cfg", tmp_path / "g2.csv"
    cfg.write_text(settings + f"shots.n_trials = {n}\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["g2", "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / n <= 12.0


def test_g2_unallocatable_trial_count_exits_3(tmp_path, capsys):
    # the record array asks for about 36 TiB and fails before touching memory
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "g2.mode = coherent\nshots.n_trials = 10000000000000\n", encoding="utf-8"
    )
    out = tmp_path / "g2.csv"
    assert main(["g2", "--config", str(cfg), "--out", str(out)]) == 3
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


def test_fit_defaults_to_json_even_with_csv_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output.format = csv\nscan.points = 41\n", encoding="utf-8")
    scan = tmp_path / "scan.csv"
    assert main(["ramsey-scan", "--config", str(cfg), "--out", str(scan)]) == 0
    out = tmp_path / "fit.out"
    assert main(["fit", "--config", str(cfg), "--in", str(scan), "--out", str(out)]) == 0
    json.loads(_read(out))  # JSON by default for fit reports


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
    cfg.write_text("scan.t_mu1 = 1e308s\n", encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(scan), "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: fit.t_total_hint = 0 takes the hint 2*scan.t_mu1 + scan.t_mu2 "
        "+ 2*scan.gap, which overflows; set fit.t_total_hint\n"
    )
    assert not out.exists()
    # a hint of its own fits the same scan
    cfg.write_text("scan.t_mu1 = 1e308s\nfit.t_total_hint = 450ns\n", encoding="utf-8")
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
    for bad in ("nan", "inf", "-inf"):
        broken = list(lines)
        broken[5] = broken[5].split(",")[0] + "," + bad
        broken[9] = "nan," + broken[9].split(",")[1]
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
        values = [float(p) for p in parts]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: data row {row} is not finite: {ln!r}")
        rows.append(values)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return np.array(rows)[:, 0], np.array(rows)[:, 1]


_csv_cells = st.sampled_from(
    ["0", "-0.0", "1.5", " 2e300 ", "5e-324", "1_0", "nan", "-inf", "1e999", "x", ""]
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
