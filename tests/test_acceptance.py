"""End-to-end acceptance: one test per headline behavior of the package.

Each test pins a single top-level claim at its stated tolerance, so a
``pytest -v`` run reports one pass/fail line per claim.  Tolerances are
chosen once from the physics (and from IEEE-754 reality where a claim is
exact in math but one ulp away in floats) and are not to be loosened.
"""

import json
import math
from pathlib import Path

import numpy as np

from seqlab.cli import main
from seqlab.config import DissipationSection, InteractionSection
from seqlab.dissipative import evolve_master
from seqlab.dsl import ParseError, load_sequence, parse_sequence
from seqlab.pairwise import PAIR_CONFIGS, lift_single_particle, mixture_fringe_scan
from seqlab.photostats import (
    estimate_g2,
    fit_sinusoid,
    sample_coherent_shots,
    sample_shots,
)
from seqlab.qcore import (
    DriveSegment,
    Readout,
    total_duration,
)
from seqlab.ramsey import (
    fringe_scan,
    rabi_scan,
    symmetric_detuning_grid,
)
from seqlab.units import mhz
from references import (
    extract_visibility,
    master_walk_16,
    ramsey_visibility,
    readout_populations,
    scan_config,
    sequence_unitary,
)
from test_dissipative import cut_sequences

CANONICAL = "sequences/ramsey_readout.seq"


def test_visibility_law_at_special_areas():
    # perfect fringes at even multiples of pi, none at odd multiples
    for k in range(6):
        assert ramsey_visibility(2 * k * math.pi, 1.0) == 1.0
        # the mathematical zero: cos((2k+1) fl(pi) / 2) leaves an
        # O((2k+1) * 1e-16) residue, so "exactly 0" means one rounding step
        assert ramsey_visibility((2 * k + 1) * math.pi, 1.0) <= 5e-15
    assert abs(ramsey_visibility(0.5 * math.pi, 1.0) - 2.0 * math.sqrt(2.0) / 3.0) <= 1e-12


def test_analytic_and_unitary_backends_agree():
    grid = symmetric_detuning_grid(mhz(10.0), 201)
    t_mu1, t_mu2 = 100e-9, 250e-9
    (center,) = np.flatnonzero(grid == 0.0)
    for area in (0.0, 0.5 * math.pi, math.pi, 2.0 * math.pi, 3.0 * math.pi):
        omega = area / t_mu2
        configs = {
            b: scan_config(t_mu1, mhz(10.0), 201, omega, t_mu2, backend=b)
            for b in ("analytic", "unitary")
        }
        scans = {b: fringe_scan(c, DissipationSection()) for b, c in configs.items()}
        on_resonance_gap = abs(
            scans["analytic"][center] - scans["unitary"][center]
        )
        assert on_resonance_gap <= 1e-12
        vis = extract_visibility(configs["unitary"], scans["unitary"])
        assert abs(vis - ramsey_visibility(omega, t_mu2)) <= 1e-6


def test_lindblad_visibility_curve_reproduces_law():
    # zero-rate Lindblad scans, the closed walk, trace the closed-form
    # visibility curve
    t_mu1, t_mu2 = 20e-9, 80e-9
    for area in np.linspace(0.0, 3.0 * math.pi, 25):
        omega = float(area) / t_mu2
        cfg = scan_config(t_mu1, mhz(4.0), 5, omega, t_mu2, backend="lindblad")
        vis = extract_visibility(cfg, fringe_scan(cfg, DissipationSection()))
        assert abs(vis - ramsey_visibility(omega, t_mu2)) <= 1e-4


def test_rabi_oscillation_period_and_stored_population():
    times = np.linspace(0.0, 160e-9, 81)
    table = rabi_scan(times, mhz(12.5), t_mu1=20e-9, detuning2=0.0)
    assert np.abs(table[:, 1] - 0.5).max() <= 1e-9  # stored half stays put
    fit = fit_sinusoid(table[:, 0], table[:, 2], mhz(12.5))
    assert fit["converged"]
    period = 2.0 * math.pi / fit["frequency"]
    assert abs(period - 80e-9) <= 1e-3 * 80e-9


def test_ideal_readout_split_and_dephasing_ordering():
    # pi/2 preparation followed by a full 2 pi intermediate rotation reads
    # out as an even split over the first two bins and nothing in the third
    prep = (
        DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9),
        DriveSegment("mu2", rabi=2.0 * math.pi / 80e-9, duration=80e-9),
    )
    p1, p2, p3 = readout_populations(prep)
    # no double squares to exactly 0.5, so "exact" means within one ulp
    assert abs(p1 - 0.5) <= 1e-15
    assert abs(p2 - 0.5) <= 1e-15
    assert p3 <= 1e-30
    # inter-bin dephasing: first bin unaffected, later bins lose retrieval
    # monotonically; at 6.5e6 1/s the split brackets 0.45
    p2_values = []
    for deph in (0.0, 2e5, 5e5, 1e6, 2e6, 6.5e6):
        p1, p2, _ = readout_populations(prep, deph=deph)
        assert abs(p1 - 0.5) <= 1e-15
        p2_values.append(p2)
    assert all(a > b for a, b in zip(p2_values, p2_values[1:]))
    p1, p2, _ = readout_populations(prep, deph=6.5e6)
    assert p1 > 0.45 > p2


def test_master_equation_physicality_and_unitary_limit():
    seq = load_sequence(CANONICAL)
    drives = tuple(s for s in seq if not isinstance(s, Readout))
    # zero rates: the master equation must shadow the unitary propagation
    final = evolve_master(drives, DissipationSection())
    psi = sequence_unitary(drives)[:, 0]  # from R1
    expected = np.zeros((4, 4), dtype=complex)
    expected[:3, :3] = np.outer(psi, psi.conj())
    eigs = np.linalg.eigvalsh(final - expected)
    assert 0.5 * np.abs(eigs).sum() <= 1e-8
    # dissipative run: physicality bounds hold every 5 ns, on the state of
    # the sequence cut off at that time
    params = DissipationSection(
        gamma_decay_1=1e5, gamma_decay_2=2e5, gamma_decay_3=3e5,
        gamma_deph_1=1e5, gamma_deph_2=1e5, gamma_deph_3=2e5,
    )
    cuts = list(cut_sequences(drives, 5e-9))
    assert len(cuts) > 20
    # the 10-dim walk is the whole 16-dim one on its invariant subspace
    assert np.abs(evolve_master(drives, params) - master_walk_16(drives, params)).max() <= 1e-13
    for cut in cuts:
        m = evolve_master(cut, params)
        assert abs(m.trace().real - 1.0) <= 1e-8
        assert np.abs(m - m.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(m).min() >= -1e-8


def test_pair_lift_oracle_and_interaction_phase_offset():
    # symmetric-subspace lift vs an independently built projected tensor sum
    rng = np.random.default_rng(20260815)
    eye = np.eye(3)
    isometry = np.zeros((9, 6))
    for col, (a, b) in enumerate(PAIR_CONFIGS):
        if a == b:
            isometry[3 * a + b, col] = 1.0
        else:
            isometry[3 * a + b, col] = isometry[3 * b + a, col] = 1.0 / math.sqrt(2.0)
    for _ in range(50):
        h3 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h3 = 0.5 * (h3 + h3.conj().T) * mhz(5.0)
        oracle = isometry.T @ (np.kron(h3, eye) + np.kron(eye, h3)) @ isometry
        dev = np.abs(lift_single_particle(h3) - oracle).max()
        assert dev <= 1e-12 * np.abs(h3).max()

    # an interaction shift offsets the mixture fringe phase monotonically
    # while leaving amplitude and period essentially unchanged
    t_mu1, t_mu2 = 20e-9, 150e-9
    grid = symmetric_detuning_grid(mhz(7.0), 281)
    hint = 2.0 * t_mu1 + t_mu2
    fits = []
    for v in (-mhz(0.2), -mhz(0.1), 0.0, mhz(0.1), mhz(0.2)):
        cfg = scan_config(t_mu1, mhz(7.0), 281, 2.0 * math.pi / t_mu2, t_mu2)
        scan = mixture_fringe_scan(cfg, DissipationSection(), InteractionSection(v, 0.3))
        fits.append(fit_sinusoid(np.array(grid), scan, hint))
    phases = [f["phase"] for f in fits]
    assert all(a > b for a, b in zip(phases, phases[1:]))  # monotone in the shift
    assert abs(phases[2]) <= 1e-6
    assert abs(phases[0] + phases[4]) <= 1e-6 and abs(phases[1] + phases[3]) <= 1e-6
    assert abs(phases[0]) >= 5e-4  # a genuinely resolved offset, not noise
    amp0, freq0 = fits[2]["amplitude"], fits[2]["frequency"]
    assert max(abs(f["amplitude"] / amp0 - 1.0) for f in fits) < 0.05
    assert max(abs(f["frequency"] / freq0 - 1.0) for f in fits) < 0.05


def test_g2_estimator_calibration():
    # single emitter: never two clicks in one trial
    anti, _ = estimate_g2(sample_shots(200_000, 5, 1, 0.0, 0.0), 1)
    assert anti == 0.0
    # coherent source: Poissonian light has g2 = 1
    coh, _ = estimate_g2(sample_coherent_shots(0.1, 1_000_000, 7, 0.0), 1)
    assert abs(coh - 1.0) <= 0.02
    # two-photon admixture with closed-form g2 = 2 p2 / (1 + p2)^2 = 0.45
    p2 = 0.5194938532959157
    assert abs(2.0 * p2 / (1.0 + p2) ** 2 - 0.45) <= 1e-12
    mix, stderr = estimate_g2(sample_shots(400_000, 11, 1, 0.0, p2), 1)
    assert abs(mix - 0.45) <= 3.0 * stderr
    assert stderr < 0.005


def test_parser_and_cli_golden_stability(tmp_path, capsys):
    # grammar examples parse to the specified segments
    (seg,) = parse_sequence("pulse mu1 area=0.5pi duration=20ns")
    assert seg.field == "mu1"
    assert seg.rabi == 0.5 * math.pi / (20.0 * 1e-9)
    assert seg.detuning == 0.0 and seg.phase == 0.0
    assert seg.duration == 20.0 * 1e-9
    try:
        parse_sequence("pulse mu3 rabi=1MHz duration=1ns")
        raise AssertionError("unknown field accepted")
    except ParseError as err:
        assert err.line == 1 and err.column == 7 and err.code == "E_UNKNOWN_FIELD"

    # canonical sequence: nine segments inside the stated time budget
    seq = load_sequence(CANONICAL)
    assert len(seq) == 9
    assert total_duration(seq) < 1.8e-6
    out = tmp_path / "ro.csv"
    assert main(["readout", "--seq", CANONICAL, "--out", str(out)]) == 0
    assert "within budget" in capsys.readouterr().err

    # golden artifacts: identical config + seed give byte-identical files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scan.points = 41\ng2.mode = coherent\nshots.n_trials = 20000\n",
        encoding="utf-8",
    )
    for cmd in (
        ["ramsey-scan", "--config", str(cfg)],
        ["ramsey-scan", "--config", str(cfg), "--format", "json"],
        ["g2", "--config", str(cfg), "--seed", "7"],
        ["readout", "--seq", CANONICAL],
    ):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main([*cmd, "--out", str(a)]) == 0
        assert main([*cmd, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), cmd
    capsys.readouterr()
    # emitted JSON re-loads losslessly
    out = tmp_path / "scan.json"
    assert main(["ramsey-scan", "--config", str(cfg), "--format", "json",
                 "--out", str(out)]) == 0
    rows = json.loads(Path(out).read_text(encoding="utf-8"))
    assert len(rows) == 41 and all(math.isfinite(r["intensity"]) for r in rows)
