import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import ramsey
from seqlab.config import DissipationSection, InteractionSection
from seqlab.dissipative import evolve_master
from seqlab.pairwise import (
    PAIR_CONFIGS,
    mixture_fringe_scan,
    pair_hamiltonian,
)
from seqlab.qcore import (
    DriveSegment,
    Wait,
    hermitian_propagator,
    segment_hamiltonian,
)
from seqlab.ramsey import (
    BLOCK_POINTS,
    build_ramsey_sequence,
    fringe_scan,
    rabi_scan,
    ramsey_intensity,
    ramsey_terms,
    symmetric_detuning_grid,
)
from seqlab.units import mhz
from references import extract_visibility, ramsey_visibility, scan_config
from test_qcore import closed_form_unitary

T1 = 100e-9
T2 = 250e-9
# excitations in R1 of each pair configuration
_R1_OCC = np.array([config.count(0) for config in PAIR_CONFIGS], dtype=float)


# ---------------------------------------------------------------------------
# closed form against a 50-digit reference evaluation
#
# reference point: delta = pi / (2 * t_mu1)  (so delta * t_mu1 = pi/2),
# t_mu1 = 100 ns, t_mu2 = 250 ns, no dead time


def test_terms_frozen_reference():
    delta = math.pi / (2 * T1)
    stay, swap = ramsey_terms(delta, T1, T2, 0.0)
    assert stay == pytest.approx(
        complex(0.56264005857240015, -0.20427490030911007), abs=5e-16
    )
    assert swap == pytest.approx(
        complex(-0.28385031614044174, 0.28385031614044174), abs=5e-16
    )
    cross = 2.0 * (stay * swap.conj()).real
    assert cross == pytest.approx(-0.43537810706270111, abs=5e-16)


def test_intensity_frozen_reference():
    delta = math.pi / (2 * T1)
    omega = (0.5 * math.pi) / T2  # intermediate area pi/2
    assert ramsey_intensity(delta, T1, omega, T2, 1.0, 0.0) == pytest.approx(
        0.13100426049548079, abs=5e-16
    )


def test_terms_on_resonance():
    stay, swap = ramsey_terms(0.0, T1, T2, 0.0)
    assert abs(stay - 0.5) <= 1e-15
    assert abs(swap + 0.5) <= 1e-15
    assert abs(2.0 * (stay * swap.conj()).real + 0.5) <= 2e-15


def test_dead_time_extends_total():
    # dead time only advances the swap path's free precession
    delta, dead = 1e5, 50e-9
    _, swap0 = ramsey_terms(delta, T1, T2, 0.0)
    _, swap = ramsey_terms(delta, T1, T2, dead_time=dead)
    assert abs(swap / swap0 - np.exp(1j * delta * dead)) <= 1e-15


@given(st.floats(-50.0, 50.0))
def test_swap_amplitude_bounded(x):
    # x = delta * t_mu1
    stay, swap = ramsey_terms(x / T1, T1, T2, 0.0)
    assert abs(swap) <= 0.5 + 1e-12
    assert abs(stay) <= 1.0 + 1e-12


@given(st.floats(-50.0, 50.0), st.floats(0.0, 4.0))
def test_intensity_is_a_probability(x, area_pi):
    omega = area_pi * math.pi / T2
    I = ramsey_intensity(x / T1, T1, omega, T2, 1.0, 0.0)
    assert -1e-12 <= I <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# visibility law


def test_visibility_law_special_points():
    # perfect fringes at even multiples of pi, none at odd multiples
    for k in range(6):
        omega = 2 * k * math.pi / T2 if k else 0.0
        assert ramsey_visibility(omega, T2) == 1.0
    for k in range(6):
        omega = (2 * k + 1) * math.pi / T2
        assert ramsey_visibility(omega, T2) <= 5e-15
    v = ramsey_visibility(0.5 * math.pi / T2, T2)
    assert v == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)


@given(st.floats(0.0, 8.0))
def test_visibility_in_unit_interval(area_pi):
    assert 0.0 <= ramsey_visibility(area_pi * math.pi / T2, T2) <= 1.0


# ---------------------------------------------------------------------------
# scan grids


def test_symmetric_grid_contains_exact_zero():
    grid = symmetric_detuning_grid(mhz(10.0), 201)
    assert len(grid) == 201
    assert grid[100] == 0.0
    assert grid[0] == -grid[-1]
    assert all(grid[i] < grid[i + 1] for i in range(200))


@given(span=st.floats(5e-324, 1e300), half=st.integers(1, 2000))
def test_symmetric_grid_is_the_loop_grid_bit_for_bit(span, half):
    # the Python loop the grid was built with, and the refusal it made
    step = span / half
    loop = [step * k for k in range(-half, half + 1)]
    if any(b <= a for a, b in zip(loop, loop[1:])):
        with pytest.raises(ValueError, match="deltas must be strictly increasing"):
            symmetric_detuning_grid(span, 2 * half + 1)
    else:
        grid = symmetric_detuning_grid(span, 2 * half + 1)
        assert grid.dtype == np.float64
        assert [x.hex() for x in grid.tolist()] == [x.hex() for x in loop]


# ---------------------------------------------------------------------------
# sequence construction


def test_build_ramsey_sequence_layout():
    seq = build_ramsey_sequence(mhz(1.0), T1, mhz(12.5), T2,
                                inter_pulse_gap=10e-9)
    kinds = [type(s) for s in seq]
    assert kinds == [DriveSegment, Wait, DriveSegment, Wait, DriveSegment]
    first = seq[0]
    assert first.field == "mu1"
    assert first.rabi * first.duration == pytest.approx(0.5 * math.pi)
    assert first.detuning == mhz(1.0)
    mid = seq[2]
    assert mid.field == "mu2" and mid.duration == T2


def test_build_ramsey_sequence_without_mu2():
    seq = build_ramsey_sequence(0.0, T1, mhz(12.5), 0.0, 0.0)
    assert len(seq) == 2
    assert all(s.field == "mu1" for s in seq)


# ---------------------------------------------------------------------------
# backends


def test_backends_agree_on_resonance():
    grid = symmetric_detuning_grid(mhz(10.0), 21)
    (i0,) = np.flatnonzero(grid == 0.0)
    for area_pi in (0.0, 0.5, 1.0, 2.0, 3.0):
        omega = area_pi * math.pi / T2 if area_pi else 0.0
        scans = {}
        for backend in ("analytic", "unitary"):
            cfg = scan_config(t_mu1=T1, span=mhz(10.0), points=21, omega_mu2=omega,
                              t_mu2=T2, backend=backend)
            scans[backend] = fringe_scan(cfg, DissipationSection())
        assert scans["analytic"][i0] == pytest.approx(
            scans["unitary"][i0], abs=1e-12
        )


def test_fringeless_at_odd_pi_area_backends_agree_everywhere():
    # at intermediate area pi the interference term carries no fringe
    # phase, so the two backends must agree at every detuning
    omega = math.pi / T2
    out = {}
    for backend in ("analytic", "unitary"):
        cfg = scan_config(t_mu1=T1, span=mhz(10.0), points=81, omega_mu2=omega,
                          t_mu2=T2, backend=backend)
        out[backend] = fringe_scan(cfg, DissipationSection())
    assert np.abs(out["analytic"] - out["unitary"]).max() <= 1e-9


def test_lindblad_backend_zero_rates_matches_analytic_at_zero():
    grid = symmetric_detuning_grid(mhz(2.0), 5)
    cfg_a = scan_config(t_mu1=T1, span=mhz(2.0), points=5, omega_mu2=mhz(4.0),
                        t_mu2=T2, backend="analytic")
    cfg_l = scan_config(t_mu1=T1, span=mhz(2.0), points=5, omega_mu2=mhz(4.0),
                        t_mu2=T2, backend="lindblad")
    a = fringe_scan(cfg_a, DissipationSection())
    b = fringe_scan(cfg_l, DissipationSection())
    (i0,) = np.flatnonzero(grid == 0.0)
    assert a[i0] == pytest.approx(b[i0], abs=1e-7)


def test_extraction_matches_law_on_random_areas():
    rng = np.random.default_rng(51)
    for _ in range(50):
        area = rng.uniform(0.0, 4.0) * math.pi
        omega = area / T2
        for backend in ("analytic", "unitary"):
            cfg = scan_config(t_mu1=T1, span=mhz(10.0), points=41, omega_mu2=omega,
                              t_mu2=T2, backend=backend)
            v = extract_visibility(cfg, fringe_scan(cfg, DissipationSection()))
            assert v == pytest.approx(ramsey_visibility(omega, T2), abs=1e-9)


def test_scan_config_validation():
    # t_mu1, t_mu2, omega_mu2 and the gap are bounded by their config keys
    # (test_config); a step that underflows gives the grid
    # (-0.0, -0.0, 0.0, 0.0, 0.0), which symmetric_detuning_grid refuses
    with pytest.raises(ValueError, match="strictly increasing"):
        symmetric_detuning_grid(5e-324, 5)


def test_scan_i0_scales_intensities():
    base_cfg = scan_config(t_mu1=T1, span=mhz(3.0), points=5, omega_mu2=0.0, t_mu2=T2)
    scaled_cfg = scan_config(t_mu1=T1, span=mhz(3.0), points=5, omega_mu2=0.0, t_mu2=T2,
                             i0=2.5)
    base = fringe_scan(base_cfg, DissipationSection())
    scaled = fringe_scan(scaled_cfg, DissipationSection())
    assert np.allclose(scaled, 2.5 * base, rtol=0, atol=1e-12)
    assert extract_visibility(base_cfg, base) == pytest.approx(
        extract_visibility(scaled_cfg, scaled), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Rabi scan


def test_rabi_scan_even_split_and_period():
    omega = mhz(12.5)  # 80 ns period
    times = np.linspace(0.0, 160e-9, 81)
    table = rabi_scan(times, omega, t_mu1=20e-9, detuning2=0.0)
    p1 = table[:, 1]
    assert np.abs(p1 - 0.5).max() <= 1e-9
    # P2 + P3 carries the remaining half
    assert np.abs(table[:, 2] + table[:, 3] - 0.5).max() <= 1e-9
    # crossing at a quarter period (20 ns), full period at 80 ns
    idx20 = np.argmin(np.abs(times - 20e-9))
    assert table[idx20, 2] == pytest.approx(0.25, abs=1e-9)
    assert table[idx20, 3] == pytest.approx(0.25, abs=1e-9)
    idx80 = np.argmin(np.abs(times - 80e-9))
    assert table[idx80, 2] == pytest.approx(0.5, abs=1e-9)
    assert table[idx80, 3] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# stacked scans against the per-point sequence propagation


def _closed_form_state(segs):
    """Amplitudes after segs from the stored excitation, by the oracle."""
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)  # R1
    for seg in segs:
        psi = closed_form_unitary(seg) @ psi
    return psi


def _reference_scans(cfg, interactions, times, detuning2):
    """Unitary, mixture and Rabi results one point at a time, through
    build_ramsey_sequence: the qutrit from the closed-form oracle, the pair
    from a product of per-segment propagators."""
    single, double = [], []
    for d in symmetric_detuning_grid(cfg.span, cfg.points):
        seq = build_ramsey_sequence(d, cfg.t_mu1, cfg.omega_mu2, cfg.t_mu2, cfg.gap)
        single.append(cfg.i0 * abs(_closed_form_state(seq)[0]) ** 2)
        amps = np.eye(len(PAIR_CONFIGS), dtype=complex)[0]  # the stored pair (11)
        for s in seq:
            H = pair_hamiltonian(segment_hamiltonian(s), interactions)
            # the whole 6x6 as one block: one eigendecomposition per segment
            amps = hermitian_propagator(H, s.duration, (tuple(range(6)),)) @ amps
        double.append(cfg.i0 * (np.abs(amps) ** 2 @ _R1_OCC))
    single, double = np.array(single), np.array(double)
    p2 = interactions.p2
    mixed = single if p2 == 0.0 else (1.0 - p2) * single + p2 * double
    prep = DriveSegment("mu1", rabi=math.pi / (2.0 * cfg.t_mu1), duration=cfg.t_mu1)
    rows = []
    for t in times:
        segs = (prep,)
        if t > 0:
            segs += (DriveSegment("mu2", cfg.omega_mu2, t, detuning=detuning2),)
        state = _closed_form_state(segs)
        rows.append((t, *np.abs(state) ** 2))
    return single, mixed, np.array(rows)


def _assert_batched_matches_reference(cfg, interactions, times, detuning2):
    single, mixed, rows = _reference_scans(cfg, interactions, times, detuning2)
    tol = 1e-12 * cfg.i0
    no_rates = DissipationSection()
    assert np.abs(fringe_scan(cfg, no_rates) - single).max() <= tol
    assert np.abs(mixture_fringe_scan(cfg, no_rates, interactions) - mixed).max() <= tol
    table = rabi_scan(times, cfg.omega_mu2, t_mu1=cfg.t_mu1, detuning2=detuning2)
    assert np.array_equal(table[:, 0], rows[:, 0])
    assert np.abs(table[:, 1:] - rows[:, 1:]).max() <= 1e-12


_maybe_zero_time = st.one_of(st.just(0.0), st.floats(1e-9, 400e-9))


@given(
    t_mu1=st.floats(5e-9, 200e-9),
    omega_mu2=st.floats(0.0, mhz(25.0)),
    t_mu2=_maybe_zero_time,
    gap=st.one_of(st.just(0.0), st.floats(1e-9, 100e-9)),
    I0=st.floats(0.1, 5.0),
    v_int=st.floats(-mhz(1.0), mhz(1.0)),
    p2=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    detuning2=st.floats(-mhz(5.0), mhz(5.0)),
    span=st.floats(mhz(0.5), mhz(20.0)),
    points=st.sampled_from([3, 5, 9, 17]),
    t_max=st.floats(1e-9, 400e-9),
)
def test_batched_scans_match_per_point_reference(
    t_mu1, omega_mu2, t_mu2, gap, I0, v_int, p2, detuning2, span, points, t_max
):
    cfg = scan_config(
        t_mu1=t_mu1, span=span, points=points,
        omega_mu2=omega_mu2, t_mu2=t_mu2, backend="unitary", i0=I0, gap=gap,
    )
    times = np.linspace(0.0, t_max, points)
    _assert_batched_matches_reference(
        cfg, InteractionSection(v_int, p2), times, detuning2
    )
    # the analytic backend sees the gaps as dead time only: a gap g is the
    # gap-0 scan whose mu2 pulse is 2g longer at the same area, the same K
    # and the same t_total
    stretched = t_mu2 + 2.0 * gap
    if stretched > 0:
        gapped = scan_config(t_mu1, span, points, omega_mu2, t_mu2, i0=I0, gap=gap)
        ref = scan_config(t_mu1, span, points, omega_mu2 * t_mu2 / stretched, stretched, i0=I0)
        no_rates = DissipationSection()
        assert np.abs(fringe_scan(gapped, no_rates) - fringe_scan(ref, no_rates)).max() <= 1e-12 * I0


@pytest.mark.parametrize("points", [3, BLOCK_POINTS - 1, BLOCK_POINTS + 1, 2 * BLOCK_POINTS + 1])
def test_batched_scans_do_not_depend_on_block_boundaries(points):
    cfg = scan_config(
        t_mu1=40e-9, span=mhz(12.0), points=points,
        omega_mu2=mhz(9.0), t_mu2=130e-9, backend="unitary", i0=1.3, gap=15e-9,
    )
    times = np.linspace(0.0, 200e-9, points)
    _assert_batched_matches_reference(
        cfg, InteractionSection(mhz(0.3), 0.4), times, mhz(1.5)
    )


@pytest.mark.parametrize("backend", ["unitary", "analytic", "lindblad"])
@pytest.mark.parametrize("gap", [0.0, 15e-9])
def test_mixture_scan_is_the_same_bits_for_any_block_size(monkeypatch, gap, backend):
    # both branches join their blocks; LINDBLAD runs here at zero rates
    points = 301
    cfg = scan_config(
        t_mu1=40e-9, span=mhz(12.0), points=points,
        omega_mu2=mhz(9.0), t_mu2=130e-9, backend=backend, i0=1.3, gap=gap,
    )
    interactions = InteractionSection(mhz(0.3), 0.4)
    scans = {}
    for block in (1, 7, 256, points + 1):
        monkeypatch.setattr(ramsey, "BLOCK_POINTS", block)
        scans[block] = mixture_fringe_scan(cfg, DissipationSection(), interactions)
    for scan in scans.values():
        assert np.array_equal(scan, scans[256])


_rates = st.tuples(*[st.floats(0.0, 5e6)] * 3)


@settings(max_examples=10)
@given(
    t_mu1=st.floats(5e-9, 200e-9),
    omega_mu2=st.floats(0.0, mhz(25.0)),
    t_mu2=_maybe_zero_time,
    gap=st.one_of(st.just(0.0), st.floats(1e-9, 100e-9)),
    I0=st.floats(0.1, 5.0),
    decay=_rates,
    deph=_rates,
    span=st.floats(mhz(0.5), mhz(20.0)),
    points=st.sampled_from([3, BLOCK_POINTS - 1, BLOCK_POINTS + 1, 2 * BLOCK_POINTS + 1]),
)
def test_lindblad_scan_matches_per_point_master_equation(
    t_mu1, omega_mu2, t_mu2, gap, I0, decay, deph, span, points
):
    params = DissipationSection(*decay, *deph)
    cfg = scan_config(
        t_mu1=t_mu1, span=span, points=points,
        omega_mu2=omega_mu2, t_mu2=t_mu2, backend="lindblad", i0=I0, gap=gap,
    )
    ref = [
        I0 * evolve_master(
            build_ramsey_sequence(d, t_mu1, omega_mu2, t_mu2, gap), params
        )[0].real
        for d in symmetric_detuning_grid(span, points)
    ]
    assert np.abs(fringe_scan(cfg, params) - ref).max() <= 1e-12 * I0
