import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqlab.config import DissipationSection, InteractionSection
from seqlab.pairwise import (
    PAIR_CONFIGS,
    _lift_tensor,
    lift_single_particle,
    mixture_fringe_scan,
    pair_blocks,
    pair_hamiltonian,
)
from seqlab.photostats import fit_sinusoid
from seqlab.qcore import (
    FIELDS,
    DriveSegment,
    Wait,
    hermitian_propagator,
    segment_blocks,
    segment_hamiltonian,
)
from seqlab.ramsey import (
    build_ramsey_sequence,
    fringe_scan,
    symmetric_detuning_grid,
)
from seqlab.units import mhz
from references import scan_config, sequence_unitary

FREE = InteractionSection(0.0, 0.0)  # no shift, no doubles


def _symmetric_isometry() -> np.ndarray:
    """9x6 orthonormal isometry from the six configurations into C3 x C3:
    e_aa -> |aa>, e_ab -> (|ab> + |ba>)/sqrt(2)."""
    S = np.zeros((9, 6), dtype=complex)
    for col, (a, b) in enumerate(PAIR_CONFIGS):
        if a == b:
            S[3 * a + b, col] = 1.0
        else:
            S[3 * a + b, col] = 1.0 / math.sqrt(2)
            S[3 * b + a, col] = 1.0 / math.sqrt(2)
    return S


_S = _symmetric_isometry()


def _tensor_lift(h3: np.ndarray) -> np.ndarray:
    """Brute-force oracle: h x I + I x h on C3 x C3, projected onto the
    symmetric subspace through the isometry."""
    h9 = np.kron(h3, np.eye(3)) + np.kron(np.eye(3), h3)
    return _S.conj().T @ h9 @ _S


def _pair_sequence_propagator(segs, interactions) -> np.ndarray:
    """Per-segment product of the blockwise pair propagators (last segment
    last)."""
    U = np.eye(6, dtype=complex)
    for s in segs:
        H = pair_hamiltonian(segment_hamiltonian(s), interactions)
        U = hermitian_propagator(H, s.duration, pair_blocks(segment_blocks(s))) @ U
    return U


def _random_hermitian(rng) -> np.ndarray:
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return 0.5 * (m + m.conj().T)


# ---------------------------------------------------------------------------
# symmetric lift vs two-particle tensor oracle


def test_lift_matches_tensor_oracle_random():
    rng = np.random.default_rng(20260815)
    stack = np.array([_random_hermitian(rng) for _ in range(50)])
    for h3 in stack:
        dev = np.abs(lift_single_particle(h3) - _tensor_lift(h3)).max()
        assert dev <= 1e-12
    # a (5, 10, 3, 3) stack lifts matrix by matrix
    lifted = lift_single_particle(stack.reshape(5, 10, 3, 3)).reshape(50, 6, 6)
    for h3, H in zip(stack, lifted):
        assert np.abs(H - _tensor_lift(h3)).max() <= 1e-12


def test_lift_matches_tensor_oracle_physical_scale():
    mu1 = DriveSegment("mu1", rabi=mhz(5.0), duration=20e-9,
                       detuning=mhz(1.0), phase=0.3)
    mu2 = DriveSegment("mu2", rabi=mhz(12.5), duration=250e-9,
                       detuning=mhz(0.5), phase=-1.1)
    h3 = segment_hamiltonian(mu1) + segment_hamiltonian(mu2)
    lifted = lift_single_particle(h3)
    oracle = _tensor_lift(h3)
    scale = np.abs(oracle).max()
    assert np.abs(lifted - oracle).max() / scale <= 1e-12


_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            arrays(float, (n, 3, 3), elements=_entries),
            arrays(float, (n, 3, 3), elements=_entries),
        )
    )
)
def test_lift_is_hermitian(parts):
    m = parts[0] + 1j * parts[1]
    stack = 0.5 * (m + m.conj().swapaxes(-1, -2))
    H = lift_single_particle(stack)
    assert H.shape == (stack.shape[0], 6, 6)
    assert np.abs(H - H.conj().swapaxes(-1, -2)).max() <= 1e-12


def _einsum_lift(h3: np.ndarray) -> np.ndarray:
    """Reference lift: the sum over x, y of h3[..., x, y] T[x, y] with the
    (3, 3, 6, 6) bosonic tensor T, entry by entry."""
    return np.einsum("...xy,xyij->...ij", h3, _lift_tensor())


def _assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


# any finite magnitude whose sqrt(2) multiple stays finite, signed zeros and
# subnormals included
_bits = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0]
)
_stack_shapes = st.sampled_from([(), (1,), (4,), (2, 3), (1, 5)])


@given(
    _stack_shapes.flatmap(
        lambda shape: st.tuples(
            arrays(float, shape + (3, 3), elements=_bits),
            arrays(float, shape + (3, 3), elements=_bits),
            arrays(float, shape + (3, 3), elements=st.floats(-math.pi, math.pi)),
        )
    )
)
def test_lift_is_the_einsum_bit_for_bit(parts):
    real, imag, phase = parts
    for h3 in (real, real + 1j * imag, (real + 1j * imag) * np.exp(1j * phase)):
        _assert_same_bits(lift_single_particle(h3), _einsum_lift(h3))


@given(
    st.lists(st.floats(-mhz(30.0), mhz(30.0)), min_size=1, max_size=12),
    st.floats(1e-9, 200e-9),
    st.floats(0.0, mhz(25.0)),
    st.sampled_from([0.0, 150e-9]),
    st.sampled_from([0.0, 15e-9]),
)
def test_lift_of_ramsey_hamiltonians_is_the_einsum_bit_for_bit(deltas, t_mu1, omega, t_mu2, gap):
    seq = build_ramsey_sequence(np.array(deltas), t_mu1, omega, t_mu2, gap)
    for seg in seq:
        h3 = np.broadcast_to(segment_hamiltonian(seg), (len(deltas), 3, 3))
        for stack in (h3[0], h3, h3.reshape(1, -1, 3, 3)):
            _assert_same_bits(lift_single_particle(stack), _einsum_lift(stack))


def test_bosonic_enhancement_factors():
    rng = np.random.default_rng(3)
    h3 = _random_hermitian(rng)
    H = lift_single_particle(h3)
    # (11)->(12): move one of two R1 excitations, sqrt(2) enhancement
    assert abs(H[0, 1] - math.sqrt(2) * h3[0, 1]) <= 1e-14
    # (12)->(22): the incoming level already holds one excitation
    assert abs(H[1, 3] - math.sqrt(2) * h3[0, 1]) <= 1e-14
    # (12)->(13): spectator excitation, bare matrix element
    assert abs(H[1, 2] - h3[1, 2]) <= 1e-14


def test_resonant_drive_coupling_is_sqrt2_half_rabi():
    seg = DriveSegment("mu1", rabi=mhz(10.0), duration=20e-9)
    H = pair_hamiltonian(segment_hamiltonian(seg), FREE)
    assert abs(H[0, 1] - math.sqrt(2) * mhz(10.0) / 2.0) <= 1e-6


# ---------------------------------------------------------------------------
# interaction shifts


@pytest.mark.parametrize("v", [mhz(0.3), -mhz(0.3)], ids=["positive", "negative"])
def test_v_int_shifts_every_configuration_but_the_stored_pair(v):
    H = pair_hamiltonian(segment_hamiltonian(Wait(10e-9)), InteractionSection(v, p2=0.25))
    assert np.array_equal(H, np.diag([0.0] + [v] * 5))
    assert not np.signbit(H[0, 0].real)  # a literal zero, also for negative v


def test_build_adds_diagonal_shifts_to_lift():
    seg = DriveSegment("mu2", rabi=mhz(12.5), duration=100e-9)
    v = mhz(0.4)
    H = pair_hamiltonian(segment_hamiltonian(seg), InteractionSection(v, p2=0.0))
    bare = lift_single_particle(segment_hamiltonian(seg))
    assert np.abs((H - bare) - np.diag([0.0] + [v] * 5)).max() <= 1e-12


def test_interactions_persist_during_wait():
    v = mhz(0.5)
    t = 120e-9
    amps = np.zeros(6, dtype=complex)
    amps[0] = amps[1] = 1.0 / math.sqrt(2)
    out = _pair_sequence_propagator((Wait(t),), InteractionSection(v, p2=0.0)) @ amps
    # stored pair sets the energy zero; (12) acquires exp(-i v t)
    assert abs(out[0] - amps[0]) <= 1e-12
    assert abs(out[1] - amps[1] * np.exp(-1j * v * t)) <= 1e-12


# ---------------------------------------------------------------------------
# pair state and propagation


@given(st.integers(0, 2**32 - 1))
def test_pair_propagation_is_unitary(seed):
    rng = np.random.default_rng(seed)
    segs = []
    for _ in range(rng.integers(1, 5)):
        kind = rng.random()
        if kind < 0.3:
            segs.append(Wait(float(rng.uniform(1e-9, 2e-7))))
        else:
            field = "mu1" if rng.random() < 0.5 else "mu2"
            segs.append(
                DriveSegment(
                    field,
                    rabi=float(rng.uniform(0, mhz(20.0))),
                    duration=float(rng.uniform(1e-9, 2e-7)),
                    detuning=float(rng.uniform(-mhz(5.0), mhz(5.0))),
                    phase=float(rng.uniform(-math.pi, math.pi)),
                )
            )
    params = InteractionSection(float(rng.uniform(-mhz(1.0), mhz(1.0))), p2=0.0)
    out = _pair_sequence_propagator(segs, params)[:, 0]  # from the stored pair (11)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-9


_segments = st.one_of(
    st.builds(
        DriveSegment,
        field=st.sampled_from(FIELDS),
        rabi=st.floats(0.0, mhz(25.0)),
        duration=st.floats(1e-9, 1e-6),
        detuning=st.floats(-mhz(10.0), mhz(10.0)),
        phase=st.floats(-math.pi, math.pi),
    ),
    st.builds(Wait, duration=st.floats(1e-9, 1e-6)),
)


@given(st.lists(_segments, min_size=1, max_size=5))
def test_free_pair_propagator_is_symmetric_product(segs):
    # without interaction shifts the two excitations evolve independently,
    # so the pair propagator is U x U restricted to the symmetric subspace
    U = sequence_unitary(segs)
    ref = _S.conj().T @ np.kron(U, U) @ _S
    assert np.abs(_pair_sequence_propagator(segs, FREE) - ref).max() <= 1e-12


# ---------------------------------------------------------------------------
# mixture fringe scan


NO_RATES = DissipationSection()


def _scan_config(points=161, span=mhz(7.0), t_mu2=150e-9):
    return scan_config(20e-9, span, points, 2.0 * math.pi / t_mu2, t_mu2)


def test_mixture_reduces_to_single_scan_at_p2_zero():
    config = _scan_config(points=41)
    single = fringe_scan(config, NO_RATES)
    mixed = mixture_fringe_scan(config, NO_RATES, InteractionSection(mhz(0.5), p2=0.0))
    assert np.array_equal(mixed, single)


def test_zero_interactions_double_is_twice_single():
    # independent excitations: E[n_R1] = 2 P_single against the unitary
    # backend, which evolves the same sequence Hamiltonians as the pair,
    # so the mixture is (1 + p2) times the single-excitation fringe
    p2 = 0.4
    base = _scan_config(points=41)
    config = replace(base, backend="unitary")
    single = fringe_scan(config, NO_RATES)
    mixed = mixture_fringe_scan(config, NO_RATES, InteractionSection(0.0, p2=p2))
    for s, m in zip(single, mixed):
        assert abs(m - (1.0 + p2) * s) <= 1e-12


def _fit_scan(config, intensities, hint):
    grid = symmetric_detuning_grid(config.span, config.points)
    return fit_sinusoid(np.asarray(grid), intensities, hint)


def test_zero_interactions_leave_fitted_phase_unchanged():
    config = _scan_config()
    hint = 2 * config.t_mu1 + config.t_mu2
    single_fit = _fit_scan(config, fringe_scan(config, NO_RATES), hint)
    mixed_fit = _fit_scan(
        config, mixture_fringe_scan(config, NO_RATES, InteractionSection(0.0, p2=0.4)), hint
    )
    assert single_fit["converged"] and mixed_fit["converged"]
    assert abs(mixed_fit["phase"] - single_fit["phase"]) <= 1e-6


@given(
    t_mu1=st.floats(5e-9, 1e-6),
    area=st.floats(0.0, 4.0 * math.pi),  # of the intermediate mu2 pulse
    t_mu2=st.floats(1e-9, 1e-6),
    span=st.floats(mhz(0.01), mhz(50.0)),
    points=st.integers(1, 150).map(lambda n: 2 * n + 1),  # up to two blocks
    gap=st.one_of(st.just(0.0), st.floats(1e-9, 200e-9)),
    p2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    v_int=st.floats(-mhz(5.0), mhz(5.0)),
)
def test_zero_rate_lindblad_mixture_is_the_unitary_one_bit_for_bit(
    t_mu1, area, t_mu2, span, points, gap, p2, v_int
):
    # without a rate the master equation walks the unitary backend's pure
    # state and reads its populations as that backend does
    unitary = scan_config(t_mu1, span, points, area / t_mu2, t_mu2, backend="unitary", gap=gap)
    interaction = InteractionSection(v_int, p2)
    lindblad = mixture_fringe_scan(replace(unitary, backend="lindblad"), NO_RATES, interaction)
    assert np.array_equal(lindblad, mixture_fringe_scan(unitary, NO_RATES, interaction))


def test_mixture_intensity_bounds():
    config = _scan_config(points=81)
    p2 = 0.3
    mixed = mixture_fringe_scan(
        config, NO_RATES, InteractionSection(mhz(0.2), p2=p2)
    )
    upper = (1.0 - p2) * config.i0 + 2.0 * p2 * config.i0
    for y in mixed:
        assert -1e-12 <= y <= upper + 1e-12


def test_interaction_sign_reflects_the_fringe():
    # complex conjugation maps (delta, v) -> (-delta, -v) up to a level
    # gauge, so the scan with -v is the delta-reversed scan with +v
    config = _scan_config(points=81)
    plus = mixture_fringe_scan(
        config, NO_RATES, InteractionSection(mhz(0.3), p2=0.3)
    )
    minus = mixture_fringe_scan(
        config, NO_RATES, InteractionSection(-mhz(0.3), p2=0.3)
    )
    for yp, ym in zip(plus, minus[::-1]):
        assert abs(yp - ym) <= 1e-9


def test_fitted_phase_offset_antisymmetric_and_monotone():
    config = _scan_config()
    hint = 2 * config.t_mu1 + config.t_mu2
    phases = []
    for v in (-mhz(0.1), 0.0, mhz(0.1)):
        fit = _fit_scan(
            config,
            mixture_fringe_scan(config, NO_RATES, InteractionSection(v, p2=0.3)),
            hint,
        )
        assert fit["converged"]
        phases.append(fit["phase"])
    assert phases[0] > phases[1] > phases[2]
    assert abs(phases[1]) <= 1e-6
    assert abs(phases[0] + phases[2]) <= 1e-6


@pytest.mark.parametrize(
    "rates",
    [
        DissipationSection(gamma_decay_1=5e6, gamma_decay_2=5e6, gamma_decay_3=5e6),
        DissipationSection(gamma_deph_2=1e5),
    ],
)
def test_mixture_refuses_lindblad_with_rates(rates):
    # the double branch is closed: under LINDBLAD it would stay undamped
    # while the single branch decays, and the mixture used to report that
    lindblad = replace(_scan_config(points=5), backend="lindblad")
    refused = r"^interaction\.p2 = 0\.5 with non-zero dissipation rates"
    with pytest.raises(ValueError, match=refused):
        mixture_fringe_scan(lindblad, rates, InteractionSection(0.0, p2=0.5))
    # p2 = 0 is the dissipative single scan
    assert np.array_equal(
        mixture_fringe_scan(lindblad, rates, FREE), fringe_scan(lindblad, rates)
    )
    # the closed backends ignore the rates; zero rates under LINDBLAD
    # shadow the unitary mixture
    interactions = InteractionSection(mhz(0.2), p2=0.5)
    unitary_scan = replace(lindblad, backend="unitary")
    unitary = mixture_fringe_scan(unitary_scan, rates, interactions)
    assert np.array_equal(unitary, mixture_fringe_scan(unitary_scan, NO_RATES, interactions))
    zero_rates = mixture_fringe_scan(lindblad, NO_RATES, interactions)
    assert np.abs(zero_rates - unitary).max() <= 1e-9
