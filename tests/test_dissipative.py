import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqlab.dissipative import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    _THETA13,
    DissipationParams,
    NumericError,
    evolve_master,
    expm,
    liouvillian,
    _validate_density,
)
from seqlab.qcore import (
    DriveField,
    DriveSegment,
    PulseSequence,
    Wait,
    segment_hamiltonian,
    sequence_unitary,
)
from seqlab.units import mhz
from test_qcore import closed_form_unitary


def _random_sequence(rng, max_segments=6):
    segs = []
    for _ in range(rng.integers(1, max_segments + 1)):
        if rng.random() < 0.25:
            segs.append(Wait(float(rng.uniform(5e-9, 100e-9))))
        else:
            segs.append(
                DriveSegment(
                    field=DriveField.MU1 if rng.random() < 0.5 else DriveField.MU2,
                    rabi=float(rng.uniform(0.0, mhz(20.0))),
                    duration=float(rng.uniform(5e-9, 120e-9)),
                    detuning=float(rng.uniform(-mhz(5.0), mhz(5.0))),
                    phase=float(rng.uniform(-math.pi, math.pi)),
                )
            )
    return PulseSequence(tuple(segs))


def _trace_distance(a, b):
    vals = np.linalg.eigvalsh(a - b)
    return 0.5 * np.abs(vals).sum()


def cut_sequences(seq, dt):
    """seq cut off at t0 + k*dt strictly inside each segment starting at
    t0, and at each segment's end, in time order: the prefixes whose final
    states sample the evolution every dt."""
    for i, seg in enumerate(seq.segments):
        k = 1
        while k * dt < seg.duration:
            yield PulseSequence(seq.segments[:i] + (dataclasses.replace(seg, duration=k * dt),))
            k += 1
        yield PulseSequence(seq.segments[:i + 1])


def assert_physical(m):
    assert abs(np.trace(m).real - 1.0) <= TRACE_TOL
    assert np.abs(m - m.conj().T).max() <= HERMITICITY_TOL
    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -POSITIVITY_TOL


RATES = DissipationParams(
    gamma_decay=(1e5, 2e5, 3e5), gamma_deph=(1e5, 1e5, 2e5)
)


# ---------------------------------------------------------------------------
# unitary limit


def test_zero_rates_reproduce_unitary_evolution():
    rng = np.random.default_rng(7011)
    for _ in range(5):
        seq = _random_sequence(rng)
        final = evolve_master(seq, DissipationParams())
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)  # R1, the stored excitation
        for seg in seq.segments:
            psi = closed_form_unitary(seg) @ psi
        expected = np.zeros((4, 4), dtype=complex)
        expected[:3, :3] = np.outer(psi, psi.conj())
        assert _trace_distance(final, expected) <= 1e-8


# ---------------------------------------------------------------------------
# physicality invariants along trajectories


def test_invariants_hold_at_all_samples():
    seq = PulseSequence(
        (
            DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9),
            DriveSegment(DriveField.MU2, rabi=mhz(12.5), duration=250e-9),
            Wait(50e-9),
            DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9),
        )
    )
    cuts = list(cut_sequences(seq, 5e-9))
    assert len(cuts) > 20
    for cut in cuts:
        assert_physical(evolve_master(cut, RATES))
    # the density check agrees
    _validate_density(evolve_master(seq, RATES))


def test_population_leaks_into_loss_level():
    seq = PulseSequence((Wait(2e-6),))
    params = DissipationParams(gamma_decay=(5e5, 0.0, 0.0))
    final = evolve_master(seq, params)
    p1, p2, p3, ploss = np.diagonal(final).real
    expected = math.exp(-5e5 * 2e-6)
    assert p1 == pytest.approx(expected, abs=1e-9)
    assert ploss == pytest.approx(1.0 - expected, abs=1e-9)
    assert p2 == pytest.approx(0.0, abs=1e-12) and p3 == pytest.approx(0.0, abs=1e-12)


def test_dephasing_damps_coherence_exponentially():
    # prepare an R1/R2 superposition, dephase R2 during a wait
    prep = DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9)
    t_wait = 1e-6
    rate = 4e5
    seq = PulseSequence((prep, Wait(t_wait)))
    params = DissipationParams(gamma_deph=(0.0, rate, 0.0))
    final = evolve_master(seq, params)
    # coherence after the pulse alone
    ref = evolve_master(PulseSequence((prep,)), params)
    c_before = abs(ref[0, 1])
    c_after = abs(final[0, 1])
    assert c_after == pytest.approx(c_before * math.exp(-0.5 * rate * t_wait), abs=1e-6)
    # populations untouched by pure dephasing
    assert final[0, 0].real == pytest.approx(ref[0, 0].real, abs=1e-9)


# ---------------------------------------------------------------------------
# exact propagation


CANONICAL_RAMSEY = PulseSequence(
    (
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9),
        DriveSegment(DriveField.MU2, rabi=mhz(12.5), duration=250e-9),
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9),
    )
)


def _random_liouvillian(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (h + h.conj().T) * rng.uniform(0.0, mhz(20.0))
    ops = [
        (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        * math.sqrt(rng.uniform(0.0, 5e6))
        for _ in range(rng.integers(0, 4))
    ]
    return liouvillian(h, ops)


def test_expm_matches_scipy_on_random_liouvillians():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(5150)
    for _ in range(200):
        a = _random_liouvillian(rng) * rng.uniform(0.0, 2e-6)
        ref = scipy_linalg.expm(a)
        assert np.abs(expm(a) - ref).max() <= 1e-12 * np.abs(ref).max()


def _rk4_oracle(rho, sequence, params):
    """Fixed-step RK4 at 0.05 ns on the matrix form of the master equation,
    drho/dt = -i (K rho - rho K^+) + sum_C C rho C^+ with K = H - i/2 sum_C C^+ C.
    Its own error is ~1e-11 on the canonical sequence."""
    ops = np.array(params.collapse_operators())
    ops_dag = ops.conj().transpose(0, 2, 1)
    damping = 0.5j * (ops_dag @ ops).sum(axis=0)

    def rhs(r, K):
        return -1j * (K @ r - r @ K.conj().T) + (ops @ r @ ops_dag).sum(axis=0)

    for seg in sequence.segments:
        K = -damping.copy()
        K[:3, :3] += segment_hamiltonian(seg)
        n = math.ceil(seg.duration / 0.05e-9)
        dt = seg.duration / n
        for _ in range(n):
            k1 = rhs(rho, K)
            k2 = rhs(rho + 0.5 * dt * k1, K)
            k3 = rhs(rho + 0.5 * dt * k2, K)
            k4 = rhs(rho + dt * k3, K)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def test_final_state_matches_fine_step_rk4_oracle():
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0  # the stored excitation
    final = evolve_master(CANONICAL_RAMSEY, RATES)
    oracle = _rk4_oracle(rho0, CANONICAL_RAMSEY, RATES)
    assert _trace_distance(final, oracle) <= 1e-9


_segments = st.lists(
    st.one_of(
        st.builds(Wait, st.floats(1e-9, 300e-9)),
        st.builds(
            DriveSegment,
            field=st.sampled_from(DriveField),
            rabi=st.floats(0.0, mhz(20.0)),
            duration=st.floats(1e-9, 300e-9),
            detuning=st.floats(-mhz(5.0), mhz(5.0)),
            phase=st.floats(-math.pi, math.pi),
        ),
    ),
    min_size=1,
    max_size=4,
)
_rates = st.tuples(*[st.floats(0.0, 5e6)] * 3)


@given(
    segments=_segments,
    decay=_rates,
    deph=_rates,
    dt=st.floats(2e-9, 50e-9),
)
# a slow pi/2 pulse around a long detuned mu2 drive: an under-resolved
# stepping integrator loses positivity here
@example(
    segments=[
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 100e-9), duration=100e-9),
        DriveSegment(DriveField.MU2, rabi=mhz(12.5), detuning=mhz(5.0), duration=250e-9),
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 100e-9), duration=100e-9),
    ],
    decay=(0.0, 0.0, 0.0),
    deph=(0.0, 0.0, 0.0),
    dt=5e-9,
)
def test_every_sample_is_physical(segments, decay, deph, dt):
    params = DissipationParams(gamma_decay=decay, gamma_deph=deph)
    for cut in cut_sequences(PulseSequence(tuple(segments)), dt):
        assert_physical(evolve_master(cut, params))


# ---------------------------------------------------------------------------
# guards and plumbing


def test_validate_flags_unphysical_matrices():
    bad_trace = np.diag([0.7, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericError):
        _validate_density(bad_trace)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    m[0, 1] = 1e-3  # non-Hermitian
    with pytest.raises(NumericError):
        _validate_density(m)


def test_dissipation_params_validation():
    with pytest.raises(ValueError):
        DissipationParams(gamma_decay=(-1.0, 0.0, 0.0))
    ops = RATES.collapse_operators()
    assert len(ops) == 6  # three decay + three dephasing channels
    assert all(op.shape == (4, 4) for op in ops)


# ---------------------------------------------------------------------------
# batches of sequences and stacked kernels


def test_stacked_expm_matches_per_matrix_calls():
    rng = np.random.default_rng(4242)
    gens = [np.zeros((16, 16), dtype=complex)]
    for target in (1e-3, 10.0, 40.0, 300.0, 3000.0):  # 1-norms
        g = _random_liouvillian(rng)
        gens.append(g * target / np.abs(g).sum(axis=0).max())
    gens = np.array(gens)
    norms = np.abs(gens).sum(axis=-2).max(axis=-1)
    # scaling exponents 0, 1, 3, 6 and 10 beside the zero generator
    exponents = {max(0, math.ceil(math.log2(x / _THETA13))) for x in norms[1:]}
    assert norms[0] == 0.0 and len(exponents) == 5
    stacked = expm(gens)
    for g, r in zip(gens, stacked):
        assert np.array_equal(expm(g), r)
    assert np.abs(stacked[0] - np.eye(16)).max() <= 1e-15
    # leading axes of any shape
    assert np.array_equal(expm(gens.reshape(2, 3, 16, 16)), stacked.reshape(2, 3, 16, 16))


@st.composite
def _stacked_sequences(draw):
    """(stacked sequence, the per-point scalar sequences, points): some
    drive values are arrays over the points, and one stacked segment
    object appears twice, anywhere in the sequence."""
    points = draw(st.integers(1, 4))

    def value(lo, hi):
        if draw(st.booleans()):
            return np.array(draw(st.lists(st.floats(lo, hi), min_size=points, max_size=points)))
        return draw(st.floats(lo, hi))

    def drive():
        return DriveSegment(
            field=draw(st.sampled_from(list(DriveField))),
            rabi=value(0.0, mhz(20.0)),
            duration=draw(st.floats(3e-9, 120e-9)),
            detuning=value(-mhz(5.0), mhz(5.0)),
            phase=value(-math.pi, math.pi),
        )

    scan = DriveSegment(
        DriveField.MU1, rabi=mhz(6.25), duration=40e-9,
        detuning=np.linspace(-mhz(3.0), mhz(3.0), points),
    )
    segs = [
        drive() if draw(st.booleans()) else Wait(draw(st.floats(3e-9, 100e-9)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    first = draw(st.integers(0, len(segs)))
    segs.insert(first, scan)
    segs.insert(draw(st.integers(first + 1, len(segs))), scan)
    stacked = tuple(segs)
    per_point = []
    for i in range(points):
        scalar = {}
        for seg in stacked:
            if isinstance(seg, DriveSegment) and id(seg) not in scalar:
                scalar[id(seg)] = dataclasses.replace(seg, **{
                    k: float(np.broadcast_to(getattr(seg, k), (points,))[i])
                    for k in ("rabi", "detuning", "phase")
                })
        per_point.append(PulseSequence(tuple(scalar.get(id(s), s) for s in stacked)))
    return PulseSequence(stacked), per_point, points


# prepares 0.6 |R1> + 0.8i |R2> from the stored excitation
PREP_06_08 = DriveSegment(
    DriveField.MU1, rabi=2.0 * math.acos(0.6) / 20e-9, duration=20e-9, phase=math.pi
)


@given(_stacked_sequences())
def test_stacked_sequence_equals_per_point_sequences(case):
    stacked, per_point, points = case
    stacked = PulseSequence((PREP_06_08,) + stacked.segments)
    final = evolve_master(stacked, RATES)
    assert final.shape == (points, 4, 4)
    U = sequence_unitary(stacked.segments)
    for i, seq in enumerate(per_point):
        seq = PulseSequence((PREP_06_08,) + seq.segments)
        assert np.array_equal(final[i], evolve_master(seq, RATES))
        assert np.array_equal(U[i], sequence_unitary(seq.segments))


def test_unphysical_state_on_the_last_stacked_point_raises(monkeypatch):
    import seqlab.dissipative as dissipative

    real_expm = dissipative.expm

    def leaky_last_map(a):
        out = real_expm(a)
        out[-1] *= 1.5  # the last map of the stack no longer keeps the trace
        return out

    monkeypatch.setattr(dissipative, "expm", leaky_last_map)
    seq = PulseSequence((
        DriveSegment(DriveField.MU2, rabi=mhz(12.5), duration=250e-9),
        DriveSegment(
            DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9,
            detuning=np.array([-mhz(1.0), 0.0, mhz(1.0)]),
        ),
    ))
    # distinct segments in order of appearance: mu2, then the three mu1
    # points; the last map is the mu1 pulse at the last detuning only
    with pytest.raises(NumericError, match=r"^at t=2\.700e-07 s: trace drifted"):
        evolve_master(seq, RATES)


def test_validate_checks_every_matrix_of_a_stack():
    good = np.zeros((7, 4, 4), dtype=complex)
    good[:, 0, 0] = 1.0
    _validate_density(good)
    bad_cases = {
        "non-finite": (3, 1, 1, math.nan),
        "hermiticity": (5, 0, 1, 1e-3),
        "trace": (6, 0, 0, 0.7),
        "positivity": (2, 1, 1, -1e-3),
    }
    for what, (i, r, c, value) in bad_cases.items():
        m = good.copy()
        m[i, r, c] = value
        if what == "positivity":
            m[i, 0, 0] = 1.0 + 1e-3  # keep the trace
        with pytest.raises(NumericError, match=what.split("-")[0]):
            _validate_density(m)
