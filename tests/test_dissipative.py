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
    DensityMatrix,
    DissipationParams,
    NumericError,
    evolve_master,
    expm,
    liouvillian,
)
from seqlab.qcore import (
    DriveField,
    DriveSegment,
    PulseSequence,
    QutritState,
    Readout,
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


RATES = DissipationParams(
    gamma_decay=(1e5, 2e5, 3e5), gamma_deph=(1e5, 1e5, 2e5)
)


# ---------------------------------------------------------------------------
# unitary limit


def test_zero_rates_reproduce_unitary_evolution():
    rng = np.random.default_rng(7011)
    rho0 = DensityMatrix.pure(QutritState.r1())
    for _ in range(5):
        seq = _random_sequence(rng)
        traj = evolve_master(rho0, seq, DissipationParams())
        psi = QutritState.r1().as_array()
        for seg in seq.segments:
            psi = closed_form_unitary(seg) @ psi
        expected = np.zeros((4, 4), dtype=complex)
        expected[:3, :3] = np.outer(psi, psi.conj())
        assert _trace_distance(traj.final.matrix, expected) <= 1e-8


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
    traj = evolve_master(DensityMatrix.pure(QutritState.r1()), seq, RATES, sample_dt=5e-9)
    assert len(traj.times) > 20
    assert all(traj.times[i] < traj.times[i + 1] for i in range(len(traj.times) - 1))
    for dm in traj.states:
        m = dm.matrix
        assert abs(np.trace(m).real - 1.0) <= 1e-8
        assert np.abs(m - m.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(m).min() >= -1e-8
    # validate() agrees
    traj.final.validate()


def test_population_leaks_into_loss_level():
    seq = PulseSequence((Wait(2e-6),))
    params = DissipationParams(gamma_decay=(5e5, 0.0, 0.0))
    traj = evolve_master(DensityMatrix.pure(QutritState.r1()), seq, params)
    p1, p2, p3, ploss = np.diagonal(traj.final.matrix).real
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
    traj = evolve_master(DensityMatrix.pure(QutritState.r1()), seq, params)
    # coherence after the pulse alone
    ref = evolve_master(
        DensityMatrix.pure(QutritState.r1()), PulseSequence((prep,)), params
    )
    c_before = abs(ref.final.matrix[0, 1])
    c_after = abs(traj.final.matrix[0, 1])
    assert c_after == pytest.approx(c_before * math.exp(-0.5 * rate * t_wait), abs=1e-6)
    # populations untouched by pure dephasing
    assert traj.final.matrix[0, 0].real == pytest.approx(
        ref.final.matrix[0, 0].real, abs=1e-9
    )


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
    rho0 = DensityMatrix.pure(QutritState.r1())
    traj = evolve_master(rho0, CANONICAL_RAMSEY, RATES)
    oracle = _rk4_oracle(rho0.matrix, CANONICAL_RAMSEY, RATES)
    assert _trace_distance(traj.final.matrix, oracle) <= 1e-9


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
    sample_dt=st.floats(2e-9, 50e-9),
)
# a slow pi/2 pulse around a long detuned mu2 drive: under-resolved
# stepping loses positivity here
@example(
    segments=[
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 100e-9), duration=100e-9),
        DriveSegment(DriveField.MU2, rabi=mhz(12.5), detuning=mhz(5.0), duration=250e-9),
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 100e-9), duration=100e-9),
    ],
    decay=(0.0, 0.0, 0.0),
    deph=(0.0, 0.0, 0.0),
    sample_dt=5e-9,
)
def test_every_sample_is_physical(segments, decay, deph, sample_dt):
    params = DissipationParams(gamma_decay=decay, gamma_deph=deph)
    traj = evolve_master(
        DensityMatrix.pure(QutritState.r1()), PulseSequence(tuple(segments)),
        params, sample_dt=sample_dt,
    )
    for dm in traj.states:
        m = dm.matrix
        assert abs(np.trace(m).real - 1.0) <= TRACE_TOL
        assert np.abs(m - m.conj().T).max() <= HERMITICITY_TOL
        assert np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -POSITIVITY_TOL


def test_sample_times_are_exact_multiples_inside_segments():
    seq = PulseSequence(
        (
            DriveSegment(DriveField.MU1, rabi=mhz(6.0), duration=20e-9),
            Wait(13e-9),
            DriveSegment(DriveField.MU2, rabi=mhz(12.5), duration=47e-9, detuning=mhz(2.0)),
        )
    )
    sample_dt = 5e-9
    rho0 = DensityMatrix.pure(QutritState.r1())
    traj = evolve_master(rho0, seq, RATES, sample_dt=sample_dt)

    expected = [0.0]
    owner = [None]  # (segment index, k) of each inner sample
    t0 = 0.0
    for i, seg in enumerate(seq.segments):
        k = 1
        while t0 + k * sample_dt < t0 + seg.duration:
            expected.append(t0 + k * sample_dt)
            owner.append((i, k))
            k += 1
        t0 += seg.duration
        expected.append(t0)
        owner.append(None)
    assert traj.times == tuple(expected)
    assert all(a < b for a, b in zip(traj.times, traj.times[1:]))
    # 20 ns is a whole number of steps, so only the boundary sample lands there
    assert traj.times.count(20e-9) == 1

    # an inner sample is the state of the sequence cut off at its time
    for (t, dm, own) in zip(traj.times, traj.states, owner):
        if own is None:
            continue
        i, k = own
        cut = seq.segments[:i] + (
            dataclasses.replace(seq.segments[i], duration=k * sample_dt),
        )
        ref = evolve_master(rho0, PulseSequence(cut), RATES).final.matrix
        assert np.abs(dm.matrix - ref).max() <= 1e-12

    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError):
            evolve_master(rho0, seq, RATES, sample_dt=bad)


# ---------------------------------------------------------------------------
# guards and plumbing


def test_readout_segments_rejected():
    seq = PulseSequence((Readout(1),))
    with pytest.raises(ValueError):
        evolve_master(DensityMatrix.pure(QutritState.r1()), seq)


def test_validate_flags_unphysical_matrices():
    bad_trace = DensityMatrix(np.diag([0.7, 0.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(NumericError):
        bad_trace.validate()
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    m[0, 1] = 1e-3  # non-Hermitian
    with pytest.raises(NumericError):
        DensityMatrix(m).validate()


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


@pytest.mark.parametrize("sample_dt", [None, 7e-9])
@given(_stacked_sequences())
def test_stacked_sequence_equals_per_point_sequences(sample_dt, case):
    stacked, per_point, points = case
    rho0 = DensityMatrix.pure(QutritState.from_array(np.array([0.6, 0.8j, 0.0])))
    traj = evolve_master(rho0, stacked, RATES, sample_dt=sample_dt)
    U = sequence_unitary(stacked.segments)
    for i, seq in enumerate(per_point):
        ref = evolve_master(rho0, seq, RATES, sample_dt=sample_dt)
        assert traj.times == ref.times
        for got, want in zip(traj.states, ref.states):
            assert got.matrix.shape == (points, 4, 4)
            assert np.array_equal(got.matrix[i], want.matrix)
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
        evolve_master(DensityMatrix.pure(QutritState.r1()), seq, RATES)


def test_validate_checks_every_matrix_of_a_stack():
    good = np.zeros((7, 4, 4), dtype=complex)
    good[:, 0, 0] = 1.0
    DensityMatrix(good).validate()
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
            DensityMatrix(m).validate()
