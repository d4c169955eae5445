import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from seqlab.config import DissipationSection
from seqlab.dissipative import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    _THETA13,
    NumericError,
    channel_rates,
    checked_last_state,
    evolve_master,
    expm,
    liouvillian,
    _validate_density,
)
from seqlab.qcore import (
    FIELDS,
    DriveSegment,
    Wait,
    hermitian_propagator,
    segment_hamiltonian,
    segment_maps,
)
from seqlab.units import mhz
from references import (
    collapse_operators,
    embed_hamiltonian,
    liouvillian_16,
    master_walk_16,
    sequence_unitary,
)
from test_qcore import _blockwise_cases, closed_form_unitary


def _random_sequence(rng, max_segments=6):
    segs = []
    for _ in range(rng.integers(1, max_segments + 1)):
        if rng.random() < 0.25:
            segs.append(Wait(float(rng.uniform(5e-9, 100e-9))))
        else:
            segs.append(
                DriveSegment(
                    field="mu1" if rng.random() < 0.5 else "mu2",
                    rabi=float(rng.uniform(0.0, mhz(20.0))),
                    duration=float(rng.uniform(5e-9, 120e-9)),
                    detuning=float(rng.uniform(-mhz(5.0), mhz(5.0))),
                    phase=float(rng.uniform(-math.pi, math.pi)),
                )
            )
    return tuple(segs)


def _trace_distance(a, b):
    vals = np.linalg.eigvalsh(a - b)
    return 0.5 * np.abs(vals).sum()


def cut_sequences(seq, dt):
    """seq cut off at t0 + k*dt strictly inside each segment starting at
    t0, and at each segment's end, in time order: the prefixes whose final
    states sample the evolution every dt."""
    for i, seg in enumerate(seq):
        k = 1
        while k * dt < seg.duration:
            yield seq[:i] + (dataclasses.replace(seg, duration=k * dt),)
            k += 1
        yield seq[:i + 1]


def assert_physical(m):
    assert abs(np.trace(m).real - 1.0) <= TRACE_TOL
    assert np.abs(m - m.conj().T).max() <= HERMITICITY_TOL
    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -POSITIVITY_TOL


def ten_vector(rho):
    """(vec rho_R, rho_44) of a (..., 4, 4) density matrix."""
    return np.concatenate([rho[..., :3, :3].reshape(rho.shape[:-2] + (9,)), rho[..., 3:, 3]], -1)


RATES = DissipationSection(
    gamma_decay_1=1e5, gamma_decay_2=2e5, gamma_decay_3=3e5,
    gamma_deph_1=1e5, gamma_deph_2=1e5, gamma_deph_3=2e5,
)


# ---------------------------------------------------------------------------
# unitary limit


def test_zero_rates_reproduce_unitary_evolution():
    rng = np.random.default_rng(7011)
    for _ in range(5):
        seq = _random_sequence(rng)
        final = evolve_master(seq, DissipationSection())
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)  # R1, the stored excitation
        for seg in seq:
            psi = closed_form_unitary(seg) @ psi
        expected = np.zeros((4, 4), dtype=complex)
        expected[:3, :3] = np.outer(psi, psi.conj())
        assert _trace_distance(final, expected) <= 1e-8


# ---------------------------------------------------------------------------
# physicality invariants along trajectories


def test_invariants_hold_at_all_samples():
    seq = (
        DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9),
        DriveSegment("mu2", rabi=mhz(12.5), duration=250e-9),
        Wait(50e-9),
        DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9),
    )
    cuts = list(cut_sequences(seq, 5e-9))
    assert len(cuts) > 20
    for cut in cuts:
        assert_physical(evolve_master(cut, RATES))
    # the density check agrees
    _validate_density(ten_vector(evolve_master(seq, RATES)))


def test_population_leaks_into_loss_level():
    seq = (Wait(2e-6),)
    params = DissipationSection(gamma_decay_1=5e5)
    final = evolve_master(seq, params)
    p1, p2, p3, ploss = np.diagonal(final).real
    expected = math.exp(-5e5 * 2e-6)
    assert p1 == pytest.approx(expected, abs=1e-9)
    assert ploss == pytest.approx(1.0 - expected, abs=1e-9)
    assert p2 == pytest.approx(0.0, abs=1e-12) and p3 == pytest.approx(0.0, abs=1e-12)


def test_dephasing_damps_coherence_exponentially():
    # prepare an R1/R2 superposition, dephase R2 during a wait
    prep = DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9)
    t_wait = 1e-6
    rate = 4e5
    seq = (prep, Wait(t_wait))
    params = DissipationSection(gamma_deph_2=rate)
    final = evolve_master(seq, params)
    # coherence after the pulse alone
    ref = evolve_master((prep,), params)
    c_before = abs(ref[0, 1])
    c_after = abs(final[0, 1])
    assert c_after == pytest.approx(c_before * math.exp(-0.5 * rate * t_wait), abs=1e-6)
    # populations untouched by pure dephasing
    assert final[0, 0].real == pytest.approx(ref[0, 0].real, abs=1e-9)


# ---------------------------------------------------------------------------
# exact propagation


CANONICAL_RAMSEY = (
    DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9),
    DriveSegment("mu2", rabi=mhz(12.5), duration=250e-9),
    DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9),
)


def _random_liouvillian(rng):
    # the generic 16x16 form: a full 4x4 H and dense collapse operators
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (h + h.conj().T) * rng.uniform(0.0, mhz(20.0))
    ops = [
        (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        * math.sqrt(rng.uniform(0.0, 5e6))
        for _ in range(rng.integers(0, 4))
    ]
    return liouvillian_16(h, ops)


def test_expm_matches_scipy_on_random_liouvillians():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(5150)
    for _ in range(200):
        a = _random_liouvillian(rng) * rng.uniform(0.0, 2e-6)
        ref = scipy_linalg.expm(a)
        assert np.abs(expm(a) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_expm_of_a_subnormal_generator_is_one_plus_it():
    # its 1-norm over _THETA13 underflows to 0, where math.log2 once raised
    # "math domain error"
    a = np.zeros((2, 2))
    a[0, 1] = 5e-324
    r = expm(a)
    assert r[0, 1] == 5e-324 and r[1, 0] == 0.0
    assert np.abs(r - (np.eye(2) + a)).max() <= 2.0**-52


@pytest.mark.parametrize("n", [2, 3, 4, 16])
def test_expm_of_zero_is_exactly_the_identity(n):
    # with b_0 = 2 the Pade step solves 2I x = 2I; with the unscaled
    # coefficients the diagonal came out as 0.9999999999999999
    assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))
    stack = expm(np.zeros((2, 3, n, n), dtype=complex))
    assert np.array_equal(stack, np.broadcast_to(np.eye(n), (2, 3, n, n)))


@given(_blockwise_cases())
def test_zero_rate_liouville_maps_are_the_exponential(case):
    # expm of the zero-rate generator, this module's and scipy's, is the
    # closed walk's map: U kron conj(U) on vec rho_R, with U the
    # closed-space propagator in the segment's blocks, and 1 on rho_44, at
    # |Lv| t <= 1e2.  So the rated walk tends to the closed walk as the
    # rates go to zero.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    seg, _ = case
    (U,) = segment_maps((seg,), hermitian_propagator)
    L = liouvillian(segment_hamiltonian(seg), DissipationSection())
    t = np.asarray(seg.duration)
    shape = np.broadcast_shapes(L.shape[:-2], t.shape)
    assert U.shape == shape + (3, 3)
    L = np.broadcast_to(L, shape + (10, 10)).reshape(-1, 10, 10)
    t = np.broadcast_to(t, shape).ravel()
    assume(max(np.linalg.norm(l, 2) * d for l, d in zip(L, t)) <= 1e2)
    for u, l, d in zip(U.reshape(-1, 3, 3), L, t):
        m = np.zeros((10, 10), dtype=complex)
        m[:9, :9] = np.kron(u, u.conj())
        m[9, 9] = 1.0
        assert np.abs(m - expm(l * d)).max() <= 1e-13
        assert np.abs(m - scipy_linalg.expm(l * d)).max() <= 1e-13


def _rk4_oracle(rho, sequence, params):
    """Fixed-step RK4 at 0.05 ns on the matrix form of the master equation,
    drho/dt = -i (K rho - rho K^+) + sum_C C rho C^+ with K = H - i/2 sum_C C^+ C.
    Its own error is ~1e-11 on the canonical sequence."""
    ops = np.array(collapse_operators(params))
    ops_dag = ops.conj().transpose(0, 2, 1)
    damping = 0.5j * (ops_dag @ ops).sum(axis=0)

    def rhs(r, K):
        return -1j * (K @ r - r @ K.conj().T) + (ops @ r @ ops_dag).sum(axis=0)

    for seg in sequence:
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
            field=st.sampled_from(FIELDS),
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
        DriveSegment("mu1", rabi=math.pi / (2 * 100e-9), duration=100e-9),
        DriveSegment("mu2", rabi=mhz(12.5), detuning=mhz(5.0), duration=250e-9),
        DriveSegment("mu1", rabi=math.pi / (2 * 100e-9), duration=100e-9),
    ],
    decay=(0.0, 0.0, 0.0),
    deph=(0.0, 0.0, 0.0),
    dt=5e-9,
)
def test_every_sample_is_physical(segments, decay, deph, dt):
    params = DissipationSection(*decay, *deph)
    for cut in cut_sequences(tuple(segments), dt):
        assert_physical(evolve_master(cut, params))


# ---------------------------------------------------------------------------
# guards and plumbing


def test_validate_flags_unphysical_matrices():
    # states (vec rho_R, rho_44)
    bad_trace = np.zeros(10, dtype=complex)
    bad_trace[0] = 0.7
    with pytest.raises(NumericError):
        _validate_density(bad_trace)
    v = np.zeros(10, dtype=complex)
    v[0] = 1.0
    v[1] = 1e-3  # rho_01 without its rho_10: non-Hermitian
    with pytest.raises(NumericError):
        _validate_density(v)


def test_dissipation_params_validation():
    # the rates are bounded by the dissipation.* config keys (test_config)
    assert np.array_equal(channel_rates(RATES), [[1e5, 2e5, 3e5], [1e5, 1e5, 2e5]])
    assert not channel_rates(DissipationSection()).any()


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
            field=draw(st.sampled_from(FIELDS)),
            rabi=value(0.0, mhz(20.0)),
            duration=draw(st.floats(3e-9, 120e-9)),
            detuning=value(-mhz(5.0), mhz(5.0)),
            phase=value(-math.pi, math.pi),
        )

    scan = DriveSegment(
        "mu1", rabi=mhz(6.25), duration=40e-9,
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
        per_point.append(tuple(scalar.get(id(s), s) for s in stacked))
    return stacked, per_point, points


# prepares 0.6 |R1> + 0.8i |R2> from the stored excitation
PREP_06_08 = DriveSegment(
    "mu1", rabi=2.0 * math.acos(0.6) / 20e-9, duration=20e-9, phase=math.pi
)


@given(_stacked_sequences())
def test_stacked_sequence_equals_per_point_sequences(case):
    stacked, per_point, points = case
    stacked = (PREP_06_08,) + stacked
    # with rates and without them, both by expm of the generator
    for rates in (RATES, DissipationSection()):
        final = evolve_master(stacked, rates)
        assert final.shape == (points, 4, 4)
        for i, seq in enumerate(per_point):
            assert np.array_equal(final[i], evolve_master((PREP_06_08,) + seq, rates))
    U = sequence_unitary(stacked)
    for i, seq in enumerate(per_point):
        assert np.array_equal(U[i], sequence_unitary((PREP_06_08,) + seq))


_maybe_zero_rates = st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 5e6))] * 6)
# the entries of row-major vec(rho) over (R1, R2, R3, loss) that the
# master equation keeps: rho_R, then rho_44
KEPT = [0, 1, 2, 4, 5, 6, 8, 9, 10, 15]


@given(
    h=st.lists(st.floats(-mhz(20.0), mhz(20.0)), min_size=18, max_size=18),
    rates=_maybe_zero_rates,
)
def test_generator_is_the_16_dim_one_on_its_invariant_subspace(h, rates):
    # the loss coherences are neither fed by nor feed the kept entries,
    # and on the kept ones the two generators agree
    h = np.array(h[:9]).reshape(3, 3) + 1j * np.array(h[9:]).reshape(3, 3)
    H = h + h.conj().T
    params = DissipationSection(*rates)
    L16 = liouvillian_16(embed_hamiltonian(H), collapse_operators(params))
    dropped = [i for i in range(16) if i not in KEPT]
    assert not L16[np.ix_(KEPT, dropped)].any() and not L16[np.ix_(dropped, KEPT)].any()
    L = liouvillian(H, params)
    assert L.shape == (10, 10)
    assert np.abs(L - L16[np.ix_(KEPT, KEPT)]).max() <= 1e-15 * np.abs(L16).max()


@given(_stacked_sequences(), _maybe_zero_rates)
def test_ten_dim_walk_matches_the_16_dim_reference(case, rates):
    stacked, _, points = case
    stacked = (PREP_06_08,) + stacked
    params = DissipationSection(*rates)
    final = evolve_master(stacked, params)
    assert final.shape == (points, 4, 4)
    assert np.abs(final - master_walk_16(stacked, params)).max() <= 1e-13


def test_unphysical_state_on_the_last_stacked_point_raises(monkeypatch):
    import seqlab.dissipative as dissipative

    real_expm = dissipative.expm

    def leaky_last_map(a):
        out = real_expm(a)
        if out.ndim == 3:  # the stacked mu1 call, not the single mu2 map
            out[-1] *= 1.5  # the last map of the stack no longer keeps the trace
        return out

    monkeypatch.setattr(dissipative, "expm", leaky_last_map)
    seq = (
        DriveSegment("mu2", rabi=mhz(12.5), duration=250e-9),
        DriveSegment(
            "mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9,
            detuning=np.array([-mhz(1.0), 0.0, mhz(1.0)]),
        ),
    )
    # one expm call per distinct segment: the mu2 map, then the stack of the
    # three mu1 points, whose last map is the pulse at the last detuning only
    with pytest.raises(NumericError, match=r"^at t=2\.700e-07 s: trace drifted"):
        evolve_master(seq, RATES)


def test_closed_walk_check_names_the_first_segment_that_fails():
    # all the states of a closed walk are checked at once, and the message
    # is the trace check's at the end of the first segment that fails it,
    # also where a later segment drifts further or is not finite
    seq = (PREP_06_08, Wait(30e-9), PREP_06_08)
    psi = np.array([[0.6, 0.8j, 0.0], [0.0, 0.0, 1.0]])
    states = [psi, psi.copy(), psi.copy()]
    states[1][1] *= 1.0 + 2e-9  # |psi|^2 off by 4e-9, within TRACE_TOL
    assert checked_last_state(seq, states) is states[-1]
    states[1][1] *= 1.0 + 1e-6
    states[2][0] *= 1.1
    with pytest.raises(NumericError, match=r"^at t=5\.000e-08 s: trace drifted to 1\.0000020"):
        checked_last_state(seq, states)
    states[1:] = psi, psi.copy()
    states[2][1, 2] = math.nan  # abs(nan - 1) > TRACE_TOL is false, yet it fails
    with pytest.raises(NumericError, match=r"^at t=7\.000e-08 s: trace drifted to nan$"):
        checked_last_state(seq, states)


def test_validate_checks_every_matrix_of_a_stack():
    # a stack of states (vec rho_R, rho_44): rho_ab at 3a + b, rho_44 at 9
    good = np.zeros((7, 10), dtype=complex)
    good[:, 0] = 1.0
    _validate_density(good)
    bad_cases = {
        "non-finite": (3, 4, math.nan),
        "hermiticity": (5, 1, 1e-3),
        "trace": (6, 0, 0.7),
        "trace of rho_44": (4, 9, 0.3),
        "positivity": (2, 4, -1e-3),
        "positivity of rho_44": (1, 9, -1e-3),
    }
    for what, (i, k, value) in bad_cases.items():
        v = good.copy()
        v[i, k] = value
        if what.startswith("positivity"):
            v[i, 0] = 1.0 + 1e-3  # keep the trace
        with pytest.raises(NumericError, match=what.split("-")[0].split()[0]):
            _validate_density(v)
