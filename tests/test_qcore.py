import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from seqlab.qcore import (
    SEQUENCE_BUDGET_S,
    FIELDS,
    DriveSegment,
    NumericError,
    Readout,
    Wait,
    check_norm,
    checked_walk,
    hermitian_propagator,
    segment_blocks,
    segment_hamiltonian,
    segment_maps,
    total_duration,
)
from seqlab import dissipative, photostats
from seqlab.config import DissipationSection, InteractionSection, ReadoutSection
from seqlab.photostats import readout_from_sequence
from seqlab.pairwise import pair_blocks, pair_hamiltonian
from seqlab.units import mhz
from references import liouville_propagator_16, propagate, sequence_unitary


def _value(v):
    return (v.shape, v.tolist()) if isinstance(v, np.ndarray) else v


def same_segments(a, b) -> bool:
    """Two runs of segments hold the same kinds of segment with equal
    fields, in order; arrays compare by shape and entries.  Segments
    themselves compare by identity, as segment_maps tells them apart."""
    return len(a) == len(b) and all(
        type(s) is type(t)
        and all(_value(getattr(s, f.name)) == _value(getattr(t, f.name)) for f in fields(s))
        for s, t in zip(a, b)
    )


def two_level_propagator(rabi, detuning, phase, duration):
    """Closed-form oracle: exp(-i H t) for the two-level block

        H = [[0, (rabi/2) e^{i phase}], [(rabi/2) e^{-i phase}, -detuning]],

    from the generalized Rabi frequency W = hypot(rabi, detuning); the
    W -> 0 limit is the identity."""
    W = math.hypot(rabi, detuning)
    if W == 0.0:
        return np.eye(2, dtype=complex)
    half = 0.5 * W * duration
    c = math.cos(half)
    s = math.sin(half) / W  # sin(Wt/2)/W, finite for W > 0
    g = complex(math.cos(0.5 * detuning * duration),
                math.sin(0.5 * detuning * duration))
    off = -1j * rabi * s
    return g * np.array(
        [
            [c - 1j * detuning * s, off * np.exp(1j * phase)],
            [off * np.exp(-1j * phase), c + 1j * detuning * s],
        ],
        dtype=complex,
    )


def closed_form_unitary(segment):
    """3x3 oracle for one drive/wait segment: the closed-form two-level
    block embedded where its field couples.  segment_hamiltonian puts
    (rabi/2) e^{+i phase} on the lower off-diagonal, two_level_propagator
    parameterizes the upper one, hence the flipped phase."""
    U = np.eye(3, dtype=complex)
    if isinstance(segment, Wait):
        return U
    block = two_level_propagator(
        segment.rabi, segment.detuning, -segment.phase, segment.duration
    )
    lo = 0 if segment.field == "mu1" else 1
    U[lo:lo + 2, lo:lo + 2] = block
    return U

# ---------------------------------------------------------------------------
# Hamiltonian structure


def test_hamiltonian_both_fields():
    mu1 = DriveSegment("mu1", rabi=mhz(5.0), duration=30e-9,
                       detuning=mhz(1.0), phase=0.5 * math.pi)
    mu2 = DriveSegment("mu2", rabi=mhz(12.5), duration=40e-9)
    H1, H2 = segment_hamiltonian(mu1), segment_hamiltonian(mu2)
    g1 = 0.5 * mhz(5.0) * np.exp(0.5j * math.pi)
    assert H1[1, 0] == pytest.approx(g1, abs=1e-6)
    assert H1[0, 1] == pytest.approx(np.conj(g1), abs=1e-6)
    assert H1[1, 1] == pytest.approx(-mhz(1.0), abs=1e-6)
    assert H2[2, 1] == pytest.approx(0.5 * mhz(12.5), abs=1e-6)
    assert H2[2, 2] == 0.0  # resonant mu2
    for H in (H1, H2):
        # no direct R1 <-> R3 coupling
        assert H[2, 0] == 0.0 and H[0, 2] == 0.0
        assert np.abs(H - H.conj().T).max() == 0.0


def test_hamiltonian_absent_field_is_zero():
    assert np.abs(segment_hamiltonian(Wait(10e-9))).max() == 0.0
    mu2 = DriveSegment("mu2", rabi=mhz(12.5), duration=40e-9,
                       detuning=mhz(2.0))
    H = segment_hamiltonian(mu2)
    # absent mu1 contributes nothing, including its diagonal entry
    assert H[0, 0] == 0.0 and H[1, 1] == 0.0
    assert H[2, 2] == pytest.approx(-mhz(2.0))


def test_each_field_word_drives_its_own_block():
    for field, lo in (("mu1", 0), ("mu2", 1)):  # the block's lower level
        H = segment_hamiltonian(DriveSegment(field, rabi=2.0, duration=1e-9))
        block = np.zeros((3, 3), dtype=complex)
        block[lo + 1, lo] = block[lo, lo + 1] = 1.0
        assert np.array_equal(H, block), field
    # the DSL refuses any other word; built by hand, it has no block to drive
    with pytest.raises(ValueError):
        segment_hamiltonian(DriveSegment("mu3", rabi=2.0, duration=1e-9))


# ---------------------------------------------------------------------------
# closed-form propagator vs matrix-exponential oracle


def test_two_level_propagator_matches_expm():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        rabi = rng.uniform(0.0, mhz(20.0))
        detuning = rng.uniform(-mhz(10.0), mhz(10.0))
        phase = rng.uniform(-math.pi, math.pi)
        duration = rng.uniform(1e-9, 500e-9)
        H = np.array(
            [
                [0.0, 0.5 * rabi * np.exp(1j * phase)],
                [0.5 * rabi * np.exp(-1j * phase), -detuning],
            ],
            dtype=complex,
        )
        U_ref = expm(-1j * H * duration)
        U = two_level_propagator(rabi, detuning, phase, duration)
        worst = max(worst, np.abs(U - U_ref).max())
    assert worst <= 1e-10


def test_two_level_propagator_frozen_point():
    # high-precision reference for rabi=2pi*5 MHz, detuning=2pi*1 MHz,
    # phase=pi/2, duration=30 ns
    expected = np.array(
        [
            [
                complex(0.89132765552725681, -0.0068105900222845646),
                complex(0.45129673397606, 0.042660101481050357),
            ],
            [
                complex(-0.45129673397606, -0.042660101481050357),
                complex(0.87426361493483667, 0.17370810356813943),
            ],
        ]
    )
    U = two_level_propagator(mhz(5.0), mhz(1.0), 0.5 * math.pi, 30e-9)
    assert np.abs(U - expected).max() <= 1e-14
    seg = DriveSegment("mu1", rabi=mhz(5.0), duration=30e-9,
                       detuning=mhz(1.0), phase=-0.5 * math.pi)
    assert np.abs(sequence_unitary((seg,))[:2, :2] - expected).max() <= 1e-14


def test_resonant_special_areas():
    t = 40e-9
    U_pi = two_level_propagator(math.pi / t, 0.0, 0.0, t)
    assert np.abs(U_pi - np.array([[0, -1j], [-1j, 0]])).max() <= 1e-15
    U_2pi = two_level_propagator(2 * math.pi / t, 0.0, 0.0, t)
    assert np.abs(U_2pi + np.eye(2)).max() <= 1e-15
    U_idle = two_level_propagator(0.0, 0.0, 0.0, t)
    assert np.abs(U_idle - np.eye(2)).max() == 0.0


def test_propagator_rejects_bad_arguments():
    # finite values come from the sequence parser (test_dsl) and the config
    # bounds (test_config); shapes that do not broadcast are refused here
    with pytest.raises(ValueError):
        segment_hamiltonian(
            DriveSegment("mu1", rabi=np.ones(2), duration=1e-9, detuning=np.zeros(3))
        )


def test_stacked_duration_propagates_as_per_time_calls():
    times = np.array([1e-9, 37e-9, 2e-7, 5e-7])
    seg = DriveSegment("mu2", rabi=mhz(3.0), duration=times, detuning=mhz(1.5))
    (U,) = segment_maps((seg,), hermitian_propagator)
    assert U.shape == (4, 3, 3)
    for t, u in zip(times, U):
        step = hermitian_propagator(segment_hamiltonian(seg), t, segment_blocks(seg))
        assert np.array_equal(u, step)
    with pytest.raises(ValueError):  # does not broadcast against the detunings
        DriveSegment("mu2", rabi=mhz(3.0), duration=times, detuning=np.zeros(3))
    times[0] = -1.0  # the segment holds its own read-only copy
    assert seg.duration[0] == 1e-9 and not seg.duration.flags.writeable


def test_hermitian_propagator_stacks_with_broadcast_durations():
    rng = np.random.default_rng(515)
    m = rng.normal(size=(4, 5, 6, 6)) + 1j * rng.normal(size=(4, 5, 6, 6))
    H = 0.5 * (m + m.conj().swapaxes(-1, -2)) * mhz(3.0)
    t = rng.uniform(1e-9, 200e-9, size=5)  # one duration per column of the stack
    whole = (tuple(range(6)),)  # one block: a dense H
    U = hermitian_propagator(H, t, whole)
    assert U.shape == (4, 5, 6, 6)
    for i in range(4):
        for j in range(5):
            assert np.abs(U[i, j] - hermitian_propagator(H[i, j], t[j], whole)).max() <= 1e-13
    # one Hamiltonian against a grid of durations
    U = hermitian_propagator(H[0, 0], t, whole)
    for j in range(5):
        assert np.abs(U[j] - hermitian_propagator(H[0, 0], t[j], whole)).max() <= 1e-13


# ---------------------------------------------------------------------------
# property tests


@st.composite
def _blockwise_cases(draw):
    """(segment, v_int): a wait, or a drive on a random field whose values
    are each a number or an array over a random stack shape; rabi holds
    zeros, alone or among non-zero values."""
    v_int = draw(st.floats(-mhz(10.0), mhz(10.0)))
    shape = draw(st.sampled_from([(1,), (4,), (2, 3)]))

    def value(elements):
        return draw(st.one_of(elements, arrays(float, shape, elements=elements)))

    durations = st.floats(1e-9, 4e-7)
    if draw(st.integers(0, 4)) == 0:
        return Wait(draw(durations)), v_int
    segment = DriveSegment(
        draw(st.sampled_from(FIELDS)),
        rabi=value(st.just(0.0) | st.floats(0.0, mhz(20.0))),
        duration=value(durations),
        detuning=value(st.floats(-mhz(20.0), mhz(20.0))),
        phase=value(st.floats(-math.pi, math.pi)),
    )
    return segment, v_int


@given(_blockwise_cases())
def test_blockwise_maps_are_the_exponential_in_both_closed_spaces(case):
    # exp(-i H t) block by block (phases, the 2x2 closed form, eigh from
    # 3x3 up) against scipy's expm of the whole H, at |H| t <= 1e2
    seg, v_int = case
    interaction = InteractionSection(v_int, 0.0)
    spaces = {
        "qutrit": (hermitian_propagator, lambda h: h),
        "pair": (
            lambda h, t, b: hermitian_propagator(
                pair_hamiltonian(h, interaction), t, pair_blocks(b)
            ),
            lambda h: pair_hamiltonian(h, interaction),
        ),
    }
    for space, (propagator, generator) in spaces.items():
        (U,) = segment_maps((seg,), propagator)
        H = generator(segment_hamiltonian(seg))
        t = np.asarray(seg.duration)
        shape = np.broadcast_shapes(H.shape[:-2], t.shape)
        H = np.broadcast_to(H, shape + H.shape[-2:]).reshape((-1,) + H.shape[-2:])
        t = np.broadcast_to(t, shape).ravel()
        assume(max(np.linalg.norm(h, 2) * d for h, d in zip(H, t)) <= 1e2)
        assert U.shape == shape + H.shape[-2:], space
        for u, h, d in zip(U.reshape(H.shape), H, t):
            assert np.abs(u - expm(-1j * h * d)).max() <= 1e-13, space
            assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-13, space

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


@given(_segments)
def test_segment_unitary_is_unitary(seg):
    U = sequence_unitary((seg,))
    assert np.abs(U @ U.conj().T - np.eye(3)).max() <= 1e-12


@given(_segments)
def test_segment_unitary_exponentiates_the_hamiltonian(seg):
    # the propagator, the closed form and expm(-i H t) of segment_hamiltonian
    # must agree for every phase, or the unitary and master-equation backends drift
    U = sequence_unitary((seg,))
    ref = expm(-1j * segment_hamiltonian(seg) * seg.duration)
    assert np.abs(U - ref).max() <= 1e-10
    assert np.abs(U - closed_form_unitary(seg)).max() <= 1e-10


@given(st.lists(_segments, min_size=1, max_size=5))
def test_sequence_unitary_composes(segs):
    U = sequence_unitary(segs)
    ref = np.eye(3, dtype=complex)
    for s in segs:
        ref = sequence_unitary((s,)) @ ref
    assert np.abs(U - ref).max() == 0.0
    assert np.abs(U @ U.conj().T - np.eye(3)).max() <= 1e-12


@st.composite
def _walked_sequences(draw):
    """Drive and wait segments with one drive stacked over a few detunings
    and one segment object that appears twice."""
    points = draw(st.integers(1, 4))
    detunings = st.lists(st.floats(-mhz(10.0), mhz(10.0)), min_size=points, max_size=points)
    stacked = DriveSegment(
        draw(st.sampled_from(FIELDS)),
        rabi=draw(st.floats(0.0, mhz(25.0))),
        duration=draw(st.floats(1e-9, 1e-6)),
        detuning=np.array(draw(detunings)),
    )
    segs = draw(st.lists(_segments, max_size=3))
    segs.insert(draw(st.integers(0, len(segs))), stacked)
    repeated = draw(st.sampled_from(segs))
    segs.insert(draw(st.integers(0, len(segs))), repeated)
    return tuple(segs)


@given(
    segs=_walked_sequences(),
    v_int=st.floats(-mhz(5.0), mhz(5.0)),
    rates=st.tuples(*[st.floats(0.0, 5e6)] * 6),
)
def test_propagate_gives_column_0_of_each_prefix_product(segs, v_int, rates):
    # the one walk, checked_walk, in the qutrit, the pair, the master
    # equation's 10-dim space and the whole 16-dim Liouville space: the
    # state after segment k, as its check sees it, is column 0 of the
    # product of the first k maps, the plain walk's state bit for bit, and
    # the walk gives the last of them
    interaction = InteractionSection(v_int, 0.0)
    dissipation = DissipationSection(*rates)
    spaces = {
        "qutrit": hermitian_propagator,
        "pair": lambda h, t, b: hermitian_propagator(
            pair_hamiltonian(h, interaction), t, pair_blocks(b)
        ),
        "master": dissipative.liouville_propagator(dissipation),
        "liouville": liouville_propagator_16(dissipation),
    }
    for space, propagator in spaces.items():
        states = []
        last = checked_walk(segs, propagator, states.append)
        assert len(states) == len(segs)
        assert np.array_equal(last, states[-1])
        for state, plain in zip(states, propagate(segs, propagator), strict=True):
            assert np.array_equal(state, plain), space
        product = None
        for k, (seg, state) in enumerate(zip(segs, states)):
            # each occurrence of a segment propagated on its own
            step = propagator(segment_hamiltonian(seg), seg.duration, segment_blocks(seg))
            product = step if product is None else step @ product
            if space == "qutrit":
                assert np.array_equal(product, sequence_unitary(segs[: k + 1])), k
            assert state.shape == product[..., 0].shape, (space, k)
            assert np.abs(state - product[..., 0]).max() <= 1e-13, (space, k)


def _spoiled(propagator, call, spoil):
    """propagator with the map of its call-th call, from 0, passed
    through spoil."""
    calls = []

    def spoiled(H, t, blocks):
        U = propagator(H, t, blocks)
        calls.append(None)
        return spoil(U) if len(calls) == call + 1 else U

    return spoiled


def _nan_at_r1(U):
    U = U.copy()
    U[..., 0, 0] = math.nan
    return U


@given(
    segs=_walked_sequences(),
    v_int=st.floats(-mhz(5.0), mhz(5.0)),
    pair=st.booleans(),
    data=st.data(),
)
def test_checked_walk_names_the_end_of_the_first_segment_that_fails(segs, v_int, pair, data):
    # the closed walks, qutrit and pair: with the exact maps the checked
    # walk is the walk's last state, bit for bit, and a drift within
    # TRACE_TOL passes; a map that gains 1e-6 in amplitude, or holds a NaN,
    # fails the norm check at the end of the first occurrence of its
    # segment, though every later state fails it too
    interaction = InteractionSection(v_int, 0.0)
    exact = hermitian_propagator
    if pair:
        def exact(h, t, b):
            return hermitian_propagator(pair_hamiltonian(h, interaction), t, pair_blocks(b))

    assert np.array_equal(checked_walk(segs, exact, check_norm), propagate(segs, exact)[-1])
    # one propagator call per distinct segment, at its first occurrence
    firsts = [k for k, s in enumerate(segs) if all(t is not s for t in segs[:k])]
    call = data.draw(st.integers(0, len(firsts) - 1))
    first = firsts[call]
    checked_walk(segs, _spoiled(exact, call, lambda U: (1.0 + 1e-9) * U), check_norm)
    end = re.escape(f"at t={total_duration(segs[: first + 1]):.3e} s: trace drifted to ")
    with pytest.raises(NumericError, match=f"^{end}1\\.00000"):
        checked_walk(segs, _spoiled(exact, call, lambda U: (1.0 + 1e-6) * U), check_norm)
    with pytest.raises(NumericError, match=f"^{end}nan$"):
        checked_walk(segs, _spoiled(exact, call, _nan_at_r1), check_norm)


@given(st.lists(_segments, min_size=1, max_size=5))
def test_propagation_preserves_norm(segs):
    psi = sequence_unitary(segs)[:, 0]  # from R1
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# worked propagation example


def test_half_pi_then_pi_moves_half_to_r3():
    seq = (
        DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9),
        DriveSegment("mu2", rabi=math.pi / 40e-9, duration=40e-9),
    )
    c1, c2, c3 = sequence_unitary(seq)[:, 0]  # from R1
    assert abs(c1) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(c2) ** 2 == pytest.approx(0.0, abs=1e-12)
    assert abs(c3) ** 2 == pytest.approx(0.5, abs=1e-12)
    # R1 -> (pi/2) -> -i/sqrt2 in R2 -> (pi) -> (-i)^2/sqrt2 = -1/sqrt2 in R3
    assert c3.real == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
    assert abs(c3.imag) <= 1e-12


def test_wait_is_identity():
    assert sequence_unitary((Wait(123e-9),))[0, 0] == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# containers and validation


def test_sequence_totals_and_budget():
    seq = (
        DriveSegment("mu1", rabi=1.0, duration=20e-9),
        Wait(30e-9),
        Readout(1),
    )
    assert total_duration(seq) == pytest.approx(50e-9)
    assert total_duration(seq) < SEQUENCE_BUDGET_S
    assert total_duration((Wait(2e-6),)) > SEQUENCE_BUDGET_S


def test_readout_takes_no_time():
    # a readout has no duration of its own to add to, or take from, the total
    with pytest.raises(TypeError):
        Readout(1, duration=-1.0)
    seq = (DriveSegment("mu1", rabi=1e7, duration=2e-6), Readout(1))
    assert total_duration(seq) == 2e-6
    assert repr(total_duration((Readout(1), Readout(3)))) == "0.0"


def test_stacked_drive_segment_rejects_bad_entries():
    # finite values come from the sequence parser (test_dsl) and the config
    good = np.array([0.0, mhz(1.0), mhz(2.0)])
    with pytest.raises(ValueError):  # does not broadcast against rabi
        DriveSegment("mu2", rabi=good, duration=1e-9, detuning=np.zeros(2))
    seg = DriveSegment("mu2", rabi=good, duration=1e-9, phase=np.zeros((2, 1)))
    assert segment_hamiltonian(seg).shape == (2, 3, 3, 3)
    good[0] = math.nan  # the segment holds its own read-only copy
    assert np.isfinite(seg.rabi).all() and not seg.rabi.flags.writeable


def test_stacked_segments_compare_and_hash():
    deltas = np.linspace(-mhz(1.0), mhz(1.0), 5)

    def seg(detuning, **kw):
        return DriveSegment("mu1", rabi=mhz(5.0), duration=1e-8,
                            detuning=detuning, **kw)

    a, b = seg(deltas), seg(deltas.copy())
    # equal values, distinct segments: hashed and compared by identity
    assert same_segments((a, Wait(1e-8)), (b, Wait(1e-8)))
    assert a != b and len({a, b, a}) == 2
    shifted = deltas.copy()
    shifted[2] += 1.0
    other_field = DriveSegment("mu2", rabi=mhz(5.0), duration=1e-8, detuning=deltas)
    longer = DriveSegment("mu1", rabi=mhz(5.0), duration=2e-8, detuning=deltas)
    for other in (seg(shifted), seg(deltas[:4]), seg(deltas[:, None]),
                  other_field, longer, seg(0.0)):
        assert not same_segments((a,), (other,))
    assert not same_segments((a,), (Wait(1e-8),))
    assert same_segments((seg(0.0),), (seg(-0.0),))


def test_a_readout_swaps_r1_with_its_bin_mode():
    # a readout is a segment whose map swaps R1 with the photon mode of its
    # bin, level 2 + b of the read-out space, as an exact permutation, and
    # a drive leaves the modes alone
    for b in (1, 2, 3):
        assert segment_blocks(Readout(b)) == ((0, 2 + b),)
        (U,) = segment_maps((Readout(b),), photostats._readout_propagator)
        swap = np.eye(6)
        swap[[0, 2 + b]] = swap[[2 + b, 0]]
        assert np.array_equal(U, swap), b
    drive = DriveSegment("mu1", rabi=mhz(12.5), duration=40e-9)
    (U,) = segment_maps((drive,), photostats._readout_propagator)
    assert np.array_equal(U[:3, :3], sequence_unitary((drive,)))
    assert np.array_equal(U[3:], np.eye(6)[3:]) and np.array_equal(U[:, 3:], np.eye(6)[:, 3:])
    assert readout_from_sequence((Readout(1),), ReadoutSection()) == (1.0, 0.0, 0.0)
