import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from seqlab.qcore import (
    SEQUENCE_BUDGET_S,
    DriveField,
    DriveSegment,
    PulseSequence,
    Readout,
    Wait,
    drive_hamiltonian,
    hermitian_propagator,
    segment_hamiltonian,
    segment_maps,
    sequence_unitary,
)
from seqlab.units import mhz


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
    lo = 0 if segment.field is DriveField.MU1 else 1
    U[lo:lo + 2, lo:lo + 2] = block
    return U

# ---------------------------------------------------------------------------
# Hamiltonian structure


def test_hamiltonian_both_fields():
    mu1 = DriveSegment(DriveField.MU1, rabi=mhz(5.0), duration=30e-9,
                       detuning=mhz(1.0), phase=0.5 * math.pi)
    mu2 = DriveSegment(DriveField.MU2, rabi=mhz(12.5), duration=40e-9)
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
    mu2 = DriveSegment(DriveField.MU2, rabi=mhz(12.5), duration=40e-9,
                       detuning=mhz(2.0))
    H = segment_hamiltonian(mu2)
    # absent mu1 contributes nothing, including its diagonal entry
    assert H[0, 0] == 0.0 and H[1, 1] == 0.0
    assert H[2, 2] == pytest.approx(-mhz(2.0))


def test_field_is_coerced_to_the_enum():
    # "mu1" compares equal to DriveField.MU1; it used to drive the R2-R3 block
    H = drive_hamiltonian("mu1", 2.0)
    assert np.array_equal(H, drive_hamiltonian(DriveField.MU1, 2.0))
    assert H[1, 0] == 1.0 and H[0, 1] == 1.0
    assert H[2, 1] == 0.0 and H[1, 2] == 0.0
    seg = DriveSegment("mu1", rabi=2.0, duration=1e-9)
    assert seg.field is DriveField.MU1
    assert np.array_equal(segment_hamiltonian(seg), H)
    assert DriveSegment("mu2", rabi=2.0, duration=1e-9).field is DriveField.MU2
    # "mu3" was accepted and driven as mu2
    with pytest.raises(ValueError):
        DriveSegment("mu3", rabi=2.0, duration=1e-9)
    with pytest.raises(ValueError):
        drive_hamiltonian("mu3", 2.0)


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
    seg = DriveSegment(DriveField.MU1, rabi=mhz(5.0), duration=30e-9,
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
    # durations reach the propagator from checked segments (test_segment_validation)
    with pytest.raises(ValueError):
        drive_hamiltonian(DriveField.MU1, math.nan)
    with pytest.raises(ValueError):
        drive_hamiltonian(DriveField.MU2, 1.0, math.inf)


def test_hermitian_propagator_stacks_with_broadcast_durations():
    rng = np.random.default_rng(515)
    m = rng.normal(size=(4, 5, 6, 6)) + 1j * rng.normal(size=(4, 5, 6, 6))
    H = 0.5 * (m + m.conj().swapaxes(-1, -2)) * mhz(3.0)
    t = rng.uniform(1e-9, 200e-9, size=5)  # one duration per column of the stack
    U = hermitian_propagator(H, t)
    assert U.shape == (4, 5, 6, 6)
    for i in range(4):
        for j in range(5):
            assert np.abs(U[i, j] - hermitian_propagator(H[i, j], t[j])).max() <= 1e-13
    # one Hamiltonian against a grid of durations
    U = hermitian_propagator(H[0, 0], t)
    for j in range(5):
        assert np.abs(U[j] - hermitian_propagator(H[0, 0], t[j])).max() <= 1e-13


# ---------------------------------------------------------------------------
# property tests

_segments = st.one_of(
    st.builds(
        DriveSegment,
        field=st.sampled_from([DriveField.MU1, DriveField.MU2]),
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


@given(st.lists(_segments, min_size=1, max_size=5))
def test_propagation_preserves_norm(segs):
    psi = sequence_unitary(segs)[:, 0]  # from R1
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# worked propagation example


def test_half_pi_then_pi_moves_half_to_r3():
    seq = PulseSequence(
        (
            DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9),
            DriveSegment(DriveField.MU2, rabi=math.pi / 40e-9, duration=40e-9),
        )
    )
    c1, c2, c3 = sequence_unitary(seq.segments)[:, 0]  # from R1
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
    seq = PulseSequence(
        (
            DriveSegment(DriveField.MU1, rabi=1.0, duration=20e-9),
            Wait(30e-9),
            Readout(1),
        )
    )
    assert seq.total_duration() == pytest.approx(50e-9)
    assert seq.fits_budget()
    long = PulseSequence((Wait(2e-6),))
    assert long.total_duration() > SEQUENCE_BUDGET_S
    assert not long.fits_budget()


def test_readout_takes_no_time():
    # a readout has no duration of its own to add to, or take from, the total
    with pytest.raises(TypeError):
        Readout(1, duration=-1.0)
    seq = PulseSequence(
        (DriveSegment(DriveField.MU1, rabi=1e7, duration=2e-6), Readout(1))
    )
    assert seq.total_duration() == 2e-6
    assert not seq.fits_budget()
    only_readouts = PulseSequence((Readout(1), Readout(3)))
    assert repr(only_readouts.total_duration()) == "0.0"
    assert only_readouts.fits_budget()


def test_drive_segments_filter():
    seq = PulseSequence(
        (
            DriveSegment(DriveField.MU1, rabi=1.0, duration=1e-9),
            Readout(1),
            Wait(1e-9),
        )
    )
    kinds = [type(s) for s in seq.drive_segments()]
    assert Readout not in kinds and len(kinds) == 2


def test_segment_validation():
    # rabi signs and readout bins are checked by the sequence parser (test_dsl)
    for bad in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            DriveSegment(DriveField.MU1, rabi=1.0, duration=bad)
        with pytest.raises(ValueError):
            Wait(bad)


def test_stacked_drive_segment_rejects_bad_entries():
    good = np.array([0.0, mhz(1.0), mhz(2.0)])
    for bad in (
        {"rabi": np.array([mhz(1.0), math.nan])},
        {"detuning": np.array([0.0, math.inf])},
        {"phase": np.array([[0.0], [-math.inf]])},
        {"detuning": np.zeros(2)},  # does not broadcast against rabi
    ):
        with pytest.raises(ValueError):
            DriveSegment(DriveField.MU2, **{"rabi": good, "duration": 1e-9, **bad})
    seg = DriveSegment(DriveField.MU2, rabi=good, duration=1e-9, phase=np.zeros((2, 1)))
    assert segment_hamiltonian(seg).shape == (2, 3, 3, 3)
    good[0] = math.nan  # the segment holds its own read-only copy
    assert np.isfinite(seg.rabi).all() and not seg.rabi.flags.writeable


def test_stacked_segments_compare_and_hash():
    deltas = np.linspace(-mhz(1.0), mhz(1.0), 5)

    def seg(detuning, **kw):
        return DriveSegment(DriveField.MU1, rabi=mhz(5.0), duration=1e-8,
                            detuning=detuning, **kw)

    a, b = seg(deltas), seg(deltas.copy())
    # equal values, distinct segments: hashed and compared by identity
    assert same_segments((a, Wait(1e-8)), (b, Wait(1e-8)))
    assert a != b and len({a, b, a}) == 2
    shifted = deltas.copy()
    shifted[2] += 1.0
    other_field = DriveSegment(DriveField.MU2, rabi=mhz(5.0), duration=1e-8, detuning=deltas)
    longer = DriveSegment(DriveField.MU1, rabi=mhz(5.0), duration=2e-8, detuning=deltas)
    for other in (seg(shifted), seg(deltas[:4]), seg(deltas[:, None]),
                  other_field, longer, seg(0.0)):
        assert not same_segments((a,), (other,))
    assert not same_segments((a,), (Wait(1e-8),))
    assert same_segments((seg(0.0),), (seg(-0.0),))


def test_readout_has_no_unitary():
    # a readout is a measurement, not a drive: a read-out-only sequence
    # has no segments to propagate, and its unitary is the identity
    drive = PulseSequence((Readout(1), Readout(3))).drive_segments()
    assert drive == ()
    assert segment_maps(drive, hermitian_propagator) == []
    assert np.array_equal(sequence_unitary(drive), np.eye(3))
