"""Single-excitation qutrit core: states, pulse segments, propagators.

The collectively stored excitation occupies one of three Rydberg levels,
written |R1>, |R2>, |R3> (indices 0, 1, 2).  Two microwave fields drive
the ladder: mu1 couples R1 <-> R2 and mu2 couples R2 <-> R3.  In the frame
rotating with both fields the Hamiltonian restricted to the
single-excitation manifold is

    H = [[ 0,            conj(g1),  0        ],
         [ g1,           -delta1,   conj(g2) ],
         [ 0,            g2,        -delta2  ]]

with g1 = (rabi1/2) e^{i phase1} and g2 = (rabi2/2) e^{i phase2}.

Frame convention (load-bearing, documented here once): a field that is
off contributes zeros, including its diagonal detuning term.  Wait
segments therefore evolve under H = 0, i.e. they are the identity in this
frame.  Physical free-precession phase that a different frame would
accumulate between pulses is accounted for analytically in
:mod:`seqlab.ramsey` through the total sequence time.  Positive detuning
means the drive is blue of the atomic transition.

A drive segment may stand for a stack of pulses: its rabi, detuning and
phase may be arrays that broadcast against each other, while its duration
stays one number, so every pulse of the stack shares the sample times.
:func:`segment_hamiltonian` is the one generator of segments; the pair
space lifts it and the master equation embeds it.  :func:`segment_maps`
is the one path from a sequence's segments to their maps, for every space:
it takes the propagator (:func:`hermitian_propagator` for closed systems).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

# A full control plus read-out sequence should fit in this budget; beyond
# it, motional dephasing of the collective state dominates.
SEQUENCE_BUDGET_S = 1.8e-6


class DriveField(str, Enum):
    """Which microwave field a pulse drives."""

    MU1 = "mu1"  # couples R1 <-> R2
    MU2 = "mu2"  # couples R2 <-> R3


def _require_duration(value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"duration must be finite and strictly positive, got {value!r}")


def _drive_values(rabi, detuning, phase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rabi, detuning and phase as new float arrays, checked: every entry
    finite, rabi non-negative, shapes broadcastable (else ValueError)."""
    rabi, detuning, phase = (np.array(v, dtype=float) for v in (rabi, detuning, phase))
    for name, v in (("rabi", rabi), ("detuning", detuning), ("phase", phase)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    if (rabi < 0).any():
        raise ValueError("rabi must be non-negative; sign belongs in phase")
    np.broadcast(rabi, detuning, phase)  # ValueError unless the shapes broadcast
    return rabi, detuning, phase


_DRIVE_VALUES = ("rabi", "detuning", "phase")


@dataclass(frozen=True, eq=False)
class DriveSegment:
    """A constant-amplitude microwave pulse on one field, or a stack of them.

    rabi, detuning in rad/s; phase in rad; duration in seconds.  rabi,
    detuning and phase are numbers or arrays that broadcast against each
    other; an array, kept as a read-only copy, makes the segment a stack of
    pulses over the broadcast shape, all of the one duration.  Two
    segments are equal when every field is, arrays by shape and entries,
    and equal segments hash alike.
    """

    field: DriveField
    rabi: float | np.ndarray
    duration: float
    detuning: float | np.ndarray = 0.0
    phase: float | np.ndarray = 0.0

    def __post_init__(self):
        # "mu1" compares equal to DriveField.MU1 but is not it; "mu3" is neither
        object.__setattr__(self, "field", DriveField(self.field))
        values = _drive_values(self.rabi, self.detuning, self.phase)
        for name, v in zip(_DRIVE_VALUES, values):
            if v.ndim:  # the caller's array cannot change a frozen segment
                v.flags.writeable = False
                object.__setattr__(self, name, v)
        _require_duration(self.duration)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.duration) == (other.field, other.duration) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _DRIVE_VALUES
        )

    def __hash__(self):
        # entries as Python numbers, so that 0.0 and -0.0 hash alike
        values = tuple(
            (np.shape(v), tuple(np.ravel(v).tolist()))
            for v in (getattr(self, name) for name in _DRIVE_VALUES)
        )
        return hash((self.field, self.duration, values))


@dataclass(frozen=True)
class Wait:
    """Free evolution (identity in this frame) for `duration` seconds."""

    duration: float

    def __post_init__(self):
        _require_duration(self.duration)


@dataclass(frozen=True)
class Readout:
    """Retrieval of the R1 population into time bin `bin` (1..3)."""

    bin: int

    def __post_init__(self):
        if self.bin not in (1, 2, 3):
            raise ValueError(f"readout bin must be 1, 2 or 3, got {self.bin}")


Segment = Union[DriveSegment, Wait, Readout]


@dataclass(frozen=True)
class PulseSequence:
    """An ordered list of segments with validation.

    Readout bins must appear in strictly increasing order.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        last_bin = 0
        for seg in self.segments:
            if isinstance(seg, Readout):
                if seg.bin <= last_bin:
                    raise ValueError(
                        f"readout bins must be strictly increasing; "
                        f"bin {seg.bin} follows bin {last_bin}"
                    )
                last_bin = seg.bin

    def total_duration(self) -> float:
        """Sum of the drive and wait durations in seconds; a readout takes
        no time."""
        return sum((s.duration for s in self.drive_segments()), 0.0)

    def fits_budget(self) -> bool:
        return self.total_duration() < SEQUENCE_BUDGET_S

    def drive_segments(self) -> tuple[Segment, ...]:
        return tuple(s for s in self.segments if not isinstance(s, Readout))


@dataclass(frozen=True)
class QutritState:
    """Pure state of the single-excitation manifold, amplitudes on R1..R3."""

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        for c in (self.c1, self.c2, self.c3):
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("amplitudes must be finite")
        if abs(self.norm() - 1.0) > 1e-6:
            raise ValueError(f"state must be normalized, norm={self.norm()!r}")

    @classmethod
    def r1(cls) -> "QutritState":
        return cls(1.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, amps: np.ndarray) -> "QutritState":
        return cls(complex(amps[0]), complex(amps[1]), complex(amps[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=complex)

    def norm(self) -> float:
        return math.sqrt(abs(self.c1) ** 2 + abs(self.c2) ** 2 + abs(self.c3) ** 2)

    def populations(self) -> tuple[float, float, float]:
        return (abs(self.c1) ** 2, abs(self.c2) ** 2, abs(self.c3) ** 2)


def drive_hamiltonian(field: DriveField | str, rabi, detuning=0.0) -> np.ndarray:
    """Hamiltonian (rad/s) of one field driving alone at phase 0.

    field is a DriveField or its value ("mu1", "mu2").  rabi and detuning
    broadcast against each other; the result has shape (..., 3, 3) over
    their broadcast shape.  The field's block carries rabi/2 on both
    off-diagonals and -detuning on the upper level's diagonal; every other
    entry is zero.  Values are validated as DriveSegment validates them.
    """
    return _drive_block(DriveField(field), *_drive_values(rabi, detuning, 0.0))


def _drive_block(field: DriveField, rabi, detuning, phase) -> np.ndarray:
    """:func:`drive_hamiltonian` of checked values, e.g. a DriveSegment's."""
    lo = 0 if field is DriveField.MU1 else 1
    H = np.zeros(np.broadcast(rabi, detuning, phase).shape + (3, 3), dtype=complex)
    g = 0.5 * rabi * np.exp(1j * phase)
    H[..., lo + 1, lo] = g
    H[..., lo, lo + 1] = g.conj()
    H[..., lo + 1, lo + 1] = -detuning
    return H


def segment_hamiltonian(segment: Segment) -> np.ndarray:
    """Hamiltonian (rad/s) of a drive or wait segment, shape (..., 3, 3)
    over the segment's stack: a drive's is its field's (values checked when
    the segment was built), a wait's is zeros (see the frame convention
    above).  A Readout is a measurement and has none."""
    if isinstance(segment, Readout):
        raise ValueError("readout segments have no Hamiltonian; see seqlab.photostats")
    if isinstance(segment, Wait):
        return np.zeros((3, 3), dtype=complex)
    return _drive_block(segment.field, segment.rabi, segment.detuning, segment.phase)


def hermitian_propagator(H: np.ndarray, duration) -> np.ndarray:
    """exp(-i H t) for a stack of Hermitian H, shape (..., d, d).

    duration (s) is a scalar or an array that broadcasts against the stack
    shape H.shape[:-2]; every value must be finite and strictly positive.
    One batched eigendecomposition, so the result is unitary up to
    floating point.
    """
    duration = np.asarray(duration, dtype=float)
    if not (np.isfinite(duration).all() and (duration > 0).all()):
        raise ValueError("duration must be finite and strictly positive")
    w, V = np.linalg.eigh(H)
    phases = np.exp(-1j * w * duration[..., None])
    return (V * phases[..., None, :]) @ V.conj().swapaxes(-1, -2)


def segment_maps(segments, propagator) -> list[np.ndarray]:
    """The map of every drive/wait segment, in order, each of shape
    (..., d, d) over the segment's stack.

    propagator(H, t) takes the (n, 3, 3) Hamiltonians of the distinct
    segments, all stacks flattened and concatenated, with the (n,) times,
    and returns their (n, d, d) maps, e.g. :func:`hermitian_propagator`.
    Segments are told apart by identity, so a segment object that appears
    twice is propagated once, in the one propagator call.
    """
    distinct = list({id(s): s for s in segments}.values())
    if not distinct:
        return []
    gens = [segment_hamiltonian(s) for s in distinct]
    sizes = [math.prod(g.shape[:-2]) for g in gens]
    maps = propagator(
        np.concatenate([g.reshape(-1, 3, 3) for g in gens]),
        np.repeat([s.duration for s in distinct], sizes),
    )
    by_id, start = {}, 0
    for s, g, size in zip(distinct, gens, sizes):
        by_id[id(s)] = maps[start:start + size].reshape(g.shape[:-2] + maps.shape[-2:])
        start += size
    return [by_id[id(s)] for s in segments]


def apply_segments(segments, state: np.ndarray, propagator) -> np.ndarray:
    """state, a (..., d, k) stack of columns, after the drive/wait segments
    act in order, each by its :func:`segment_maps` map from the left; the
    result broadcasts state against the segments' stacks."""
    for step in segment_maps(segments, propagator):
        state = step @ state
    return state


def sequence_unitary(segments) -> np.ndarray:
    """Ordered product of segment propagators (last segment applied last),
    shape (..., 3, 3) over the segments' stacks."""
    return apply_segments(segments, np.eye(3, dtype=complex), hermitian_propagator)


def propagate_sequence(state: QutritState, sequence: PulseSequence) -> QutritState:
    """Propagate a pure state through the drive/wait segments of a sequence.

    Sequences containing Readout segments are rejected here; retrieval is
    a measurement and lives in :mod:`seqlab.photostats`.
    """
    return QutritState.from_array(sequence_unitary(sequence.segments) @ state.as_array())
