"""Single-excitation qutrit core: pulse segments, generators, propagators.

The collectively stored excitation occupies one of three Rydberg levels,
written |R1>, |R2>, |R3> (indices 0, 1, 2).  Two microwave fields drive
the ladder: mu1 couples R1 <-> R2 and mu2 couples R2 <-> R3.  Storage
leaves the excitation in R1 and every sequence starts there; the fields
reach every other state from R1, so the state after a sequence is column
0 of :func:`sequence_unitary`.  In the frame rotating with both fields
the Hamiltonian restricted to the single-excitation manifold is

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
    finite, shapes broadcastable (else ValueError).  rabi is non-negative,
    as the sequence parser and the config bounds give it; its sign belongs
    in phase."""
    rabi, detuning, phase = (np.array(v, dtype=float) for v in (rabi, detuning, phase))
    for name, v in (("rabi", rabi), ("detuning", detuning), ("phase", phase)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    np.broadcast(rabi, detuning, phase)  # ValueError unless the shapes broadcast
    return rabi, detuning, phase


_DRIVE_VALUES = ("rabi", "detuning", "phase")


@dataclass(frozen=True, eq=False)
class DriveSegment:
    """A constant-amplitude microwave pulse on one field, or a stack of them.

    rabi, detuning in rad/s; phase in rad; duration in seconds.  rabi,
    detuning and phase are numbers or arrays that broadcast against each
    other; an array, kept as a read-only copy, makes the segment a stack of
    pulses over the broadcast shape, all of the one duration.  Segments
    compare and hash by identity, as :func:`segment_maps` tells them apart.
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


Segment = Union[DriveSegment, Wait, Readout]


@dataclass(frozen=True)
class PulseSequence:
    """An ordered list of segments; readout bins, when there are any,
    appear in strictly increasing order (the sequence parser's rule)."""

    segments: tuple[Segment, ...]

    def total_duration(self) -> float:
        """Sum of the drive and wait durations in seconds; a readout takes
        no time."""
        return sum((s.duration for s in self.drive_segments()), 0.0)

    def fits_budget(self) -> bool:
        return self.total_duration() < SEQUENCE_BUDGET_S

    def drive_segments(self) -> tuple[Segment, ...]:
        return tuple(s for s in self.segments if not isinstance(s, Readout))


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
    above).  A Readout is a measurement and has none: callers pass the
    drive and wait segments only."""
    if isinstance(segment, Wait):
        return np.zeros((3, 3), dtype=complex)
    return _drive_block(segment.field, segment.rabi, segment.detuning, segment.phase)


def hermitian_propagator(H: np.ndarray, duration) -> np.ndarray:
    """exp(-i H t) for a stack of Hermitian H, shape (..., d, d).

    duration (s) is a scalar or an array that broadcasts against the stack
    shape H.shape[:-2]: the durations of checked segments, or other
    finite positive times.  One batched eigendecomposition, so the result
    is unitary up to floating point.
    """
    duration = np.asarray(duration, dtype=float)
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


def sequence_unitary(segments) -> np.ndarray:
    """Ordered product of segment propagators (last segment applied last),
    shape (..., 3, 3) over the segments' stacks."""
    U = np.eye(3, dtype=complex)
    for step in segment_maps(segments, hermitian_propagator):
        U = step @ U
    return U
