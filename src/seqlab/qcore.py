"""Single-excitation qutrit core: pulse segments, generators, propagators.

The collectively stored excitation occupies one of three Rydberg levels,
written |R1>, |R2>, |R3> (indices 0, 1, 2).  Two microwave fields drive
the ladder: mu1 couples R1 <-> R2 and mu2 couples R2 <-> R3.  Storage
leaves the excitation in R1 and every sequence starts there; the fields
reach every other state from R1.  In the frame rotating with both fields
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

A drive segment may stand for a stack of pulses: its rabi, duration,
detuning and phase may be arrays that broadcast against each other.
:func:`segment_hamiltonian` is the one generator of segments; the pair
space lifts it and the master equation vectorizes it.  :func:`segment_maps`
is the one path from a sequence's segments to their maps, for every space:
it takes the propagator (:func:`hermitian_propagator` for closed systems)
and calls it once per distinct segment, with the segment's blocks
(:func:`segment_blocks`).  :func:`propagate` is the one walk of those maps
from the stored excitation, in the qutrit (3), the pair (6) and the
rated master equation's space (10).  A sequence is a plain tuple of
segments.

Blocks: each field couples one pair of levels, so a segment's generator is
block-diagonal, a two-level block plus the spectator level, and a wait
couples nothing.  A readout takes no time, its generator is zero and its
blocks leave R1 out, so its map empties R1: diag(0, 1, 1); only the
qutrit walk of a read-out sees one.  The blocks come from the segment's
field, never from its values, so a stack whose rabi is 0 at some points
is propagated in the same blocks, and to the same bits, as one whose rabi
is not.
:func:`hermitian_propagator` exponentiates block by block, with the kernel
of each block size: a 1x1 block is the phase exp(-i h t), a 2x2 block is
the exact closed form e^{-imt} [cos(rt) I - i (sin(rt)/r) (h - m I)], with
m the mean of its diagonal and +-r the eigenvalues of h - m I, and only
blocks of 3 or more levels (in the pair space) take a batched
eigendecomposition, one per group of same-size blocks.  A rate-free
Lindblad scan walks this U and never calls evolve_master, the rated
master equation, which exponentiates its whole 10x10 generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

# A full control plus read-out sequence should fit in this budget; beyond
# it, motional dephasing of the collective state dominates.
SEQUENCE_BUDGET_S = 1.8e-6

# the words of the two fields, in order: a field's index is its lower level
FIELDS = ("mu1", "mu2")

_DRIVE_VALUES = ("rabi", "duration", "detuning", "phase")


@dataclass(frozen=True, eq=False)
class DriveSegment:
    """A constant-amplitude microwave pulse on one field, or a stack of them.

    field is a word of FIELDS; rabi, detuning in rad/s; phase in rad;
    duration in seconds.  The sequence parser and the config bounds give
    finite values, a non-negative rabi (its sign belongs in phase) and a
    positive duration; a stack may hold zero durations (a Rabi scan's first
    time), where the qutrit map is exactly the identity.  The four are
    numbers or arrays that broadcast against each other (else ValueError);
    an array, kept as a read-only float copy, makes the segment a stack of
    pulses over the broadcast shape.  Segments compare and hash by
    identity, as :func:`segment_maps` tells them apart.
    """

    field: str
    rabi: float | np.ndarray
    duration: float | np.ndarray
    detuning: float | np.ndarray = 0.0
    phase: float | np.ndarray = 0.0

    def __post_init__(self):
        values = [np.array(getattr(self, name), dtype=float) for name in _DRIVE_VALUES]
        np.broadcast(*values)  # ValueError unless the shapes broadcast
        for name, v in zip(_DRIVE_VALUES, values):
            if v.ndim:  # the caller's array cannot change a frozen segment
                v.flags.writeable = False
                object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Wait:
    """Free evolution (identity in this frame) for `duration` seconds, a
    positive finite time."""

    duration: float


@dataclass(frozen=True)
class Readout:
    """Retrieval of the R1 population into time bin `bin` (1..3); it
    takes no time and its map empties R1."""

    bin: int
    duration: ClassVar[float] = 0.0


Segment = Union[DriveSegment, Wait, Readout]


def total_duration(segments) -> float:
    """The segment durations summed, in s; a readout takes no time."""
    return sum((s.duration for s in segments), 0.0)


def _drive_block(field: str, rabi, detuning, phase) -> np.ndarray:
    """Hamiltonian (rad/s) of one field driving alone, from a
    DriveSegment's checked values, shape (..., 3, 3) over the broadcast
    shape of rabi, detuning and phase.  The field's block carries
    (rabi/2) e^{i phase} below the diagonal, its conjugate above it and
    -detuning on the upper level's diagonal; every other entry is zero.
    A field that is not a word of FIELDS raises ValueError.
    """
    lo = FIELDS.index(field)
    g = 0.5 * rabi * np.exp(1j * phase)
    H = np.zeros(np.broadcast(g, detuning).shape + (3, 3), dtype=complex)
    H[..., lo + 1, lo] = g
    H[..., lo, lo + 1] = np.conj(g)
    H[..., lo + 1, lo + 1] = -detuning
    return H


def segment_hamiltonian(segment: Segment) -> np.ndarray:
    """Hamiltonian (rad/s) of a segment, shape (..., 3, 3) over the
    segment's stack: a drive's is its field's (values checked when the
    segment was built), a wait's and a readout's are zeros (see the frame
    convention above)."""
    if not isinstance(segment, DriveSegment):
        return np.zeros((3, 3), dtype=complex)
    return _drive_block(segment.field, segment.rabi, segment.detuning, segment.phase)


def segment_blocks(segment: Segment) -> tuple[tuple[int, ...], ...]:
    """The blocks of levels that a segment's generator couples: a field
    couples its two levels and leaves the third alone, a wait couples
    nothing, and a readout leaves R1 out of every block, so R1 is zero in
    its map."""
    if isinstance(segment, Readout):
        return ((1,), (2,))
    if isinstance(segment, Wait):
        return ((0,), (1,), (2,))
    lo = FIELDS.index(segment.field)
    spectator = (lo + 2) % 3  # the level that the field leaves alone
    return ((lo, lo + 1), (spectator,))


# The kernels of hermitian_propagator: each takes a group of same-size
# blocks as an (..., n, size, size) stack h and z = -i t over (..., 1, 1, 1).


def _phase(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(z h) of a (..., 1, 1) stack of real h."""
    return np.exp(h * z)


_EYE2 = np.eye(2, dtype=complex)


def _rotation(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(z h) of a (..., 2, 2) Hermitian stack in closed form: with
    x = z h, mu the mean of its diagonal and k = x - mu I, whose square is
    -r^2 I, exp(x) = e^mu [cos(r) I + (sin(r)/r) k].  r is taken from k's
    first diagonal entry, imaginary as h's diagonal is real, and its
    off-diagonal one.  The divisor is floored at the least positive
    double, which moves no positive r: where r = 0, k is zero up to the
    rounding of mu."""
    x = h * z
    mu = 0.5 * (x[..., 0, 0] + x[..., 1, 1])
    k = x - mu[..., None, None] * _EYE2
    r = np.hypot(k[..., 0, 0].imag, np.abs(k[..., 1, 0]))
    turn = np.exp(mu)
    k *= (turn * (np.sin(r) / np.maximum(r, 5e-324)))[..., None, None]
    k += (turn * np.cos(r))[..., None, None] * _EYE2
    return k


def _eigh(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(z h) of a (..., n, n) Hermitian stack by one batched
    eigendecomposition, so one h serves every duration."""
    w, V = np.linalg.eigh(h)
    return (V * np.exp(w * z[..., 0])[..., None, :]) @ V.conj().swapaxes(-1, -2)


@functools.cache
def _groups(blocks: tuple[tuple[int, ...], ...]) -> tuple:
    """(kernel, index) per group of same-size blocks: the index takes the
    group out of a (..., d, d) stack as (..., n, size, size), by slices
    when the group is one run of levels."""
    sizes = {}
    for block in blocks:
        sizes.setdefault(len(block), []).append(block)
    groups = []
    for size, group in sorted(sizes.items()):
        lo = group[0][0]
        if group == [tuple(range(lo, lo + size))]:
            index = (Ellipsis, None, slice(lo, lo + size), slice(lo, lo + size))
        else:
            rows = np.array(group)[:, :, None]
            index = (Ellipsis, rows, rows.swapaxes(1, 2))
        groups.append(({1: _phase, 2: _rotation}.get(size, _eigh), index))
    return tuple(groups)


def hermitian_propagator(H: np.ndarray, duration, blocks) -> np.ndarray:
    """exp(-i H t) for a stack of Hermitian H, shape (..., d, d), that has
    no entry between two of its blocks.

    duration (s) is a scalar or an array that broadcasts against the stack
    shape H.shape[:-2], a checked segment's; the result has shape (..., d, d)
    over their broadcast shape.  blocks are disjoint tuples of levels of
    range(d), such as :func:`segment_blocks` gives; each group of
    same-size blocks is exponentiated by one kernel call (see the module
    docstring), and every entry between two blocks, or of a level in no
    block, is a literal zero.
    """
    z = np.asarray(-1j * duration)[..., None, None, None]
    maps = [(index, kernel(H[index], z)) for kernel, index in _groups(blocks)]
    # each block's stack is that of H broadcast against the durations
    U = np.zeros(maps[0][1].shape[:-3] + H.shape[-2:], dtype=complex)
    for index, block in maps:
        U[index] = block
    return U


def segment_maps(segments, propagator) -> list[np.ndarray]:
    """The map of every segment, in order, each of shape (..., d, d)
    over the segment's stack.

    propagator(H, t, blocks) takes one segment's (..., 3, 3) Hamiltonian,
    its duration, a number or an array that broadcasts against
    H.shape[:-2], and its :func:`segment_blocks`, and returns the
    (..., d, d) maps over their broadcast shape, e.g.
    :func:`hermitian_propagator`.  Segments are told apart by identity, so
    a segment object that appears twice is propagated once: one
    propagator call per distinct segment.
    """
    maps = {}
    for s in segments:
        if id(s) not in maps:
            maps[id(s)] = propagator(segment_hamiltonian(s), s.duration, segment_blocks(s))
    return [maps[id(s)] for s in segments]


def propagate(segments, propagator) -> list[np.ndarray]:
    """The state after each segment, from basis state 0 of the space (R1,
    the stored pair (11) or vec|R1><R1|), shape (..., d) over the stacks
    so far; [] for no segments.  The maps are :func:`segment_maps`'s,
    and the first state is column 0 of the first map, sliced out."""
    states = []
    for step in segment_maps(segments, propagator):
        states.append(step[..., :1] if not states else step @ states[-1])
    return [state[..., 0] for state in states]

