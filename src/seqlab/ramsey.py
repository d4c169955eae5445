"""Closed-form Ramsey interference on the R1/R2 transition.

The sequence is: a pi/2 pulse on mu1 (duration t_mu1, detuning delta1),
an intermediate resonant mu2 pulse (rabi omega_mu2, duration t_mu2), and
a second identical pi/2 pulse on mu1.  The retrieved intensity follows

    I(delta1) = I0 * ( |a|^2 + |b|^2 K^2 + c K ),   K = cos(omega_mu2 * t_mu2 / 2)

where `a` is the amplitude for the excitation to return to R1 without
visiting R2 between the pulses, `b` the amplitude for the path that parks
in R2 (and is chopped by the mu2 pulse), and c = 2 Re(a conj(b)) their
interference.  Both follow from the pi/2-pulse propagator at fixed pulse
area: with the generalized rotation angle

    angle = sqrt((delta1 * t_mu1)^2 + (pi/2)^2)

one finds a = e^{i delta1 t_mu1} (cos(angle/2) - i delta1 t_mu1 sin(angle/2)/angle)^2
and |b| = pi^2 sin^2(angle/2) / (4 delta1^2 t_mu1^2 + pi^2), with the
phase of b advanced by the free precession over the full sequence time
t_total = t_mu1 + t_mu2 (+ any dead time).

The fringe visibility against the intermediate pulse area theta is

    V(theta) = | 2 cos(theta/2) / (1 + cos^2(theta/2)) |.

Backends: ANALYTIC evaluates the closed form over the whole grid at
once.  UNITARY and LINDBLAD propagate the sequence of
:func:`build_ramsey_sequence`, the one layout of the Ramsey sequence, with
the detunings of a block of BLOCK_POINTS grid points stacked in its mu1
pulses (:func:`block_sequences`): UNITARY walks its segments' unitaries
from :func:`seqlab.qcore.segment_maps` (:func:`sequence_amplitudes`),
LINDBLAD makes one :func:`seqlab.dissipative.evolve_master` call per
block.  All three agree at delta1 = 0.  Away from resonance the
propagation backends follow the frame convention of :mod:`seqlab.qcore`
(no diagonal term while mu1 is off), so their fringe phase lacks the
free-precession advance delta1*t_mu2 that the closed form carries in
t_total; envelopes and visibility are unaffected, which is what the scans
are for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .dissipative import evolve_master
from .qcore import (
    DriveField,
    DriveSegment,
    PulseSequence,
    Wait,
    drive_hamiltonian,
    hermitian_propagator,
    segment_maps,
)

# Grid points propagated per stacked call.  Stacking a whole 2001-point
# scan at once ran no faster and raised the CLI's peak memory by ~13 %.
BLOCK_POINTS = 256


class Backend(str, Enum):
    ANALYTIC = "analytic"
    UNITARY = "unitary"
    LINDBLAD = "lindblad"


def ramsey_terms(delta1, t_mu1: float, t_mu2: float, dead_time: float = 0.0):
    """(stay, swap): the complex amplitudes of the R1 -> R1 -> R1 path and
    of the R1 -> R2 -> R1 path (before the intermediate-pulse factor K),
    at a mu1 detuning or an array of them, for a positive t_mu1 and
    non-negative t_mu2 and dead_time (a checked RamseyScanConfig's)."""
    delta1 = np.asarray(delta1, dtype=float)
    dt1 = delta1 * t_mu1
    angle = np.sqrt(dt1 * dt1 + 0.25 * math.pi**2)
    t_total = t_mu1 + t_mu2 + dead_time
    half = 0.5 * angle
    stay = np.exp(1j * dt1) * (np.cos(half) - 1j * dt1 * np.sin(half) / angle) ** 2
    swap = -np.exp(1j * delta1 * t_total) * (
        math.pi**2 * np.sin(half) ** 2 / (4.0 * dt1 * dt1 + math.pi**2)
    )
    return stay, swap


def ramsey_intensity(
    delta1,
    t_mu1: float,
    omega_mu2: float,
    t_mu2: float,
    I0: float = 1.0,
    dead_time: float = 0.0,
):
    """Closed-form fringe intensity at a detuning or an array of them."""
    stay, swap = ramsey_terms(delta1, t_mu1, t_mu2, dead_time)
    cross = 2.0 * (stay * swap.conj()).real
    K = math.cos(0.5 * omega_mu2 * t_mu2)
    return I0 * (np.abs(stay) ** 2 + np.abs(swap) ** 2 * K * K + cross * K)


def ramsey_visibility(omega_mu2: float, t_mu2: float) -> float:
    """Fringe visibility as a function of the intermediate pulse area."""
    c = math.cos(0.5 * omega_mu2 * t_mu2)
    return abs(2.0 * c / (1.0 + c * c))


@dataclass(frozen=True)
class RamseyScanConfig:
    """Grid and sequence parameters for a detuning scan.

    deltas must be strictly increasing.  inter_pulse_gap inserts a wait
    of that duration on both sides of the intermediate pulse (identity in
    this frame; it only enters the closed form through t_total).
    dissipation is consulted by the LINDBLAD backend only, which
    propagates each segment exactly.
    """

    t_mu1: float
    deltas: tuple[float, ...]
    omega_mu2: float
    t_mu2: float
    backend: Backend = Backend.ANALYTIC
    I0: float = 1.0
    inter_pulse_gap: float = 0.0
    dissipation: "object | None" = None

    def __post_init__(self):
        if self.t_mu1 <= 0:
            raise ValueError("t_mu1 must be strictly positive")
        if self.t_mu2 < 0 or self.omega_mu2 < 0 or self.inter_pulse_gap < 0:
            raise ValueError("t_mu2, omega_mu2 and inter_pulse_gap must be non-negative")
        if any(b <= a for a, b in zip(self.deltas, self.deltas[1:])):
            raise ValueError("deltas must be strictly increasing")


def symmetric_detuning_grid(span: float, points: int) -> tuple[float, ...]:
    """Odd-count grid over [-span, +span] with an exact 0.0 at the center.

    Built as step * arange so the center point is exactly representable,
    which the on-resonance visibility extraction relies on.
    """
    if points < 3 or points % 2 == 0:
        raise ValueError("points must be odd and >= 3")
    if span <= 0:
        raise ValueError("span must be strictly positive")
    half = (points - 1) // 2
    step = span / half
    return tuple(step * k for k in range(-half, half + 1))


def build_ramsey_sequence(
    delta1,
    t_mu1: float,
    omega_mu2: float,
    t_mu2: float,
    inter_pulse_gap: float = 0.0,
) -> PulseSequence:
    """The control sequence used by the propagation backends: mu1 pi/2,
    [gap wait], [mu2 pulse if t_mu2 > 0], [gap wait], the same mu1 pi/2.

    Both pi/2 pulses are one segment object with rabi = pi / (2 t_mu1), so
    the pulse area stays pi/2 while the detuning is scanned.  delta1 is a
    detuning or an array of them; an array stacks the mu1 pulses over it.
    """
    half_pi = DriveSegment(
        field=DriveField.MU1,
        rabi=math.pi / (2.0 * t_mu1),
        duration=t_mu1,
        detuning=delta1,
    )
    segs: list = [half_pi]
    if inter_pulse_gap > 0:
        segs.append(Wait(inter_pulse_gap))
    if t_mu2 > 0:
        segs.append(
            DriveSegment(field=DriveField.MU2, rabi=omega_mu2, duration=t_mu2)
        )
    if inter_pulse_gap > 0:
        segs.append(Wait(inter_pulse_gap))
    segs.append(half_pi)
    return PulseSequence(tuple(segs))


def block_sequences(config: RamseyScanConfig) -> Iterator[tuple[slice, PulseSequence]]:
    """(block, sequence) for each block of BLOCK_POINTS detunings of
    config: the :func:`build_ramsey_sequence` sequence stacked over them."""
    deltas = np.asarray(config.deltas, dtype=float)
    for start in range(0, deltas.size, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        yield block, build_ramsey_sequence(
            deltas[block], config.t_mu1, config.omega_mu2, config.t_mu2,
            config.inter_pulse_gap,
        )


def sequence_amplitudes(
    sequence: PulseSequence,
    lift: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Final amplitudes of a sequence whose segments stack a block of
    detunings, shape (block, d), from the stored excitation: basis state 0
    of the space, R1 or the stored pair.

    lift maps a (..., 3, 3) stack of single-excitation Hamiltonians to the
    (..., d, d) Hamiltonians of the space; None keeps the qutrit space.
    All segments take one propagator call.
    """
    def propagator(h: np.ndarray, t: np.ndarray) -> np.ndarray:
        return hermitian_propagator(h if lift is None else lift(h), t)

    first, *rest = segment_maps(sequence.segments, propagator)
    amps = first[..., :1]  # the first map acting on basis state 0
    for step in rest:
        amps = step @ amps
    return amps[..., 0]


def block_intensities(config: RamseyScanConfig, sequence: PulseSequence) -> np.ndarray:
    """Intensities of config's UNITARY or LINDBLAD backend at the detunings
    that sequence stacks, one block of :func:`block_sequences`."""
    if config.backend is Backend.UNITARY:
        return config.I0 * np.abs(sequence_amplitudes(sequence)[:, 0]) ** 2
    final = evolve_master(sequence, config.dissipation)  # LINDBLAD
    return config.I0 * final[:, 0, 0].real


def fringe_scan(config: RamseyScanConfig) -> np.ndarray:
    """Run a detuning scan with the configured backend: a float64 array of
    intensities, one per config.deltas."""
    if config.backend is Backend.ANALYTIC:
        dead = 2.0 * config.inter_pulse_gap
        return ramsey_intensity(
            config.deltas, config.t_mu1, config.omega_mu2, config.t_mu2, config.I0, dead
        )
    return np.concatenate(
        [block_intensities(config, seq) for _, seq in block_sequences(config)]
    )


def extract_visibility(config: RamseyScanConfig, intensities) -> float:
    """On-resonance fringe visibility from the intensities of a scan over
    config.deltas.

    The scan intensity is an even function of detuning, so the point at
    exactly zero detuning sits on a fringe extremum where both path
    envelopes equal 1/2.  Reading I(0)/I0 = (1 - K)^2 / 4 off the scan
    fixes the intermediate-pulse factor K, and with the on-resonance
    envelope the opposing extremum is I0 (1 + K)^2 / 4.  The visibility is
    the usual (max - min) / (max + min) of that extremum pair.  This
    stays exact where a plain sinusoid fit would be biased by the
    envelope curvature away from resonance.

    Requires a grid containing detuning 0.0 exactly; see
    :func:`symmetric_detuning_grid`.
    """
    idx = config.deltas.index(0.0)  # ValueError without an exact 0.0
    center = float(intensities[idx]) / config.I0
    r = math.sqrt(min(max(center, 0.0), 1.0))
    K = 1.0 - 2.0 * r
    opposite = 0.25 * (1.0 + K) ** 2
    # a scan's center lies in [0, 1] up to rounding: r^2 + (1 - r)^2 >= 1/2
    return abs(opposite - center) / (center + opposite)


def rabi_scan(
    times,
    omega_mu2: float,
    t_mu1: float = 20e-9,
    detuning2: float = 0.0,
) -> np.ndarray:
    """Populations versus mu2 drive time after a mu1 pi/2 preparation.

    The pi/2 pulse splits the excitation evenly between R1 and R2; the
    subsequent mu2 drive swaps R2 and R3 while leaving R1 untouched, so
    P1 stays at 1/2 and P2/P3 oscillate with period 2*pi/omega_mu2.

    Returns an (n, 4) array with columns (t_mu2, P1, P2, P3).  Times must
    be finite and non-negative; a time of 0 means no mu2 segment.  The
    mu2 drive is one Hamiltonian, so one eigendecomposition serves every
    time.
    """
    times = np.asarray(times, dtype=float)
    h1 = drive_hamiltonian(DriveField.MU1, math.pi / (2.0 * t_mu1))
    prep = hermitian_propagator(h1, t_mu1)[:, 0]
    h2 = drive_hamiltonian(DriveField.MU2, omega_mu2, detuning2)
    amps = np.tile(prep, (times.size, 1))
    driven = times > 0
    amps[driven] = hermitian_propagator(h2, times[driven]) @ prep
    return np.column_stack((times, np.abs(amps) ** 2))
