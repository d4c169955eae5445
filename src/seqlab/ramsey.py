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

The fringe visibility against the intermediate pulse area theta,
V(theta) = | 2 cos(theta/2) / (1 + cos^2(theta/2)) |, is what the
example scripts read off the centre row of a scan and compare with.

A scan takes the run config's ``scan`` and ``dissipation`` sections as
they are; its grid is :func:`symmetric_detuning_grid` of the scan's span and
points.

Backends, the words of ``scan.backend``: analytic evaluates the closed
form over the whole grid at once.  unitary and lindblad propagate the
sequence of :func:`build_ramsey_sequence`, the one layout of the Ramsey
sequence (a plain tuple of segments), with the detunings of a block of
BLOCK_POINTS grid points stacked in its mu1 pulses (:func:`block_sequences`),
in the one block loop of :func:`fringe_scan`.  The rates choose the walk:
lindblad with a rate calls :func:`seqlab.dissipative.evolve_master`, the
rated walk; unitary, and lindblad with no rate set, never call it but take
the last state of a closed :func:`seqlab.qcore.propagate` walk, its norm
checked after every segment: zero-rate lindblad is unitary, to the bit.
All three agree at delta1 = 0.  Away from resonance they do not: the
propagation backends follow the frame convention of :mod:`seqlab.qcore`
(no diagonal term while mu1 is off) and lack the free-precession advance
that the closed form carries in t_total.  That moves the envelope and the
visibility as well as the fringe phase; on the default scan max |analytic
- unitary| is 0.7075 I0.  The mixture's double branch
(:mod:`seqlab.pairwise`) is propagated in the same frame, with the same
defect.  ROADMAP.md item 1 (one rotating frame) is the fix.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .config import DissipationSection, ScanSection
from .dissipative import channel_rates, checked_last_state, evolve_master
from .qcore import (
    DriveSegment,
    Segment,
    Wait,
    hermitian_propagator,
    propagate,
)

# Grid points propagated per stacked call.  Stacking a whole 2001-point
# scan at once ran no faster and raised the CLI's peak memory by ~13 %.
BLOCK_POINTS = 256


def ramsey_terms(delta1, t_mu1: float, t_mu2: float, dead_time: float):
    """(stay, swap): the complex amplitudes of the R1 -> R1 -> R1 path and
    of the R1 -> R2 -> R1 path (before the intermediate-pulse factor K),
    at a mu1 detuning or an array of them, for a positive t_mu1 and
    non-negative t_mu2 and dead_time (a checked scan section's)."""
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
    I0: float,
    dead_time: float,
):
    """Closed-form fringe intensity at a detuning or an array of them."""
    stay, swap = ramsey_terms(delta1, t_mu1, t_mu2, dead_time)
    cross = 2.0 * (stay * swap.conj()).real
    K = math.cos(0.5 * omega_mu2 * t_mu2)
    return I0 * (np.abs(stay) ** 2 + np.abs(swap) ** 2 * K * K + cross * K)


def symmetric_detuning_grid(span: float, points: int) -> np.ndarray:
    """Float64 grid over [-span, +span] with an exact 0.0 at the center,
    for a positive span and an odd points >= 3 (the config's bounds).

    Built as step * arange so the center point is exactly representable:
    the example scripts read the visibility off the 0.0 row of a scan.
    ValueError if the step underflows and the grid is not increasing.
    """
    half = (points - 1) // 2
    deltas = span / half * np.arange(-half, half + 1)
    if (np.diff(deltas) <= 0).any():
        raise ValueError("deltas must be strictly increasing")
    return deltas


def build_ramsey_sequence(
    delta1,
    t_mu1: float,
    omega_mu2: float,
    t_mu2: float,
    inter_pulse_gap: float,
) -> tuple[Segment, ...]:
    """The control sequence used by the propagation backends: mu1 pi/2,
    [gap wait], [mu2 pulse if t_mu2 > 0], [gap wait], the same mu1 pi/2.

    Both pi/2 pulses are one segment object with rabi = pi / (2 t_mu1), so
    the pulse area stays pi/2 while the detuning is scanned, and both gap
    waits are one object too: each is propagated once.  delta1 is a
    detuning or an array of them; an array stacks the mu1 pulses over it.
    """
    half_pi = DriveSegment(
        field="mu1",
        rabi=math.pi / (2.0 * t_mu1),
        duration=t_mu1,
        detuning=delta1,
    )
    gap = (Wait(inter_pulse_gap),) if inter_pulse_gap > 0 else ()
    mu2 = (
        (DriveSegment(field="mu2", rabi=omega_mu2, duration=t_mu2),)
        if t_mu2 > 0 else ()
    )
    return (half_pi, *gap, *mu2, *gap, half_pi)


def block_sequences(scan: ScanSection) -> Iterator[tuple[Segment, ...]]:
    """The :func:`build_ramsey_sequence` sequence of scan stacked over
    each block of BLOCK_POINTS detunings of its grid, in grid order."""
    deltas = symmetric_detuning_grid(scan.span, scan.points)
    for start in range(0, deltas.size, BLOCK_POINTS):
        yield build_ramsey_sequence(
            deltas[start : start + BLOCK_POINTS], scan.t_mu1, scan.omega_mu2,
            scan.t_mu2, scan.gap,
        )


def fringe_scan(scan: ScanSection, dissipation: DissipationSection) -> np.ndarray:
    """Run a detuning scan with the scan's backend: a float64 array of
    intensities, one per point of its grid.  dissipation is consulted by
    the lindblad backend only, and walked only if it sets a rate."""
    if scan.backend == "analytic":
        deltas = symmetric_detuning_grid(scan.span, scan.points)
        return ramsey_intensity(
            deltas, scan.t_mu1, scan.omega_mu2, scan.t_mu2, scan.i0, 2.0 * scan.gap
        )
    closed = scan.backend == "unitary" or not channel_rates(dissipation).any()
    return scan.i0 * np.concatenate([
        np.abs(checked_last_state(seq, propagate(seq, hermitian_propagator))[:, 0]) ** 2
        if closed else evolve_master(seq, dissipation)[:, 0, 0].real  # lindblad, rated
        for seq in block_sequences(scan)
    ])


def rabi_scan(
    times,
    omega_mu2: float,
    t_mu1: float,
    detuning2: float,
) -> np.ndarray:
    """Populations versus mu2 drive time after a mu1 pi/2 preparation.

    The pi/2 pulse splits the excitation evenly between R1 and R2; the
    subsequent mu2 drive swaps R2 and R3 while leaving R1 untouched, so
    P1 stays at 1/2 and P2/P3 oscillate with period 2*pi/omega_mu2.

    Returns an (n, 4) array with columns (t_mu2, P1, P2, P3).  Times must
    be finite and non-negative.  One mu2 segment is stacked over them,
    whose one Hamiltonian serves every time in the closed form of its
    blocks; at a time of 0 that form is exactly the identity, so the row
    is the prepared state.
    """
    times = np.asarray(times, dtype=float)
    half_pi = DriveSegment("mu1", rabi=math.pi / (2.0 * t_mu1), duration=t_mu1)
    mu2 = DriveSegment("mu2", rabi=omega_mu2, duration=times, detuning=detuning2)
    after_mu2 = propagate((half_pi, mu2), hermitian_propagator)[-1]
    return np.column_stack((times, np.abs(after_mu2) ** 2))
