"""Read-out bins, HBT shot sampling, g2(0) estimation and fringe fitting.

Read-out maps the qutrit onto three photon time bins: bin 1 retrieves
whatever sits in R1, a mu1 pi pulse then moves R2 down for bin 2, and a
mu2 pi pulse followed by a mu1 pi pulse moves R3 down for bin 3.  Each
retrieval empties R1.  Retrieval efficiencies eta scale the three bins
independently.  A read-out sequence starts from the stored excitation in
R1, like every sequence; the segments before bin 1 prepare the state that
the bins read.

Dephasing accumulated between bins suppresses the retrievable collective
mode, so it shows up as signal loss rather than as a population change:
each retrieval after the first is scaled by exp(-rate * elapsed), with the
elapsed time taken from the durations of the remapping segments actually
in the sequence.

The HBT samplers record the one time bin that g2 reads: the per-trial
click counts of arm A and arm B in that bin, as an (n_trials, 2) int16
array, drawn from the same stream as records of all three bins.
:func:`estimate_g2` collapses that array to its (nA, nB) outcome
histogram block by block.  The run configuration bounds the counts, rates
and efficiencies that reach this module; only the inter-bin dephasing
rate, which the example scripts pass too, is checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dissipative import NumericError, stored_excitation
from .qcore import (
    DriveField,
    DriveSegment,
    PulseSequence,
    Readout,
    hermitian_propagator,
    segment_maps,
)

DEFAULT_PI_PULSE_S = 40e-9  # pi pulse at rabi = 2*pi*12.5 MHz


@dataclass(frozen=True)
class TimeBinPopulations:
    """Retrieval probabilities of the three time bins."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p3):
            if not math.isfinite(p) or p < 0:
                raise ValueError("bin probabilities must be finite and non-negative")
        if self.p1 + self.p2 + self.p3 > 1.0 + 1e-9:
            raise ValueError("bin probabilities exceed unity")


def readout_from_sequence(
    sequence: PulseSequence,
    eta=(1.0, 1.0, 1.0),
    deph_between_bins: float = 0.0,
) -> TimeBinPopulations:
    """Walk a sequence containing Readout segments from the stored
    excitation and collect the bins.

    Drive/wait segments propagate the state; each Readout(b) records the
    current R1 population times eta[b-1] (times the inter-bin dephasing
    factor) and then zeroes R1, modelling the departed photon.  The
    dephasing clock starts at the first readout, so bin 1 is never
    attenuated.  eta holds three efficiencies in [0, 1].  The state is
    walked as its density matrix, from
    :func:`seqlab.dissipative.stored_excitation`; all drive/wait
    propagators come from one stacked call.
    """
    if deph_between_bins < 0 or not math.isfinite(deph_between_bins):
        raise ValueError("deph_between_bins must be finite and non-negative")

    rho = stored_excitation()
    steps = iter(segment_maps(sequence.drive_segments(), hermitian_propagator))
    U = np.eye(4, dtype=complex)  # the loss level is untouched

    bins = {1: 0.0, 2: 0.0, 3: 0.0}
    clock_running = False
    elapsed = 0.0
    for seg in sequence.segments:
        if isinstance(seg, Readout):
            factor = eta[seg.bin - 1]
            if clock_running and deph_between_bins > 0:
                factor *= math.exp(-deph_between_bins * elapsed)
            # rho is positive semidefinite: a negative rho_00 is rounding
            bins[seg.bin] = max(float(rho[0, 0].real), 0.0) * factor
            rho[0, :] = 0.0
            rho[:, 0] = 0.0
            clock_running = True
        else:
            U[:3, :3] = next(steps)
            rho = U @ rho @ U.conj().T
            if clock_running:
                elapsed += seg.duration
    return TimeBinPopulations(bins[1], bins[2], bins[3])


def readout_populations(prep, deph_between_bins: float = 0.0) -> TimeBinPopulations:
    """Three-bin read-out of the state that the drive/wait segments prep
    prepare from the stored excitation: the canonical remapping pulses
    follow prep, with ideal retrieval and pi pulses of DEFAULT_PI_PULSE_S
    on both fields, which set the inter-bin delays that the dephasing
    factor sees.
    """
    t = DEFAULT_PI_PULSE_S
    pi_mu1 = DriveSegment(DriveField.MU1, rabi=math.pi / t, duration=t)
    pi_mu2 = DriveSegment(DriveField.MU2, rabi=math.pi / t, duration=t)
    chain = (Readout(1), pi_mu1, Readout(2), pi_mu2, pi_mu1, Readout(3))
    return readout_from_sequence(
        PulseSequence((*prep, *chain)), deph_between_bins=deph_between_bins
    )


# ---------------------------------------------------------------------------
# HBT shot sampling


COUNT_MAX = int(np.iinfo(np.int16).max)
# Draws per block of the streamed samplers, and trials per block of the g2
# outcome histogram: every block buffer and index temporary is this long at
# most, whatever n_trials is.
SHOT_BLOCK = 1 << 15


def _blocks(n_trials: int, draws_per_trial: int = 1):
    """(start, stop) of each block of SHOT_BLOCK // draws_per_trial trials,
    in trial order, so that a block takes at most SHOT_BLOCK draws."""
    size = SHOT_BLOCK // draws_per_trial
    for start in range(0, n_trials, size):
        yield start, min(start + size, n_trials)


def _add_dark_counts(rng, counts: np.ndarray, dark_rate: float, bin: int) -> None:
    """counts += rng.random((n_trials, 2, 3))[:, :, bin - 1] < dark_rate.

    The draws cover all three bins, so the stream stays that of three-bin
    records; one reused buffer of at most SHOT_BLOCK floats takes them
    block by block, and only the recorded bin's column is added.
    """
    buf = np.empty(min(6 * len(counts), SHOT_BLOCK))
    for start, stop in _blocks(len(counts), draws_per_trial=6):
        u = rng.random(out=buf[: 6 * (stop - start)].reshape(stop - start, 2, 3))
        counts[start:stop] += u[:, :, bin - 1] < dark_rate


def sample_shots(
    pops: tuple[float, float, float],
    n_trials: int,
    seed: int,
    bin: int = 1,
    dark_rate: float = 0.0,
    p2: float = 0.0,
) -> np.ndarray:
    """Monte-Carlo HBT records of time bin ``bin`` for n_trials sequence
    repetitions: the (n_trials, 2) int16 click counts of arm A (column 0)
    and arm B in that bin.

    Each trial: with probability p2 a double-excitation event emits two
    photons into bin 1, split independently between the arms; otherwise a
    single photon lands in bin b with probability pops[b-1] (possibly no
    photon at all) and picks an arm 50/50.  Dark counts add one click per
    arm and bin with probability dark_rate, independently.  The draw
    order is fixed, so identical seeds give identical records.  pops are
    bin probabilities that sum to at most 1, n_trials > 0, bin is 1, 2 or
    3, and dark_rate and p2 lie in [0, 1).

    Every draw of all three bins is made, whichever bin is recorded, so a
    bin's records are the column of that bin in three-bin records.  The
    draws are streamed through the trials in blocks, each kind of draw
    over all trials before the next, so the records are identical to
    those of whole-array draws.  Besides the 4 B/trial records only one
    int8 per trial is kept whole, and everything else is block sized: the
    peak is about 9 B/trial at 500 000 trials.
    """
    counts = np.zeros((n_trials, 2), dtype=np.int16)
    buf = np.empty(min(n_trials, SHOT_BLOCK))
    rng = np.random.default_rng(seed)
    # one int8 per trial carries the draws from pass to pass: first the
    # double flag, then the single photon's bin (3 or more: no photon)
    bin_idx = np.empty(n_trials, dtype=np.int8)
    for start, stop in _blocks(n_trials):
        np.less(rng.random(out=buf[: stop - start]), p2, out=bin_idx[start:stop])
    # double-excitation branch: both photons in bin 1
    for start, stop in _blocks(n_trials):
        double_a = rng.binomial(2, 0.5, size=stop - start)
        if bin == 1:
            rows = np.flatnonzero(bin_idx[start:stop])
            counts[start + rows, 0] = double_a[rows]
            counts[start + rows, 1] = 2 - double_a[rows]
    # single branch: categorical over the three bins (or nothing).  The bin
    # is the number of cumulative pops <= u, as searchsorted(side="right")
    # gives it; a double's flag becomes 3 first, so it never gets a photon.
    cum = np.cumsum(pops)
    for start, stop in _blocks(n_trials):
        u_bin = rng.random(out=buf[: stop - start])
        idx = bin_idx[start:stop]
        idx *= 3
        for edge in cum:
            idx += u_bin >= edge
    # a single photon in the recorded bin sets one cell, 2 * trial + arm of
    # the flat counts, so one scatter per block writes them all
    cells = counts.reshape(-1)
    for start, stop in _blocks(n_trials):
        arm_b = rng.random(out=buf[: stop - start]) >= 0.5
        rows = np.flatnonzero(bin_idx[start:stop] == bin - 1)
        cells[2 * (start + rows) + arm_b[rows]] = 1
    del bin_idx, buf
    if dark_rate > 0:
        _add_dark_counts(rng, counts, dark_rate, bin)
    return counts


def sample_coherent_shots(
    mean_photons: float,
    n_trials: int,
    seed: int,
    bin: int = 1,
    dark_rate: float = 0.0,
) -> np.ndarray:
    """Poissonian source mode: photon number ~ Poisson(mean_photons) in time
    bin ``bin``, split binomially between the arms.  Gives g2 = 1 in
    expectation.  The records of that bin are laid out as ``sample_shots``
    lays them out; a photon number beyond the int16 records raises
    ValueError.

    Streamed in blocks like ``sample_shots``, with records identical to
    the bin's column of whole-array draws: the photon numbers go straight
    into arm B's column, which the binomial split then reduces in place,
    so nothing but the 4 B/trial records is kept whole.  The peak is about
    6 B/trial at 500 000 trials.
    """
    counts = np.zeros((n_trials, 2), dtype=np.int16)
    arm_a, arm_b = counts.T
    rng = np.random.default_rng(seed)
    top = 0
    for start, stop in _blocks(n_trials):
        nph = rng.poisson(mean_photons, stop - start)
        top = max(top, int(nph.max()))
        arm_b[start:stop] = nph  # wraps past COUNT_MAX, but then we raise
    # a dark click can add one count per arm
    if top > COUNT_MAX - (dark_rate > 0):
        raise ValueError(
            f"photon count {top} overflows the int16 shot records; "
            "lower mean_photons"
        )
    for start, stop in _blocks(n_trials):
        na = rng.binomial(arm_b[start:stop], 0.5)
        arm_a[start:stop] = na
        arm_b[start:stop] -= na  # nph - na in place
    if dark_rate > 0:
        _add_dark_counts(rng, counts, dark_rate, bin)
    return counts


# ---------------------------------------------------------------------------
# g2(0) estimation


N_BOOTSTRAP = 200
BOOTSTRAP_SEED = 815


def _outcome_histogram(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys, freq) of the distinct (nA, nB) outcomes of (n_trials, 2)
    records: the sorted packed keys nA * (COUNT_MAX + 1) + nB and the int64
    number of trials of each, merged from SHOT_BLOCK-trial blocks.

    Both counts lie in [0, COUNT_MAX], so a key is at most 2**30 - 1, exact
    in int32, and the sorted keys list the outcomes in lexicographic
    (nA, nB) order.
    """
    keys = np.empty(0, dtype=np.int32)
    freq = np.empty(0, dtype=np.int64)
    for start, stop in _blocks(len(counts)):
        block = counts[start:stop]
        packed = np.multiply(block[:, 0], COUNT_MAX + 1, dtype=np.int32)
        packed += block[:, 1]
        block_keys, block_freq = np.unique(packed, return_counts=True)
        keys, where = np.unique(np.concatenate([keys, block_keys]), return_inverse=True)
        merged = np.zeros(len(keys), dtype=np.int64)
        np.add.at(merged, where, np.concatenate([freq, block_freq]))
        freq = merged
    return keys, freq


def estimate_g2(counts: np.ndarray, bin: int = 1) -> tuple[float, float]:
    """(g2, stderr): g2(0) = <nA nB> / (<nA> <nB>) over trials, and its
    bootstrap standard error, from the (n_trials, 2) int16 records of one
    time bin that a sampler returns; bin names that bin in the diagnostic.
    NumericError when an arm registered no clicks, which leaves the
    normalization undefined.

    The records are collapsed to their outcome histogram block by block,
    so nothing trial-long is built.  The sums behind <nA>, <nB> and
    <nA nB> are exact Python integers over that histogram, so each mean is
    one correctly rounded division by n at any n.  The bootstrap
    (N_BOOTSTRAP resamples, seeded) resamples trials with replacement;
    over the histogram that is a multinomial redraw, which is fast at
    large n.  The multinomial draws depend on the order of the outcomes,
    the lexicographic (nA, nB) order of the sorted keys, so that order
    fixes the stderr that BOOTSTRAP_SEED yields.
    """
    n = len(counts)
    keys, freq = _outcome_histogram(counts)
    ua, ub = np.divmod(keys, COUNT_MAX + 1)  # ua * ub <= COUNT_MAX**2: int32
    weights = freq.astype(object)
    sum_a, sum_b, sum_ab = (int(weights @ x) for x in (ua, ub, ua * ub))
    if sum_a == 0 or sum_b == 0:
        raise NumericError(
            f"g2 undefined: one arm registered no clicks ({n} trials, bin {bin})"
        )
    value = sum_ab / n / ((sum_a / n) * (sum_b / n))

    ua = ua.astype(float)
    ub = ub.astype(float)
    uab = ua * ub
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    draws = rng.multinomial(n, freq / n, size=N_BOOTSTRAP)
    sa = draws @ ua
    sb = draws @ ub
    sab = draws @ uab
    ok = (sa > 0) & (sb > 0)
    boot = n * sab[ok] / (sa[ok] * sb[ok])
    stderr = float(boot.std(ddof=1)) if boot.size > 1 else math.nan
    return value, stderr


# ---------------------------------------------------------------------------
# Sinusoid / fringe fitting


@dataclass(frozen=True)
class FitResult:
    """y ~ offset + amplitude * cos(frequency * x + phase).

    visibility is amplitude/|offset| clamped to [0, 1].  flags may contain
    "flat_scan", "not_converged", "frequency_far_from_hint" or
    "zero_offset".
    """

    offset: float
    amplitude: float
    frequency: float
    phase: float
    visibility: float
    residual_rms: float
    converged: bool
    flags: tuple[str, ...] = ()


MAX_FIT_ITERATIONS = 200
FIT_STEP_TOL = 1e-10


def _periodogram_peak(x: np.ndarray, y: np.ndarray) -> float | None:
    """Peak angular frequency of a demeaned uniform-grid periodogram.

    x is strictly increasing with at least 8 points (``fit_sinusoid``
    checks both before it calls this).
    """
    n = x.size
    dx = np.diff(x)
    if np.ptp(dx) > 1e-9 * dx.mean():  # non-uniform grid: caller falls back
        return None
    spec = np.abs(np.fft.rfft(y - y.mean())) ** 2
    k = int(np.argmax(spec[1:])) + 1
    if spec[k] == 0.0:
        return None
    # parabolic refinement on log power where neighbours exist
    if 1 <= k < spec.size - 1 and spec[k - 1] > 0 and spec[k + 1] > 0:
        la, lb, lc = np.log(spec[k - 1 : k + 2])
        denom = la - 2 * lb + lc
        if denom < 0:
            k = k + 0.5 * (la - lc) / denom
    return 2.0 * math.pi * k / (n * float(dx.mean()))


def fit_sinusoid(x, y, freq_hint: float) -> FitResult:
    """Least-squares sinusoid fit: Gauss-Newton with Levenberg damping.

    The frequency initializer is the periodogram peak (freq_hint as
    fallback); offset/quadrature amplitudes start from the linear solve at
    that frequency.  Convergence is a relative step below 1e-10 within 200
    iterations; a non-converged fit is returned flagged, with its residual.
    x and y are finite 1-d float arrays of equal length, and freq_hint is
    finite and positive (the scan reader and the CLI check them).  A scan
    whose spread is within 1e-12 of its largest magnitude is returned flat
    (flag "flat_scan"); fewer than 8 points, or an x that is not strictly
    increasing, raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 8:
        raise ValueError("need at least 8 points to fit")
    if not (np.diff(x) > 0).all():
        raise ValueError("x must be strictly increasing")

    scale = float(np.abs(y).max())
    if np.ptp(y) <= 1e-12 * scale:  # relative, so the fit is scale-free
        return FitResult(
            offset=float(y.mean()), amplitude=0.0, frequency=freq_hint,
            phase=0.0, visibility=0.0, residual_rms=0.0, converged=True,
            flags=("flat_scan",),
        )

    f = _periodogram_peak(x, y) or freq_hint

    def linear_at(f):
        M = np.column_stack([np.ones_like(x), np.cos(f * x), np.sin(f * x)])
        sol, *_ = np.linalg.lstsq(M, y, rcond=None)
        return sol

    o, A, B = linear_at(f)
    lam = 1e-3
    converged = False
    # c, s hold the trigonometry of the accepted f, reused by the next step
    c, s = np.cos(f * x), np.sin(f * x)
    r = y - (o + A * c + B * s)
    for _ in range(MAX_FIT_ITERATIONS):
        J = np.column_stack([np.ones_like(x), c, s, x * (-A * s + B * c)])
        g = J.T @ r
        Hm = J.T @ J
        damped = Hm + lam * np.diag(np.maximum(np.diag(Hm), 1e-30))
        try:
            step = np.linalg.solve(damped, g)
        except np.linalg.LinAlgError:
            break  # a singular system ends the fit unconverged
        cand = np.array([o, A, B, f]) + step
        rel = np.linalg.norm(step) / max(np.linalg.norm(cand), 1e-30)
        c_cand, s_cand = np.cos(cand[3] * x), np.sin(cand[3] * x)
        r_cand = y - (cand[0] + cand[1] * c_cand + cand[2] * s_cand)
        if (r_cand**2).sum() < (r**2).sum():
            o, A, B, f = cand
            r, c, s = r_cand, c_cand, s_cand
            lam = max(lam * 0.3, 1e-14)
            if rel < FIT_STEP_TOL:
                converged = True
                break
        else:
            # a proposal too small to move the parameters means we sit at
            # a minimum even if it no longer reduces the residual
            if rel < FIT_STEP_TOL:
                converged = True
                break
            lam *= 3.0
            if lam > 1e12:
                break

    amplitude = math.hypot(A, B)
    phase = math.atan2(-B, A)
    f = abs(f)
    flags = []
    if not converged:
        flags.append("not_converged")
    if abs(f - freq_hint) > 0.1 * freq_hint:
        flags.append("frequency_far_from_hint")
    # an offset at rounding scale against the amplitude makes the ratio
    # meaningless rather than merely large
    if abs(o) > 1e-12 * amplitude:
        visibility = min(max(amplitude / abs(o), 0.0), 1.0)
    else:
        visibility = 0.0
        flags.append("zero_offset")
    rms = float(np.sqrt((r**2).mean()))
    return FitResult(
        offset=float(o), amplitude=float(amplitude), frequency=float(f),
        phase=float(phase), visibility=float(visibility), residual_rms=rms,
        converged=converged, flags=tuple(flags),
    )

