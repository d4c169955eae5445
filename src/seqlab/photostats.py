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

The HBT samplers return the per-trial click counts as an (n_trials, 2, 3)
int16 array, arm by time bin, and :func:`estimate_g2` reads that array.
The run configuration bounds the counts, rates and efficiencies that
reach this module; only the inter-bin dephasing rate, which the example
scripts pass too, is checked here.
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
# Trials per block of the streamed samplers: the float draws and the index
# temporaries are this long, whatever n_trials is.
SHOT_BLOCK = 1 << 15


def _blocks(n_trials: int):
    """(start, stop) of each SHOT_BLOCK-trial block, in trial order."""
    for start in range(0, n_trials, SHOT_BLOCK):
        yield start, min(start + SHOT_BLOCK, n_trials)


def _add_dark_counts(rng, counts: np.ndarray, dark_rate: float) -> None:
    """counts += rng.random(counts.shape) < dark_rate, one block at a time.

    Filling one reused buffer block by block draws the same stream as the
    one (n_trials, 2, 3) draw.
    """
    buf = np.empty(6 * min(len(counts), SHOT_BLOCK))
    for start, stop in _blocks(len(counts)):
        u = buf[: 6 * (stop - start)].reshape(stop - start, 2, 3)
        counts[start:stop] += rng.random(out=u) < dark_rate


def sample_shots(
    pops: tuple[float, float, float],
    n_trials: int,
    seed: int,
    dark_rate: float = 0.0,
    p2: float = 0.0,
) -> np.ndarray:
    """Monte-Carlo HBT records for n_trials sequence repetitions: the
    (n_trials, 2, 3) int16 click counts, axis 1 the detector arm (index 0
    is arm A) and axis 2 the time bin.

    Each trial: with probability p2 a double-excitation event emits two
    photons into bin 1, split independently between the arms; otherwise a
    single photon lands in bin b with probability pops[b-1] (possibly no
    photon at all) and picks an arm 50/50.  Dark counts add one click per
    arm and bin with probability dark_rate, independently.  The draw
    order is fixed, so identical seeds give identical records.  pops are
    bin probabilities that sum to at most 1, n_trials > 0 and dark_rate
    and p2 lie in [0, 1).

    The draws are streamed through the trials in SHOT_BLOCK blocks, each
    kind of draw over all trials before the next, so the records are
    identical to those of whole-array draws.  Besides the 12 B/trial
    records only one int8 per trial is kept whole, and everything else is
    block sized: the peak is about 17 B/trial at 500 000 trials.
    """
    counts = np.zeros((n_trials, 2, 3), dtype=np.int16)
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
        rows = np.flatnonzero(bin_idx[start:stop])
        counts[start + rows, 0, 0] = double_a[rows]
        counts[start + rows, 1, 0] = 2 - double_a[rows]
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
    # a trial lands in at most one cell, 6 * trial + 3 * arm + bin of the
    # flat counts, so one scatter per block writes them all
    cells = counts.reshape(-1)
    for start, stop in _blocks(n_trials):
        arm_b = rng.random(out=buf[: stop - start]) >= 0.5
        idx = bin_idx[start:stop]
        rows = np.flatnonzero(idx < 3)
        cells[6 * (start + rows) + 3 * arm_b[rows] + idx[rows]] = 1
    del bin_idx, buf
    if dark_rate > 0:
        _add_dark_counts(rng, counts, dark_rate)
    return counts


def sample_coherent_shots(
    mean_photons: float,
    n_trials: int,
    seed: int,
    bin: int = 1,
    dark_rate: float = 0.0,
) -> np.ndarray:
    """Poissonian source mode: photon number ~ Poisson(mean_photons) in one
    bin, split binomially between the arms.  Gives g2 = 1 in expectation.
    The counts are laid out as ``sample_shots`` lays them out; a photon
    number beyond the int16 records raises ValueError.

    Streamed in SHOT_BLOCK blocks like ``sample_shots``, with records
    identical to those of whole-array draws: the photon numbers go straight
    into arm B's column, which the binomial split then reduces in place, so
    nothing but the 12 B/trial records is kept whole.  The peak is about
    14 B/trial at 500 000 trials, 16 with dark counts.
    """
    counts = np.zeros((n_trials, 2, 3), dtype=np.int16)
    arm_a, arm_b = counts[:, 0, bin - 1], counts[:, 1, bin - 1]
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
        _add_dark_counts(rng, counts, dark_rate)
    return counts


# ---------------------------------------------------------------------------
# g2(0) estimation


N_BOOTSTRAP = 200
BOOTSTRAP_SEED = 815


def estimate_g2(counts: np.ndarray, bin: int = 1) -> tuple[float, float]:
    """(g2, stderr): g2(0) = <nA nB> / (<nA> <nB>) over trials for the
    chosen bin, and its bootstrap standard error, from the (n_trials, 2,
    3) int16 counts of a sampler.  NumericError when an arm registered no
    clicks, which leaves the normalization undefined.

    The bootstrap (N_BOOTSTRAP resamples, seeded) resamples trials with
    replacement; collapsing to unique (nA, nB) outcomes makes that a
    multinomial redraw, which is fast at large n.  The outcomes are
    collapsed on one packed key nA * (COUNT_MAX + 1) + nB: both counts lie
    in [0, COUNT_MAX], so the sorted keys list the outcomes in
    lexicographic (nA, nB) order.  The multinomial draws depend on that
    order, so it fixes the stderr that BOOTSTRAP_SEED yields.  The product
    nA * nB is at most COUNT_MAX**2 and the key at most 2**30 - 1, so both
    are exact in int32.
    """
    na, nb = counts[:, 0, bin - 1], counts[:, 1, bin - 1]
    n = len(counts)
    mean_a = na.mean()
    mean_b = nb.mean()
    if mean_a == 0.0 or mean_b == 0.0:
        raise NumericError(
            f"g2 undefined: one arm registered no clicks ({n} trials, bin {bin})"
        )
    value = float(np.multiply(na, nb, dtype=np.int32).mean() / (mean_a * mean_b))

    radix = COUNT_MAX + 1
    keys, freq = np.unique(
        na.astype(np.int32) * radix + nb, return_counts=True
    )
    ua = (keys // radix).astype(float)
    ub = (keys % radix).astype(float)
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

