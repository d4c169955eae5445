"""Read-out bins, HBT shot sampling, g2(0) estimation and fringe fitting.

Read-out maps the qutrit onto three photon time bins: bin 1 retrieves
whatever sits in R1, a mu1 pi pulse then moves R2 down for bin 2, and a
mu2 pi pulse followed by a mu1 pi pulse moves R3 down for bin 3.  Each
retrieval empties R1.  Retrieval efficiencies eta scale the three bins
independently.

Dephasing accumulated between bins suppresses the retrievable collective
mode, so it shows up as signal loss rather than as a population change:
each retrieval after the first is scaled by exp(-rate * elapsed), with the
elapsed time taken from the durations of the remapping segments actually
in the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dissipative import DensityMatrix
from .qcore import (
    DriveField,
    DriveSegment,
    PulseSequence,
    QutritState,
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

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)


def _validate_eta(eta) -> tuple[float, float, float]:
    eta = tuple(float(e) for e in eta)
    if len(eta) != 3 or any(not (0.0 <= e <= 1.0) for e in eta):
        raise ValueError("eta must be three efficiencies in [0, 1]")
    return eta


def readout_from_sequence(
    state: QutritState | DensityMatrix,
    sequence: PulseSequence,
    eta=(1.0, 1.0, 1.0),
    deph_between_bins: float = 0.0,
) -> TimeBinPopulations:
    """Walk a sequence containing Readout segments and collect the bins.

    Drive/wait segments propagate the state; each Readout(b) records the
    current R1 population times eta[b-1] (times the inter-bin dephasing
    factor) and then zeroes R1, modelling the departed photon.  The
    dephasing clock starts at the first readout, so bin 1 is never
    attenuated.  A pure state enters as its density matrix; all drive/wait
    propagators come from one stacked call.
    """
    eta = _validate_eta(eta)
    if deph_between_bins < 0 or not math.isfinite(deph_between_bins):
        raise ValueError("deph_between_bins must be finite and non-negative")

    if isinstance(state, QutritState):
        state = DensityMatrix.pure(state)
    rho = state.matrix.astype(complex)
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
            bins[seg.bin] = float(rho[0, 0].real) * factor
            rho[0, :] = 0.0
            rho[:, 0] = 0.0
            clock_running = True
        else:
            U[:3, :3] = next(steps)
            rho = U @ rho @ U.conj().T
            if clock_running:
                elapsed += seg.duration
    return TimeBinPopulations(bins[1], bins[2], bins[3])


def readout_populations(
    state: QutritState | DensityMatrix,
    eta=(1.0, 1.0, 1.0),
    deph_between_bins: float = 0.0,
    pulse_durations: tuple[float, float] = (DEFAULT_PI_PULSE_S, DEFAULT_PI_PULSE_S),
) -> TimeBinPopulations:
    """Three-bin read-out with the canonical remapping pulses.

    pulse_durations = (mu1 pi pulse, mu2 pi pulse) set the inter-bin
    delays that the dephasing factor sees.
    """
    t1, t2 = pulse_durations
    pi_mu1 = DriveSegment(DriveField.MU1, rabi=math.pi / t1, duration=t1)
    pi_mu2 = DriveSegment(DriveField.MU2, rabi=math.pi / t2, duration=t2)
    chain = PulseSequence(
        (Readout(1), pi_mu1, Readout(2), pi_mu2, pi_mu1, Readout(3)),
        label="readout",
    )
    return readout_from_sequence(state, chain, eta, deph_between_bins)


# ---------------------------------------------------------------------------
# HBT shot sampling


COUNT_MAX = int(np.iinfo(np.int16).max)


class ShotRecords:
    """Per-trial click counts backed by an (n, 2, 3) count array.

    Axis 1 is the detector arm (index 0 is arm A), axis 2 the time bin.
    Counts are stored as int16, so each must lie in [0, COUNT_MAX].
    """

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts)
        if counts.ndim != 3 or counts.shape[1:] != (2, 3):
            raise ValueError("counts must have shape (n_trials, 2, 3)")
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if counts.size and counts.max() > COUNT_MAX:
            raise ValueError(f"counts must not exceed {COUNT_MAX}")
        self.counts = counts.astype(np.int16)

    def __len__(self) -> int:
        return self.counts.shape[0]

    def arm_counts(self, bin: int) -> tuple[np.ndarray, np.ndarray]:
        if bin not in (1, 2, 3):
            raise ValueError("bin must be 1, 2 or 3")
        return self.counts[:, 0, bin - 1], self.counts[:, 1, bin - 1]


def _validate_sampling(n_trials: int, dark_rate: float, p2: float) -> None:
    if n_trials <= 0:
        raise ValueError("n_trials must be strictly positive")
    if not (0.0 <= dark_rate < 1.0):
        raise ValueError("dark_rate must lie in [0, 1)")
    if not (0.0 <= p2 < 1.0):
        raise ValueError("p2 must lie in [0, 1)")


def sample_shots(
    pops: TimeBinPopulations | tuple[float, float, float],
    n_trials: int,
    seed: int,
    dark_rate: float = 0.0,
    p2: float = 0.0,
) -> ShotRecords:
    """Monte-Carlo HBT records for n_trials sequence repetitions.

    Each trial: with probability p2 a double-excitation event emits two
    photons into bin 1, split independently between the arms; otherwise a
    single photon lands in bin b with probability pops[b-1] (possibly no
    photon at all) and picks an arm 50/50.  Dark counts add one click per
    arm and bin with probability dark_rate, independently.  The draw
    order is fixed, so identical seeds give identical records.
    """
    if isinstance(pops, TimeBinPopulations):
        p = pops.as_tuple()
    else:
        p = tuple(float(x) for x in pops)
        TimeBinPopulations(*p)  # reuse validation
    _validate_sampling(n_trials, dark_rate, p2)

    rng = np.random.default_rng(seed)
    double = rng.random(n_trials) < p2
    double_a = rng.binomial(2, 0.5, size=n_trials)
    u_bin = rng.random(n_trials)
    arm_a = rng.random(n_trials) < 0.5

    counts = np.zeros((n_trials, 2, 3), dtype=np.int16)
    # double-excitation branch: both photons in bin 1
    counts[:, 0, 0] = np.where(double, double_a, 0)
    counts[:, 1, 0] = np.where(double, 2 - double_a, 0)
    # single branch: categorical over the three bins (or nothing); a
    # trial lands in at most one cell, so one scatter writes them all
    bin_idx = np.searchsorted(np.cumsum(p), u_bin, side="right")  # 3: no photon
    rows = np.flatnonzero(~double & (bin_idx < 3))
    counts[rows, (~arm_a[rows]).astype(np.intp), bin_idx[rows]] = 1
    del rows  # freed before the (n, 2, 3) dark draw, which sets the peak memory
    if dark_rate > 0:
        counts += rng.random((n_trials, 2, 3)) < dark_rate
    return ShotRecords(counts)


def sample_coherent_shots(
    mean_photons: float,
    n_trials: int,
    seed: int,
    bin: int = 1,
    dark_rate: float = 0.0,
) -> ShotRecords:
    """Poissonian source mode: photon number ~ Poisson(mean_photons) in one
    bin, split binomially between the arms.  Gives g2 = 1 in expectation."""
    if mean_photons < 0 or not math.isfinite(mean_photons):
        raise ValueError("mean_photons must be finite and non-negative")
    if bin not in (1, 2, 3):
        raise ValueError("bin must be 1, 2 or 3")
    _validate_sampling(n_trials, dark_rate, 0.0)
    rng = np.random.default_rng(seed)
    nph = rng.poisson(mean_photons, n_trials)
    # a dark click can add one count per arm
    if nph.max() > COUNT_MAX - (dark_rate > 0):
        raise ValueError(
            f"photon count {int(nph.max())} overflows the int16 shot records; "
            "lower mean_photons"
        )
    na = rng.binomial(nph, 0.5)
    counts = np.zeros((n_trials, 2, 3), dtype=np.int16)
    counts[:, 0, bin - 1] = na
    counts[:, 1, bin - 1] = nph - na
    if dark_rate > 0:
        dark = rng.random((n_trials, 2, 3)) < dark_rate
        counts += dark.astype(np.int16)
    return ShotRecords(counts)


# ---------------------------------------------------------------------------
# g2(0) estimation


@dataclass(frozen=True)
class G2Estimate:
    """Normalized zero-delay coincidence estimate with bootstrap stderr.

    defined is False when either arm saw no clicks at all, which leaves
    the normalization (and hence the estimate) undefined.
    """

    value: float
    stderr: float
    n_trials: int
    defined: bool = True


N_BOOTSTRAP = 200


def estimate_g2(
    records: ShotRecords, bin: int = 1, bootstrap_seed: int = 815
) -> G2Estimate:
    """g2(0) = <nA nB> / (<nA> <nB>) over trials for the chosen bin.

    The bootstrap (fixed 200 resamples, seeded) resamples trials with
    replacement; collapsing to unique (nA, nB) outcomes makes that a
    multinomial redraw, which is fast at large n.  The outcomes are
    collapsed on one packed int64 key nA * (COUNT_MAX + 1) + nB: both
    counts lie in [0, COUNT_MAX], so the sorted keys list the outcomes in
    lexicographic (nA, nB) order.  The multinomial draws for a seed depend
    on that order, so it fixes the stderr a given bootstrap_seed yields.
    """
    na, nb = records.arm_counts(bin)
    n = len(records)
    if n == 0:
        raise ValueError("no records")
    mean_a = na.mean()
    mean_b = nb.mean()
    if mean_a == 0.0 or mean_b == 0.0:
        return G2Estimate(math.nan, math.nan, n, defined=False)
    value = float(np.multiply(na, nb, dtype=np.int64).mean() / (mean_a * mean_b))

    radix = COUNT_MAX + 1
    keys, counts = np.unique(
        na.astype(np.int64) * radix + nb, return_counts=True
    )
    ua = (keys // radix).astype(float)
    ub = (keys % radix).astype(float)
    uab = ua * ub
    rng = np.random.default_rng(bootstrap_seed)
    draws = rng.multinomial(n, counts / n, size=N_BOOTSTRAP)
    sa = draws @ ua
    sb = draws @ ub
    sab = draws @ uab
    ok = (sa > 0) & (sb > 0)
    boot = n * sab[ok] / (sa[ok] * sb[ok])
    stderr = float(boot.std(ddof=1)) if boot.size > 1 else math.nan
    return G2Estimate(value, stderr, n)


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
    x must be strictly increasing.  A scan whose spread is within 1e-12
    of its largest magnitude is returned flat (flag "flat_scan");
    non-finite x or y, or a non-increasing x, raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 8:
        raise ValueError("need at least 8 points to fit")
    if freq_hint <= 0 or not math.isfinite(freq_hint):
        raise ValueError("freq_hint must be finite and strictly positive")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
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
            break
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

