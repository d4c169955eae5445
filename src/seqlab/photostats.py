"""Read-out bins, HBT shot sampling, g2(0) estimation and fringe fitting.

Read-out maps the qutrit onto three photon time bins: bin 1 retrieves
whatever sits in R1, a mu1 pi pulse then moves R2 down for bin 2, and a
mu2 pi pulse followed by a mu1 pi pulse moves R3 down for bin 3.  Each
retrieval swaps R1 with the photon mode of its bin (levels 3, 4, 5 of
the read-out space), and a read-out sequence is one closed
:func:`seqlab.qcore.checked_walk` of that space from the stored
excitation, as the unitary backend walks a scan.  The readout section's
efficiencies eta_1..eta_3 scale the bins.

Dephasing accumulated between bins suppresses the retrievable collective
mode, so it shows up as signal loss rather than as a population change:
each retrieval after the first is scaled by exp(-deph * elapsed), with the
elapsed time taken from the durations of the remapping segments actually
in the sequence.

The HBT samplers give the statistics of the one time bin that g2 reads
as its outcome histogram: the (nA, nB) click counts of arm A and arm B
that occurred, with the number of trials of each.  The trials are
independent, so that histogram is one multinomial draw over the outcome
distribution of a single trial, and no trial is drawn on its own: time
and memory do not grow with the trial count.  :func:`estimate_g2` takes
the histogram and gives g2 with its delta-method standard error, from
exact integer sums over the outcomes; it draws nothing.  The run
configuration bounds every count, rate and efficiency that reaches this
module.  A fringe fit is a search over the frequency alone (variable
projection), converged when its least residual lies inside the search's
bracket.  Results are plain values: the bins are (p1, p2, p3), g2 is
(value, stderr) and a fit is a dict.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ReadoutSection
from .qcore import (NumericError, Readout, Segment, check_norm, checked_walk,
                    hermitian_propagator, total_duration)


def _readout_propagator(H: np.ndarray, duration, blocks) -> np.ndarray:
    """The 6x6 map of a single segment in the read-out space: a drive's or
    a wait's :func:`seqlab.qcore.hermitian_propagator` in the qutrit
    corner, the photon modes untouched, or, for a readout, whose one block
    holds R1 and a photon mode, the permutation that swaps the two."""
    U = np.eye(6, dtype=complex)
    if blocks[0][-1] > 2:  # a readout
        U[blocks[0], :] = U[blocks[0][::-1], :]
    else:
        U[:3, :3] = hermitian_propagator(H, duration, blocks)
    return U


def readout_from_sequence(
    sequence: tuple[Segment, ...], readout: ReadoutSection
) -> tuple[float, float, float]:
    """(p1, p2, p3): the retrieval probabilities of the three time bins
    of a non-empty, unstacked sequence containing Readout segments.

    The sequence is one norm-checked :func:`seqlab.qcore.checked_walk`
    of the read-out state psi from the stored excitation, in which
    Readout(b) swaps R1 into the photon mode of bin b.  Bin b is that
    mode's population |psi_{2+b}|^2 after the sequence, times the
    section's eta_<b> and the inter-bin dephasing factor, exp(-deph * the
    time since the first readout): bin 1 is never attenuated.  The config
    bounds each eta to [0, 1] and deph, in 1/s, to a finite non-negative
    value; the dissipation rates take no part.
    """
    psi = checked_walk(sequence, _readout_propagator, check_norm)
    reads = [i for i, seg in enumerate(sequence) if isinstance(seg, Readout)]
    bins = [0.0, 0.0, 0.0]
    for i in reads:
        b = sequence[i].bin
        factor = getattr(readout, f"eta_{b}")
        if readout.deph > 0:
            factor *= math.exp(-readout.deph * total_duration(sequence[reads[0] : i]))
        bins[b - 1] = float(np.abs(psi[2 + b]) ** 2) * factor
    if not all(math.isfinite(p) and p >= 0 for p in bins):
        raise NumericError("bin probabilities must be finite and non-negative")
    if sum(bins) > 1.0 + 1e-9:
        raise NumericError("bin probabilities exceed unity")
    return tuple(bins)


# ---------------------------------------------------------------------------
# HBT shot sampling


def _histogram_rows(rng, totals, pmf: np.ndarray):
    """(row, k, freq) of the non-zero cells of one Multinomial(totals[row],
    pmf) histogram per row, in lexicographic (row, k) order, over the
    counts k = 0, 1, ... that pmf covers.

    The conditional-binomial method (Davis, Comput. Stat. Data Anal. 16,
    205 (1993)): count k takes Binomial(left, pmf[k] / P(K >= k)) of the
    trials of a row not placed yet, for k up the support, vectorised over
    the rows, until every trial is placed.  The tail masses P(K >= k) are
    summed from the top, so they keep their relative precision far out in
    the tail; counts outside the non-zero range of pmf take no draw.
    """
    support = np.flatnonzero(pmf)
    lo = int(support[0])
    pmf = pmf[lo : support[-1] + 1]
    tail = np.cumsum(pmf[::-1])[::-1]
    rows = np.arange(len(totals))
    left = np.asarray(totals, dtype=np.int64)
    cells = []
    # the last count takes every trial left, as pmf / tail is 1 there
    for k, q in enumerate(pmf / tail, start=lo):
        taken = rng.binomial(left, q)
        hit = np.flatnonzero(taken)
        cells.append((rows[hit], np.full(hit.size, k), taken[hit]))
        left -= taken
        still = left > 0
        rows, left = rows[still], left[still]
        if not rows.size:
            break
    row, k, freq = map(np.concatenate, zip(*cells))
    order = np.lexsort((k, row))
    return row[order], k[order], freq[order]


def _mixture_table(bin: int, dark_rate: float, p2: float) -> np.ndarray:
    """p[nA, nB], over {0..3}^2: the probability that one trial of the
    single emitter gives nA clicks in arm A and nB in arm B in time bin
    ``bin``.

    In bin 1 a trial holds a photon pair with probability p2, split
    Binomial(2, 1/2) between the arms, and otherwise a single photon that
    picks an arm 50/50; no photon reaches bins 2 and 3.  A dark click adds
    one count to each arm with probability dark_rate, independently.
    """
    signal = np.zeros((3, 3))
    if bin == 1:
        signal[1, 0] = signal[0, 1] = 0.5 * (1.0 - p2)
        signal[2, 0] = signal[0, 2] = 0.25 * p2
        signal[1, 1] = 0.5 * p2
    else:
        signal[0, 0] = 1.0
    dark = (1.0 - dark_rate, dark_rate)
    table = np.zeros((4, 4))
    for a in (0, 1):
        for b in (0, 1):
            table[a : a + 3, b : b + 3] += dark[a] * dark[b] * signal
    return table


def sample_shots(
    n_trials: int,
    seed: int,
    bin: int,
    dark_rate: float,
    p2: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte-Carlo HBT statistics of time bin ``bin`` over n_trials
    sequence repetitions of a single emitter with a two-photon admixture
    (see :func:`_mixture_table`): the outcome histogram, as the int64
    arrays (nA, nB, freq) of the click counts of arm A and arm B and the
    number of trials that gave them, in lexicographic (nA, nB) order and
    without empty cells.

    The trials are independent, so the histogram is exactly one
    Multinomial(n_trials, p) draw over the single-trial table p; identical
    seeds give identical histograms.  n_trials lies in [1, 2**63 - 1],
    bin is 1, 2 or 3, and dark_rate and p2 lie in [0, 1).
    """
    # the draw runs over the possible outcomes only: numpy gives its last
    # cell every trial that the rounded conditional draws leave, so an
    # impossible last cell, such as (3, 3), would take some at large n_trials
    table = _mixture_table(bin, dark_rate, p2).ravel()
    possible = np.flatnonzero(table)
    freq = np.random.default_rng(seed).multinomial(n_trials, table[possible])
    cells, freq = possible[freq > 0], freq[freq > 0]
    return cells // 4, cells % 4, freq


def _arm_pmf(mean: float, dark_rate: float) -> np.ndarray:
    """pmf over k = 0, 1, ... of one arm's clicks: Poisson(mean) photons
    plus one dark click with probability dark_rate.  The Poisson pmf is
    taken in log space, so a large mean does not underflow exp(-mean), up
    to mean + 40 sqrt(mean) + 200 photons, where it is below exp(-745)
    and has underflowed to zero."""
    if mean == 0.0:
        photons = np.ones(1)
    else:
        log_mean = math.log(mean)
        top = int(mean + 40.0 * math.sqrt(mean)) + 200
        photons = np.exp(
            [k * log_mean - mean - math.lgamma(k + 1) for k in range(top)]
        )
    return np.convolve(photons, (1.0 - dark_rate, dark_rate))


def sample_coherent_shots(
    mean_photons: float,
    n_trials: int,
    seed: int,
    dark_rate: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poissonian source mode: photon number ~ Poisson(mean_photons) in the
    time bin read, split binomially between the arms.  Gives g2 = 1 in
    expectation.  The outcome histogram is laid out as ``sample_shots``
    lays it out; the source emits into whichever bin is read, so it takes
    no bin: every bin gives the same histogram.

    Poisson thinning makes nA and nB independent, each Poisson(mean/2)
    plus a Bernoulli(dark_rate) dark click, so the single-trial table is
    p (x) p over an unbounded support, with p from :func:`_arm_pmf`.  The
    histogram is one Multinomial(n_trials, p (x) p) draw, made in two
    steps by :func:`_histogram_rows`: nA's marginal histogram, then nB's
    histogram within each nA row.  mean_photons lies in [0, 32767], so
    the support, and with it time and memory, stays bounded at any
    n_trials.
    """
    rng = np.random.default_rng(seed)
    pmf = _arm_pmf(0.5 * mean_photons, dark_rate)
    _, na, freq_a = _histogram_rows(rng, [n_trials], pmf)
    row, nb, freq = _histogram_rows(rng, freq_a, pmf)
    return na[row], nb, freq


# ---------------------------------------------------------------------------
# g2(0) estimation


def estimate_g2(hist, bin: int) -> tuple[float, float]:
    """(g2, stderr): g2(0) = <nA nB> / (<nA> <nB>) over trials, and its
    delta-method standard error, from the (nA, nB, freq) outcome
    histogram of one time bin that a sampler returns; bin names that bin
    in the diagnostic.  NumericError when an arm registered no clicks,
    which leaves the normalization undefined.

    The sums sum_a, sum_b and sum_ab of nA, nB and nA nB are exact Python
    integers, so each mean is one correctly rounded division by n at any
    n.  The stderr is sqrt(<psi^2> / n) over trials, with psi(nA, nB) =
    nA nB / (mA mB) - g2 (nA / mA + nB / mB - 1) the estimator's influence
    function (van der Vaart, Asymptotic Statistics, CUP 1998, ch. 3) and
    mA, mB the arm means.  psi = n phi / (sum_a sum_b)^2 with phi an
    integer at each outcome, so <psi^2> / n is a ratio of exact integers
    rounded once: the stderr draws nothing, is finite, and does not
    depend on the order of the outcomes or of the arms.
    """
    na, nb, freq = (x.tolist() for x in hist)
    n = sum(freq)
    sum_a = sum(f * a for f, a in zip(freq, na))
    sum_b = sum(f * b for f, b in zip(freq, nb))
    if sum_a == 0 or sum_b == 0:
        raise NumericError(f"g2 undefined: one arm registered no clicks ({n} trials, bin {bin})")
    sum_ab = sum(f * a * b for f, a, b in zip(freq, na, nb))
    value = sum_ab / n / ((sum_a / n) * (sum_b / n))

    # phi = n sum_a sum_b nA nB - n sum_ab (sum_b nA + sum_a nB) + sum_ab sum_a sum_b
    k_ab, k_a, k_b = n * sum_a * sum_b, n * sum_ab * sum_b, n * sum_ab * sum_a
    k = sum_ab * sum_a * sum_b
    sum_phi2 = sum(f * ((k_ab * b - k_a) * a - k_b * b + k) ** 2 for f, a, b in zip(freq, na, nb))
    return value, math.sqrt(sum_phi2 / (sum_a * sum_b) ** 4)


# ---------------------------------------------------------------------------
# Sinusoid / fringe fitting


def _periodogram_peak(x: np.ndarray, y: np.ndarray) -> float | None:
    """Angular frequency of the peak bin, past the zero bin, of the
    demeaned periodogram of y on a uniform grid x; None on a non-uniform
    grid.  ``fit_sinusoid`` checks that x is strictly increasing."""
    dx = np.diff(x)
    if np.ptp(dx) > 1e-9 * dx.mean():
        return None
    k = int(np.argmax(np.abs(np.fft.rfft(y - y.mean()))[1:])) + 1
    return 2.0 * math.pi * k / (x.size * float(dx.mean()))


def _sign_change(g, ends: list) -> float:
    """Where g turns from negative to positive between the ends [[a, g(a)],
    [b, g(b)]], g(a) < 0 < g(b), to the last bit: regula falsi that halves
    the g of an end kept twice running (Illinois), until the chord's zero
    rounds onto an end; the end of smaller |g|."""
    last = None
    while True:
        (a, ga), (b, gb) = ends
        m = a + (b - a) * (ga / (ga - gb))
        if not a < m < b:
            return a if -ga < gb else b
        gm = g(m)
        side = int(gm >= 0.0)
        if side == last:
            ends[1 - side][1] *= 0.5
        ends[side], last = [m, gm], side


def fit_sinusoid(x, y, freq_hint: float) -> dict:
    """Least-squares fit of y ~ offset + amplitude * cos(frequency * x +
    phase) = o + A cos(f x) + B sin(f x) by variable projection: a dict
    of offset, amplitude, frequency, phase, visibility (amplitude/|offset|
    clamped to [0, 1]), residual_rms, converged and flags, in that order;
    flags is a tuple of "flat_scan", "not_converged",
    "frequency_far_from_hint" or "zero_offset".

    At a trial f, (o, A, B) are one linear least-squares solve, so the
    residual sum of squares rss is a function of f alone, with d(rss)/df =
    -2 r . x (B cos(f x) - A sin(f x)), r the residual.  f is searched
    within one periodogram bin, 2 pi / (x_max - x_min), of the periodogram
    peak (of freq_hint on a non-uniform grid), cut at 0: nine rss samples,
    then the sign change of d(rss)/df between the best one's neighbours
    (the best one itself at an end), to the last bit.  converged means
    that d(rss)/df turns from negative to positive there, so the minimum
    lies inside the bracket; else the best sample is returned, flagged
    "not_converged": the minimum lies on the bracket's edge.

    x and y are finite 1-d float arrays of equal length, and freq_hint is
    finite and positive (the scan reader and the CLI check them).  A scan
    whose spread is within 1e-12 of its largest magnitude is returned flat
    (flag "flat_scan"); fewer than 8 points, or an x that is not strictly
    increasing, raise ValueError.  y is fitted divided by the power of
    two that brings its largest magnitude into [0.5, 1), so the squares
    of the residuals neither under- nor overflow at any scale; offset,
    amplitude and residual_rms are scaled back.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 8:
        raise ValueError("need at least 8 points to fit")
    if not (np.diff(x) > 0).all():
        raise ValueError("x must be strictly increasing")

    scale = float(np.abs(y).max())
    if np.ptp(y) <= 1e-12 * scale:  # relative, so the fit is scale-free
        return dict(
            offset=float(y.mean()), amplitude=0.0, frequency=freq_hint,
            phase=0.0, visibility=0.0, residual_rms=0.0, converged=True,
            flags=("flat_scan",),
        )

    unit = 2.0 ** math.frexp(scale)[1]  # max |y / unit| lies in [0.5, 1)
    y = y / unit

    def project(f: float):
        """The residual, (o, A, B) and the cos and sin columns at f."""
        c, s = np.cos(f * x), np.sin(f * x)
        # lstsq, as at f = 0 the cos column is the offset column
        (o, A, B), *_ = np.linalg.lstsq(np.column_stack([np.ones_like(x), c, s]), y, rcond=None)
        return y - (o + A * c + B * s), (o, A, B), c, s

    def slope(f: float) -> float:
        """d(rss)/df / 2: (o, A, B) minimise rss, so only f's term is left."""
        r, (_, A, B), c, s = project(f)
        return -(r @ (x * (B * c - A * s)))

    f0 = _periodogram_peak(x, y) or freq_hint
    bin_width = 2.0 * math.pi / (x[-1] - x[0])
    grid = np.linspace(max(f0 - bin_width, 0.0), f0 + bin_width, 9)
    k = int(np.argmin([np.linalg.norm(project(f)[0]) for f in grid]))
    ends = [[grid[i], slope(grid[i])] for i in (max(k - 1, 0), min(k + 1, grid.size - 1))]
    converged = bool(ends[0][1] < 0.0 < ends[1][1])
    f = float(_sign_change(slope, ends) if converged else grid[k])
    r, (o, A, B), _, _ = project(f)

    amplitude = math.hypot(A, B) * unit
    o *= unit
    phase = math.atan2(-B, A)
    flags = [] if converged else ["not_converged"]
    if abs(f - freq_hint) > 0.1 * freq_hint:
        flags.append("frequency_far_from_hint")
    # an offset at rounding scale against the amplitude makes the ratio
    # meaningless rather than merely large
    if abs(o) > 1e-12 * amplitude:
        visibility = min(max(amplitude / abs(o), 0.0), 1.0)
    else:
        visibility = 0.0
        flags.append("zero_offset")
    rms = float(np.sqrt((r**2).mean())) * unit
    return dict(
        offset=float(o), amplitude=float(amplitude), frequency=float(f),
        phase=float(phase), visibility=float(visibility), residual_rms=rms,
        converged=converged, flags=tuple(flags),
    )

