import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from seqlab import photostats
from seqlab.config import DissipationSection, ReadoutSection, parse_config
from seqlab.dissipative import evolve_master
from seqlab.dsl import parse_sequence
from seqlab.photostats import (
    _arm_pmf,
    _mixture_table,
    estimate_g2,
    fit_sinusoid,
    readout_from_sequence,
    sample_coherent_shots,
    sample_shots,
)
from seqlab.qcore import (
    FIELDS,
    DriveSegment,
    NumericError,
    Readout,
    Wait,
)
from seqlab.ramsey import fringe_scan, rabi_scan, symmetric_detuning_grid
from seqlab.units import mhz
import references
from references import (
    DEFAULT_PI_PULSE_S,
    density_matrix,
    ramsey_visibility,
    readout_by_hand,
    readout_populations,
    scan_config,
    sequence_unitary,
)
from test_tooling import SEQUENCE_WITH_A_WAIT

# one mu1 pi/2 pulse: the stored excitation split evenly between R1 and R2
HALF_PI_MU1 = (DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9),)


# ---------------------------------------------------------------------------
# time-bin read-out


def test_ideal_readout_of_equal_superposition():
    p1, p2, p3 = readout_populations(HALF_PI_MU1)
    assert abs(p1 - 0.5) <= 1e-15
    assert abs(p2 - 0.5) <= 1e-15
    # float pi leaves a cos(pi/2)^4-scale residue, nothing larger
    assert p3 <= 1e-30


def test_readout_after_half_pi_and_pi_area():
    seq = (
        DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9),
        DriveSegment("mu2", rabi=math.pi / 40e-9, duration=40e-9),
    )
    p1, p2, p3 = readout_populations(seq)
    assert abs(p1 - 0.5) <= 1e-12
    assert abs(p2 - 0.0) <= 1e-12
    assert abs(p3 - 0.5) <= 1e-12


def test_readout_of_r3_lands_in_bin_three():
    to_r3 = (  # a mu1 pi pulse, then a mu2 pi pulse
        DriveSegment("mu1", rabi=math.pi / 40e-9, duration=40e-9),
        DriveSegment("mu2", rabi=math.pi / 40e-9, duration=40e-9),
    )
    p1, p2, p3 = readout_populations(to_r3)
    # float pi leaves a cos(pi/2)^2-scale residue in R1, nothing larger
    assert p1 <= 1e-30
    assert abs(p2) <= 1e-24
    assert abs(p3 - 1.0) <= 1e-12


def _canonical_chain() -> tuple:
    """The read-out chain of readout_populations, written out."""
    t = DEFAULT_PI_PULSE_S
    pi_mu1 = DriveSegment("mu1", rabi=math.pi / t, duration=t)
    pi_mu2 = DriveSegment("mu2", rabi=math.pi / t, duration=t)
    return (Readout(1), pi_mu1, Readout(2), pi_mu2, pi_mu1, Readout(3))


def test_readout_eta_scales_each_bin():
    seq = HALF_PI_MU1 + _canonical_chain()
    assert readout_from_sequence(seq, ReadoutSection()) == readout_populations(HALF_PI_MU1)
    p1, p2, p3 = readout_from_sequence(seq, ReadoutSection(eta_1=0.8, eta_2=0.5, eta_3=0.3))
    assert abs(p1 - 0.5 * 0.8) <= 1e-12
    assert abs(p2 - 0.5 * 0.5) <= 1e-12
    assert p3 <= 1e-30


# preparation segments from the stored excitation: field, area, phase, detuning
_prep_segments = st.lists(
    st.builds(
        lambda field, area, phase, detuning: DriveSegment(
            field, rabi=area / 20e-9, duration=20e-9, phase=phase, detuning=detuning
        ),
        st.sampled_from(FIELDS),
        st.floats(0.0, 4.0 * math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(-mhz(5.0), mhz(5.0)),
    ),
    max_size=4,
)


@st.composite
def _readout_sequences(draw):
    """A sequence of random fields, areas, detunings, phases and waits
    with 1-3 ascending bins read out between them."""
    drive = st.builds(
        lambda field, area, phase, detuning, t: DriveSegment(
            field, rabi=area / t, duration=t, phase=phase, detuning=detuning
        ),
        st.sampled_from(FIELDS),
        st.floats(0.0, 4.0 * math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(-mhz(5.0), mhz(5.0)),
        st.floats(1e-9, 1e-7),
    )
    steps = draw(st.lists(drive | st.builds(Wait, st.floats(1e-9, 1e-7)), max_size=6))
    bins = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3, unique=True))
    cuts = draw(st.lists(st.integers(0, len(steps)), min_size=len(bins), max_size=len(bins)))
    seq = list(steps)
    # each bin goes in after the steps before its cut, in ascending order
    for b, cut in sorted(zip(sorted(bins), sorted(cuts)), reverse=True):
        seq.insert(cut, Readout(b))
    return tuple(seq)


@given(
    _readout_sequences(),
    st.builds(
        ReadoutSection,
        eta_1=st.floats(0.0, 1.0),
        eta_2=st.floats(0.0, 1.0),
        eta_3=st.floats(0.0, 1.0),
        deph=st.just(0.0) | st.floats(0.0, 1e8),
    ),
)
def test_readout_equals_the_hand_walk(seq, section):
    # the checked walk of the read-out space, each readout swapping R1 into
    # its bin's photon mode, against the density matrix conjugated and
    # emptied by hand
    bins = readout_from_sequence(seq, section)
    assert max(abs(a - b) for a, b in zip(bins, readout_by_hand(seq, section))) <= 1e-14


@given(_prep_segments)
def test_readout_conserves_probability(prep):
    assert abs(sum(readout_populations(prep)) - 1.0) <= 1e-12


@given(_prep_segments)
def test_prepared_state_is_the_first_column_of_the_unitary(prep):
    # every path starts from the stored excitation: the ideal read-out and
    # the zero-rate master equation both see column 0 of the unitary; the
    # master equation walks non-empty sequences only
    psi = np.zeros(4, dtype=complex)
    psi[:3] = sequence_unitary(prep)[:, 0]
    pops = readout_populations(prep)
    assert np.abs(np.array(pops) - np.abs(psi[:3]) ** 2).max() <= 1e-12
    if prep:
        rho = density_matrix(evolve_master(tuple(prep), DissipationSection()))
        assert np.abs(rho - np.outer(psi, psi.conj())).max() <= 1e-12


def test_interbin_dephasing_attenuates_later_bins():
    gamma = 6.5e6
    p1, p2, _ = readout_populations(HALF_PI_MU1, deph=gamma)
    # bin 1 is read before any delay has accrued
    assert abs(p1 - 0.5) <= 1e-15
    # bin 2 follows one pi pulse of delay
    assert abs(p2 - 0.5 * math.exp(-gamma * DEFAULT_PI_PULSE_S)) <= 1e-12


def test_interbin_dephasing_is_monotone_in_rate():
    p2s = [
        readout_populations(HALF_PI_MU1, deph=g)[1]
        for g in (0.0, 2e5, 5e5, 1e6, 2e6)
    ]
    assert all(a > b for a, b in zip(p2s, p2s[1:]))


def test_readout_validation(monkeypatch):
    # eta and the inter-bin rate are bounded by the readout.eta_* and
    # readout.deph config keys (test_config); the bins are checked against
    # states that no walk gives
    seq = HALF_PI_MU1 + _canonical_chain()
    for state, message in (
        (np.full(6, 2.0), "bin probabilities exceed unity"),
        (np.full(6, np.nan), "bin probabilities must be finite and non-negative"),
    ):
        monkeypatch.setattr(photostats, "checked_walk", lambda segs, _, __: state)
        with pytest.raises(NumericError, match=f"^{message}$"):
            readout_from_sequence(seq, ReadoutSection())


def test_readout_from_sequence_clock_spans_segments():
    # segments between bins 1 and 2 sum to 90 ns of dephasing delay
    gamma = 1e6
    seq = HALF_PI_MU1 + (
        Readout(1),
        Wait(30e-9),
        DriveSegment("mu1", rabi=math.pi / 40e-9, duration=40e-9),
        Wait(20e-9),
        Readout(2),
    )
    p1, p2, _ = readout_from_sequence(seq, ReadoutSection(deph=gamma))
    assert abs(p1 - 0.5) <= 1e-15
    assert abs(p2 - 0.5 * math.exp(-gamma * 90e-9)) <= 1e-12


def test_readout_of_an_emptied_r1_rounding_below_zero_reads_zero():
    # a mu1 pi/2 pulse at phase -pi, undone by the first pulse of
    # SEQUENCE_WITH_A_WAIT: bin 1 takes everything.  The density-matrix
    # walk once rounded rho_00 to about -5.6e-52 at bin 2, which a clamp
    # read as 0.0; the walk of psi reads its bin mode's |psi_{2+b}|^2,
    # which is never below zero and rounds to about 5.6e-52 here
    prep = (
        DriveSegment("mu1", rabi=math.pi / (2 * 20e-9), duration=20e-9, phase=-math.pi),
    )
    seq = prep + parse_sequence(SEQUENCE_WITH_A_WAIT)
    p1, p2, p3 = readout_from_sequence(seq, ReadoutSection())
    assert abs(p1 - 1.0) <= 1e-15
    assert 0.0 <= p2 <= 1e-30 and 0.0 <= p3 <= 1e-30


# ---------------------------------------------------------------------------
# Monte-Carlo sampling


def _clicks(hist):
    """(nA + nB, freq) of an outcome histogram."""
    na, nb, freq = hist
    return na + nb, freq


def test_sampling_is_deterministic_per_seed():
    a = sample_shots(500, seed=42, dark_rate=0.01, p2=0.2, bin=1)
    b = sample_shots(500, seed=42, dark_rate=0.01, p2=0.2, bin=1)
    c = sample_shots(500, seed=43, dark_rate=0.01, p2=0.2, bin=1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_deterministic_source_gives_one_click_per_trial():
    n = 10_000
    na, nb, freq = sample_shots(n, seed=7, bin=1, dark_rate=0.0, p2=0.0)
    assert np.all(na + nb == 1)
    assert freq.sum() == n
    for bin in (2, 3):
        clicks, _ = _clicks(sample_shots(n, seed=7, bin=bin, dark_rate=0.0, p2=0.0))
        assert not clicks.any()
    arm_a = int(freq[na == 1].sum())
    # 4 sigma band around the 50/50 arm split
    assert abs(arm_a - n / 2) <= 4 * math.sqrt(n * 0.25)


def test_single_branch_never_exceeds_one_click():
    for bin in (1, 2, 3):
        clicks, _ = _clicks(sample_shots(5_000, seed=11, bin=bin, dark_rate=0.0, p2=0.0))
        assert clicks.max() <= (bin == 1)


def test_dark_counts_add_at_the_configured_rate():
    n = 40_000
    rate = 0.05
    total = -n  # each trial's single photon adds one click
    for bin in (1, 2, 3):
        clicks, freq = _clicks(sample_shots(n, seed=3, bin=bin, dark_rate=rate, p2=0.0))
        total += int(clicks @ freq)
    mean = 6 * n * rate
    sigma = math.sqrt(6 * n * rate * (1 - rate))
    assert abs(total - mean) <= 5 * sigma


def test_coherent_source_total_is_poissonian():
    n = 100_000
    mu = 0.1
    clicks, freq = _clicks(sample_coherent_shots(mu, n, seed=5, dark_rate=0.0))
    assert abs(clicks @ freq / n - mu) <= 5 * math.sqrt(mu / n)


def test_sampling_validation():
    # n_trials, dark_rate, p2, mean_photons and bin are bounded by their
    # config keys; the samplers run at the bounds
    for line, rule in (
        (f"shots.n_trials = {2**63}", "must be positive and below 2[*][*]63"),
        ("shots.mean_photons = 32767.5", "must be non-negative and at most 32767"),
    ):
        with pytest.raises(ValueError, match=rf"^config line 1: {line[:line.index(' ')]}: {rule}$"):
            parse_config(line + "\n")
    n = 2**63 - 1
    assert sample_shots(n, 1, bin=1, dark_rate=0.5, p2=0.5)[2].sum() == n
    na, nb, freq = sample_coherent_shots(32767, 10, 1, dark_rate=0.0)
    assert freq.sum() == 10 and 30_000 < na.min() + nb.min()


def _hand_built_table(bin, dark_rate, p2):
    """p[nA, nB] of one trial in time bin ``bin``, written cell by cell:
    the signal outcomes of bin 1 shifted by the dark clicks of each arm."""
    q, d = 1.0 - dark_rate, dark_rate
    if bin != 1:  # dark clicks only
        return np.outer([q, d, 0.0, 0.0], [q, d, 0.0, 0.0])
    s, p = 0.5 * (1.0 - p2), 0.25 * p2  # (1, 0) or (0, 1); (2, 0) or (0, 2)
    return np.array([
        [0.0, s * q * q, p * q * q + s * q * d, p * q * d],
        [s * q * q, 2 * p * q * q + 2 * s * q * d, 3 * p * q * d + s * d * d, p * d * d],
        [p * q * q + s * q * d, 3 * p * q * d + s * d * d, 2 * p * d * d, 0.0],
        [p * q * d, p * d * d, 0.0, 0.0],
    ])


@given(
    p2=st.sampled_from([0.0]) | st.floats(0.0, 1.0, exclude_max=True),
    dark_rate=st.sampled_from([0.0]) | st.floats(0.0, 1.0, exclude_max=True),
    n_trials=st.integers(1, 3000) | st.integers(1, 2**63 - 1),
    seed=st.integers(0, 2**64 - 1),
)
@example(p2=0.05, dark_rate=0.001, n_trials=500_000, seed=7)
@example(p2=0.0, dark_rate=0.0, n_trials=1, seed=1)
@example(p2=1e-310, dark_rate=5e-324, n_trials=2**63 - 1, seed=2)  # subnormal cells
@example(p2=0.0, dark_rate=0.9185622330137383, n_trials=3_364_613_377_441_178, seed=0)
def test_sample_shots_matches_the_multinomial_reference(p2, dark_rate, n_trials, seed):
    for bin in (1, 2, 3):
        table = _hand_built_table(bin, dark_rate, p2)
        assert abs(table.sum() - 1.0) <= 1e-12
        # the sampler's table is the hand-built one to 4 ulp, or to a few
        # subnormal units where the products underflow; near 2**63 trials
        # one ulp of a cell moves the draws, so they are compared over the
        # sampler's own table, and over its possible cells: numpy hands its
        # last cell every trial that the rounded draws leave, and (3, 3)
        # is impossible
        own = _mixture_table(bin, dark_rate, p2).ravel()
        assert np.allclose(own, table.ravel(), rtol=4 * 2.0**-52, atol=2.0**-1070)
        possible = np.flatnonzero(own)
        ref = np.zeros(16, dtype=np.int64)
        ref[possible] = np.random.default_rng(seed).multinomial(n_trials, own[possible])
        na, nb, freq = sample_shots(n_trials, seed, bin=bin, dark_rate=dark_rate, p2=p2)
        assert {na.dtype, nb.dtype, freq.dtype} == {np.dtype(np.int64)}
        cells = 4 * na + nb
        assert (np.diff(cells) > 0).all() and (freq > 0).all()  # sorted, no empty cell
        dense = np.zeros(16, dtype=np.int64)
        dense[cells] = freq
        assert np.array_equal(dense, ref)


def _coherent_arm_pmf(mean_photons, dark_rate):
    """pmf of one arm's clicks, from scipy: Poisson(mean_photons / 2)
    photons plus a Bernoulli(dark_rate) dark click, up to 20 standard
    deviations and 50 counts past the mean, where the Poisson tail is
    below 1e-40."""
    mean = mean_photons / 2
    photons = scipy_stats.poisson.pmf(np.arange(int(mean + 20 * math.sqrt(mean)) + 50), mean)
    return (1.0 - dark_rate) * photons + dark_rate * np.concatenate([[0.0], photons[:-1]])


# false-alarm rate of one chi-square check: 1e-9, in the chi-square limit
# that pooling every cell to an expected count of at least 20 keeps
CHI2_FALSE_ALARM = 1e-9
CHI2_MIN_EXPECTED = 20.0

# (mean_photons, the bin g2 reads, dark_rate): the source emits into
# whichever bin is read, so the sampler takes no bin and g2 names it
_COHERENT_CASES = [(2.0, 1, 0.01), (0.1, 2, 0.3), (2.0, 3, 0.0), (400.0, 1, 0.0), (0.0, 1, 0.2)]


@pytest.mark.parametrize("mean_photons, bin, dark_rate", _COHERENT_CASES)
@settings(max_examples=15)
@given(
    n_trials=st.integers(1, 10**6) | st.sampled_from([10**9, 10**12]),
    seed=st.integers(0, 2**64 - 1),
)
@example(n_trials=500_000, seed=7)
def test_sample_coherent_shots_fit_the_product_distribution(
    mean_photons, bin, dark_rate, n_trials, seed
):
    na, nb, freq = sample_coherent_shots(mean_photons, n_trials, seed, dark_rate=dark_rate)
    assert {na.dtype, nb.dtype, freq.dtype} == {np.dtype(np.int64)}
    assert (np.diff(na) >= 0).all() and (np.diff(nb)[np.diff(na) == 0] > 0).all()
    assert (freq > 0).all() and freq.sum() == n_trials
    pmf = _coherent_arm_pmf(mean_photons, dark_rate)
    expected = n_trials * np.outer(pmf, pmf)
    seen = np.zeros_like(expected)
    inside = (na < len(pmf)) & (nb < len(pmf))
    seen[na[inside], nb[inside]] = freq[inside]
    # cells of small expectation, and the tail beyond the table, pooled
    big = expected >= CHI2_MIN_EXPECTED
    observed, expect = seen[big], expected[big]
    rest = n_trials - expect.sum()
    if rest >= CHI2_MIN_EXPECTED:
        observed = np.append(observed, n_trials - observed.sum())
        expect = np.append(expect, rest)
    elif expect.size:  # too little left over for a cell of its own
        smallest = np.argmin(expect)
        observed[smallest] += n_trials - observed.sum()
        expect[smallest] += rest
    if expect.size < 2:
        return  # nothing to compare: every trial in one cell
    chi2 = float(((observed - expect) ** 2 / expect).sum())
    assert scipy_stats.chi2.sf(chi2, expect.size - 1) >= CHI2_FALSE_ALARM


@given(
    mean=st.sampled_from([0.0, 0.05, 1.0, 200.0, 16383.5]) | st.floats(0.0, 16383.5),
    dark_rate=st.floats(0.0, 1.0, exclude_max=True),
)
def test_arm_pmf_is_the_term_by_term_pmf(mean, dark_rate):
    # the log terms as one array expression round as the Python-float terms
    assert _arm_pmf(mean, dark_rate).tobytes() == references.arm_pmf(mean, dark_rate).tobytes()


@st.composite
def _coherent_inputs(draw):
    """(mean_photons, n_trials, seed, dark_rate): n_trials anywhere in its
    config range for up to 1000 photons, capped at 10**6 above, where a
    histogram at 2**63 - 1 trials has millions of outcomes."""
    mean = draw(st.sampled_from([0.0, 0.1, 2.0, 400.0, 32767.0]) | st.floats(0.0, 32767.0))
    top = 2**63 - 1 if mean <= 1000 else 10**6
    n_trials = draw(st.integers(1, top) | st.sampled_from([1, top]))
    return mean, n_trials, draw(st.integers(0, 2**128)), draw(st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=15)
@given(_coherent_inputs())
@example((32767.0, 500_000, 3, 0.01))
@example((0.0, 2**63 - 1, 0, 0.0))
def test_sample_coherent_shots_makes_the_reference_draws(inputs):
    # the same arrays, values and dtype, as one array draw per count and
    # row of every pass, with the arm pmf summed term by term
    hist = sample_coherent_shots(*inputs)
    ref = references.sample_coherent_shots(*inputs)
    for got, want in zip(hist, ref, strict=True):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mean_photons, bin, dark_rate", _COHERENT_CASES)
def test_coherent_arm_means_are_half_the_photons_plus_dark(mean_photons, bin, dark_rate):
    n = 10**6
    na, nb, freq = sample_coherent_shots(mean_photons, n, 3, dark_rate=dark_rate)
    assert freq.sum() == n
    mean = mean_photons / 2 + dark_rate
    sigma = math.sqrt((mean_photons / 2 + dark_rate * (1 - dark_rate)) / n)
    for arm in (na, nb):
        assert abs(arm @ freq / n - mean) <= 5 * sigma
    # the arms are independent, so the bin read shows no bunching
    g2, stderr = estimate_g2((na, nb, freq), bin)
    assert abs(g2 - 1.0) <= 5 * stderr


def _masked_loop_table(bin, dark_rate, p2):
    """Reference: p[nA, nB] of one trial, from the per-trial model as
    masked passes over every branch of one trial (pair or single photon,
    the pair's split, the single photon's arm, a dark click per arm), each
    branch weighted by the probability of its draws."""
    double, double_a, arm_a, dark_a, dark_b = (
        g.ravel()
        for g in np.meshgrid([False, True], [0, 1, 2], [False, True], [0, 1], [0, 1], indexing="ij")
    )
    weight = (
        np.where(double, p2, 1.0 - p2)
        * np.array([0.25, 0.5, 0.25])[double_a]
        * 0.5
        * np.where(dark_a == 1, dark_rate, 1.0 - dark_rate)
        * np.where(dark_b == 1, dark_rate, 1.0 - dark_rate)
    )
    na, nb = dark_a.copy(), dark_b.copy()
    if bin == 1:  # no photon reaches bins 2 and 3
        na[double] += double_a[double]
        nb[double] += 2 - double_a[double]
        na[~double & arm_a] += 1
        nb[~double & ~arm_a] += 1
    table = np.zeros((4, 4))
    np.add.at(table, (na, nb), weight)
    return table


@given(
    p2=st.sampled_from([0.0]) | st.floats(0.0, 1.0, exclude_max=True),
    dark_rate=st.sampled_from([0.0]) | st.floats(0.0, 1.0, exclude_max=True),
    n_trials=st.integers(1, 3000) | st.integers(1, 2**63 - 1),
    seed=st.integers(0, 2**64 - 1),
)
@example(p2=0.05, dark_rate=0.001, n_trials=2000, seed=7)
@example(p2=0.0, dark_rate=0.0, n_trials=1, seed=1)
@example(p2=1e-310, dark_rate=5e-324, n_trials=2**63 - 1, seed=2)  # subnormal cells
# a full draw over the 16 cells put one trial in the impossible (3, 3) here
@example(p2=0.0, dark_rate=0.9185622330137383, n_trials=3_364_613_377_441_178, seed=0)
def test_sample_shots_matches_masked_loop_reference(p2, dark_rate, n_trials, seed):
    for bin in (1, 2, 3):
        ref = _masked_loop_table(bin, dark_rate, p2)
        # a cell sums up to 8 branches of 4 rounded products each, or a
        # few subnormal units where the products underflow
        assert np.allclose(_mixture_table(bin, dark_rate, p2), ref, rtol=1e-14, atol=2.0**-1070)
        na, nb, freq = sample_shots(n_trials, seed, bin=bin, dark_rate=dark_rate, p2=p2)
        assert freq.sum() == n_trials
        assert (ref[na, nb] > 0).all()  # no outcome the model cannot give


def _whole_array_sample_shots(n_trials, seed, dark_rate, p2):
    """Reference: the (n_trials, 2, 3) click records of the per-trial
    model as whole-array draws, one array per kind."""
    rng = np.random.default_rng(seed)
    double = rng.random(n_trials) < p2
    double_a = rng.binomial(2, 0.5, size=n_trials)
    arm_a = rng.random(n_trials) < 0.5
    counts = np.zeros((n_trials, 2, 3), dtype=np.int64)
    counts[:, 0, 0] = np.where(double, double_a, arm_a)
    counts[:, 1, 0] = np.where(double, 2 - double_a, ~arm_a)
    counts += rng.random((n_trials, 2, 3)) < dark_rate
    return counts


def _homogeneity_p_value(a, b):
    """p-value of the chi-square test that two outcome histograms
    (nA, nB, freq) over {0..3}^2 with the same number of trials are draws
    of one distribution; cells of small expectation are pooled."""
    seen = np.zeros((2, 16))
    for row, (na, nb, freq) in zip(seen, (a, b)):
        row[4 * na + nb] = freq
    expected = seen.mean(axis=0)
    big = expected >= CHI2_MIN_EXPECTED
    observed, expect = seen[:, big], expected[big]
    rest = expected[~big].sum()
    if rest >= CHI2_MIN_EXPECTED:
        observed = np.column_stack([observed, seen[:, ~big].sum(axis=1)])
        expect = np.append(expect, rest)
    elif expect.size:  # too little left over for a cell of its own
        smallest = np.argmin(expect)
        observed[:, smallest] += seen[:, ~big].sum(axis=1)
        expect[smallest] += rest
    if expect.size < 2:
        return 1.0  # nothing to compare: every trial in one cell
    chi2 = float(((observed - expect) ** 2 / expect).sum())
    return scipy_stats.chi2.sf(chi2, expect.size - 1)


@pytest.mark.parametrize(
    "p2, dark_rate",
    [(0.05, 0.001), (0.2, 0.05), (0.0, 0.0)],  # the first is the g2 mixture
    # the ids of the cases from when each also set the bin probabilities
    ids=["pops0-0.05-0.001", "pops1-0.2-0.05", "pops2-0.0-0.0"],
)
@settings(max_examples=4)
@given(n_trials=st.integers(1, 200_000), seed=st.integers(0, 2**64 - 1))
@example(n_trials=200_000, seed=7)
def test_sample_shots_streams_the_whole_array_draws(p2, dark_rate, n_trials, seed):
    # the sampler's histogram and that of the per-trial whole-array draws
    # are two samples of one distribution, in every bin
    records = _whole_array_sample_shots(n_trials, seed, dark_rate, p2)
    for bin in (1, 2, 3):
        cells = 4 * records[:, 0, bin - 1] + records[:, 1, bin - 1]
        freq = np.bincount(cells, minlength=16)
        hit = np.flatnonzero(freq)
        ref = (hit // 4, hit % 4, freq[hit])
        hist = sample_shots(n_trials, seed ^ 1, bin=bin, dark_rate=dark_rate, p2=p2)
        assert _homogeneity_p_value(hist, ref) >= CHI2_FALSE_ALARM


@pytest.mark.parametrize(
    "sample",
    [
        lambda n: sample_shots(n, 7, dark_rate=0.001, p2=0.05, bin=1),
        lambda n: sample_shots(n, 7, bin=2, dark_rate=0.01, p2=0.0),
        lambda n: sample_coherent_shots(2.0, n, 7, dark_rate=0.01),
        lambda n: sample_coherent_shots(2.0, n, 7, dark_rate=0.0),
    ],
    ids=["mixture", "three-bin", "coherent-dark", "coherent"],
)
def test_sampler_peak_memory_is_near_the_records(sample):
    # the records are the outcome histogram, a few hundred bytes here;
    # int16 records of each of 10**12 trials would take 4 TB
    n = 10**12
    tracemalloc.start()
    try:
        hist = sample(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist[2].sum() == n
    assert peak <= sum(a.nbytes for a in hist) + 64 * 1024


def test_sampler_peak_memory_at_the_top_of_the_support():
    # at 32767 photons every count of the support takes cells: the peak
    # stays within a few copies of the returned histogram, as finished
    # rows and empty cells are dropped while the counts are walked
    tracemalloc.start()
    try:
        hist = sample_coherent_shots(32767, 500_000, 7, dark_rate=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist[2].sum() == 500_000
    assert peak <= 6 * sum(a.nbytes for a in hist)


# ---------------------------------------------------------------------------
# g2 estimation


def test_antibunched_records_give_exactly_zero():
    recs = sample_shots(20_000, seed=21, bin=1, dark_rate=0.0, p2=0.0)
    value, _ = estimate_g2(recs, bin=1)
    assert value == 0.0


def test_coherent_records_give_unity_within_error():
    recs = sample_coherent_shots(0.1, 200_000, seed=7, dark_rate=0.0)
    value, stderr = estimate_g2(recs, bin=1)
    assert stderr > 0
    assert abs(value - 1.0) <= 3 * stderr


def test_estimate_g2_peak_memory_per_trial():
    # nothing trial-long: from 10**4 to 10**12 trials the peak grows by
    # less than 1 MiB, about 1e-6 B/trial, as the estimator holds a few
    # integers per outcome and the outcomes do not grow with the trials
    peaks = []
    for n in (10**4, 10**12):
        hist = sample_coherent_shots(2.0, n, 9, dark_rate=0.01)
        tracemalloc.start()
        try:
            estimate_g2(hist, bin=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2**20


def _one_outcome(na, nb, freq):
    return np.array([na]), np.array([nb]), np.array([freq])


def test_g2_product_of_large_counts_does_not_wrap():
    # 50 000 * 50 000 is beyond int32
    assert estimate_g2(_one_outcome(50_000, 50_000, 4), bin=1)[0] == 1.0


def test_mixture_reproduces_target_g2():
    # closed-form expectation: singles give no coincidences, doubles land
    # (1,1) across the arms half the time, so g2 = 2 p2 / (1 + p2)^2
    p2 = 0.5194938532959157
    assert abs(2 * p2 / (1 + p2) ** 2 - 0.45) <= 1e-12
    recs = sample_shots(400_000, seed=11, p2=p2, bin=1, dark_rate=0.0)
    value, stderr = estimate_g2(recs, bin=1)
    assert abs(value - 0.45) <= 3 * stderr


def test_g2_invariant_under_arm_relabeling():
    na, nb, freq = sample_shots(50_000, seed=13, p2=0.3, bin=1, dark_rate=0.0)
    value, stderr = estimate_g2((na, nb, freq), bin=1)
    assert stderr > 0
    assert estimate_g2((nb, na, freq), bin=1) == (value, stderr)


def test_g2_depends_only_on_the_histogram():
    # the same outcomes in any order give the same g2 and stderr, to the
    # bit: nothing is drawn, and the sums are exact
    na, nb, freq = sample_coherent_shots(2.0, 20_000, seed=3, dark_rate=0.01)
    expected = estimate_g2((na, nb, freq), bin=1)
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(na.size)
        assert estimate_g2((na[order], nb[order], freq[order]), bin=1) == expected


def test_g2_undefined_when_an_arm_is_dark():
    # no photon reaches bin 2, and no dark click
    recs = sample_shots(100, seed=1, bin=2, dark_rate=0.0, p2=0.0)
    undefined = r"^g2 undefined: one arm registered no clicks \(100 trials, bin 2\)$"
    with pytest.raises(NumericError, match=undefined):
        estimate_g2(recs, bin=2)


def _mixture_g2(p2, dark_rate):
    """Closed-form g2(0) of bin 1 of the mixture: a pair lands (1, 1)
    half the time, so <sA sB> = p2 / 2 over the signal, and each arm adds
    an independent Bernoulli(dark_rate) dark click."""
    mean = 0.5 * (1.0 + p2) + dark_rate
    return (0.5 * p2 + dark_rate * (1.0 + p2) + dark_rate**2) / mean**2


# (sampler of one seed's histogram, closed-form g2, seeds); a coherent
# source has independent arms, so g2 = 1 whatever the dark rate
_COVERAGE_CASES = {
    "mixture-p2-0.3": (
        lambda seed: sample_shots(20_000, seed, bin=1, dark_rate=0.0, p2=0.3),
        _mixture_g2(0.3, 0.0), 2000,
    ),
    "mixture-p2-0.05-dark-5000": (
        lambda seed: sample_shots(5_000, seed, bin=1, dark_rate=0.01, p2=0.05),
        _mixture_g2(0.05, 0.01), 2000,
    ),
    "coherent-m-2-dark": (
        lambda seed: sample_coherent_shots(2.0, 20_000, seed, dark_rate=0.01),
        1.0, 1000,
    ),
}


@pytest.mark.parametrize("case", _COVERAGE_CASES)
def test_g2_interval_covers_the_closed_form(case):
    # g2 +- 1.96 stderr is a 95 % interval: over the seeds, the runs whose
    # interval holds the closed form lie in the central 99.9 % of
    # Binomial(seeds, 0.95): [1867, 1931] of 2000 and [926, 971] of 1000
    draw, expected, seeds = _COVERAGE_CASES[case]
    covered = 0
    for seed in range(seeds):
        value, stderr = estimate_g2(draw(seed), bin=1)
        covered += abs(value - expected) <= 1.96 * stderr
    lo, hi = scipy_stats.binom.interval(0.999, seeds, 0.95)
    assert lo <= covered <= hi, covered / seeds


def _histogram_g2(na, nb, freq):
    """Reference: the estimator over an outcome histogram in exact
    arithmetic, cell by cell: g2 from Python-integer sums, and the stderr
    from the influence function psi as written, in rationals, rounded once
    before the square root; None where an arm is dark."""
    cells = [(int(a), int(b), int(f)) for a, b, f in zip(na, nb, freq)]
    n = sum(f for _, _, f in cells)
    sum_a = sum(a * f for a, _, f in cells)
    sum_b = sum(b * f for _, b, f in cells)
    if sum_a == 0 or sum_b == 0:
        return None
    sum_ab = sum(a * b * f for a, b, f in cells)
    value = sum_ab / n / ((sum_a / n) * (sum_b / n))
    ma, mb, g = Fraction(sum_a, n), Fraction(sum_b, n), Fraction(n * sum_ab, sum_a * sum_b)
    var = sum(f * (a * b / (ma * mb) - g * (a / ma + b / mb - 1)) ** 2 for a, b, f in cells)
    return value, math.sqrt(var / n**2)


def _per_trial_g2(na, nb, freq):
    """Reference on the trials one by one, in float64: the histogram
    expanded with np.repeat, g2 from the trial means and the stderr as
    sqrt(<psi^2> / n) with psi evaluated at each trial; also the scale
    that the rounding of psi's terms leaves on that stderr."""
    a, b = (np.repeat(x, freq).astype(float) for x in (na, nb))
    ma, mb = a.mean(), b.mean()
    g = (a * b).mean() / (ma * mb)
    product, linear = a * b / (ma * mb), g * (a / ma + b / mb - 1.0)
    psi = product - linear
    terms = np.abs(product) + np.abs(linear)
    return g, math.sqrt((psi**2).mean() / a.size), math.sqrt((terms**2).mean() / a.size)


# the most trials that the per-trial reference expands
PER_TRIAL_LIMIT = 500_000


# the largest count of a coherent run at the top of shots.mean_photons
TOP_COUNT = _arm_pmf(32767 / 2, 0.5).size - 1


@st.composite
def _histograms(draw):
    """(nA, nB, freq) of distinct outcomes in lexicographic order, as the
    samplers give them, from one outcome up to 400 and from a few trials
    up to 4e14."""
    top = draw(st.sampled_from([1, 2, 5, 300, TOP_COUNT]) | st.integers(0, TOP_COUNT))
    size = draw(st.integers(1, min(400, (top + 1) ** 2)))
    most = draw(st.sampled_from([1, 3, 1000, 10**12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.sort(rng.choice((top + 1) ** 2, size=size, replace=False))
    freq = rng.integers(1, most, size=size, endpoint=True)
    return cells // (top + 1), cells % (top + 1), freq


@given(hist=_histograms(), bin=st.integers(1, 3))
@example(hist=_one_outcome(3, 3, 50), bin=1)  # one distinct outcome
@example(  # counts at the top of the support in both arms
    hist=(
        np.array([0, 0, 1, 1, TOP_COUNT, TOP_COUNT]),
        np.array([0, TOP_COUNT, 2, TOP_COUNT, 1, TOP_COUNT]),
        np.array([5, 3, 8, 2, 4, 5]),
    ),
    bin=1,
)
@example(hist=_one_outcome(1, 0, 9), bin=3)  # arm B dark: undefined
def test_estimate_g2_matches_the_histogram_reference(hist, bin):
    ref = _histogram_g2(*hist)
    if ref is None:
        undefined = rf"no clicks \({hist[2].sum()} trials, bin {bin}\)$"
        with pytest.raises(NumericError, match="^g2 undefined: one arm registered " + undefined):
            estimate_g2(hist, bin=bin)
    else:
        value, stderr = estimate_g2(hist, bin=bin)
        assert (value, stderr) == ref
        assert math.isfinite(stderr)
        if hist[2].sum() <= PER_TRIAL_LIMIT:
            g, trial_stderr, scale = _per_trial_g2(*hist)
            assert math.isclose(value, g, rel_tol=1e-12)
            # where psi cancels to rounding, float64 keeps only its scale
            assert math.isclose(stderr, trial_stderr, rel_tol=1e-12, abs_tol=1e-12 * scale)


# ---------------------------------------------------------------------------
# sinusoid fitting


def _synth(o=1.3, a=0.91, f=2.7, ph=-0.4, n=64, span=10.0):
    x = np.linspace(0.0, span, n)
    return x, o + a * np.cos(f * x + ph)


# the fit record's keys, in order: the fit command's CSV header and JSON keys
FIT_KEYS = [
    "offset", "amplitude", "frequency", "phase", "visibility", "residual_rms", "converged", "flags",
]


def test_fit_recovers_exact_synthetic_parameters():
    x, y = _synth()
    fit = fit_sinusoid(x, y, freq_hint=2.7)
    assert list(fit) == FIT_KEYS  # the fit command's record
    assert fit["converged"]
    assert fit["flags"] == ()
    assert abs(fit["offset"] - 1.3) <= 1e-8
    assert abs(fit["amplitude"] - 0.91) <= 1e-8
    assert abs(fit["frequency"] - 2.7) <= 1e-8
    assert abs(fit["phase"] - (-0.4)) <= 1e-8
    assert abs(fit["visibility"] - 0.7) <= 1e-8
    assert fit["residual_rms"] <= 1e-10


def test_fit_flags_flat_scan():
    x = np.linspace(0.0, 10.0, 32)
    fit = fit_sinusoid(x, np.full_like(x, 0.25), freq_hint=1.0)
    assert list(fit) == FIT_KEYS
    assert fit["converged"]
    assert "flat_scan" in fit["flags"]
    assert fit["amplitude"] == 0.0
    assert fit["visibility"] == 0.0
    assert fit["offset"] == 0.25


@pytest.mark.parametrize("scale", [1e-13, 1e-6, 1.0, 1e6, 1e13])
def test_fit_is_scale_equivariant(scale):
    # the flat-scan test is relative: a small fringe is still a fringe
    x, y = _synth()
    ref = fit_sinusoid(x, y, freq_hint=2.7)
    fit = fit_sinusoid(x, scale * y, freq_hint=2.7)
    assert fit["converged"] and fit["flags"] == ref["flags"] == ()
    assert fit["visibility"] == pytest.approx(ref["visibility"], rel=1e-12)
    assert fit["frequency"] == pytest.approx(ref["frequency"], rel=1e-12)
    assert fit["offset"] == pytest.approx(scale * ref["offset"], rel=1e-12)
    assert fit["amplitude"] == pytest.approx(scale * ref["amplitude"], rel=1e-12)


@pytest.mark.parametrize("exponent", [-1000, -700, -50, 3, 50, 700, 1000])
def test_fit_of_a_power_of_two_scaled_scan_is_the_same_fit_scaled(exponent):
    # y is fitted divided by a power of two, so any power-of-two scale,
    # also one whose squares leave the float range, gives the same bits
    x, y = _synth()
    y = y + np.random.default_rng(5).normal(0.0, 0.01, y.size)
    ref = fit_sinusoid(x, y, freq_hint=2.7)
    scale = 2.0**exponent
    fit = fit_sinusoid(x, scale * y, freq_hint=2.7)
    assert (fit["offset"], fit["amplitude"], fit["residual_rms"]) == (
        scale * ref["offset"], scale * ref["amplitude"], scale * ref["residual_rms"]
    )
    unscaled = ("frequency", "phase", "visibility", "converged", "flags")
    assert [fit[key] for key in unscaled] == [ref[key] for key in unscaled]


def test_fit_flags_frequency_far_from_hint():
    x, y = _synth(f=2.7)
    fit = fit_sinusoid(x, y, freq_hint=3.6)
    assert "frequency_far_from_hint" in fit["flags"]
    assert abs(fit["frequency"] - 2.7) <= 1e-6


@pytest.mark.parametrize("hint", [2.5, 3.3, 2.0, 3.4])
def test_fit_flags_a_minimum_on_the_bracket_edge(hint):
    # on a non-uniform grid the search brackets the hint by one bin,
    # 2 pi / (x_max - x_min) = 0.63 here: a fringe inside converges, also
    # one nearer an end than the samples are spaced (3.3), and one beyond
    # it is returned at the bracket's nearer edge, flagged
    x = np.linspace(0.0, 10.0, 64) ** 2 / 10.0  # non-uniform, over [0, 10]
    y = 1.3 + 0.91 * np.cos(2.7 * x - 0.4)
    fit = fit_sinusoid(x, y, freq_hint=hint)
    half_width = 2.0 * math.pi / 10.0
    if abs(2.7 - hint) < half_width:
        assert fit["converged"]
        assert fit["frequency"] == pytest.approx(2.7, rel=1e-14)
        assert fit["visibility"] == pytest.approx(0.7, rel=1e-13)
    else:
        assert not fit["converged"] and "not_converged" in fit["flags"]
        edge = hint + math.copysign(half_width, 2.7 - hint)
        assert fit["frequency"] == pytest.approx(edge, rel=1e-15)


def test_fit_flags_a_ramp_whose_residual_falls_toward_zero_frequency():
    # as f -> 0 the sinusoid tends to a quadratic, which fits a ramp
    # better at every smaller f: the minimum is the bracket's edge f = 0
    x = np.arange(16.0)
    fit = fit_sinusoid(x, x, freq_hint=1.0)
    assert not fit["converged"] and "not_converged" in fit["flags"]


def test_fit_flags_zero_offset():
    x = np.linspace(0.0, 10.0, 64)
    y = 0.9 * np.cos(2.7 * x)
    fit = fit_sinusoid(x, y, freq_hint=2.7)
    assert "zero_offset" in fit["flags"]
    assert fit["visibility"] == 0.0
    assert abs(fit["amplitude"] - 0.9) <= 1e-8


def test_fit_validation():
    # finite, equal-length columns come from the scan reader and a finite
    # positive hint from the CLI (test_cli); the fit checks the rest
    x, y = _synth(n=7)
    with pytest.raises(ValueError, match="at least 8 points"):
        fit_sinusoid(x, y, freq_hint=2.7)
    x, y = _synth()
    # a non-increasing detuning axis has no fringe to fit
    for bad_x in (np.zeros_like(x), np.where(x == x[3], x[2], x), x[::-1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_sinusoid(bad_x, y, freq_hint=2.7)


@st.composite
def _finite_scans(draw):
    """8-40 points on a strictly increasing uniform or non-uniform axis
    (steps 1e-9 to 1e3), with finite |y| <= 1e6."""
    n = draw(st.integers(8, 40))
    step = draw(st.floats(1e-9, 1e3))
    if draw(st.booleans()):
        steps = np.full(n - 1, step)
    else:
        steps = step * np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n - 1, max_size=n - 1)))
    x = draw(st.floats(-1e3, 1e3)) + np.concatenate([[0.0], np.cumsum(steps)])
    y = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return x, np.array(y)


@given(scan=_finite_scans(), hint=st.floats(1e-6, 1e6))
@example(scan=(np.arange(8.0), np.zeros(8)), hint=1.0)
@example(scan=(np.arange(8.0), np.array([0.0, 1e6] * 4)), hint=1e6)
def test_fit_on_degenerate_finite_input_is_finite_or_flagged(scan, hint):
    # any finite scan on an increasing axis gives six finite numbers or
    # says it did not converge; it never raises
    fit = fit_sinusoid(*scan, freq_hint=hint)
    numbers = (
        fit["offset"], fit["amplitude"], fit["frequency"],
        fit["phase"], fit["visibility"], fit["residual_rms"],
    )
    assert all(map(math.isfinite, numbers)) or "not_converged" in fit["flags"]


def test_fit_handles_noisy_fringe():
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 12.0, 120)
    y = 2.0 + 0.8 * np.cos(3.1 * x + 0.2) + rng.normal(0.0, 0.01, x.size)
    fit = fit_sinusoid(x, y, freq_hint=3.1)
    assert fit["converged"]
    assert abs(fit["frequency"] - 3.1) <= 0.01
    assert abs(fit["visibility"] - 0.4) <= 0.01


# ---------------------------------------------------------------------------
# fringe fitting on analytic scans


def _fit_dense_scan(area: float):
    t_mu1 = 5e-9
    t_mu2 = 2000e-9
    t_total = 2 * t_mu1 + t_mu2
    span = 1.6 * 2.0 * math.pi / t_total
    omega = area / t_mu2
    deltas = symmetric_detuning_grid(span, 201)
    cfg = scan_config(t_mu1, span, 201, omega, t_mu2)
    return fit_sinusoid(np.asarray(deltas), fringe_scan(cfg, DissipationSection()), t_total)


def test_fringe_fit_visibility_full_area():
    fit = _fit_dense_scan(2.0 * math.pi)
    assert fit["converged"]
    assert abs(fit["visibility"] - 1.0) <= 1e-6


def test_fringe_fit_visibility_half_pi_area():
    fit = _fit_dense_scan(math.pi / 2.0)
    assert fit["converged"]
    law = ramsey_visibility((math.pi / 2.0) / 2000e-9, 2000e-9)
    assert abs(fit["visibility"] - law) <= 1e-4


def test_remapping_scan_keeps_bin_one_at_half():
    times = tuple(np.linspace(0.0, 160e-9, 81))
    table = rabi_scan(times, omega_mu2=mhz(12.5), t_mu1=20e-9, detuning2=0.0)
    p1 = table[:, 1]
    assert np.abs(p1 - 0.5).max() <= 1e-9
    fit = fit_sinusoid(table[:, 0], table[:, 2], freq_hint=mhz(12.5))
    assert fit["converged"]
    period = 2.0 * math.pi / fit["frequency"]
    assert abs(period - 80e-9) <= 0.001 * 80e-9
