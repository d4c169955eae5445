import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlab.config import DissipationSection
from seqlab.dissipative import NumericError, evolve_master
from seqlab.dsl import parse_sequence
from seqlab.photostats import (
    COUNT_MAX,
    BOOTSTRAP_SEED,
    N_BOOTSTRAP,
    SHOT_BLOCK,
    FitResult,
    TimeBinPopulations,
    estimate_g2,
    fit_sinusoid,
    readout_from_sequence,
    sample_coherent_shots,
    sample_shots,
)
from seqlab.qcore import (
    DriveField,
    DriveSegment,
    Readout,
    Wait,
)
from seqlab.ramsey import fringe_scan, rabi_scan, symmetric_detuning_grid
from seqlab.units import mhz
from references import (
    DEFAULT_PI_PULSE_S,
    ramsey_visibility,
    readout_populations,
    scan_config,
    sequence_unitary,
)
from test_tooling import SEQUENCE_WITH_A_WAIT

IDEAL = (1.0, 1.0, 1.0)  # retrieval efficiencies of the three bins

# one mu1 pi/2 pulse: the stored excitation split evenly between R1 and R2
HALF_PI_MU1 = (DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9),)


# ---------------------------------------------------------------------------
# time-bin read-out


def test_ideal_readout_of_equal_superposition():
    pops = readout_populations(HALF_PI_MU1)
    assert abs(pops.p1 - 0.5) <= 1e-15
    assert abs(pops.p2 - 0.5) <= 1e-15
    # float pi leaves a cos(pi/2)^4-scale residue, nothing larger
    assert pops.p3 <= 1e-30


def test_readout_after_half_pi_and_pi_area():
    seq = (
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9),
        DriveSegment(DriveField.MU2, rabi=math.pi / 40e-9, duration=40e-9),
    )
    pops = readout_populations(seq)
    assert abs(pops.p1 - 0.5) <= 1e-12
    assert abs(pops.p2 - 0.0) <= 1e-12
    assert abs(pops.p3 - 0.5) <= 1e-12


def test_readout_of_r3_lands_in_bin_three():
    to_r3 = (  # a mu1 pi pulse, then a mu2 pi pulse
        DriveSegment(DriveField.MU1, rabi=math.pi / 40e-9, duration=40e-9),
        DriveSegment(DriveField.MU2, rabi=math.pi / 40e-9, duration=40e-9),
    )
    pops = readout_populations(to_r3)
    # float pi leaves a cos(pi/2)^2-scale residue in R1, nothing larger
    assert pops.p1 <= 1e-30
    assert abs(pops.p2) <= 1e-24
    assert abs(pops.p3 - 1.0) <= 1e-12


def _canonical_chain() -> tuple:
    """The read-out chain of readout_populations, written out."""
    t = DEFAULT_PI_PULSE_S
    pi_mu1 = DriveSegment(DriveField.MU1, rabi=math.pi / t, duration=t)
    pi_mu2 = DriveSegment(DriveField.MU2, rabi=math.pi / t, duration=t)
    return (Readout(1), pi_mu1, Readout(2), pi_mu2, pi_mu1, Readout(3))


def test_readout_eta_scales_each_bin():
    seq = HALF_PI_MU1 + _canonical_chain()
    assert readout_from_sequence(seq, IDEAL, 0.0) == readout_populations(HALF_PI_MU1)
    pops = readout_from_sequence(seq, (0.8, 0.5, 0.3), 0.0)
    assert abs(pops.p1 - 0.5 * 0.8) <= 1e-12
    assert abs(pops.p2 - 0.5 * 0.5) <= 1e-12
    assert pops.p3 <= 1e-30


# preparation segments from the stored excitation: field, area, phase, detuning
_prep_segments = st.lists(
    st.builds(
        lambda field, area, phase, detuning: DriveSegment(
            field, rabi=area / 20e-9, duration=20e-9, phase=phase, detuning=detuning
        ),
        st.sampled_from(DriveField),
        st.floats(0.0, 4.0 * math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(-mhz(5.0), mhz(5.0)),
    ),
    max_size=4,
)


@given(_prep_segments)
def test_readout_conserves_probability(prep):
    pops = readout_populations(prep)
    assert abs(pops.p1 + pops.p2 + pops.p3 - 1.0) <= 1e-12


@given(_prep_segments)
def test_prepared_state_is_the_first_column_of_the_unitary(prep):
    # every path starts from the stored excitation: the ideal read-out and
    # the zero-rate master equation both see column 0 of the unitary
    psi = np.zeros(4, dtype=complex)
    psi[:3] = sequence_unitary(prep)[:, 0]
    pops = readout_populations(prep)
    assert np.abs(np.array([pops.p1, pops.p2, pops.p3]) - np.abs(psi[:3]) ** 2).max() <= 1e-12
    rho = evolve_master(tuple(prep), DissipationSection())
    assert np.abs(rho - np.outer(psi, psi.conj())).max() <= 1e-12


def test_interbin_dephasing_attenuates_later_bins():
    gamma = 6.5e6
    pops = readout_populations(HALF_PI_MU1, deph_between_bins=gamma)
    # bin 1 is read before any delay has accrued
    assert abs(pops.p1 - 0.5) <= 1e-15
    # bin 2 follows one pi pulse of delay
    assert abs(pops.p2 - 0.5 * math.exp(-gamma * DEFAULT_PI_PULSE_S)) <= 1e-12


def test_interbin_dephasing_is_monotone_in_rate():
    p2s = [
        readout_populations(HALF_PI_MU1, deph_between_bins=g).p2
        for g in (0.0, 2e5, 5e5, 1e6, 2e6)
    ]
    assert all(a > b for a, b in zip(p2s, p2s[1:]))


def test_readout_validation():
    # eta and the inter-bin rate are bounded by the readout.eta_* and
    # readout.deph config keys (test_config)
    with pytest.raises(ValueError):
        TimeBinPopulations(0.6, 0.6, 0.0)


def test_readout_from_sequence_clock_spans_segments():
    # segments between bins 1 and 2 sum to 90 ns of dephasing delay
    gamma = 1e6
    seq = HALF_PI_MU1 + (
        Readout(1),
        Wait(30e-9),
        DriveSegment(DriveField.MU1, rabi=math.pi / 40e-9, duration=40e-9),
        Wait(20e-9),
        Readout(2),
    )
    pops = readout_from_sequence(seq, IDEAL, gamma)
    assert abs(pops.p1 - 0.5) <= 1e-15
    assert abs(pops.p2 - 0.5 * math.exp(-gamma * 90e-9)) <= 1e-12


def test_readout_of_an_emptied_r1_rounding_below_zero_reads_zero():
    # a mu1 pi/2 pulse at phase pi, undone by the first pulse of
    # SEQUENCE_WITH_A_WAIT: bin 1 takes everything and rho_00 rounds to
    # about -4.5e-34 at bin 2, which TimeBinPopulations would refuse
    prep = (
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9, phase=math.pi),
    )
    seq = prep + parse_sequence(SEQUENCE_WITH_A_WAIT)
    pops = readout_from_sequence(seq, IDEAL, 0.0)
    assert abs(pops.p1 - 1.0) <= 1e-15
    assert pops.p2 == 0.0 and pops.p3 == 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo sampling


def test_sampling_is_deterministic_per_seed():
    a = sample_shots(500, seed=42, dark_rate=0.01, p2=0.2, bin=1)
    b = sample_shots(500, seed=42, dark_rate=0.01, p2=0.2, bin=1)
    c = sample_shots(500, seed=43, dark_rate=0.01, p2=0.2, bin=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_deterministic_source_gives_one_click_per_trial():
    n = 10_000
    recs = sample_shots(n, seed=7, bin=1, dark_rate=0.0, p2=0.0)
    totals = recs.sum(axis=1)
    assert np.all(totals == 1)
    for bin in (2, 3):
        assert sample_shots(n, seed=7, bin=bin, dark_rate=0.0, p2=0.0).sum() == 0
    na = recs[:, 0].sum()
    # 4 sigma band around the 50/50 arm split
    assert abs(na - n / 2) <= 4 * math.sqrt(n * 0.25)


def _all_bins(sample):
    """The (n_trials, 2, 3) records of the three bins of sample(bin)."""
    return np.stack([sample(bin) for bin in (1, 2, 3)], axis=-1)


def test_single_branch_never_exceeds_one_click():
    recs = _all_bins(
        lambda bin: sample_shots(5_000, seed=11, bin=bin, dark_rate=0.0, p2=0.0)
    )
    assert recs.sum(axis=(1, 2)).max() <= 1


def test_dark_counts_add_at_the_configured_rate():
    n = 40_000
    rate = 0.05
    recs = _all_bins(
        lambda bin: sample_shots(n, seed=3, bin=bin, dark_rate=rate, p2=0.0)
    )
    total = int(recs.sum()) - n  # each trial's single photon adds one click
    mean = 6 * n * rate
    sigma = math.sqrt(6 * n * rate * (1 - rate))
    assert abs(total - mean) <= 5 * sigma


def test_coherent_source_total_is_poissonian():
    n = 100_000
    mu = 0.1
    recs = sample_coherent_shots(mu, n, seed=5, bin=1, dark_rate=0.0)
    totals = recs.sum(axis=1)
    assert abs(totals.mean() - mu) <= 5 * math.sqrt(mu / n)


def test_sampling_validation():
    # n_trials, dark_rate, p2, mean_photons and bin are bounded by their
    # config keys (test_config); a photon number is bounded by the records
    with pytest.raises(ValueError, match="overflows the int16 shot records"):
        sample_coherent_shots(140_000, 10, seed=1, bin=1, dark_rate=0.0)


def _masked_loop_sample_shots(n_trials, seed, dark_rate, p2):
    """Reference: the sampler as masked passes over the trials."""
    rng = np.random.default_rng(seed)
    double = rng.random(n_trials) < p2
    double_a = rng.binomial(2, 0.5, size=n_trials)
    rng.random(n_trials)  # the single photon's bin: always bin 1
    arm_a = rng.random(n_trials) < 0.5
    counts = np.zeros((n_trials, 2, 3), dtype=np.int16)
    counts[double, 0, 0] += double_a[double].astype(np.int16)
    counts[double, 1, 0] += (2 - double_a[double]).astype(np.int16)
    counts[~double & arm_a, 0, 0] += 1
    counts[~double & ~arm_a, 1, 0] += 1
    if dark_rate > 0:
        counts += (rng.random((n_trials, 2, 3)) < dark_rate).astype(np.int16)
    return counts


@given(
    p2=st.sampled_from([0.0]) | st.floats(0.0, 0.99),
    dark_rate=st.sampled_from([0.0]) | st.floats(0.0, 0.5),
    n_trials=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
@example(p2=0.05, dark_rate=0.001, n_trials=2000, seed=7)
@example(p2=0.0, dark_rate=0.0, n_trials=1, seed=1)
def test_sample_shots_matches_masked_loop_reference(p2, dark_rate, n_trials, seed):
    ref = _masked_loop_sample_shots(n_trials, seed, dark_rate, p2)
    for bin in (1, 2, 3):
        recs = sample_shots(n_trials, seed, bin=bin, dark_rate=dark_rate, p2=p2)
        assert recs.dtype == np.int16
        assert np.array_equal(recs, ref[:, :, bin - 1])


def _whole_array_sample_shots(n_trials, seed, dark_rate, p2):
    """Reference: the sampler as whole-array draws, one array per kind."""
    rng = np.random.default_rng(seed)
    double = rng.random(n_trials) < p2
    double_a = rng.binomial(2, 0.5, size=n_trials)
    rng.random(n_trials)  # the single photon's bin: always bin 1
    arm_a = rng.random(n_trials) < 0.5
    counts = np.zeros((n_trials, 2, 3), dtype=np.int16)
    counts[:, 0, 0] = np.where(double, double_a, arm_a)
    counts[:, 1, 0] = np.where(double, 2 - double_a, ~arm_a)
    if dark_rate > 0:
        counts += rng.random((n_trials, 2, 3)) < dark_rate
    return counts


def _whole_array_coherent_shots(mean_photons, n_trials, seed, bin, dark_rate):
    """Reference: the coherent sampler as whole-array draws."""
    rng = np.random.default_rng(seed)
    nph = rng.poisson(mean_photons, n_trials)
    na = rng.binomial(nph, 0.5)
    counts = np.zeros((n_trials, 2, 3), dtype=np.int16)
    counts[:, 0, bin - 1] = na
    counts[:, 1, bin - 1] = nph - na
    if dark_rate > 0:
        counts += (rng.random((n_trials, 2, 3)) < dark_rate).astype(np.int16)
    return counts


# trial counts either side of one and two block boundaries
_BLOCK_EDGES = (SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 1, 2 * SHOT_BLOCK + 1)


@pytest.mark.parametrize(
    "p2, dark_rate",
    [(0.05, 0.001), (0.2, 0.05), (0.0, 0.0)],  # the first is the g2 mixture
    # the ids of the cases from when each also set the bin probabilities
    ids=["pops0-0.05-0.001", "pops1-0.2-0.05", "pops2-0.0-0.0"],
)
@settings(max_examples=4)
@given(seed=st.integers(0, 2**64 - 1))
def test_sample_shots_streams_the_whole_array_draws(p2, dark_rate, seed):
    for n in _BLOCK_EDGES:
        ref = _whole_array_sample_shots(n, seed, dark_rate, p2)
        for bin in (1, 2, 3):
            recs = sample_shots(n, seed, bin=bin, dark_rate=dark_rate, p2=p2)
            assert recs.dtype == np.int16
            assert np.array_equal(recs, ref[:, :, bin - 1])


@pytest.mark.parametrize(
    "mean_photons, bin, dark_rate",
    [(2.0, 1, 0.01), (0.1, 2, 0.3), (2.0, 3, 0.0), (400.0, 1, 0.0)],
)
@settings(max_examples=4)
@given(seed=st.integers(0, 2**64 - 1))
def test_sample_coherent_shots_streams_the_whole_array_draws(mean_photons, bin, dark_rate, seed):
    for n in _BLOCK_EDGES:
        recs = sample_coherent_shots(mean_photons, n, seed, bin=bin, dark_rate=dark_rate)
        ref = _whole_array_coherent_shots(mean_photons, n, seed, bin, dark_rate)
        assert recs.dtype == np.int16
        assert np.array_equal(recs, ref[:, :, bin - 1])


@pytest.mark.parametrize(
    "sample",
    [
        lambda n: sample_shots(n, 7, dark_rate=0.001, p2=0.05, bin=1),
        lambda n: sample_shots(n, 7, bin=2, dark_rate=0.01, p2=0.0),
        lambda n: sample_coherent_shots(2.0, n, 7, dark_rate=0.01, bin=1),
        lambda n: sample_coherent_shots(2.0, n, 7, bin=1, dark_rate=0.0),
    ],
    ids=["mixture", "three-bin", "coherent-dark", "coherent"],
)
def test_sampler_peak_memory_is_near_the_records(sample):
    # the records take 4 B/trial; three-bin records peaked at 14-17 B/trial
    # and whole-array draws at 82-94 B/trial
    n = 500_000
    tracemalloc.start()
    try:
        recs = sample(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recs.shape == (n, 2)
    assert peak / n <= 12.0


# ---------------------------------------------------------------------------
# g2 estimation


def test_antibunched_records_give_exactly_zero():
    recs = sample_shots(20_000, seed=21, bin=1, dark_rate=0.0, p2=0.0)
    value, _ = estimate_g2(recs, bin=1)
    assert value == 0.0


def test_coherent_records_give_unity_within_error():
    recs = sample_coherent_shots(0.1, 200_000, seed=7, bin=1, dark_rate=0.0)
    value, stderr = estimate_g2(recs, bin=1)
    assert stderr > 0
    assert abs(value - 1.0) <= 3 * stderr


def test_estimate_g2_peak_memory_per_trial():
    # the block histogram holds nothing trial-long; trial-long int32
    # products and packed keys peaked at 10 B/trial
    recs = sample_coherent_shots(2.0, 500_000, 9, dark_rate=0.01, bin=1)
    tracemalloc.start()
    try:
        estimate_g2(recs, bin=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(recs) <= 2.0


def test_g2_product_of_large_counts_does_not_wrap():
    counts = np.full((4, 2), 200, dtype=np.int16)  # 200 * 200 is beyond int16
    assert estimate_g2(counts, bin=1)[0] == 1.0


def test_mixture_reproduces_target_g2():
    # closed-form expectation: singles give no coincidences, doubles land
    # (1,1) across the arms half the time, so g2 = 2 p2 / (1 + p2)^2
    p2 = 0.5194938532959157
    assert abs(2 * p2 / (1 + p2) ** 2 - 0.45) <= 1e-12
    recs = sample_shots(400_000, seed=11, p2=p2, bin=1, dark_rate=0.0)
    value, stderr = estimate_g2(recs, bin=1)
    assert abs(value - 0.45) <= 3 * stderr


def test_g2_invariant_under_arm_relabeling():
    recs = sample_shots(50_000, seed=13, p2=0.3, bin=1, dark_rate=0.0)
    swapped = recs[:, ::-1]
    assert estimate_g2(recs, bin=1)[0] == estimate_g2(swapped, bin=1)[0]


def test_g2_bootstrap_is_deterministic():
    recs = sample_shots(50_000, seed=13, p2=0.3, bin=1, dark_rate=0.0)
    assert estimate_g2(recs, bin=1)[1] == estimate_g2(recs, bin=1)[1]


def test_g2_undefined_when_an_arm_is_dark():
    # no photon reaches bin 2, and no dark click
    recs = sample_shots(100, seed=1, bin=2, dark_rate=0.0, p2=0.0)
    undefined = r"^g2 undefined: one arm registered no clicks \(100 trials, bin 2\)$"
    with pytest.raises(NumericError, match=undefined):
        estimate_g2(recs, bin=2)


def _row_unique_g2(counts):
    """Reference: the estimator over whole (n_trials, 2) records, collapsing
    outcomes with a row-wise unique; None where an arm is dark."""
    na, nb = counts[:, 0], counts[:, 1]
    n = len(counts)
    mean_a, mean_b = na.mean(), nb.mean()
    if mean_a == 0.0 or mean_b == 0.0:
        return None
    value = float(np.multiply(na, nb, dtype=np.int64).mean() / (mean_a * mean_b))
    uniq, freq = np.unique(counts, axis=0, return_counts=True)
    ua = uniq[:, 0].astype(float)
    ub = uniq[:, 1].astype(float)
    draws = np.random.default_rng(BOOTSTRAP_SEED).multinomial(
        n, freq / n, size=N_BOOTSTRAP
    )
    sa, sb, sab = draws @ ua, draws @ ub, draws @ (ua * ub)
    ok = (sa > 0) & (sb > 0)
    boot = n * sab[ok] / (sa[ok] * sb[ok])
    stderr = float(boot.std(ddof=1)) if boot.size > 1 else math.nan
    return value, stderr


@st.composite
def _shot_counts(draw):
    # some spanning several histogram blocks, so a merge bug shows
    n = draw(st.integers(1, 2000) | st.sampled_from(_BLOCK_EDGES))
    top = draw(st.sampled_from([1, 2, 5, 300, COUNT_MAX]) | st.integers(0, COUNT_MAX))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(
        0, top, size=(n, 2), dtype=np.int16, endpoint=True
    )


@given(counts=_shot_counts(), bin=st.integers(1, 3))
@example(counts=np.full((50, 2), 3, dtype=np.int16), bin=1)  # one distinct outcome
@example(  # counts at COUNT_MAX in both arms
    counts=np.stack(
        [
            np.where(np.arange(27) % 4 == 0, COUNT_MAX, np.arange(27) % 2),
            np.where(np.arange(27) % 3 == 0, COUNT_MAX, np.arange(27)),
        ],
        axis=1,
    ).astype(np.int16),
    bin=1,
)
@example(  # arm B dark: undefined
    counts=np.stack([np.ones(9), np.zeros(9)], axis=1).astype(np.int16),
    bin=3,
)
def test_estimate_g2_matches_row_unique_reference(counts, bin):
    ref = _row_unique_g2(counts)
    if ref is None:
        undefined = rf"no clicks \({len(counts)} trials, bin {bin}\)$"
        with pytest.raises(NumericError, match="^g2 undefined: one arm registered " + undefined):
            estimate_g2(counts, bin=bin)
    else:
        assert np.array_equal(estimate_g2(counts, bin=bin), ref, equal_nan=True)


# ---------------------------------------------------------------------------
# sinusoid fitting


def _synth(o=1.3, a=0.91, f=2.7, ph=-0.4, n=64, span=10.0):
    x = np.linspace(0.0, span, n)
    return x, o + a * np.cos(f * x + ph)


def test_fit_recovers_exact_synthetic_parameters():
    x, y = _synth()
    fit = fit_sinusoid(x, y, freq_hint=2.7)
    assert fit.converged
    assert fit.flags == ()
    assert abs(fit.offset - 1.3) <= 1e-8
    assert abs(fit.amplitude - 0.91) <= 1e-8
    assert abs(fit.frequency - 2.7) <= 1e-8
    assert abs(fit.phase - (-0.4)) <= 1e-8
    assert abs(fit.visibility - 0.7) <= 1e-8
    assert fit.residual_rms <= 1e-10


def test_fit_flags_flat_scan():
    x = np.linspace(0.0, 10.0, 32)
    fit = fit_sinusoid(x, np.full_like(x, 0.25), freq_hint=1.0)
    assert fit.converged
    assert "flat_scan" in fit.flags
    assert fit.amplitude == 0.0
    assert fit.visibility == 0.0
    assert fit.offset == 0.25


@pytest.mark.parametrize("scale", [1e-13, 1e-6, 1.0, 1e6, 1e13])
def test_fit_is_scale_equivariant(scale):
    # the flat-scan test is relative: a small fringe is still a fringe
    x, y = _synth()
    ref = fit_sinusoid(x, y, freq_hint=2.7)
    fit = fit_sinusoid(x, scale * y, freq_hint=2.7)
    assert fit.converged and fit.flags == ref.flags == ()
    assert fit.visibility == pytest.approx(ref.visibility, rel=1e-12)
    assert fit.frequency == pytest.approx(ref.frequency, rel=1e-12)
    assert fit.offset == pytest.approx(scale * ref.offset, rel=1e-12)
    assert fit.amplitude == pytest.approx(scale * ref.amplitude, rel=1e-12)


@pytest.mark.parametrize("exponent", [-1000, -700, -50, 3, 50, 700, 1000])
def test_fit_of_a_power_of_two_scaled_scan_is_the_same_fit_scaled(exponent):
    # y is fitted divided by a power of two, so any power-of-two scale,
    # also one whose squares leave the float range, gives the same bits
    x, y = _synth()
    y = y + np.random.default_rng(5).normal(0.0, 0.01, y.size)
    ref = fit_sinusoid(x, y, freq_hint=2.7)
    scale = 2.0**exponent
    fit = fit_sinusoid(x, scale * y, freq_hint=2.7)
    assert (fit.offset, fit.amplitude, fit.residual_rms) == (
        scale * ref.offset, scale * ref.amplitude, scale * ref.residual_rms
    )
    assert (fit.frequency, fit.phase, fit.visibility, fit.converged, fit.flags) == (
        ref.frequency, ref.phase, ref.visibility, ref.converged, ref.flags
    )


def test_fit_flags_frequency_far_from_hint():
    x, y = _synth(f=2.7)
    fit = fit_sinusoid(x, y, freq_hint=3.6)
    assert "frequency_far_from_hint" in fit.flags
    assert abs(fit.frequency - 2.7) <= 1e-6


def test_fit_flags_zero_offset():
    x = np.linspace(0.0, 10.0, 64)
    y = 0.9 * np.cos(2.7 * x)
    fit = fit_sinusoid(x, y, freq_hint=2.7)
    assert "zero_offset" in fit.flags
    assert fit.visibility == 0.0
    assert abs(fit.amplitude - 0.9) <= 1e-8


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
        fit.offset, fit.amplitude, fit.frequency,
        fit.phase, fit.visibility, fit.residual_rms,
    )
    assert all(map(math.isfinite, numbers)) or "not_converged" in fit.flags


def test_fit_handles_noisy_fringe():
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 12.0, 120)
    y = 2.0 + 0.8 * np.cos(3.1 * x + 0.2) + rng.normal(0.0, 0.01, x.size)
    fit = fit_sinusoid(x, y, freq_hint=3.1)
    assert fit.converged
    assert abs(fit.frequency - 3.1) <= 0.01
    assert abs(fit.visibility - 0.4) <= 0.01


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
    assert fit.converged
    assert abs(fit.visibility - 1.0) <= 1e-6


def test_fringe_fit_visibility_half_pi_area():
    fit = _fit_dense_scan(math.pi / 2.0)
    assert fit.converged
    law = ramsey_visibility((math.pi / 2.0) / 2000e-9, 2000e-9)
    assert abs(fit.visibility - law) <= 1e-4


def test_remapping_scan_keeps_bin_one_at_half():
    times = tuple(np.linspace(0.0, 160e-9, 81))
    table = rabi_scan(times, omega_mu2=mhz(12.5), t_mu1=20e-9, detuning2=0.0)
    p1 = table[:, 1]
    assert np.abs(p1 - 0.5).max() <= 1e-9
    fit = fit_sinusoid(table[:, 0], table[:, 2], freq_hint=mhz(12.5))
    assert fit.converged
    period = 2.0 * math.pi / fit.frequency
    assert abs(period - 80e-9) <= 0.001 * 80e-9
