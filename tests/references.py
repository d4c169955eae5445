"""Reference computations that tests compare the library against: the
sequence unitary, the plain walk of a sequence's maps, the master
equation in the whole 16-dim Liouville space of the 4x4 density matrix
and the 4x4 matrix of a state of the library's 10-dim walk, the
closed-form visibility law and its centre-point extraction from a scan,
the read-out as a density-matrix walk by hand and the canonical
three-bin read-out chain; the coherent sampler as an array draw per
count over every row, the arm pmf as a list of Python floats; and the
scan section that most tests build."""

import math

import numpy as np

from seqlab.config import ReadoutSection, ScanSection
from seqlab.dissipative import expm
from seqlab.photostats import readout_from_sequence
from seqlab.qcore import (
    DriveSegment,
    Readout,
    hermitian_propagator,
    segment_maps,
)
from seqlab.ramsey import symmetric_detuning_grid

DEFAULT_PI_PULSE_S = 40e-9  # pi pulse at rabi = 2*pi*12.5 MHz
LOSS_INDEX = 3  # the loss level of the 4x4 density matrix over (R1, R2, R3, loss)


def sequence_unitary(segments) -> np.ndarray:
    """Ordered product of segment propagators (last segment applied last),
    shape (..., 3, 3) over the segments' stacks; column 0 is the state
    after the segments from the stored excitation R1."""
    U = np.eye(3, dtype=complex)
    for step in segment_maps(segments, hermitian_propagator):
        U = step @ U
    return U


def propagate(segments, propagator) -> list[np.ndarray]:
    """The state after each segment, from basis state 0 of the space, shape
    (..., d) over the stacks so far; [] for no segments: the walk of the
    segment_maps that checked_walk checks, unchecked."""
    states = []
    for step in segment_maps(segments, propagator):
        states.append(step[..., :1] if not states else step @ states[-1])
    return [state[..., 0] for state in states]


def collapse_operators(dissipation) -> list[np.ndarray]:
    """The 4x4 collapse operators over (R1, R2, R3, loss) of the non-zero
    rates of a dissipation section, level by level from R1: decay
    sqrt(gamma_decay) |loss><R_alpha| before dephasing
    sqrt(gamma_deph) |R_alpha><R_alpha|."""
    ops = []
    for alpha in range(3):
        for row, kind in ((LOSS_INDEX, "decay"), (alpha, "deph")):
            rate = getattr(dissipation, f"gamma_{kind}_{alpha + 1}")
            if rate > 0:
                L = np.zeros((4, 4), dtype=complex)
                L[row, alpha] = math.sqrt(rate)
                ops.append(L)
    return ops


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes of (..., n, n) stacks."""
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (k.shape[-4] * k.shape[-3], k.shape[-2] * k.shape[-1]))


def liouvillian_16(H: np.ndarray, collapse_ops) -> np.ndarray:
    """Generator of drho/dt = -i[H, rho] + sum_C D[C] rho on row-major
    vec(rho), shape (..., n^2, n^2) for a (..., n, n) H, by
    vec(A X B) = (A kron B^T) vec(X) on each term."""
    eye = np.eye(H.shape[-1])
    L = -1j * (_kron(H, eye) - _kron(eye, H.swapaxes(-1, -2)))
    for C in collapse_ops:
        CdC = C.conj().T @ C
        L += _kron(C, C.conj()) - 0.5 * (_kron(CdC, eye) + _kron(eye, CdC.T))
    return L


def embed_hamiltonian(h3: np.ndarray) -> np.ndarray:
    """A (..., 3, 3) H over (R1, R2, R3) as a (..., 4, 4) H with a dark
    loss level."""
    H = np.zeros(h3.shape[:-2] + (4, 4), dtype=complex)
    H[..., :3, :3] = h3
    return H


def liouville_propagator_16(dissipation):
    """exp(Lv t) on vec(rho) over (R1, R2, R3, loss) for a segment's
    (..., 3, 3) H, with the 16x16 Liouvillian of the collapse operators:
    the propagator that the master equation once walked."""
    ops = collapse_operators(dissipation)

    def propagator(h3, t, _blocks):
        L = liouvillian_16(embed_hamiltonian(h3), ops)
        return expm(L * np.asarray(t)[..., None, None])

    return propagator


def master_walk_16(sequence, dissipation) -> np.ndarray:
    """The (..., 4, 4) density matrix after a non-empty sequence of drive
    and wait segments from the stored excitation, walked in the whole
    16-dim Liouville space."""
    vec = propagate(sequence, liouville_propagator_16(dissipation))[-1]
    return vec.reshape(vec.shape[:-1] + (4, 4))


def density_matrix(state: np.ndarray) -> np.ndarray:
    """The (..., 4, 4) density matrix over (R1, R2, R3, loss) of a (..., 10)
    stack of states (vec rho_R, rho_44), as evolve_master gives them: the
    loss coherences are zero."""
    rho = np.zeros(state.shape[:-1] + (4, 4), dtype=complex)
    rho[..., :3, :3] = state[..., :9].reshape(state.shape[:-1] + (3, 3))
    rho[..., LOSS_INDEX, LOSS_INDEX] = state[..., 9]
    return rho


def ramsey_visibility(omega_mu2: float, t_mu2: float) -> float:
    """Fringe visibility |2c / (1 + c^2)|, c = cos(omega_mu2 t_mu2 / 2)."""
    c = math.cos(0.5 * omega_mu2 * t_mu2)
    return abs(2.0 * c / (1.0 + c * c))


def extract_visibility(scan, intensities) -> float:
    """On-resonance visibility of a scan over the grid of a scan section,
    which holds an exact 0.0: the centre intensity I(0)/I0 = (1 - K)^2 / 4
    fixes K, the opposing extremum is (1 + K)^2 / 4, and the visibility is
    (max - min) / (max + min) of the pair."""
    grid = symmetric_detuning_grid(scan.span, scan.points)
    (zero,) = np.flatnonzero(grid == 0.0)
    center = float(intensities[zero]) / scan.i0
    r = math.sqrt(min(max(center, 0.0), 1.0))
    K = 1.0 - 2.0 * r
    opposite = 0.25 * (1.0 + K) ** 2
    return abs(opposite - center) / (center + opposite)


def readout_by_hand(sequence, readout: ReadoutSection) -> tuple[float, float, float]:
    """(p1, p2, p3) of a sequence with Readout segments, as
    readout_from_sequence defines them, by a walk of its own: the 4x4
    density matrix from the stored excitation is conjugated by each
    drive/wait segment's 3x3 map, lifted with the loss level untouched,
    and each Readout(b) records rho_00 times eta_<b> (times the inter-bin
    dephasing factor) and then zeroes row 0 and column 0."""
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)  # the stored excitation
    drives = [s for s in sequence if not isinstance(s, Readout)]
    steps = iter(segment_maps(drives, hermitian_propagator))
    U = np.eye(4, dtype=complex)
    bins = [0.0, 0.0, 0.0]
    clock_running = False
    elapsed = 0.0
    for seg in sequence:
        if isinstance(seg, Readout):
            factor = getattr(readout, f"eta_{seg.bin}")
            if clock_running and readout.deph > 0:
                factor *= math.exp(-readout.deph * elapsed)
            bins[seg.bin - 1] = max(float(rho[0, 0].real), 0.0) * factor
            rho[0, :] = 0.0
            rho[:, 0] = 0.0
            clock_running = True
        else:
            U[:3, :3] = next(steps)
            rho = U @ rho @ U.conj().T
            if clock_running:
                elapsed += seg.duration
    return tuple(bins)


def readout_populations(prep, deph: float = 0.0) -> tuple[float, float, float]:
    """(p1, p2, p3) of the three-bin read-out with ideal retrieval of the
    state that the segments prep prepare, at the inter-bin dephasing rate
    deph: the canonical remapping chain of DEFAULT_PI_PULSE_S pi pulses on
    both fields follows prep."""
    t = DEFAULT_PI_PULSE_S
    pi_mu1 = DriveSegment("mu1", rabi=math.pi / t, duration=t)
    pi_mu2 = DriveSegment("mu2", rabi=math.pi / t, duration=t)
    chain = (Readout(1), pi_mu1, Readout(2), pi_mu2, pi_mu1, Readout(3))
    return readout_from_sequence((*prep, *chain), ReadoutSection(deph=deph))


def histogram_rows(rng, totals, pmf: np.ndarray):
    """(row, k, freq) of one Multinomial(totals[row], pmf) histogram per
    row, by conditional binomials: one array draw per count over the rows
    not yet finished, each cell recorded with its count in a full array,
    and a lexsort at the end."""
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


def arm_pmf(mean: float, dark_rate: float) -> np.ndarray:
    """One arm's click pmf, Poisson(mean) photons in log space plus a
    Bernoulli(dark_rate) dark click, term by term in Python floats."""
    if mean == 0.0:
        photons = np.ones(1)
    else:
        log_mean = math.log(mean)
        top = int(mean + 40.0 * math.sqrt(mean)) + 200
        photons = np.exp(
            [k * log_mean - mean - math.lgamma(k + 1) for k in range(top)]
        )
    return np.convolve(photons, (1.0 - dark_rate, dark_rate))


def sample_coherent_shots(mean_photons, n_trials, seed, dark_rate):
    """The coherent source's (nA, nB, freq) histogram from
    :func:`histogram_rows` and :func:`arm_pmf`: nA's marginal, then nB
    within each nA row."""
    rng = np.random.default_rng(seed)
    pmf = arm_pmf(0.5 * mean_photons, dark_rate)
    _, na, freq_a = histogram_rows(rng, [n_trials], pmf)
    row, nb, freq = histogram_rows(rng, freq_a, pmf)
    return na[row], nb, freq


def scan_config(t_mu1, span, points, omega_mu2, t_mu2, backend="analytic", i0=1.0,
                gap=0.0) -> ScanSection:
    """A ScanSection over the symmetric grid of span and points, with the
    config's default I0 and gap and the analytic backend unless given."""
    return ScanSection(
        t_mu1=t_mu1, t_mu2=t_mu2, omega_mu2=omega_mu2, span=span, points=points,
        i0=i0, gap=gap, backend=backend,
    )
