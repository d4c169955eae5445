"""Double-excitation dynamics in the symmetric two-particle manifold.

When a shot stores two collective excitations, the relevant Hilbert space
is the bosonic-symmetric subspace of two qutrits: six configurations
(11), (12), (13), (22), (23), (33), ordered lexicographically.  A
single-particle Hamiltonian h lifts to this space with the usual bosonic
enhancement, e.g. <11| H |12> = sqrt(2) h[0][1], which follows from
H = sum_xy h[x][y] b_x^+ b_y on occupation states.  A diagonal van der
Waals shift is added per configuration.

The stored pair (11) sets the zero of interaction energy: a uniform
shift of every configuration is a global phase with no observable
consequence, so the one shift v_int applies to every configuration
except (11).  That is the minimal model for the observed fringe phase
offset: relative level shifts of the microwave-accessed configurations
against the storage configuration.  v_int and p2 come from the run
config's ``interaction`` section, which the functions here take as is.

The pair space has no generator or propagator of its own:
:func:`pair_hamiltonian` lifts qutrit Hamiltonians and adds the shifts,
:func:`pair_blocks` lifts the qutrit's blocks of levels to blocks of
configurations, and :func:`seqlab.qcore.hermitian_propagator` propagates
the result block by block.  Under mu1 the blocks are {(11), (12), (22)},
{(13), (23)} and {(33)}, under mu2 {(11)}, {(12), (13)} and {(22), (23),
(33)}, and a wait's are the six configurations alone: phases, the 2x2
closed form, and one batched eigendecomposition for the 3x3 blocks.  The
lift is linear, one matmul with a constant (9, 36) matrix built once from
the bosonic rule, so it lifts whole stacks: the mixture scan takes its
single branch from :func:`seqlab.ramsey.fringe_scan` and walks the blocks
of stacked Ramsey sequences (:func:`seqlab.ramsey.block_sequences`) only
for its double branch, by a :func:`seqlab.qcore.checked_walk` with a pair
propagator that lifts each segment's Hamiltonian and blocks, its norm
checked by :func:`seqlab.qcore.check_norm` as the single branch's is.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import DissipationSection, InteractionSection, ScanSection
from .dissipative import channel_rates
from .qcore import check_norm, checked_walk, hermitian_propagator
from .ramsey import block_sequences, fringe_scan

# symmetric pair configurations (level indices, 0 = R1), lexicographic
PAIR_CONFIGS: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
)


def _occupations(config: tuple[int, int]) -> tuple[int, int, int]:
    n = [0, 0, 0]
    for level in config:
        n[level] += 1
    return tuple(n)


_OCC = tuple(_occupations(c) for c in PAIR_CONFIGS)
# number of excitations in R1 for each configuration
_R1_OCC = np.array([occ[0] for occ in _OCC], dtype=float)


def _lift_tensor() -> np.ndarray:
    """T[x, y] is b_x^+ b_y on the six configurations, from the bosonic rule
    <m| b_x^+ b_y |n> = sqrt(n_y (n_x - d_xy + 1)) for m = n - e_y + e_x."""
    index = {occ: i for i, occ in enumerate(_OCC)}
    T = np.zeros((3, 3, 6, 6))
    for j, n in enumerate(_OCC):
        for y in range(3):
            if n[y] == 0:
                continue
            for x in range(3):
                m = list(n)
                m[y] -= 1
                factor = math.sqrt(n[y] * (m[x] + 1))
                m[x] += 1
                T[x, y, index[tuple(m)], j] += factor
    return T


# row 3x + y is T[x, y] flattened: the lift of a flattened h3 is one matmul.
# Every entry of a lift sums at most two non-zero terms, and a term with a
# sqrt(2) factor stands alone, so no summation order can change a rounding.
_LIFT = _lift_tensor().reshape(9, 36)


def lift_single_particle(h3: np.ndarray) -> np.ndarray:
    """Lift a single-particle operator, or a (..., 3, 3) stack of them, to
    the 6-dim symmetric manifold: H = sum_xy h3[x, y] b_x^+ b_y."""
    return (h3.reshape(-1, 9) @ _LIFT).reshape(h3.shape[:-2] + (6, 6))


@functools.cache
def pair_blocks(blocks: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The blocks of configurations that a lifted Hamiltonian couples, from
    the blocks of levels of its qutrit one (:func:`seqlab.qcore.segment_blocks`).
    The lift moves one excitation within its block, so two configurations
    are in one block when their levels fall in the same blocks; the
    interaction shifts are diagonal and couple nothing.  The blocks are a
    drive's or a wait's: the pair space never sees a readout."""
    block_of = {level: b for b, block in enumerate(blocks) for level in block}
    found = {}
    for i, config in enumerate(PAIR_CONFIGS):
        found.setdefault(tuple(sorted(block_of[level] for level in config)), []).append(i)
    return tuple(map(tuple, found.values()))


def pair_hamiltonian(h3: np.ndarray, interaction: InteractionSection) -> np.ndarray:
    """Pair Hamiltonian of a (..., 3, 3) stack of single-excitation
    Hamiltonians, e.g. from :func:`seqlab.qcore.segment_hamiltonian`: the
    symmetric lift plus the diagonal interaction shifts, which persist
    while the drives are off."""
    shifts = np.full(len(PAIR_CONFIGS), interaction.v_int, dtype=float)
    shifts[0] = 0.0  # the stored pair, a literal zero whatever the sign of v_int
    return lift_single_particle(h3) + np.diag(shifts)


def mixture_fringe_scan(
    scan: ScanSection, dissipation: DissipationSection, interaction: InteractionSection
) -> np.ndarray:
    """Detuning scan of the single/double mixture: a float64 array of
    intensities, one per point of the scan's grid.

    I(delta) = (1 - p2) I_single + p2 I_double, where I_single is
    :func:`seqlab.ramsey.fringe_scan` with the scan's backend and I_double
    is I0 times the expected number of R1 excitations after the pair
    propagates through the same sequence, one stacked call per block of
    :func:`seqlab.ramsey.block_sequences`, norm-checked as the single
    branch is.  With p2 = 0 this is the single scan itself; the double
    branch is bounded by 2 I0, so the mixture is bounded by
    (1 - p2) I0 + 2 p2 I0.  The double branch is closed, so p2 > 0 with
    the lindblad backend and a non-zero dissipation rate raises
    ValueError rather than damp the single branch alone.
    """
    p2 = interaction.p2
    if p2 == 0.0:
        return fringe_scan(scan, dissipation)
    if scan.backend == "lindblad" and channel_rates(dissipation).any():
        raise ValueError(
            f"interaction.p2 = {p2!r} with non-zero dissipation rates: the lindblad "
            "backend has no dissipative model of the double-excitation branch"
        )

    def propagator(h3: np.ndarray, t, blocks) -> np.ndarray:
        return hermitian_propagator(pair_hamiltonian(h3, interaction), t, pair_blocks(blocks))

    # from the stored pair (11), configuration 0
    amps = np.concatenate([checked_walk(s, propagator, check_norm)
                           for s in block_sequences(scan)])
    doubles = scan.i0 * (np.abs(amps) ** 2 @ _R1_OCC)
    return (1.0 - p2) * fringe_scan(scan, dissipation) + p2 * doubles
