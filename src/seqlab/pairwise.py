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
against the storage configuration.

The pair space has no generator or propagator of its own:
:func:`pair_hamiltonian` lifts qutrit Hamiltonians and adds the shifts, and
:func:`seqlab.qcore.hermitian_propagator` propagates the result.  The lift
is linear, one matmul with a constant (9, 36) matrix built once from the
bosonic rule, so it lifts whole stacks: the mixture scan walks each block's
stacked Ramsey sequence once for the single branch, as the unitary or
Lindblad backend does, and once with the lift in its propagator
(:func:`seqlab.ramsey.sequence_amplitudes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ramsey import (
    Backend,
    RamseyScanConfig,
    block_intensities,
    block_sequences,
    fringe_scan,
    sequence_amplitudes,
)

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


@dataclass(frozen=True)
class InteractionParams:
    """Pairwise interaction shift (rad/s) and the double-excitation rate.

    v_int is the diagonal energy of every configuration except the stored
    pair (11), whose shift defines the energy zero.  p2 is the probability
    that a shot holds two excitations instead of one.
    """

    v_int: float = 0.0
    p2: float = 0.0


def lift_single_particle(h3: np.ndarray) -> np.ndarray:
    """Lift a single-particle operator, or a (..., 3, 3) stack of them, to
    the 6-dim symmetric manifold: H = sum_xy h3[x, y] b_x^+ b_y."""
    return (h3.reshape(-1, 9) @ _LIFT).reshape(h3.shape[:-2] + (6, 6))


def pair_hamiltonian(h3: np.ndarray, interactions: InteractionParams) -> np.ndarray:
    """Pair Hamiltonian of a (..., 3, 3) stack of single-excitation
    Hamiltonians, e.g. from :func:`seqlab.qcore.segment_hamiltonian`: the
    symmetric lift plus the diagonal interaction shifts, which persist
    while the drives are off."""
    shifts = np.full(len(PAIR_CONFIGS), interactions.v_int, dtype=float)
    shifts[0] = 0.0  # the stored pair, a literal zero whatever the sign of v_int
    return lift_single_particle(h3) + np.diag(shifts)


def mixture_fringe_scan(
    config: RamseyScanConfig, interactions: InteractionParams
) -> np.ndarray:
    """Detuning scan of the single/double mixture: a float64 array of
    intensities, one per config.deltas.

    I(delta) = (1 - p2) I_single + p2 I_double, where I_single is the
    ordinary scan with config's backend and I_double is I0 times the
    expected number of R1 excitations after the pair propagates through
    the same sequence, over the whole grid in stacked calls; both branches
    propagate each block's sequence, built once.  With
    p2 = 0 this is the single scan itself; the double branch is bounded
    by 2 I0, so the mixture is bounded by (1 - p2) I0 + 2 p2 I0.  The double
    branch is closed, so p2 > 0 with LINDBLAD and a non-zero dissipation
    rate raises ValueError rather than damp the single branch alone.
    """
    p2 = interactions.p2
    if p2 == 0.0:
        return fringe_scan(config)
    rates = config.dissipation is not None and config.dissipation.collapse_operators()
    if config.backend is Backend.LINDBLAD and rates:
        raise ValueError(
            f"interaction.p2 = {p2!r} with non-zero dissipation rates: the lindblad "
            "backend has no dissipative model of the double-excitation branch"
        )
    analytic = config.backend is Backend.ANALYTIC
    single = fringe_scan(config) if analytic else np.empty(len(config.deltas))
    # from the stored pair (11), configuration 0
    amps = np.empty((len(config.deltas), len(PAIR_CONFIGS)), dtype=complex)
    lift = partial(pair_hamiltonian, interactions=interactions)
    for block, seq in block_sequences(config):
        if not analytic:
            single[block] = block_intensities(config, seq)
        amps[block] = sequence_amplitudes(seq, lift)
    doubles = config.I0 * (np.abs(amps) ** 2 @ _R1_OCC)
    return (1.0 - p2) * single + p2 * doubles
