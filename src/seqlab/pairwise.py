"""Double-excitation dynamics in the symmetric two-particle manifold.

When a shot stores two collective excitations, the relevant Hilbert space
is the bosonic-symmetric subspace of two qutrits: six configurations
(11), (12), (13), (22), (23), (33), ordered lexicographically.  A
single-particle Hamiltonian h lifts to this space with the usual bosonic
enhancement, e.g. <11| H |12> = sqrt(2) h[0][1], which follows from
H = sum_xy h[x][y] b_x^+ b_y on occupation states.  Diagonal van der
Waals shifts V[alpha][beta] are added per configuration.

The stored pair (11) sets the zero of interaction energy: a uniform
shift of every configuration is a global phase with no observable
consequence, so the scalar convenience constructor applies v_int to every
configuration except (11).  That is the minimal model for the observed
fringe phase offset: relative level shifts of the microwave-accessed
configurations against the storage configuration.

The pair space has no generator or propagator of its own:
:func:`pair_hamiltonian` lifts qutrit Hamiltonians and adds the shifts, and
:func:`seqlab.qcore.hermitian_propagator` propagates the result.  The lift
is linear, a contraction with a constant (3, 3, 6, 6) tensor built once
from the bosonic rule, so it lifts whole stacks: the mixture scan walks
the same stacked Ramsey sequence as the unitary backend, with the lift in
its propagator (:func:`seqlab.ramsey.ramsey_amplitudes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ramsey import FringeScan, RamseyScanConfig, fringe_scan, ramsey_amplitudes

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


_LIFT = _lift_tensor()


@dataclass(frozen=True)
class InteractionParams:
    """Pairwise interaction shifts (rad/s) and the double-excitation rate.

    shift is a symmetric 3x3 matrix: shift[a][b] is the diagonal energy of
    configuration (a, b).  p2 is the probability that a shot holds two
    excitations instead of one.
    """

    shift: tuple[tuple[float, float, float], ...] = (
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
    )
    p2: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.shift, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("shift must be 3x3")
        if not np.isfinite(m).all():
            raise ValueError("shift entries must be finite")
        if np.abs(m - m.T).max() > 0.0:
            raise ValueError("shift must be symmetric")
        if not (0.0 <= self.p2 < 1.0):
            raise ValueError("p2 must lie in [0, 1)")

    @classmethod
    def from_scalar(cls, v_int: float, p2: float = 0.0) -> "InteractionParams":
        """Single-scalar model: v_int on every configuration except the
        stored pair (11), whose shift defines the energy zero."""
        m = [[v_int] * 3 for _ in range(3)]
        m[0][0] = 0.0
        return cls(tuple(tuple(row) for row in m), p2)

    def config_shifts(self) -> np.ndarray:
        return np.array([self.shift[a][b] for a, b in PAIR_CONFIGS], dtype=float)


def lift_single_particle(h3: np.ndarray) -> np.ndarray:
    """Lift a single-particle operator, or a (..., 3, 3) stack of them, to
    the 6-dim symmetric manifold: H = sum_xy h3[x, y] b_x^+ b_y."""
    return np.einsum("...xy,xyij->...ij", h3, _LIFT)


def pair_hamiltonian(h3: np.ndarray, interactions: InteractionParams) -> np.ndarray:
    """Pair Hamiltonian of a (..., 3, 3) stack of single-excitation
    Hamiltonians, e.g. from :func:`seqlab.qcore.segment_hamiltonian`: the
    symmetric lift plus the diagonal interaction shifts, which persist
    while the drives are off."""
    return lift_single_particle(h3) + np.diag(interactions.config_shifts())


def mixture_fringe_scan(
    config: RamseyScanConfig, interactions: InteractionParams
) -> FringeScan:
    """Detuning scan of the single/double mixture.

    I(delta) = (1 - p2) I_single + p2 I_double, where I_single is the
    ordinary scan with config's backend and I_double is I0 times the
    expected number of R1 excitations after the pair propagates through
    the same sequence, over the whole grid in stacked calls.  With
    p2 = 0 this reduces to the single scan elementwise; the double branch
    is bounded by 2 I0, so the mixture is bounded by (1 - p2) I0 + 2 p2 I0.
    """
    single = fringe_scan(config)
    p2 = interactions.p2
    if p2 == 0.0:
        return FringeScan(single.deltas, single.intensities, single.I0, "mixture")
    stored_pair = np.eye(len(PAIR_CONFIGS), dtype=complex)[0]  # configuration (11)
    amps = ramsey_amplitudes(
        config, stored_pair, partial(pair_hamiltonian, interactions=interactions)
    )
    doubles = config.I0 * (np.abs(amps) ** 2 @ _R1_OCC)
    mixed = (1.0 - p2) * np.array(single.intensities) + p2 * doubles
    return FringeScan(single.deltas, tuple(mixed.tolist()), single.I0, "mixture")

