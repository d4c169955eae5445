"""Open-system evolution of the qutrit under a Lindblad master equation.

The density matrix lives on four levels: R1, R2, R3 and a trace-conserving
loss level that collects decayed population.  Two channel families act on
each Rydberg level alpha:

    decay:     L = sqrt(gamma_decay[alpha]) |loss><R_alpha|
    dephasing: L = sqrt(gamma_deph[alpha])  |R_alpha><R_alpha|

and the equation of motion is

    drho/dt = -i [H, rho] + sum_L ( L rho L^+ - (L^+ L rho + rho L^+ L) / 2 ).

Drive and wait segments give a piecewise-constant H: the 3x3 H of
:func:`seqlab.qcore.segment_hamiltonian`, the same generator the closed
backends propagate, embedded in the 4x4 space (the loss level is dark).
Each segment is propagated exactly: rho is flattened row-major into a
16-vector, the equation becomes d vec(rho)/dt = Lv vec(rho) with the
constant 16x16 Liouvillian Lv of :func:`liouvillian`, and the segment
map is exp(Lv t), evaluated by :func:`expm`.  Lv is not Hermitian, so
this is the propagator of the open system, as
:func:`seqlab.qcore.hermitian_propagator` is of the closed one.  numpy
only: scipy would double the memory and start-up of every CLI call.

Every sequence starts from the stored excitation, rho = |R1><R1|
(:func:`stored_excitation`), and everything works on stacks:
:func:`evolve_master` takes one sequence, whose segments may stand for
stacks of pulses (a detuning scan), gets the maps of all its distinct
segments from one :func:`seqlab.qcore.segment_maps` call (one
(n, 16, 16) Liouvillian stack, one :func:`expm` call with a scaling
exponent per matrix), and checks the states of the whole stack after
each segment with one :func:`_validate_density` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import PulseSequence, segment_maps

LOSS_INDEX = 3

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8


class NumericError(RuntimeError):
    """Propagation failed: non-finite state or a positivity/trace violation."""


@dataclass(frozen=True)
class DissipationParams:
    """Per-level rates in 1/s; index 0 is R1."""

    gamma_decay: tuple[float, float, float] = (0.0, 0.0, 0.0)
    gamma_deph: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for g in (*self.gamma_decay, *self.gamma_deph):
            if not math.isfinite(g) or g < 0:
                raise ValueError("rates must be finite and non-negative")

    def collapse_operators(self) -> list[np.ndarray]:
        ops = []
        for alpha in range(3):
            if self.gamma_decay[alpha] > 0:
                L = np.zeros((4, 4), dtype=complex)
                L[LOSS_INDEX, alpha] = math.sqrt(self.gamma_decay[alpha])
                ops.append(L)
            if self.gamma_deph[alpha] > 0:
                L = np.zeros((4, 4), dtype=complex)
                L[alpha, alpha] = math.sqrt(self.gamma_deph[alpha])
                ops.append(L)
        return ops


def stored_excitation() -> np.ndarray:
    """|R1><R1| over (R1, R2, R3, loss), the state every sequence starts
    from, as a new complex 4x4 array."""
    amps = np.zeros(LOSS_INDEX + 1, dtype=complex)
    amps[0] = 1.0
    return np.outer(amps, amps.conj())


def _validate_density(m: np.ndarray) -> None:
    """Raise NumericError if hermiticity, trace or positivity is violated
    by the 4x4 density matrix m or by any matrix of a (..., 4, 4) stack;
    the message quotes the worst value.  One batched eigvalsh call covers
    the whole stack."""
    if not np.isfinite(m).all():
        raise NumericError("density matrix has non-finite entries")
    m_dag = m.conj().swapaxes(-1, -2)
    herm = np.abs(m - m_dag).max()
    if herm > HERMITICITY_TOL:
        raise NumericError(f"hermiticity violated: max |rho - rho^+| = {herm:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).ravel()
    worst = np.abs(tr - 1.0).argmax()
    if abs(tr[worst] - 1.0) > TRACE_TOL:
        # repr: a drift beyond TRACE_TOL can round away in a short format
        raise NumericError(f"trace drifted to {float(tr[worst].real)!r}")
    lo = float(np.linalg.eigvalsh(0.5 * (m + m_dag)).min())
    if lo < -POSITIVITY_TOL:
        raise NumericError(f"positivity violated: min eigenvalue {lo:.3e}")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes of (..., n, n) stacks, by broadcast."""
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (k.shape[-4] * k.shape[-3], k.shape[-2] * k.shape[-1]))


def liouvillian(H: np.ndarray, collapse_ops: list[np.ndarray]) -> np.ndarray:
    """Generator of the master equation acting on row-major vec(rho), for
    an (n, n) H or a (..., n, n) stack of them; shape (..., n^2, n^2).

    Uses vec(A X B) = (A kron B^T) vec(X) (Havel, J. Math. Phys. 44, 534
    (2003)) on each term of -i[H, rho] + sum_C D[C] rho.  The dissipator
    does not depend on H and is built once for the whole stack.
    """
    eye = np.eye(H.shape[-1])
    L = -1j * (_kron(H, eye) - _kron(eye, H.swapaxes(-1, -2)))
    for C in collapse_ops:
        CdC = C.conj().T @ C
        L += _kron(C, C.conj()) - 0.5 * (_kron(CdC, eye) + _kron(eye, CdC.T))
    return L


# Pade-13 numerator coefficients b_0..b_13 and the 1-norm up to which the
# approximant is accurate to double precision without scaling (Higham,
# SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of an (n, n) matrix or a (..., n, n) stack, by
    Pade-13 scaling and squaring (Higham 2005).  Each matrix gets the
    scaling exponent of its own 1-norm, so it comes out as it would alone
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009))."""
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norms).all():
        raise NumericError("generator has non-finite entries")
    s = np.array(
        [max(0, math.ceil(math.log2(x / _THETA13))) if x > 0.0 else 0
         for x in norms.tolist()],
        dtype=int,
    )
    a = a / (2.0 ** s)[:, None, None]
    b = _PADE13
    eye = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r.reshape(shape)


def evolve_master(
    sequence: PulseSequence, params: DissipationParams | None = None
) -> np.ndarray:
    """The density matrix after a sequence under the master equation,
    starting from the stored excitation.

    The sequence's segments may stand for stacks of pulses; the result is
    then the (..., 4, 4) stack over their broadcast shape.  Each distinct
    segment's map comes from one :func:`seqlab.qcore.segment_maps` call,
    and the whole stack is propagated together.

    The density-matrix invariants are checked after every segment, on the
    whole stack at once; a violation beyond tolerance aborts with a
    NumericError diagnostic naming its time.
    """
    params = params or DissipationParams()
    n = LOSS_INDEX + 1
    ops = params.collapse_operators()

    def propagator(h3: np.ndarray, t: np.ndarray) -> np.ndarray:
        H = np.zeros((len(h3), n, n), dtype=complex)  # the loss level is dark
        H[:, :3, :3] = h3
        return expm(liouvillian(H, ops) * t[:, None, None])

    maps = segment_maps(sequence.segments, propagator)
    shape = np.broadcast_shapes(*(m.shape[:-2] for m in maps))
    vec = np.broadcast_to(stored_excitation().reshape(n * n, 1), shape + (n * n, 1))
    t = 0.0
    for seg, seg_map in zip(sequence.segments, maps):
        vec = seg_map @ vec
        t += seg.duration
        try:
            _validate_density(vec.reshape(shape + (n, n)))
        except NumericError as err:
            raise NumericError(f"at t={t:.3e} s: {err}") from None
    return vec.reshape(shape + (n, n))
