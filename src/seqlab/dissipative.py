"""Open-system evolution of the qutrit under a Lindblad master equation.

The density matrix lives on four levels: R1, R2, R3 and a trace-conserving
loss level that collects decayed population.  Two channel families act on
each Rydberg level alpha:

    decay:     L = sqrt(gamma_decay_alpha) |loss><R_alpha|
    dephasing: L = sqrt(gamma_deph_alpha)  |R_alpha><R_alpha|

as :func:`collapse_operators` builds them, and the equation of motion is

    drho/dt = -i [H, rho] + sum_L ( L rho L^+ - (L^+ L rho + rho L^+ L) / 2 ).

Drive and wait segments give a piecewise-constant H: the 3x3 H of
:func:`seqlab.qcore.segment_hamiltonian`, the same generator the closed
backends propagate, embedded in the 4x4 space (the loss level is dark).
Each segment is propagated exactly: rho is flattened row-major into a
16-vector, the equation becomes d vec(rho)/dt = Lv vec(rho) with the
constant 16x16 Liouvillian Lv of :func:`liouvillian`, and the segment
map is exp(Lv t), built by :func:`liouville_propagator`.  With a rate
set, Lv is not Hermitian and the map is :func:`expm` of the whole
Liouvillian.  With none, Lv = -i (H kron I - I kron H^T) and the map is
exactly U kron conj(U), with U = exp(-i H t) from
:func:`seqlab.qcore.hermitian_propagator` in the segment's blocks, the
closed forms of the closed spaces: no Pade step and no squarings.  numpy
only: scipy would double the memory and start-up of every CLI call.

Every sequence starts from the stored excitation, rho = |R1><R1|
(:func:`stored_excitation`), and everything works on stacks:
:func:`evolve_master` takes one sequence, a tuple of segments that may
stand for stacks of pulses (a detuning scan), walks it with
:func:`seqlab.qcore.propagate` (one map stack for each distinct segment:
one :func:`expm` call, with a scaling exponent per matrix, or one
U kron conj(U)), and checks the states of the whole stack after each
segment with one :func:`_validate_density` call.  The rates come from
the run config's ``dissipation`` section, which :func:`evolve_master`
takes as is.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DissipationSection
from .qcore import Segment, hermitian_propagator, propagate

LOSS_INDEX = 3

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8


class NumericError(RuntimeError):
    """Propagation failed: non-finite state or a positivity/trace violation."""


def collapse_operators(dissipation: DissipationSection) -> list[np.ndarray]:
    """The 4x4 collapse operators of the non-zero rates, level by level
    from R1, decay |loss><R_alpha| before dephasing |R_alpha><R_alpha|:
    the order in which :func:`liouvillian` sums their dissipators."""
    ops = []
    for alpha in range(3):
        for row, kind in ((LOSS_INDEX, "decay"), (alpha, "deph")):
            rate = getattr(dissipation, f"gamma_{kind}_{alpha + 1}")
            if rate > 0:
                L = np.zeros((4, 4), dtype=complex)
                L[row, alpha] = math.sqrt(rate)
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
# SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  They are divided by b_1, so
# that b_0 = 2: the Pade step then solves with a power of two on the
# diagonal, and the exponential of a zero matrix is exactly the identity
# (b_0 = 1 would do that too, but would halve a subnormal generator to 0).
_PADE13 = tuple(b / 32382376266240000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
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
        [math.ceil(math.log2(x / _THETA13)) if x > _THETA13 else 0
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


def liouville_propagator(collapse_ops: list[np.ndarray]):
    """The Liouville-space propagator(H, t, blocks) that
    :func:`seqlab.qcore.segment_maps` takes, under the collapse operators
    collapse_ops: the (..., 16, 16) map of row-major vec(rho) over a
    segment, whose (..., 3, 3) H is embedded with a dark loss level.

    With collapse operators, the map is :func:`expm` of the whole
    Liouvillian, of a drive or wait segment: no readout reaches it.
    Without them, Lv = -i (H kron I - I kron H^T) and the map is exactly
    U kron conj(U), as rho -> U rho U^+, with U the
    :func:`seqlab.qcore.hermitian_propagator` of H in the segment's blocks
    and the loss level as a block of its own: closed forms, no squarings;
    a readout's map is the 0/1 projector that zeroes R1's row and column.
    """
    n = LOSS_INDEX + 1

    def propagator(h3: np.ndarray, t, blocks) -> np.ndarray:
        H = np.zeros(h3.shape[:-2] + (n, n), dtype=complex)  # the loss level is dark
        H[..., :3, :3] = h3
        if collapse_ops:
            # the Liouvillian is exponentiated whole: on the short stacks of
            # a scan, a call per block costs more than it saves
            return expm(liouvillian(H, collapse_ops) * np.asarray(t)[..., None, None])
        U = hermitian_propagator(H, t, blocks + ((LOSS_INDEX,),))
        return _kron(U, U.conj())

    return propagator


def evolve_master(sequence: tuple[Segment, ...], dissipation: DissipationSection) -> np.ndarray:
    """The density matrix after a sequence of drive/wait segments under the
    master equation, starting from the stored excitation; |R1><R1| for an
    empty sequence.

    The segments may stand for stacks of pulses; the result is then the
    (..., 4, 4) stack over their broadcast shape.  The states come from
    :func:`seqlab.qcore.propagate` with the :func:`liouville_propagator` of
    the rates' collapse operators: one map per distinct segment, an
    :func:`expm` call if a rate is set and U kron conj(U) if none is, and
    the whole stack is propagated together.

    The density-matrix invariants are checked after every segment, on the
    whole stack at once; a violation beyond tolerance aborts with a
    NumericError diagnostic naming its time.
    """
    propagator = liouville_propagator(collapse_operators(dissipation))
    rho = stored_excitation()
    t = 0.0
    for seg, vec in zip(sequence, propagate(sequence, propagator)):
        rho = vec.reshape(vec.shape[:-1] + rho.shape[-2:])
        t += seg.duration
        try:
            _validate_density(rho)
        except NumericError as err:
            raise NumericError(f"at t={t:.3e} s: {err}") from None
    return rho
