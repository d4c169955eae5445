"""Open-system evolution of the qutrit under a Lindblad master equation.

The density matrix lives on four levels: R1, R2, R3 and a trace-conserving
loss level that collects decayed population.  Two channel families act on
each Rydberg level a, at the rates g_a and p_a of the run config's
``dissipation`` section (:func:`channel_rates`):

    decay:     L = sqrt(g_a) |loss><R_a|
    dephasing: L = sqrt(p_a) |R_a><R_a|

in drho/dt = -i [H, rho] + sum_L ( L rho L^+ - (L^+ L rho + rho L^+ L) / 2 ).
Both are diagonal and the loss level is dark, so the six loss coherences
start at zero and nothing feeds them: the Rydberg block rho_R and the loss
population rho_44 form an invariant subspace (Breuer & Petruccione, The
Theory of Open Quantum Systems, ch. 3).  Entry rho_ab is damped at the
rate (g_a + g_b + p_a + p_b)/2 for a != b and g_a for a = b, and decay
feeds rho_44 at g_a rho_aa.  So the 10-vector (vec rho_R, rho_44), vec
row-major, obeys d/dt = Lv with the generator of :func:`liouvillian`

    Lv = [[ -i (H kron I - I kron H^T) - diag(rate),  0 ],
          [ g_a at columns 0, 4 and 8,                0 ]]

by vec(A X B) = (A kron B^T) vec(X) (Havel, J. Math. Phys. 44, 534
(2003)), with H the 3x3 of :func:`seqlab.qcore.segment_hamiltonian` that
the closed backends propagate.  :func:`evolve_master`, the rated walk,
walks one sequence from the stored excitation, |R1><R1|, with
:func:`seqlab.qcore.propagate`: each distinct drive or wait segment,
which may stand for a stack of pulses (a detuning scan), takes one
:func:`expm` call, with a scaling exponent per matrix
(:func:`liouville_propagator`), and one :func:`_validate_density` call
checks the whole stack after it.  rho_44 is propagated, never taken as
1 - tr rho_R, so the trace check tests the walk.  numpy only: scipy would
double the memory and start-up of every CLI call.  With no rate set the
equation is closed and keeps a pure state pure, so a rate-free scan never
calls :func:`evolve_master` (whose expm walk is exact up to Pade rounding
there): :func:`seqlab.ramsey.fringe_scan` walks the unitary backend's psi,
its norm checked by :func:`checked_last_state`, and a zero-rate Lindblad
scan is the unitary scan, to the bit.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DissipationSection
from .qcore import Segment, propagate, total_duration

LOSS_INDEX = 3

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8


class NumericError(RuntimeError):
    """Propagation failed: non-finite state or a positivity/trace violation."""


def channel_rates(dissipation: DissipationSection) -> np.ndarray:
    """The (2, 3) rates in 1/s of R1, R2 and R3: decay, then dephasing."""
    return np.array([
        [getattr(dissipation, f"gamma_{kind}_{alpha}") for alpha in (1, 2, 3)]
        for kind in ("decay", "deph")
    ])


def _check_trace(tr: np.ndarray) -> None:
    """Raise NumericError, quoting the worst, unless every trace of the
    stack tr is finite and within TRACE_TOL of 1."""
    worst = tr.flat[np.abs(tr - 1.0).argmax()]  # the first NaN, if there is one
    if not abs(worst - 1.0) <= TRACE_TOL:  # NaN fails every comparison
        # repr: a drift beyond TRACE_TOL can round away in a short format
        raise NumericError(f"trace drifted to {float(worst.real)!r}")


def _after(segments, check, state: np.ndarray) -> None:
    """check(state), the state after segments, with their end time in the
    message of a NumericError."""
    try:
        check(state)
    except NumericError as err:
        raise NumericError(f"at t={total_duration(segments):.3e} s: {err}") from None


def checked_last_state(sequence: tuple[Segment, ...], states: list[np.ndarray]) -> np.ndarray:
    """The last of the states of a closed walk of sequence (one stack
    shape), once all their |psi|^2 pass the trace check at once: it runs on
    the first segment that fails (a NaN too), else on the first, and names
    its end.  A matmul sums the populations, faster than sum(axis=-1)."""
    norms = (np.abs(np.stack(states)) ** 2 @ np.ones(3)).reshape(len(states), -1)
    k = (~(np.abs(norms - 1.0) <= TRACE_TOL)).any(axis=1).argmax()
    _after(sequence[: k + 1], _check_trace, norms[k])
    return states[-1]


def _validate_density(state: np.ndarray) -> None:
    """Raise NumericError if hermiticity, trace or positivity is violated
    by the state (vec rho_R, rho_44) or by any state of a (..., 10) stack;
    the message quotes the worst value.  The loss coherences are zero, so
    rho's eigenvalues are rho_R's, from one batched 3x3 eigvalsh call over
    the whole stack, and rho_44; its trace is tr rho_R + rho_44."""
    if not np.isfinite(state).all():
        raise NumericError("density matrix has non-finite entries")
    m = state[..., :9].reshape(state.shape[:-1] + (3, 3))
    m_dag = m.conj().swapaxes(-1, -2)
    herm = np.abs(m - m_dag).max()
    if herm > HERMITICITY_TOL:
        raise NumericError(f"hermiticity violated: max |rho - rho^+| = {herm:.3e}")
    _check_trace(state[..., [0, 4, 8, 9]].sum(axis=-1))
    lo = min(np.linalg.eigvalsh(0.5 * (m + m_dag)).min(), state[..., 9].real.min())
    if lo < -POSITIVITY_TOL:
        raise NumericError(f"positivity violated: min eigenvalue {lo:.3e}")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes of (..., n, n) stacks, by broadcast."""
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (k.shape[-4] * k.shape[-3], k.shape[-2] * k.shape[-1]))


def liouvillian(H: np.ndarray, dissipation: DissipationSection) -> np.ndarray:
    """The (..., 10, 10) generator Lv of the module docstring, of a (3, 3)
    H or a (..., 3, 3) stack of them, under the rates of dissipation."""
    decay, deph = channel_rates(dissipation)
    eye = np.eye(3)
    rate = 0.5 * (decay[:, None] + decay + (deph[:, None] + deph) * (1.0 - eye))
    L = np.zeros(H.shape[:-2] + (10, 10), dtype=complex)
    L[..., :9, :9] = -1j * (_kron(H, eye) - _kron(eye, H.swapaxes(-1, -2)))
    L[..., :9, :9] -= np.diag(rate.ravel())
    L[..., 9, :9:4] = decay
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


def liouville_propagator(dissipation: DissipationSection):
    """The propagator(H, t, blocks) that :func:`seqlab.qcore.segment_maps`
    takes, under the rates of dissipation: the (..., 10, 10) map
    :func:`expm` of the :func:`liouvillian` of a drive or wait segment's
    (..., 3, 3) H over its duration.  The generator is exponentiated
    whole, so the blocks go unused: on the short stacks of a scan, a call
    per block costs more than it saves."""
    return lambda H, t, blocks: expm(liouvillian(H, dissipation) * np.asarray(t)[..., None, None])


def evolve_master(sequence: tuple[Segment, ...], dissipation: DissipationSection) -> np.ndarray:
    """The density matrix over (R1, R2, R3, loss) after a sequence of
    drive/wait segments under the master equation with its rates (the
    rated walk: a rate-free scan never calls this), starting from the
    stored excitation; |R1><R1| for an empty sequence.

    The segments may stand for stacks of pulses; the result is then the
    (..., 4, 4) stack over their broadcast shape.  The states
    (vec rho_R, rho_44) come from :func:`seqlab.qcore.propagate` with the
    :func:`liouville_propagator` of the rates, the whole stack together,
    and the last is scattered into rho, whose loss coherences are zero.
    The density-matrix invariants are checked after every segment, on the
    whole stack at once; a violation beyond tolerance aborts with a
    NumericError diagnostic naming its time.
    """
    states = propagate(sequence, liouville_propagator(dissipation))
    for k, state in enumerate(states, 1):
        _after(sequence[:k], _validate_density, state)
    state = states[-1] if states else np.eye(10, dtype=complex)[0]  # vec |R1><R1|
    rho = np.zeros(state.shape[:-1] + (4, 4), dtype=complex)
    rho[..., :3, :3] = state[..., :9].reshape(state.shape[:-1] + (3, 3))
    rho[..., LOSS_INDEX, LOSS_INDEX] = state[..., 9]
    return rho
