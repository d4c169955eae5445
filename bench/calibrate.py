"""Calibration kernel: a fixed piece of work timed next to the workload.

The benchmark runs on a small share of a shared host whose speed drifts by
tens of percent over a minute, and that drift, not the program, sets the
spread of raw wall times between runs.  This kernel does a fixed amount of
the same kinds of work the workloads do, with no seqlab code in it:

* interpreter work: small dataclass construction and scalar float math
  (the per-point Python loops of the scans);
* small numpy calls: 3x3 complex Hermitian eigendecomposition, matrix
  products and exponentials (the propagators and the master-equation
  right-hand side);
* array work: uniform draws, a comparison and a row-wise ``np.unique`` over
  a few hundred thousand rows (the shot samplers and the g2 bootstrap).

Its inputs are fixed, so on a steady machine it takes the same time on
every call; the harness times it between workload passes and divides pass
times by it, which cancels the host's drift.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# Work per chunk; one chunk takes roughly 0.1 s on a 2.1 GHz Xeon core.
PY_POINTS = 30_000
NP_CALLS = 1_500
ARRAY_ROWS = 40_000


@dataclass(frozen=True)
class _Point:
    delta: float
    weight: float


def _python_work() -> float:
    acc = 0.0
    for k in range(PY_POINTS):
        p = _Point(k * 1e-3, 0.5)
        acc += p.weight * (1.0 - math.cos(p.delta)) ** 2 + math.sin(p.delta * 0.5)
    return acc


_H = np.array(
    [[0.0, 0.3, 0.0], [0.3, 0.1, 0.7], [0.0, 0.7, -0.2]], dtype=complex
) + 1j * np.array([[0.0, 0.1, 0.0], [-0.1, 0.0, 0.2], [0.0, -0.2, 0.0]])


def _numpy_work() -> float:
    acc = 0.0
    rho = np.eye(3, dtype=complex) / 3.0
    for k in range(NP_CALLS):
        w, v = np.linalg.eigh(_H * (1.0 + 1e-4 * k))
        u = (v * np.exp(-1j * w)) @ v.conj().T
        rho = u @ rho @ u.conj().T
        acc += float(rho[0, 0].real)
    return acc


_RNG_SEED = 12345


def _array_work() -> float:
    rng = np.random.default_rng(_RNG_SEED)
    u = rng.random((ARRAY_ROWS, 2))
    pairs = (u < 0.3).astype(np.int16) + (u < 0.05).astype(np.int16)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    idx = rng.integers(0, ARRAY_ROWS, size=ARRAY_ROWS)
    return float(counts.max() + pairs[idx].sum())


def chunk() -> float:
    """Seconds one fixed chunk of calibration work takes now."""
    t0 = time.perf_counter()
    _python_work()
    _numpy_work()
    _array_work()
    return time.perf_counter() - t0
