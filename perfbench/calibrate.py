"""A fixed calibration kernel that tracks how fast the host runs right now.

On a shared host the same code can run 1.5-2x slower for several seconds
at a time, which swamps the differences a benchmark has to resolve.  The
kernel below does the same kinds of work as the library (interpreted
integer arithmetic and small tuples, small complex matrix products, one
pass over a 2^14-amplitude vector) but never calls it, so its time changes
only with the host.  ``run.py`` times it next to every op and scales the
op's wall time by ``REFERENCE_S / kernel time``: a scaled time is the wall
time the op would take on a host that runs the kernel in REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on a 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4,
# OpenBLAS pinned to one thread).  Changing it rescales every time metric.
REFERENCE_S = 3.0e-3

_D = 5
_U = np.exp(2j * np.pi * np.outer(np.arange(_D), np.arange(_D)) / _D) \
    / np.sqrt(_D)
_PHASES = np.linspace(0.0, 1.0, _D)
_EYE = np.eye(_D)
_STATE = np.exp(1j * np.linspace(0.0, 6.0, 4 ** 7)) / 2 ** 7


def _interpreted(n: int) -> int:
    acc, seen = 0, {}
    for i in range(n):
        t = (i % 7, (i * i) % 5)
        seen[t] = seen.get(t, 0) + 1
        acc = (acc + t[0] * t[1]) % 9973
    return acc + len(seen)


def _small_matrices(n: int) -> float:
    M = _EYE.astype(complex)
    worst = 0.0
    for k in range(n):
        M = _U @ np.diag(np.exp(1j * (k + 1) * _PHASES)) @ M
        worst = max(worst, float(np.max(np.abs(M.conj().T @ M - _EYE))))
    return worst


def _large_vector() -> float:
    T = _STATE.reshape(4, 4, -1)
    T = np.moveaxis(T, 1, 0).reshape(4, -1)
    return float(np.sum(np.abs(_U[:4, :4] @ T) ** 2))


def kernel() -> float:
    """The fixed work; returns a value so that none of it is skipped."""
    return _interpreted(4500) + _small_matrices(90) + _large_vector()


def kernel_seconds(repeats: int = 3) -> float:
    """Median time of a few kernel runs; one run alone jitters by 10-20 %."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]
