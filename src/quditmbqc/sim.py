"""State vectors, kept outcome CDFs, seed_row's uniforms and Schmidt probes.

seed_row gives default_rng(seed).random(n) for the protocols' and
rewrites' draws, with no Generator built; a trajectory run draws from one
Generator of its own (engine.run_trajectories).

Site 0 is the most significant tensor digit, so |jk> has j at site 0.
Dense gate application and measurement, and collapse, the draw off a
whole branch that every draw of the library is checked against, live in
the test suite's oracle (tests/dense_oracle.py), which every protocol is
cross-checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonUnitary,
    SiteOutOfRange,
    ZeroProbabilityForced,
)
from .galois import MAX_AMPS, DimSpec, budget, complex_to_json, dim_to_json
from .pauli import PAULI_TOL

# fidelity and table gates of the protocols and of graph rewriting
VERIFY_TOL = 1e-9


# --- seeded uniforms: seed_row, default_rng's bits without a Generator ----

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_UNIT = 1.0 / 9007199254740992.0     # 2^-53
# SeedSequence's generate_state hash constants 0x8B51F9DD * 0x58F38DED^k
# mod 2^32; its word i is pool word i mod 4, hashed by constants i, i + 1
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _M32 for k in range(9)]
_STATE_WORDS = tuple(zip([0, 1, 2, 3, 0, 1, 2, 3], _HASH_B[:-1], _HASH_B[1:]))


@functools.lru_cache(maxsize=None)
def _pcg_jumps(n: int) -> Tuple[Tuple[int, int], ...]:
    """(P_j, Q_j) for j < n: PCG64 seeded with (initstate, inc) draws the
    output of state P_j initstate + Q_j inc mod 2^128 at draw j + 1, with
    P_j = M^(j+2) and Q_j = M^0 + ... + M^(j+2) mod 2^128."""
    p, q, out = _PCG_MULT, 1 + _PCG_MULT, []
    for _ in range(n):
        p = p * _PCG_MULT & _M128
        q = q + p & _M128
        out.append((p, q))
    return tuple(out)


def seed_row(seed, n: int) -> list:
    """np.random.default_rng(seed).random(n).tolist(), bit for bit.

    A non-negative int seed, of any size, keeps only numpy's SeedSequence
    pool (its C entropy mix); the rest is Python int arithmetic:
    generate_state's eight words, PCG64 seeded with initstate words 0-3
    and inc 2 * words 4-7 + 1, jumped to each draw (_pcg_jumps), its
    XSL-RR output x and (x >> 11) * 2^-53.  Any other seed (a Generator,
    None, an np.integer, a bool or a negative int) draws through
    default_rng itself, so a Generator is advanced and a negative seed
    raises default_rng's ValueError.
    """
    if type(seed) is not int or seed < 0:
        return np.random.default_rng(seed).random(n).tolist()
    pool = np.random.SeedSequence(seed).pool.tolist()
    w = []
    for i, a, b in _STATE_WORDS:
        x = (pool[i] ^ a) * b & _M32
        w.append(x ^ x >> 16)
    init = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _M128
    out = []
    for p, q in _pcg_jumps(n):
        s = p * init + q * inc & _M128
        hi = s >> 64
        x, r = hi ^ s & _M64, hi >> 58
        out.append((((x >> r | x << 64 - r) & _M64) >> 11) * _TO_UNIT)
    return out


@dataclass
class StateVector:
    dim: DimSpec
    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.amps.size != self.dim.d ** self.n:
            raise DimensionMismatch("amplitude count does not match d^n")
        budget(self.amps.size, "{} state amplitudes", self.amps.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        return StateVector(self.dim, self.n, self.amps / self.norm())

    def tensor(self) -> np.ndarray:
        return self.amps.reshape((self.dim.d,) * self.n)


def unit_vector(v, size: int, what: str) -> np.ndarray:
    """v as a complex unit vector of the given size; DimensionMismatch
    naming it when it has another number of entries, an entry is NaN or
    infinite or its norm is 0."""
    v = np.asarray(v, dtype=complex)
    if v.size != size:
        raise DimensionMismatch(f"{what} has {v.size} amplitudes, not {size}")
    v = v.ravel()
    norm = vector_norm(v)
    if not (math.isfinite(norm) and norm > 0):
        raise DimensionMismatch(f"{what} has NaN/infinite entries or norm 0")
    return v / norm


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm of a contiguous complex vector, by its formula."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def require_unitary(M: np.ndarray, message: str):
    """NonUnitary(message) unless every trailing square matrix of M has
    orthonormal columns (a NaN entry fails the check)."""
    gram = np.swapaxes(M.conj(), -1, -2) @ M
    if not (np.abs(gram - np.eye(M.shape[-1])).max() <= VERIFY_TOL):
        raise NonUnitary(message)


def kept_cdf(branch: np.ndarray) -> Tuple[list, list]:
    """(probs, cdf) of one row of branch amplitudes (D, R), as lists to keep
    where they do not depend on the state: a uniform u in [0, 1) draws
    outcome bisect_right(cdf, u), the inverse-CDF rule of Generator.choice.
    DimensionMismatch unless the row's total weight is finite and
    positive."""
    weight = np.add.reduce(np.square(np.abs(branch)), axis=1)
    total = np.add.reduce(weight)
    if not (total > 0 and math.isfinite(total)):
        raise DimensionMismatch("state has NaN/infinite amplitudes or norm 0")
    probs = weight / total
    cdf = np.add.accumulate(probs / np.add.reduce(probs))
    cdf /= cdf[-1]
    return probs.tolist(), cdf.tolist()


def check_forced(probs, k: int):
    """ZeroProbabilityForced unless forced outcome k of a row with these
    outcome probabilities has probability VERIFY_TOL or more."""
    if probs[k] < VERIFY_TOL:
        raise ZeroProbabilityForced(
            f"outcome {k} has probability {probs[k]:.3e}")


def _check_sites(state: StateVector, sites: Sequence[int]):
    for s in sites:
        if not 0 <= s < state.n:
            raise SiteOutOfRange(f"site {s} outside 0..{state.n - 1}")
    if len(set(sites)) != len(sites):
        raise SiteOutOfRange("duplicate sites")


def schmidt(state: StateVector, left_sites: Sequence[int]
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt data across the bipartition (left_sites | rest).

    Returns (coefficients descending, left vectors as columns, right vectors
    as columns); sum of squared coefficients is 1.
    """
    left_sites = list(left_sites)
    _check_sites(state, left_sites)
    d = state.dim.d
    k = len(left_sites)
    T = np.moveaxis(state.tensor(), left_sites, range(k)).reshape(d ** k, -1)
    u, s, vh = np.linalg.svd(T, full_matrices=False)
    return s, u, vh.conj().T


def is_max_entangled(state: StateVector, left_sites: Sequence[int]) -> bool:
    s, _, _ = schmidt(state, left_sites)
    D = min(state.dim.d ** len(left_sites),
            state.dim.d ** (state.n - len(left_sites)))
    lam = s ** 2
    return bool(lam.size == D and np.max(np.abs(lam - 1.0 / D)) <= PAULI_TOL)


# --- JSON ----------------------------------------------------------------

def state_to_json(state: StateVector) -> dict:
    return {
        "dim": dim_to_json(state.dim),
        "n": state.n,
        "amps": complex_to_json(state.amps),
    }
