"""State vectors, the shared outcome draw, seeded uniforms and Schmidt
probes.

Site 0 is the most significant tensor digit, so |jk> has j at site 0.
Dense gate application and measurement live in the test suite's oracle
(tests/dense_oracle.py), which every protocol is cross-checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonUnitary,
    SiteOutOfRange,
    StateTooLarge,
    ZeroProbabilityForced,
)
from .galois import DimSpec, complex_to_json, dim_to_json
from .pauli import PAULI_TOL

MAX_AMPS = 10 ** 6
TOL = 1e-9


# --- seeded uniforms ------------------------------------------------------

_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> Tuple[int, ...]:
    """SeedSequence's hash constants init * mult^k mod 2^32, k < count."""
    return tuple(init * pow(mult, k, 1 << 32) & _M32 for k in range(count))


# 16 hash-mix calls mix the entropy pool, 8 more draw PCG64's state words
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = np.array(_hash_constants(0x8B51F9DD, 0x58F38DED, 9), dtype=np.uint32)


@functools.lru_cache(maxsize=None)
def _pcg_jumps(n: int) -> np.ndarray:
    """Rows (P hi, P lo, Q hi, Q lo) of columns j < n: PCG64 seeded with
    (initstate, inc) draws the output of P_j initstate + Q_j inc at draw
    j + 1, with P_j = M^(j+2) and Q_j = M^0 + ... + M^(j+2) mod 2^128."""
    p, q, cols = _PCG_MULT, 1 + _PCG_MULT, []
    for _ in range(n):
        p = p * _PCG_MULT & _M128
        q = q + p & _M128
        cols.append((p >> 64, p & (1 << 64) - 1, q >> 64, q & (1 << 64) - 1))
    out = np.array(cols, dtype=np.uint64).reshape(n, 4).T
    out.flags.writeable = False    # shared by every caller
    return out


def _mul128(hi, lo, chi, clo):
    """(hi, lo) * (chi, clo) mod 2^128 on uint64 halves, 32-bit limbs."""
    a1, a0, b1, b0 = lo >> 32, lo & _M32, clo >> 32, clo & _M32
    mid = (a0 * b0 >> 32) + (a0 * b1 & _M32) + (a1 * b0 & _M32)
    top = a1 * b1 + (a0 * b1 >> 32) + (a1 * b0 >> 32) + (mid >> 32)
    return top + hi * clo + lo * chi, lo * clo


def seed_uniforms(seeds: Sequence, n: int) -> np.ndarray:
    """Row t is np.random.default_rng(seeds[t]).random(n), bit for bit.

    Int seeds in [0, 2^128) run together: SeedSequence's uint32 hash-mix
    of the entropy words zero-padded to its 4-word pool, PCG64's 128-bit
    LCG seeded and jumped to each draw, its XSL-RR output and
    (x >> 11) * 2^-53.  Any other seed (a Generator, None, an np.integer,
    a negative int or one >= 2^128) draws through default_rng itself, in
    row order, so default_rng's ValueError for a negative seed comes
    through.
    """
    seeds = list(seeds)
    out = np.empty((len(seeds), n))
    fast = [type(s) is int and 0 <= s <= _M128 for s in seeds]
    for t, f in enumerate(fast):
        if not f:
            out[t] = np.random.default_rng(seeds[t]).random(n)
    ent = np.array([s for s, f in zip(seeds, fast) if f], dtype=object)
    pool = list(np.array([ent >> k & _M32 for k in (0, 32, 64, 96)])
                .astype(np.uint32))
    with np.errstate(over="ignore"):    # uint32 / uint64 wraparound
        def hashmix(v, k):
            v = (v ^ _HASH_A[k]) * _HASH_A[k + 1]
            return v ^ v >> 16

        pool = [hashmix(v, i) for i, v in enumerate(pool)]
        pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
        for k, (src, dst) in enumerate(pairs, start=4):
            m = pool[dst] * 0xCA01F9DD - hashmix(pool[src], k) * 0x4973F715
            pool[dst] = m ^ m >> 16
        w = (np.array(pool * 2) ^ _HASH_B[:-1, None]) * _HASH_B[1:, None]
        w = (w ^ w >> 16).astype(np.uint64)
        val = (w[0::2] | w[1::2] << 32)[:, :, None]
        ph, pl, qh, ql = _pcg_jumps(n)
        h1, l1 = _mul128(val[0], val[1], ph, pl)
        h2, l2 = _mul128(val[2] << 1 | val[3] >> 63, val[3] << 1 | 1, qh, ql)
        lo = l1 + l2
        hi = h1 + h2 + (lo < l1)
        x, r = hi ^ lo, hi >> 58
        x = x >> r | x << (64 - r & 63)
    out[fast] = (x >> 11) * (1.0 / 9007199254740992.0)
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
        if self.amps.size > MAX_AMPS:
            raise StateTooLarge(f"{self.amps.size} amplitudes exceed the budget")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        return StateVector(self.dim, self.n, self.amps / self.norm())

    def tensor(self) -> np.ndarray:
        return self.amps.reshape((self.dim.d,) * self.n)


def unit_vector(v, size: int, what: str) -> np.ndarray:
    """v as a complex unit vector of the given size; DimensionMismatch
    naming it when an entry is NaN or infinite or its norm is 0."""
    v = np.asarray(v, dtype=complex).reshape(size)
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0):
        raise DimensionMismatch(f"{what} has NaN/infinite entries or norm 0")
    return v / norm


def require_unitary(M: np.ndarray, message: str):
    """NonUnitary(message) unless every trailing square matrix of M has
    orthonormal columns (a NaN entry fails the check)."""
    gram = np.swapaxes(M.conj(), -1, -2) @ M
    if not (np.max(np.abs(gram - np.eye(M.shape[-1]))) <= TOL):
        raise NonUnitary(message)


def collapse(branch: np.ndarray, uniforms, forced=None
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One outcome per row t of branch amplitudes (n, D, R): the draw
    that every protocol, rewrite and trajectory makes.

    Outcome k has probability |branch[t, k]|^2 / |branch[t]|^2 and leaves
    the normalized branch[t, k].  Row t takes forced[t] when forced
    outcomes are given (each checked for range and nonzero probability),
    else the inverse-CDF outcome of uniforms[t] in [0, 1): the rule of
    Generator.choice, so a generator's random() draws give the outcomes
    its choice() would.  Returns (outcomes, posteriors, probabilities of
    the outcomes).  A row whose total weight is not finite and positive
    raises DimensionMismatch.
    """
    weight = (np.abs(branch) ** 2).sum(axis=2)
    total = weight.sum(axis=1, keepdims=True)
    if not ((total > 0) & np.isfinite(total)).all():
        raise DimensionMismatch("state has NaN/infinite amplitudes or norm 0")
    probs = weight / total
    rows = np.arange(len(branch))
    if forced is None:
        cdf = (probs / probs.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        k = (cdf <= np.asarray(uniforms)[:, None]).sum(axis=1)
    else:
        k = np.asarray(forced, dtype=np.intp)
        if k.min() < 0 or k.max() >= branch.shape[1]:
            raise SiteOutOfRange("forced outcome out of range")
        t = probs[rows, k].argmin()
        if probs[t, k[t]] < TOL:
            raise ZeroProbabilityForced(
                f"outcome {k[t]} has probability {probs[t, k[t]]:.3e}")
    post = branch[rows, k] / np.sqrt(weight[rows, k])[:, None]
    return k, post, probs[rows, k]


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
