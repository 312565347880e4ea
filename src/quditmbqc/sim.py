"""State vectors, kept outcome CDFs, seeded uniforms and Schmidt probes.

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
    StateTooLarge,
    ZeroProbabilityForced,
)
from .galois import MAX_AMPS, DimSpec, complex_to_json, dim_to_json
from .pauli import PAULI_TOL

# fidelity and table gates of the protocols and of graph rewriting
VERIFY_TOL = 1e-9


# --- seeded uniforms ------------------------------------------------------

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_UNIT = 1.0 / 9007199254740992.0     # 2^-53


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants init * mult^k mod 2^32, k < count."""
    return np.array([init * pow(mult, k, 1 << 32) & _M32
                     for k in range(count)], dtype=np.uint32)[:, None]


# 16 hash-mix calls mix the entropy pool, 8 more draw PCG64's state words
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
# generate_state's word i: pool word i mod 4, hashed by _HASH_B[i], [i + 1]
_STATE_WORDS = tuple(zip([0, 1, 2, 3, 0, 1, 2, 3], _HASH_B[:-1, 0].tolist(),
                         _HASH_B[1:, 0].tolist()))
# the three destination words of each source word's SeedSequence mix calls
_MIX_DST = np.array([[t for t in range(4) if t != s] for s in range(4)])


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


@functools.lru_cache(maxsize=None)
def _pcg_limbs(n: int) -> np.ndarray:
    """_pcg_jumps(n) as uint64 limbs [[P hi, Q hi], [P lo, Q lo]]."""
    out = np.array([(p >> 64, q >> 64, p & _M64, q & _M64)
                    for p, q in _pcg_jumps(n)],
                   dtype=np.uint64).reshape(n, 4).T.reshape(2, 2, n, 1)
    out.flags.writeable = False    # shared by every caller
    return out


def _mul128(hi, lo, chi, clo):
    """(hi, lo) * (chi, clo) mod 2^128, 32-bit limbs, cross products once."""
    a1, a0, b1, b0 = lo >> 32, lo & _M32, clo >> 32, clo & _M32
    c01, c10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (c01 & _M32) + (c10 & _M32)
    top = a1 * b1 + (c01 >> 32) + (c10 >> 32) + (mid >> 32)
    return top + hi * clo + lo * chi, lo * clo


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


def seed_uniforms(seeds: Sequence, n: int) -> np.ndarray:
    """Row t is np.random.default_rng(seeds[t]).random(n), bit for bit.

    Int seeds in [0, 2^128) run together, as SeedSequence's 4-word pools
    ((4, T) uint32, a range below 2^64's by np.arange): their hash-mix in
    place, PCG64 seeded and jumped to each draw (_pcg_jumps, both 128-bit
    products in one _mul128 pass), XSL-RR and (x >> 11) * 2^-53.  Any
    other seed (a Generator, None, an np.integer, a negative int or one >=
    2^128) is one seed_row, in row order, so a Generator is drawn from in
    turn and default_rng's ValueError for a negative seed comes through.
    """
    out, fast = np.empty((len(seeds), n)), slice(None)
    if type(seeds) is range and seeds and 0 <= min(seeds[0], seeds[-1]) \
            and max(seeds[0], seeds[-1]) <= _M64:    # t step wraps mod 2^64
        v = np.arange(len(seeds), dtype=np.uint64) * np.uint64(
            seeds.step & _M64) + np.uint64(seeds[0])
        pool = np.array([v, v >> 32, 0 * v, 0 * v]).astype(np.uint32)
    else:
        fast = [type(s) is int and 0 <= s <= _M128 for s in seeds]
        for t, f in enumerate(fast):
            if not f:
                out[t] = seed_row(seeds[t], n)
        pool = np.frombuffer(b"".join(s.to_bytes(16, "little")
                                      for s, f in zip(seeds, fast) if f),
                             dtype="<u4").reshape(-1, 4).T
    with np.errstate(over="ignore"):    # uint32 / uint64 wraparound
        pool = (pool ^ _HASH_A[:4]) * _HASH_A[1:5]
        pool ^= pool >> 16
        for s, k in zip(range(4), range(4, 16, 3)):    # 12 mix calls
            h = (pool[s] ^ _HASH_A[k:k + 3]) * _HASH_A[k + 1:k + 4]
            h ^= h >> 16    # three independent destination words
            m = pool[_MIX_DST[s]] * 0xCA01F9DD - h * 0x4973F715
            pool[_MIX_DST[s]] = m ^ m >> 16
        w = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:-1]) * _HASH_B[1:]
        v = (w ^ w >> 16).astype(np.uint64)
        v = v[0::2] | v[1::2] << 32    # initstate hi, lo; inc / 2 hi, lo
        a = np.stack((v[:2], v[2:] << 1))    # [initstate, inc] x [hi, lo]
        a[1, 0] |= v[3] >> 63
        a[1, 1] |= 1
        h, l = _mul128(a[:, 0, None], a[:, 1, None], *_pcg_limbs(n))
        lo = l[0] + l[1]
        hi = h[0] + h[1] + (lo < l[0])
        x, r = hi ^ lo, hi >> 58
        x = x >> r | x << (64 - r & 63)
    out[fast] = ((x >> 11) * _TO_UNIT).T
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
