"""Dense state-vector simulator: the oracle for all verification.

Site 0 is the most significant tensor digit, so |jk> has j at site 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    NonUnitary,
    SiteOutOfRange,
    StateTooLarge,
    ZeroProbabilityForced,
)
from .galois import DimSpec

MAX_AMPS = 10 ** 6
TOL = 1e-9


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


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


def product_state(dim: DimSpec, vectors: Sequence[np.ndarray]) -> StateVector:
    amps = np.array([1.0 + 0j])
    for v in vectors:
        amps = np.kron(amps, np.asarray(v, dtype=complex))
    return StateVector(dim, len(vectors), amps)


def unit_vector(v, size: int, what: str) -> np.ndarray:
    """v as a complex unit vector of the given size; DimensionMismatch
    naming it when an entry is NaN or infinite or its norm is 0."""
    v = np.asarray(v, dtype=complex).reshape(size)
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0):
        raise DimensionMismatch(f"{what} has NaN/infinite entries or norm 0")
    return v / norm


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(np.vdot(a.amps, b.amps))


def require_unitary(M: np.ndarray, message: str):
    """NonUnitary(message) unless every trailing square matrix of M has
    orthonormal columns (a NaN entry fails the check)."""
    gram = np.swapaxes(M.conj(), -1, -2) @ M
    if not (np.max(np.abs(gram - np.eye(M.shape[-1]))) <= TOL):
        raise NonUnitary(message)


def collapse(branch: np.ndarray, uniforms, forced=None
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One outcome per row t of branch amplitudes (n, D, R).

    Outcome k has probability |branch[t, k]|^2 / |branch[t]|^2 and leaves
    the normalized branch[t, k].  Row t takes forced[t] when forced
    outcomes are given (each checked for range and nonzero probability),
    else the inverse-CDF outcome of uniforms[t] in [0, 1): the rule of
    Generator.choice, so a generator's random() draws give the outcomes
    its choice() would.  Returns (outcomes, posteriors, probabilities of
    the outcomes).
    """
    weight = np.sum(np.abs(branch) ** 2, axis=2)
    probs = weight / weight.sum(axis=1, keepdims=True)
    rows = np.arange(len(branch))
    if forced is None:
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        k = np.sum(cdf <= np.asarray(uniforms)[:, None], axis=1)
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


def apply(state: StateVector, op: np.ndarray,
          sites: Union[int, Sequence[int]]) -> StateVector:
    """Apply a unitary acting on the given sites (in the given order)."""
    if isinstance(sites, int):
        sites = [sites]
    sites = list(sites)
    _check_sites(state, sites)
    d = state.dim.d
    k = len(sites)
    op = np.asarray(op, dtype=complex)
    if op.shape != (d ** k, d ** k):
        raise DimensionMismatch("operator size does not match site count")
    require_unitary(op, "operator fails the unitarity check")
    T = state.tensor()
    T = np.moveaxis(T, sites, range(k))
    shape = T.shape
    T = op @ T.reshape(d ** k, -1)
    T = np.moveaxis(T.reshape(shape), range(k), sites)
    return StateVector(state.dim, state.n, T.reshape(-1))


@dataclass
class MeasurementBasis:
    """Orthonormal basis over one or more sites; columns are the vectors."""
    dim: DimSpec
    vectors: np.ndarray
    label: str = ""
    nsites: int = 1

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=complex)
        D = self.dim.d ** self.nsites
        if self.vectors.shape != (D, D):
            raise DimensionMismatch("basis must be a square matrix of columns")
        require_unitary(self.vectors,
                        f"basis {self.label!r} is not orthonormal")


def z_basis(dim: DimSpec) -> MeasurementBasis:
    return MeasurementBasis(dim, np.eye(dim.d, dtype=complex), "Z")


def x_basis(dim: DimSpec) -> MeasurementBasis:
    from .gates import hadamard
    return MeasurementBasis(dim, hadamard(dim), "X")


def basis_from_unitary(dim: DimSpec, U: np.ndarray, label: str = "",
                       nsites: int = 1) -> MeasurementBasis:
    """Basis {U|k>}: column k of U is outcome k's vector."""
    return MeasurementBasis(dim, np.asarray(U, dtype=complex), label, nsites)


def measure(state: StateVector, basis: MeasurementBasis,
            sites: Union[int, Sequence[int]], rng=None,
            forced_outcome: Optional[int] = None
            ) -> Tuple[int, StateVector, float]:
    """Measure sites in the basis; returns (outcome, posterior, probability).

    The measured sites are removed from the posterior; remaining sites keep
    their relative order.
    """
    if isinstance(sites, int):
        sites = [sites]
    sites = list(sites)
    _check_sites(state, sites)
    d = state.dim.d
    k = len(sites)
    if basis.nsites != k:
        raise DimensionMismatch("basis site count does not match")
    T = state.tensor()
    T = np.moveaxis(T, sites, range(k)).reshape(d ** k, -1)
    branch = basis.vectors.conj().T @ T      # outcome -> residual amplitudes
    if forced_outcome is None:
        k, post, p = collapse(branch[None], _as_rng(rng).random(1))
    else:
        k, post, p = collapse(branch[None], None, [forced_outcome])
    return (int(k[0]), StateVector(state.dim, state.n - len(sites), post[0]),
            float(p[0]))


def reduced_density(state: StateVector, keep_sites: Sequence[int]) -> np.ndarray:
    keep_sites = list(keep_sites)
    _check_sites(state, keep_sites)
    if not keep_sites or len(keep_sites) >= state.n:
        raise SiteOutOfRange("keep_sites must be a nonempty proper subset")
    d = state.dim.d
    k = len(keep_sites)
    T = np.moveaxis(state.tensor(), keep_sites, range(k)).reshape(d ** k, -1)
    return T @ T.conj().T


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
    return bool(lam.size == D and np.max(np.abs(lam - 1.0 / D)) < 1e-8)


# --- JSON ----------------------------------------------------------------

def state_to_json(state: StateVector) -> dict:
    from .galois import dim_to_json
    return {
        "dim": dim_to_json(state.dim),
        "n": state.n,
        "amps": [[float(v.real), float(v.imag)] for v in state.amps],
    }


def state_from_json(obj: dict) -> StateVector:
    from .galois import dim_from_json
    dim = dim_from_json(obj["dim"])
    amps = np.array([complex(re, im) for re, im in obj["amps"]])
    return StateVector(dim, int(obj["n"]), amps)
