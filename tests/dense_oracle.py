"""Dense state-vector simulation: the oracle the library is checked against.

Every protocol in quditmbqc runs on closed-form branch tables, stabilizer
tableaux or batched trajectory kernels.  This module keeps the dense
reference those fast paths replaced: product states, gate application
and projective measurement on whole state vectors, the resource state of
a graph, the Bell basis, and the outcome draw and the diagonal-Clifford
conjugation in their original forms.  Site 0 is the most significant
tensor digit, as in quditmbqc.sim.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from quditmbqc import engine, sim
from quditmbqc.errors import (
    DimensionMismatch,
    SiteOutOfRange,
    StateTooLarge,
    ZeroProbabilityForced,
)
from quditmbqc.galois import DimSpec
from quditmbqc.gates import hadamard
from quditmbqc.pauli import PAULI_TOL, xmat, zmat
from quditmbqc.resource import gate_matrix
from quditmbqc.sim import StateVector


def _row_totals(weight: np.ndarray) -> np.ndarray:
    """Row sums of outcome weights; DimensionMismatch unless finite, > 0."""
    total = weight.sum(axis=1, keepdims=True)
    if not np.all((total > 0) & np.isfinite(total)):
        raise DimensionMismatch("state has NaN/infinite amplitudes or norm 0")
    return total


def collapse(branch: np.ndarray, uniforms, forced=None
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sim.collapse as first written, through np.sum, np.cumsum and
    _row_totals: the formula the library's draw must equal bit for bit."""
    weight = np.sum(np.abs(branch) ** 2, axis=2)
    probs = weight / _row_totals(weight)
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
        if probs[t, k[t]] < sim.TOL:
            raise ZeroProbabilityForced(
                f"outcome {k[t]} has probability {probs[t, k[t]]:.3e}")
    post = branch[rows, k] / np.sqrt(weight[rows, k])[:, None]
    return k, post, probs[rows, k]


def diagonal_conjugate(dim: DimSpec, q: np.ndarray, x: int
                       ) -> Optional[Tuple[int, int]]:
    """(c, num) with diag(q) X(x) diag(q)^dag = e^{2 pi i num / phase_den}
    Z(c) X(x), or None when no c fits: one shift at a time, the loop that
    engine._diagonal_images replaced."""
    den = dim.phase_den
    mul, add, _, chi = engine._element_tables(dim)
    shift = add[x]                                   # j -> j + x
    ratio = q[shift] * q.conj() * chi[mul[:, shift]].conj()
    num = np.round(np.angle(ratio[:, 0]) * den / (2 * np.pi))
    fits = np.max(np.abs(ratio - np.exp(2j * np.pi * num / den)[:, None]),
                  axis=1) <= PAULI_TOL
    if not fits.any():
        return None
    c = int(np.argmax(fits))
    return c, int(num[c])


def product_state(dim: DimSpec, vectors: Sequence[np.ndarray]) -> StateVector:
    """Tensor product of one vector per site; StateTooLarge before the
    product is formed when d^n exceeds sim.MAX_AMPS."""
    if dim.d ** len(vectors) > sim.MAX_AMPS:
        raise StateTooLarge(f"{dim.d ** len(vectors)} amplitudes exceed "
                            f"the budget")
    amps = np.array([1.0 + 0j])
    for v in vectors:
        amps = np.kron(amps, np.asarray(v, dtype=complex))
    return StateVector(dim, len(vectors), amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(np.vdot(a.amps, b.amps))


def apply(state: StateVector, op: np.ndarray,
          sites: Union[int, Sequence[int]]) -> StateVector:
    """Apply a unitary acting on the given sites (in the given order)."""
    if isinstance(sites, int):
        sites = [sites]
    sites = list(sites)
    sim._check_sites(state, sites)
    d = state.dim.d
    k = len(sites)
    op = np.asarray(op, dtype=complex)
    if op.shape != (d ** k, d ** k):
        raise DimensionMismatch("operator size does not match site count")
    sim.require_unitary(op, "operator fails the unitarity check")
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
        sim.require_unitary(self.vectors,
                            f"basis {self.label!r} is not orthonormal")


def x_basis(dim: DimSpec) -> MeasurementBasis:
    return MeasurementBasis(dim, hadamard(dim), "X")


def measure(state: StateVector, basis: MeasurementBasis,
            sites: Union[int, Sequence[int]], rng=None,
            forced_outcome: Optional[int] = None
            ) -> Tuple[int, StateVector, float]:
    """Measure sites in the basis; returns (outcome, posterior, probability).

    The measured sites are removed from the posterior; remaining sites keep
    their relative order.  The outcome is drawn by sim.collapse from one
    random() of rng (a seed or a Generator), or forced.
    """
    if isinstance(sites, int):
        sites = [sites]
    sites = list(sites)
    sim._check_sites(state, sites)
    d = state.dim.d
    k = len(sites)
    if basis.nsites != k:
        raise DimensionMismatch("basis site count does not match")
    T = state.tensor()
    T = np.moveaxis(T, sites, range(k)).reshape(d ** k, -1)
    branch = basis.vectors.conj().T @ T      # outcome -> residual amplitudes
    if forced_outcome is None:
        k, post, p = sim.collapse(branch[None],
                                  np.random.default_rng(rng).random(1))
    else:
        k, post, p = sim.collapse(branch[None], None, [forced_outcome])
    return (int(k[0]), StateVector(state.dim, state.n - len(sites), post[0]),
            float(p[0]))


def build(graph: engine.ResourceGraph) -> StateVector:
    """Dense resource state: vertex inits, then gates in seq order."""
    graph.validate()
    dim = graph.dim
    vecs = [engine._init_vector(dim, v.init) for v in graph.vertices]
    state = product_state(dim, vecs)
    for e in sorted(graph.edges, key=lambda e: e.seq):
        state = apply(state, gate_matrix(e.gate),
                      [graph.site_of(e.control), graph.site_of(e.target)])
    return state


@functools.lru_cache(maxsize=None)
def bell_basis(dim: DimSpec) -> MeasurementBasis:
    """Basis {(Z^s X^t (x) I)|Phi>}, outcome index s*d + t.  Column s*d + t
    is Z^s X^t read row by row, over sqrt(d)."""
    cols = np.column_stack([(zmat(dim, s) @ xmat(dim, t)).reshape(-1)
                            for s in dim.elements for t in dim.elements])
    return MeasurementBasis(dim, cols / np.sqrt(dim.d), "Bell", nsites=2)
