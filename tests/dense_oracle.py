"""Dense state-vector simulation: the oracle the library is checked against.

Every protocol in quditmbqc runs on closed-form branch tables, stabilizer
tableaux or batched trajectory kernels.  This module keeps the dense
reference those fast paths replaced: product states, gate application
and projective measurement on whole state vectors, the resource state of
a graph, the Bell basis, the outcome draw and the diagonal-Clifford
conjugation in their original forms, a diagonal gate's factorization
as (C1 x C2) CZ^N checked by dense products (factor_diagonal), and the
full-row check of a graph rewrite, which builds every graph-form row as
a PauliWord.  A rewrite's posterior (engine.StabilizerState) is only its
graph and its corrections, each a diagonal with its exact images:
operator is a correction's dense view, corrected_rows and
corrected_state are the posterior's rows and its dense vector, and
rewrite_basis the basis a rewrite measures in.  Graphs are immutable, so
with_init derives one with an init changed.  Site 0 is the most
significant tensor digit, as in quditmbqc.sim.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from quditmbqc import engine, sim
from quditmbqc.clifford import _additive_basis, certify, diagonal_images
from quditmbqc.errors import (
    DimensionMismatch,
    FrameMismatch,
    NotCliffordError,
    SiteOutOfRange,
    ZeroProbabilityForced,
)
from quditmbqc.galois import DimSpec, budget
from quditmbqc.gates import hadamard, normalize_global_phase, shear_gate
from quditmbqc.pauli import (
    PAULI_TOL,
    PauliWord,
    match_pauli,
    normal_form,
    single_word,
    xmat,
    zmat,
    zx_matrix,
)
from quditmbqc.resource import DIAGONAL, expand, gate_matrix
from quditmbqc.sim import StateVector


def _row_totals(weight: np.ndarray) -> np.ndarray:
    """Row sums of outcome weights; DimensionMismatch unless finite, > 0."""
    total = weight.sum(axis=1, keepdims=True)
    if not np.all((total > 0) & np.isfinite(total)):
        raise DimensionMismatch("state has NaN/infinite amplitudes or norm 0")
    return total


def collapse(branch: np.ndarray, uniforms, forced=None
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One outcome per row t of branch amplitudes (n, D, R): the draw
    whose outcome probabilities depend on the state, which every draw of
    the library (sim.kept_cdf, engine._draw at sim.seed_row's uniforms, a
    trajectory step's, off the kept CDF or engine._weighted_step) is
    checked against; measure draws its uniform by default_rng itself, the
    reference sim.seed_row matches bit for bit.

    Outcome k has probability |branch[t, k]|^2 / |branch[t]|^2 and leaves
    the normalized branch[t, k].  Row t takes forced[t] when forced
    outcomes are given (each checked for range and nonzero probability),
    else the inverse-CDF outcome of uniforms[t] in [0, 1), the rule of
    Generator.choice.  Returns (outcomes, posteriors, probabilities of the
    outcomes); a row whose total weight is not finite and positive raises
    DimensionMismatch (_row_totals)."""
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
        if probs[t, k[t]] < sim.VERIFY_TOL:
            raise ZeroProbabilityForced(
                f"outcome {k[t]} has probability {probs[t, k[t]]:.3e}")
    post = branch[rows, k] / np.sqrt(weight[rows, k])[:, None]
    return k, post, probs[rows, k]


def diagonal_conjugate(dim: DimSpec, q: np.ndarray, x: int
                       ) -> Optional[Tuple[int, int]]:
    """(c, num) with diag(q) X(x) diag(q)^dag = e^{2 pi i num / phase_den}
    Z(c) X(x), or None when no c fits: one shift at a time, the loop that
    clifford._diagonal_images replaced."""
    den = dim.phase_den
    mul, add, _, chi = dim.tables
    shift = add[x]                                   # j -> j + x
    ratio = q[shift] * q.conj() * chi[mul[:, shift]].conj()
    num = np.round(np.angle(ratio[:, 0]) * den / (2 * np.pi))
    fits = np.max(np.abs(ratio - np.exp(2j * np.pi * num / den)[:, None]),
                  axis=1) <= PAULI_TOL
    if not fits.any():
        return None
    c = int(np.argmax(fits))
    return c, int(num[c])


def conjugation(U: np.ndarray, dim: DimSpec, n: int):
    """word -> U word U^dagger on n qudits as an exact-phase word: the
    n-qudit certificate that clifford.certify, one qudit's word table,
    replaced.  Each letter Z_s(v) or X_s(v) is conjugated densely and
    matched back to a word (match_pauli) once, and a word's image is the
    product of its letters' in normal_form.  NotCliffordError, as certify
    raises it, names the first generator, Z and X at each additive basis
    element g, site by site, whose image is not a Pauli word."""
    U = np.asarray(U, dtype=complex)
    Ud = U.conj().T

    @functools.lru_cache(maxsize=None)
    def letter(site: int, name: str, v: int) -> PauliWord:
        r = match_pauli(dim, n, U @ zx_matrix(
            single_word(dim, n, site, **{name.lower(): v})) @ Ud)
        if r is None:
            label = f"{name}{site}^{v}"
            raise NotCliffordError(f"generator {label} does not conjugate "
                                   f"to a Pauli word", generator=label)
        return r[1]

    for site in range(n):
        for g in _additive_basis(dim):
            letter(site, "Z", g), letter(site, "X", g)

    def conjugate(word: PauliWord) -> PauliWord:
        out = PauliWord(dim, n, (0,) * n, (0,) * n, word.phase_num)
        for site in range(n):
            for name, v in (("Z", word.z[site]), ("X", word.x[site])):
                if v:
                    out = normal_form(out, letter(site, name, v))
        return out

    return conjugate


def words(dim: DimSpec) -> List[PauliWord]:
    """Every one-qudit word Z(z) X(x) at phase 0, at index z d + x."""
    return [PauliWord(dim, 1, (z,), (x,)) for z in dim.elements
            for x in dim.elements]


def image(cert, word: PauliWord) -> PauliWord:
    """U word U^dagger for a one-qudit word, read off U's certificate, its
    word table, at the word's index z d + x."""
    d = cert.dim.d
    i = word.z[0] * d + word.x[0]
    z, x = divmod(int(cert.idx[i]), d)
    return PauliWord(cert.dim, 1, (z,), (x,),
                     word.phase_num + int(cert.phase[i]))


def operator(c: engine.Correction) -> np.ndarray:
    """A correction's dense d x d view, diag(q)."""
    return np.diag(c.q)


def correction(dim: DimSpec, vertex: int, q: np.ndarray, label: str
               ) -> engine.Correction:
    """The engine.Correction diag(q) on vertex, its exact images read one
    shift at a time (diagonal_conjugate); q must be Clifford."""
    images = [diagonal_conjugate(dim, q, x) for x in dim.elements]
    assert None not in images, f"diag(q) on vertex {vertex} is not Clifford"
    return engine.Correction(vertex, q, ([c for c, _ in images],
                                         [n % dim.phase_den
                                          for _, n in images]), label)


def product_state(dim: DimSpec, vectors: Sequence[np.ndarray]) -> StateVector:
    """Tensor product of one vector per site; StateTooLarge before the
    product is formed past the budget of its d^n amplitudes."""
    budget(dim.d ** len(vectors), "{}^{} product state amplitudes", dim.d,
           len(vectors))
    amps = np.array([1.0 + 0j])
    for v in vectors:
        amps = np.kron(amps, np.asarray(v, dtype=complex))
    return StateVector(dim, len(vectors), amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(np.vdot(a.amps, b.amps))


@functools.lru_cache(maxsize=256)
def _check_unitary(shape: Tuple[int, ...], data: bytes):
    """sim.require_unitary on the complex matrix with these bytes, once per
    distinct matrix: a graph's edge gates are a few matrices applied many
    times.  A matrix that fails raises on every call, as none is kept."""
    sim.require_unitary(np.frombuffer(data, dtype=complex).reshape(shape),
                        "operator fails the unitarity check")


def apply(state: StateVector, op: np.ndarray,
          sites: Union[int, Sequence[int]]) -> StateVector:
    """Apply a unitary acting on the given sites (in the given order),
    checked once per distinct matrix (_check_unitary)."""
    if isinstance(sites, int):
        sites = [sites]
    sites = list(sites)
    sim._check_sites(state, sites)
    d = state.dim.d
    k = len(sites)
    op = np.asarray(op, dtype=complex)
    if op.shape != (d ** k, d ** k):
        raise DimensionMismatch("operator size does not match site count")
    _check_unitary(op.shape, op.tobytes())
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
    their relative order.  The outcome is drawn by collapse from one
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
        k, post, p = collapse(branch[None],
                              np.random.default_rng(rng).random(1))
    else:
        k, post, p = collapse(branch[None], None, [forced_outcome])
    return (int(k[0]), StateVector(state.dim, state.n - len(sites), post[0]),
            float(p[0]))


def with_init(graph: engine.ResourceGraph, vid: int, init
              ) -> engine.ResourceGraph:
    """graph with vertex vid's init replaced: a graph is immutable, so a
    changed one is derived, and validated as it is built."""
    return replace(graph, vertices=[replace(v, init=init) if v.id == vid
                                    else v for v in graph.vertices])


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


def corrected_state(graph: engine.ResourceGraph, corrections) -> np.ndarray:
    """The normalised dense vector of graph, inits included, with each
    correction applied on its vertex."""
    state = build(graph)
    for c in corrections:
        state = apply(state, operator(c), graph.site_of(c.vertex))
    return state.normalized().amps


def rewrite_basis(graph: engine.ResourceGraph, vid: int, complement: bool
                  ) -> MeasurementBasis:
    """The basis a rewrite measures vid in: Z, or for local complementation
    D W S(N) H, W the product of vid's edge factors, D = diag(sqrt(d)
    init) for vid's phase-vector init and N the weight of its first edge
    whose weight is a unit, or 1 when none is; every column is checked
    densely to be an eigenvector of every D W X(x) W^dag D^dag Z(N x),
    x != 0."""
    dim = graph.dim
    if not complement:
        return MeasurementBasis(dim, np.eye(dim.d), "Z")
    init = engine._init_vector(dim, graph.vertex(vid).init)
    assert np.allclose(np.abs(init), dim.d ** -0.5)
    W, N = np.diag(np.sqrt(dim.d) * init), None
    for e in graph.edges:
        if vid in (e.control, e.target):
            C1, C2, w = factor_diagonal(e.gate)
            W = W @ (C1 if e.control == vid else C2)
            N = w if N is None and dim.is_invertible(w) else N
    N = 1 if N is None else N
    B = W @ shear_gate(dim, N) @ hadamard(dim)
    for x in dim.elements[1:]:
        M = W @ xmat(dim, x) @ W.conj().T @ zmat(dim, dim.mul(N, x))
        image = M @ B
        lam = np.sum(B.conj() * image, axis=0)
        assert np.max(np.abs(image - lam * B)) <= PAULI_TOL
    return MeasurementBasis(dim, B, "local-complement")


@functools.lru_cache(maxsize=None)
def factor_diagonal(gate) -> Tuple[np.ndarray, np.ndarray, int]:
    """resource.factor_diagonal_clifford by dense products: (C1, C2, N) as
    d x d matrices and the weight, G = (C1 (x) C2) CZ^N up to global
    phase.  C1 and C2 are read off column and row 0 of theta and checked
    by clifford.diagonal_images, raising as the library does; then every
    N is tried, CZ^N = diag chi(N j k) built from DimSpec.char_phase, and
    the d^2 x d^2 product compared with the gate matrix at PAULI_TOL.
    NotCliffordError when no N fits; at most one may.  Kept per gate
    spec."""
    spec = expand(gate)
    if spec.kind != DIAGONAL:
        raise DimensionMismatch("diagonal gate required")
    dim, th = spec.dim, spec.theta
    C1 = np.diag(np.exp(1j * (th[:, 0] - th[0, 0])))
    C2 = np.diag(np.exp(1j * th[0, :]))
    for site, C in enumerate((C1, C2)):
        try:
            diagonal_images(dim, np.diag(C))
        except NotCliffordError as exc:
            label = f"{exc.generator[0]}{site}{exc.generator[2:]}"
            raise NotCliffordError(f"entangling gate is not Clifford at "
                                   f"generator {label}", generator=label)
    G = normalize_global_phase(gate_matrix(spec))
    fits = []
    for N in dim.elements:
        cz = np.diag([dim.char_phase(dim.mul(N, dim.mul(j, k)))
                      for j in dim.elements for k in dim.elements])
        cand = normalize_global_phase(np.kron(C1, C2) @ cz)
        if np.max(np.abs(cand - G)) <= PAULI_TOL:
            fits.append(N)
    if not fits:
        raise NotCliffordError("gate does not factor as (C1 x C2) CZ^N")
    assert len(fits) == 1, f"weights {fits} all fit"
    return C1, C2, fits[0]


@functools.lru_cache(maxsize=None)
def bell_basis(dim: DimSpec) -> MeasurementBasis:
    """Basis {(Z^s X^t (x) I)|Phi>}, outcome index s*d + t.  Column s*d + t
    is Z^s X^t read row by row, over sqrt(d)."""
    cols = np.column_stack([(zmat(dim, s) @ xmat(dim, t)).reshape(-1)
                            for s in dim.elements for t in dim.elements])
    return MeasurementBasis(dim, cols / np.sqrt(dim.d), "Bell", nsites=2)


# --- graph rewriting on every row ------------------------------------------

@functools.lru_cache(maxsize=None)
def _factor_certs(gate) -> tuple:
    """clifford.certify of factor_diagonal's C1 and C2, once per gate spec
    (specs compare by identity)."""
    return tuple(certify(C, gate.dim) for C in factor_diagonal(gate)[:2])


class GraphTableau:
    """Stabilizer rows of a diagonal-Clifford graph with its inits left out
    (every vertex in |0_X>), one PauliWord per row over every site.

    row(s, x) = D_s X_s(x) D_s^dag prod_u Z_u(N_us x) with exact phase, D_s
    the product of site s's edge factors C1/C2 (see factor_diagonal),
    each certified here by clifford.certify rather than read by the
    library's diagonal reader, and N_us the summed weight of its edges to
    u.  rows() lists row(s, y) for every site s and
    additive basis element y.
    """

    def __init__(self, graph: engine.ResourceGraph):
        dim = self.dim = graph.dim
        self.n = len(graph.vertices)
        site = {v.id: i for i, v in enumerate(graph.vertices)}
        self.certs: List[list] = [[] for _ in range(self.n)]
        self.weights: List[dict] = [{} for _ in range(self.n)]
        for e in graph.edges:
            c, t = site[e.control], site[e.target]
            N = factor_diagonal(e.gate)[2]
            for a, b, cert in zip((c, t), (t, c), _factor_certs(e.gate)):
                self.certs[a].append(cert)
                self.weights[a][b] = dim.add(self.weights[a].get(b, 0), N)
        self._words = {}

    def vertex_word(self, s: int, x: int) -> PauliWord:
        """D_s X(x) D_s^dag as a one-qudit word.  Each diagonal factor maps
        X(x) to a phase times Z(c) X(x), so the phases and the c add up."""
        if (s, x) not in self._words:
            z, phase = 0, 0
            for cert in self.certs[s] if x else []:
                # X(x) is word x; its image is Z(c) X(x) at cert.phase[x]
                c = int(cert.idx[x]) // self.dim.d
                z, phase = self.dim.add(z, c), phase + int(cert.phase[x])
            self._words[s, x] = PauliWord(self.dim, 1, (z,), (x,), phase)
        return self._words[s, x]

    def row(self, s: int, x: int) -> PauliWord:
        one = self.vertex_word(s, x)
        z, xs = [0] * self.n, [0] * self.n
        for u, N in self.weights[s].items():
            z[u] = self.dim.mul(N, x)
        z[s], xs[s] = one.z[0], x
        return PauliWord(self.dim, self.n, tuple(z), tuple(xs), one.phase_num)

    def rows(self) -> List[PauliWord]:
        return [self.row(s, y) for s in range(self.n)
                for y in _additive_basis(self.dim)]


def posterior_rows(tableau: GraphTableau, s: int, b: np.ndarray
                   ) -> List[PauliWord]:
    """Rows of the state the other sites keep when site s is found in the
    vector b on the rows.

    Each row(w, y) with w != s is multiplied by the row(s, z) whose product
    has a site-s part P with b as eigenvector (z = 0 for a Z basis); P is
    replaced by its eigenvalue, checked densely at PAULI_TOL and snapped
    to the exact phase lattice, and site s is dropped.  FrameMismatch when
    no z gives such a P.
    """
    dim, n = tableau.dim, tableau.n
    den = dim.phase_den
    mul, _, sub, chi = dim.tables
    # image[a, x] = Z(a) X(x) b, with eigenvalue lam[a, x] when ok[a, x]
    image = chi[mul][:, None, :] * b[sub.T][None, :, :]
    lam = image @ b.conj()
    num = np.round(np.angle(lam) * den / (2 * np.pi)).astype(int) % den
    ok = (np.max(np.abs(image - lam[..., None] * b), axis=2) <= PAULI_TOL) \
        & (np.abs(lam - np.exp(2j * np.pi * num / den)) <= PAULI_TOL)
    partner = {}

    def pick(a):
        for z in dim.elements:
            vz = tableau.vertex_word(s, z)
            if ok[dim.add(a, vz.z[0]), vz.x[0]]:
                return tableau.row(s, z) if z else None
        raise FrameMismatch("measured vector is not an eigenvector of any "
                            "stabilizer's part on the measured vertex")

    keep = [i for i in range(n) if i != s]
    out = []
    for w in keep:
        for y in _additive_basis(dim):
            word = tableau.row(w, y)
            a = word.z[s]
            if a not in partner:
                partner[a] = pick(a)
            if partner[a] is not None:
                word = normal_form(word, partner[a])
            phase = word.phase_num + int(num[word.z[s], word.x[s]])
            out.append(PauliWord(dim, n - 1, tuple(word.z[i] for i in keep),
                                 tuple(word.x[i] for i in keep), phase))
    return out


def corrected_rows(graph: engine.ResourceGraph, corrections
                   ) -> List[PauliWord]:
    """GraphTableau(graph).rows() conjugated through the corrections' dense
    diagonals, each shift's image found by diagonal_conjugate (their exact
    images are not read).  FrameMismatch for a correction that is not
    unitary or not Clifford."""
    dim = graph.dim
    rows = GraphTableau(graph).rows()
    for c in corrections:
        q = c.q
        if not np.max(np.abs(np.abs(q) - 1)) <= PAULI_TOL:
            raise FrameMismatch(f"correction on vertex {c.vertex} is not a "
                                f"diagonal unitary")
        s = graph.site_of(c.vertex)
        for i, w in enumerate(rows):
            x = w.x[s]
            if not x:
                continue
            image = diagonal_conjugate(dim, q, x)
            if image is None:
                raise FrameMismatch(f"correction on vertex {c.vertex} is "
                                    f"not Clifford")
            z = dim.add(w.z[s], image[0])
            rows[i] = PauliWord(dim, w.n, w.z[:s] + (z,) + w.z[s + 1:],
                                w.x, w.phase_num + image[1])
    return rows


def verify_rewrite(graph: engine.ResourceGraph, vid: int, b: np.ndarray,
                   new_graph: engine.ResourceGraph, corrections
                   ) -> List[PauliWord]:
    """engine._verify_rewrite on every row: the posterior rows of measuring
    vid in b, which must equal new_graph's rows conjugated through the
    corrections word for word, or FrameMismatch.  Returns those rows."""
    rows = posterior_rows(GraphTableau(graph), graph.site_of(vid), b)
    if corrected_rows(new_graph, corrections) != rows:
        raise FrameMismatch("rewritten graph and corrections do not verify")
    return rows
