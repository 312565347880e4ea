"""MBQC execution: resource graphs, adaptive runs, mediators, rewriting.

All protocols are verified densely against their predicted action; a
failed verification raises FrameMismatch rather than returning silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameMismatch,
    NonInvertibleGcd,
    NotControlledPauliForm,
    SiteOutOfRange,
)
from .galois import (
    DimSpec,
    dim_from_json,
    dim_to_json,
    json_array,
    json_check,
    json_int,
)
from .gates import dphi, hadamard, mult_gate, sgate, xplus_state
from .clifford import certify, map_pauli_to_Z, synthesize
from .compiler import MeasurementPattern, intrinsic_cert
from .pauli import (
    PauliWord,
    identity_word,
    matrix_of_pauli,
    normal_form,
    xmat,
    zmat,
)
from .resource import (
    EntanglingGateSpec,
    cz_spec,
    expand,
    factor_block_controlled_pauli,
    factor_diagonal_clifford,
    gate_from_json,
    gate_matrix,
    gate_to_json,
    intrinsic_of,
)
from . import sim
from .sim import StateVector, basis_from_unitary, x_basis

VERIFY_TOL = 1e-9


# --- resource graphs ------------------------------------------------------

@dataclass
class Vertex:
    """Graph vertex; init is a phase vector, a Z-basis label, or a raw state."""
    id: int
    init: Union[np.ndarray, int, None] = None


@dataclass
class GraphEdge:
    control: int
    target: int
    gate: EntanglingGateSpec
    seq: int


@dataclass
class ResourceGraph:
    dim: DimSpec
    vertices: List[Vertex]
    edges: List[GraphEdge]

    def site_of(self, vid: int) -> int:
        for i, v in enumerate(self.vertices):
            if v.id == vid:
                return i
        raise SiteOutOfRange(f"vertex {vid} not in graph")

    def vertex(self, vid: int) -> Vertex:
        return self.vertices[self.site_of(vid)]

    def neighbors(self, vid: int) -> List[int]:
        out = []
        for e in self.edges:
            if e.control == vid:
                out.append(e.target)
            elif e.target == vid:
                out.append(e.control)
        return sorted(set(out))

    def validate(self):
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise DimensionMismatch("duplicate vertex ids")
        seqs = [e.seq for e in self.edges]
        if len(set(seqs)) != len(seqs):
            raise DimensionMismatch("edge seq indices must be a total order")
        for e in self.edges:
            if e.control not in ids or e.target not in ids:
                raise SiteOutOfRange("edge endpoint not in vertex list")
            if e.control == e.target:
                raise SiteOutOfRange("self-loop edge")


def _init_vector(dim: DimSpec, init) -> np.ndarray:
    """Resolve a vertex init to a normalized state vector."""
    d = dim.d
    if init is None:
        return xplus_state(dim)
    if isinstance(init, (int, np.integer)):
        v = np.zeros(d, dtype=complex)
        v[int(init)] = 1.0
        return v
    arr = np.asarray(init)
    if arr.shape != (d,):
        raise DimensionMismatch("vertex init length does not match d")
    if np.iscomplexobj(arr):
        return np.asarray(arr, dtype=complex) / np.linalg.norm(arr)
    return dphi(arr.astype(float)) @ xplus_state(dim)


def chain_graph(dim: DimSpec, gate: EntanglingGateSpec, length: int,
                ) -> ResourceGraph:
    """Linear chain 0-1-...-(length-1); edges directed along the chain."""
    phases = expand(gate).init_phases
    vertices = [Vertex(i, np.array(phases, dtype=float))
                for i in range(length)]
    edges = [GraphEdge(i, i + 1, gate, i) for i in range(length - 1)]
    return ResourceGraph(dim, vertices, edges)


def build(graph: ResourceGraph) -> StateVector:
    """Dense resource state: vertex inits, then gates in seq order."""
    graph.validate()
    dim = graph.dim
    vecs = [_init_vector(dim, v.init) for v in graph.vertices]
    state = sim.product_state(dim, vecs)
    for e in sorted(graph.edges, key=lambda e: e.seq):
        state = sim.apply(state, gate_matrix(e.gate),
                          [graph.site_of(e.control), graph.site_of(e.target)])
    return state


def stabilizer_deviation(graph: ResourceGraph, state: StateVector) -> float:
    """Max |1 - <g_v>| over the per-vertex stabilizer generators.

    For a graph built from (C1 x C2) CZ^N edges the generator at v is
    P_v(|N_in|, |N_out|) prod_u Z_u^N with P_v the conjugated X.
    """
    dim = graph.dim
    worst = 0.0
    facts = {id(e): factor_diagonal_clifford(e.gate) for e in graph.edges}
    for v in graph.vertices:
        n_out = [e for e in graph.edges if e.control == v.id]
        n_in = [e for e in graph.edges if e.target == v.id]
        for x in dim.elements:
            if x == 0:
                continue
            W = np.eye(dim.d, dtype=complex)
            for e in n_out:
                W = W @ facts[id(e)][0]
            for e in n_in:
                W = W @ facts[id(e)][1]
            op_v = W @ xmat(dim, x) @ W.conj().T
            cur = sim.apply(state, op_v, graph.site_of(v.id))
            for e in n_out + n_in:
                u = e.target if e.control == v.id else e.control
                N = facts[id(e)][2]
                cur = sim.apply(cur, zmat(dim, dim.mul(N, x)),
                                graph.site_of(u))
            worst = max(worst, abs(1 - np.vdot(state.amps, cur.amps)))
    return worst


# --- pattern execution ----------------------------------------------------

@dataclass
class PauliFrame:
    """Accumulated by-product word plus the outcome history that built it."""
    word: PauliWord
    history: List[Tuple[int, int]] = field(default_factory=list)


def _chain_order(graph: ResourceGraph) -> List[int]:
    """Vertex ids along a path graph, following edge seq order."""
    edges = sorted(graph.edges, key=lambda e: e.seq)
    order = [edges[0].control] if edges else [graph.vertices[0].id]
    for e in edges:
        if e.control != order[-1]:
            raise DimensionMismatch("graph is not a forward chain")
        order.append(e.target)
    return order


def run_pattern(graph: ResourceGraph, pattern: MeasurementPattern,
                input_state: np.ndarray, rng=None,
                forced_outcomes: Optional[Sequence[int]] = None,
                verify: bool = True) -> Tuple[StateVector, PauliFrame]:
    """Execute a measurement pattern along a chain, tracking the frame.

    The input replaces the head vertex; each step entangles the current
    head with the next chain qudit and measures the head in the basis
    {D_{-psi}|k_X>}, which applies G_I Z^{-k} D_psi.  Adaptive steps
    permute the nominal phases through the frame's X part; non-adaptive
    (Clifford) steps conjugate the frame through the fixed diagonal; both
    conjugations use Clifford certificates, not dense matrices.
    """
    graph.validate()
    dim = pattern.dim
    d = dim.d
    order = _chain_order(graph)
    steps = pattern.steps
    if len(order) < len(steps) + 1:
        raise DimensionMismatch("chain shorter than pattern length + 1")
    gen = np.random.default_rng(rng)
    g_cert = intrinsic_cert(pattern.intrinsic)
    d_certs = [None if step.adaptive else certify(dphi(step.phases), dim)
               for step in steps]
    H = hadamard(dim)
    cur = np.asarray(input_state, dtype=complex).reshape(d)
    cur = cur / np.linalg.norm(cur)
    psi_in = cur.copy()
    frame = identity_word(dim, 1)
    history: List[Tuple[int, int]] = []
    edges = sorted(graph.edges, key=lambda e: e.seq)
    for i, step in enumerate(steps):
        fresh = _init_vector(dim, graph.vertex(order[i + 1]).init)
        two = sim.product_state(dim, [cur, fresh])
        two = sim.apply(two, gate_matrix(edges[i].gate), [0, 1])
        x = frame.x[0]
        if step.adaptive:
            psi = np.array([step.phases[dim.add(u, dim.neg(x))]
                            for u in range(d)])
        else:
            psi = np.asarray(step.phases, dtype=float)
        basis = basis_from_unitary(dim, dphi(-psi) @ H, f"step{i}")
        forced = None if forced_outcomes is None else forced_outcomes[i]
        k, post, _ = sim.measure(two, basis, 0, rng=gen,
                                 forced_outcome=forced)
        cur = post.amps
        zk = PauliWord(dim, 1, [dim.neg(k)], [0], 0)
        w = normal_form(zk, frame if step.adaptive
                        else d_certs[i].conjugate(frame))
        frame = g_cert.conjugate(w)
        history.append((i, k))
    total = normal_form(frame, pattern.frame)
    if verify:
        ideal = matrix_of_pauli(total) @ matrix_of_pauli(
            pattern.frame).conj().T @ pattern.dense_product() @ psi_in
        fid = abs(np.vdot(cur, ideal / np.linalg.norm(ideal)))
        if fid < 1 - VERIFY_TOL:
            raise FrameMismatch(f"trajectory fidelity {fid:.12f}")
    return StateVector(dim, 1, cur), PauliFrame(total, history)


# --- input coupling -------------------------------------------------------

def bell_basis(dim: DimSpec) -> sim.MeasurementBasis:
    """Basis {(Z^s X^t (x) I)|Phi>}, outcome index s*d + t."""
    d = dim.d
    phi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        phi[k * d + k] = 1 / np.sqrt(d)
    cols = np.zeros((d * d, d * d), dtype=complex)
    for s in range(d):
        for t in range(d):
            op = np.kron(zmat(dim, s) @ xmat(dim, t), np.eye(d))
            cols[:, s * d + t] = op @ phi
    return sim.MeasurementBasis(dim, cols, "Bell", nsites=2)


def couple_input(psi: np.ndarray, graph: ResourceGraph, rng=None,
                 forced_outcome: Optional[int] = None,
                 verify: bool = True) -> Tuple[StateVector, PauliFrame, int]:
    """Teleport an external state into a built chain via a Bell measurement.

    Outcome Phi(s, t) leaves the chain head carrying G_I W |psi> with
    W = Z^{-s} X^{-t}; the returned frame is W conjugated through G_I, so
    that head = frame * G_I |psi> up to phase.
    """
    graph.validate()
    dim = graph.dim
    d = dim.d
    order = _chain_order(graph)
    chain = build(graph)
    psi = np.asarray(psi, dtype=complex).reshape(d)
    psi = psi / np.linalg.norm(psi)
    full = StateVector(dim, chain.n + 1,
                       np.kron(psi, chain.amps))
    head_site = graph.site_of(order[0]) + 1
    k, post, _ = sim.measure(full, bell_basis(dim), [0, head_site],
                             rng=np.random.default_rng(rng),
                             forced_outcome=forced_outcome)
    intr = intrinsic_of(graph.edges[0].gate if graph.edges
                        else cz_spec(dim))
    s, t = divmod(k, d)
    W = PauliWord(dim, 1, [dim.neg(s)], [dim.neg(t)], 0)
    frame = intrinsic_cert(intr).conjugate(W)
    if verify:
        if post.n != 1:
            raise DimensionMismatch(
                "dense coupling verification needs a two-vertex chain")
        ideal = matrix_of_pauli(frame) @ intr.matrix @ psi
        if abs(np.vdot(post.amps, ideal / np.linalg.norm(ideal))) \
                < 1 - VERIFY_TOL:
            raise FrameMismatch("predicted coupling frame does not verify")
    return post, PauliFrame(frame, [(0, k)]), k


# --- entangling through an existing edge (six-qudit cluster) --------------

def entangle_via_edge(dim: DimSpec, psi: np.ndarray, rng=None,
                      forced_outcomes: Optional[Sequence[int]] = None
                      ) -> Tuple[StateVector, PauliFrame]:
    """Apply a two-qudit entangling step through a pre-existing CZ edge.

    Two three-qudit CZ wires carry the two-qudit input at their heads; a
    CZ edge joins the wire midpoints.  X-measuring the four interior
    qudits leaves the tails carrying (H x H) CZ (H x H) |psi> up to a
    Pauli frame (each wire contributes two Hadamard teleports around the
    shared edge).  The frame is Z^{-k1} x Z^{-k4} carried through H x H
    and CZ, times Z^{-k2} x Z^{-k5}, carried through H x H.
    """
    d = dim.d
    psi = np.asarray(psi, dtype=complex).reshape(d * d)
    psi = psi / np.linalg.norm(psi)
    gate = cz_spec(dim)
    vertices = [Vertex(i, None) for i in range(1, 7)]
    edges = [GraphEdge(1, 2, gate, 0), GraphEdge(2, 3, gate, 1),
             GraphEdge(4, 5, gate, 2), GraphEdge(5, 6, gate, 3),
             GraphEdge(2, 5, gate, 4)]
    graph = ResourceGraph(dim, vertices, edges)
    plus = xplus_state(dim)
    # input occupies vertices 1 and 4; remaining vertices start in |+>
    T = np.einsum("ad,b,c,e,f->abcdef", psi.reshape(d, d),
                  plus, plus, plus, plus)
    state = StateVector(dim, 6, T.reshape(-1))
    for e in edges:
        state = sim.apply(state, gate_matrix(e.gate),
                          [graph.site_of(e.control), graph.site_of(e.target)])
    gen = np.random.default_rng(rng)
    history: List[Tuple[int, int]] = []
    # measure vertices 1, 2, 4, 5; sites shift as qudits are consumed
    for i, vid in enumerate([1, 2, 4, 5]):
        site = {1: 0, 2: 0, 4: 1, 5: 1}[vid]
        forced = None if forced_outcomes is None else forced_outcomes[i]
        k, state, _ = sim.measure(state, x_basis(dim), site, rng=gen,
                                  forced_outcome=forced)
        history.append((i, k))
    HH = np.kron(hadamard(dim), hadamard(dim))
    cz = gate_matrix(gate)
    hh_cert, cz_cert = certify(HH, dim, 2), certify(cz, dim, 2)
    k1, k2, k4, k5 = (k for _, k in history)
    heads = PauliWord(dim, 2, [dim.neg(k1), dim.neg(k4)], [0, 0], 0)
    mids = PauliWord(dim, 2, [dim.neg(k2), dim.neg(k5)], [0, 0], 0)
    W = hh_cert.conjugate(normal_form(
        mids, cz_cert.conjugate(hh_cert.conjugate(heads))))
    target = HH @ cz @ HH @ psi
    if abs(np.vdot(state.amps, matrix_of_pauli(W) @ target)) < 1 - VERIFY_TOL:
        raise FrameMismatch("predicted edge-entangling frame does not verify")
    return state, PauliFrame(W, history)


# --- mediator qudits ------------------------------------------------------

@dataclass
class MediatorResult:
    posterior: StateVector
    frame: PauliFrame
    local_phases: np.ndarray
    outcome: int
    mode: str


def mediator_step(spec: EntanglingGateSpec, psi: np.ndarray, mode: str,
                  rng=None, forced_outcome: Optional[int] = None,
                  mediator_init: Optional[np.ndarray] = None,
                  g_mediator: Optional[np.ndarray] = None) -> MediatorResult:
    """Disconnect or entangle two computational qudits via a mediator.

    Both computational qudits act as controls of the block-diagonal gate
    onto a mediator prepared in C^{-1}|0_X> (C mapping the controlled
    Pauli P to Z^l).  Measuring the mediator in {G_C|k_X>} restores the
    product state; {G_C S^{-1}|k_X>} applies (S x S) CZ.  Both leave a
    Z^{-k} x Z^{-k} frame plus known local diagonal phases.
    """
    if mode not in ("disconnect", "entangle"):
        raise DimensionMismatch(f"unknown mediator mode {mode!r}")
    spec = expand(spec)
    dim = spec.dim
    d = dim.d
    if spec.kind == "diagonal":
        blocks = [np.diag(np.exp(1j * spec.theta[j])) for j in range(d)]
        spec = EntanglingGateSpec(dim, "block_diagonal", blocks=blocks,
                                  init_phases=spec.init_phases)
    bf = factor_block_controlled_pauli(spec)
    P = matrix_of_pauli(bf.P)
    C2 = bf.C2
    if np.max(np.abs(C2 @ P - P @ C2)) > 1e-8 and \
            np.max(np.abs(C2 - np.eye(d))) > 1e-8:
        raise NotControlledPauliForm(
            "target Clifford does not commute with the controlled Pauli")
    m, n = bf.P.z[0], bf.P.x[0]
    rep, l = map_pauli_to_Z(dim, m, n)
    if not dim.is_invertible(l):
        raise NonInvertibleGcd(f"gcd {l} is not invertible modulo {d}")
    if mediator_init is None or g_mediator is None:
        C = synthesize(rep)
        mediator_init = C.conj().T @ xplus_state(dim)
        g_mediator = C.conj().T @ hadamard(dim) @ mult_gate(dim, l)
    phi = np.asarray(mediator_init, dtype=complex).reshape(d)
    phi = phi / np.linalg.norm(phi)
    G = np.asarray(g_mediator, dtype=complex)
    psi = np.asarray(psi, dtype=complex).reshape(d * d)
    psi = psi / np.linalg.norm(psi)
    E = gate_matrix(spec)
    state = StateVector(dim, 3, np.kron(psi, phi))
    state = sim.apply(state, E, [0, 2])
    state = sim.apply(state, E, [1, 2])
    basis_mat = G if mode == "disconnect" \
        else G @ np.linalg.inv(sgate(dim))
    basis = basis_from_unitary(dim, basis_mat @ hadamard(dim), mode)
    k, post, _ = sim.measure(state, basis, 2,
                             rng=np.random.default_rng(rng),
                             forced_outcome=forced_outcome)
    # predicted local diagonal: control phases times the conjugation phases
    c = np.zeros(d, dtype=complex)
    Pk = np.eye(d, dtype=complex)
    for s in range(d):
        overlap = np.vdot(G[:, s], Pk @ phi)
        if abs(abs(overlap) - 1) > 1e-8:
            raise FrameMismatch(
                "mediator init is not mapped to the G_C basis by the Pauli")
        c[s] = overlap
        Pk = Pk @ P
    Dloc = np.diag(np.exp(1j * bf.thetas) * c)
    A = Dloc @ zmat(dim, dim.neg(k))
    predicted = np.kron(A, A) @ psi
    if mode == "entangle":
        S = sgate(dim)
        predicted = np.kron(A @ S, A @ S) @ gate_matrix(cz_spec(dim)) @ psi
    fid = abs(np.vdot(post.amps, predicted / np.linalg.norm(predicted)))
    if fid < 1 - 1e-8:
        raise FrameMismatch(f"mediator {mode} fidelity {fid:.12f}")
    frame = PauliWord(dim, 2, [dim.neg(k), dim.neg(k)], [0, 0], 0)
    return MediatorResult(post, PauliFrame(frame, [(0, k)]),
                          np.angle(np.diag(Dloc)), k, mode)


# --- graph rewriting ------------------------------------------------------

@dataclass
class Correction:
    vertex: int
    operator: np.ndarray
    label: str


def _remove_vertex(graph: ResourceGraph, vid: int) -> ResourceGraph:
    vertices = [v for v in graph.vertices if v.id != vid]
    edges = [e for e in graph.edges if vid not in (e.control, e.target)]
    return ResourceGraph(graph.dim, vertices, edges)


def vertex_delete(graph: ResourceGraph, vid: int, rng=None,
                  forced_outcome: Optional[int] = None
                  ) -> Tuple[StateVector, int, List[Correction], ResourceGraph]:
    """Z-measure a vertex out of a diagonal-Clifford resource.

    Returns the posterior, the outcome, the per-neighbor corrections
    (leftover C1/C2 factors and outcome diagonals, not applied), and the
    reduced graph.  The corrected reduced build matches the posterior.
    """
    graph.validate()
    dim = graph.dim
    state = build(graph)
    m, post, _ = sim.measure(state, sim.z_basis(dim), graph.site_of(vid),
                             rng=np.random.default_rng(rng),
                             forced_outcome=forced_outcome)
    reduced = _remove_vertex(graph, vid)
    corrections: List[Correction] = []
    for e in graph.edges:
        if vid not in (e.control, e.target):
            continue
        C1, C2, N = factor_diagonal_clifford(e.gate)
        if e.control == vid:
            u = e.target
            op = C2 @ zmat(dim, dim.mul(N, m))
            label = f"C2 Z^{{{N}*{m}}} on {u} (lost incoming edge)"
        else:
            u = e.control
            op = C1 @ zmat(dim, dim.mul(N, m))
            label = f"C1 Z^{{{N}*{m}}} on {u} (lost outgoing edge)"
        corrections.append(Correction(u, op, label))
    if reduced.vertices:
        check = build(reduced)
        for c in corrections:
            check = sim.apply(check, c.operator, reduced.site_of(c.vertex))
        if sim.fidelity(post.normalized(), check.normalized()) < 1 - 1e-8:
            raise FrameMismatch("vertex deletion corrections do not verify")
    return post, m, corrections, reduced


def _edge_weight_graph(graph: ResourceGraph, vid: int, delta: int,
                       direction: str) -> ResourceGraph:
    """Reduced graph with mutual neighbor edges of weight delta added."""
    dim = graph.dim
    reduced = _remove_vertex(graph, vid)
    if delta == 0:
        return reduced
    nbrs = graph.neighbors(vid)
    base = expand(graph.edges[0].gate)
    edges = list(reduced.edges)
    next_seq = max((e.seq for e in edges), default=-1) + 1
    for u, w in itertools.combinations(sorted(nbrs), 2):
        existing = [e for e in edges
                    if {e.control, e.target} == {u, w}]
        old = factor_diagonal_clifford(existing[0].gate)[2] if existing else 0
        new_w = dim.add(old, delta)
        for e in existing:
            edges.remove(e)
        if new_w == 0:
            continue
        theta = np.array([[np.angle(dim.char_phase(dim.mul(
            dim.mul(j, k), new_w))) for k in dim.elements]
            for j in dim.elements]) % (2 * np.pi)
        wspec = EntanglingGateSpec(dim, "diagonal", theta=theta,
                                   init_phases=np.zeros(dim.d))
        c, t = (u, w) if direction == "low" else (w, u)
        edges.append(GraphEdge(c, t, wspec, next_seq))
        next_seq += 1
    return ResourceGraph(dim, reduced.vertices, edges)


def local_complement(graph: ResourceGraph, vid: int, rng=None,
                     forced_outcome: Optional[int] = None,
                     direction: str = "low"
                     ) -> Tuple[StateVector, int, List[Correction],
                                ResourceGraph]:
    """Measure a vertex in its stabilizer basis, joining its neighbors.

    The measured basis is the joint eigenbasis of the commuting family
    P_v(x) Z_v^{N x}, x != 0 (over GF(p^m) the x = 1 member alone can be
    degenerate); neighbors gain mutual CZ^w
    edges (weight found by dense search over candidate weights), with a
    per-neighbor local correction from products S^a Z^b X^c, searched
    exhaustively.  New edges default to control = lower vertex id.
    """
    graph.validate()
    dim = graph.dim
    d = dim.d
    state = build(graph)
    n_out = sum(1 for e in graph.edges if e.control == vid)
    n_in = sum(1 for e in graph.edges if e.target == vid)
    C1, C2, N = factor_diagonal_clifford(graph.edges[0].gate)
    W = np.linalg.matrix_power(C1, n_out) @ np.linalg.matrix_power(C2, n_in)
    family = [W @ xmat(dim, x) @ W.conj().T @ zmat(dim, dim.mul(N, x))
              for x in dim.elements if x != 0]
    basis = basis_from_unitary(dim, _joint_eigenbasis(family),
                               "local-complement")
    m, post, _ = sim.measure(state, basis, graph.site_of(vid),
                             rng=np.random.default_rng(rng),
                             forced_outcome=forced_outcome)
    nbrs = graph.neighbors(vid)
    S = sgate(dim)
    singles = [(a, b, c,
                np.linalg.matrix_power(S, a) @ zmat(dim, b) @ xmat(dim, c))
               for a in range(d) for b in range(d) for c in range(d)]
    for delta in list(range(d)):
        cand = _edge_weight_graph(graph, vid, delta, direction)
        if not cand.vertices:
            continue
        target = build(cand)
        # search per-neighbor corrections greedily site by site, then jointly
        found = _correction_search(dim, post, target, cand, nbrs, singles)
        if found is not None:
            return post, m, found, cand
    raise FrameMismatch("no candidate graph + local corrections verify")


def _joint_eigenbasis(family: List[np.ndarray]) -> np.ndarray:
    """Orthonormal joint eigenbasis of commuting unitaries.

    Columns follow the descending eigenphase of the first member; each of
    its degenerate eigenspaces is split by a generic combination of the
    other members.
    """
    vals, vecs = np.linalg.eig(family[0])
    order = np.argsort(-np.angle(vals))
    vals = vals[order]
    q, _ = np.linalg.qr(vecs[:, order])
    coeffs = np.random.default_rng(0).standard_normal((len(family) - 1, 2))
    mix = sum((a + 1j * b) * M for (a, b), M in zip(coeffs, family[1:]))
    for i, v in enumerate(vals):
        cluster = np.flatnonzero(np.abs(vals - v) < 1e-6)
        if len(cluster) > 1 and cluster[0] == i:
            sub = q[:, cluster]
            w, u = np.linalg.eig(sub.conj().T @ mix @ sub)
            u, _ = np.linalg.qr(u[:, np.argsort(-np.angle(w))])
            q[:, cluster] = sub @ u
    return q


def _correction_search(dim: DimSpec, post: StateVector, target: StateVector,
                       cand: ResourceGraph, nbrs: List[int],
                       singles) -> Optional[List[Correction]]:
    """Joint exhaustive search for per-neighbor S^a Z^b X^c corrections."""
    sites = [cand.site_of(u) for u in nbrs]
    for combo in itertools.product(singles, repeat=len(nbrs)):
        check = target
        for (a, b, c, op), site in zip(combo, sites):
            check = sim.apply(check, op, site)
        if abs(np.vdot(post.amps, check.amps)) \
                / (post.norm() * check.norm()) > 1 - 1e-8:
            return [Correction(u, op, f"S^{a} Z^{b} X^{c}")
                    for (a, b, c, op), u in zip(combo, nbrs)]
    return None


# --- lattice templates ----------------------------------------------------

def diagonal_lattice(dim: DimSpec, rows: int, cols: int,
                     gate: EntanglingGateSpec) -> ResourceGraph:
    """Rectangular lattice with row- and column-directed diagonal edges."""
    phases = expand(gate).init_phases

    def vid(r, c):
        return r * cols + c

    vertices = [Vertex(vid(r, c), np.array(phases, dtype=float))
                for r in range(rows) for c in range(cols)]
    edges = []
    seq = 0
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(GraphEdge(vid(r, c), vid(r, c + 1), gate, seq))
                seq += 1
            if r + 1 < rows:
                edges.append(GraphEdge(vid(r, c), vid(r + 1, c), gate, seq))
                seq += 1
    return ResourceGraph(dim, vertices, edges)


def mediated_lattice(dim: DimSpec, rows: int, cols: int,
                     gate: EntanglingGateSpec) -> ResourceGraph:
    """Horizontal computational chains joined by mediator target qudits."""
    spec = expand(gate)
    bf = factor_block_controlled_pauli(spec)
    rep, l = map_pauli_to_Z(dim, bf.P.z[0], bf.P.x[0])
    if not dim.is_invertible(l):
        raise NonInvertibleGcd(f"gcd {l} is not invertible modulo {dim.d}")
    C = synthesize(rep)
    med_init = C.conj().T @ xplus_state(dim)
    phases = spec.init_phases

    def vid(r, c):
        return r * cols + c

    vertices = [Vertex(vid(r, c), np.array(phases, dtype=float))
                for r in range(rows) for c in range(cols)]
    edges = []
    seq = 0
    for r in range(rows):
        for c in range(cols - 1):
            edges.append(GraphEdge(vid(r, c), vid(r, c + 1), gate, seq))
            seq += 1
    next_id = rows * cols
    for r in range(rows - 1):
        for c in range(cols):
            vertices.append(Vertex(next_id, med_init))
            edges.append(GraphEdge(vid(r, c), next_id, gate, seq))
            seq += 1
            edges.append(GraphEdge(vid(r + 1, c), next_id, gate, seq))
            seq += 1
            next_id += 1
    return ResourceGraph(dim, vertices, edges)


# --- JSON -----------------------------------------------------------------

def graph_to_json(graph: ResourceGraph) -> dict:
    verts = []
    for v in graph.vertices:
        if v.init is None:
            init = None
        elif isinstance(v.init, (int, np.integer)):
            init = int(v.init)
        elif np.iscomplexobj(np.asarray(v.init)):
            init = {"re": [float(x.real) for x in np.asarray(v.init)],
                    "im": [float(x.imag) for x in np.asarray(v.init)]}
        else:
            init = [float(x) for x in np.asarray(v.init)]
        verts.append({"id": v.id, "init": init})
    return {
        "dim": dim_to_json(graph.dim),
        "vertices": verts,
        "edges": [{"c": e.control, "t": e.target,
                   "gate": gate_to_json(e.gate), "seq": e.seq}
                  for e in graph.edges],
    }


def graph_from_json(obj: dict) -> ResourceGraph:
    json_check(obj, dict, "graph")
    dim = dim_from_json(obj["dim"])
    d = dim.d
    vertices = []
    for v in json_check(obj["vertices"], list, "vertices"):
        init = json_check(v, dict, "vertex").get("init")
        if isinstance(init, dict):
            init = json_array(init["re"], (d,), "init re") \
                + 1j * json_array(init["im"], (d,), "init im")
        elif isinstance(init, list):
            init = json_array(init, (d,), "init")
        elif init is not None and (not isinstance(init, int)
                                   or not 0 <= init < d):
            raise DimensionMismatch(f"vertex init {init!r} is not a label "
                                    f"in 0..{d - 1}")
        vertices.append(Vertex(json_int(v["id"], "vertex id"), init))
    edges = []
    for e in json_check(obj["edges"], list, "edges"):
        json_check(e, dict, "edge")
        edges.append(GraphEdge(json_int(e["c"], "edge c"),
                               json_int(e["t"], "edge t"),
                               gate_from_json(e["gate"]),
                               json_int(e["seq"], "edge seq")))
    return ResourceGraph(dim, vertices, edges)
