"""MBQC execution: resource graphs, adaptive runs, mediators, rewriting.

All protocols are verified densely against their predicted action; a
failed verification raises FrameMismatch rather than returning silently.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameMismatch,
    NonInvertibleGcd,
    NonUnitary,
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
    matrix_of_pauli,
    normal_form,
    one_qudit_words,
    word_table,
    xmat,
    zmat,
    zx_matrix,
)
from .resource import (
    BlockFactorization,
    EntanglingGateSpec,
    cz_spec,
    expand,
    factor_block_controlled_pauli,
    factor_diagonal_clifford,
    gate_from_json,
    gate_matrix,
    gate_to_json,
    intrinsic_matrix,
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
        return sim.unit_vector(arr, d, "vertex init")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch("vertex init has a NaN or infinite entry")
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


@dataclass
class Trajectories:
    """T runs of one pattern; row t of every array is trajectory t.

    The total frame of row t is the word Z^z X^x with z * d + x =
    frame_index[t] and exact phase numerator frame_phase[t].
    """
    dim: DimSpec
    posteriors: np.ndarray           # (T, d) final head states
    frame_index: np.ndarray          # (T,)
    frame_phase: np.ndarray          # (T,)
    outcomes: np.ndarray             # (T, steps)
    probabilities: np.ndarray        # (T, steps) of the drawn outcomes
    fidelities: Optional[np.ndarray]  # (T,) when verified, else None

    def frame(self, t: int) -> PauliFrame:
        z, x = divmod(int(self.frame_index[t]), self.dim.d)
        word = PauliWord(self.dim, 1, (z,), (x,), int(self.frame_phase[t]))
        return PauliFrame(word, [(i, int(k))
                                 for i, k in enumerate(self.outcomes[t])])


@functools.lru_cache(maxsize=None)
def _z_tables(dim: DimSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Row k is the word_table of Z^{-k} w over one_qudit_words."""
    words = one_qudit_words(dim)
    rows = [word_table([normal_form(PauliWord(dim, 1, (dim.neg(k),), (0,)),
                                    w) for w in words])
            for k in dim.elements]
    tables = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    for t in tables:
        t.flags.writeable = False    # shared by every caller
    return tables


def run_trajectories(graph: ResourceGraph, pattern: MeasurementPattern,
                     psi: np.ndarray, seeds: Optional[Sequence] = None,
                     forced_outcomes: Optional[Sequence[Sequence[int]]] = None,
                     verify: bool = True) -> Trajectories:
    """Execute a measurement pattern along a chain for T trajectories.

    The input replaces the head vertex; each step entangles the current
    head with the next chain qudit and measures the head in the basis
    {D_{-psi}|k_X>}, which applies G_I Z^{-k} D_psi.  Adaptive steps
    permute the nominal phases through the frame's X part; non-adaptive
    (Clifford) steps conjugate the frame through the fixed diagonal.  All
    T trajectories advance together as (T, d, d) arrays, in blocks of at
    most sim.MAX_AMPS // d^2 rows.

    Trajectory t draws default_rng(seeds[t]).random(steps) and takes the
    outcome Generator.choice would; with forced_outcomes (T rows of one
    outcome per step) nothing is drawn.  Frames are word indices and
    exact phases moved by the certificates' frame tables.  With verify,
    row t's fidelity |<cur_t, total_t P(frame)^dag U psi>| is returned,
    and FrameMismatch is raised unless every row reaches 1 - VERIFY_TOL.
    """
    graph.validate()
    dim = pattern.dim
    d = dim.d
    order = _chain_order(graph)
    steps = pattern.steps
    S = len(steps)
    if len(order) < S + 1:
        raise DimensionMismatch("chain shorter than pattern length + 1")
    if forced_outcomes is not None:
        forced = np.asarray(forced_outcomes, dtype=np.intp)
        if forced.ndim != 2 or forced.shape[1] < S:
            raise DimensionMismatch("forced outcomes need a row of one "
                                    "outcome per step for each trajectory")
        T = len(forced)
    else:
        seeds = list(seeds)
        T = len(seeds)
    edges = sorted(graph.edges, key=lambda e: e.seq)
    plan = []
    for i, step in enumerate(steps):
        E = gate_matrix(edges[i].gate)
        sim.require_unitary(E, "operator fails the unitarity check")
        # D_{-psi} H is unitary for every finite real psi, as H is
        if not np.all(np.isfinite(step.phases)):
            raise NonUnitary(f"basis 'step{i}' is not orthonormal")
        fresh = _init_vector(dim, graph.vertex(order[i + 1]).init)
        table = None if step.adaptive \
            else certify(dphi(step.phases), dim).frame_table()
        plan.append((E.T, fresh, np.asarray(step.phases, dtype=float), table))
    words = one_qudit_words(dim)
    g_table = intrinsic_cert(pattern.intrinsic).frame_table()
    z_idx, z_phase = _z_tables(dim)
    f_idx, f_phase = word_table([normal_form(w, pattern.frame)
                                 for w in words])
    # shifted[u, x] = u - x: adaptive phases psi_t[u] = phases[u - x_t]
    shifted = np.array([[dim.add(u, dim.neg(x)) for x in dim.elements]
                        for u in dim.elements])
    H = hadamard(dim)
    psi_in = sim.unit_vector(psi, d, "input state")
    post = np.empty((T, d), dtype=complex)
    idx = np.zeros(T, dtype=np.intp)
    phase = np.zeros(T, dtype=np.int64)
    outcomes = np.zeros((T, S), dtype=np.intp)
    probabilities = np.zeros((T, S))
    block = max(1, sim.MAX_AMPS // (d * d))
    for lo in range(0, T, block):
        rows = slice(lo, min(lo + block, T))
        n = rows.stop - lo
        if forced_outcomes is None:
            u = np.array([np.random.default_rng(s).random(S)
                          for s in seeds[rows]]).reshape(n, S)
        else:
            u = np.zeros((n, S))    # unused: collapse takes the forced ones
        cur = np.broadcast_to(psi_in, (n, d))
        at = np.zeros(n, dtype=np.intp)
        ph = np.zeros(n, dtype=np.int64)
        for i, (ET, fresh, phases, table) in enumerate(plan):
            two = (cur[:, :, None] * fresh).reshape(n, d * d) @ ET
            if table is None:
                psi_t = phases[shifted[:, at % d].T]
            else:
                psi_t = phases[None, :]
            basis = np.exp(-1j * psi_t)[:, :, None] * H
            branch = np.swapaxes(basis.conj(), 1, 2) @ two.reshape(n, d, d)
            k, cur, probabilities[rows, i] = sim.collapse(
                branch, u[:, i],
                None if forced_outcomes is None else forced[rows, i])
            if table is not None:
                at, ph = table[0][at], ph + table[1][at]
            at, ph = z_idx[k, at], ph + z_phase[k, at]
            at, ph = g_table[0][at], ph + g_table[1][at]
            outcomes[rows, i] = k
        post[rows] = cur
        idx[rows], phase[rows] = f_idx[at], ph + f_phase[at]
    phase %= dim.phase_den
    fids = None
    if verify:
        v = matrix_of_pauli(pattern.frame).conj().T \
            @ pattern.dense_product() @ psi_in
        ideal = np.zeros((d * d, d), dtype=complex)
        for i in set(idx.tolist()):
            ideal[i] = zx_matrix(words[i]) @ v
            ideal[i] /= np.linalg.norm(ideal[i])
        fids = np.abs(np.sum(post.conj() * ideal[idx], axis=1))
        if not np.all(fids >= 1 - VERIFY_TOL):
            raise FrameMismatch(f"trajectory fidelity {fids.min():.12f}")
    return Trajectories(dim, post, idx, phase, outcomes, probabilities, fids)


def run_pattern(graph: ResourceGraph, pattern: MeasurementPattern,
                input_state: np.ndarray, rng=None,
                forced_outcomes: Optional[Sequence[int]] = None,
                verify: bool = True) -> Tuple[StateVector, PauliFrame]:
    """One trajectory of run_trajectories: rng seeds it (or is the
    generator it draws from), forced_outcomes gives one outcome per step.

    Returns the head state and the total frame with the outcome history;
    with verify, the head is checked to equal frame * U |input>.
    """
    runs = run_trajectories(
        graph, pattern, input_state, [rng],
        None if forced_outcomes is None else [forced_outcomes], verify)
    return StateVector(pattern.dim, 1, runs.posteriors[0]), runs.frame(0)


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

    Outcome Phi(s, t) leaves the chain head carrying G_I D_head W |psi>
    with W = Z^{-s} X^{-t}, G_I the intrinsic gate of the head's edge and
    D_head = diag(sqrt(d) * head init) its init phases (the identity for
    cz and light-shift chains, S for cx); the returned frame is W
    conjugated through G_I D_head, so that head = frame * G_I D_head |psi>
    up to phase.  A head init that is not a phase vector (a Z-basis label
    or a raw state) raises DimensionMismatch.
    """
    graph.validate()
    dim = graph.dim
    d = dim.d
    order = _chain_order(graph)
    head = graph.vertex(order[0])
    head_init = _init_vector(dim, head.init)
    if np.max(np.abs(np.abs(head_init) * np.sqrt(d) - 1)) > VERIFY_TOL:
        raise DimensionMismatch(f"head vertex {head.id} init {head.init!r} "
                                f"is not a phase vector")
    chain = build(graph)
    psi = sim.unit_vector(psi, d, "input state")
    full = StateVector(dim, chain.n + 1, np.kron(psi, chain.amps))
    head_site = graph.site_of(order[0]) + 1
    k, post, _ = sim.measure(full, bell_basis(dim), [0, head_site],
                             rng=np.random.default_rng(rng),
                             forced_outcome=forced_outcome)
    head_edge = min(graph.edges, key=lambda e: e.seq, default=None)
    G = intrinsic_matrix(head_edge.gate if head_edge else cz_spec(dim)) \
        @ np.diag(np.sqrt(d) * head_init)
    s, t = divmod(k, d)
    W = PauliWord(dim, 1, [dim.neg(s)], [dim.neg(t)], 0)
    frame = certify(G, dim).conjugate(W)
    if verify:
        if post.n != 1:
            raise DimensionMismatch(
                "dense coupling verification needs a two-vertex chain")
        ideal = matrix_of_pauli(frame) @ G @ psi
        if not (abs(np.vdot(post.amps, ideal / np.linalg.norm(ideal)))
                >= 1 - VERIFY_TOL):
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
    psi = sim.unit_vector(psi, d * d, "input state")
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
    if not (abs(np.vdot(state.amps, matrix_of_pauli(W) @ target))
            >= 1 - VERIFY_TOL):
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


def _mediator(spec: EntanglingGateSpec
              ) -> Tuple[BlockFactorization, np.ndarray, np.ndarray]:
    """(C1 x C2) CP factorization of a block gate, the mediator init
    C^dag |0_X> and the basis matrix G_C = C^dag H M(l), where C maps the
    controlled Pauli P to Z^l (NonInvertibleGcd unless l is a unit)."""
    dim = spec.dim
    bf = factor_block_controlled_pauli(spec)
    rep, l = map_pauli_to_Z(dim, bf.P.z[0], bf.P.x[0])
    if not dim.is_invertible(l):
        raise NonInvertibleGcd(f"gcd {l} is not invertible modulo {dim.d}")
    Cd = synthesize(rep).conj().T
    return bf, Cd @ xplus_state(dim), Cd @ hadamard(dim) @ mult_gate(dim, l)


def mediator_step(spec: EntanglingGateSpec, psi: np.ndarray, mode: str,
                  rng=None, forced_outcome: Optional[int] = None
                  ) -> MediatorResult:
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
    bf, phi, G = _mediator(spec)
    P = matrix_of_pauli(bf.P)
    C2 = bf.C2
    if np.max(np.abs(C2 @ P - P @ C2)) > 1e-8 and \
            np.max(np.abs(C2 - np.eye(d))) > 1e-8:
        raise NotControlledPauliForm(
            "target Clifford does not commute with the controlled Pauli")
    phi = phi / np.linalg.norm(phi)
    psi = sim.unit_vector(psi, d * d, "input state")
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
    if not (fid >= 1 - 1e-8):
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


def _cz_power(dim: DimSpec, w: int) -> EntanglingGateSpec:
    theta = np.array([[np.angle(dim.char_phase(dim.mul(dim.mul(j, k), w)))
                       for k in dim.elements] for j in dim.elements])
    return EntanglingGateSpec(dim, "diagonal", theta=theta % (2 * np.pi),
                              init_phases=np.zeros(dim.d))


def _measure_and_rewrite(graph: ResourceGraph, vid: int, basis_of, rng,
                         forced_outcome: Optional[int]
                         ) -> Tuple[StateVector, int, List[Correction],
                                    ResourceGraph]:
    """Measure a vertex in basis_of(W, N); read the rewrite off the outcome.

    Each edge e at v factors as (C1 x C2) CZ^{N_e}; C_{v,e} is v's factor
    and C_u the product of the factors that neighbor u keeps.  With
    alpha = init_v prod_e diag C_{v,e} and N_u the summed weight of v's
    edges to u, outcome vector b leaves f(sum_u N_u j_u) prod_u C_u |G-v>
    where f(s) = sum_j conj(b_j) alpha(j) chi(j s).  When g = f / f(0)
    obeys g(a + b) = g(a) g(b) chi(delta a b), this is the graph G - v
    with CZ^{delta N_u N_w} added on every neighbor pair (an existing
    pair edge is replaced by its CZ power, its C1/C2 factors moving into
    the corrections) and the correction C_u diag_j g(N_u j) on each
    neighbor u.  W = prod_e C_{v,e} and N is the weight of v's first
    edge.  An outcome whose g is not of that form (which includes
    |g| != 1 anywhere) raises FrameMismatch, and so does a corrected new
    build that differs from the posterior.
    """
    dim = graph.dim
    d = dim.d
    W = np.eye(d, dtype=complex)
    weight, kept = {}, {}
    star = [(e, *factor_diagonal_clifford(e.gate)) for e in graph.edges
            if vid in (e.control, e.target)]
    for e, C1, C2, N in star:
        Cv, Cu, u = (C1, C2, e.target) if e.control == vid \
            else (C2, C1, e.control)
        W = W @ Cv
        weight[u] = dim.add(weight.get(u, 0), N)
        kept[u] = kept.get(u, np.eye(d, dtype=complex)) @ Cu
    basis = basis_of(W, star[0][3] if star else 0)
    m, post, _ = sim.measure(build(graph), basis, graph.site_of(vid),
                             rng=np.random.default_rng(rng),
                             forced_outcome=forced_outcome)
    mul = np.array([[dim.mul(a, b) for b in dim.elements]
                    for a in dim.elements])
    add = np.array([[dim.add(a, b) for b in dim.elements]
                    for a in dim.elements])
    chi = np.array([dim.char_phase(t) for t in dim.elements])
    alpha = _init_vector(dim, graph.vertex(vid).init) * np.diag(W)
    f = (basis.vectors[:, m].conj() * alpha) @ chi[mul]
    if abs(f[0]) < VERIFY_TOL:
        raise FrameMismatch(f"outcome {m} leaves no graph state")
    g = f / f[0]
    delta = next((w for w in dim.elements if np.max(np.abs(
        g[add] - np.outer(g, g) * chi[mul[w][mul]])) < 1e-8), None)
    if delta is None:
        raise FrameMismatch(f"outcome {m} phases are not quadratic")
    reduced = _remove_vertex(graph, vid)
    edges = list(reduced.edges)
    next_seq = max((e.seq for e in edges), default=-1) + 1
    for u, w in itertools.combinations(sorted(weight), 2):
        new_w = dim.mul(delta, dim.mul(weight[u], weight[w]))
        if new_w == 0:
            continue
        for e in [e for e in edges if {e.control, e.target} == {u, w}]:
            C1, C2, N = factor_diagonal_clifford(e.gate)
            kept[e.control] = kept[e.control] @ C1
            kept[e.target] = kept[e.target] @ C2
            new_w = dim.add(new_w, N)
            edges.remove(e)
        if new_w != 0:
            edges.append(GraphEdge(u, w, _cz_power(dim, new_w), next_seq))
            next_seq += 1
    new_graph = ResourceGraph(dim, reduced.vertices, edges)
    corrections = [Correction(u, kept[u] @ np.diag(g[mul[weight[u]]]),
                              f"C g({weight[u]}*j) on {u}")
                   for u in sorted(weight)]
    if new_graph.vertices:
        check = build(new_graph)
        for c in corrections:
            check = sim.apply(check, c.operator, new_graph.site_of(c.vertex))
        if not (sim.fidelity(post, check.normalized()) >= 1 - 1e-8):
            raise FrameMismatch("rewritten graph and corrections do not "
                                "verify")
    return post, m, corrections, new_graph


def vertex_delete(graph: ResourceGraph, vid: int, rng=None,
                  forced_outcome: Optional[int] = None
                  ) -> Tuple[StateVector, int, List[Correction], ResourceGraph]:
    """Z-measure a vertex out of a diagonal-Clifford resource.

    Returns the posterior, the outcome m, the per-neighbor corrections
    (not applied) and the reduced graph.  Outcome m gives g(s) = chi(m s),
    so neighbor u's correction is C_u Z^{N_u m}: the C1/C2 factors it kept
    from its lost edges times the outcome diagonal (see
    _measure_and_rewrite).  The corrected reduced build matches the
    posterior.
    """
    graph.validate()
    z = sim.z_basis(graph.dim)
    return _measure_and_rewrite(graph, vid, lambda W, N: z, rng,
                                forced_outcome)


def local_complement(graph: ResourceGraph, vid: int, rng=None,
                     forced_outcome: Optional[int] = None
                     ) -> Tuple[StateVector, int, List[Correction],
                                ResourceGraph]:
    """Measure a vertex in its stabilizer basis, joining its neighbors.

    The measured basis is the joint eigenbasis of the commuting family
    W X(x) W^dag Z(N x), x != 0 (over GF(p^m) the x = 1 member alone can
    be degenerate), with W the product of v's edge factors and N the
    weight of its first edge.  The outcome fixes, in closed form, a
    weight delta != 0: neighbors u, w gain CZ^{delta N_u N_w} (control =
    lower vertex id) and each neighbor gets a diagonal correction (see
    _measure_and_rewrite).  A vertex without edges raises
    DimensionMismatch.
    """
    graph.validate()
    dim = graph.dim
    graph.site_of(vid)  # SiteOutOfRange before the edge check
    if not graph.neighbors(vid):
        raise DimensionMismatch(f"vertex {vid} has no edges to complement")

    def basis_of(W, N):
        family = [W @ xmat(dim, x) @ W.conj().T @ zmat(dim, dim.mul(N, x))
                  for x in dim.elements if x != 0]
        return basis_from_unitary(dim, _joint_eigenbasis(family),
                                  "local-complement")

    return _measure_and_rewrite(graph, vid, basis_of, rng, forced_outcome)


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
    _, med_init, _ = _mediator(spec)
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
