"""MBQC execution: resource graphs, adaptive runs, mediators, rewriting.

Every protocol call is one contraction of its input with a branch table
and one draw (_draw, or uniform marginals for the edge), and its
posterior is verified against the predicted action on every call: as a
vector, or, for graph rewriting, by exact equality of graph-form
stabilizer rows.  The mediator's and the edge's branch tables are also
checked against their predicted actions once, for every input at once.
Rewriting runs only on the stabilizer tableau, so it takes phase-vector
inits and diagonal Clifford edges and returns a StabilizerState, which
builds a dense vector only on request.  Nothing here simulates a whole
dense state; that oracle lives in the tests.  A failed verification
raises FrameMismatch rather than returning silently.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameMismatch,
    NonUnitary,
    NotCliffordError,
    SiteOutOfRange,
    StateTooLarge,
    UnsupportedFormalism,
)
from .galois import (
    INTEGER_RING,
    DimSpec,
    dim_from_json,
    dim_to_json,
    json_array,
    json_check,
    json_int,
)
from .gates import dphi, hadamard, shear_gate, xplus_state
from .clifford import _additive_basis, certify
from .compiler import MeasurementPattern
from .pauli import (
    PAULI_TOL,
    PauliWord,
    matrix_of_pauli,
    normal_form,
    one_qudit_words,
    word_table,
    zx_matrix,
)
from .resource import (
    VERIFY_TOL,
    EntanglingGateSpec,
    cz_power,
    cz_spec,
    expand,
    factor_certs,
    factor_diagonal_clifford,
    gate_from_json,
    gate_matrix,
    gate_to_json,
    intrinsic_of,
    mediator_of,
    mediator_tables,
)
from . import sim
from .sim import StateVector


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
            if e.gate.dim != self.dim:
                raise DimensionMismatch(
                    f"edge {e.control}-{e.target} gate is over "
                    f"{e.gate.dim.label()}, the graph over {self.dim.label()}")
        d = self.dim.d
        for v in self.vertices:
            if isinstance(v.init, (int, np.integer)):
                if not 0 <= v.init < d:
                    raise DimensionMismatch(f"vertex init {v.init} is not a "
                                            f"label in 0..{d - 1}")
            elif v.init is not None:
                arr = np.asarray(v.init)
                if arr.shape != (d,):
                    raise DimensionMismatch("vertex init length does not "
                                            "match d")
                if not (np.iscomplexobj(arr) or np.all(np.isfinite(arr))):
                    raise DimensionMismatch("vertex init has a NaN or "
                                            "infinite entry")


def _init_vector(dim: DimSpec, init) -> np.ndarray:
    """Resolve a vertex init, checked by ResourceGraph.validate, to a
    normalized state vector."""
    if init is None:
        return xplus_state(dim)
    if isinstance(init, (int, np.integer)):
        return np.eye(dim.d, dtype=complex)[init]
    if np.iscomplexobj(init):
        return sim.unit_vector(init, dim.d, "vertex init")
    return np.exp(1j * np.asarray(init, dtype=float)) * xplus_state(dim)


def _phase_diagonal(dim: DimSpec, init_v: np.ndarray) -> Optional[np.ndarray]:
    """q with init_v = diag(q)|0_X> when init_v is a phase vector (every
    entry of modulus 1/sqrt(d), at VERIFY_TOL), else None."""
    q = np.sqrt(dim.d) * init_v
    modulus = np.abs(q)
    if not (np.max(np.abs(modulus - 1)) <= VERIFY_TOL):
        return None
    return q / modulus


def chain_graph(dim: DimSpec, gate: EntanglingGateSpec, length: int,
                ) -> ResourceGraph:
    """Linear chain 0-1-...-(length-1); edges directed along the chain."""
    phases = expand(gate).init_phases
    vertices = [Vertex(i, np.array(phases, dtype=float))
                for i in range(length)]
    edges = [GraphEdge(i, i + 1, gate, i) for i in range(length - 1)]
    return ResourceGraph(dim, vertices, edges)


# --- graph-form stabilizer tableaux ---------------------------------------

def _init_phases(graph: ResourceGraph) -> np.ndarray:
    """(n, d) angles with vertex s's init diag(e^{i phases[s]})|0_X>.

    ResourceGraph.validate has checked every init.  None and real inits
    are phase vectors by construction and are read as they are; a complex
    init must be one (_phase_diagonal).  A Z-basis label or a complex init
    that is not a phase vector raises UnsupportedFormalism naming the
    vertex.
    """
    dim = graph.dim
    phases = np.zeros((len(graph.vertices), dim.d))
    for i, v in enumerate(graph.vertices):
        if isinstance(v.init, (int, np.integer)):
            raise UnsupportedFormalism(f"vertex {v.id} init {v.init} is a "
                                       f"Z-basis label, not a phase vector")
        if v.init is None:
            continue
        if not np.iscomplexobj(v.init):
            phases[i] = v.init
            continue
        q = _phase_diagonal(dim, _init_vector(dim, v.init))
        if q is None:
            raise UnsupportedFormalism(f"vertex {v.id} init is not a phase "
                                       f"vector")
        phases[i] = np.angle(q)
    return phases


def _diagonal_images(dim: DimSpec, q: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, num, ok) over every shift x: diag(q) X(x) diag(q)^dag =
    e^{2 pi i num[x] / phase_den} Z(c[x]) X(x) where ok[x], and no c fits
    where not ok[x] (diag(q) is not Clifford).

    Entries q(j + x) conj(q(j)) are matched to e^{i phi} chi(c (j + x))
    with phi snapped to the exact phase lattice, at PAULI_TOL.
    """
    den = dim.phase_den
    add, shifted_chi = _shift_tables(dim)
    # ratio[x, c, j] = q(j + x) conj(q(j)) conj(chi(c (j + x)))
    ratio = (q[add] * q.conj())[:, None, :] * shifted_chi
    num = np.round(np.angle(ratio[:, :, 0]) * den / (2 * np.pi))
    fits = np.max(np.abs(ratio - np.exp(2j * np.pi * num / den)[..., None]),
                  axis=2) <= PAULI_TOL
    c = fits.argmax(axis=1)
    return c, num[add[0], c].astype(int), fits.any(axis=1)


@functools.lru_cache(maxsize=None)
def _shift_tables(dim: DimSpec) -> Tuple[np.ndarray, np.ndarray]:
    """add[x, j] = j + x and conj(chi(c (j + x))) as [x, c, j], shared
    read-only by every _diagonal_images call."""
    mul, add, _, chi = dim.tables
    shifted_chi = chi[mul[:, add]].conj().swapaxes(0, 1)
    shifted_chi.flags.writeable = False
    return add, shifted_chi


def _forced(forced, count: int, size: int) -> List[int]:
    """Forced outcomes as count ints in 0..size-1: DimensionMismatch for
    another count, SiteOutOfRange for an entry that is not an integer or
    out of range.  Every protocol and rewrite draw checks them here."""
    try:
        given = len(forced)
    except TypeError:                # a scalar, or a 0-d array
        given = None
    if given != count:
        raise DimensionMismatch(f"{count} forced outcomes needed, got "
                                f"{forced}")
    out = []
    for k in forced:
        try:
            k = operator.index(k)
        except TypeError:
            raise SiteOutOfRange(f"forced outcome {k} is not an "
                                 f"integer") from None
        if not 0 <= k < size:
            raise SiteOutOfRange("forced outcome out of range")
        out.append(k)
    return out


def _draw(branch: np.ndarray, rng, forced_outcome: Optional[int]
          ) -> Tuple[int, np.ndarray]:
    """Outcome and normalized posterior of one row of branch amplitudes
    (D, R), drawn by sim.collapse from one random() of rng (a seed or a
    Generator), or the forced outcome (checked by _forced)."""
    if forced_outcome is None:
        k, post, _ = sim.collapse(branch[None],
                                  np.random.default_rng(rng).random(1))
    else:
        k, post, _ = sim.collapse(branch[None], None,
                                  _forced([forced_outcome], 1, len(branch)))
    return int(k[0]), post[0]


class GraphTableau:
    """Stabilizer rows of a diagonal-Clifford graph with its inits left out
    (every vertex in |0_X>).

    row(s, x) = D_s X_s(x) D_s^dag prod_u Z_u(N_us x) with exact phase, D_s
    the product of site s's certified edge factors C1/C2 (see
    factor_diagonal_clifford) and N_us the summed weight of its edges to u.
    rows() lists row(s, y) for every site s and additive basis element y;
    they generate the stabilizer group, and a group element is fixed by
    its X part, so two such states are equal iff their rows are equal.
    """

    def __init__(self, graph: ResourceGraph):
        dim = self.dim = graph.dim
        self.n = len(graph.vertices)
        site = {v.id: i for i, v in enumerate(graph.vertices)}
        self.certs: List[list] = [[] for _ in range(self.n)]
        self.weights: List[dict] = [{} for _ in range(self.n)]
        for e in graph.edges:
            c, t = site[e.control], site[e.target]
            N = factor_diagonal_clifford(e.gate)[2]
            for a, b, cert in zip((c, t), (t, c), factor_certs(e.gate)):
                self.certs[a].append(cert)
                self.weights[a][b] = dim.add(self.weights[a].get(b, 0), N)
        self._words = {}

    def vertex_word(self, s: int, x: int) -> PauliWord:
        """D_s X(x) D_s^dag as a one-qudit word.  Each diagonal factor maps
        X(x) to a phase times Z(c) X(x), so the phases and the c add up."""
        if (s, x) not in self._words:
            z, phase = 0, 0
            for cert in self.certs[s] if x else []:
                # a generator's image is stored; other letters are composed
                img = cert.images.get(f"X0^{x}") \
                    or cert.conjugate(PauliWord(self.dim, 1, (0,), (x,)))
                z, phase = self.dim.add(z, img.z[0]), phase + img.phase_num
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


@dataclass(eq=False)
class StabilizerState:
    """The state every row stabilizes (rows in graph form, as GraphTableau
    writes them), times diag(e^{i phases[s]}) on each site s.

    amps builds the normalized dense vector on demand and raises
    StateTooLarge before allocating when d^n exceeds sim.MAX_AMPS.
    """
    dim: DimSpec
    n: int
    rows: Tuple[PauliWord, ...]
    phases: np.ndarray               # (n, d) angles

    @property
    def amps(self) -> np.ndarray:
        dim, d, n = self.dim, self.dim.d, self.n
        if d ** n > sim.MAX_AMPS:
            raise StateTooLarge(f"{d}^{n} amplitudes exceed the budget")
        mul, _, sub, chi = dim.tables
        order = d if dim.kind == INTEGER_RING else dim.p

        def axis(s, vec):
            return vec.reshape(tuple(d if i == s else 1 for i in range(n)))

        def apply(word, T):
            for s in range(n):
                if word.x[s]:
                    T = np.take(T, sub[:, word.x[s]], axis=s)
            for s in range(n):
                if word.z[s]:
                    T = T * axis(s, chi[mul[word.z[s]]])
            return word.phase * T

        T = np.zeros((d,) * n, dtype=complex)
        T[(0,) * n] = 1.0
        for row in self.rows:
            # project onto the row's eigenspace: sum of its powers
            cur, acc = T, T
            for _ in range(order - 1):
                cur = apply(row, cur)
                acc = acc + cur
            T = acc
        for s in range(n):
            T = T * axis(s, np.exp(1j * self.phases[s]))
        amps = T.reshape(-1)
        return amps / np.linalg.norm(amps)


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
    fidelities: np.ndarray           # (T,) verified fidelities

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


@functools.lru_cache(maxsize=None)
def _frame_table(frame: PauliWord) -> Tuple[np.ndarray, np.ndarray]:
    """word_table of w * frame over one_qudit_words: a run's final frame."""
    words = one_qudit_words(frame.dim)
    tables = word_table([normal_form(w, frame) for w in words])
    for t in tables:
        t.flags.writeable = False    # shared by every caller
    return tables


@functools.lru_cache(maxsize=None)
def _zx_stack(dim: DimSpec) -> np.ndarray:
    """zx_matrix of every one_qudit_words entry, stacked by word index."""
    out = np.array([zx_matrix(w) for w in one_qudit_words(dim)])
    out.flags.writeable = False    # shared by every caller
    return out


def run_trajectories(graph: ResourceGraph, pattern: MeasurementPattern,
                     psi: np.ndarray, seeds: Optional[Sequence] = None,
                     forced_outcomes: Optional[Sequence[Sequence[int]]] = None
                     ) -> Trajectories:
    """Execute a measurement pattern along a chain for T trajectories.

    The input replaces the head vertex; each step entangles the current
    head with the next chain qudit and measures the head in the basis
    {D_{-psi}|k_X>}, which applies G_I Z^{-k} D_psi.  Adaptive steps
    permute the nominal phases through the frame's X part; non-adaptive
    (Clifford) steps conjugate the frame through the fixed diagonal.  All
    T trajectories advance together as (T, d, d) arrays, in blocks of at
    most sim.MAX_AMPS // d^2 rows.

    Trajectory t draws default_rng(seeds[t]).random(steps) (one
    sim.seed_uniforms pass for the block) and takes the outcome
    Generator.choice would; forced_outcomes (T rows of one outcome per
    step, each checked by _forced) draw nothing.  Frames are word indices
    and exact phases moved by the certificates' frame tables.  Row t's
    fidelity |<cur_t, total_t P(frame)^dag U psi>| is returned, and
    FrameMismatch is raised unless every row reaches 1 - VERIFY_TOL.
    StateTooLarge is raised before any per-trajectory allocation when the
    T d posterior amplitudes exceed sim.MAX_AMPS.
    """
    graph.validate()
    dim = pattern.dim
    if graph.dim != dim:
        raise DimensionMismatch(f"graph is over {graph.dim.label()}, the "
                                f"pattern over {dim.label()}")
    d = dim.d
    order = _chain_order(graph)
    steps = pattern.steps
    S = len(steps)
    if len(order) < S + 1:
        raise DimensionMismatch("chain shorter than pattern length + 1")
    T = len(seeds if forced_outcomes is None else forced_outcomes)
    if T * d > sim.MAX_AMPS:
        raise StateTooLarge(f"{T} trajectories of {d} amplitudes exceed "
                            f"the budget")
    if forced_outcomes is not None:
        forced = np.array([_forced(row, S, d) for row in forced_outcomes],
                          dtype=np.intp).reshape(T, S)
    else:
        seeds = list(seeds)
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
    g_table = pattern.intrinsic.certificate().frame_table()
    z_idx, z_phase = _z_tables(dim)
    f_idx, f_phase = _frame_table(pattern.frame)
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
            u = sim.seed_uniforms(seeds[rows], S)
        else:
            u = np.zeros((n, S))    # unused: collapse takes the forced ones
        cur = np.broadcast_to(psi_in, (n, d))
        at = np.zeros(n, dtype=np.intp)
        ph = np.zeros(n, dtype=np.int64)
        for i, (ET, fresh, phases, table) in enumerate(plan):
            two = (cur[:, :, None] * fresh).reshape(n, d * d) @ ET
            if table is None:
                # adaptive phases psi_t[u] = phases[u - x_t]
                psi_t = phases[dim.tables.sub[:, at % d].T]
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
    v = matrix_of_pauli(pattern.frame).conj().T \
        @ pattern.dense_product() @ psi_in
    W = _zx_stack(dim)
    ideal = np.zeros((d * d, d), dtype=complex)
    for i in set(idx.tolist()):
        ideal[i] = W[i] @ v
        ideal[i] /= np.linalg.norm(ideal[i])
    fids = np.abs(np.sum(post.conj() * ideal[idx], axis=1))
    if not np.all(fids >= 1 - VERIFY_TOL):
        raise FrameMismatch(f"trajectory fidelity {fids.min():.12f}")
    return Trajectories(dim, post, idx, phase, outcomes, probabilities, fids)


# --- input coupling -------------------------------------------------------

def couple_input(psi: np.ndarray, graph: ResourceGraph, rng=None,
                 forced_outcome: Optional[int] = None
                 ) -> Tuple[StateVector, PauliFrame, int]:
    """Teleport an external state into a two-vertex chain via a Bell
    measurement of the input and the chain's head.

    The chain is the edge gate on |init_head> |init_tail>.  Bell outcome
    Phi(s, t), with vector Z^s X^t / sqrt(d) read row by row, has branch
    sum_ab conj(Z^s X^t)[a, b] psi[a] chain[b, :] / sqrt(d): one
    contraction gives all d^2 branches, and the outcome is drawn from
    them as every protocol draws (_draw).  It leaves the tail carrying
    G_I D_head W |psi> with W = Z^{-s} X^{-t}, G_I the intrinsic gate of
    the edge and D_head = diag(q) the head init's phases, |init> = D_head
    |0_X> (the identity for cz and light-shift chains, S for cx).  The
    returned frame is W conjugated through D_head (its images of every
    shift X(x) found in one pass by _diagonal_images), then through G_I's
    certificate, so that the posterior is frame * G_I D_head |psi> up to
    phase, which is checked on every call.  A chain that is not two
    vertices joined by one edge, or a head init that is not a phase
    vector (a Z-basis label or a raw state), raises DimensionMismatch; a
    non-unitary edge gate raises NonUnitary, a G_I without a certificate
    raises as IntrinsicGate.certificate does, and a D_head that is not
    Clifford raises NotCliffordError naming the X generator it fails on.
    """
    graph.validate()
    dim = graph.dim
    d = dim.d
    if len(graph.vertices) != 2:
        raise DimensionMismatch(
            "dense coupling verification needs a two-vertex chain")
    order = _chain_order(graph)
    if len(order) != 2:
        raise DimensionMismatch("input coupling needs the chain's edge")
    head = graph.vertex(order[0])
    init = _init_vector(dim, head.init)
    q = _phase_diagonal(dim, init)
    if q is None:
        raise DimensionMismatch(f"head vertex {head.id} init {head.init!r} "
                                f"is not a phase vector")
    tail = _init_vector(dim, graph.vertex(order[1]).init)
    E = gate_matrix(graph.edges[0].gate)
    sim.require_unitary(E, "operator fails the unitarity check")
    chain = (E @ np.outer(init, tail).reshape(-1)).reshape(d, d)
    psi = sim.unit_vector(psi, d, "input state")
    W = _zx_stack(dim)
    branch = np.einsum("kab,a,bt->kt", W.conj(), psi, chain) / np.sqrt(d)
    k, post = _draw(branch, rng, forced_outcome)
    intrinsic = intrinsic_of(graph.edges[0].gate)
    cert = intrinsic.certificate()
    shift, nums, ok = _diagonal_images(dim, q)
    for g in _additive_basis(dim):
        if not ok[g]:
            raise NotCliffordError(f"generator X0^{g} does not conjugate to "
                                   f"a Pauli word", generator=f"X0^{g}")
    s, t = divmod(k, d)
    # D_head Z^{-s} X^{-t} D_head^dag = e^{2 pi i num / den} Z(c - s) X(-t)
    c, num = int(shift[dim.neg(t)]), int(nums[dim.neg(t)])
    frame = cert.conjugate(PauliWord(dim, 1, [dim.sub(c, s)], [dim.neg(t)],
                                     num))
    ideal = W[frame.z[0] * d + frame.x[0]] @ (intrinsic.matrix @ (q * psi))
    if not (abs(np.vdot(post, ideal / np.linalg.norm(ideal)))
            >= 1 - VERIFY_TOL):
        raise FrameMismatch("predicted coupling frame does not verify")
    return StateVector(dim, 1, post), PauliFrame(frame, [(0, k)]), k


# --- entangling through an existing edge (six-qudit cluster) --------------

def edge_frame(dim: DimSpec, k1: int, k2: int, k4: int, k5: int
               ) -> PauliWord:
    """entangle_via_edge's frame: Z^{-k1} x Z^{-k4} carried through H x H
    and CZ, times Z^{-k2} x Z^{-k5}, carried through H x H.  As H Z(a) H^dag
    = X(-a) and CZ (X(u) x X(v)) CZ^dag = chi(-uv) Z(v)X(u) x Z(u)X(v), it
    is chi(k1 k4 - k1 k2 - k4 k5) Z(k1)X(k2 - k4) x Z(k4)X(k5 - k1)."""
    sub, mul = dim.sub, dim.mul
    phase = dim.char_exp(sub(mul(k1, k4), dim.add(mul(k1, k2), mul(k4, k5))))
    return PauliWord(dim, 2, [k1, k4], [sub(k2, k4), sub(k5, k1)], phase)


def _check_edge_branches(dim: DimSpec, cz: np.ndarray, h: np.ndarray,
                         action: np.ndarray):
    """FrameMismatch unless every outcome (k1, k2, k4, k5) of
    entangle_via_edge has the branch map edge_frame(k) action / d^2, with
    its exact phase: the wires' network of CZ phases cz, contracted with
    the outcomes' X-basis vectors h[k] = <k_X|, is compared entry by entry
    with the predicted maps.  This runs one (k1, k2) slice at a time, as
    d^6 arrays (k4, k5, out0, out1, in0, in1)."""
    d = dim.d
    W = _zx_stack(dim)
    # the second wire for every (k4, k5): h[k4, e] cz[e, f] h[k5, f]
    # cz[f, g] as [k4, k5, f, g, e] (broadcast: einsum buffers d^6)
    wire = (h[:, None, :] * cz.T)[:, None, :, None, :] \
        * (h[:, :, None] * cz)[None, :, :, :, None]
    # the action (H x H) CZ (H x H) as [c, g, in0 in1], over d^2
    target = action.reshape(d, d, d * d) / d ** 2
    for k1, k2 in itertools.product(dim.elements, repeat=2):
        words = [edge_frame(dim, k1, k2, k4, k5)
                 for k4 in dim.elements for k5 in dim.elements]
        phase = np.exp(2j * np.pi / dim.phase_den
                       * np.array([w.phase_num for w in words]))
        # site 0's word depends on k4 only, site 1's on (k4, k5)
        M0 = W[[w.z[0] * d + w.x[0] for w in words[::d]]]
        M1 = W[[w.z[1] * d + w.x[1] for w in words]] * phase[:, None, None]
        # the first wire and the middle edge, with the |0_X> norms: [c, a, f]
        first = np.einsum("a,ab,b,bc,bf->caf", h[k1] / d ** 2, cz, h[k2],
                          cz, cz)
        dense = np.tensordot(first, wire, axes=([2], [2]))  # c a k4 k5 g e
        # less the predicted [k4, k5, c, g, in0 in1]: (M0 x M1) the action
        dense -= np.matmul(M1.reshape(d, d, 1, d, d), np.einsum(
            "kxc,cgz->kxgz", M0, target)[:, None]).reshape(
                (d,) * 6).transpose(2, 4, 0, 1, 3, 5)
        if not (np.abs(dense).max() <= VERIFY_TOL):
            raise FrameMismatch(f"edge outcomes ({k1}, {k2}, *, *) do not "
                                f"have the predicted branches")


@functools.lru_cache(maxsize=None)
def _edge_tables(dim: DimSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The conjugated X basis h[k] = <k_X|, the wires' psi-independent d^6
    network of CZ phases over d^2 (rows a b e f, columns c g, for the
    wires a-b-c and e-f-g joined by b-f) and the action (H x H) CZ
    (H x H); the branches are checked once per dimension
    (_check_edge_branches) and the tables shared read-only."""
    d = dim.d
    E = gate_matrix(cz_spec(dim))
    cz = np.diag(E).reshape(d, d)
    H = hadamard(dim)
    HH = np.kron(H, H)
    action = HH @ E @ HH
    h = H.conj().T
    _check_edge_branches(dim, cz, h, action)
    # cz[a, b] cz[e, f] cz[b, f] as [a, b, e, f], cz[b, c] cz[f, g] as
    # [b, f, c, g]: their product is one d^6 allocation
    heads = cz[:, :, None, None] * cz[None, None] * cz[None, :, None, :]
    tails = cz[:, None, :, None] * cz[None, :, None, :]
    net = (heads[..., None, None] / d ** 2 * tails[None, :, None]
           ).reshape(d ** 4, d * d)
    for t in (h, net, action):
        t.flags.writeable = False
    return h, net, action


def entangle_via_edge(dim: DimSpec, psi: np.ndarray, rng=None,
                      forced_outcomes: Optional[Sequence[int]] = None
                      ) -> Tuple[StateVector, PauliFrame]:
    """Apply a two-qudit entangling step through a pre-existing CZ edge.

    Two three-qudit CZ wires (sites 0-1-2 and 3-4-5) carry the two-qudit
    input at their heads; a CZ edge joins the midpoints 1 and 4.
    X-measuring the four interior qudits (outcomes k1, k2 on the first
    wire, k4, k5 on the second) leaves the tails carrying (H x H) CZ
    (H x H) |psi> up to the frame edge_frame(k1, k2, k4, k5).  Every
    outcome's branch map is that frame times the action over d^2 (checked
    once per dimension by _check_edge_branches), so every outcome has
    probability 1/d^4 for every input: the four outcomes are the
    inverse-CDF draws of rng's next four random() values on uniform
    marginals, as four sequential X measurements would draw them, or
    forced_outcomes (four, checked by _forced).  One contraction of the
    d^6 CZ network with psi and the four X-basis vectors gives the
    branch; its norm is checked to be 1/d^2 and its posterior to be the
    frame times the action on psi, on every call (FrameMismatch).
    StateTooLarge before any allocation when d^6 exceeds sim.MAX_AMPS.
    """
    d = dim.d
    if d ** 6 > sim.MAX_AMPS:
        raise StateTooLarge(f"{d}^6 amplitudes exceed the budget")
    psi = sim.unit_vector(psi, d * d, "input state")
    if forced_outcomes is None:
        u = np.random.default_rng(rng).random(4)
        cdf = np.full(d, 1 / d).cumsum()
        cdf /= cdf[-1]
        ks = (cdf <= u[:, None]).sum(axis=1).tolist()
    else:
        ks = _forced(forced_outcomes, 4, d)
    h, net, action = _edge_tables(dim)
    k1, k2, k4, k5 = ks
    branch = np.einsum("ae,a,b,e,f->abef", psi.reshape(d, d), h[k1], h[k2],
                       h[k4], h[k5]).reshape(-1) @ net
    norm = np.linalg.norm(branch)
    if not (abs(norm * d * d - 1) <= VERIFY_TOL):
        raise FrameMismatch(f"edge branch norm {norm:.12e} is not 1/{d}^2")
    frame = edge_frame(dim, k1, k2, k4, k5)
    W = _zx_stack(dim)
    M0, M1 = (W[frame.z[i] * d + frame.x[i]] for i in (0, 1))
    target = M0 @ (action @ psi).reshape(d, d) @ M1.T
    post = branch / norm
    if not (abs(np.vdot(post, target.reshape(-1))) >= 1 - VERIFY_TOL):
        raise FrameMismatch("predicted edge-entangling frame does not verify")
    return StateVector(dim, 2, post), PauliFrame(frame, list(enumerate(ks)))


# --- mediator qudits ------------------------------------------------------

@dataclass
class MediatorResult:
    posterior: StateVector
    frame: PauliFrame
    local_phases: np.ndarray
    outcome: int
    mode: str


def mediator_step(spec: EntanglingGateSpec, psi: np.ndarray, mode: str,
                  rng=None, forced_outcome: Optional[int] = None
                  ) -> MediatorResult:
    """Disconnect or entangle two computational qudits via a mediator.

    Both computational qudits act as controls of the block-diagonal gate
    onto a mediator prepared in C^{-1}|0_X> (C mapping the controlled
    Pauli P to Z^l).  Measuring the mediator in {G_C|k_X>} restores the
    product state; {G_C S^{-1}|k_X>} applies (S x S) CZ.  Both leave a
    Z^{-k} x Z^{-k} frame plus known local diagonal phases.

    The outcome is drawn from the branches W[k] * psi of the gate's
    mediator_tables (checked once against the predicted action Q) by
    _draw, and the posterior is checked against Q[k] * psi.  StateTooLarge before any table is built when d^3
    exceeds sim.MAX_AMPS.
    """
    if mode not in ("disconnect", "entangle"):
        raise DimensionMismatch(f"unknown mediator mode {mode!r}")
    dim = spec.dim
    d = dim.d
    if d ** 3 > sim.MAX_AMPS:
        raise StateTooLarge(f"{d}^3 amplitudes exceed the budget")
    W, Q = mediator_tables(spec, mode)
    psi = sim.unit_vector(psi, d * d, "input state").reshape(d, d)
    k, post = _draw((W * psi).reshape(d, d * d), rng, forced_outcome)
    predicted = (Q[k] * psi).reshape(-1)
    fid = abs(np.vdot(post, predicted / np.linalg.norm(predicted)))
    if not (fid >= 1 - VERIFY_TOL):
        raise FrameMismatch(f"mediator {mode} fidelity {fid:.12f}")
    frame = PauliWord(dim, 2, [dim.neg(k), dim.neg(k)], [0, 0], 0)
    return MediatorResult(StateVector(dim, 2, post),
                          PauliFrame(frame, [(0, k)]),
                          np.angle(mediator_of(spec)[2]), k, mode)


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


def _tableau_outcome(tableau: GraphTableau, s: int, vectors: np.ndarray,
                     rng, forced_outcome: Optional[int]) -> int:
    """Outcome of measuring site s in the basis whose column k is outcome
    k's vector on the rows (the site's init cancels there), drawn by
    _draw.

    The site's reduced state is (1/d) sum_x row(s, x)|_s over the x whose
    row has no support elsewhere (N_us x = 0 for every neighbor u): I/d
    for a vertex with an edge over a field or a prime ring.
    """
    dim = tableau.dim
    rho = np.eye(dim.d, dtype=complex) / dim.d
    for x in dim.elements[1:]:
        if all(dim.mul(N, x) == 0 for N in tableau.weights[s].values()):
            rho += matrix_of_pauli(tableau.vertex_word(s, x)) / dim.d
    weight = np.real(np.sum(vectors.conj() * (rho @ vectors), axis=0))
    return _draw(np.sqrt(np.clip(weight, 0, None))[:, None], rng,
                 forced_outcome)[0]


def _posterior_rows(tableau: GraphTableau, s: int, b: np.ndarray
                    ) -> List[PauliWord]:
    """Rows of the state the other sites keep when site s is found in the
    vector b on the rows (column m of _measure_and_rewrite's B).

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


def _corrected_rows(graph: ResourceGraph, corrections: List[Correction]
                    ) -> List[PauliWord]:
    """GraphTableau(graph).rows() conjugated through the corrections.

    A correction is a diagonal C = diag(q), so it fixes Z parts and maps
    X(x) to C X(x) C^dag = e^{i phi} Z(c) X(x) (_diagonal_images).
    FrameMismatch for a correction that is not a diagonal unitary or not
    Clifford.
    """
    dim = graph.dim
    rows = GraphTableau(graph).rows()
    for c in corrections:
        q = np.diag(c.operator)
        if not (np.max(np.abs(c.operator - np.diag(q))) <= PAULI_TOL
                and np.max(np.abs(np.abs(q) - 1)) <= PAULI_TOL):
            raise FrameMismatch(f"correction on vertex {c.vertex} is not a "
                                f"diagonal unitary")
        s = graph.site_of(c.vertex)
        shift, nums, ok = _diagonal_images(dim, q)
        for i, w in enumerate(rows):
            x = w.x[s]
            if not x:
                continue
            if not ok[x]:
                raise FrameMismatch(f"correction on vertex {c.vertex} is "
                                    f"not Clifford")
            z = dim.add(w.z[s], int(shift[x]))
            rows[i] = PauliWord(dim, w.n, w.z[:s] + (z,) + w.z[s + 1:],
                                w.x, w.phase_num + int(nums[x]))
    return rows


def _measure_and_rewrite(graph: ResourceGraph, vid: int, complement: bool,
                         rng, forced_outcome: Optional[int]
                         ) -> Tuple[StabilizerState, int, List[Correction],
                                    ResourceGraph]:
    """Measure a vertex, in Z or (complement) in its local-complement
    basis, and read the rewrite off the outcome.

    Each edge e at v factors as (C1 x C2) CZ^{N_e}; C_{v,e} is v's factor
    and C_u the product of the factors that neighbor u keeps.  W is
    prod_e C_{v,e}, N_u the summed weight of v's edges to u and N the
    weight of v's first edge.  Outcome k's vector is D_v b_k, with D_v =
    diag(sqrt(d) init_v) for v's init and b_k column k of B = W S(N) H
    (complement) or of the identity; D_v cancels on the rows, which hold
    v in |0_X>.  Outcome m leaves f(sum_u N_u j_u) prod_u C_u |G-v> where
    f(s) = sum_j conj(B_jm) W_jj chi(j s).  When g = f / f(0) obeys
    g(a + b) = g(a) g(b) chi(delta a b), this is the graph G - v with
    CZ^{delta N_u N_w} added on every neighbor pair (an existing pair edge
    is replaced by its CZ power, its C1/C2 factors moving into the
    corrections) and the correction C_u diag_j g(N_u j) on each neighbor
    u.  An outcome whose g is not of that form (which includes |g| != 1
    anywhere) raises FrameMismatch.

    Every init is a phase vector (see _init_phases, which raises
    UnsupportedFormalism before anything is allocated otherwise), a
    diagonal on |0_X> that commutes with every edge, correction and
    measurement but v's own.  So the outcome is drawn from v's reduced
    state in the GraphTableau, and the posterior is a StabilizerState
    whose rows must equal, word for word, the new graph's rows conjugated
    through the corrections, or FrameMismatch is raised.  An edge anywhere
    that is not a diagonal Clifford raises as factor_diagonal_clifford
    does (DimensionMismatch or NotCliffordError).
    """
    dim = graph.dim
    d = dim.d
    site = graph.site_of(vid)
    phases = _init_phases(graph)
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
    tableau = GraphTableau(graph)
    mul, add, _, chi = dim.tables
    B = np.eye(d, dtype=complex)
    if complement:
        B = W @ shear_gate(dim, star[0][3]) @ hadamard(dim)
        sim.require_unitary(B, "basis 'local-complement' is not orthonormal")
    m = _tableau_outcome(tableau, site, B, rng, forced_outcome)
    f = (B[:, m].conj() * np.diag(W)) @ chi[mul]
    if abs(f[0]) < VERIFY_TOL:
        raise FrameMismatch(f"outcome {m} leaves no graph state")
    g = f / f[0]
    delta = next((w for w in dim.elements if np.max(np.abs(
        g[add] - np.outer(g, g) * chi[mul[w][mul]])) <= PAULI_TOL), None)
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
            edges.append(GraphEdge(u, w, cz_power(dim, new_w), next_seq))
            next_seq += 1
    new_graph = ResourceGraph(dim, reduced.vertices, edges)
    corrections = [Correction(u, kept[u] @ np.diag(g[mul[weight[u]]]),
                              f"C g({weight[u]}*j) on {u}")
                   for u in sorted(weight)]
    rows = _posterior_rows(tableau, site, B[:, m])
    if _corrected_rows(new_graph, corrections) != rows:
        raise FrameMismatch("rewritten graph and corrections do not verify")
    post = StabilizerState(dim, len(new_graph.vertices), tuple(rows),
                           np.delete(phases, site, axis=0))
    return post, m, corrections, new_graph


def vertex_delete(graph: ResourceGraph, vid: int, rng=None,
                  forced_outcome: Optional[int] = None
                  ) -> Tuple[StabilizerState, int, List[Correction],
                             ResourceGraph]:
    """Z-measure a vertex out of a diagonal-Clifford resource.

    Returns the posterior StabilizerState, the outcome m, the per-neighbor
    corrections (not applied) and the reduced graph.  Outcome m gives
    g(s) = chi(m s), so neighbor u's correction is C_u Z^{N_u m}: the
    C1/C2 factors it kept from its lost edges times the outcome diagonal
    (see _measure_and_rewrite).  The corrected reduced graph is checked to
    be the posterior.  Every init must be a phase vector and every edge a
    diagonal Clifford (see _measure_and_rewrite for the errors).
    """
    graph.validate()
    return _measure_and_rewrite(graph, vid, False, rng, forced_outcome)


def local_complement(graph: ResourceGraph, vid: int, rng=None,
                     forced_outcome: Optional[int] = None
                     ) -> Tuple[StabilizerState, int, List[Correction],
                                ResourceGraph]:
    """Measure a vertex in its stabilizer basis, joining its neighbors.

    Outcome k is the vector D_v W S(N) |k_X>, column k of D_v W S(N) H:
    W is the product of v's edge factors, D_v = diag(sqrt(d) init_v) for
    its phase-vector init (the identity for None), N the weight of its
    first edge, S(N) = shear_gate(dim, N) and H = hadamard(dim).  As
    S(N) X(x) S(N)^dag is X(x) Z(N x) up to phase, these are joint
    eigenvectors of D_v W X(x) W^dag D_v^dag Z(N x) for every x.  The
    outcome fixes, in closed form, a weight delta != 0: neighbors u, w
    gain CZ^{delta N_u N_w} (control = lower vertex id) and each neighbor
    gets a diagonal correction (see _measure_and_rewrite, which also names
    the inits and edges it rejects).  The posterior is a StabilizerState.
    A vertex without edges raises DimensionMismatch.
    """
    graph.validate()
    graph.site_of(vid)  # SiteOutOfRange before the edge check
    if not graph.neighbors(vid):
        raise DimensionMismatch(f"vertex {vid} has no edges to complement")
    return _measure_and_rewrite(graph, vid, True, rng, forced_outcome)


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
    phases = expand(gate).init_phases
    med_init = mediator_of(gate)[0]

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
    obj = json_check(obj, dict, "graph")
    dim = dim_from_json(obj["dim"])
    d = dim.d
    vertices = []
    for v in json_check(obj["vertices"], list, "vertices"):
        v = json_check(v, dict, "vertex")
        init = v.get("init")
        if isinstance(init, dict):
            init = json_check(init, dict, "init")
            init = json_array(init["re"], (d,), "init re") \
                + 1j * json_array(init["im"], (d,), "init im")
        elif isinstance(init, list):
            init = json_array(init, (d,), "init")
        elif init is not None:
            init = json_int(init, "vertex init")
        vertices.append(Vertex(json_int(v["id"], "vertex id"), init))
    edges = []
    for e in json_check(obj["edges"], list, "edges"):
        e = json_check(e, dict, "edge")
        edges.append(GraphEdge(json_int(e["c"], "edge c"),
                               json_int(e["t"], "edge t"),
                               gate_from_json(e["gate"]),
                               json_int(e["seq"], "edge seq")))
    return ResourceGraph(dim, vertices, edges)
