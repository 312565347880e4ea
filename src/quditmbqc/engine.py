"""MBQC execution: resource graphs, adaptive runs, mediators, rewriting.

A resource graph is immutable and validated where it is built (its
constructor, and so dataclasses.replace, graph_from_json and the lattice
builders); a changed graph is derived with dataclasses.replace or the
constructor.  So no call that takes a graph validates it again, and the
facts derived from a graph (its id index, its adjacency lists, its
vertex tables, its chain and couple_input's step and frame words) are
kept on it and cannot go stale.

Every protocol call and trajectory step is one contraction of its input
with a branch table and one draw, bisect_right on a CDF at a uniform,
kept (sim.kept_cdf) where it does not depend on the state: a rewrite's
star rule's, or the uniform one per outcome count (_uniform_cdf) for the
mediator, the coupling, the edge and a uniform trajectory step, whose
branch tables are checked once, for every input at once, to give each
outcome probability 1/d (1/d^2 for the coupling); any other trajectory
step reads each row's own CDF (_weighted_step).  A protocol's or
rewrite's uniforms are sim.seed_row(rng, count); a trajectory run's are
the rows of one Generator (run_trajectories).  The edge protocol is
two transport wires joined by one rung: its four X measurements are the
trajectory step's table (_step_table), applied on either side of its
input.  A posterior is verified against the predicted action on every
call: as a vector, or, for graph rewriting, by exact equality of
graph-form stabilizer rows.
Pauli frames move by index arithmetic, read from word tables built once
(clifford.CliffordCert): a diagonal's from its images
(clifford.diagonal_cert; the engine certifies nothing densely), G_I's
from its certificate, a trajectory step through its diagonal's table (a
Clifford step's) and then the move table every step shares; the
mediator's d frame words are kept on its spec.  Words act on vectors by
index too (X(x) a gather at sub[:, x], Z(z) a product with chi[mul[z]]):
no table here has d^4 entries, and each entry checks the budget of its
d^3 ones on entry.
Rewriting runs only on the stabilizer tableau, so it takes phase-vector
inits and diagonal Clifford edges, each read as its gate's factor
diagonals, their exact images and its weight (factor_diagonal_clifford).
Measuring a vertex changes only the rows of its neighbours, so a rewrite
builds and compares those rows, as integer rows on the neighbours'
columns: the rows it builds, and the edges and inits it reads, follow
the vertex's degree, not the graph's size.  What they read of the
vertex's star alone, each outcome's corrections and new pair weights
included, is built once per star signature (_StarRule); each vertex's
table is built on its first read and kept on its graph, and a rewrite's
output starts with none.  It returns a StabilizerState: the
new graph and its corrections, each a diagonal with its exact images,
added up from integer tables in closed form, and nothing more.  Nothing
here builds a posterior's full rows, a correction's dense operator or a
whole dense state; those views live in the tests' oracle,
tests/dense_oracle.py.
A failed verification raises FrameMismatch rather than returning silently.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameMismatch,
    NonUnitary,
    SiteOutOfRange,
    UnsupportedFormalism,
)
from .galois import (
    DimSpec,
    budget,
    dim_from_json,
    dim_to_json,
    json_array,
    json_check,
    json_int,
)
from .gates import hadamard, shear_gate, xplus_state
from .clifford import _additive_basis, _diagonal_images, diagonal_cert
from .compiler import MeasurementPattern
from .pauli import PAULI_TOL, PauliWord, matrix_of_pauli
from .resource import (
    VERIFY_TOL,
    EntanglingGateSpec,
    _per_spec,
    _read_only,
    cz_power,
    cz_spec,
    expand,
    factor_diagonal_clifford,
    gate_from_json,
    gate_to_json,
    intrinsic_of,
    mediator_of,
    mediator_tables,
    unitary_blocks,
)
from . import sim
from .sim import StateVector


# --- resource graphs ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Vertex:
    """Graph vertex; init is a phase vector, a Z-basis label, or a raw state.
    Immutable, compared by identity; an array init is copied read-only
    unless it is read-only and owns its memory (a spec's init_phases)."""
    id: int
    init: Union[np.ndarray, int, None] = None

    def __post_init__(self):
        init = self.init
        if not (init is None or isinstance(init, (int, np.integer)) or
                isinstance(init, np.ndarray) and init.flags.owndata
                and not init.flags.writeable):
            init = np.array(init)
            init.flags.writeable = False
            object.__setattr__(self, "init", init)


@dataclass(frozen=True, eq=False)
class GraphEdge:
    control: int
    target: int
    gate: EntanglingGateSpec
    seq: int


@dataclass(frozen=True, eq=False)
class ResourceGraph:
    """Vertices and edges, validated where the graph is built: by its
    constructor, and so by dataclasses.replace, graph_from_json and the
    lattice builders.  Immutable (tuples of frozen vertices and edges) and
    compared by identity, so the facts derived from it, such as its id
    index and adjacency lists, are kept on it (_facts).  A rewrite's
    output graph is valid by construction and skips the check (_derived)."""
    dim: DimSpec
    vertices: Tuple[Vertex, ...]
    edges: Tuple[GraphEdge, ...]
    _facts: Dict[str, object] = field(default_factory=dict, init=False,
                                      repr=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        self.validate()

    @classmethod
    def _derived(cls, dim: DimSpec, vertices: tuple, edges: tuple,
                 **facts) -> "ResourceGraph":
        """A graph valid by construction, not validated again, its _facts
        seeded with facts."""
        graph = object.__new__(cls)
        for key, value in (("dim", dim), ("vertices", vertices),
                           ("edges", edges), ("_facts", facts)):
            object.__setattr__(graph, key, value)
        return graph

    def site_of(self, vid: int) -> int:
        site = self._facts.get("site")
        if site is None:
            site = self._facts["site"] = {v.id: i for i, v in
                                          enumerate(self.vertices)}
        try:
            return site[vid]
        except KeyError:
            raise SiteOutOfRange(f"vertex {vid} not in graph") from None

    def vertex(self, vid: int) -> Vertex:
        return self.vertices[self.site_of(vid)]

    def neighbors(self, vid: int) -> List[int]:
        self.site_of(vid)    # SiteOutOfRange for an id not in the graph
        return sorted({e.target if e.control == vid else e.control
                       for e in _adjacency(self)[vid]})

    def validate(self):
        """DimensionMismatch or SiteOutOfRange for duplicate ids or seqs,
        an edge that is a self-loop, leaves the vertex list or is over
        another dimension, or an init that is a label out of range, of
        another length than d, or real with a NaN or infinite entry."""
        site = {v.id: i for i, v in enumerate(self.vertices)}
        if len(site) != len(self.vertices):
            raise DimensionMismatch("duplicate vertex ids")
        seqs = {e.seq for e in self.edges}
        if len(seqs) != len(self.edges):
            raise DimensionMismatch("edge seq indices must be a total order")
        dim = self.dim
        for e in self.edges:
            if e.control not in site or e.target not in site:
                raise SiteOutOfRange("edge endpoint not in vertex list")
            if e.control == e.target:
                raise SiteOutOfRange("self-loop edge")
            if e.gate.dim is not dim and e.gate.dim != dim:
                raise DimensionMismatch(
                    f"edge {e.control}-{e.target} gate is over "
                    f"{e.gate.dim.label()}, the graph over {dim.label()}")
        d = dim.d
        # each distinct init once: lattice vertices share their spec's
        for v in {id(v.init): v for v in self.vertices}.values():
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
        self._facts["site"] = site


def _adjacency(graph: ResourceGraph) -> Dict[int, tuple]:
    """Vertex id -> the edges at it, in graph order; built once per graph
    (a rewrite seeds its output's)."""
    adj = graph._facts.get("adjacency")
    if adj is None:
        lists = {v.id: [] for v in graph.vertices}
        for e in graph.edges:
            lists[e.control].append(e)
            lists[e.target].append(e)
        adj = graph._facts["adjacency"] = {vid: tuple(es) for vid, es
                                           in lists.items()}
    return adj


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
    """Linear chain 0-1-...-(length-1): the one-row diagonal_lattice."""
    return diagonal_lattice(dim, 1, length, gate)


# --- graph-form stabilizer tableaux ---------------------------------------

def _vertex_phases(dim: DimSpec, v: Vertex) -> np.ndarray:
    """(d,) angles with v's init diag(e^{i phases})|0_X>.

    ResourceGraph.validate has checked the init.  None and real inits are
    phase vectors by construction and are read as they are; a complex init
    must be one (_phase_diagonal).  A Z-basis label or a complex init that
    is not a phase vector raises UnsupportedFormalism naming the vertex.
    """
    if isinstance(v.init, (int, np.integer)):
        raise UnsupportedFormalism(f"vertex {v.id} init {v.init} is a "
                                   f"Z-basis label, not a phase vector")
    if v.init is None:
        return np.zeros(dim.d)
    if not np.iscomplexobj(v.init):
        return np.asarray(v.init, dtype=float)
    q = _phase_diagonal(dim, _init_vector(dim, v.init))
    if q is None:
        raise UnsupportedFormalism(f"vertex {v.id} init is not a phase "
                                   f"vector")
    return np.angle(q)


def _init_phases(graph: ResourceGraph) -> np.ndarray:
    """(n, d) angles, row s vertex s's _vertex_phases."""
    phases = np.zeros((len(graph.vertices), graph.dim.d))
    for i, v in enumerate(graph.vertices):
        phases[i] = _vertex_phases(graph.dim, v)
    return phases


def _require_tableau(graph: ResourceGraph, star: Sequence[GraphEdge]):
    """Raise unless the graph has graph-form rows: UnsupportedFormalism
    for the first init that is not a phase vector (_vertex_phases, read
    for label and complex inits only), then as factor_diagonal_clifford
    (DimensionMismatch or NotCliffordError) for the first edge that is not
    a diagonal Clifford, the star's edges first.  Checked once per graph;
    a rewrite's output, which only loses vertices and gains CZ powers,
    inherits the check."""
    if "tableau" in graph._facts:
        return
    for v in graph.vertices:
        if isinstance(v.init, (int, np.integer)) or np.iscomplexobj(v.init):
            _vertex_phases(graph.dim, v)
    # a gate fails or passes wherever its edges are, so each is read once
    for gate in dict.fromkeys(e.gate for e in (*star, *graph.edges)):
        factor_diagonal_clifford(gate)
    graph._facts["tableau"] = True


def _forced(forced, count: int, size: int) -> List[int]:
    """Forced outcomes as count ints in 0..size-1: DimensionMismatch for
    another count, SiteOutOfRange for an entry that is not an integer (a
    bool included) or out of range.  Every protocol and rewrite draw
    checks them here."""
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
            # a bool, Python's or numpy's, is not an outcome
            if isinstance(k, (bool, np.bool_)):
                raise TypeError
            k = operator.index(k)
        except TypeError:
            raise SiteOutOfRange(f"forced outcome {k} is not an "
                                 f"integer") from None
        if not 0 <= k < size:
            raise SiteOutOfRange("forced outcome out of range")
        out.append(k)
    return out


def _draw(probs: list, cdf: list, rng, forced: Optional[Sequence[int]],
          count: int = 1) -> List[int]:
    """count outcomes of rows with these kept outcome probabilities and
    CDF (sim.kept_cdf): one bisect_right of the CDF for each of
    default_rng(rng)'s next count random() values, drawn by sim.seed_row
    with no Generator built for an int seed, the inverse-CDF rule of
    Generator.choice, or the count forced outcomes (checked by _forced
    and sim.check_forced)."""
    if forced is None:
        return [bisect.bisect_right(cdf, u)
                for u in sim.seed_row(rng, count)]
    ks = _forced(forced, count, len(probs))
    for k in ks:
        sim.check_forced(probs, k)
    return ks


def _branch_posterior(B: np.ndarray, k: int, D: int, predicted: np.ndarray,
                      what: str) -> np.ndarray:
    """Row k of the branch rows B (the whole branch, or the drawn row
    alone), one of D outcomes drawn off the uniform CDF, normalized;
    FrameMismatch unless its weight, read off B's reduction, is 1/D and it
    is predicted up to phase."""
    w = np.add.reduce(np.square(np.abs(B)), axis=1)[k]
    if not (abs(w * D - 1) <= VERIFY_TOL):
        raise FrameMismatch(f"{what} weight {w:.12e} is not 1/{D}")
    post = B[k] / math.sqrt(w)
    overlap, norm = abs(np.vdot(post, predicted)), sim.vector_norm(predicted)
    if not (overlap >= (1 - VERIFY_TOL) * norm):
        raise FrameMismatch(f"{what} fidelity {overlap / norm:.12f}")
    return post


def _vertex_table(dim: DimSpec, images) -> Tuple[List[int], List[int]]:
    """(z, num) over every shift x: D X(x) D^dag = e^{2 pi i num[x] /
    phase_den} Z(z[x]) X(x) for D the product of the diagonals whose exact
    images are images (None for one that fixes every X(x)).  Each diagonal
    maps X(x) to a phase times Z(c) X(x), so the c and the phases add up."""
    add = dim.ints.add
    images = [image for image in images if image is not None]
    z, num = images.pop() if images else ([0] * len(add), [0] * len(add))
    for cz, cnum in images:
        z = [add[a][b] for a, b in zip(z, cz)]
        num = [a + b for a, b in zip(num, cnum)]
    return list(z), list(num)


def _tableau(graph: ResourceGraph, ids: Sequence[int]
             ) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """The graph-form tableau of the vertices ids, on their own columns:
    (weights, z, num), weights[i][j] the summed weight of the edges between
    ids[i] and ids[j] and z[i], num[i] ids[i]'s vertex table, the
    _vertex_table of the images of the edge factors it keeps (q1's as
    control, q2's as target; see factor_diagonal_clifford).  Only the
    edges at ids are read, through the graph's adjacency lists.  A table
    is built on its first read and kept on the graph, never mutated."""
    add = graph.dim.ints.add
    adj = _adjacency(graph)
    tables = graph._facts.setdefault("tables", {})
    local = {vid: i for i, vid in enumerate(ids)}
    weights = [[0] * len(ids) for _ in ids]
    zs, nums = [], []
    for row, vid in zip(weights, ids):
        table, images = tables.get(vid), []
        for e in adj[vid]:
            own = e.control == vid
            j = local.get(e.target if own else e.control)
            if j is None and table:
                continue
            *factors, N = factor_diagonal_clifford(e.gate)
            if j is not None:
                row[j] = add[row[j]][N]
            images.append(factors[0 if own else 1][1])
        if table is None:
            table = tables[vid] = _vertex_table(graph.dim, images)
        zs.append(table[0])
        nums.append(table[1])
    return weights, zs, nums


def _graph_rows(dim: DimSpec, tableau, sites: Sequence[int],
                xs: Sequence[int]) -> List[Tuple[List[int], List[int], int]]:
    """(z, x, num) of row(s, x) for s in sites and x in xs, s major, on the
    tableau's columns: the word's Z and X exponents as int lists and its
    exact phase numerator.

    row(s, x) = D_s X_s(x) D_s^dag prod_u Z_u(N_us x), D_s the product of
    site s's edge factors and N_us the summed weight of its edges to u.
    The rows row(s, y) for every site s and additive basis element y
    generate the stabilizer group of the graph with every vertex in |0_X>,
    and a group element is fixed by its X part, so two such states are
    equal iff their rows are equal.
    """
    mul = dim.ints.mul
    weights, vz, vnum = tableau
    rows = []
    for s in sites:
        for x in xs:
            z = [mul[N][x] for N in weights[s]]
            xv = [0] * len(z)
            z[s], xv[s] = vz[s][x], x
            rows.append((z, xv, vnum[s][x]))
    return rows


@dataclass(eq=False)
class StabilizerState:
    """The state a rewrite leaves: the graph state of graph (its inits left
    out, every vertex in |0_X>) conjugated through the diagonal corrections,
    times diag(e^{i phases[s]}) on each site s, the phases of the graph's
    own inits: a graph and local diagonals, as a graph-state simulator
    keeps them.  Its rows and its dense vector are built by the tests'
    oracle, not here."""
    graph: ResourceGraph
    corrections: List[Correction]

    @property
    def phases(self) -> np.ndarray:
        """(n, d) angles of the kept inits (_init_phases), built on
        request."""
        return _init_phases(self.graph)

    @property
    def n(self) -> int:
        return len(self.graph.vertices)


# --- pattern execution ----------------------------------------------------

@dataclass
class PauliFrame:
    """Accumulated by-product word plus the outcome history that built it."""
    word: PauliWord
    history: List[Tuple[int, int]] = field(default_factory=list)


def _chain(graph: ResourceGraph) -> Tuple[tuple, tuple]:
    """Vertex ids along a path graph and its edges, both in edge seq order;
    DimensionMismatch unless it is a nonempty chain, no vertex met twice.
    Kept on the graph."""
    chain = graph._facts.get("chain")
    if chain is not None:
        return chain
    if not graph.vertices:
        raise DimensionMismatch("graph has no vertices")
    edges = sorted(graph.edges, key=lambda e: e.seq)
    order = [edges[0].control] if edges else [graph.vertices[0].id]
    for e in edges:
        if e.control != order[-1] or e.target in order:
            raise DimensionMismatch("graph is not a forward chain")
        order.append(e.target)
    chain = graph._facts["chain"] = (tuple(order), tuple(edges))
    return chain


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
    fidelities: np.ndarray           # (T,) verified fidelities

    def frame(self, t: int) -> PauliFrame:
        z, x = divmod(int(self.frame_index[t]), self.dim.d)
        word = PauliWord(self.dim, 1, (z,), (x,), int(self.frame_phase[t]))
        return PauliFrame(word, [(i, int(k))
                                 for i, k in enumerate(self.outcomes[t])])


def _step_table(dim: DimSpec, gate: EntanglingGateSpec, init
                ) -> Tuple[np.ndarray, bool]:
    """One transport step folded into a read-only d x d^2 table, and
    whether it is uniform.  The edge gate is E = sum_a |a><a| (x) U_a,
    controlled by the measured head, so its d blocks (unitary_blocks, not
    the d^4 matrix), the fresh vertex's state and the X basis fold into
    table[a, (k, r)] = conj(H)[a, k] (U_a fresh)[r]: outcome k takes the
    head psi to sum_a psi[a] table[a, (k, :)], unnormalized.  uniform is
    whether every outcome weighs 1/d for every input (a Z-basis label on
    a diagonal edge's vertex does not)."""
    d = dim.d
    Uf = unitary_blocks(gate) @ _init_vector(dim, init)
    # outcome k's map T_k = conj(H)[:, k] Uf^T has T_k^dag T_k = I/d,
    # so weight 1/d on every input, iff the rows U_a fresh are
    # orthonormal
    deviation = np.abs(Uf.conj() @ Uf.T - np.eye(d)).max()
    table = hadamard(dim).conj()[:, :, None] * Uf[:, None]
    return _read_only(table.reshape(d, d * d)), bool(deviation <= VERIFY_TOL)


@_per_spec
def _spec_step(gate: EntanglingGateSpec) -> Tuple[np.ndarray, bool]:
    """_step_table of a vertex holding the expanded gate's own init."""
    return _step_table(gate.dim, gate, gate.init_phases)


def _vertex_step(dim: DimSpec, gate: EntanglingGateSpec, init) -> tuple:
    """_spec_step for the expanded gate's own init (every chain_graph
    vertex), else a new _step_table onto init."""
    own = init is expand(gate).init_phases
    return _spec_step(gate) if own else _step_table(dim, gate, init)


def _trajectory_plan(graph: ResourceGraph, pattern: MeasurementPattern
                     ) -> tuple:
    """What run_trajectories reads: per step (table, uniform, rows, diag),
    a frame (word index a, phase) moving first to diag[0][a], adding
    diag[1][a] (a Clifford step's diagonal_cert idx and phase, None for
    an adaptive step), then on outcome k to nxt[a, k], adding dph[a, k]
    (the certificate's move_table, which every step shares); and (f_idx,
    f_ph), the final move through F.  (table, uniform) is _vertex_step's,
    once per (gate, init) in the call; rows[x] = e^{i phases[u - x]} over u, read at the
    frame word's X part x = a mod d, all from one np.exp (a Clifford
    step's rows are its phases).  NonUnitary for phases that are not all
    finite."""
    dim, d = pattern.dim, pattern.dim.d
    order, edges = _chain(graph)
    _, add, sub, _ = dim.tables
    # every word index z * d + x as (z, x)
    z, x = np.divmod(np.arange(d * d), d)
    phases = np.array([step.phases for step in pattern.steps],
                      dtype=float).reshape(-1, d)
    # D_{-psi} H is unitary for every finite real psi, as H is
    finite = np.isfinite(phases).all(axis=1)
    e = np.exp(1j * np.where(finite[:, None], phases, 0.0))
    tables, plan, shifted = {}, [], e[:, sub.T]
    for i, step in enumerate(pattern.steps):
        gate, init = edges[i].gate, graph.vertex(order[i + 1]).init
        key = (gate, (init.dtype.str, init.tobytes())
               if isinstance(init, np.ndarray) else init)
        if key not in tables:
            tables[key] = _vertex_step(dim, gate, init)
        if not finite[i]:
            raise NonUnitary(f"basis 'step{i}' is not orthonormal")
        if step.adaptive:
            plan.append((*tables[key], shifted[i], None))
            continue
        diag = diagonal_cert(dim, e[i])
        plan.append((*tables[key], np.broadcast_to(e[i], (d, d)),
                     (diag.idx, diag.phase)))
    F, ints = pattern.frame, dim.ints
    fz, fx = F.z[0], F.x[0]
    # Z(z) X(x) F = chi(-fz x) Z(z + fz) X(x + fx) F's phase
    f_swap = np.array([ints.char_exp[ints.neg[t]] for t in ints.mul[fz]])
    return (plan, pattern.intrinsic.certificate().move_table(),
            (add[z, fz] * d + add[x, fx], f_swap[x] + F.phase_num))


def _weighted_step(branch: np.ndarray, u: Optional[np.ndarray], i: int,
                   k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(outcomes, normalized posteriors) of step i (n, d, d) that is not
    uniform: row t takes bisect_right of its own CDF at u[t, i] or,
    without u, the forced outcome k[t], checked by sim.check_forced."""
    w = np.add.reduce(np.square(np.abs(branch)), axis=2)
    probs = w / np.add.reduce(w, axis=1, keepdims=True)
    picks = np.arange(len(w))
    if u is None:
        t = probs[picks, k].argmin()
        sim.check_forced(probs[t], k[t])
    else:
        cdf = np.add.accumulate(
            probs / np.add.reduce(probs, axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        k = np.add.reduce(cdf <= u[:, i, None], axis=1)
    return k, branch[picks, k] / np.sqrt(w[picks, k])[:, None]


def run_trajectories(graph: ResourceGraph, pattern: MeasurementPattern,
                     psi: np.ndarray, rng=None, trials: Optional[int] = None,
                     forced_outcomes: Optional[Sequence[Sequence[int]]] = None
                     ) -> Trajectories:
    """Execute a measurement pattern along a chain for T trajectories.

    The input replaces the head vertex; each step entangles the current
    head with the next chain qudit and measures the head in the basis
    {D_{-psi}|k_X>}, which applies G_I Z^{-k} D_psi.  The step is folded
    into one d x d^2 table, so all T trajectories advance together, in
    blocks of at most sim.MAX_AMPS // d^2 rows, by one (T, d) @ (d, d^2)
    product, O(d^3) per row, of their heads times their phase rows; rows,
    branches and frame moves (_trajectory_plan) are gathered by take.

    The T = trials trajectories draw from one Generator, default_rng(rng)
    (an int seed or a Generator, which is advanced): each block draws its
    rows' uniforms by gen.random((n, steps)) in turn, so trajectory t's
    are row t of default_rng(rng).random((T, steps)) whatever the block
    size, and a run's rows are a prefix of a longer run's.  Each step
    takes bisect_right of a CDF at its uniform: a uniform step the CDF
    kept per d, for the whole block by one np.searchsorted, its posterior
    the drawn branch times sqrt(d); any other step each row's own CDF
    (_weighted_step).  forced_outcomes (T rows of one outcome per step,
    each checked by _forced) draw nothing; trials, a non-negative integer,
    or forced_outcomes must be given, and trials, if given too, must be
    their count (DimensionMismatch).  Posteriors are normalized after the last step.
    Row t's overlap <cur_t, e^{2 pi i frame_phase_t / phase_den} total_t
    P(frame)^dag U psi> reads its ideal off every word on v, the normalized
    ideal output, by index, d^3 entries: FrameMismatch unless its modulus,
    the returned fidelity, reaches 1 - VERIFY_TOL and its phase is row
    0's, at VERIFY_TOL.  StateTooLarge past the budget of the d^3 tables,
    S d^2 phase rows or T d posterior amplitudes, before any is built.
    """
    dim = pattern.dim
    d = dim.d
    budget(d ** 3, "{}^3 step table entries", d)
    if graph.dim != dim:
        raise DimensionMismatch(f"graph is over {graph.dim.label()}, the "
                                f"pattern over {dim.label()}")
    S = len(pattern.steps)
    budget(S * d * d, "{} x {}^2 phase row entries", S, d)
    if len(_chain(graph)[0]) < S + 1:
        raise DimensionMismatch("chain shorter than pattern length + 1")
    if forced_outcomes is None:
        if trials is None:
            raise DimensionMismatch("trials or forced_outcomes must be given")
        if type(trials) is bool or not isinstance(trials, (int, np.integer)) \
                or trials < 0:
            raise DimensionMismatch(f"trials must be a non-negative integer, "
                                    f"not {trials!r}")
        T, gen = trials, np.random.default_rng(rng)
    else:
        T, gen = len(forced_outcomes), None
        if trials not in (None, T):
            raise DimensionMismatch(f"{trials} trials, but {T} rows of "
                                    f"forced outcomes")
    budget(T * d, "{} x {} posterior amplitudes", T, d)
    if forced_outcomes is not None:
        outcomes = np.array([_forced(row, S, d) for row in forced_outcomes],
                            dtype=np.intp).reshape(T, S)
    else:
        outcomes = np.empty((T, S), dtype=np.intp)
    plan, (nxt, dph), (f_idx, f_ph) = _trajectory_plan(graph, pattern)
    psi_in = sim.unit_vector(psi, d, "input state")
    cdf = np.array(_uniform_cdf(d)[1])
    post = np.empty((T, d), dtype=complex)
    idx = np.zeros(T, dtype=np.intp)
    phase = np.zeros(T, dtype=np.int64)
    block = max(1, sim.MAX_AMPS // (d * d))
    for lo in range(0, T, block):
        rows = slice(lo, min(lo + block, T))
        n = rows.stop - lo
        u = None
        if gen is not None:
            u = gen.random((n, S))
            outcomes[rows] = np.searchsorted(cdf, u, side="right")
        cur = psi_in[None]    # broadcast over the block's rows
        at = np.zeros(n, dtype=np.intp)
        ph = np.zeros(n, dtype=np.int64)
        heads = np.arange(0, n * d, d)    # row t's branch k is row t d + k
        for i, (table, uniform, phase_rows, diag) in enumerate(plan):
            # wrap reads row a mod d, the X part of frame word a
            branch = (cur * phase_rows.take(at, 0, mode="wrap")) @ table
            k = outcomes[rows, i]
            if uniform:
                cur = branch.reshape(n * d, d).take(heads + k, axis=0) \
                    * math.sqrt(d)
            else:
                k, cur = _weighted_step(branch.reshape(n, d, d), u, i, k)
                outcomes[rows, i] = k
            if diag is not None:
                at, ph = diag[0].take(at), ph + diag[1].take(at)
            at = at * d + k
            at, ph = nxt.take(at), ph + dph.take(at)
        post[rows] = cur / np.linalg.norm(cur, axis=1)[:, None]
        idx[rows] = f_idx[at]
        phase[rows] = ph + f_ph[at]
    phase %= dim.phase_den
    F, (mul, add, sub, chi) = pattern.frame, dim.tables
    # v = (F.phase Z(fz) X(fx))^dag U psi, and every word's ideal, by index
    v = (np.conj(F.phase * chi[mul[F.z[0]]])[:, None]
         * pattern.dense_product())[add[:, F.x[0]]] @ psi_in
    ideal = chi[mul][:, None] * (v / sim.vector_norm(v))[sub.T]
    overlap = np.add.reduce(post.conj() * ideal.reshape(-1, d)[idx], axis=1)
    fids = np.abs(overlap)
    if not np.all(fids >= 1 - VERIFY_TOL):
        raise FrameMismatch(f"trajectory fidelity {fids.min():.12f}")
    # the phase of <post_t, e^{2 pi i phase_t / den} P(frame_t) v>, against
    # row 0's: a complex init's global phase is the same in every row
    turn = overlap / fids * np.exp(2j * np.pi / dim.phase_den * phase)
    turn = np.abs(turn - turn[:1])
    if not np.all(turn <= VERIFY_TOL):
        raise FrameMismatch(f"trajectory frame phase is {turn.max():.3e} "
                            f"off row 0's")
    return Trajectories(dim, post, idx, phase, outcomes, fids)


# --- input coupling -------------------------------------------------------

def _coupling(graph: ResourceGraph) -> tuple:
    """What couple_input reads of its graph alone, built on its first call
    and kept on it: the head's step onto the tail at outcome 0, step[a, r]
    = conj(H)[a, 0] (U_a tail)[r], a view of _vertex_step's table; the
    head init's phases q; G_I's matrix; and each outcome's frame word, one
    gather from the word table of G_I diag(q), G_I's certificate composed
    with diag(q)'s (diagonal_cert).  Raises as couple_input documents; the
    outcome weights are the step's uniform flag, as every branch map has
    T_k^dag T_k = I/d^2 exactly when the rows U_a|tail> are orthonormal.
    A graph that raises keeps nothing."""
    facts = graph._facts.get("coupling")
    if facts is not None:
        return facts
    dim = graph.dim
    d = dim.d
    budget(d ** 3, "{}^3 coupling table entries", d)
    if len(graph.vertices) != 2:
        raise DimensionMismatch(
            "dense coupling verification needs a two-vertex chain")
    order = _chain(graph)[0]
    if len(order) != 2:
        raise DimensionMismatch("input coupling needs the chain's edge")
    head = graph.vertex(order[0])
    q = _phase_diagonal(dim, _init_vector(dim, head.init))
    if q is None:
        raise DimensionMismatch(f"head vertex {head.id} init {head.init!r} "
                                f"is not a phase vector")
    gate = graph.edges[0].gate
    # NonUnitary, once per spec, before the certificate is read
    table, uniform = _vertex_step(dim, gate, graph.vertex(order[1]).init)
    intrinsic = intrinsic_of(gate)
    cert = intrinsic.certificate().compose(diagonal_cert(dim, q))
    # outcome s' d + t' measures W = Z^s X^t, s = -s' and t = -t', word
    # neg[s'] d + neg[t'], and leaves G_I D_head W D_head^dag G_I^dag
    neg = np.array(dim.ints.neg)
    w = (neg[:, None] * d + neg).ravel()
    frames = [PauliWord(dim, 1, (i // d,), (i % d,), p)
              for i, p in zip(cert.idx[w].tolist(), cert.phase[w].tolist())]
    if not uniform:
        raise FrameMismatch(f"coupling outcome weights are not all "
                            f"1/{d * d} for every input")
    facts = graph._facts["coupling"] = (
        table[:, :d], q, intrinsic.matrix, frames)
    return facts


def couple_input(psi: np.ndarray, graph: ResourceGraph, rng=None,
                 forced_outcome: Optional[int] = None
                 ) -> Tuple[StateVector, PauliFrame, int]:
    """Teleport an external state into a two-vertex chain via a Bell
    measurement of the input and the chain's head.

    The chain is the edge gate on |init_head> |init_tail>, q[a] step[a, r]
    (_coupling).  Bell outcome Phi(s, t), with vector P / sqrt(d) read row
    by row, P = Z(s) X(t), has branch (q * P^dag psi) @ step / sqrt(d),
    P^dag applied by index.  Every outcome weighs 1/d^2 for every input
    (checked once per graph), so the outcome is drawn off a uniform CDF
    (_draw), or forced, and only its branch is formed.  It leaves the tail
    carrying G_I D_head W |psi> with W = Z^{-s} X^{-t}, G_I the intrinsic
    gate of the edge and D_head = diag(q), |init> = D_head |0_X> (the
    identity for cz and light-shift chains, S for cx).  The returned frame
    is W conjugated through D_head, then through G_I, read off the word
    table of their product, once per graph (_coupling).  The posterior
    is frame * G_I D_head |psi> up to phase; it and its weight are checked
    on every call.

    StateTooLarge past the budget of the d^3 step table.  A chain that is
    not two vertices joined by one edge, or a head init that is not a
    phase vector (a Z-basis label or a raw state), raises
    DimensionMismatch; a non-unitary edge gate raises NonUnitary, a G_I
    without a certificate raises as IntrinsicGate.certificate does, and a
    D_head that is not Clifford raises NotCliffordError naming the X
    generator it fails on; a chain whose outcomes do not all weigh 1/d^2
    (a diagonal gate's with a Z-basis label tail) raises FrameMismatch.
    All are raised before the input state and forced outcome are checked.
    """
    dim = graph.dim
    d = dim.d
    step, q, G, frames = _coupling(graph)
    psi = sim.unit_vector(psi, d, "input state")
    k, = _draw(*_uniform_cdf(d * d), rng,
               None if forced_outcome is None else [forced_outcome])
    (s, t), (mul, add, sub, chi) = divmod(k, d), dim.tables
    branch = (q * (chi[mul[s]].conj() * psi)[add[:, t]]) @ step / np.sqrt(d)
    frame = frames[k]
    # the frame word Z(z) X(x) on G_I D_head psi, by index
    predicted = chi[mul[frame.z[0]]] * (G @ (q * psi))[sub[:, frame.x[0]]]
    post = _branch_posterior(branch[None], 0, d * d, predicted, "coupling")
    return StateVector(dim, 1, post), PauliFrame(frame, [(0, k)]), k


# --- entangling through an existing edge (two transport wires) ------------

def edge_frame(dim: DimSpec, k1: int, k2: int, k4: int, k5: int
               ) -> PauliWord:
    """entangle_via_edge's frame: Z^{-k1} x Z^{-k4} carried through H x H
    and CZ, times Z^{-k2} x Z^{-k5}, carried through H x H.  As H Z(a) H^dag
    = X(-a) and CZ (X(u) x X(v)) CZ^dag = chi(-uv) Z(v)X(u) x Z(u)X(v), it
    is chi(k1 k4 - k1 k2 - k4 k5) Z(k1)X(k2 - k4) x Z(k4)X(k5 - k1)."""
    sub, mul = dim.sub, dim.mul
    phase = dim.char_exp(sub(mul(k1, k4), dim.add(mul(k1, k2), mul(k4, k5))))
    return PauliWord(dim, 2, [k1, k4], [sub(k2, k4), sub(k5, k1)], phase)


@functools.lru_cache(maxsize=None)
def _edge_facts(dim: DimSpec) -> Tuple[np.ndarray, np.ndarray]:
    """What every entangle_via_edge call reads, kept read-only per
    dimension, d^3 entries: the cz step onto a |+> vertex as step[a, k, r]
    (run_trajectories' own, _spec_step) and CZ's phases cz[a, b].
    FrameMismatch unless the step is uniform: then, CZ being unitary, each
    of the four outcomes weighs 1/d for every input."""
    d = dim.d
    gate = expand(cz_spec(dim))
    table, uniform = _spec_step(gate)
    if not uniform:
        raise FrameMismatch("cz transport step outcomes do not all weigh "
                            f"1/{d}")
    return table.reshape(d, d, d), _read_only(np.exp(1j * gate.theta))


@functools.lru_cache(maxsize=None)
def _uniform_cdf(D: int) -> Tuple[list, list]:
    """sim.kept_cdf of a row of D equal weights, kept per D for every draw
    whose outcomes each weigh 1/D for every input: a uniform trajectory
    step's, the mediator's and the edge's (D = d) and the coupling's
    (D = d^2)."""
    return sim.kept_cdf(np.ones((D, 1)))


def entangle_via_edge(dim: DimSpec, psi: np.ndarray, rng=None,
                      forced_outcomes: Optional[Sequence[int]] = None
                      ) -> Tuple[StateVector, PauliFrame]:
    """Apply a two-qudit entangling step through a pre-existing CZ edge.

    Two three-qudit CZ wires (sites 0-1-2 and 3-4-5) carry the two-qudit
    input at their heads; a CZ edge joins the midpoints 1 and 4.
    X-measuring the four interior qudits (outcomes k1, k2 on the first
    wire, k4, k5 on the second) leaves the tails carrying (H x H) CZ
    (H x H) |psi> up to the frame edge_frame(k1, k2, k4, k5).  Each
    measurement is a cz transport step, run on run_trajectories' step
    table (kept on cz's spec), checked once per dimension to be uniform
    (_edge_facts), so every outcome has probability 1/d^4 for every
    input: the four outcomes are drawn on uniform marginals from rng's
    next four random() values, as four sequential X measurements would
    draw them, off one CDF kept per d (_draw), or forced_outcomes are
    taken (four, checked by _forced and against the kept probabilities).
    The branch is four (d, d) products, the heads' steps on either side
    of psi as [a, e], then the rung's CZ phases, then the midpoints'
    steps; its norm is checked to be 1/d^2 and its posterior to be the
    frame times the action on psi, in O(d^3), on every call (FrameMismatch).
    StateTooLarge before any allocation past the d^3 tables' budget.
    """
    d = dim.d
    budget(d ** 3, "{}^3 edge step table entries", d)
    psi = sim.unit_vector(psi, d * d, "input state")
    ks = _draw(*_uniform_cdf(d), rng, forced_outcomes, 4)
    step, cz = _edge_facts(dim)
    k1, k2, k4, k5 = ks
    mids = step[:, k1].T @ psi.reshape(d, d) @ step[:, k4] * cz
    branch = (step[:, k2].T @ mids @ step[:, k5]).reshape(-1)
    norm = sim.vector_norm(branch)
    if not (abs(norm * d * d - 1) <= VERIFY_TOL):
        raise FrameMismatch(f"edge branch norm {norm:.12e} is not 1/{d}^2")
    frame = edge_frame(dim, k1, k2, k4, k5)
    (z0, z1), (x0, x1), (mul, _, sub, chi) = frame.z, frame.x, dim.tables
    # the action H (CZ o (H psi H^T)) H^T, CZ = chi[mul] off the characters,
    # not the kept phases, then the frame's X shifts and Z phases: O(d^3)
    CZ, H = chi[mul], hadamard(dim)    # H = H^T; Z^z's phases are CZ[z]
    target = (H @ (CZ * (H @ psi.reshape(d, d) @ H)) @ H).take(
        sub[:, x0], 0).take(sub[:, x1], 1) * (CZ[z0][:, None] * CZ[z1])
    post = branch / norm
    if not (abs(np.vdot(post, target.reshape(-1))) >= 1 - VERIFY_TOL):
        raise FrameMismatch("predicted edge-entangling frame does not verify")
    return StateVector(dim, 2, post), PauliFrame(frame, list(enumerate(ks)))


# --- mediator qudits ------------------------------------------------------

@_per_spec
def _mediator_out(spec: EntanglingGateSpec) -> Tuple[np.ndarray, list]:
    """The angles of mediator_of's local diagonal, shared read-only, and
    outcome k's frame word Z^{-k} x Z^{-k}, at index k."""
    dim = spec.dim
    return (_read_only(np.angle(mediator_of(spec)[2]), float),
            [PauliWord(dim, 2, [dim.neg(k)] * 2, [0, 0], 0)
             for k in dim.elements])


@dataclass
class MediatorResult:
    posterior: StateVector
    frame: PauliFrame
    local_phases: np.ndarray
    outcome: int


def mediator_step(spec: EntanglingGateSpec, psi: np.ndarray, mode: str,
                  rng=None, forced_outcome: Optional[int] = None
                  ) -> MediatorResult:
    """Disconnect or entangle two computational qudits via a mediator.

    Both computational qudits act as controls of the block-diagonal gate
    onto a mediator prepared in C^{-1}|0_X> (C mapping the controlled
    Pauli P to Z^l).  Measuring the mediator in {G_C|k_X>} restores the
    product state; {G_C S^{-1}|k_X>} applies (S x S) CZ.  Both leave a
    Z^{-k} x Z^{-k} frame plus known local diagonal phases; the angles
    (returned read-only as local_phases) and the d frame words are kept
    once per spec (_mediator_out).

    The branches W[k] * psi of mediator_tables are c_k Q[k] psi, Q[k] the
    unitary predicted action and |c_k|^2 = 1/d (checked once), so the
    outcome is drawn off the uniform CDF kept per d (_draw), and outcome
    k's weight 1/d and posterior Q[k] psi are checked on every call.
    StateTooLarge before any table is built past the d^3 tables' budget.
    """
    if mode not in ("disconnect", "entangle"):
        raise DimensionMismatch(f"unknown mediator mode {mode!r}")
    dim = spec.dim
    d = dim.d
    budget(d ** 3, "{}^3 mediator table entries", d)
    W, Q = mediator_tables(spec, mode)
    psi = sim.unit_vector(psi, d * d, "input state").reshape(d, d)
    k, = _draw(*_uniform_cdf(d), rng,
               None if forced_outcome is None else [forced_outcome])
    post = _branch_posterior((W * psi).reshape(d, d * d), k, d,
                             (Q[k] * psi).reshape(-1), f"mediator {mode}")
    angles, frames = _mediator_out(spec)
    return MediatorResult(StateVector(dim, 2, post),
                          PauliFrame(frames[k], [(0, k)]), angles, k)


# --- graph rewriting ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Correction:
    """The diagonal diag(q) a rewrite leaves on a vertex (q read-only; the
    tests' oracle builds the dense operator) and its exact images (c, num),
    diag(q) X(x) diag(q)^dag = e^{2 pi i num[x] / phase_den} Z(c[x]) X(x)
    for every shift x, as int lists with num in [0, phase_den)."""
    vertex: int
    q: np.ndarray
    images: Tuple[List[int], List[int]]
    label: str


def _eigen_table(dim: DimSpec, b: np.ndarray) -> Tuple[list, list]:
    """(ok, num) over every word Z(a) X(x), as nested lists [a][x]: ok
    where b is its eigenvector with eigenvalue e^{2 pi i num / phase_den},
    checked at PAULI_TOL and snapped to the exact phase lattice."""
    (mul, _, sub, chi), den = dim.tables, dim.phase_den
    # image[a, x] = Z(a) X(x) b by index, with eigenvalue lam[a, x] when ok
    image = chi[mul][:, None] * b[sub.T]
    lam = image @ b.conj()
    num = np.round(np.angle(lam) * den / (2 * np.pi)).astype(int) % den
    ok = (np.abs(image - lam[..., None] * b).max(axis=2) <= PAULI_TOL) \
        & (np.abs(lam - np.exp(2j * np.pi * num / den)) <= PAULI_TOL)
    return ok.tolist(), num.tolist()


class _StarRule:
    """What a rewrite reads of the measured vertex v's star alone: w, the
    product of v's own factor diagonals as a vector, each neighbour slot's
    kept factors (their diagonal, read-only, and the sum of their exact
    images) and summed weight N_u, B (checked unitary) and amps, outcome
    k's amplitude sqrt(<b_k|rho|b_k>) for b_k = B[:, k] and rho v's
    reduced state on the rows, with the outcome probabilities and inverse
    CDF of amps (probs, cdf; sim.kept_cdf), and, per outcome drawn, each
    slot's correction and the new pair weights (outcome).  Its signature:
    shear, v's first unit edge weight for local complementation (1 when no
    weight is a unit; None for deletion), and per sorted neighbour its
    edges' (gate, v is control), in order."""

    def __init__(self, spec: EntanglingGateSpec, shear: Optional[int],
                 slots: tuple):
        dim, d = spec.dim, spec.dim.d
        self.dim, self.kept, self.weights = dim, [], []
        w, images = np.ones(d, dtype=complex), []
        for edges in slots:
            q, kept, N_u = np.ones(d, dtype=complex), [], 0
            for gate, own in edges:
                *factors, N = factor_diagonal_clifford(gate)
                (qv, image), (qu, other) = factors[::1 if own else -1]
                w = w * qv
                q = q * qu
                N_u = dim.ints.add[N_u][N]
                images.append(image)
                kept.append(other)
            self.kept.append((_read_only(q), _vertex_table(dim, kept)))
            self.weights.append(N_u)
        B = np.eye(d, dtype=complex)
        if shear is not None:
            B = w[:, None] * (shear_gate(dim, shear) @ hadamard(dim))
            sim.require_unitary(B, "basis 'local-complement' is not "
                                   "orthonormal")
        z, num = _vertex_table(dim, images)
        rho = np.eye(d, dtype=complex) / d
        for x in dim.elements[1:]:
            if all(dim.mul(N, x) == 0 for N in self.weights):
                rho += matrix_of_pauli(PauliWord(dim, 1, (z[x],), (x,),
                                                 num[x])) / d
        weight = np.real(np.sum(B.conj() * (rho @ B), axis=0))
        self.w, self.B = w, B
        self.amps = _read_only(np.sqrt(np.clip(weight, 0, None))[:, None])
        self.probs, self.cdf = sim.kept_cdf(self.amps)
        self.outcomes: Dict[int, Union[tuple, str]] = {}

    def outcome(self, m: int) -> Tuple[np.ndarray, tuple, list, list]:
        """(g, _eigen_table(B[:, m]), slots, pairs), built on first use:
        f(s) = sum_j conj(B_jm) w_j chi(j s), g = f / f(0), and the delta
        with g(a + b) = g(a) g(b) chi(delta a b), which holds exactly when
        diag g maps every X(x) to a phase times Z(delta x) X(x).  Slot u's
        correction is (q, images): its kept diagonal times g(N_u j),
        read-only, and the sum of their exact images mod phase_den, diag
        g(N_u j) mapping X(x) as diag g maps X(N_u x), Z part times N_u.
        pairs are (i, j, w, cz_power spec) for slots i < j with w = delta
        N_i N_j nonzero.  FrameMismatch, its message kept and raised on
        every call, when f(0) = 0 or no delta fits."""
        if m not in self.outcomes:
            self.outcomes[m] = self._outcome(m)
        out = self.outcomes[m]
        if isinstance(out, str):
            raise FrameMismatch(out)
        return out

    def _outcome(self, m: int) -> Union[tuple, str]:
        dim = self.dim
        mul, _, _, chi = dim.tables
        f = (self.B[:, m].conj() * self.w) @ chi[mul]
        if abs(f[0]) < VERIFY_TOL:
            return f"outcome {m} leaves no graph state"
        g = f / f[0]
        # diag g's images, Z(c[x]) X(x) up to phase, with c[x] = delta x;
        # a c semilinear over GF(p^m) is refused
        c, num, ok = _diagonal_images(dim, g)
        if not (ok.all() and np.array_equal(c, mul[c[1]])):
            return f"outcome {m} phases are not quadratic"
        den, imul, delta = dim.phase_den, dim.ints.mul, int(c[1])
        slots = []
        for N, (q, table) in zip(self.weights, self.kept):
            # diag g(N j) maps X(x) as diag g maps X(N x), its Z part times N
            z, nums = _vertex_table(dim, [table, (
                mul[c[mul[N]], N].tolist(), num[mul[N]].tolist())])
            slots.append((_read_only(q * g[mul[N]]),
                          (z, [n % den for n in nums])))
        pairs = [(i, j, w, cz_power(dim, w)) for (i, Ni), (j, Nj)
                 in itertools.combinations(enumerate(self.weights), 2)
                 if (w := imul[delta][imul[Ni][Nj]])]
        return g, _eigen_table(dim, self.B[:, m]), slots, pairs


# kept on the spec of the star's first slot's first gate, as long as it lives
_star_rule = _per_spec(_StarRule)


def _verify_rewrite(graph: ResourceGraph, vid: int, b: np.ndarray,
                    new_graph: ResourceGraph, corrections: List[Correction],
                    nbrs: List[int], old, eigen: Tuple[list, list]):
    """FrameMismatch unless the state the other vertices keep when vid is
    found in the vector b on the rows (column m of _measure_and_rewrite's
    B) is new_graph's, conjugated through the corrections.  nbrs (vid's
    sorted neighbours), old (graph's _tableau of [vid] + nbrs) and eigen
    (b's _eigen_table, as the star's rule keeps it) are passed in as
    _measure_and_rewrite built them; the tests' dense oracle reads b.

    Measuring vid multiplies each row(w, y), w != vid, by the row(vid, z)
    whose product has a part P on vid with b as eigenvector (z = 0 for a Z
    basis); P is replaced by its eigenvalue, checked densely at PAULI_TOL
    and snapped to the exact phase lattice, and vid is dropped.
    FrameMismatch when no z gives such a P.

    new_graph is graph less vid, with edges added or replaced only between
    vid's neighbours N(v), so only their rows, on N(v)'s columns, can
    differ between the two sides: row(vid, z) lives on vid and N(v), the
    row of any other vertex has no Z part on vid and keeps its edges, and
    the corrections sit on N(v), where the other rows have no X part.  So
    only the neighbours' rows are built (_graph_rows) and compared word
    for word, exact phases included.  (A new_graph that changed an edge
    away from N(v) would go unseen; _measure_and_rewrite makes none.)  A
    correction fixes Z parts and maps X(x) to its exact image, and only a
    neighbour's own rows have an X part on it: its images add to its
    vertex table (_vertex_table).
    """
    dim = graph.dim
    den = dim.phase_den
    basis = _additive_basis(dim)
    ok, eig = eigen
    mul, add, neg, char_exp = dim.ints
    vz = old[1][0]
    partners = {}

    def partner(a):
        # row(vid, z) has the part Z(vz[z]) X(z) on vid: the first z fits,
        # and z = 0 is the identity
        for z in dim.elements:
            if ok[add[a][vz[z]]][z]:
                return _graph_rows(dim, old, [0], [z])[0] if z else None
        raise FrameMismatch("measured vector is not an eigenvector of any "
                            "stabilizer's part on the measured vertex")

    posterior = []
    for z, x, num in _graph_rows(dim, old, range(1, len(nbrs) + 1), basis):
        if z[0] not in partners:
            partners[z[0]] = partner(z[0])
        if partners[z[0]] is not None:
            # the product in normal form: X(x) moves right past Z(z) at
            # chi(-z x)
            pz, px, pnum = partners[z[0]]
            num += pnum + sum(char_exp[neg[mul[c][e]]]
                              for c, e in zip(pz, x))
            z = [add[c][e] for c, e in zip(z, pz)]
            x = [add[c][e] for c, e in zip(x, px)]
        # vid's part is replaced by its eigenvalue, and vid dropped
        posterior.append((z[1:], x[1:], (num + eig[z[0]][x[0]]) % den))
    weights, zs, nums = _tableau(new_graph, nbrs)
    col = {u: i for i, u in enumerate(nbrs)}
    for c in corrections:
        i = col[c.vertex]
        zs[i], nums[i] = _vertex_table(dim, [(zs[i], nums[i]), c.images])
    new = _graph_rows(dim, (weights, zs, nums), range(len(nbrs)), basis)
    if [(z, x, num % den) for z, x, num in new] != posterior:
        raise FrameMismatch("rewritten graph and corrections do not verify")


def _measure_and_rewrite(graph: ResourceGraph, vid: int, complement: bool,
                         rng, forced_outcome: Optional[int]
                         ) -> Tuple[StabilizerState, int, List[Correction],
                                    ResourceGraph]:
    """Measure a vertex, in Z or (complement) in its local-complement
    basis, and read the rewrite off the outcome.

    Each edge e at v factors as (diag(q1) x diag(q2)) CZ^{N_e}
    (factor_diagonal_clifford); C_{v,e} is v's factor and C_u the product
    of the factors that neighbor u keeps.  w is the product of v's factor
    diagonals, N_u the summed weight of v's edges to u and N the weight of
    v's first edge weight that is a unit, or 1 when none is (a zero-divisor
    shear leaves no graph state).  Outcome k's vector is D_v b_k, with D_v =
    diag(sqrt(d) init_v) for v's init and b_k column k of B = diag(w) S(N)
    H (complement) or of the identity; D_v cancels on the rows, which hold
    v in |0_X>.  Outcome m leaves f(sum_u N_u j_u) prod_u C_u |G-v> where
    f(s) = sum_j conj(B_jm) w_j chi(j s).  When g = f / f(0) obeys
    g(a + b) = g(a) g(b) chi(delta a b), this is the graph G - v with
    CZ^{delta N_u N_w} added on every neighbor pair (an existing pair edge
    is replaced by its CZ power, its two factors moving into the
    corrections) and the correction C_u diag_j g(N_u j) on each neighbor
    u.  An outcome whose g is not of that form (which includes |g| != 1
    anywhere) raises FrameMismatch.

    Every init is a phase vector (see _require_tableau, which raises
    UnsupportedFormalism before anything is allocated otherwise), a
    diagonal on |0_X> that commutes with every edge, correction and
    measurement but v's own.  So the outcome is drawn from v's reduced
    state on the rows, and _verify_rewrite checks the rewrite on the rows
    of v's neighbourhood, or raises FrameMismatch.  The posterior is a
    StabilizerState of the new graph and the corrections; the other
    vertices keep their inits.  An edge anywhere that is not a diagonal
    Clifford raises as factor_diagonal_clifford does (DimensionMismatch
    or NotCliffordError).  StateTooLarge comes first, past the budget of
    the one d^3 array a rewrite builds, _eigen_table's word images.

    w, the C_u, the N_u, B, the outcome amplitudes and each outcome's g,
    eigen table, corrections and pair weights delta N_u N_w (with their
    cz_power specs) come from the star's _StarRule.  Each correction is its
    diagonal and its exact images, added up from the integer images of C_u
    and of diag g(N_u j), read off diag g's images: no correction is built
    or read as a dense operator.  A call rebuilds a correction, or a pair's
    spec, only where a replaced pair edge's factors move into it or its
    weight adds to the pair's, in the same order of float products.  Only
    N[v] is read: its edges through the adjacency lists, and no init phases
    at all.  The new graph is valid by construction and is not validated
    again; its vertex and edge tuples are the old ones with v, v's edges
    and the replaced pair edges filtered out and the new edges appended,
    numbered from one past the top seq that v's edges leave (read only when
    an edge is added), and its adjacency lists are the old ones with N(v)'s
    updated.  It keeps no vertex table of the old graph's: the check builds
    N(v)'s from its edges (_tableau), and any other on its first read.
    """
    dim = graph.dim
    budget(dim.d ** 3, "{}^3 eigen table entries", dim.d)
    site = graph.site_of(vid)
    adj = _adjacency(graph)
    star = adj[vid]
    if complement and not star:
        raise DimensionMismatch(f"vertex {vid} has no edges to complement")
    _require_tableau(graph, star)
    slots: Dict[int, list] = {}
    for e in star:
        own = e.control == vid
        slots.setdefault(e.target if own else e.control, []).append(
            (expand(e.gate), own))
    nbrs = sorted(slots)
    # the first unit weight, else 1: no zero-divisor shear leaves a graph
    weights = (factor_diagonal_clifford(e.gate)[2] for e in star)
    shear = next((N for N in weights if dim.is_invertible(N)), 1) \
        if complement else None
    # an isolated vertex's rule depends on the dimension alone
    rule = _star_rule(slots[nbrs[0]][0][0] if star else cz_spec(dim), shear,
                      tuple(tuple(slots[u]) for u in nbrs))
    m, = _draw(rule.probs, rule.cdf, rng,
               None if forced_outcome is None else [forced_outcome])
    g, eigen, kept, pairs = rule.outcome(m)
    old = _tableau(graph, [vid] + nbrs)
    removed, added, folded, next_seq = set(star), [], {}, None
    for i, j, new_w, gate in pairs:
        u, w = nbrs[i], nbrs[j]
        # the edges between u and w, the only ones the new edge replaces;
        # their factors move into the corrections
        between = [e for e in adj[u] if w in (e.control, e.target)]
        for e in between:
            *factors, N = factor_diagonal_clifford(e.gate)
            for end, factor in zip((e.control, e.target), factors):
                folded.setdefault(end, []).append(factor)
            new_w = dim.add(new_w, N)
            removed.add(e)
        if between:
            gate = cz_power(dim, new_w) if new_w else None
        if gate is not None:
            if next_seq is None:    # one past the top seq v's edges leave
                next_seq = 1 + max((e.seq for e in itertools.filterfalse(
                    set(star).__contains__, graph.edges)), default=-1)
            added.append(GraphEdge(u, w, gate, next_seq))
            next_seq += 1
    edges = tuple(itertools.chain(itertools.filterfalse(
        removed.__contains__, graph.edges), added))
    new_adj = dict(adj)
    del new_adj[vid]
    for u in nbrs:
        new_adj[u] = tuple(e for e in itertools.chain(adj[u], added)
                           if e not in removed and u in (e.control, e.target))
    new_graph = ResourceGraph._derived(
        dim, graph.vertices[:site] + graph.vertices[site + 1:], edges,
        adjacency=new_adj, tableau=True)
    corrections = []
    for u, N, (q, _), (cq, (z, num)) in zip(nbrs, rule.weights, rule.kept,
                                            kept):
        if u in folded:
            # q from the slot's own diagonal, times the factors in the order
            # they were met, as a correction built whole multiplies them
            for fq, _ in folded[u]:
                q = q * fq
            cq = _read_only(q * g[dim.tables.mul[N]])
            z, num = _vertex_table(dim, [(z, num)] + [f[1] for f in folded[u]])
            num = [n % dim.phase_den for n in num]
        corrections.append(Correction(u, cq, (list(z), list(num)),
                                      f"C g({N}*j) on {u}"))
    _verify_rewrite(graph, vid, rule.B[:, m], new_graph, corrections, nbrs,
                    old, eigen)
    return StabilizerState(new_graph, corrections), m, corrections, new_graph


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
    return _measure_and_rewrite(graph, vid, False, rng, forced_outcome)


def local_complement(graph: ResourceGraph, vid: int, rng=None,
                     forced_outcome: Optional[int] = None
                     ) -> Tuple[StabilizerState, int, List[Correction],
                                ResourceGraph]:
    """Measure a vertex in its stabilizer basis, joining its neighbors.

    Outcome k is the vector D_v W S(N) |k_X>, column k of D_v W S(N) H:
    W is the product of v's edge factors, D_v = diag(sqrt(d) init_v) for
    its phase-vector init (the identity for None), N its first edge
    weight that is a unit (1 when none is, which only a composite Z_d
    allows), S(N) = shear_gate(dim, N) and H =
    hadamard(dim).  As S(N) X(x) S(N)^dag is X(x) Z(N x) up to phase,
    these are joint eigenvectors of D_v W X(x) W^dag D_v^dag Z(N x) for
    every x.  The
    outcome fixes, in closed form, a weight delta != 0: neighbors u, w
    gain CZ^{delta N_u N_w} (control = lower vertex id) and each neighbor
    gets a diagonal correction (see _measure_and_rewrite, which also names
    the inits and edges it rejects).  The posterior is a StabilizerState.
    A vertex without edges raises DimensionMismatch.
    """
    return _measure_and_rewrite(graph, vid, True, rng, forced_outcome)


# --- lattice templates ----------------------------------------------------

def diagonal_lattice(dim: DimSpec, rows: int, cols: int,
                     gate: EntanglingGateSpec) -> ResourceGraph:
    """Rectangular lattice with row- and column-directed diagonal edges,
    vertex r * cols + c at (r, c), each vertex's row edge before its column
    edge; every vertex shares the gate's read-only init phases."""
    n, phases = rows * cols, expand(gate).init_phases
    ends = [(v, v + step) for v in range(n)
            for step, ok in ((1, (v + 1) % cols), (cols, v + cols < n)) if ok]
    return ResourceGraph(dim, [Vertex(v, phases) for v in range(n)],
                         [GraphEdge(c, t, gate, seq)
                          for seq, (c, t) in enumerate(ends)])


def mediated_lattice(dim: DimSpec, rows: int, cols: int,
                     gate: EntanglingGateSpec) -> ResourceGraph:
    """Horizontal computational chains joined by mediator target qudits."""
    phases = expand(gate).init_phases
    med_init = mediator_of(gate)[0]

    def vid(r, c):
        return r * cols + c

    vertices = [Vertex(vid(r, c), phases)
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
            # stacked, not re + 1j im, which loses the sign of a zero part
            init = np.stack((json_array(init["re"], (d,), "init re"),
                             json_array(init["im"], (d,), "init im")),
                            axis=-1).view(complex)[:, 0]
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
