"""Graph rewriting on stabilizer tableaux, checked against dense oracles."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc import engine, sim
from quditmbqc.engine import (
    GraphEdge,
    ResourceGraph,
    StabilizerState,
    Vertex,
    build,
    chain_graph,
    diagonal_lattice,
    local_complement,
    vertex_delete,
)
from quditmbqc.errors import (
    FrameMismatch,
    StateTooLarge,
    ZeroProbabilityForced,
)
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import sgate
from quditmbqc.pauli import xmat, zmat
from quditmbqc.resource import (
    cx_spec,
    cz_power,
    cz_spec,
    factor_diagonal_clifford,
    light_shift_spec,
)

D3 = make_dim(INTEGER_RING, d=3)
D4R = make_dim(INTEGER_RING, d=4)
DIMS = [make_dim(INTEGER_RING, d=d) for d in (2, 3, 5)] + [
    make_dim(FINITE_FIELD, p=p, m=m) for p, m in ((2, 2), (2, 3), (3, 2))]
RULES = [vertex_delete, local_complement]


def _measured_basis(graph, vid, rule):
    """The basis the rule measures vid in: Z, or for local complementation
    the joint eigenbasis of D W X(x) W^dag D^dag Z(N x), W the product of
    vid's edge factors, D = diag(sqrt(d) init) for vid's phase-vector init
    and N its first edge's weight."""
    dim = graph.dim
    if rule is vertex_delete:
        return sim.z_basis(dim)
    init = engine._init_vector(dim, graph.vertex(vid).init)
    assert np.allclose(np.abs(init), dim.d ** -0.5)
    W, N = np.diag(np.sqrt(dim.d) * init), None
    for e in graph.edges:
        if vid in (e.control, e.target):
            C1, C2, w = factor_diagonal_clifford(e.gate)
            W = W @ (C1 if e.control == vid else C2)
            N = w if N is None else N
    family = [W @ xmat(dim, x) @ W.conj().T @ zmat(dim, dim.mul(N, x))
              for x in dim.elements[1:]]
    return sim.basis_from_unitary(dim, engine._joint_eigenbasis(family))


def _corrected(graph, corrections):
    state = build(graph)
    for c in corrections:
        state = sim.apply(state, c.operator, graph.site_of(c.vertex))
    return state.normalized().amps


def _raw_inits(graph):
    """The same graph with every init a raw state, so rewriting is dense."""
    return ResourceGraph(graph.dim,
                         [Vertex(v.id, engine._init_vector(graph.dim, v.init))
                          for v in graph.vertices], graph.edges)


def _check_every_outcome(graph, vid, rule, tableau):
    """Every forced outcome: the posterior (a StabilizerState iff tableau)
    matches sim.measure of the dense build and the corrected new graph;
    an outcome that fails, fails on the dense path too.  Returns the
    number of outcomes that verified."""
    site = graph.site_of(vid)
    dense = build(graph)
    basis = _measured_basis(graph, vid, rule)
    verified = 0
    for m in graph.dim.elements:
        try:
            post, got, corrections, new = rule(graph, vid, forced_outcome=m)
        except ZeroProbabilityForced:
            with pytest.raises(ZeroProbabilityForced):
                sim.measure(dense, basis, site, forced_outcome=m)
            continue
        except FrameMismatch:
            with pytest.raises(FrameMismatch):
                rule(_raw_inits(graph), vid, forced_outcome=m)
            continue
        assert got == m
        assert isinstance(post, StabilizerState) == tableau
        _, oracle, _ = sim.measure(dense, basis, site, forced_outcome=m)
        assert abs(np.vdot(oracle.amps, post.amps)) >= 1 - 1e-9
        if new.vertices:
            assert abs(np.vdot(_corrected(new, corrections), post.amps)) \
                >= 1 - 1e-9
        verified += 1
    return verified


@st.composite
def phase_graphs(draw):
    """A 2-5 vertex graph of cz powers (and light-shift edges over Z2 and
    Z3) with real phase inits, and a vertex with an edge to measure: its
    init is 0, Z, S or S^-1 (as phases), the others' any phases or
    None."""
    dim = draw(st.sampled_from(DIMS))
    d = dim.d
    n = draw(st.integers(2, 5))
    pairs = draw(st.lists(st.sampled_from(
        list(itertools.combinations(range(n), 2))),
        min_size=1, max_size=6, unique=True))
    light_shift = dim.kind == INTEGER_RING and d in (2, 3)
    edges = []
    for seq, (a, b) in enumerate(pairs):
        if draw(st.booleans()):
            a, b = b, a
        gate = light_shift_spec(dim) if light_shift and draw(st.booleans()) \
            else cz_power(dim, draw(st.integers(1, d - 1)))
        edges.append(GraphEdge(a, b, gate, seq))
    vid = draw(st.sampled_from(sorted({v for p in pairs for v in p})))
    S = np.angle(np.diag(sgate(dim)))
    cliffords = [np.zeros(d), np.angle(np.diag(zmat(dim, 1))), S, -S]
    clifford = draw(st.sampled_from(cliffords))
    phase = st.floats(-np.pi, np.pi, allow_nan=False)
    inits = [clifford if i == vid
             else draw(st.none() | st.lists(phase, min_size=d, max_size=d)
                       .map(np.array))
             for i in range(n)]
    graph = ResourceGraph(dim, [Vertex(i, init) for i, init in
                                enumerate(inits)], edges)
    return graph, vid


@settings(max_examples=60, deadline=None)
@given(phase_graphs())
def test_tableau_rewrite_matches_dense_oracles(case):
    graph, vid = case
    for rule in RULES:
        # the measured vertex's init phases join its basis, so it rewrites
        # on every outcome: each weight is a unit, so every outcome is
        # equally likely
        assert _check_every_outcome(graph, vid, rule, tableau=True) \
            == graph.dim.d


@pytest.mark.parametrize("init", ["S", "S^-1", "Z"])
@pytest.mark.parametrize("dim", DIMS, ids=lambda dim: dim.label())
def test_clifford_centre_init_complements_on_every_outcome(dim, init):
    # the centre's init phases join its measured basis, so a Clifford
    # phase such as S rewrites on every outcome, on both paths
    diag = {"S": np.diag(sgate(dim)), "S^-1": np.diag(sgate(dim)).conj(),
            "Z": np.diag(zmat(dim, 1))}[init]
    graph = chain_graph(dim, cz_spec(dim), 3)
    graph.vertices[1].init = np.angle(diag)
    assert _check_every_outcome(graph, 1, local_complement, tableau=True) \
        == dim.d
    assert _check_every_outcome(_raw_inits(graph), 1, local_complement,
                                tableau=False) == dim.d


@pytest.mark.parametrize("rule, vid", [(vertex_delete, 4),
                                       (local_complement, 1)])
def test_seeded_outcomes_match_the_dense_path(rule, vid):
    # the tableau draws by sim.collapse's inverse CDF, as sim.measure does
    graph = diagonal_lattice(D3, 3, 3, light_shift_spec(D3))
    dense = _raw_inits(graph)
    for seed in range(40):
        post, m, corrections, _ = rule(graph, vid, rng=seed)
        _, m_dense, dense_corrections, _ = rule(dense, vid, rng=seed)
        assert isinstance(post, StabilizerState) and m == m_dense
        assert [c.label for c in corrections] == \
            [c.label for c in dense_corrections]


@pytest.mark.parametrize("spectator", [1, np.array([1, 1j, 0]) / np.sqrt(2)],
                         ids=["label", "raw"])
@pytest.mark.parametrize("rule", RULES)
def test_label_or_raw_spectator_keeps_the_dense_path(spectator, rule):
    graph = chain_graph(D3, cz_spec(D3), 3)
    graph.vertices[2].init = spectator
    assert _check_every_outcome(graph, 1, rule, tableau=False) == 3


@pytest.mark.parametrize("second, errors", [
    (1, [FrameMismatch] * 4),
    (3, [FrameMismatch] * 4),
    (2, [ZeroProbabilityForced, FrameMismatch] * 2),
])
def test_z4_star_local_complement_errors(second, errors):
    # a first edge of weight 2 (not a unit in Z4) leaves no graph state
    graph = ResourceGraph(D4R, [Vertex(i) for i in range(3)],
                          [GraphEdge(0, 1, cz_power(D4R, 2), 0),
                           GraphEdge(0, 2, cz_power(D4R, second), 1)])
    for m, error in enumerate(errors):
        with pytest.raises(error) as exc:
            local_complement(graph, 0, forced_outcome=m)
        assert exc.type is error


def test_rewrites_a_lattice_past_the_dense_ceiling():
    # 3^100 amplitudes: both rules verify on the rows, and the posterior
    # refuses a dense vector before allocating one
    graph = diagonal_lattice(D3, 10, 10, cz_spec(D3))
    start = time.perf_counter()
    _, _, _, reduced = vertex_delete(graph, 55, rng=1)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    post, _, _, joined = local_complement(reduced, 45, rng=2)
    assert time.perf_counter() - start < 1.0
    assert isinstance(post, StabilizerState) and post.n == 98
    assert {44, 46} in [{e.control, e.target} for e in joined.edges]
    tracemalloc.start()
    try:
        with pytest.raises(StateTooLarge):
            post.amps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("rule", RULES)
def test_block_edge_away_from_the_vertex_keeps_the_dense_path(rule):
    # a cx edge has no graph-form rows, but it commutes with measuring 0
    graph = chain_graph(D3, cz_spec(D3), 3)
    graph.edges[1] = GraphEdge(1, 2, cx_spec(D3), 1)
    assert _check_every_outcome(graph, 0, rule, tableau=False) == 3
