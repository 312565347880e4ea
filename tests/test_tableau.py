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
    chain_graph,
    diagonal_lattice,
    local_complement,
    mediated_lattice,
    vertex_delete,
)
from quditmbqc.errors import (
    DimensionMismatch,
    FrameMismatch,
    NotCliffordError,
    StateTooLarge,
    UnsupportedFormalism,
    ZeroProbabilityForced,
)
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import hadamard, sgate, shear_gate
from quditmbqc.pauli import PAULI_TOL, xmat, zmat
from quditmbqc.resource import (
    VERIFY_TOL,
    cx_spec,
    cz_power,
    cz_spec,
    factor_diagonal_clifford,
    light_shift_spec,
    mediator_of,
)

import dense_oracle
from dense_oracle import MeasurementBasis, build

D3 = make_dim(INTEGER_RING, d=3)
D4R = make_dim(INTEGER_RING, d=4)
DIMS = [make_dim(INTEGER_RING, d=d) for d in (2, 3, 5)] + [
    make_dim(FINITE_FIELD, p=p, m=m) for p, m in ((2, 2), (2, 3), (3, 2))]
RULES = [vertex_delete, local_complement]


def _measured_basis(graph, vid, rule):
    """The basis the rule measures vid in: Z, or for local complementation
    D W S(N) H, W the product of vid's edge factors, D = diag(sqrt(d)
    init) for vid's phase-vector init and N its first edge's weight;
    every column is checked densely to be an eigenvector of every
    D W X(x) W^dag D^dag Z(N x), x != 0."""
    dim = graph.dim
    if rule is vertex_delete:
        return MeasurementBasis(dim, np.eye(dim.d), "Z")
    init = engine._init_vector(dim, graph.vertex(vid).init)
    assert np.allclose(np.abs(init), dim.d ** -0.5)
    W, N = np.diag(np.sqrt(dim.d) * init), None
    for e in graph.edges:
        if vid in (e.control, e.target):
            C1, C2, w = factor_diagonal_clifford(e.gate)
            W = W @ (C1 if e.control == vid else C2)
            N = w if N is None else N
    B = W @ shear_gate(dim, N) @ hadamard(dim)
    for x in dim.elements[1:]:
        M = W @ xmat(dim, x) @ W.conj().T @ zmat(dim, dim.mul(N, x))
        image = M @ B
        lam = np.sum(B.conj() * image, axis=0)
        assert np.max(np.abs(image - lam * B)) <= PAULI_TOL
    return MeasurementBasis(dim, B, "local-complement")


def _corrected(graph, corrections):
    state = build(graph)
    for c in corrections:
        state = dense_oracle.apply(state, c.operator, graph.site_of(c.vertex))
    return state.normalized().amps


def _dense_rewrite(graph, vid, rule, forced_outcome=None, rng=None):
    """The dense rewrite reference: build the graph, measure vid in
    _measured_basis, read the rewrite off the outcome by the closed form
    the library uses, and check the corrected new build against the
    posterior.  Returns (posterior amps, outcome, corrections, new graph);
    raises ZeroProbabilityForced or FrameMismatch where that rewrite
    fails."""
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
    init_v = engine._init_vector(dim, graph.vertex(vid).init)
    basis = _measured_basis(graph, vid, rule)
    m, post, _ = dense_oracle.measure(build(graph), basis,
                                      graph.site_of(vid), rng=rng,
                                      forced_outcome=forced_outcome)
    mul, add, _, chi = dim.tables
    f = (basis.vectors[:, m].conj() * init_v * np.diag(W)) @ chi[mul]
    if abs(f[0]) < VERIFY_TOL:
        raise FrameMismatch(f"outcome {m} leaves no graph state")
    g = f / f[0]
    delta = next((w for w in dim.elements if np.max(np.abs(
        g[add] - np.outer(g, g) * chi[mul[w][mul]])) <= PAULI_TOL), None)
    if delta is None:
        raise FrameMismatch(f"outcome {m} phases are not quadratic")
    vertices = [v for v in graph.vertices if v.id != vid]
    edges = [e for e in graph.edges if vid not in (e.control, e.target)]
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
    new_graph = ResourceGraph(dim, vertices, edges)
    corrections = [engine.Correction(u, kept[u] @ np.diag(g[mul[weight[u]]]),
                                     f"C g({weight[u]}*j) on {u}")
                   for u in sorted(weight)]
    if new_graph.vertices and not abs(np.vdot(
            _corrected(new_graph, corrections), post.amps)) >= 1 - VERIFY_TOL:
        raise FrameMismatch("rewritten graph and corrections do not verify")
    return post.amps, m, corrections, new_graph


def _edge_list(graph):
    return [(e.control, e.target, e.seq, factor_diagonal_clifford(e.gate)[2])
            for e in graph.edges]


def _assert_matches_dense(got, want):
    """A library rewrite result equals the dense reference's: outcome,
    corrections, edges and posterior (at fidelity 1 - 1e-9)."""
    post, m, corrections, new = got
    amps, m_dense, dense_corrections, dense_new = want
    assert isinstance(post, StabilizerState)
    assert m == m_dense
    assert [c.label for c in corrections] == \
        [c.label for c in dense_corrections]
    assert all(np.max(np.abs(c.operator - o.operator)) <= 1e-9
               for c, o in zip(corrections, dense_corrections))
    assert _edge_list(new) == _edge_list(dense_new)
    assert abs(np.vdot(amps, post.amps)) >= 1 - 1e-9


def _check_every_outcome(graph, vid, rule):
    """Every forced outcome: the rule's StabilizerState rewrite equals the
    dense reference's, and an outcome the dense reference rejects, the
    rule rejects with the same error.  Returns the number of outcomes that
    verified."""
    verified = 0
    for m in graph.dim.elements:
        try:
            want = _dense_rewrite(graph, vid, rule, forced_outcome=m)
        except (ZeroProbabilityForced, FrameMismatch) as exc:
            with pytest.raises(type(exc)):
                rule(graph, vid, forced_outcome=m)
            continue
        _assert_matches_dense(rule(graph, vid, forced_outcome=m), want)
        verified += 1
    return verified


def _complex_inits(graph):
    """The same graph with every init as its complex vector e^{i phi}/sqrt(d),
    which the tableau reads through _phase_diagonal."""
    return ResourceGraph(graph.dim,
                         [Vertex(v.id, engine._init_vector(graph.dim, v.init))
                          for v in graph.vertices], graph.edges)


@st.composite
def phase_graphs(draw):
    """A 2-5 vertex graph of cz powers (and light-shift edges over Z2 and
    Z3), and a vertex with an edge to measure.  Its init phases are 0, Z,
    S or S^-1, the others' any phases or None; each init is drawn as real
    phases, as the complex vector e^{i phi}/sqrt(d) or, over a ring, as
    the mediator init mediator_of(gate)[0] of one of the graph's gates."""
    dim = draw(st.sampled_from(DIMS))
    d = dim.d
    n = draw(st.integers(2, 5))
    pairs = draw(st.lists(st.sampled_from(
        list(itertools.combinations(range(n), 2))),
        min_size=1, max_size=6, unique=True))
    ring = dim.kind == INTEGER_RING
    light_shift = ring and d in (2, 3)
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
    phase = st.floats(-np.pi, np.pi, allow_nan=False)
    forms = ["real", "complex"] + ["mediator"] * ring

    def init(phases):
        form = draw(st.sampled_from(forms))
        if phases is None:
            return None
        if form == "mediator":
            return mediator_of(draw(st.sampled_from(edges)).gate)[0]
        return phases if form == "real" else np.exp(1j * phases) / np.sqrt(d)

    inits = [init(draw(st.sampled_from(cliffords))) if i == vid
             else init(draw(st.none() | st.lists(phase, min_size=d,
                                                 max_size=d).map(np.array)))
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
        assert _check_every_outcome(graph, vid, rule) == graph.dim.d


@pytest.mark.parametrize("dim", DIMS, ids=lambda dim: dim.label())
def test_complex_and_real_centre_init_complement_alike(dim):
    # an init given as real phases and the same init given as its complex
    # vector differ by roundoff only, which must not change the outcome
    # drawn, the corrections or the edges
    graph = chain_graph(dim, cz_spec(dim), 3)
    graph.vertices[1].init = np.angle(np.diag(sgate(dim)))
    alike = _complex_inits(graph)
    for seed in range(20):
        _, m, corr, new = local_complement(graph, 1, rng=seed)
        _, m2, corr2, new2 = local_complement(alike, 1, rng=seed)
        assert m == m2
        assert [c.label for c in corr] == [c.label for c in corr2]
        assert _edge_list(new) == _edge_list(new2)


@pytest.mark.parametrize("init", ["S", "S^-1", "Z"])
@pytest.mark.parametrize("dim", DIMS, ids=lambda dim: dim.label())
def test_clifford_centre_init_complements_on_every_outcome(dim, init):
    # the centre's init phases join its measured basis, so a Clifford
    # phase such as S rewrites on every outcome, given as real phases or
    # as a complex vector
    diag = {"S": np.diag(sgate(dim)), "S^-1": np.diag(sgate(dim)).conj(),
            "Z": np.diag(zmat(dim, 1))}[init]
    graph = chain_graph(dim, cz_spec(dim), 3)
    graph.vertices[1].init = np.angle(diag)
    assert _check_every_outcome(graph, 1, local_complement) == dim.d
    assert _check_every_outcome(_complex_inits(graph), 1,
                                local_complement) == dim.d


@pytest.mark.parametrize("rule, vid", [(vertex_delete, 4),
                                       (local_complement, 1)])
def test_seeded_outcomes_match_the_dense_path(rule, vid):
    # the tableau draws by sim.collapse's inverse CDF, as the dense
    # oracle's measure does
    graph = diagonal_lattice(D3, 3, 3, light_shift_spec(D3))
    for seed in range(40):
        _assert_matches_dense(rule(graph, vid, rng=seed),
                              _dense_rewrite(graph, vid, rule, rng=seed))


@pytest.mark.parametrize("spectator", [1, np.array([1, 1j, 0]) / np.sqrt(2)],
                         ids=["label", "raw"])
@pytest.mark.parametrize("rule", RULES)
def test_label_or_raw_spectator_keeps_the_dense_path(spectator, rule):
    # rewriting has no dense path: a Z-basis label, or a raw init that is
    # not a phase vector, anywhere in the graph raises naming its vertex
    # before any state is allocated (3^100 amplitudes here)
    graph = diagonal_lattice(D3, 10, 10, cz_spec(D3))
    graph.vertices[99].init = spectator
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedFormalism, match="vertex 99"):
            rule(graph, 55, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("second, errors", [
    (1, [FrameMismatch] * 4),
    (3, [FrameMismatch] * 4),
    (2, [FrameMismatch, ZeroProbabilityForced] * 2),
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


@pytest.mark.parametrize("rule", RULES)
def test_edge_of_another_dimension_is_named(rule):
    f4 = make_dim(FINITE_FIELD, p=2, m=2)
    graph = ResourceGraph(f4, [Vertex(i) for i in range(3)],
                          [GraphEdge(0, 1, cz_spec(f4), 0),
                           GraphEdge(1, 2, cz_spec(D3), 1)])
    with pytest.raises(DimensionMismatch,
                       match=r"edge 1-2 gate is over Z_3, the graph over "
                             r"GF\(2\^2\)"):
        rule(graph, 1, rng=0)


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
    # an edge without graph-form rows raises anywhere in the graph, even
    # where it commutes with measuring 0: a cx edge is not diagonal, and a
    # light-shift edge at a non-Clifford angle is not Clifford
    graph = chain_graph(D3, cz_spec(D3), 3)
    graph.edges[1] = GraphEdge(1, 2, cx_spec(D3), 1)
    with pytest.raises(DimensionMismatch, match="diagonal gate required"):
        rule(graph, 0, rng=0)
    graph.edges[1] = GraphEdge(1, 2, light_shift_spec(D3, 0.7), 1)
    with pytest.raises(NotCliffordError):
        rule(graph, 0, rng=0)


@pytest.mark.parametrize("spec_of", [cz_spec, light_shift_spec],
                         ids=["cz", "light_shift"])
def test_mediated_lattice_matches_the_dense_reference(spec_of):
    # the paper's 2D geometry: each mediator's init mediator_of(gate)[0] is
    # a complex phase vector; every outcome at two chain vertices and two
    # mediators rewrites on the tableau as the dense reference does
    graph = mediated_lattice(D3, 2, 3, spec_of(D3))
    assert np.iscomplexobj(graph.vertex(6).init)
    for vid in (0, 1, 6, 7):
        for rule in RULES:
            assert _check_every_outcome(graph, vid, rule) == 3


def test_rewrites_a_mediated_lattice_past_the_dense_ceiling():
    # 3x3 chains and 6 mediators: 3^15 amplitudes, over the dense budget
    graph = mediated_lattice(D3, 3, 3, cz_spec(D3))
    with pytest.raises(StateTooLarge):
        build(graph)
    start = time.perf_counter()
    post, _, corrections, reduced = vertex_delete(graph, 4, rng=1)
    assert [c.vertex for c in corrections] == [3, 5, 10, 13]
    post, _, _, joined = local_complement(reduced, 9, rng=2)
    assert time.perf_counter() - start < 1.0
    assert isinstance(post, StabilizerState) and post.n == 13
    assert {0, 3} in [{e.control, e.target} for e in joined.edges]
    with pytest.raises(StateTooLarge):
        post.amps


def _benchmark_graphs():
    """(graph, vertex) pairs shaped as the graph-rewrite benchmark's: cz
    stars at their centre, the Z2 3-chain and 3x3 lattice centres, the
    deleted lattice vertices, and the 3x3 mediated cz lattice."""
    rings = {d: make_dim(INTEGER_RING, d=d) for d in (2, 3, 5)}
    cases = []
    for d, leaves in [(2, 4), (3, 3), (5, 2)]:
        dim = rings[d]
        for k in range(1, leaves + 1):
            cases.append((ResourceGraph(
                dim, [Vertex(i, np.zeros(d)) for i in range(k + 1)],
                [GraphEdge(0, i, cz_spec(dim), i - 1)
                 for i in range(1, k + 1)]), 0))
    D2 = rings[2]
    cases += [(chain_graph(D2, cz_spec(D2), 3), 1),
              (diagonal_lattice(D2, 3, 3, cz_spec(D2)), 4)]
    GF4 = make_dim(FINITE_FIELD, p=2, m=2)
    for dim, rows, cols, gate, vids in [
            (D3, 3, 3, cz_spec(D3), (4, 0)),
            (GF4, 3, 3, cz_spec(GF4), (4, 0)),
            (rings[5], 2, 4, cz_spec(rings[5]), (1, 0)),
            (D2, 2, 5, light_shift_spec(D2), (2, 0))]:
        graph = diagonal_lattice(dim, rows, cols, gate)
        cases += [(graph, vid) for vid in vids]
    graph = mediated_lattice(D3, 3, 3, cz_spec(D3))
    return cases + [(graph, vid) for vid in (0, 4, 9, 13)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DIMS + [D4R]), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_diagonal_images_equal_the_loop_over_shifts(dim, seed, clifford):
    # one vectorised pass over every shift x gives what the per-shift loop
    # gave, on Clifford diagonals (a shear times a Z power, at a global
    # phase) and on random phase vectors, which mostly fit no Z(c)
    rng = np.random.default_rng(seed)
    if clifford:
        q = np.diag(shear_gate(dim, int(rng.integers(dim.d)))
                    @ zmat(dim, int(rng.integers(dim.d)))) \
            * np.exp(2j * np.pi * rng.random())
    else:
        q = np.exp(2j * np.pi * rng.random(dim.d))
    c, num, ok = engine._diagonal_images(dim, q)
    for x in dim.elements:
        want = dense_oracle.diagonal_conjugate(dim, q, x)
        assert ok[x] == (want is not None)
        if want is not None:
            assert (int(c[x]), int(num[x])) == want


def test_rewriting_is_one_path(monkeypatch):
    # no rule builds, applies or measures a dense state: the library has
    # no dense simulator (it is the tests' oracle), and none may come back
    def refuse(*args, **kwargs):
        raise AssertionError("rewriting reached dense simulation")

    monkeypatch.setattr(engine, "build", refuse, raising=False)
    for name in ("measure", "apply", "product_state"):
        monkeypatch.setattr(sim, name, refuse, raising=False)
    for graph, vid in _benchmark_graphs():
        for rule in RULES:
            post, m, _, _ = rule(graph, vid, rng=vid)
            assert isinstance(post, StabilizerState)
            post, _, _, _ = rule(graph, vid, forced_outcome=m)
            assert isinstance(post, StabilizerState)
