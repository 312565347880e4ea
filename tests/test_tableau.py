"""Graph rewriting on stabilizer tableaux, checked against dense oracles."""

import functools
import itertools
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc import engine, sim
from quditmbqc.clifford import _diagonal_images, diagonal_images
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
from quditmbqc.gates import sgate, shear_gate
from quditmbqc.pauli import PAULI_TOL, zmat
from quditmbqc.resource import (
    VERIFY_TOL,
    EntanglingGateSpec,
    cx_spec,
    cz_power,
    cz_spec,
    expand,
    factor_diagonal_clifford,
    light_shift_spec,
    mediator_of,
)

import dense_oracle
from dense_oracle import build, with_init

D3 = make_dim(INTEGER_RING, d=3)
D4R = make_dim(INTEGER_RING, d=4)
# Z4, Z6, Z8 and Z9 give cz powers of zero-divisor weight
DIMS = [make_dim(INTEGER_RING, d=d) for d in (2, 3, 4, 5, 6, 8, 9)] + [
    make_dim(FINITE_FIELD, p=p, m=m) for p, m in ((2, 2), (2, 3), (3, 2))]
RULES = [vertex_delete, local_complement]


@functools.lru_cache(maxsize=2)
def _dense_start(graph, vid, complement):
    """The dense state of graph and the basis vid is measured in, built
    once for every outcome of a check (a graph is hashed by identity)."""
    return build(graph), dense_oracle.rewrite_basis(graph, vid, complement)


def _dense_rewrite(graph, vid, rule, forced_outcome=None, rng=None):
    """The dense rewrite reference: build the graph, measure vid in
    dense_oracle.rewrite_basis, read the rewrite off the outcome by the
    closed form the library uses, and check the corrected new build
    against the posterior.  Returns (posterior amps, outcome, corrections,
    new graph); raises ZeroProbabilityForced or FrameMismatch where that
    rewrite fails."""
    dim = graph.dim
    d = dim.d
    W = np.eye(d, dtype=complex)
    weight, kept = {}, {}
    star = [(e, *dense_oracle.factor_diagonal(e.gate)) for e in graph.edges
            if vid in (e.control, e.target)]
    for e, C1, C2, N in star:
        Cv, Cu, u = (C1, C2, e.target) if e.control == vid \
            else (C2, C1, e.control)
        W = W @ Cv
        weight[u] = dim.add(weight.get(u, 0), N)
        kept[u] = kept.get(u, np.eye(d, dtype=complex)) @ Cu
    init_v = engine._init_vector(dim, graph.vertex(vid).init)
    state, basis = _dense_start(graph, vid, rule is local_complement)
    m, post, _ = dense_oracle.measure(state, basis, graph.site_of(vid),
                                      rng=rng, forced_outcome=forced_outcome)
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
            C1, C2, N = dense_oracle.factor_diagonal(e.gate)
            kept[e.control] = kept[e.control] @ C1
            kept[e.target] = kept[e.target] @ C2
            new_w = dim.add(new_w, N)
            edges.remove(e)
        if new_w != 0:
            edges.append(GraphEdge(u, w, cz_power(dim, new_w), next_seq))
            next_seq += 1
    new_graph = ResourceGraph(dim, vertices, edges)
    corrections = [dense_oracle.correction(
        dim, u, np.diag(kept[u] @ np.diag(g[mul[weight[u]]])),
        f"C g({weight[u]}*j) on {u}") for u in sorted(weight)]
    if new_graph.vertices and not abs(np.vdot(dense_oracle.corrected_state(
            new_graph, corrections), post.amps)) >= 1 - VERIFY_TOL:
        raise FrameMismatch("rewritten graph and corrections do not verify")
    return post.amps, m, corrections, new_graph


def _edge_list(graph):
    return [(e.control, e.target, e.seq, factor_diagonal_clifford(e.gate)[2])
            for e in graph.edges]


def _assert_matches_dense(got, want):
    """A library rewrite result equals the dense reference's: outcome,
    corrections (their diagonals, and their exact images word for word),
    edges and posterior (its graph and corrections built densely, at
    fidelity 1 - 1e-9), and the posterior keeps its graph's init phases."""
    post, m, corrections, new = got
    amps, m_dense, dense_corrections, dense_new = want
    assert isinstance(post, StabilizerState)
    assert post.graph is new and post.corrections is corrections
    assert np.array_equal(post.phases, engine._init_phases(new))
    assert m == m_dense
    assert [c.label for c in corrections] == \
        [c.label for c in dense_corrections]
    assert all(np.max(np.abs(c.q - o.q)) <= 1e-9
               for c, o in zip(corrections, dense_corrections))
    assert [c.images for c in corrections] == \
        [o.images for o in dense_corrections]
    assert _edge_list(new) == _edge_list(dense_new)
    assert abs(np.vdot(amps, dense_oracle.corrected_state(
        post.graph, post.corrections))) >= 1 - 1e-9


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
def phase_graphs(draw, dim=None, min_vertices=2):
    """A graph of min_vertices-5 vertices and at least min_vertices - 1
    cz-power edges (and light-shift edges over Z2 and Z3), over dim or one
    drawn from DIMS, and a vertex with an edge to measure.  Its init
    phases are 0, Z, S or S^-1, the others' any phases or None; each init
    is drawn as real phases, as the complex vector e^{i phi}/sqrt(d) or,
    over a ring, as the mediator init mediator_of(gate)[0] of one of the
    graph's gates that has one: a cz power of zero-divisor weight has
    none."""
    if dim is None:
        dim = draw(st.sampled_from(DIMS))
    d = dim.d
    n = draw(st.integers(min_vertices, 5))
    pairs = draw(st.lists(st.sampled_from(
        list(itertools.combinations(range(n), 2))),
        min_size=min_vertices - 1, max_size=6, unique=True))
    ring = dim.kind == INTEGER_RING
    light_shift = ring and d in (2, 3)
    edges, mediated = [], []
    for seq, (a, b) in enumerate(pairs):
        if draw(st.booleans()):
            a, b = b, a
        w = None if light_shift and draw(st.booleans()) \
            else draw(st.integers(1, d - 1))
        gate = light_shift_spec(dim) if w is None else cz_power(dim, w)
        edges.append(GraphEdge(a, b, gate, seq))
        if w is None or dim.is_invertible(w):
            mediated.append(gate)
    vid = draw(st.sampled_from(sorted({v for p in pairs for v in p})))
    S = np.angle(np.diag(sgate(dim)))
    cliffords = [np.zeros(d), np.angle(np.diag(zmat(dim, 1))), S, -S]
    phase = st.floats(-np.pi, np.pi, allow_nan=False)
    forms = ["real", "complex"] + ["mediator"] * (ring and bool(mediated))

    def init(phases):
        form = draw(st.sampled_from(forms))
        if phases is None:
            return None
        if form == "mediator":
            return mediator_of(draw(st.sampled_from(mediated)))[0]
        return phases if form == "real" else np.exp(1j * phases) / np.sqrt(d)

    inits = [init(draw(st.sampled_from(cliffords))) if i == vid
             else init(draw(st.none() | st.lists(phase, min_size=d,
                                                 max_size=d).map(np.array)))
             for i in range(n)]
    graph = ResourceGraph(dim, [Vertex(i, init) for i, init in
                                enumerate(inits)], edges)
    return graph, vid


# a carve's steps on a phase graph: rule, seed, and which vertex to measure
REWRITE_CHAINS = st.lists(st.tuples(st.sampled_from(RULES),
                                    st.integers(0, 2 ** 32 - 1),
                                    st.integers(0, 4)),
                          min_size=2, max_size=3)


def _chain_vertex(graph, pick):
    """The pick-th (cyclically) vertex that has an edge, among those whose
    rewrite keeps one, an edge leaving their closed neighbourhood, if any
    vertex's does; None when no vertex has an edge."""
    live = [v.id for v in graph.vertices if graph.neighbors(v.id)]
    live = [v for v in live if any(
        not {e.control, e.target} <= {v, *graph.neighbors(v)}
        for e in graph.edges)] or live
    return live[pick % len(live)] if live else None


@pytest.mark.parametrize("dim", DIMS, ids=lambda dim: dim.label())
@settings(max_examples=6, deadline=None)
@given(st.data())
def test_tableau_rewrite_matches_dense_oracles(dim, data):
    # a chain of 2-3 seeded rewrites, each on the previous output as a
    # carve makes them, the first at the drawn vertex: before each step,
    # every forced outcome of both rules at the measured vertex matches the
    # dense reference.  Its init phases join its basis, so it rewrites on
    # every outcome: each weight is a unit, so every outcome is equally
    # likely
    graph, vid = data.draw(phase_graphs(dim, min_vertices=3))
    chain = data.draw(REWRITE_CHAINS)
    for step, (rule, seed, pick) in enumerate(chain):
        if step:
            vid = _chain_vertex(graph, pick)
            if vid is None:
                break
        for check in RULES:
            assert _check_every_outcome(graph, vid, check) == dim.d
        graph = rule(graph, vid, rng=seed)[3]


@pytest.mark.parametrize("dim", DIMS, ids=lambda dim: dim.label())
def test_complex_and_real_centre_init_complement_alike(dim):
    # an init given as real phases and the same init given as its complex
    # vector differ by roundoff only, which must not change the outcome
    # drawn, the corrections or the edges
    graph = with_init(chain_graph(dim, cz_spec(dim), 3), 1,
                      np.angle(np.diag(sgate(dim))))
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
    graph = with_init(chain_graph(dim, cz_spec(dim), 3), 1, np.angle(diag))
    assert _check_every_outcome(graph, 1, local_complement) == dim.d
    assert _check_every_outcome(_complex_inits(graph), 1,
                                local_complement) == dim.d


@pytest.mark.parametrize("rule, vid", [(vertex_delete, 4),
                                       (local_complement, 1)])
def test_seeded_outcomes_match_the_dense_path(rule, vid):
    # the tableau draws by the inverse-CDF rule of the dense oracle's
    # collapse, which its measure draws by
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
    graph = with_init(diagonal_lattice(D3, 10, 10, cz_spec(D3)), 99,
                      spectator)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedFormalism, match="vertex 99"):
            rule(graph, 55, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# zero-divisor weights w over composite Z_d, as (d, w)
ZERO_DIVISORS = [(4, 2), (6, 2), (8, 2), (6, 3), (9, 3), (8, 4)]


@pytest.mark.parametrize("unit", [1, -1])
@pytest.mark.parametrize("unit_first", [False, True])
@pytest.mark.parametrize("d, w", ZERO_DIVISORS)
def test_zero_divisor_star_complements_along_its_first_unit_edge(
        d, w, unit_first, unit):
    # the chain 0-1-2 with CZ^w on 0-1 and CZ^unit on 1-2: in either edge
    # order the shear is the unit weight, and every outcome verifies
    dim = make_dim(INTEGER_RING, d=d)
    edges = [(0, 1, cz_power(dim, w)), (1, 2, cz_power(dim, unit % d))]
    graph = ResourceGraph(dim, [Vertex(i) for i in range(3)], [
        GraphEdge(*e, seq) for seq, e in enumerate(
            edges[::-1] if unit_first else edges)])
    assert _check_every_outcome(graph, 1, local_complement) == d
    _assert_check_matches_the_full_rows(graph, 1)


# stars with no unit weight over composite Z_d, as (d, weights): vertex 0
# joined to vertex i + 1 by CZ^weights[i]
UNITLESS_STARS = [(4, (2, 2)), (6, (2, 2)), (8, (2, 2)), (6, (2, 3)),
                  (6, (3, 3)), (8, (2, 4)), (8, (4, 4)), (8, (2, 6)),
                  (9, (3, 3)), (9, (3, 6)), (9, (3, 6, 3)), (4, (2,)),
                  (6, (3,))]


@pytest.mark.parametrize("d, weights", UNITLESS_STARS, ids=lambda v: f"Z{v}"
                         if isinstance(v, int) else "_".join(map(str, v)))
def test_star_without_a_unit_weight_complements_with_shear_one(d, weights):
    # a zero-divisor shear leaves no graph state, so such a star is sheared
    # by 1, as the dense reference's basis is: every outcome verifies
    dim = make_dim(INTEGER_RING, d=d)
    graph = ResourceGraph(dim, [Vertex(i) for i in range(len(weights) + 1)],
                          [GraphEdge(0, i + 1, cz_power(dim, w), i)
                           for i, w in enumerate(weights)])
    for rule in RULES:
        assert _check_every_outcome(graph, 0, rule) == d
    _assert_check_matches_the_full_rows(graph, 0)


@pytest.mark.parametrize("rule", RULES)
def test_edge_of_another_dimension_is_named(rule):
    # the graph is refused where it is built, before any rule can run
    f4 = make_dim(FINITE_FIELD, p=2, m=2)
    with pytest.raises(DimensionMismatch,
                       match=r"edge 1-2 gate is over Z_3, the graph over "
                             r"GF\(2\^2\)"):
        rule(ResourceGraph(f4, [Vertex(i) for i in range(3)],
                           [GraphEdge(0, 1, cz_spec(f4), 0),
                            GraphEdge(1, 2, cz_spec(D3), 1)]), 1, rng=0)


def test_rewrites_a_lattice_past_the_dense_ceiling():
    # 3^100 amplitudes: both rules verify on the rows
    graph = diagonal_lattice(D3, 10, 10, cz_spec(D3))
    start = time.perf_counter()
    _, _, _, reduced = vertex_delete(graph, 55, rng=1)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    post, _, _, joined = local_complement(reduced, 45, rng=2)
    assert time.perf_counter() - start < 1.0
    assert isinstance(post, StabilizerState) and post.n == 98
    assert {44, 46} in [{e.control, e.target} for e in joined.edges]


@pytest.mark.parametrize("rule", RULES)
def test_block_edge_away_from_the_vertex_keeps_the_dense_path(rule):
    # an edge without graph-form rows raises anywhere in the graph, even
    # where it commutes with measuring 0: a cx edge is not diagonal, and a
    # light-shift edge at a non-Clifford angle is not Clifford
    graph = chain_graph(D3, cz_spec(D3), 3)
    graph = replace(graph, edges=(graph.edges[0],
                                  GraphEdge(1, 2, cx_spec(D3), 1)))
    with pytest.raises(DimensionMismatch, match="diagonal gate required"):
        rule(graph, 0, rng=0)
    graph = replace(graph, edges=(graph.edges[0],
                                  GraphEdge(1, 2, light_shift_spec(D3, 0.7),
                                            1)))
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


GF4 = make_dim(FINITE_FIELD, p=2, m=2)


@pytest.mark.parametrize("graph", [
    diagonal_lattice(D3, 3, 3, cz_spec(D3)),
    diagonal_lattice(D3, 3, 3, light_shift_spec(D3)),
    diagonal_lattice(GF4, 2, 3, cz_spec(GF4))],
    ids=["Z3-cz", "Z3-light-shift", "GF4-cz"])
def test_rewrites_of_rewrite_outputs_match_the_dense_reference(graph):
    # a chain of local complementations and Z deletions, each on the
    # previous step's output, a derived graph: every forced outcome of each
    # step verifies against the dense reference, and the edges a step adds
    # follow the edges it keeps, in order, numbered from one past the top
    # seq that the measured vertex's star leaves
    n, seqs = len(graph.vertices), []
    for step, rule in enumerate(RULES[::-1] * 2):
        # the vertex with the most edges, the lowest id among equals
        vid = min(graph.vertices,
                  key=lambda v: (-len(graph.neighbors(v.id)), v.id)).id
        assert _check_every_outcome(graph, vid, rule) == graph.dim.d
        new = rule(graph, vid, rng=step)[3]
        left = [e for e in graph.edges if vid not in (e.control, e.target)]
        kept = [e for e in new.edges if e in left]
        top = max((e.seq for e in left), default=-1)
        added = new.edges[len(kept):]
        assert list(new.edges[:len(kept)]) == kept
        seqs.append([e.seq for e in added])
        assert seqs[-1] == list(range(top + 1, top + 1 + len(added)))
        graph = new
    assert len(graph.vertices) == n - 4
    # the local complementations join their neighbours
    assert seqs[0] and seqs[2]


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
@given(st.sampled_from(DIMS), st.integers(0, 2 ** 32 - 1),
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
    c, num, ok = _diagonal_images(dim, q)
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


def _rewrite_or_error(rule, graph, vid, m):
    # a star without a unit weight is sheared by 1, so no rewrite of a
    # valid graph is refused before its draw
    try:
        return rule(graph, vid, forced_outcome=m)
    except (FrameMismatch, ZeroProbabilityForced) as exc:
        return type(exc)


def _assert_check_matches_the_full_rows(graph, vid):
    """For both rules and every forced outcome, the neighbourhood check and
    the full-row reference (dense_oracle.verify_rewrite in its place)
    accept and reject alike, and an accepted posterior's rows
    (dense_oracle.corrected_rows of its graph and corrections) are the
    reference's posterior rows word for word."""
    for rule in RULES:
        for m in graph.dim.elements:
            local = _rewrite_or_error(rule, graph, vid, m)
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_verify_rewrite", lambda *args:
                           seen.append(dense_oracle.verify_rewrite(
                               *args[:5])))
                full = _rewrite_or_error(rule, graph, vid, m)
            if isinstance(local, type):
                assert full is local
                continue
            assert not isinstance(full, type)
            assert local[1] == full[1]
            assert [c.label for c in local[2]] == [c.label for c in full[2]]
            assert _edge_list(local[3]) == _edge_list(full[3])
            assert dense_oracle.corrected_rows(
                local[0].graph, local[0].corrections) == seen[0]


@settings(max_examples=40, deadline=None)
@given(phase_graphs())
def test_neighbourhood_check_matches_the_full_rows(case):
    _assert_check_matches_the_full_rows(*case)


@pytest.mark.parametrize("index", range(len(_benchmark_graphs())))
def test_neighbourhood_check_matches_the_full_rows_on_benchmark_graphs(
        index):
    _assert_check_matches_the_full_rows(*_benchmark_graphs()[index])


def _mutations(dim, vid, new_graph, corrections):
    """(new graph, corrections, dense) triples that each differ from a
    verified rewrite in one place: one entry of a correction's exact images
    bent, the Z shift or the phase of its image of a basis shift X(x), its
    diagonal left as it was (dense False: only the neighbourhood check reads
    the images); a correction's diagonal scaled by Z and its images read
    again, which moves only the phase of its image of X(x); or a new edge
    between two of vid's former neighbours given another weight."""
    for i, c in enumerate(corrections):
        for x, bend in itertools.product(engine._additive_basis(dim),
                                         ((1, 0), (0, 1))):
            shift, nums = (list(t) for t in c.images)
            shift[x] = dim.add(shift[x], bend[0])
            nums[x] = (nums[x] + bend[1]) % dim.phase_den
            bent = list(corrections)
            bent[i] = engine.Correction(c.vertex, c.q, (shift, nums), c.label)
            yield new_graph, bent, False
        bent = list(corrections)
        bent[i] = dense_oracle.correction(dim, c.vertex,
                                          c.q * np.diag(zmat(dim, 1)), c.label)
        yield new_graph, bent, True
    near = {c.vertex for c in corrections}
    for i, e in enumerate(new_graph.edges):
        if {e.control, e.target} <= near:
            w = factor_diagonal_clifford(e.gate)[2]
            edges = list(new_graph.edges)
            edges[i] = GraphEdge(e.control, e.target,
                                 cz_power(dim, dim.add(w, 1)), e.seq)
            yield (ResourceGraph(dim, new_graph.vertices, edges), corrections,
                   True)


@pytest.mark.parametrize("rule", RULES)
def test_neighbourhood_check_rejects_a_changed_correction_or_edge(rule):
    # one bent image entry, one correction scaled by Z or one re-weighted
    # new edge (_mutations): the neighbourhood check raises FrameMismatch,
    # and so does the full-row reference, which reads the corrections'
    # diagonals, wherever a diagonal or an edge changed
    mutated = 0
    for graph, vid in _benchmark_graphs():
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_verify_rewrite",
                       lambda *args: calls.append(args))
            rule(graph, vid, rng=3)
        _, _, b, new_graph, corrections, *local = calls[0]
        engine._verify_rewrite(*calls[0])
        for bent_graph, bent, dense in _mutations(graph.dim, vid, new_graph,
                                                  corrections):
            with pytest.raises(FrameMismatch):
                engine._verify_rewrite(graph, vid, b, bent_graph, bent,
                                       *local)
            if dense:
                with pytest.raises(FrameMismatch):
                    dense_oracle.verify_rewrite(graph, vid, b, bent_graph,
                                                bent)
            mutated += 1
    assert mutated > len(_benchmark_graphs())


def test_correction_images_are_the_images_of_its_diagonal():
    # a correction's exact images, added up from integer tables, are what
    # clifford.diagonal_images reads off its diagonal, for every forced
    # outcome of both rules on the benchmark's graphs and on Z4 CZ^w
    # chains; and the dense oracle's corrected posterior (its graph and
    # diagonals) is the state measuring the vertex leaves
    Z4 = make_dim(INTEGER_RING, d=4)
    cases = _benchmark_graphs() + [
        (chain_graph(Z4, cz_power(Z4, w), 3), vid)
        for w in (1, 2, 3) for vid in (0, 1)]
    checked = 0
    for (graph, vid), rule in itertools.product(cases, RULES):
        dense = graph.dim.d ** len(graph.vertices) <= sim.MAX_AMPS
        for m in graph.dim.elements:
            got = _rewrite_or_error(rule, graph, vid, m)
            if isinstance(got, type):
                continue
            post, _, corrections, _ = got
            for c in corrections:
                assert not c.q.flags.writeable
                assert c.images == tuple(diagonal_images(graph.dim, c.q))
            if dense and post.graph.vertices:
                basis = dense_oracle.rewrite_basis(graph, vid,
                                                   rule is local_complement)
                _, want, _ = dense_oracle.measure(
                    build(graph), basis, graph.site_of(vid), forced_outcome=m)
                assert abs(np.vdot(want.amps, dense_oracle.corrected_state(
                    post.graph, post.corrections))) > 1 - 1e-9
            checked += len(corrections)
    assert checked > 300


@pytest.mark.parametrize("rule", RULES)
def test_rewrite_validates_nothing_and_reads_no_far_init(rule, monkeypatch):
    # a graph is validated where it is built, and a rewrite's output is
    # valid by construction: no rewrite calls ResourceGraph.validate, and
    # at the centre of a 40x40 qutrit lattice it reads the init phases of
    # N[v] at most (its real inits need no reading at all), never every
    # vertex's
    graph = diagonal_lattice(D3, 40, 40, cz_spec(D3))
    vid = 40 * 20 + 20
    near = {vid, *graph.neighbors(vid)}
    validated, read = [], []
    validate, vertex_phases = ResourceGraph.validate, engine._vertex_phases

    def counted_validate(self):
        validated.append(self)
        return validate(self)

    def counted_phases(dim, v):
        read.append(v.id)
        return vertex_phases(dim, v)

    monkeypatch.setattr(ResourceGraph, "validate", counted_validate)
    monkeypatch.setattr(engine, "_vertex_phases", counted_phases)
    for seed in range(3):
        post, _, _, new_graph = rule(graph, vid, rng=seed)
        assert post.graph is new_graph
        assert len(new_graph.vertices) == 40 * 40 - 1
    assert validated == []
    assert set(read) <= near


@pytest.mark.parametrize("rule", RULES)
def test_rewrite_builds_rows_of_the_neighbourhood_only(rule, monkeypatch):
    # the graph-form rows a rewrite builds are bounded by the measured
    # vertex's degree, the same on a 10x10 as on a 20x20 qutrit lattice.
    # In general a rewrite builds each neighbour's rows on both sides and
    # one row of the vertex per partner it needs, at most 3 deg |basis|
    built = []
    real = engine._graph_rows

    def counted(*args):
        rows = real(*args)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(engine, "_graph_rows", counted)
    counts = []
    for side in (10, 20):
        graph = diagonal_lattice(D3, side, side, cz_spec(D3))
        vid = side * (side // 2) + side // 2
        built.clear()
        post, _, _, _ = rule(graph, vid, rng=1)
        counts.append(sum(built))
        assert sum(built) <= 2 * (len(graph.neighbors(vid)) + 1) \
            * len(engine._additive_basis(D3))
        assert post.n == side * side - 1
    assert counts[0] == counts[1]
    for graph, vid in _benchmark_graphs():
        built.clear()
        rule(graph, vid, rng=2)
        assert sum(built) <= 3 * len(graph.neighbors(vid)) \
            * len(engine._additive_basis(graph.dim))


CARVE_DIMS = [make_dim(INTEGER_RING, d=2), D3,
              make_dim(FINITE_FIELD, p=2, m=2), make_dim(INTEGER_RING, d=5)]


# the light shift is a diagonal Clifford over Z2 and Z3 only
@pytest.mark.parametrize("dim, gate", [(dim, cz_spec) for dim in CARVE_DIMS]
                         + [(dim, light_shift_spec) for dim in CARVE_DIMS[:2]],
                         ids=lambda x: getattr(x, "__name__", None)
                         or x.label())
def test_a_chain_of_rewrites_keeps_only_the_tables_it_reads(dim, gate):
    # seeded vertex deletions and local complementations on a 3x4 lattice,
    # each on the previous output as a carve makes them: after every step,
    # the output keeps no vertex table of its parent's, only the tables
    # its own per-call check built, the measured vertex's neighbours', and
    # each equals the table of the same graph rebuilt from scratch.  On
    # the first two steps, every forced outcome of both rules agrees with
    # the full-row reference and, at up to 3^12 amplitudes, with the
    # dense state oracle
    rng = np.random.default_rng([dim.d, dim.m, len(gate.__name__)])
    graph = diagonal_lattice(dim, 3, 4, gate(dim))
    for step in range(9):
        ids = [v.id for v in graph.vertices]
        vid = ids[rng.integers(len(ids))]
        nbrs = graph.neighbors(vid)
        rule = RULES[rng.integers(2)] if nbrs else vertex_delete
        if step < 2:
            _assert_check_matches_the_full_rows(graph, vid)
            if dim.d ** len(ids) <= 3 ** 12:
                assert _check_every_outcome(graph, vid, rule) > 0
        new = rule(graph, vid, rng=int(rng.integers(2 ** 32)))[3]
        tables, parent = new._facts["tables"], graph._facts["tables"]
        assert set(tables) == set(nbrs)
        assert not any(tables[u] is parent.get(u) for u in tables)
        fresh = ResourceGraph(dim, new.vertices, new.edges)
        _, zs, nums = engine._tableau(fresh, list(tables))
        assert [tables[u] for u in tables] == list(zip(zs, nums))
        graph = new


def _fresh_cz(dim, w=1):
    """A diagonal CZ^w spec no other test shares, so the star rules kept
    on it are this test's alone."""
    return EntanglingGateSpec(dim, "diagonal", theta=cz_power(dim, w).theta,
                              init_phases=np.zeros(dim.d))


def _star_rules(spec):
    return [r for r in spec._facts.values() if isinstance(r, engine._StarRule)]


@pytest.mark.parametrize("rule", RULES)
def test_a_star_rule_is_built_once_per_signature(rule, monkeypatch):
    # two separately built 3x3 qutrit cz lattices, one with its edges
    # listed in reverse, and what a corner's rewrite leaves of each, give
    # the centre the same star signature whatever its adjacency order: its
    # rule is built once, and every forced outcome gives the same
    # corrections on all four graphs
    cz = _fresh_cz(D3)
    built = []
    init = engine._StarRule.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(engine._StarRule, "__init__", counted)
    graphs = [diagonal_lattice(D3, 3, 3, cz) for _ in range(2)]
    graphs[1] = ResourceGraph(D3, graphs[1].vertices, graphs[1].edges[::-1])
    assert engine._adjacency(graphs[0])[4] != engine._adjacency(graphs[1])[4]
    graphs += [rule(graph, 0, rng=5)[3] for graph in graphs]
    built.clear()
    outputs = []
    for graph in graphs:
        outputs.append([[(c.label, c.q.tobytes(), c.images) for c in
                         rule(graph, 4, forced_outcome=m)[2]]
                        for m in D3.elements])
        rule(graph, 4, rng=1)
    assert len(built) == 1
    assert all(out == outputs[0] for out in outputs)


def _zero_divisor_rule(second):
    """The star rule of vertex 0 with CZ^2 to 1 and CZ^second to 2 over Z4,
    sheared by the zero divisor 2, built directly: local_complement shears
    by the first unit weight, or by 1 when second is 2."""
    spec = expand(cz_power(D4R, 2))
    slots = (((spec, True),), ((expand(cz_power(D4R, second)), True),))
    return engine._StarRule(spec, 2, slots)


def test_a_cached_non_quadratic_outcome_raises_on_every_draw():
    # Z4 CZ^2 sheared by 2: outcomes 0 and 2 of the star's rule have phases
    # g that no delta fits; the message is kept with the rule and raised
    # on every read of those outcomes
    rule = _zero_divisor_rule(2)
    for _ in range(3):
        for m in (0, 2):
            with pytest.raises(FrameMismatch,
                               match=f"outcome {m} phases are not quadratic"):
                rule.outcome(m)
    assert rule.outcomes == {0: "outcome 0 phases are not quadratic",
                             2: "outcome 2 phases are not quadratic"}


class _Uniform:
    """A stand-in generator whose random(1) is [u]."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == 1
        return np.array([self.u])


def _corpus_star_rules():
    """Every star rule kept on the gates of the benchmark graphs and of
    the Z4 stars whose first edge has weight 2, once each graph has been
    rewritten by both rules, and the Z4 rules sheared by 2, whose
    outcomes include zero-probability ones."""
    graphs = _benchmark_graphs() + [(ResourceGraph(
        D4R, [Vertex(i) for i in range(3)],
        [GraphEdge(0, 1, cz_power(D4R, 2), 0),
         GraphEdge(0, 2, cz_power(D4R, second), 1)]), 0)
        for second in (1, 2, 3)]
    specs = {}
    for graph, vid in graphs:
        for rule in RULES:
            for m in graph.dim.elements:
                _rewrite_or_error(rule, graph, vid, m)
        specs.update((id(e.gate), expand(e.gate)) for e in graph.edges)
    return [r for spec in specs.values() for r in _star_rules(spec)] + [
        _zero_divisor_rule(second) for second in (1, 2, 3)]


def test_star_rule_draws_are_collapse_draws(monkeypatch):
    # a rule's kept CDF gives the oracle's collapse outcome on its
    # amplitudes for a uniform at and on both sides of each CDF entry, and
    # a forced outcome of zero probability raises collapse's error and
    # message
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda rng: rng
                        if isinstance(rng, _Uniform) else default_rng(rng))
    rules = _corpus_star_rules()
    assert len(rules) >= 20
    zero = 0
    for rule in rules:
        amps = rule.amps[None]
        draw = functools.partial(engine._draw, rule.probs, rule.cdf)
        for c in rule.cdf:
            for u in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)):
                if 0 <= u < 1:
                    assert draw(_Uniform(float(u)), None) == \
                        dense_oracle.collapse(amps, [u])[0].tolist()
        for seed in range(5):
            assert draw(seed, None) == dense_oracle.collapse(
                amps, default_rng(seed).random(1))[0].tolist()
        for m in range(len(rule.probs)):
            try:
                want = dense_oracle.collapse(amps, None, [m])[0].tolist()
            except ZeroProbabilityForced as exc:
                zero += 1
                with pytest.raises(ZeroProbabilityForced) as got:
                    draw(None, [m])
                assert str(got.value) == str(exc)
            else:
                assert draw(None, [m]) == want
    assert zero


@pytest.mark.parametrize("rule", RULES)
def test_rewrite_check_catches_a_corrupted_star_rule(rule):
    # the per-call check reads the kept eigen table, each neighbour's kept
    # correction images and the kept pair weights with their cz_power
    # specs, so one corrupted entry of any, for the outcome forced, fails
    # the next rewrite in _verify_rewrite.  Each neighbour row of the
    # qutrit lattice's centre has the part Z(1) on it: a Z measurement
    # replaces it by its eigenvalue, num[1][0]; the local complement takes
    # it with the centre's row(v, 1), whose part X(1) on it leaves Z(1)
    # X(1), num[1][1].  Each neighbour's correction maps X(1) to its kept
    # image at x = 1: its phase moved one step of the lattice or by chi(1),
    # or its Z shift moved by one.  The local complement joins every pair
    # of neighbours by CZ^w, w = delta, kept with its spec: CZ^-w instead
    graph = diagonal_lattice(D3, 3, 3, _fresh_cz(D3))
    a, x = (1, 0) if rule is vertex_delete else (1, 1)
    for m in D3.elements:
        rule(graph, 4, forced_outcome=m)
        [star_rule] = _star_rules(graph.edges[0].gate)
        g, (ok, num), slots, pairs = cached = star_rule.outcomes[m]
        bent = [row[:] for row in num]
        bent[a][x] = (bent[a][x] + 1) % D3.phase_den
        corrupted = [(g, (ok, bent), slots, pairs)]
        assert len(slots) == 4
        for i, (q, (z, nums)) in enumerate(slots):
            for shift, step in ((0, 1), (0, D3.char_exp(1)), (1, 0)):
                bent_z, bent_nums = list(z), list(nums)
                bent_z[1] = D3.add(bent_z[1], shift)
                bent_nums[1] = (bent_nums[1] + step) % D3.phase_den
                bent = list(slots)
                bent[i] = (q, (bent_z, bent_nums))
                corrupted.append((g, (ok, num), bent, pairs))
        assert len(pairs) == (0 if rule is vertex_delete else 6)
        for k, (i, j, w, _) in enumerate(pairs):
            bent = list(pairs)
            bent[k] = (i, j, D3.neg(w), cz_power(D3, D3.neg(w)))
            corrupted.append((g, (ok, num), slots, bent))
        for entry in corrupted:
            star_rule.outcomes[m] = entry
            with pytest.raises(FrameMismatch) as excinfo:
                rule(graph, 4, forced_outcome=m)
            assert any(frame.name == "_verify_rewrite"
                       for frame in excinfo.traceback)
        star_rule.outcomes[m] = cached
        rule(graph, 4, forced_outcome=m)
