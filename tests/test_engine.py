"""Resource-state engine: pattern runs, protocols, mediators, rewriting,
checked against the dense oracle."""

import bisect
import functools
import gc
import itertools
import json
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quditmbqc import clifford, engine, resource, sim
from quditmbqc.errors import (
    DimensionMismatch,
    FrameMismatch,
    NonUnitary,
    NotCliffordError,
    SiteOutOfRange,
    StateTooLarge,
    UnsupportedFormalism,
    ZeroProbabilityForced,
)
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.clifford import certify, diagonal_images
from quditmbqc.gates import (
    basis_state,
    dphi,
    hadamard,
    sgate,
    shear_gate,
    xplus_state,
)
from quditmbqc.pauli import (
    PauliWord,
    identity_word,
    matrix_of_pauli,
    normal_form,
    zmat,
    zx_matrix,
)
from quditmbqc.compiler import (
    MeasurementPattern,
    PatternStep,
    compile_clifford,
    compile_unitary,
    pattern_from_json,
    pattern_to_json,
    transport_pattern,
)
from quditmbqc.resource import (
    EntanglingGateSpec,
    cx_spec,
    cz_spec,
    expand,
    factor_diagonal_clifford,
    gate_matrix,
    intrinsic_of,
    light_shift_spec,
    mediator_of,
    mediator_tables,
)
from quditmbqc.sim import schmidt
from quditmbqc.engine import (
    GraphEdge,
    ResourceGraph,
    Vertex,
    chain_graph,
    couple_input,
    diagonal_lattice,
    edge_frame,
    entangle_via_edge,
    graph_from_json,
    graph_to_json,
    local_complement,
    mediated_lattice,
    mediator_step,
    run_trajectories,
    vertex_delete,
)

import dense_oracle
from dense_oracle import (
    MeasurementBasis,
    apply,
    bell_basis,
    build,
    conjugation,
    image,
    measure,
    product_state,
    with_init,
    words,
)

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)
D101 = make_dim(INTEGER_RING, d=101)
D4F = make_dim(FINITE_FIELD, p=2, m=2)


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_build_two_vertex_cz():
    g = chain_graph(D3, cz_spec(D3), 2)
    st = build(g)
    plus = xplus_state(D3)
    assert np.allclose(st.amps, gate_matrix(cz_spec(D3)) @ np.kron(plus, plus))


def _max_row_deviation(graph):
    """Max |row psi - psi| over the graph's stabilizer rows
    (dense_oracle.GraphTableau), applied densely."""
    st = build(graph)
    sites = list(range(st.n))
    return max(np.max(np.abs(apply(st, matrix_of_pauli(w), sites).amps
                             - st.amps))
               for w in dense_oracle.GraphTableau(graph).rows())


@pytest.mark.parametrize("spec_of", [cz_spec, light_shift_spec])
def test_chain_stabilizers(spec_of):
    assert _max_row_deviation(chain_graph(D3, spec_of(D3), 4)) < 1e-10


def test_lattice_stabilizers():
    assert _max_row_deviation(diagonal_lattice(D2, 2, 3, cz_spec(D2))) < 1e-10


@pytest.mark.parametrize("spec_of", [cz_spec, light_shift_spec])
@pytest.mark.parametrize("dim", [D2, D3, D4F])
def test_diagonal_build_is_edge_order_independent(dim, spec_of):
    g = diagonal_lattice(dim, 2, 3, spec_of(dim))
    ref = build(g).amps
    rng = np.random.default_rng(11)
    for _ in range(4):
        seqs = rng.permutation(len(g.edges))
        edges = [replace(e, seq=int(s)) for e, s in zip(g.edges, seqs)]
        shuffled = build(ResourceGraph(dim, g.vertices, edges)).amps
        assert np.max(np.abs(shuffled - ref)) < 1e-12


def test_validate_rejects_duplicates_and_loops():
    # a graph is validated where it is built, so neither can be held
    with pytest.raises(DimensionMismatch, match="duplicate vertex ids"):
        ResourceGraph(D3, [Vertex(0), Vertex(0)], [])
    with pytest.raises(SiteOutOfRange, match="self-loop edge"):
        ResourceGraph(D3, [Vertex(0)], [GraphEdge(0, 0, cz_spec(D3), 0)])
    g = chain_graph(D3, cz_spec(D3), 2)
    with pytest.raises(DimensionMismatch, match="duplicate vertex ids"):
        replace(g, vertices=g.vertices * 2)
    g.validate()


def test_a_vertex_not_in_the_graph_is_refused_alike():
    # neighbors refuses an unknown id as vertex, site_of and a rewrite do,
    # on the graph as built and on a rewrite's output
    g = chain_graph(D3, cz_spec(D3), 3)
    derived = vertex_delete(g, 0, rng=0)[3]
    for graph in (g, derived):
        for call in (graph.neighbors, graph.vertex, graph.site_of,
                     lambda vid: vertex_delete(graph, vid, rng=0)):
            with pytest.raises(SiteOutOfRange,
                               match="vertex 99 not in graph"):
                call(99)
    assert g.neighbors(1) == [0, 2] and derived.neighbors(1) == [2]
    with pytest.raises(SiteOutOfRange, match="vertex 0 not in graph"):
        derived.neighbors(0)


@pytest.mark.parametrize("label", [5, -1])
def test_out_of_range_label_init_is_refused(label):
    # a Z-basis label must index the basis: 5 is no IndexError, and -1 is
    # not read as label 2.  The graph is refused where it is built, by
    # the constructor, dataclasses.replace and graph_from_json alike, so
    # no call that takes a graph can meet it
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    vertices = [Vertex(v.id, label if v.id == 1 else v.init)
                for v in g.vertices]
    obj = graph_to_json(g)
    obj["vertices"][1]["init"] = label
    message = f"vertex init {label} is not a label in 0..2"
    for call in (lambda: ResourceGraph(D3, vertices, g.edges),
                 lambda: replace(g, vertices=vertices),
                 lambda: graph_from_json(obj)):
        with pytest.raises(DimensionMismatch, match=message):
            call()


def test_run_transport_pattern():
    intr = intrinsic_of(cz_spec(D3))
    pat = transport_pattern(intr)
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    rng = np.random.default_rng(0)
    psi = random_state(3, rng)
    runs = run_trajectories(g, pat, psi, rng=1, trials=1)
    ideal = matrix_of_pauli(runs.frame(0).word) @ matrix_of_pauli(
        pat.frame).conj().T @ pat.dense_product() @ psi
    assert abs(np.vdot(runs.posteriors[0],
                       ideal / np.linalg.norm(ideal))) > 1 - 1e-9


def test_run_clifford_pattern_non_adaptive():
    intr = intrinsic_of(cz_spec(D3))
    pat = compile_clifford(sgate(D3), intr)
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    psi = basis_state(D3, 0)
    for seed in range(10):
        runs = run_trajectories(g, pat, psi, rng=seed, trials=1)
        ideal = matrix_of_pauli(runs.frame(0).word) @ sgate(D3) @ psi
        assert abs(np.vdot(runs.posteriors[0],
                           ideal / np.linalg.norm(ideal))) > 1 - 1e-9


def test_run_adaptive_pattern_many_trajectories():
    rng = np.random.default_rng(3)
    for spec_of in (cz_spec, light_shift_spec, cx_spec):
        intr = intrinsic_of(spec_of(D3))
        U = haar_unitary(3, rng)
        pat = compile_unitary(U, intr, seed=0)
        g = chain_graph(D3, spec_of(D3), pat.step_count() + 1)
        psi = random_state(3, rng)
        for seed in range(5):
            runs = run_trajectories(g, pat, psi, rng=seed, trials=1)
            ideal = matrix_of_pauli(runs.frame(0).word) @ matrix_of_pauli(
                pat.frame).conj().T @ U @ psi
            fid = abs(np.vdot(runs.posteriors[0],
                              ideal / np.linalg.norm(ideal)))
            assert fid > 1 - 1e-6


def test_run_forced_outcomes_deterministic():
    intr = intrinsic_of(cz_spec(D2))
    pat = compile_unitary(hadamard(D2), intr, seed=0)
    g = chain_graph(D2, cz_spec(D2), pat.step_count() + 1)
    psi = basis_state(D2, 0)
    zeros = [[0] * pat.step_count()]
    a = run_trajectories(g, pat, psi, None, forced_outcomes=zeros)
    b = run_trajectories(g, pat, psi, None, forced_outcomes=zeros)
    assert np.allclose(a.posteriors[0], b.posteriors[0])
    assert a.frame(0).history == b.frame(0).history


def test_run_builds_the_final_frame_table_once_per_frame():
    # the final frame F moves each row's word w by index arithmetic to the
    # product w F that normal_form composes, exact phase included; any F
    # verifies, as the ideal is built through F too
    for dim in (D3, D4F):
        d = dim.d
        pat = transport_pattern(intrinsic_of(cz_spec(dim)))
        g = chain_graph(dim, cz_spec(dim), pat.step_count() + 1)
        plain = run_trajectories(g, pat, xplus_state(dim), rng=0, trials=8)
        for F in words(dim):
            F = PauliWord(dim, 1, F.z, F.x, 1)
            framed = run_trajectories(g, replace(pat, frame=F),
                                      xplus_state(dim), rng=0, trials=8)
            for t in range(8):
                z, x = divmod(int(plain.frame_index[t]), d)
                want = normal_form(PauliWord(
                    dim, 1, (z,), (x,), int(plain.frame_phase[t])), F)
                assert framed.frame_index[t] == want.z[0] * d + want.x[0]
                assert framed.frame_phase[t] == want.phase_num \
                    % dim.phase_den


D5 = make_dim(INTEGER_RING, d=5)
# (dim, gate family) for every family the batched kernel must match
RUN_FAMILIES = [(dim, spec_of) for dim in (D2, D3, D4F)
                for spec_of in (cz_spec, light_shift_spec, cx_spec)] \
    + [(D5, cz_spec), (D5, cx_spec)]


def _reference_run(g, pat, psi, rng, forced):
    """The per-step loop the batched kernel replaced: dense apply and
    measure, frames conjugated word by word.  Returns (head, word,
    history)."""
    dim, d = pat.dim, pat.dim.d
    gen = np.random.default_rng(rng)
    g_cert = pat.intrinsic.certificate()
    cur = psi / np.linalg.norm(psi)
    frame, history = identity_word(dim, 1), []
    for i, step in enumerate(pat.steps):
        # chain inits are phase vectors: the fresh qudit is D_phi |+>
        init = np.asarray(g.vertex(i + 1).init, dtype=float)
        two = apply(product_state(dim, [cur, dphi(init) @ xplus_state(dim)]),
                    gate_matrix(g.edges[i].gate), [0, 1])
        x = frame.x[0]
        phases = np.array([step.phases[dim.add(u, dim.neg(x))]
                           for u in range(d)]) if step.adaptive \
            else step.phases
        basis = MeasurementBasis(dim, dphi(-phases) @ hadamard(dim))
        k, post, _ = measure(two, basis, 0, rng=gen, forced_outcome=None
                             if forced is None else forced[i])
        cur = post.amps
        w = frame if step.adaptive \
            else image(certify(dphi(step.phases), dim), frame)
        frame = image(g_cert, normal_form(
            PauliWord(dim, 1, (dim.neg(k),), (0,)), w))
        history.append((i, k))
    return cur, normal_form(frame, pat.frame), history


def _assert_rows_match_the_reference(g, pat, psi, runs, seed=None,
                                     forced=None):
    # row t against the per-step loop on the run's stream: row t's
    # uniforms are the t-th S draws of default_rng(seed)
    gen = np.random.default_rng(seed)
    for t in range(len(runs.posteriors)):
        outcomes = None if forced is None else forced[t]
        head, word, history = _reference_run(g, pat, psi, gen, outcomes)
        assert np.max(np.abs(runs.posteriors[t] - head)) < 1e-12
        assert (runs.frame(t).word, runs.frame(t).history) == (word, history)


def _assert_runs_are_prefixes(g, pat, psi, seed, monkeypatch):
    # runs of 1, 5 and d^2 + 2 trials, the last in blocks of d^2 rows: each
    # shorter run's rows are the longest run's first rows, outcomes, frames
    # and phases equal, posteriors to 1e-12 (numpy hands a one-row matmul
    # to BLAS gemv, which sums in another order than gemm); the longest
    # run's rows are the per-step loop's on default_rng(seed)
    d = pat.dim.d
    runs = [run_trajectories(g, pat, psi, rng=seed, trials=T) for T in (1, 5)]
    monkeypatch.setattr(sim, "MAX_AMPS", d ** 4)
    longest = run_trajectories(g, pat, psi, rng=seed, trials=d * d + 2)
    for run in runs:
        T = len(run.outcomes)
        for name in ("outcomes", "frame_index", "frame_phase"):
            assert np.array_equal(getattr(run, name),
                                  getattr(longest, name)[:T]), (T, name)
        assert np.max(np.abs(run.posteriors - longest.posteriors[:T])) < 1e-12
    _assert_rows_match_the_reference(g, pat, psi, longest, seed=seed)


@pytest.mark.parametrize("dim,spec_of", RUN_FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_batched_rows_equal_single_trajectories(dim, spec_of, monkeypatch):
    rng = np.random.default_rng(12)
    pat = compile_unitary(haar_unitary(dim.d, rng), intrinsic_of(spec_of(dim)))
    g = chain_graph(dim, spec_of(dim), pat.step_count() + 1)
    psi = random_state(dim.d, rng)
    forced = rng.integers(0, dim.d, size=(6, pat.step_count()))
    runs = run_trajectories(g, pat, psi, None, forced_outcomes=forced)
    assert runs.outcomes.tolist() == forced.tolist()
    for t, row in enumerate(forced):
        one = run_trajectories(g, pat, psi, forced_outcomes=[row])
        assert np.max(np.abs(runs.posteriors[t] - one.posteriors[0])) < 1e-12
        assert runs.frame(t).word == one.frame(0).word
        assert runs.frame(t).history == one.frame(0).history
    _assert_rows_match_the_reference(g, pat, psi, runs, forced=forced)
    _assert_runs_are_prefixes(g, pat, psi, 40, monkeypatch)


def test_batched_non_adaptive_rows_equal_single_trajectories(monkeypatch):
    pat = compile_clifford(sgate(D3), intrinsic_of(cz_spec(D3)))
    assert not any(step.adaptive for step in pat.steps)
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    psi = random_state(3, np.random.default_rng(13))
    _assert_runs_are_prefixes(g, pat, psi, 0, monkeypatch)


def test_frame_phases_are_checked(monkeypatch):
    # a Clifford step's images with their phases dropped move each frame's
    # word as before but not its phase: the rows' overlaps then differ in
    # phase, which the fidelity's modulus cannot see
    patterns = Path(__file__).parent / "data" / "clifford_patterns.json"
    pat = pattern_from_json(json.loads(patterns.read_text())["Z3-cx-hadamard"])
    g = chain_graph(D3, pat.gate, pat.step_count() + 1)
    psi = basis_state(D3, 0)
    run_trajectories(g, pat, psi, rng=0, trials=10)
    real = clifford.diagonal_images
    monkeypatch.setattr(clifford, "diagonal_images",
                        lambda dim, q: (real(dim, q)[0], [0] * dim.d))
    with pytest.raises(FrameMismatch, match="frame phase"):
        run_trajectories(g, pat, psi, rng=0, trials=10)


_DATA = Path(__file__).parent / "data"
_PATTERN_FILES = {f"{name}:{key}": (name, key)
                  for name in ("run_patterns.json", "clifford_patterns.json")
                  for key in json.loads((_DATA / name).read_text())}


@pytest.mark.parametrize("trials", [1, 20])
@pytest.mark.parametrize("case", sorted(_PATTERN_FILES))
def test_forced_outcomes_reproduce_a_seeded_run(case, trials):
    # the outcomes a seeded run drew, forced, give that run back bit for
    # bit: outcomes, frames and their phases, posteriors and fidelities;
    # and two forced calls give the same result
    name, key = _PATTERN_FILES[case]
    pat = pattern_from_json(json.loads((_DATA / name).read_text())[key])
    g = chain_graph(pat.dim, pat.gate, pat.step_count() + 1)
    psi = random_state(pat.dim.d, np.random.default_rng(trials))
    seeded = run_trajectories(g, pat, psi, rng=0, trials=trials)
    runs = [run_trajectories(g, pat, psi, None,
                             forced_outcomes=seeded.outcomes.tolist())
            for _ in range(2)]
    for run in runs:
        for field in ("outcomes", "frame_index", "frame_phase",
                      "posteriors", "fidelities"):
            got, want = getattr(run, field), getattr(seeded, field)
            assert (got.dtype, got.shape, got.tobytes()) \
                == (want.dtype, want.shape, want.tobytes()), field


def _check_against_the_oracle_collapse(g, pat, psi, seed=7, T=300):
    # each of the kernel's steps gives the outcome the oracle's collapse
    # draws from the step's whole branch on the run's uniforms, row t of
    # default_rng(seed).random((T, steps)), and the posterior to 1e-12;
    # returns the plan's uniform flags
    dim, d = pat.dim, pat.dim.d
    runs = run_trajectories(g, pat, psi, rng=seed, trials=T)
    plan, (nxt, dph), (f_idx, f_ph) = engine._trajectory_plan(g, pat)
    u = np.random.default_rng(seed).random((T, len(plan)))
    cur = np.broadcast_to(sim.unit_vector(psi, d, "psi"), (T, d))
    at, ph = np.zeros(T, dtype=np.intp), np.zeros(T, dtype=np.int64)
    for i, (table, _, rows, diag) in enumerate(plan):
        branch = ((cur * rows[at % d]) @ table).reshape(T, d, d)
        k, cur, _ = dense_oracle.collapse(branch, u[:, i])
        assert np.array_equal(runs.outcomes[:, i], k), i
        if diag is not None:
            at, ph = diag[0][at], ph + diag[1][at]
        at, ph = nxt[at, k], ph + dph[at, k]
    assert np.max(np.abs(runs.posteriors - cur)) < 1e-12
    # unit posteriors, so no fidelity reads past 1
    norms = np.linalg.norm(runs.posteriors, axis=1)
    assert np.max(np.abs(norms - 1)) <= 2 * np.finfo(float).eps
    assert np.array_equal(runs.frame_index, f_idx[at])
    assert np.array_equal(runs.frame_phase, (ph + f_ph[at]) % dim.phase_den)
    return [uniform for _, uniform, _, _ in plan]


@pytest.mark.parametrize("case", sorted(_PATTERN_FILES))
def test_trajectory_draws_equal_the_oracle_collapse(case):
    # every outcome weighs 1/d, so the kernel's draw off the kept uniform
    # CDF is the oracle's draw off the whole branch
    name, key = _PATTERN_FILES[case]
    pat = pattern_from_json(json.loads((_DATA / name).read_text())[key])
    g = chain_graph(pat.dim, pat.gate, pat.step_count() + 1)
    psi = random_state(pat.dim.d, np.random.default_rng(list(case.encode())))
    assert all(_check_against_the_oracle_collapse(g, pat, psi))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_weighted_step_draws_are_collapse_draws(d):
    # off each row's own CDF: a uniform at and on both sides of each of
    # its entries, zero-weight outcomes included, gives the outcome and
    # posterior of the oracle's collapse, and a forced zero-weight outcome
    # raises as there
    rng = np.random.default_rng(d)
    branch = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    branch[1, 0] = branch[2, d - 1] = branch[3, 1:] = 0
    branch /= np.linalg.norm(branch, axis=(1, 2))[:, None, None]
    cdf = np.cumsum(np.sum(np.abs(branch) ** 2, axis=2), axis=1)
    cdf /= cdf[:, -1:]
    for c in cdf.T:
        for u in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)):
            u = np.clip(u, 0, np.nextafter(1, 0))
            k, post = engine._weighted_step(branch, u[:, None], 0, None)
            want_k, want_post, _ = dense_oracle.collapse(branch, u)
            assert np.array_equal(k, want_k)
            assert np.max(np.abs(post - want_post)) < 1e-15
    with pytest.raises(ZeroProbabilityForced):
        engine._weighted_step(branch, None, 0, np.array([0, 0, 0, 1]))


# chains that hold a vertex whose table is not uniform, with an input
# that they transport: (gate, vertex, init, input)
_WEIGHTED_CHAINS = {
    "cz-label-2": (cz_spec, 2, 1, 0),
    "cz-label-1": (cz_spec, 1, 1, "+"),
    "light_shift-label-3": (light_shift_spec, 3, 1, 0),
    "cx-phases-1": (cx_spec, 1, "phases", "+"),
}


def _weighted_chain(case):
    spec_of, vid, init, label = _WEIGHTED_CHAINS[case]
    pat = transport_pattern(intrinsic_of(spec_of(D3)))
    g = chain_graph(D3, spec_of(D3), pat.step_count() + 1)
    if init == "phases":
        init = 2 * np.pi * np.arange(3) / 3
    psi = xplus_state(D3) if label == "+" else basis_state(D3, label)
    return with_init(g, vid, init), pat, psi, vid


@pytest.mark.parametrize("case", sorted(_WEIGHTED_CHAINS))
def test_weighted_steps_draw_as_the_oracle_collapse(case):
    # a step whose outcome weights depend on the state draws off each row's
    # own CDF, which is the oracle's draw too; every other step of the same
    # chain still reads the kept uniform CDF, and forcing a seeded run's
    # outcomes gives it back bit for bit
    g, pat, psi, vid = _weighted_chain(case)
    uniform = _check_against_the_oracle_collapse(g, pat, psi)
    assert uniform == [i != vid - 1 for i in range(pat.step_count())]
    seeded = run_trajectories(g, pat, psi, rng=0, trials=50)
    forced = run_trajectories(g, pat, psi, None,
                              forced_outcomes=seeded.outcomes)
    for field in ("outcomes", "frame_index", "frame_phase", "posteriors",
                  "fidelities"):
        assert getattr(forced, field).tobytes() \
            == getattr(seeded, field).tobytes(), field


@pytest.mark.parametrize("case", sorted(_PATTERN_FILES))
def test_trajectory_tables_equal_the_step_by_step_moves(case):
    # for every word index and outcome, a step's composed move, its
    # diagonal's word map (a Clifford step's; none for an adaptive step)
    # and then the shared (nxt, dph), is its diagonal's images, then
    # Z^{-k}, then G_I's frame table, and the final table is the product
    # with the pattern's frame; the folded step on e_a at frame shift s is
    # basis_s^T times (e_a (x) fresh) E^T as d x d, basis_s =
    # conj(exp(-1j psi_s)[:, None] H), psi_s the phases shifted by s (a
    # Clifford step's are not)
    name, key = _PATTERN_FILES[case]
    pat = pattern_from_json(json.loads((_DATA / name).read_text())[key])
    dim, d = pat.dim, pat.dim.d
    g = chain_graph(dim, pat.gate, pat.step_count() + 1)
    plan, (nxt, dph), (f_idx, f_ph) = engine._trajectory_plan(g, pat)
    cert = pat.intrinsic.certificate()
    g_idx, g_ph = cert.idx, cert.phase
    H = hadamard(dim)
    # every chain vertex starts in the gate's resource state
    two_in = np.kron(np.eye(d), resource.resource_init(pat.gate))
    E = gate_matrix(pat.gate)
    for step, (table, _, rows, diag) in zip(pat.steps, plan):
        adaptive = step.adaptive
        assert (diag is None) == adaptive
        word, wnum = (range(d * d), [0] * d * d) if adaptive else diag
        phases = np.asarray(step.phases, dtype=float)
        c, num = ([0] * d, [0] * d) if adaptive \
            else diagonal_images(dim, np.exp(1j * phases))
        for a, k in itertools.product(range(d * d), range(d)):
            z, x = divmod(a, d)
            moved = dim.sub(dim.add(z, c[x]), k) * d + x
            assert (nxt[word[a], k], wnum[a] + dph[word[a], k]) \
                == (g_idx[moved], num[x] + g_ph[moved])
        for s, a in itertools.product(range(d), range(d)):
            psi_s = phases[[dim.sub(u, s) if adaptive else u
                            for u in range(d)]]
            basis = (np.exp(-1j * psi_s)[:, None] * H).conj()
            want = basis.T @ (two_in[a] @ E.T).reshape(d, d)
            got = ((np.eye(d)[a] * rows[s]) @ table).reshape(d, d)
            assert np.max(np.abs(got - want)) < 1e-12, (s, a)
    for a in range(d * d):
        want = normal_form(PauliWord(dim, 1, (a // d,), (a % d,)), pat.frame)
        assert f_idx[a] == want.z[0] * d + want.x[0]
        assert f_ph[a] % dim.phase_den == want.phase_num


def test_step_tables_fold_each_vertex_init():
    # a chain whose vertices start in different states folds one table per
    # distinct (gate, init): equal inits, as arrays of any identity, share
    # one; an int label, a complex vector and a phase vector each get their
    # own, equal to the dense product with that vertex's state, and only
    # the label's outcome weights depend on the state
    pat = compile_unitary(haar_unitary(3, np.random.default_rng(14)),
                          intrinsic_of(cz_spec(D3)))
    n = pat.step_count()    # five adaptive steps
    phases = expand(cz_spec(D3)).init_phases
    inits = [None, 1, phases, np.array([1, 1j, -1]) / np.sqrt(3), None,
             phases.copy()]
    g = ResourceGraph(D3, [Vertex(i, inits[i]) for i in range(n + 1)],
                      chain_graph(D3, cz_spec(D3), n + 1).edges)
    plan, _, _ = engine._trajectory_plan(g, pat)
    E, H = gate_matrix(cz_spec(D3)), hadamard(D3)
    for i, (step, (table, _, rows, _)) in enumerate(zip(pat.steps, plan)):
        fresh = engine._init_vector(D3, inits[i + 1])
        basis = (np.exp(-1j * np.asarray(step.phases))[:, None] * H).conj()
        for a in range(3):
            two = np.kron(np.eye(3)[a], fresh) @ E.T
            want = basis.T @ two.reshape(3, 3)
            got = ((np.eye(3)[a] * rows[0]) @ table).reshape(3, 3)
            assert np.max(np.abs(got - want)) < 1e-12, (i, a)
    tables = [id(table) for table, *_ in plan]
    assert [uniform for _, uniform, _, _ in plan] == [False] + [True] * 4
    assert tables[1] == tables[4]
    assert len(set(tables[:4])) == 4


def test_kept_step_and_move_tables_are_shared_across_runs(monkeypatch):
    # chain vertices share their spec's read-only init, so two runs on
    # fresh chain graphs, of a pattern read twice from its JSON as two CLI
    # calls do, read the step table kept on the spec and the move tables
    # kept on the certificate: the same read-only objects
    pat = compile_unitary(haar_unitary(3, np.random.default_rng(14)),
                          intrinsic_of(cz_spec(D3)))
    pat.gate = cz_spec(D3)    # as cli compile writes it
    obj = pattern_to_json(pat)
    real, plans = engine._trajectory_plan, []
    monkeypatch.setattr(engine, "_trajectory_plan",
                        lambda g, p: plans.append(real(g, p)) or plans[-1])
    for _ in range(2):
        pat = pattern_from_json(obj)
        g = chain_graph(D3, pat.gate, pat.step_count() + 1)
        assert all(v.init is expand(cz_spec(D3)).init_phases
                   for v in g.vertices)
        run_trajectories(g, pat, basis_state(D3, 0), rng=0, trials=10)
    kept = (engine._spec_step(cz_spec(D3))[0],
            *pat.intrinsic.certificate().move_table())
    (first, moves, _), (second, again, _) = plans
    assert all(step.adaptive for step in pat.steps)
    for a, b in zip(first, second):
        assert a[0] is b[0] is kept[0]
    assert moves[0] is again[0] is kept[1] and moves[1] is again[1] is kept[2]
    assert not any(t.flags.writeable for t in kept)


def test_a_vertex_keeps_a_private_copy_of_a_writeable_init():
    # a caller's writeable array, or a read-only view of one, is copied
    # read-only, so writing the caller's array later moves nothing; only a
    # read-only array that owns its memory, as a spec's init is, is shared
    arr = np.array([0.5, 1.0, 2.0])
    view = arr[:]
    view.flags.writeable = False
    for init in (arr, view, arr.tolist()):
        v = Vertex(0, init)
        assert v.init is not init and not v.init.flags.writeable
        assert not np.shares_memory(v.init, arr)
    v = Vertex(0, arr)
    arr[0] = 7.0
    assert v.init[0] == 0.5
    phases = expand(cx_spec(D3)).init_phases
    assert Vertex(1, phases).init is phases


@pytest.mark.parametrize("case", sorted(_WEIGHTED_CHAINS))
def test_weighted_and_forced_steps_match_a_dense_chain(case):
    # each step of a chain whose weights depend on the state goes through
    # _weighted_step, seeded or forced; gathered by flat index, its
    # posteriors are those of the oracle's whole-state chain: the head and
    # the fresh vertex, the dense edge gate, then the head measured in the
    # step's basis at the run's outcome
    g, pat, psi, _ = _weighted_chain(case)
    assert not any(step.adaptive for step in pat.steps)    # fixed bases
    seeded = run_trajectories(g, pat, psi, rng=0, trials=40)
    forced = run_trajectories(g, pat, psi, None,
                              forced_outcomes=seeded.outcomes)
    order, edges = engine._chain(g)
    H = hadamard(D3)
    for t, ks in enumerate(seeded.outcomes):
        state = psi
        for i, (step, k) in enumerate(zip(pat.steps, ks)):
            fresh = engine._init_vector(D3, g.vertex(order[i + 1]).init)
            two = dense_oracle.apply(
                sim.StateVector(D3, 2, np.kron(state, fresh)),
                gate_matrix(edges[i].gate), [0, 1])
            basis = dense_oracle.MeasurementBasis(
                D3, np.exp(-1j * np.asarray(step.phases))[:, None] * H)
            _, post, _ = dense_oracle.measure(two, basis, 0, forced_outcome=k)
            state = post.amps
        for runs in (seeded, forced):
            assert abs(np.vdot(state, runs.posteriors[t])) > 1 - 1e-12


def test_batched_blocks_equal_one_block(monkeypatch):
    pat = compile_unitary(haar_unitary(3, np.random.default_rng(14)),
                          intrinsic_of(cz_spec(D3)))
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    psi = basis_state(D3, 0)
    whole = run_trajectories(g, pat, psi, rng=0, trials=10)
    # blocks of 9 rows and one of 1, at the d^4 budget's least size
    monkeypatch.setattr(sim, "MAX_AMPS", 3 ** 4)
    split = run_trajectories(g, pat, psi, rng=0, trials=10)
    assert np.max(np.abs(split.posteriors - whole.posteriors)) < 1e-12
    assert np.max(np.abs(split.fidelities - whole.fidelities)) < 1e-12
    for name in ("frame_index", "frame_phase", "outcomes"):
        assert np.array_equal(getattr(split, name), getattr(whole, name))


def _identity_edge_chain(dim, length):
    # an edge gate that entangles nothing, so outcomes can be impossible
    flat = EntanglingGateSpec(dim, "diagonal", theta=np.zeros((dim.d, dim.d)),
                              init_phases=np.zeros(dim.d))
    return chain_graph(dim, flat, length)


def test_run_checks_still_raise():
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    n = pat.step_count()
    plus = xplus_state(D3)
    # step 0 measures |+> in {H|k>}: outcome 1 has probability 0
    g = _identity_edge_chain(D3, n + 1)
    with pytest.raises(ZeroProbabilityForced):
        run_trajectories(g, pat, plus, None,
                         forced_outcomes=[[1] + [0] * (n - 1)])
    with pytest.raises(ZeroProbabilityForced):
        run_trajectories(g, pat, plus, None,
                         forced_outcomes=[[0] * n, [1] + [0] * (n - 1)])
    # phase inits other than the gate's own reach the final check: on a
    # diagonal edge it fails for |+> (ROADMAP item 3), on a cx edge, whose
    # step then draws off each row's own CDF, it passes
    for spec_of in (cz_spec, light_shift_spec, cx_spec):
        own = transport_pattern(intrinsic_of(spec_of(D3)))
        chain = chain_graph(D3, spec_of(D3), own.step_count() + 1)
        for vid in range(1, own.step_count() + 1):
            other = with_init(chain, vid, 2 * np.pi * np.arange(3) / 3)
            if spec_of is cx_spec:
                runs = run_trajectories(other, own, plus, rng=0, trials=50)
                assert runs.fidelities.min() >= 1 - 1e-9
            else:
                with pytest.raises(FrameMismatch, match="trajectory "
                                   "(fidelity|frame phase)"):
                    run_trajectories(other, own, plus, rng=0, trials=50)
    g = chain_graph(D3, cz_spec(D3), n + 1)
    with pytest.raises(SiteOutOfRange):
        run_trajectories(g, pat, plus, None, forced_outcomes=[[3] * n])
    with pytest.raises(DimensionMismatch):
        run_trajectories(chain_graph(D3, cz_spec(D3), n), pat, plus, rng=0,
                         trials=1)
    backward = replace(g, edges=(replace(g.edges[0], control=1, target=0),
                                 *g.edges[1:]))
    with pytest.raises(DimensionMismatch):
        run_trajectories(backward, pat, plus, rng=0, trials=1)
    leaky = EntanglingGateSpec(D3, "block_diagonal",
                               blocks=[2 * np.eye(3)] * 3,
                               init_phases=np.zeros(3))
    with pytest.raises(NonUnitary):
        run_trajectories(chain_graph(D3, leaky, n + 1), pat, plus, rng=0, trials=1)
    # the chain applies cz's intrinsic gate, not the light-shift one
    wrong = replace(pat, intrinsic=intrinsic_of(light_shift_spec(D3)))
    with pytest.raises(FrameMismatch):
        run_trajectories(g, wrong, plus, rng=0, trials=3)


def test_size_guards_fire_before_allocation():
    # 3^13 amplitudes exceed sim.MAX_AMPS: nothing of that size is formed
    tracemalloc.start()
    try:
        with pytest.raises(StateTooLarge):
            build(chain_graph(D3, cz_spec(D3), 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    # 10^9 trajectories of 3 amplitudes: raised before any row is drawn
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    with pytest.raises(StateTooLarge):
        run_trajectories(g, pat, xplus_state(D3), rng=0, trials=10 ** 9)


GOLDEN_FRAME = {"x": [0], "z": [2]}
GOLDEN_HISTORY = [[0, 0], [1, 2], [2, 0], [3, 1], [4, 0]]


def test_cli_run_golden(tmp_path, capsys):
    # frame and history of the last of 100 trials on the 5-step native
    # word, recorded as the dense per-step loop (_reference_run) gives
    # them on the run's stream: its 100th row of five draws of
    # default_rng(7)
    from quditmbqc import cli
    from quditmbqc.resource import gate_to_json
    gate = tmp_path / "gate.json"
    gate.write_text(json.dumps(gate_to_json(cz_spec(D3))))
    U = haar_unitary(3, np.random.default_rng(15))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"matrix": [[[v.real, v.imag] for v in row]
                                             for row in U]}))
    assert cli.main(["compile", "--gate", str(gate), "--target", str(target),
                     "--seed", "0"]) == 0
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps(
        json.loads(capsys.readouterr().out)["results"]["pattern"]))
    assert cli.main(["run", "--pattern", str(pattern), "--trials", "100",
                     "--seed", "7"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["frame"] == GOLDEN_FRAME
    assert res["history"] == GOLDEN_HISTORY
    assert res["min_fidelity"] > 1 - 1e-9


def test_couple_input_all_outcomes():
    g = chain_graph(D2, cz_spec(D2), 2)
    rng = np.random.default_rng(4)
    psi = random_state(2, rng)
    H = hadamard(D2)
    for outcome in range(4):
        post, frame, k = couple_input(psi, g, forced_outcome=outcome)
        assert k == outcome
        ideal = matrix_of_pauli(frame.word) @ H @ psi
        assert abs(np.vdot(post.amps,
                           ideal / np.linalg.norm(ideal))) > 1 - 1e-9


@pytest.mark.parametrize("spec_of", [cz_spec, light_shift_spec, cx_spec])
@pytest.mark.parametrize("dim", [D2, D3, D4F])
def test_couple_input_predicts_every_outcome(dim, spec_of):
    # the head starts in D_phi|+> (S|+> for cx): it carries G_I D_phi W|psi>
    g = chain_graph(dim, spec_of(dim), 2)
    psi = random_state(dim.d, np.random.default_rng(5))
    G = intrinsic_of(spec_of(dim)).matrix @ np.diag(
        np.exp(1j * expand(spec_of(dim)).init_phases))
    for outcome in range(dim.d ** 2):
        post, frame, k = couple_input(psi, g, forced_outcome=outcome)
        ideal = matrix_of_pauli(frame.word) @ G @ psi
        assert abs(np.vdot(post.amps,
                           ideal / np.linalg.norm(ideal))) > 1 - 1e-9


@pytest.mark.parametrize("init", [0, np.array([1, 0, 0], dtype=complex)])
def test_couple_input_rejects_non_phase_head(init):
    g = with_init(chain_graph(D3, cx_spec(D3), 2), 0, init)
    with pytest.raises(DimensionMismatch, match="head vertex 0 init"):
        couple_input(basis_state(D3, 0), g)


def test_couple_input_rejects_a_chain_without_its_edge():
    g = ResourceGraph(D3, [Vertex(0), Vertex(1)], [])
    with pytest.raises(DimensionMismatch, match="chain's edge"):
        couple_input(basis_state(D3, 0), g, rng=0)


def test_couple_input_identity_outcome():
    g = chain_graph(D3, cz_spec(D3), 2)
    post, frame, k = couple_input(basis_state(D3, 0), g, forced_outcome=0)
    assert frame.word.is_identity()
    assert np.allclose(np.abs(post.amps), np.full(3, 1 / np.sqrt(3)))


@pytest.mark.parametrize("dim", [D2, D3])
def test_entangle_via_edge(dim):
    d = dim.d
    rng = np.random.default_rng(6)
    H = hadamard(dim)
    cz = gate_matrix(cz_spec(dim))
    for trial in range(3):
        psi = random_state(d * d, rng)
        out, frame = entangle_via_edge(dim, psi, rng=trial)
        target = np.kron(H, H) @ cz @ np.kron(H, H) @ psi
        ideal = matrix_of_pauli(frame.word) @ target
        assert abs(np.vdot(out.amps,
                           ideal / np.linalg.norm(ideal))) > 1 - 1e-8


@pytest.mark.parametrize("dim", [D2, D3, D4F, make_dim(INTEGER_RING, d=4)])
def test_entangle_via_edge_predicts_every_outcome(dim):
    d = dim.d
    psi = random_state(d * d, np.random.default_rng(7))
    H = hadamard(dim)
    target = np.kron(H, H) @ gate_matrix(cz_spec(dim)) @ np.kron(H, H) @ psi
    for ks in itertools.product(range(d), repeat=4):
        out, frame = entangle_via_edge(dim, psi, forced_outcomes=ks)
        assert [k for _, k in frame.history] == list(ks)
        ideal = matrix_of_pauli(frame.word) @ target
        assert abs(np.vdot(out.amps, ideal)) > 1 - 1e-9


class _Uniforms:
    """A stand-in generator whose random(n) is the n values us."""

    def __init__(self, us):
        self.us = us

    def random(self, n):
        assert n == len(self.us)
        return np.array(self.us)


@pytest.mark.parametrize("d", range(2, 11))
def test_entangle_via_edge_draws_are_collapse_draws(d, monkeypatch):
    # the edge's four outcomes come off one uniform CDF kept per d: a
    # uniform at and on both sides of each of its entries gives the outcome
    # the oracle's collapse draws from a row of d equal weights, and the
    # kept probabilities are collapse's.  For d <= 3 each uniform also goes
    # through entangle_via_edge, in each of the four draws
    probs, cdf = engine._uniform_cdf(d)
    rows = np.ones((4, d, 1))
    assert probs == [1 / d] * d
    assert dense_oracle.collapse(rows, None, [d - 1] * 4)[2].tolist() \
        == [1 / d] * 4
    uniforms = [u for c in cdf for u in (np.nextafter(c, -np.inf), c,
                                         np.nextafter(c, np.inf))
                if 0 <= u < 1]
    assert len(uniforms) >= 2 * d - 1
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda rng: rng
                        if isinstance(rng, _Uniforms) else default_rng(rng))
    dim = make_dim(INTEGER_RING, d=d)
    psi = random_state(d * d, np.random.default_rng(d))
    for u in uniforms:
        want = dense_oracle.collapse(rows, np.full(4, u))[0].tolist()
        assert [bisect.bisect_right(cdf, float(u))] * 4 == want
        if d <= 3:
            for i in range(4):
                us = [0.5] * 4
                us[i] = float(u)
                ks = [k for _, k in entangle_via_edge(
                    dim, psi, rng=_Uniforms(us))[1].history]
                assert ks == dense_oracle.collapse(
                    rows, np.array(us))[0].tolist()


def _edge_frame_reference(dim):
    """k -> Z^{-k1} x Z^{-k4} conjugated through H x H and CZ, times
    Z^{-k2} x Z^{-k5}, conjugated through H x H, by dense two-qudit
    conjugation."""
    hh = conjugation(np.kron(hadamard(dim), hadamard(dim)), dim, 2)
    cz = conjugation(gate_matrix(cz_spec(dim)), dim, 2)

    def frame(k1, k2, k4, k5):
        heads = PauliWord(dim, 2, [dim.neg(k1), dim.neg(k4)], [0, 0], 0)
        mids = PauliWord(dim, 2, [dim.neg(k2), dim.neg(k5)], [0, 0], 0)
        return hh(normal_form(mids, cz(hh(heads))))

    return frame


@pytest.mark.parametrize("dim", [D2, D3, make_dim(INTEGER_RING, d=4),
                                 make_dim(INTEGER_RING, d=5), D4F,
                                 make_dim(FINITE_FIELD, p=3, m=2)],
                         ids=lambda dim: f"{dim.kind}{dim.d}")
def test_edge_frame_is_the_certificate_composition(dim):
    reference = _edge_frame_reference(dim)
    for ks in itertools.product(dim.elements, repeat=4):
        assert edge_frame(dim, *ks) == reference(*ks), ks    # exact phase
    # entangle_via_edge returns that word for the outcomes it draws
    if dim.d <= 4:
        psi = random_state(dim.d ** 2, np.random.default_rng(17))
        for seed in range(3):
            _, frame = entangle_via_edge(dim, psi, rng=seed)
            assert frame.word == reference(*(k for _, k in frame.history))


def test_cz_and_cx_specs_are_one_per_dimension():
    # keyed on the DimSpec's value, not on the object
    assert cz_spec(make_dim(INTEGER_RING, d=3)) is cz_spec(D3)
    for dim in (D3, D4F):
        assert cx_spec(dim) is cx_spec(dim)
        assert gate_matrix(cz_spec(dim)) is gate_matrix(cz_spec(dim))


def test_entangle_via_edge_forced_zeros():
    psi = np.kron(basis_state(D2, 0), basis_state(D2, 1))
    out, frame = entangle_via_edge(D2, psi, forced_outcomes=[0, 0, 0, 0])
    assert frame.history == [(0, 0), (1, 0), (2, 0), (3, 0)]


PSI9 = np.full(9, 1 / 3, dtype=complex)
Z3_TRANSPORT = transport_pattern(intrinsic_of(cz_spec(D3)))    # 4 steps
Z3_CHAIN = chain_graph(D3, cz_spec(D3), Z3_TRANSPORT.step_count() + 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: entangle_via_edge(D3, PSI9, forced_outcomes=[0, 0]),
     DimensionMismatch, "4 forced outcomes needed"),
    (lambda: entangle_via_edge(D3, PSI9, forced_outcomes=[0, 0, 0, 0, 1]),
     DimensionMismatch, "4 forced outcomes needed"),
    (lambda: entangle_via_edge(D3, PSI9, forced_outcomes=[0.5, 0, 0, 0]),
     SiteOutOfRange, "0.5 is not an integer"),
    (lambda: entangle_via_edge(D3, PSI9, forced_outcomes=[0, 0, 3, 0]),
     SiteOutOfRange, "out of range"),
    (lambda: couple_input(PSI9[:3], chain_graph(D3, cz_spec(D3), 2),
                          forced_outcome=1.5),
     SiteOutOfRange, "1.5 is not an integer"),
    (lambda: mediator_step(cz_spec(D3), PSI9, "entangle", forced_outcome=0.5),
     SiteOutOfRange, "0.5 is not an integer"),
    (lambda: vertex_delete(chain_graph(D3, cz_spec(D3), 3), 1,
                           forced_outcome=np.float64(1.0)),
     SiteOutOfRange, "1.0 is not an integer"),
    (lambda: run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), None,
                              forced_outcomes=[[0.5, 0, 0, 0]]),
     SiteOutOfRange, "0.5 is not an integer"),
    (lambda: run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), None,
                              forced_outcomes=[[0] * 7]),
     DimensionMismatch, "4 forced outcomes needed"),
] + [
    # a bool, Python's or numpy's, is not read as outcome 0 or 1
    (call, SiteOutOfRange, f"forced outcome {flag} is not an integer")
    for flag in (True, np.True_, False, np.False_)
    for call in (
        lambda flag=flag: couple_input(PSI9[:3], chain_graph(D3, cz_spec(D3), 2),
                                       forced_outcome=flag),
        lambda flag=flag: entangle_via_edge(D3, PSI9,
                                            forced_outcomes=[0, flag, 1, 0]),
        lambda flag=flag: mediator_step(cz_spec(D3), PSI9, "disconnect",
                                        forced_outcome=flag),
        lambda flag=flag: local_complement(chain_graph(D3, cz_spec(D3), 3), 1,
                                           forced_outcome=flag),
        lambda flag=flag: run_trajectories(
            Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), None,
            forced_outcomes=[[flag, 0, 0, 0]]))
], ids=["edge-two", "edge-five", "edge-half", "edge-three", "couple-half",
        "mediator-half", "rewrite-float", "run-half", "run-seven"] + [
    f"{call}-{flag}" for flag in ("true", "np-true", "false", "np-false")
    for call in ("couple", "edge", "mediator", "rewrite", "run")])
def test_forced_outcomes_are_validated(call, error, message):
    # a wrong count is not cut or padded, and a non-integer entry is not
    # truncated: every draw checks its forced outcomes in one place
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: couple_input(PSI9[:8], chain_graph(D3, cz_spec(D3), 2), rng=0),
     "input state has 8 amplitudes, not 3"),
    (lambda: entangle_via_edge(D3, PSI9[:8], rng=0),
     "input state has 8 amplitudes, not 9"),
    (lambda: mediator_step(cz_spec(D3), PSI9[:3], "entangle", rng=0),
     "input state has 3 amplitudes, not 9"),
    (lambda: run_trajectories(Z3_CHAIN, Z3_TRANSPORT, PSI9, rng=0, trials=1),
     "input state has 9 amplitudes, not 3"),
], ids=["couple", "edge", "mediator", "run"])
def test_a_wrong_size_input_state_is_a_dimension_mismatch(call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call()


def test_run_without_trials_or_forced_outcomes_is_refused():
    with pytest.raises(DimensionMismatch,
                       match="trials or forced_outcomes must be given"):
        run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), rng=0)
    for trials in (-1, 2.5, True, "3"):
        with pytest.raises(DimensionMismatch,
                           match="trials must be a non-negative integer"):
            run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), rng=0,
                             trials=trials)
    empty = run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), rng=0,
                             trials=np.int64(0))
    assert empty.outcomes.shape == (0, 4)
    with pytest.raises(DimensionMismatch, match="3 trials, but 2 rows"):
        run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), trials=3,
                         forced_outcomes=[[0] * 4] * 2)


def _z3_transport_bins(u):
    # every Z3 transport step weighs each outcome 1/3, so a row's outcomes
    # are the uniform CDF's bins of its uniforms
    return np.searchsorted(np.arange(1, 4) / 3, u, "right")


# seeds of one to five SeedSequence entropy words and either side of each
# word's edge
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                                  2 ** 64, 2 ** 96, 2 ** 128 - 1, 2 ** 128,
                                  2 ** 200 + 5])
def test_run_outcomes_are_default_rngs_rows_at_edge_seeds(seed):
    runs = run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3),
                            rng=seed, trials=50)
    u = np.random.default_rng(seed).random((50, 4))
    assert np.array_equal(runs.outcomes, _z3_transport_bins(u))


def test_run_advances_the_generator_it_is_given():
    # two runs on one Generator draw consecutive rows of its stream and
    # leave it where one draw of all their rows would
    gen, ref = np.random.default_rng(5), np.random.default_rng(5)
    first = run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3),
                             rng=gen, trials=20)
    second = run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3),
                              rng=gen, trials=30)
    u = ref.random((50, 4))
    assert np.array_equal(first.outcomes, _z3_transport_bins(u[:20]))
    assert np.array_equal(second.outcomes, _z3_transport_bins(u[20:]))
    assert gen.random() == ref.random()


def test_run_negative_seed_raises_default_rngs_error():
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as got:
        run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), rng=-1,
                         trials=2)
    assert str(got.value) == str(want.value)


def test_forced_outcomes_accept_numpy_integers():
    ks = np.array([1, 2, 0, 1])
    _, frame = entangle_via_edge(D3, PSI9, forced_outcomes=ks)
    assert frame.history == [(0, 1), (1, 2), (2, 0), (3, 1)]
    _, _, k = couple_input(PSI9[:3], chain_graph(D3, cz_spec(D3), 2),
                           forced_outcome=np.int64(4))
    assert k == 4 and type(k) is int
    forced = np.array([[1, 2, 0, 1], [0, 0, 2, 2]])
    runs = run_trajectories(Z3_CHAIN, Z3_TRANSPORT, xplus_state(D3), None,
                            forced_outcomes=forced)
    assert runs.outcomes.tolist() == forced.tolist()


@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec])
def test_mediator_disconnect_restores_product(spec_of):
    rng = np.random.default_rng(8)
    a, b = random_state(3, rng), random_state(3, rng)
    psi = np.kron(a, b)
    for outcome in range(3):
        res = mediator_step(spec_of(D3), psi, "disconnect",
                            forced_outcome=outcome)
        assert res.outcome == outcome
        coeffs, _, _ = schmidt(res.posterior, [0])
        assert abs(coeffs[0] - 1) < 1e-8


@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec])
def test_mediator_entangle_applies_cz(spec_of):
    rng = np.random.default_rng(9)
    psi = random_state(9, rng)
    S = sgate(D3)
    for outcome in range(3):
        res = mediator_step(spec_of(D3), psi, "entangle",
                            forced_outcome=outcome)
        Dloc = np.diag(np.exp(1j * res.local_phases))
        F = matrix_of_pauli(res.frame.word)
        predicted = F @ np.kron(Dloc @ S, Dloc @ S) @ gate_matrix(
            cz_spec(D3)) @ psi
        fid = abs(np.vdot(res.posterior.amps,
                          predicted / np.linalg.norm(predicted)))
        assert fid > 1 - 1e-8


@pytest.mark.parametrize("dim", [D4F, make_dim(FINITE_FIELD, p=2, m=3),
                                 make_dim(FINITE_FIELD, p=3, m=2)],
                         ids=lambda dim: dim.label())
@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec])
def test_field_mediators_verify_on_every_outcome(dim, spec_of):
    # block k of a field-controlled Pauli applies the field multiple
    # Z(k z)X(k x), not the integer power P^k
    rng = np.random.default_rng(4)
    product = np.kron(random_state(dim.d, rng), random_state(dim.d, rng))
    psi = random_state(dim.d ** 2, rng)
    S = sgate(dim)
    for outcome in dim.elements:
        res = mediator_step(spec_of(dim), product, "disconnect",
                            forced_outcome=outcome)
        assert abs(schmidt(res.posterior, [0])[0][0] - 1) < 1e-8
        res = mediator_step(spec_of(dim), psi, "entangle",
                            forced_outcome=outcome)
        Dloc = np.diag(np.exp(1j * res.local_phases))
        predicted = matrix_of_pauli(res.frame.word) @ np.kron(
            Dloc @ S, Dloc @ S) @ gate_matrix(cz_spec(dim)) @ psi
        assert abs(np.vdot(res.posterior.amps,
                           predicted / np.linalg.norm(predicted))) > 1 - 1e-8


def test_vertex_delete_middle_of_chain():
    g = chain_graph(D3, cz_spec(D3), 3)
    post, m, corrections, reduced = vertex_delete(g, 1, rng=0)
    assert len(reduced.edges) == 0
    assert {c.vertex for c in corrections} == {0, 2}
    assert post.n == 2


def test_vertex_delete_forced_outcome():
    g = chain_graph(D2, light_shift_spec(D2), 3)
    for m in range(2):
        post, got, corrections, reduced = vertex_delete(
            g, 2, forced_outcome=m)
        assert got == m
        assert len(corrections) == 1 and corrections[0].vertex == 1


def test_local_complement_qubit_chain():
    # complementing the middle of a 3-chain joins the endpoints
    g = chain_graph(D2, cz_spec(D2), 3)
    post, m, corrections, new_graph = local_complement(g, 1, rng=0)
    pairs = [{e.control, e.target} for e in new_graph.edges]
    assert {0, 2} in pairs
    assert {c.vertex for c in corrections} == {0, 2}


def test_local_complement_qutrit_chain():
    g = chain_graph(D3, cz_spec(D3), 3)
    post, m, corrections, new_graph = local_complement(g, 1, rng=1)
    assert post.n == 2
    assert all(v.id in (0, 2) for v in new_graph.vertices)


def test_local_complement_gf4_chain_every_outcome():
    # over GF(4) the measured basis must split the degenerate x = 1 member
    g = chain_graph(D4F, cz_spec(D4F), 3)
    for outcome in range(4):
        post, m, corrections, new_graph = local_complement(
            g, 1, forced_outcome=outcome)
        assert m == outcome
        assert [{e.control, e.target} for e in new_graph.edges] == [{0, 2}]
        assert {c.vertex for c in corrections} == {0, 2}


def test_local_complement_isolated_vertex():
    g = ResourceGraph(D2, [Vertex(0), Vertex(1)], [])
    for vid in (0, 1):
        with pytest.raises(DimensionMismatch):
            local_complement(g, vid, rng=0)


def test_vertex_delete_leaf_vertex():
    g = ResourceGraph(D2, [Vertex(0), Vertex(1)],
                      [GraphEdge(0, 1, cz_spec(D2), 0)])
    post, m, corrections, reduced = vertex_delete(g, 0, rng=0)
    assert [v.id for v in reduced.vertices] == [1]


def _assert_dense_posterior(graph, vid, rule, m, post):
    """The rewrite's posterior, its graph and corrections built densely
    (dense_oracle.corrected_state), is the state the dense oracle leaves
    when vid is measured in the rule's basis with outcome m."""
    basis = dense_oracle.rewrite_basis(graph, vid, rule is local_complement)
    _, want, _ = measure(build(graph), basis, graph.site_of(vid),
                         forced_outcome=m)
    assert abs(np.vdot(want.amps, dense_oracle.corrected_state(
        post.graph, post.corrections))) > 1 - 1e-9


def _star(dim, leaves):
    return ResourceGraph(dim, [Vertex(i, np.zeros(dim.d))
                               for i in range(leaves + 1)],
                         [GraphEdge(0, i, cz_spec(dim), i - 1)
                          for i in range(1, leaves + 1)])


@pytest.mark.parametrize("leaves", [1, 2, 3, 4, 5])
def test_local_complement_star_every_outcome(leaves):
    # the centre's outcome joins every pair of leaves; corrections are
    # read off the outcome, not searched, so five leaves stay fast, and
    # each carries its diagonal's images
    g = _star(D3, leaves)
    start = time.perf_counter()
    for outcome in range(3):
        post, m, corrections, new_graph = local_complement(
            g, 0, forced_outcome=outcome)
        assert m == outcome
        assert sorted(sorted((e.control, e.target))
                      for e in new_graph.edges) == \
            [list(p) for p in itertools.combinations(range(1, leaves + 1), 2)]
        assert [c.vertex for c in corrections] == list(range(1, leaves + 1))
        assert all(c.images == tuple(diagonal_images(D3, c.q))
                   for c in corrections)
        _assert_dense_posterior(g, 0, local_complement, outcome, post)
    if leaves == 5:
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2)])
def test_local_complement_field_chain_every_outcome(p, m):
    # GF(8) and GF(9): extension fields without a GR(4, m) lift table
    dim = make_dim(FINITE_FIELD, p=p, m=m)
    g = chain_graph(dim, cz_spec(dim), 3)
    for outcome in range(dim.d):
        post, got, corrections, new_graph = local_complement(
            g, 1, forced_outcome=outcome)
        assert got == outcome
        assert [{e.control, e.target} for e in new_graph.edges] == [{0, 2}]
        _assert_dense_posterior(g, 1, local_complement, outcome, post)


def test_local_complement_replaces_existing_edge():
    # a light-shift triangle: the new edge weight adds to the old one and
    # the old edge's local factors move into the corrections
    spec = light_shift_spec(D3)
    chain = chain_graph(D3, spec, 3)
    tri = ResourceGraph(D3, chain.vertices,
                        (*chain.edges, GraphEdge(0, 2, spec, 2)))
    old = factor_diagonal_clifford(spec)[2]
    for outcome in range(3):
        _, _, _, joined = local_complement(chain, 1, forced_outcome=outcome)
        added = factor_diagonal_clifford(joined.edges[0].gate)[2]
        post, m, corrections, new_graph = local_complement(
            tri, 1, forced_outcome=outcome)
        weights = [factor_diagonal_clifford(e.gate)[2]
                   for e in new_graph.edges]
        assert weights == ([D3.add(old, added)] if D3.add(old, added)
                           else [])
        assert all(e.gate is not spec for e in new_graph.edges)
        _assert_dense_posterior(tri, 1, local_complement, outcome, post)


def test_vertex_delete_corrections_are_outcome_z_powers():
    # outcome m leaves C Z^{N m} on each neighbor, C the factor it keeps
    dim = D3
    g = diagonal_lattice(dim, 2, 3, light_shift_spec(dim))
    vid = 1
    for m in range(3):
        post, got, corrections, reduced = vertex_delete(
            g, vid, forced_outcome=m)
        expected = {}
        for e in g.edges:
            if vid in (e.control, e.target):
                C1, C2, N = dense_oracle.factor_diagonal(e.gate)
                u, C = (e.target, C2) if e.control == vid else (e.control, C1)
                expected[u] = C @ zmat(dim, dim.mul(N, m))
        assert {c.vertex for c in corrections} == set(expected)
        for c in corrections:
            assert np.max(np.abs(dense_oracle.operator(c)
                                 - expected[c.vertex])) < 1e-12
        _assert_dense_posterior(g, vid, vertex_delete, m, post)


def test_mediator_tables_are_checked_once_per_gate_and_mode():
    spec = cx_spec(D3)
    for mode in ("disconnect", "entangle"):
        W, Q = mediator_tables(spec, mode)
        assert mediator_tables(spec, mode)[0] is W
        assert W.shape == Q.shape == (3, 3, 3)
        assert not W.flags.writeable and not Q.flags.writeable
    assert mediator_tables(spec, "entangle")[0] is not \
        mediator_tables(spec, "disconnect")[0]


def test_two_qudit_gates_have_a_d4_budget():
    # over Z_32 a gate's d^4 entries pass the 10^6 budget: the gate matrix
    # is refused before it is allocated, while the rewrites, the input
    # coupling, run and the edge build d^3 tables only and verify; over
    # Z_101 those d^3 tables pass the budget, and each refuses; the
    # mediator reads CZ's phases off the ring's tables, so over Z_37 it
    # keeps its d^3 budget and verifies
    z32, z37 = (make_dim(INTEGER_RING, d=d) for d in (32, 37))

    def calls(dim):
        d = dim.d
        g = chain_graph(dim, cz_spec(dim), 3)
        pat = transport_pattern(intrinsic_of(cz_spec(dim)))
        run_chain = chain_graph(dim, cz_spec(dim), pat.step_count() + 1)
        return (lambda: vertex_delete(g, 1, rng=0),
                lambda: local_complement(g, 1, rng=0),
                lambda: couple_input(basis_state(dim, 0),
                                     chain_graph(dim, cz_spec(dim), 2)),
                lambda: run_trajectories(run_chain, pat, basis_state(dim, 0),
                                         rng=0, trials=3),
                lambda: entangle_via_edge(dim, np.ones(d * d) / d, rng=0))

    for call in calls(z32):
        call()
    for call in calls(D101):
        with pytest.raises(StateTooLarge, match=r"101\^3"):
            call()
    for dim in (z32, z37):
        with pytest.raises(StateTooLarge, match=rf"{dim.d}\^4"):
            gate_matrix(cz_spec(dim))
    psi = random_state(37 ** 2, np.random.default_rng(3))
    res = mediator_step(cz_spec(z37), psi, "entangle", rng=0)
    assert res.posterior.amps.shape == (37 ** 2,)
    # a rewrite refuses where it is entered: over Z_150, which make_dim
    # takes, no d^3 table of a factor's exact images is built first
    z150 = make_dim(INTEGER_RING, d=150)
    for rule in (vertex_delete, local_complement):
        big = chain_graph(z150, cz_spec(z150), 3)
        tracemalloc.start()
        try:
            with pytest.raises(StateTooLarge, match=r"150\^3"):
                rule(big, 1, rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (rule.__name__, peak)


def test_mediator_table_check_catches_wrong_local_phases(monkeypatch):
    # a fresh spec, so that no stored tables are read
    spec = EntanglingGateSpec(D3, "diagonal", theta=expand(cz_spec(D3)).theta,
                              init_phases=np.zeros(3))
    init, G, local = mediator_of(spec)
    monkeypatch.setattr(resource, "mediator_of",
                        lambda s: (init, G, local * np.exp([0, 0.1j, 0])))
    with pytest.raises(FrameMismatch, match="predicted action"):
        mediator_step(spec, random_state(9, np.random.default_rng(1)),
                      "disconnect", rng=0)


def test_mediator_weight_checks_catch_rows_off_one_over_d(monkeypatch):
    # a fresh spec whose init is scaled keeps W[k] = c_k Q[k], but with
    # |c_k|^2 d = 1.21: the once-per-spec check refuses it
    spec = EntanglingGateSpec(D3, "diagonal", theta=expand(cz_spec(D3)).theta,
                              init_phases=np.zeros(3))
    init, G, local = mediator_of(spec)
    psi = random_state(9, np.random.default_rng(1))
    W, Q = mediator_tables(cx_spec(D3), "entangle")
    monkeypatch.setattr(resource, "mediator_of",
                        lambda s: (init * 1.1, G, local))
    with pytest.raises(FrameMismatch, match="outcome weights"):
        mediator_step(spec, psi, "disconnect", rng=0)
    # tables whose rows weigh 1.21 / d reach a call: its own check refuses
    # the drawn outcome, and a forced one
    monkeypatch.setattr(engine, "mediator_tables", lambda s, m: (W * 1.1, Q))
    for rng, forced in [(0, None), (None, 2)]:
        with pytest.raises(FrameMismatch, match="weight"):
            mediator_step(cx_spec(D3), psi, "entangle", rng=rng,
                          forced_outcome=forced)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec])
@pytest.mark.parametrize("protocol", ["disconnect", "entangle", "couple"])
def test_mediator_kept_cdf_draw_equals_the_full_branch_collapse(d, spec_of,
                                                                protocol):
    # every outcome of the mediator (of the coupling) has probability 1/d
    # (1/d^2), so the draw off the kept uniform CDF gives the outcome that
    # the oracle's collapse draws from the whole branch, W * psi (the
    # chain's Bell branches), and the same posterior bytes
    dim = make_dim(INTEGER_RING, d=d)
    spec = spec_of(dim)
    if protocol == "couple":
        chain = chain_graph(dim, spec, 2)
        raw = random_state(d, np.random.default_rng([d, 7]))
        psi = sim.unit_vector(raw, d, "psi")
        # the Bell rows (q * W_k^dag psi) @ step / sqrt(d), W_k = Z(s) X(t),
        # each formed by index as the call forms its drawn one, are the
        # dense Bell vectors' contraction with the chain
        step, q = engine._coupling(chain)[:2]
        mul, add, _, chi = dim.tables
        branch = np.array([
            (q * (chi[mul[s]].conj() * psi)[add[:, t]]) @ step / np.sqrt(d)
            for s in dim.elements for t in dim.elements])
        tensor = (gate_matrix(spec) @ np.kron(
            *(engine._init_vector(dim, v.init) for v in chain.vertices))
        ).reshape(d, d)
        dense = np.array([(zx_matrix(w).conj().T @ psi) @ tensor
                          for w in words(dim)]) / np.sqrt(d)
        assert np.abs(branch - dense).max() < 1e-15

        def call(seed, forced):
            post, _, k = couple_input(raw, chain, rng=seed,
                                      forced_outcome=forced)
            return k, post.amps
    else:
        raw = random_state(d * d, np.random.default_rng([d, 7]))
        psi = sim.unit_vector(raw, d * d, "psi").reshape(d, d)
        branch = (mediator_tables(spec, protocol)[0] * psi).reshape(d, d * d)

        def call(seed, forced):
            out = mediator_step(spec, raw, protocol, rng=seed,
                                forced_outcome=forced)
            return out.outcome, out.posterior.amps
    for seed, forced in [(s, None) for s in range(200)] \
            + [(None, k) for k in range(len(branch))]:
        u = None if seed is None else np.random.default_rng(seed).random(1)
        k, post, _ = dense_oracle.collapse(
            branch[None], u, None if forced is None else [forced])
        got, amps = call(seed, forced)
        assert got == k[0]
        assert amps.tobytes() == post[0].tobytes()


def _dense_mediator(spec, psi, mode, seed):
    """mediator_step by dense simulation: both controls applied with
    apply, the mediator measured with measure."""
    dim = spec.dim
    init, G, _ = mediator_of(spec)
    E = gate_matrix(spec)
    state = apply(apply(sim.StateVector(dim, 3, np.kron(psi, init)), E,
                        [0, 2]), E, [1, 2])
    S = sgate(dim)
    B = (G if mode == "disconnect" else G @ np.linalg.inv(S)) @ hadamard(dim)
    k, post, _ = measure(state, MeasurementBasis(dim, B), 2, rng=seed)
    return k, post.amps


def _dense_edge(dim, psi, seed):
    """entangle_via_edge by dense simulation: five applied CZs, four
    sequential X measurements drawing from one generator."""
    plus = xplus_state(dim)
    state = sim.StateVector(dim, 6, np.einsum(
        "ad,b,c,e,f->abcdef", psi.reshape(dim.d, dim.d),
        plus, plus, plus, plus).reshape(-1))
    for pair in ((0, 1), (1, 2), (3, 4), (4, 5), (1, 4)):
        state = apply(state, gate_matrix(cz_spec(dim)), pair)
    gen, ks = np.random.default_rng(seed), []
    for site in (0, 0, 1, 1):
        k, state, _ = measure(state, dense_oracle.x_basis(dim), site,
                              rng=gen)
        ks.append(k)
    return ks, state.amps


def _dense_couple(psi, graph, seed):
    """couple_input by dense simulation: the chain built, the input
    prepended and Bell-measured with the chain's head."""
    chain = build(graph)
    full = sim.StateVector(graph.dim, 3, np.kron(psi, chain.amps))
    head = graph.site_of(graph.edges[0].control) + 1
    k, post, _ = measure(full, bell_basis(graph.dim), [0, head], rng=seed)
    return k, post.amps


D4 = make_dim(INTEGER_RING, d=4)
PROTOCOL_DIMS = [D2, D3, D4F, D4, D5]


@pytest.mark.parametrize("dim", PROTOCOL_DIMS, ids=lambda dim: dim.label())
def test_protocols_draw_and_land_as_the_dense_reference(dim):
    rng = np.random.default_rng(12)
    psi = random_state(dim.d ** 2, rng)
    psi1 = random_state(dim.d, rng)
    # light shift has no real angle at d = 5, and its intrinsic gate over
    # Z4 is not Clifford, so coupling there has no frame to predict
    families = (cz_spec, cx_spec) if dim in (D4, D5) \
        else (cz_spec, cx_spec, light_shift_spec)
    chains = [chain_graph(dim, spec_of(dim), 2) for spec_of in families]
    for seed in range(12):
        for spec_of in (cz_spec, cx_spec):
            for mode in ("disconnect", "entangle"):
                res = mediator_step(spec_of(dim), psi, mode, rng=seed)
                k, amps = _dense_mediator(spec_of(dim), psi, mode, seed)
                assert res.outcome == k
                assert abs(np.vdot(amps, res.posterior.amps)) > 1 - 1e-12
        out, frame = entangle_via_edge(dim, psi, rng=seed)
        ks, amps = _dense_edge(dim, psi, seed)
        assert [k for _, k in frame.history] == ks
        assert abs(np.vdot(amps, out.amps)) > 1 - 1e-12
        for chain in chains:
            post, frame, k = couple_input(psi1, chain, rng=seed)
            k_dense, amps = _dense_couple(psi1, chain, seed)
            assert k == k_dense and frame.history == [(0, k)]
            assert abs(np.vdot(amps, post.amps)) > 1 - 1e-12


def test_mediator_and_edge_protocols_apply_no_dense_gate(monkeypatch):
    # the mediator, the edge and input coupling draw from branches in
    # closed form: the library has no dense simulator to apply a gate to or
    # measure a state with (it is the tests' oracle), and none may come back
    def no_dense(*args, **kwargs):
        raise AssertionError("dense state simulated")

    monkeypatch.setattr(engine, "build", no_dense, raising=False)
    for name in ("apply", "measure", "product_state"):
        monkeypatch.setattr(sim, name, no_dense, raising=False)
    psi = random_state(9, np.random.default_rng(2))
    for spec_of in (cz_spec, cx_spec):
        for mode in ("disconnect", "entangle"):
            mediator_step(spec_of(D3), psi, mode, rng=1)
        couple_input(psi[:3], chain_graph(D3, spec_of(D3), 2), rng=1)
    entangle_via_edge(D3, psi, rng=1)


@pytest.mark.parametrize("dim", [D2, D3, D4F], ids=lambda dim: dim.label())
def test_edge_call_check_catches_a_corrupted_step_or_cz(dim, monkeypatch):
    # every call checks its branch's norm and posterior against the
    # predicted frame times the action, so one corrupted entry of the kept
    # step table, on the outcome that reads it, or of the rung's CZ phases
    # fails the call
    d = dim.d
    step, cz = engine._edge_facts(dim)
    psi = random_state(d * d, np.random.default_rng(d))
    rng = np.random.default_rng(dim.d)
    entries = [(0, 0, 0), (d - 1,) * 3] + [tuple(rng.integers(d, size=3))
                                          for _ in range(4)]
    for a, k, r in entries:
        bad = step.copy()
        bad[a, k, r] *= np.exp(0.1j)
        monkeypatch.setattr(engine, "_edge_facts",
                            lambda dim, bad=bad: (bad, cz))
        for ks in ([k, 0, 0, 0], [0, k, 0, 0], [0, 0, k, 0], [0, 0, 0, k]):
            with pytest.raises(FrameMismatch):
                entangle_via_edge(dim, psi, forced_outcomes=ks)
    for entry in [(0, 0), (-1, -1)] + [tuple(rng.integers(d, size=2))
                                       for _ in range(4)]:
        bad = cz.copy()
        bad[entry] *= np.exp(0.1j)
        monkeypatch.setattr(engine, "_edge_facts",
                            lambda dim, bad=bad: (step, bad))
        with pytest.raises(FrameMismatch):
            entangle_via_edge(dim, psi, rng=0)


def test_edge_facts_are_checked_once_per_dimension(monkeypatch):
    facts = engine._edge_facts(D3)
    assert engine._edge_facts(make_dim(INTEGER_RING, d=3)) is facts
    assert not any(t.flags.writeable for t in facts)
    # the step is run_trajectories' own, kept on cz's spec, and a step
    # whose outcomes do not all weigh 1/d is refused before any call draws
    # off the uniform CDF
    table, uniform = engine._step_table(D3, cz_spec(D3), None)
    assert uniform and facts[0].tobytes() == table.tobytes()
    assert np.shares_memory(facts[0], engine._spec_step(cz_spec(D3))[0])
    monkeypatch.setattr(engine, "_spec_step", lambda gate: (table, False))
    with pytest.raises(FrameMismatch, match="do not all weigh 1/3"):
        engine._edge_facts.__wrapped__(D3)


def test_first_edge_call_at_d5_stays_below_a_megabyte():
    # the per-dimension facts and a call's arrays hold at most d^4 = 625
    # entries
    psi = random_state(25, np.random.default_rng(3))
    engine._edge_facts.cache_clear()
    tracemalloc.start()
    try:
        entangle_via_edge(D5, psi, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine._edge_facts.cache_info().currsize == 1
    assert peak < 2 ** 20, peak


def test_an_edge_call_at_d31_leaves_under_two_mebibytes_held():
    # the edge reads d^3 tables only (the cz spec's checked blocks and kept
    # step, and CZ's phases), and checks its posterior in O(d^3) off two
    # frame words: no d^4 gate matrix, action or word stack (14.7 MB each
    # at d = 31) is built or kept
    D31 = make_dim(INTEGER_RING, d=31)
    psi = random_state(31 * 31, np.random.default_rng(31))
    engine._edge_facts.cache_clear()
    expand(cz_spec(D31))._facts.clear()    # rebuilt inside the trace
    gc.collect()
    tracemalloc.start()
    try:
        entangle_via_edge(D31, psi, rng=0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine._edge_facts.cache_info().currsize == 1
    assert held < 2 * 2 ** 20, held


def test_a_coupling_call_at_d31_leaves_under_two_mebibytes_held():
    # the coupling reads the tail's step table, kept on the spec, forms the
    # drawn Bell row alone and applies its words by index: no d^4 gate
    # matrix, word stack or conjugated stack (14.7 MB each at d = 31) is
    # built or kept
    D31 = make_dim(INTEGER_RING, d=31)
    spec = cz_spec(D31)
    g = chain_graph(D31, spec, 2)
    psi = random_state(31, np.random.default_rng(31))
    expand(spec)._facts.clear()    # rebuilt inside the trace
    gc.collect()
    tracemalloc.start()
    try:
        couple_input(psi, g, rng=0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2 ** 20, held
    assert np.shares_memory(engine._coupling(g)[0], engine._spec_step(spec)[0])


def test_a_long_run_keeps_one_phase_row_per_shift():
    # each adaptive step's phase rows are read at the frame word's X part,
    # d rows per step: a 300-step Z31 run peaked at 145 MB when it kept
    # d^2 rows per step
    D31 = make_dim(INTEGER_RING, d=31)
    spec = cz_spec(D31)
    rng = np.random.default_rng(31)
    pat = MeasurementPattern(D31, intrinsic_of(spec), [
        PatternStep(rng.uniform(0, 2 * np.pi, 31), True)
        for _ in range(300)], identity_word(D31), spec)
    g = chain_graph(D31, spec, 301)
    run_trajectories(g, pat, basis_state(D31, 0), rng=0, trials=2)
    tracemalloc.start()
    try:
        run_trajectories(g, pat, basis_state(D31, 0), rng=0, trials=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, peak


def test_a_long_clifford_run_keeps_d2_entries_per_step():
    # a Clifford step's frame moves through its diagonal's word map and
    # then the move table every step shares, d^2 entries per step: a
    # 300-step Z31 run of shear steps peaked at 145 MB when each step kept
    # its own d^2 x d move table
    D31 = make_dim(INTEGER_RING, d=31)
    spec = cz_spec(D31)
    shears = np.random.default_rng(31).integers(31, size=300)
    pat = MeasurementPattern(D31, intrinsic_of(spec), [
        PatternStep(np.angle(np.diag(shear_gate(D31, int(l)))), False)
        for l in shears], identity_word(D31), spec)
    g = chain_graph(D31, spec, 301)
    run_trajectories(g, pat, basis_state(D31, 0), rng=0, trials=2)
    tracemalloc.start()
    try:
        run_trajectories(g, pat, basis_state(D31, 0), rng=0, trials=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, peak


D11 = make_dim(INTEGER_RING, d=11)


def test_entangle_via_edge_runs_past_the_old_d6_limit():
    # 11^6 amplitudes exceeded sim.MAX_AMPS; 11^4 do not
    reference = _edge_frame_reference(D11)
    psi = random_state(121, np.random.default_rng(11))
    for seed in range(20):
        _, frame = entangle_via_edge(D11, psi, rng=seed)
        assert frame.word == reference(*(k for _, k in frame.history))


@pytest.mark.parametrize("call", [
    lambda: entangle_via_edge(D101, np.ones(101 ** 2), rng=0),
    lambda: mediator_step(cz_spec(D101), np.ones(101 ** 2), "disconnect",
                          rng=0),
], ids=["entangle_via_edge", "mediator_step"])
def test_protocol_size_guards_fire_before_allocation(call):
    # 101^3 table entries exceed the amplitude budget
    tracemalloc.start()
    try:
        with pytest.raises(StateTooLarge):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def _run_entry(spec_of):
    def entry(dim):
        spec = spec_of(dim)
        pat = transport_pattern(intrinsic_of(spec))
        g = chain_graph(dim, spec, pat.step_count() + 1)
        return functools.partial(run_trajectories, g, pat,
                                 basis_state(dim, 0), rng=0, trials=100)
    return entry


def _rewrite_entry(rule):
    def entry(dim):
        # the centre of a 3x3 lattice
        return functools.partial(rule, diagonal_lattice(
            dim, 3, 3, cz_spec(dim)), 4, rng=0)
    return entry


def _state(d):
    return random_state(d, np.random.default_rng(d))


# every engine entry, as dim -> a call whose inputs are built outside it
ENGINE_ENTRIES = {
    "run-cz": _run_entry(cz_spec),
    "run-cx": _run_entry(cx_spec),
    "couple_input": lambda dim: functools.partial(
        couple_input, _state(dim.d), chain_graph(dim, cz_spec(dim), 2),
        rng=0),
    "vertex_delete": _rewrite_entry(vertex_delete),
    "local_complement": _rewrite_entry(local_complement),
    "entangle_via_edge": lambda dim: functools.partial(
        entangle_via_edge, dim, _state(dim.d ** 2), rng=0),
    "mediator_step": lambda dim: functools.partial(
        mediator_step, cz_spec(dim), _state(dim.d ** 2), "entangle", rng=0),
}


@pytest.mark.parametrize("entry", sorted(ENGINE_ENTRIES))
def test_every_engine_entry_verifies_to_d100_and_refuses_d101(entry):
    # no entry builds a table past d^3 entries, so each verifies its
    # output up to d = 100 (d^3 = 10^6), over a prime and a composite
    # ring, and over Z_101 refuses before it builds anything; a cx gate
    # refuses sooner, where its d^3 blocks would be built, which is while
    # the run's inputs are (its transport pattern), so its peak is traced
    # from there
    for d in (97, 100):
        dim = make_dim(INTEGER_RING, d=d)
        ENGINE_ENTRIES[entry](dim)()
        # what the call kept per spec and per dimension, d^3 entries a
        # table, is dropped, as no other test reads it
        for spec_of in (cz_spec, cx_spec):
            expand(spec_of(dim))._facts.clear()
        engine._edge_facts.cache_clear()
        clifford._shift_tables.cache_clear()
    tracemalloc.start()
    base = 0
    try:
        with pytest.raises(StateTooLarge, match=r"101\^3"):
            call = ENGINE_ENTRIES[entry](D101)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_couple_input_non_clifford_head_init_names_generator():
    # a graph whose coupling facts fail to build keeps none of them, so it
    # raises on every call
    g = with_init(chain_graph(D3, cz_spec(D3), 2), 0,
                  np.array([0.0, 0.3, 0.0]))
    for outcome in range(9):
        with pytest.raises(NotCliffordError) as exc:
            couple_input(basis_state(D3, 0), g, forced_outcome=outcome)
        assert exc.value.generator == "X0^1"
        assert "coupling" not in g._facts


@pytest.mark.parametrize("spec_of", [cz_spec, light_shift_spec])
def test_couple_input_refuses_a_chain_without_uniform_outcome_weights(spec_of):
    # a Z-basis label tail leaves a diagonal gate's chain a product state,
    # so the Bell outcomes' weights depend on the input and no uniform CDF
    # draws them: the graph's check refuses it on every call, before the
    # input state or the forced outcome is read, and keeps nothing
    g = with_init(chain_graph(D3, spec_of(D3), 2), 1, 0)
    for psi in (basis_state(D3, 0), [1, 0], np.full(3, np.nan)):
        for kwargs in ({"rng": 0}, {"forced_outcome": 4},
                       {"forced_outcome": 99}, {"forced_outcome": 0.5}):
            with pytest.raises(FrameMismatch, match="outcome weights"):
                couple_input(psi, g, **kwargs)
            assert "coupling" not in g._facts


def test_couple_input_builds_its_graph_facts_once(monkeypatch):
    counts = {"diagonal_images": 0, "_init_vector": 0}
    for module, name in ((clifford, "diagonal_images"),
                         (engine, "_init_vector")):
        def counted(*args, name=name, wrapped=getattr(module, name)):
            counts[name] += 1
            return wrapped(*args)
        monkeypatch.setattr(module, name, counted)
    g = chain_graph(D3, cx_spec(D3), 2)
    psi = random_state(3, np.random.default_rng(8))
    # the tail's step is the spec's kept one: cleared, so that the first call
    # builds it, reading the tail's init
    expand(cx_spec(D3))._facts.clear()
    for seed in range(10):
        couple_input(psi, g, rng=seed)
    assert counts == {"diagonal_images": 1, "_init_vector": 2}


def _dense_forced_couple(psi, graph, k):
    full = sim.StateVector(graph.dim, 3, np.kron(psi, build(graph).amps))
    head = graph.site_of(graph.edges[0].control) + 1
    return measure(full, bell_basis(graph.dim), [0, head],
                   forced_outcome=k)[1].amps


@pytest.mark.parametrize("dim", [D2, D3, D4F], ids=lambda dim: dim.label())
def test_a_derived_chain_couples_with_its_own_facts(dim):
    # with_init derives a new graph: it builds its own coupling facts,
    # and both chains land where the dense oracle does on every outcome
    g = chain_graph(dim, cz_spec(dim), 2)
    psi = random_state(dim.d, np.random.default_rng(9))
    couple_input(psi, g, rng=0)
    S = np.angle(np.diag(sgate(dim)))
    derived = with_init(g, g.edges[0].control, S)
    couple_input(psi, derived, rng=0)
    assert derived._facts["coupling"] is not g._facts["coupling"]
    for graph in (g, derived):
        for k in range(dim.d ** 2):
            post, _, got = couple_input(psi, graph, forced_outcome=k)
            assert got == k
            assert abs(np.vdot(_dense_forced_couple(psi, graph, k),
                               post.amps)) > 1 - 1e-12


@pytest.mark.parametrize("dim", [
    D2, D3, make_dim(INTEGER_RING, d=4), make_dim(INTEGER_RING, d=5), D4F,
    make_dim(FINITE_FIELD, p=2, m=3), make_dim(FINITE_FIELD, p=3, m=2)],
    ids=lambda dim: dim.label())
@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec])
def test_coupling_frame_table_equals_the_certificate(dim, spec_of):
    # the frame read off the certificate's frame table and the head's
    # exact images is the word the certificate conjugates, its exact
    # phase included, for every outcome
    g = chain_graph(dim, spec_of(dim), 2)
    cert = intrinsic_of(g.edges[0].gate).certificate()
    q = engine._phase_diagonal(dim, engine._init_vector(dim,
                                                        g.vertices[0].init))
    shift, nums = diagonal_images(dim, q)
    psi = random_state(dim.d, np.random.default_rng(10))
    for k in range(dim.d ** 2):
        s, t = divmod(k, dim.d)
        t = dim.neg(t)
        want = image(cert, PauliWord(dim, 1, [dim.sub(shift[t], s)], [t],
                                     nums[t]))
        assert couple_input(psi, g, forced_outcome=k)[1].word == want


def test_mediated_lattice_builds():
    g = mediated_lattice(D3, 2, 2, cx_spec(D3))
    st = build(g)
    assert st.n == len(g.vertices) == 6


@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec])
def test_mediated_lattice_uses_mediator_step_init(spec_of):
    # diagonal and block gates share one mediator analysis
    spec = spec_of(D3)
    g = mediated_lattice(D3, 2, 2, spec)
    assert build(g).n == len(g.vertices) == 6
    init = mediator_of(spec)[0]
    for v in g.vertices[4:]:
        assert np.array_equal(v.init, init)
    psi = np.kron(xplus_state(D3), basis_state(D3, 1))
    out = mediator_step(spec, psi, "disconnect", forced_outcome=0)
    assert out.outcome == 0
    assert out.frame.word == identity_word(D3, 2)
    assert out.frame.history == [(0, 0)]


def test_graph_json_round_trip():
    g = with_init(with_init(chain_graph(D3, light_shift_spec(D3), 3), 0, 2),
                  2, np.array([1, 1j, 0]) / np.sqrt(2))
    back = graph_from_json(graph_to_json(g))
    assert np.allclose(build(back).amps, build(g).amps)


NAN = float("nan")


def _nan_entry_points():
    """name -> call of one entry point on an all-NaN input state (or, for
    the rewriting rule, a chain whose end vertex has an all-NaN init)."""
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    chain = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    nan1, nan2 = np.full(3, NAN, dtype=complex), np.full(9, NAN, dtype=complex)
    nan_end = with_init(chain_graph(D3, cz_spec(D3), 3), 2, nan1)
    return {
        "run_trajectories": lambda: run_trajectories(chain, pat, nan1, rng=0, trials=3),
        "couple_input": lambda: couple_input(
            nan1, chain_graph(D3, cz_spec(D3), 2), rng=0),
        "entangle_via_edge": lambda: entangle_via_edge(D3, nan2, rng=0),
        "mediator_step": lambda: mediator_step(cx_spec(D3), nan2,
                                               "disconnect", rng=0),
        "vertex_delete": lambda: vertex_delete(nan_end, 1, rng=0),
    }


@pytest.mark.parametrize("name", sorted(_nan_entry_points()))
def test_nan_state_is_rejected(name):
    with pytest.raises(DimensionMismatch, match="NaN"):
        _nan_entry_points()[name]()


@pytest.mark.parametrize("name", sorted(_nan_entry_points()))
def test_nan_state_fails_dense_verification(name, monkeypatch):
    # with the input checks bypassed, the NaN reaches the posterior
    # verification, whose weight or fidelity comparison must fail rather
    # than pass (a uniform trajectory step's draw reads no state, so the
    # NaN reaches its final check); rewriting verifies on the tableau, so there
    # the phase-vector check must reject the NaN init
    init_vector = engine._init_vector
    monkeypatch.setattr(sim, "unit_vector",
                        lambda v, size, what: np.reshape(v, size))
    monkeypatch.setattr(engine, "_init_vector", lambda dim, init: init
                        if np.iscomplexobj(init) else init_vector(dim, init))
    error = UnsupportedFormalism if name == "vertex_delete" else FrameMismatch
    with np.errstate(invalid="ignore"), pytest.raises(error):
        _nan_entry_points()[name]()


def test_run_rejects_non_finite_operators():
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    n = pat.step_count()
    plus = xplus_state(D3)
    nan_gate = EntanglingGateSpec(D3, "diagonal", theta=np.full((3, 3), NAN))
    with pytest.raises(NonUnitary, match="operator"):
        run_trajectories(chain_graph(D3, nan_gate, n + 1), pat, plus, rng=0, trials=1)
    steps = list(pat.steps)
    steps[1] = PatternStep(np.array([0.0, NAN, 0.0]), True)
    with pytest.raises(NonUnitary, match="basis 'step1'"):
        run_trajectories(chain_graph(D3, cz_spec(D3), n + 1),
                         replace(pat, steps=steps), plus, rng=0, trials=1)
