"""Resource-state engine: pattern runs, protocols, mediators, rewriting,
checked against the dense oracle."""

import itertools
import json
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from quditmbqc import engine, resource, sim
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
from quditmbqc.clifford import certify
from quditmbqc.gates import (
    basis_state,
    dphi,
    hadamard,
    sgate,
    xplus_state,
)
from quditmbqc.pauli import (
    PauliWord,
    identity_word,
    matrix_of_pauli,
    normal_form,
    zmat,
)
from quditmbqc.compiler import (
    PatternStep,
    compile_clifford,
    compile_unitary,
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
    GraphTableau,
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
    measure,
    product_state,
)

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)
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
    """Max |row psi - psi| over the graph's tableau rows, applied densely."""
    st = build(graph)
    sites = list(range(st.n))
    return max(np.max(np.abs(apply(st, matrix_of_pauli(w), sites).amps
                             - st.amps))
               for w in GraphTableau(graph).rows())


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
    g = ResourceGraph(D3, [Vertex(0), Vertex(0)], [])
    with pytest.raises(DimensionMismatch):
        g.validate()
    g = ResourceGraph(D3, [Vertex(0)], [GraphEdge(0, 0, cz_spec(D3), 0)])
    with pytest.raises(SiteOutOfRange):
        g.validate()


@pytest.mark.parametrize("label", [5, -1])
def test_out_of_range_label_init_is_refused(label):
    # a Z-basis label must index the basis: 5 is no IndexError, and -1 is
    # not read as label 2
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    g.vertices[1].init = label
    message = f"vertex init {label} is not a label in 0..2"
    for call in (lambda: build(g), lambda: g.validate(),
                 lambda: run_trajectories(g, pat, basis_state(D3, 0), [0]),
                 lambda: vertex_delete(g, 1)):
        with pytest.raises(DimensionMismatch, match=message):
            call()


def test_run_transport_pattern():
    intr = intrinsic_of(cz_spec(D3))
    pat = transport_pattern(intr)
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    rng = np.random.default_rng(0)
    psi = random_state(3, rng)
    runs = run_trajectories(g, pat, psi, [1])
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
        runs = run_trajectories(g, pat, psi, [seed])
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
            runs = run_trajectories(g, pat, psi, [seed])
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


def test_run_builds_the_final_frame_table_once_per_frame(monkeypatch):
    # a repeated run reads the frame's word table from the cache and
    # composes no word
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    first = run_trajectories(g, pat, xplus_state(D3), range(3))

    def no_words(*args):
        raise AssertionError("a word was composed")

    monkeypatch.setattr(engine, "normal_form", no_words)
    again = run_trajectories(g, pat, xplus_state(D3), range(3))
    assert np.array_equal(first.frame_index, again.frame_index)
    assert np.array_equal(first.frame_phase, again.frame_phase)


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
            else certify(dphi(step.phases), dim).conjugate(frame)
        frame = g_cert.conjugate(normal_form(
            PauliWord(dim, 1, (dim.neg(k),), (0,)), w))
        history.append((i, k))
    return cur, normal_form(frame, pat.frame), history


def _assert_rows_match_single_runs(g, pat, psi, runs, seeds=None,
                                   forced=None):
    for t in range(len(runs.posteriors)):
        rng = None if seeds is None else seeds[t]
        outcomes = None if forced is None else forced[t]
        one = run_trajectories(g, pat, psi, [rng], None if outcomes is None
                               else [outcomes])
        assert np.max(np.abs(runs.posteriors[t] - one.posteriors[0])) < 1e-12
        assert runs.frame(t).word == one.frame(0).word
        assert runs.frame(t).history == one.frame(0).history
        head, word, history = _reference_run(g, pat, psi, rng, outcomes)
        assert np.max(np.abs(runs.posteriors[t] - head)) < 1e-12
        assert (runs.frame(t).word, runs.frame(t).history) == (word, history)


@pytest.mark.parametrize("dim,spec_of", RUN_FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_batched_rows_equal_single_trajectories(dim, spec_of):
    rng = np.random.default_rng(12)
    pat = compile_unitary(haar_unitary(dim.d, rng), intrinsic_of(spec_of(dim)))
    g = chain_graph(dim, spec_of(dim), pat.step_count() + 1)
    psi = random_state(dim.d, rng)
    seeds = list(range(40, 52))
    runs = run_trajectories(g, pat, psi, seeds)
    assert runs.fidelities.min() > 1 - 1e-9
    _assert_rows_match_single_runs(g, pat, psi, runs, seeds=seeds)
    forced = rng.integers(0, dim.d, size=(6, pat.step_count()))
    runs = run_trajectories(g, pat, psi, None, forced_outcomes=forced)
    assert runs.outcomes.tolist() == forced.tolist()
    _assert_rows_match_single_runs(g, pat, psi, runs, forced=forced)


def test_batched_non_adaptive_rows_equal_single_trajectories():
    pat = compile_clifford(sgate(D3), intrinsic_of(cz_spec(D3)))
    assert not any(step.adaptive for step in pat.steps)
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    psi = random_state(3, np.random.default_rng(13))
    seeds = list(range(10))
    runs = run_trajectories(g, pat, psi, seeds)
    _assert_rows_match_single_runs(g, pat, psi, runs, seeds=seeds)


def test_batched_blocks_equal_one_block(monkeypatch):
    pat = compile_unitary(haar_unitary(3, np.random.default_rng(14)),
                          intrinsic_of(cz_spec(D3)))
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    psi = basis_state(D3, 0)
    whole = run_trajectories(g, pat, psi, range(10))
    monkeypatch.setattr(sim, "MAX_AMPS", 4 * 9)    # blocks of 4 rows
    split = run_trajectories(g, pat, psi, range(10))
    assert np.max(np.abs(split.posteriors - whole.posteriors)) < 1e-12
    assert np.max(np.abs(split.fidelities - whole.fidelities)) < 1e-12
    for name in ("frame_index", "frame_phase", "outcomes"):
        assert np.array_equal(getattr(split, name), getattr(whole, name))
    assert np.max(np.abs(split.probabilities - whole.probabilities)) < 1e-12


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
    g = chain_graph(D3, cz_spec(D3), n + 1)
    with pytest.raises(SiteOutOfRange):
        run_trajectories(g, pat, plus, None, forced_outcomes=[[3] * n])
    with pytest.raises(DimensionMismatch):
        run_trajectories(chain_graph(D3, cz_spec(D3), n), pat, plus, [0])
    backward = replace(g, edges=[replace(g.edges[0], control=1, target=0)]
                       + g.edges[1:])
    with pytest.raises(DimensionMismatch):
        run_trajectories(backward, pat, plus, [0])
    leaky = EntanglingGateSpec(D3, "block_diagonal",
                               blocks=[2 * np.eye(3)] * 3,
                               init_phases=np.zeros(3))
    with pytest.raises(NonUnitary):
        run_trajectories(chain_graph(D3, leaky, n + 1), pat, plus, [0])
    # the chain applies cz's intrinsic gate, not the light-shift one
    wrong = replace(pat, intrinsic=intrinsic_of(light_shift_spec(D3)))
    with pytest.raises(FrameMismatch):
        run_trajectories(g, wrong, plus, range(3))


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
    # 10^9 trajectories of 3 amplitudes: raised before the seeds are listed
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    with pytest.raises(StateTooLarge):
        run_trajectories(g, pat, xplus_state(D3), range(10 ** 9))


GOLDEN_FRAME = {"x": [1], "z": [1]}
GOLDEN_HISTORY = [[0, 2], [1, 0], [2, 0], [3, 1], [4, 2]]


def test_cli_run_golden(tmp_path, capsys):
    # frame and history of the last of 100 trials on the 5-step native
    # word, recorded from the per-trajectory loop that the batched kernel
    # replaced
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
    g = chain_graph(D3, cx_spec(D3), 2)
    g.vertices[0].init = init
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


def _edge_frame_reference(dim):
    """k -> Z^{-k1} x Z^{-k4} conjugated through H x H and CZ, times
    Z^{-k2} x Z^{-k5}, conjugated through H x H, by two-qudit
    certificates."""
    hh = certify(np.kron(hadamard(dim), hadamard(dim)), dim, 2)
    cz = certify(gate_matrix(cz_spec(dim)), dim, 2)

    def frame(k1, k2, k4, k5):
        heads = PauliWord(dim, 2, [dim.neg(k1), dim.neg(k4)], [0, 0], 0)
        mids = PauliWord(dim, 2, [dim.neg(k2), dim.neg(k5)], [0, 0], 0)
        return hh.conjugate(normal_form(
            mids, cz.conjugate(hh.conjugate(heads))))

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
], ids=["edge-two", "edge-five", "edge-half", "edge-three", "couple-half",
        "mediator-half", "rewrite-float", "run-half", "run-seven"])
def test_forced_outcomes_are_validated(call, error, message):
    # a wrong count is not cut or padded, and a non-integer entry is not
    # truncated: every draw checks its forced outcomes in one place
    with pytest.raises(error, match=message):
        call()


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


def _corrected(graph, corrections):
    state = build(graph)
    for c in corrections:
        state = apply(state, c.operator, graph.site_of(c.vertex))
    return state.amps / np.linalg.norm(state.amps)


def _star(dim, leaves):
    return ResourceGraph(dim, [Vertex(i, np.zeros(dim.d))
                               for i in range(leaves + 1)],
                         [GraphEdge(0, i, cz_spec(dim), i - 1)
                          for i in range(1, leaves + 1)])


@pytest.mark.parametrize("leaves", [1, 2, 3, 4, 5])
def test_local_complement_star_every_outcome(leaves):
    # the centre's outcome joins every pair of leaves; corrections are
    # read off the outcome, not searched, so five leaves stay fast
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
        assert all(np.allclose(c.operator, np.diag(np.diag(c.operator)))
                   for c in corrections)
        assert abs(np.vdot(post.amps, _corrected(new_graph, corrections))) \
            > 1 - 1e-9
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
        assert abs(np.vdot(post.amps, _corrected(new_graph, corrections))) \
            > 1 - 1e-9


def test_local_complement_replaces_existing_edge():
    # a light-shift triangle: the new edge weight adds to the old one and
    # the old edge's local factors move into the corrections
    spec = light_shift_spec(D3)
    chain = chain_graph(D3, spec, 3)
    tri = ResourceGraph(D3, chain.vertices,
                        chain.edges + [GraphEdge(0, 2, spec, 2)])
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
        assert abs(np.vdot(post.amps, _corrected(new_graph, corrections))) \
            > 1 - 1e-9


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
                C1, C2, N = factor_diagonal_clifford(e.gate)
                u, C = (e.target, C2) if e.control == vid else (e.control, C1)
                expected[u] = C @ zmat(dim, dim.mul(N, m))
        assert {c.vertex for c in corrections} == set(expected)
        for c in corrections:
            assert np.max(np.abs(c.operator - expected[c.vertex])) < 1e-12
        assert abs(np.vdot(post.amps, _corrected(reduced, corrections))) \
            > 1 - 1e-9


def test_mediator_tables_are_checked_once_per_gate_and_mode():
    spec = cx_spec(D3)
    for mode in ("disconnect", "entangle"):
        W, Q = mediator_tables(spec, mode)
        assert mediator_tables(spec, mode)[0] is W
        assert W.shape == Q.shape == (3, 3, 3)
        assert not W.flags.writeable and not Q.flags.writeable
    assert mediator_tables(spec, "entangle")[0] is not \
        mediator_tables(spec, "disconnect")[0]


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
def test_edge_branch_check_catches_a_corrupted_cz_table(dim):
    h, _, action = engine._edge_tables(dim)
    cz = np.diag(gate_matrix(cz_spec(dim))).reshape(dim.d, dim.d)
    engine._check_edge_branches(dim, cz, h, action)
    bad = cz.copy()
    bad[1, 1] *= np.exp(0.1j)                      # not CZ, not Clifford
    for table in (bad, np.ones_like(cz)):          # and no edge at all
        with pytest.raises(FrameMismatch, match="predicted branches"):
            engine._check_edge_branches(dim, table, h, action)


def test_edge_tables_are_checked_once_per_dimension():
    tables = engine._edge_tables(D3)
    assert engine._edge_tables(make_dim(INTEGER_RING, d=3)) is tables
    assert not any(t.flags.writeable for t in tables)


def test_first_edge_call_at_d5_stays_below_a_megabyte():
    # the once-per-dimension check runs in (k1, k2) slices of d^6 = 15625
    # amplitudes; the whole d^8 table would be 6.25 MB
    psi = random_state(25, np.random.default_rng(3))
    engine._edge_tables.cache_clear()
    tracemalloc.start()
    try:
        entangle_via_edge(D5, psi, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine._edge_tables.cache_info().currsize == 1
    assert peak < 2 ** 20, peak


D11, D101 = make_dim(INTEGER_RING, d=11), make_dim(INTEGER_RING, d=101)


@pytest.mark.parametrize("call", [
    lambda: entangle_via_edge(D11, np.ones(11 ** 2), rng=0),
    lambda: mediator_step(cz_spec(D101), np.ones(101 ** 2), "disconnect",
                          rng=0),
], ids=["entangle_via_edge", "mediator_step"])
def test_protocol_size_guards_fire_before_allocation(call):
    # 11^6 and 101^3 amplitudes exceed sim.MAX_AMPS
    tracemalloc.start()
    try:
        with pytest.raises(StateTooLarge):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_couple_input_non_clifford_head_init_names_generator():
    g = chain_graph(D3, cz_spec(D3), 2)
    g.vertices[0].init = np.array([0.0, 0.3, 0.0])
    for outcome in range(9):
        with pytest.raises(NotCliffordError) as exc:
            couple_input(basis_state(D3, 0), g, forced_outcome=outcome)
        assert exc.value.generator == "X0^1"


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
    assert mediator_step(spec, psi, "disconnect", forced_outcome=0).mode \
        == "disconnect"


def test_graph_json_round_trip():
    g = chain_graph(D3, light_shift_spec(D3), 3)
    g.vertices[0].init = 2
    g.vertices[2].init = np.array([1, 1j, 0]) / np.sqrt(2)
    back = graph_from_json(graph_to_json(g))
    assert np.allclose(build(back).amps, build(g).amps)


NAN = float("nan")


def _nan_entry_points():
    """name -> call of one entry point on an all-NaN input state (or, for
    the rewriting rule, a chain whose end vertex has an all-NaN init)."""
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    chain = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    nan1, nan2 = np.full(3, NAN, dtype=complex), np.full(9, NAN, dtype=complex)
    nan_end = chain_graph(D3, cz_spec(D3), 3)
    nan_end.vertices[2].init = nan1
    return {
        "run_trajectories": lambda: run_trajectories(chain, pat, nan1,
                                                     range(3)),
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
    # with the input checks bypassed (the draw's weight check too, by
    # drawing through the oracle's collapse without its _row_totals test),
    # the NaN reaches the posterior verification, whose comparison must
    # fail rather than pass; rewriting verifies on the tableau, so there
    # the phase-vector check must reject the NaN init
    init_vector = engine._init_vector
    monkeypatch.setattr(sim, "unit_vector",
                        lambda v, size, what: np.reshape(v, size))
    monkeypatch.setattr(dense_oracle, "_row_totals",
                        lambda w: w.sum(axis=1, keepdims=True))
    monkeypatch.setattr(sim, "collapse", dense_oracle.collapse)
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
        run_trajectories(chain_graph(D3, nan_gate, n + 1), pat, plus, [0])
    steps = list(pat.steps)
    steps[1] = PatternStep(np.array([0.0, NAN, 0.0]), True)
    with pytest.raises(NonUnitary, match="basis 'step1'"):
        run_trajectories(chain_graph(D3, cz_spec(D3), n + 1),
                         replace(pat, steps=steps), plus, [0])
