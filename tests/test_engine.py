"""Resource-state engine: builds, pattern runs, mediators, rewriting."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from quditmbqc.errors import DimensionMismatch, SiteOutOfRange
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import (
    basis_state,
    cz_gate,
    hadamard,
    sgate,
    xplus_state,
)
from quditmbqc.pauli import matrix_of_pauli
from quditmbqc.compiler import compile_clifford, compile_unitary, \
    transport_pattern
from quditmbqc.resource import cx_spec, cz_spec, intrinsic_of, light_shift_spec
from quditmbqc.sim import schmidt
from quditmbqc.engine import (
    GraphEdge,
    ResourceGraph,
    Vertex,
    build,
    chain_graph,
    couple_input,
    diagonal_lattice,
    entangle_via_edge,
    graph_from_json,
    graph_to_json,
    local_complement,
    mediated_lattice,
    mediator_step,
    run_pattern,
    stabilizer_deviation,
    vertex_delete,
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
    assert np.allclose(st.amps, cz_gate(D3) @ np.kron(plus, plus))


@pytest.mark.parametrize("spec_of", [cz_spec, light_shift_spec])
def test_chain_stabilizers(spec_of):
    g = chain_graph(D3, spec_of(D3), 4)
    st = build(g)
    assert stabilizer_deviation(g, st) < 1e-10


def test_lattice_stabilizers():
    g = diagonal_lattice(D2, 2, 3, cz_spec(D2))
    st = build(g)
    assert stabilizer_deviation(g, st) < 1e-10


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


def test_run_transport_pattern():
    intr = intrinsic_of(cz_spec(D3))
    pat = transport_pattern(intr)
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    rng = np.random.default_rng(0)
    psi = random_state(3, rng)
    out, frame = run_pattern(g, pat, psi, rng=1)
    ideal = matrix_of_pauli(frame.word) @ matrix_of_pauli(
        pat.frame).conj().T @ pat.dense_product() @ psi
    assert abs(np.vdot(out.amps, ideal / np.linalg.norm(ideal))) > 1 - 1e-9


def test_run_clifford_pattern_non_adaptive():
    intr = intrinsic_of(cz_spec(D3))
    pat = compile_clifford(sgate(D3), intr)
    g = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    psi = basis_state(D3, 0)
    for seed in range(10):
        out, frame = run_pattern(g, pat, psi, rng=seed)
        ideal = matrix_of_pauli(frame.word) @ sgate(D3) @ psi
        assert abs(np.vdot(out.amps,
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
            out, frame = run_pattern(g, pat, psi, rng=seed)
            ideal = matrix_of_pauli(frame.word) @ matrix_of_pauli(
                pat.frame).conj().T @ U @ psi
            fid = abs(np.vdot(out.amps, ideal / np.linalg.norm(ideal)))
            assert fid > 1 - 1e-6


def test_run_forced_outcomes_deterministic():
    intr = intrinsic_of(cz_spec(D2))
    pat = compile_unitary(hadamard(D2), intr, seed=0)
    g = chain_graph(D2, cz_spec(D2), pat.step_count() + 1)
    psi = basis_state(D2, 0)
    zeros = [0] * pat.step_count()
    a, fa = run_pattern(g, pat, psi, forced_outcomes=zeros)
    b, fb = run_pattern(g, pat, psi, forced_outcomes=zeros)
    assert np.allclose(a.amps, b.amps)
    assert fa.history == fb.history


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


@pytest.mark.parametrize("spec_of", [cz_spec, light_shift_spec])
@pytest.mark.parametrize("dim", [D2, D3, D4F])
def test_couple_input_predicts_every_outcome(dim, spec_of):
    g = chain_graph(dim, spec_of(dim), 2)
    psi = random_state(dim.d, np.random.default_rng(5))
    G = intrinsic_of(spec_of(dim)).matrix
    for outcome in range(dim.d ** 2):
        post, frame, k = couple_input(psi, g, forced_outcome=outcome)
        ideal = matrix_of_pauli(frame.word) @ G @ psi
        assert abs(np.vdot(post.amps,
                           ideal / np.linalg.norm(ideal))) > 1 - 1e-9
        # the frame does not depend on the dense verification
        _, unverified, _ = couple_input(psi, g, forced_outcome=outcome,
                                        verify=False)
        assert unverified.word == frame.word


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
    cz = cz_gate(dim)
    for trial in range(3):
        psi = random_state(d * d, rng)
        out, frame = entangle_via_edge(dim, psi, rng=trial)
        target = np.kron(H, H) @ cz @ np.kron(H, H) @ psi
        ideal = matrix_of_pauli(frame.word) @ target
        assert abs(np.vdot(out.amps,
                           ideal / np.linalg.norm(ideal))) > 1 - 1e-8


@pytest.mark.parametrize("dim", [D2, D3, D4F])
def test_entangle_via_edge_predicts_every_outcome(dim):
    d = dim.d
    psi = random_state(d * d, np.random.default_rng(7))
    H = hadamard(dim)
    target = np.kron(H, H) @ cz_gate(dim) @ np.kron(H, H) @ psi
    for ks in itertools.product(range(d), repeat=4):
        out, frame = entangle_via_edge(dim, psi, forced_outcomes=ks)
        assert [k for _, k in frame.history] == list(ks)
        ideal = matrix_of_pauli(frame.word) @ target
        assert abs(np.vdot(out.amps, ideal)) > 1 - 1e-9


def test_entangle_via_edge_forced_zeros():
    psi = np.kron(basis_state(D2, 0), basis_state(D2, 1))
    out, frame = entangle_via_edge(D2, psi, forced_outcomes=[0, 0, 0, 0])
    assert frame.history == [(0, 0), (1, 0), (2, 0), (3, 0)]


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
        predicted = F @ np.kron(Dloc @ S, Dloc @ S) @ cz_gate(D3) @ psi
        fid = abs(np.vdot(res.posterior.amps,
                          predicted / np.linalg.norm(predicted)))
        assert fid > 1 - 1e-8


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
    g = ResourceGraph(D2, [Vertex(0), Vertex(1)],
                      [GraphEdge(0, 1, cz_spec(D2), 0)])
    post, m, corrections, reduced = vertex_delete(g, 0, rng=0)
    assert [v.id for v in reduced.vertices] == [1]


def test_mediated_lattice_builds():
    g = mediated_lattice(D3, 2, 2, cx_spec(D3))
    st = build(g)
    assert st.n == len(g.vertices) == 6


def test_graph_json_round_trip():
    g = chain_graph(D3, light_shift_spec(D3), 3)
    g.vertices[0].init = 2
    g.vertices[2].init = np.array([1, 1j, 0]) / np.sqrt(2)
    back = graph_from_json(graph_to_json(g))
    assert np.allclose(build(back).amps, build(g).amps)
