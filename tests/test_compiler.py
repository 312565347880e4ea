"""Pattern compiler: principal log, phase optimization, Clifford lowering."""

import numpy as np
import pytest

from quditmbqc.errors import UnsupportedFormalism
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import hadamard, mult_gate, sgate
from quditmbqc.pauli import matrix_of_pauli
from quditmbqc.clifford import SymplecticRep, synthesize
from quditmbqc.compiler import (
    compile_clifford,
    compile_unitary,
    pattern_from_json,
    pattern_to_json,
    principal_log_hermitian,
    transport_pattern,
)
from quditmbqc.engine import chain_graph, run_trajectories
from quditmbqc.resource import cx_spec, cz_spec, intrinsic_of, light_shift_spec

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)
D4F = make_dim(FINITE_FIELD, p=2, m=2)


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pattern_residual(pattern, U):
    """1 - |tr(V^dag U)| / d for V = frame^-1 * realized product."""
    F = matrix_of_pauli(pattern.frame)
    V = F.conj().T @ pattern.dense_product()
    return 1.0 - abs(np.trace(V.conj().T @ U)) / U.shape[0]


def test_principal_log():
    rng = np.random.default_rng(1)
    U = haar_unitary(4, rng)
    H = principal_log_hermitian(U)
    assert np.allclose(H, H.conj().T)
    vals, vecs = np.linalg.eigh(H)
    assert np.allclose(vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T, U)


def test_compile_gate_itself_is_one_step():
    intr = intrinsic_of(cz_spec(D3))
    pat = compile_unitary(hadamard(D3), intr)
    assert pat.step_count() == 1
    assert pattern_residual(pat, hadamard(D3)) < 1e-9


@pytest.mark.parametrize("dim,spec_of,bound", [
    (D2, cz_spec, 4), (D3, cz_spec, 12), (D3, light_shift_spec, 9),
    (D3, cx_spec, 9), (D4F, cx_spec, 8)])
def test_compile_random_targets(dim, spec_of, bound):
    intr = intrinsic_of(spec_of(dim))
    rng = np.random.default_rng(42)
    for trial in range(3):
        U = haar_unitary(dim.d, rng)
        pat = compile_unitary(U, intr, seed=trial)
        assert pat.step_count() <= bound
        assert pattern_residual(pat, U) < 1e-6
        assert all(s.adaptive for s in pat.steps)


def test_compile_composite_ring_rejected():
    intr = intrinsic_of(cz_spec(make_dim(INTEGER_RING, d=4)))
    with pytest.raises(UnsupportedFormalism):
        compile_unitary(np.eye(4), intr)


@pytest.mark.parametrize("target_of", [
    lambda dim: sgate(dim),
    lambda dim: hadamard(dim),
    lambda dim: mult_gate(dim, 2),
    lambda dim: synthesize(SymplecticRep(dim, 2, 1, 1, 1))])
def test_compile_clifford_non_adaptive(target_of):
    intr = intrinsic_of(cz_spec(D3))
    C = target_of(D3)
    pat = compile_clifford(C, intr)
    assert all(not s.adaptive for s in pat.steps)
    assert pattern_residual(pat, C) < 1e-9


def test_transport_pattern_length_is_order():
    for spec, steps in ((cz_spec(D3), 4), (light_shift_spec(D3), 3),
                        (cx_spec(D2), 2)):
        intr = intrinsic_of(spec)
        pat = transport_pattern(intr)
        assert pat.step_count() == steps == intr.pauli_order
        assert pattern_residual(pat, np.eye(intr.dim.d)) < 1e-9


def test_pattern_json_round_trip():
    intr = intrinsic_of(light_shift_spec(D3))
    rng = np.random.default_rng(9)
    U = haar_unitary(3, rng)
    pat = compile_unitary(U, intr, seed=0)
    pat.gate = light_shift_spec(D3)
    back = pattern_from_json(pattern_to_json(pat))
    assert back.step_count() == pat.step_count()
    assert back.frame.z == pat.frame.z and back.frame.x == pat.frame.x
    assert np.allclose(back.dense_product(), pat.dense_product())


def test_pattern_json_without_gate_carries_matrix():
    intr = intrinsic_of(cz_spec(D2))
    pat = compile_unitary(sgate(D2) @ hadamard(D2), intr, seed=1)
    obj = pattern_to_json(pat)
    assert obj["intrinsic"] is None and "intrinsic_matrix" in obj
    back = pattern_from_json(obj)
    assert np.allclose(back.intrinsic.matrix, intr.matrix)


def test_pattern_json_with_frame_semantics_key_loads_and_runs():
    # patterns written before the key was dropped carry it; it is ignored
    pat = compile_unitary(haar_unitary(3, np.random.default_rng(4)),
                          intrinsic_of(cz_spec(D3)), seed=0)
    pat.gate = cz_spec(D3)
    obj = pattern_to_json(pat)
    assert "frame_semantics" not in obj
    new, old = pattern_from_json(obj), pattern_from_json(
        dict(obj, frame_semantics="left"))
    assert old.frame == new.frame
    assert np.array_equal(old.dense_product(), new.dense_product())
    graph = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
    psi = np.array([1, 0, 0], dtype=complex)
    a, b = (run_trajectories(graph, p, psi, range(20)) for p in (new, old))
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.frame_index, b.frame_index)
    assert np.array_equal(a.posteriors, b.posteriors)
    assert a.fidelities.min() > 1 - 1e-9
