"""Pattern compiler: native-word phase optimization, Clifford word tables."""

import json

import numpy as np
import pytest

from quditmbqc import cli
from quditmbqc import compiler
from quditmbqc.errors import UniversalityViolated, UnsupportedFormalism
from quditmbqc.galois import (
    FINITE_FIELD,
    INTEGER_RING,
    complex_to_json,
    make_dim,
)
from quditmbqc.gates import hadamard, mult_gate, sgate, shear_gate
from quditmbqc.pauli import PauliWord, matrix_of_pauli
from quditmbqc.compiler import (
    _powers,
    _torus,
    compile_clifford,
    compile_unitary,
    pattern_from_json,
    pattern_to_json,
    transport_pattern,
)
from quditmbqc.engine import chain_graph, run_trajectories
from quditmbqc.resource import (
    cx_spec,
    cz_spec,
    gate_to_json,
    intrinsic_from_matrix,
    intrinsic_of,
    light_shift_spec,
)

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)
D4F = make_dim(FINITE_FIELD, p=2, m=2)
D5 = make_dim(INTEGER_RING, d=5)


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pattern_residual(pattern, U):
    """1 - |tr(V^dag U)| / d for V = frame^-1 * realized product."""
    F = matrix_of_pauli(pattern.frame)
    V = F.conj().T @ pattern.dense_product()
    return 1.0 - abs(np.trace(V.conj().T @ U)) / U.shape[0]


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


def _clifford_word(dim):
    """S(1) H S(2) H^3: at d = 3 it sends Z -> Z^2 X and X -> Z X."""
    H = hadamard(dim)
    return shear_gate(dim, 1) @ H @ shear_gate(dim, 2) @ H @ H @ H


@pytest.mark.parametrize("target_of", [
    lambda dim: sgate(dim),
    lambda dim: hadamard(dim),
    lambda dim: mult_gate(dim, 2),
    lambda dim: _clifford_word(dim)])
def test_compile_clifford_non_adaptive(target_of):
    intr = intrinsic_of(cz_spec(D3))
    C = target_of(D3)
    pat = compile_clifford(C, intr)
    assert all(not s.adaptive for s in pat.steps)
    assert pattern_residual(pat, C) < 1e-9


def test_non_universal_intrinsic_gate_rejected():
    # S fixes Z, so its words never reach a Hadamard
    intr = intrinsic_from_matrix(D3, sgate(D3))
    with pytest.raises(UniversalityViolated):
        compile_unitary(hadamard(D3), intr)
    with pytest.raises(UnsupportedFormalism):
        compile_clifford(hadamard(D3), intr)


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


@pytest.mark.parametrize("dim,spec_of", [(D3, cz_spec), (D4F, cx_spec),
                                         (D5, cx_spec)])
def test_polish_jacobian_matches_finite_differences(dim, spec_of):
    Ks = _powers(intrinsic_of(spec_of(dim)).matrix, dim.d + 2)
    x = np.random.default_rng(3).uniform(-np.pi, np.pi, Ks.shape[0] * dim.d)
    _, J = _torus(Ks, x)
    h = 1e-6
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        dV = (_torus(Ks, x + e)[0] - _torus(Ks, x - e)[0]).ravel() / (2 * h)
        assert np.allclose(J[:, i], np.concatenate([dV.real, dV.imag]),
                           rtol=0, atol=1e-6)


def test_compile_reaches_the_floor():
    intr = intrinsic_of(cx_spec(D5))
    rng = np.random.default_rng(8)
    for trial in range(20):
        U = haar_unitary(5, rng)
        pat = compile_unitary(U, intr, seed=trial)
        assert pat.step_count() <= 5 + 2 and pat.frame.is_identity()
        assert pattern_residual(pat, U) < 1e-10
        assert pat.stats.residual < 1e-10 and pat.stats.als_runs >= 1


def test_compile_report_is_byte_identical_and_carries_stats(tmp_path,
                                                            capsys):
    gate = tmp_path / "gate.json"
    gate.write_text(json.dumps(gate_to_json(cz_spec(D3))))
    U = haar_unitary(3, np.random.default_rng(5))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"matrix": complex_to_json(U)}))
    argv = ["compile", "--gate", str(gate), "--target", str(target),
            "--seed", "3"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    stats = json.loads(outs[0])["results"]["stats"]
    assert set(stats) == {"residual", "als_runs", "als_sweeps",
                          "polish_steps"}
    assert stats["residual"] < 1e-10 and stats["als_runs"] >= 1


FAMILIES = [(dim, spec_of) for dim in (D2, D3, D4F)
            for spec_of in (cz_spec, light_shift_spec, cx_spec)] \
    + [(D5, cz_spec), (D5, cx_spec)]


def _family_id(case):
    dim, spec_of = case
    return f"{dim.label()}-{spec_of.__name__}"


@pytest.mark.parametrize("dim,spec_of", FAMILIES,
                         ids=[_family_id(c) for c in FAMILIES])
def test_unitary_patterns_are_native_words(dim, spec_of):
    intr = intrinsic_of(spec_of(dim))
    rng = np.random.default_rng(11)
    for trial in range(2):
        U = haar_unitary(dim.d, rng)
        pat = compile_unitary(U, intr, seed=trial)
        assert pat.step_count() == (3 if dim.d == 2 else dim.d + 2)
        assert pat.frame.is_identity()
        assert 1 - abs(np.trace(U.conj().T @ pat.dense_product())) / dim.d \
            < 1e-10


def test_compile_falls_back_to_the_proved_bound(monkeypatch):
    # two qutrit steps hold 4 free phases, too few for PU(3)
    intr = intrinsic_of(cz_spec(D3))
    monkeypatch.setattr(compiler, "_lengths", lambda intr: (2, 12))
    U = haar_unitary(3, np.random.default_rng(12))
    pat = compile_unitary(U, intr)
    assert pat.step_count() == 12 == 3 * intr.pauli_order
    assert pat.frame.is_identity() and pattern_residual(pat, U) < 1e-10
    assert pat.stats.als_runs == compiler.MAX_RESTARTS + 2


def _native_product(intr, word):
    out = np.eye(intr.dim.d, dtype=complex)
    for l in word:
        out = intr.matrix @ shear_gate(intr.dim, l) @ out
    return out


@pytest.mark.parametrize("dim,spec_of", FAMILIES,
                         ids=[_family_id(c) for c in FAMILIES])
def test_every_clifford_class_compiles_to_its_depth(dim, spec_of):
    spec = spec_of(dim)
    intr = intrinsic_of(spec)
    table = intr.clifford_words
    classes = {2: 6, 3: 24, 4: 60, 5: 120}[dim.d]
    if (dim, spec_of) == (D4F, light_shift_spec):
        classes = 120   # a semilinear G_I also reaches the Frobenius twist
    assert len(table) == classes
    rng = np.random.default_rng(13)
    psi = haar_unitary(dim.d, rng)[:, 0]
    for word in table.values():
        P = PauliWord(dim, 1, (int(rng.integers(dim.d)),),
                      (int(rng.integers(dim.d)),))
        C = matrix_of_pauli(P) @ _native_product(intr, word)
        pat = compile_clifford(C, intr)
        assert pat.step_count() == len(word)
        assert not any(s.adaptive for s in pat.steps)
        assert pattern_residual(pat, C) < 1e-9
        graph = chain_graph(dim, spec, pat.step_count() + 1)
        runs = run_trajectories(graph, pat, psi, range(3))
        assert runs.fidelities.min() > 1 - 1e-9
    assert () in table.values()   # the identity class: no steps


def test_frobenius_needs_a_semilinear_intrinsic_gate():
    frob = np.zeros((4, 4))
    for u in D4F.elements:
        frob[D4F.mul(u, u), u] = 1.0
    pat = compile_clifford(frob, intrinsic_of(light_shift_spec(D4F)))
    assert not any(s.adaptive for s in pat.steps)
    assert pattern_residual(pat, frob) < 1e-9
    with pytest.raises(UnsupportedFormalism):
        compile_clifford(frob, intrinsic_of(cz_spec(D4F)))
