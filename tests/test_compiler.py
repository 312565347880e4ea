"""Pattern compiler: native-word phase optimization, Clifford word tables."""

import json
import tracemalloc

import numpy as np
import pytest

from quditmbqc import cli, compiler, galois, resource
from quditmbqc.errors import (
    DimensionMismatch,
    StateTooLarge,
    UniversalityViolated,
    UnsupportedFormalism,
)
from quditmbqc.galois import (
    FINITE_FIELD,
    INTEGER_RING,
    complex_to_json,
    make_dim,
)
from quditmbqc.gates import dphi, hadamard, mult_gate, sgate, shear_gate
from quditmbqc.pauli import PauliWord, matrix_of_pauli
from quditmbqc.compiler import (
    _als_run,
    _normal,
    _word,
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


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec])
def test_compile_composite_rings(tmp_path, capsys, d, spec_of):
    # a composite Z_d compiles as a prime one does: a seeded Haar target
    # reaches RESIDUAL_TOL and its pattern runs and verifies on its chain,
    # and cli compile on the gate file exits 0
    dim = make_dim(INTEGER_RING, d=d)
    U = haar_unitary(d, np.random.default_rng(d))
    pat = compile_unitary(U, intrinsic_of(spec_of(dim)), seed=1)
    assert pat.stats.residual <= compiler.RESIDUAL_TOL
    assert pattern_residual(pat, U) <= compiler.RESIDUAL_TOL
    graph = chain_graph(dim, spec_of(dim), pat.step_count() + 1)
    psi = [1, 1j] @ np.random.default_rng(1).normal(size=(2, d))
    runs = run_trajectories(graph, pat, psi, rng=2, trials=20)
    assert runs.fidelities.min() >= 1 - 1e-9
    gate, target = tmp_path / "gate.json", tmp_path / "target.json"
    gate.write_text(json.dumps(gate_to_json(spec_of(dim))))
    target.write_text(json.dumps({"matrix": complex_to_json(U)}))
    assert cli.main(["compile", "--gate", str(gate), "--target", str(target),
                     "--seed", "1"]) == 0
    stats = json.loads(capsys.readouterr().out)["results"]["stats"]
    assert stats["residual"] <= compiler.RESIDUAL_TOL


def test_compile_refuses_a_polish_normal_matrix_past_the_budget(monkeypatch):
    # a word of L steps is polished on (L d)^2 normal-equation entries:
    # over Z_30 the first length, 32, has 921,600 and is fitted, while
    # over Z_31 its (33 x 31)^2 exceed the 10^6 budget, and compile refuses
    # before any ALS, within 1 MiB
    fitted = []

    def solve(U, G, L, seed, stats):
        fitted.append(L)
        return np.zeros((L, G.shape[0])), 0.0

    monkeypatch.setattr(compiler, "_solve", solve)
    for d in (30, 31):
        dim = make_dim(INTEGER_RING, d=d)
        U, intr = haar_unitary(d, np.random.default_rng(d)), \
            intrinsic_of(cz_spec(dim))
        if d == 30:
            assert compile_unitary(U, intr).step_count() == 32
            continue
        tracemalloc.start()
        try:
            with pytest.raises(StateTooLarge, match=r"\(33 x 31\)\^2 polish "
                               r"normal-equation entries exceed"):
                compile_unitary(U, intr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak
    assert fitted == [32]


@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec])
def test_compile_clifford_searches_z31_and_refuses_z32(spec_of):
    # the class search meets up to d^3 classes, each through d shears:
    # over Z_31 its 31^4 steps pass the 10^6 budget, and H S compiles and
    # runs, while over Z_32 its 32^4 steps are refused before any class is
    # searched, within 1 MiB: the ceiling compile_unitary keeps
    dim = make_dim(INTEGER_RING, d=31)
    C = hadamard(dim) @ sgate(dim)
    pat = compile_clifford(C, intrinsic_of(spec_of(dim)))
    assert not any(s.adaptive for s in pat.steps)
    assert pattern_residual(pat, C) < 1e-9
    graph = chain_graph(dim, spec_of(dim), pat.step_count() + 1)
    psi = haar_unitary(31, np.random.default_rng(31))[:, 0]
    runs = run_trajectories(graph, pat, psi, rng=0, trials=10)
    assert runs.fidelities.min() > 1 - 1e-9
    z32 = make_dim(INTEGER_RING, d=32)
    intr = intrinsic_of(spec_of(z32))
    intr.certificate()
    C = hadamard(z32) @ sgate(z32)
    tracemalloc.start()
    try:
        with pytest.raises(StateTooLarge, match=r"32\^4 class-search steps"):
            compile_clifford(C, intr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


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
    a, b = (run_trajectories(graph, p, psi, rng=0, trials=20)
            for p in (new, old))
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.frame_index, b.frame_index)
    assert np.array_equal(a.posteriors, b.posteriors)
    assert a.fidelities.min() > 1 - 1e-9


def _dense_word(G, phis):
    """G D(phis_0) G D(phis_1) ... G D(phis_{L-1}), one dense product."""
    out = np.eye(G.shape[0], dtype=complex)
    for p in phis:
        out = out @ G @ dphi(p)
    return out


def test_pattern_reads_a_shared_dimension_once(monkeypatch):
    # a named gate's dim written as the pattern's is parsed once, by the
    # gate's reader; a gate over another dimension is still refused, as is
    # a pattern dim that differs from the gate's only in type
    calls = []

    def counted(obj):
        calls.append(obj)
        return galois.dim_from_json(obj)

    for module in (compiler, resource):
        monkeypatch.setattr(module, "dim_from_json", counted)
    pat = transport_pattern(intrinsic_of(cz_spec(D3)))
    pat.gate = cz_spec(D3)
    obj = json.loads(json.dumps(pattern_to_json(pat)))
    assert pattern_from_json(obj).dim is D3 and len(calls) == 1
    other = dict(obj["intrinsic"], dim={"kind": "integer_ring", "d": 5})
    for edited, message in (
            (dict(obj, dim={"kind": "integer_ring", "d": 5}),
             "intrinsic gate and pattern dimensions differ"),
            (dict(obj, intrinsic=other),
             "intrinsic gate and pattern dimensions differ"),
            (dict(obj, dim={"kind": "integer_ring", "d": 3.0}),
             "d must be an integer")):
        with pytest.raises(DimensionMismatch, match=message):
            pattern_from_json(edited)


def _polish_point(dim, spec_of):
    """G, seeded phases x of a d + 2 step word, its W and prefixes, and
    the polish's residual R = W - (T/|T|) U toward a seeded Haar U."""
    G = intrinsic_of(spec_of(dim)).matrix
    rng = np.random.default_rng(3)
    x = rng.uniform(-np.pi, np.pi, (dim.d + 2) * dim.d)
    W, PG = _word(G, x)
    U = haar_unitary(dim.d, rng)
    T = np.vdot(U, W)
    return G, x, W, PG, W - T / abs(T) * U


POLISH_FAMILIES = [(D3, cz_spec), (D4F, cx_spec), (D5, cx_spec),
                   (D2, cz_spec)]


@pytest.mark.parametrize("dim,spec_of", POLISH_FAMILIES)
def test_polish_jacobian_matches_finite_differences(dim, spec_of):
    # J's row i is dW/dx_i by central differences of _word, its complex
    # entries as interleaved (real, imaginary) pairs, as the residual's
    G, x, W, PG, R = _polish_point(dim, spec_of)
    h = 1e-6
    J = np.array([((_word(G, x + h * e)[0] - _word(G, x - h * e)[0])
                   / (2 * h)).ravel().view(float) for e in np.eye(x.size)])
    assert J.shape == (x.size, 2 * dim.d ** 2)
    A, g = _normal(W, PG, R)
    assert np.allclose(A, J @ J.T, rtol=0, atol=1e-6)
    assert np.allclose(g, J @ R.ravel().view(float), rtol=0, atol=1e-6)


@pytest.mark.parametrize("dim,spec_of", POLISH_FAMILIES)
def test_polish_normal_equations_match_the_explicit_jacobian(dim, spec_of):
    # row jk: the dense word with D_j replaced by its x_jk derivative,
    # i e^{i x_jk} at (k, k) only
    G, x, W, PG, R = _polish_point(dim, spec_of)
    phis, rows = x.reshape(-1, dim.d), []
    for j, k in np.ndindex(phis.shape):
        dD = np.zeros((dim.d, dim.d), complex)
        dD[k, k] = 1j * np.exp(1j * phis[j, k])
        rows.append((_dense_word(G, phis[:j]) @ G @ dD
                     @ _dense_word(G, phis[j + 1:])).ravel().view(float))
    J = np.array(rows)
    A, g = _normal(W, PG, R)
    assert np.allclose(A, J @ J.T, rtol=0, atol=1e-12)
    assert np.allclose(g, J @ R.ravel().view(float), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim,spec_of", [(D2, cz_spec), (D3, cz_spec),
                                         (D4F, cx_spec), (D5, cx_spec)])
def test_word_is_the_dense_product(dim, spec_of):
    G = intrinsic_of(spec_of(dim)).matrix
    phis = np.random.default_rng(6).uniform(-np.pi, np.pi, (dim.d + 2, dim.d))
    W, _ = _word(G, phis.ravel())
    assert np.allclose(W, _dense_word(G, phis), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim,spec_of", [(D3, cz_spec), (D4F, cx_spec),
                                         (D5, cz_spec)])
def test_als_update_reaches_the_closed_form_maximum(dim, spec_of,
                                                    monkeypatch):
    # one sweep: group j is updated after groups < j, before groups > j
    monkeypatch.setattr(compiler, "MAX_SWEEPS", 1)
    G = intrinsic_of(spec_of(dim)).matrix
    rng = np.random.default_rng(7)
    U = haar_unitary(dim.d, rng)
    start = rng.uniform(-np.pi, np.pi, (dim.d + 2, dim.d))
    phis, sweeps = _als_run(U, G, start.copy())
    assert sweeps == 1
    for j in range(len(start)):
        A = _dense_word(G, phis[:j]) @ G
        B = _dense_word(G, start[j + 1:])
        best = np.abs(np.diag(B @ U.conj().T @ A)).sum()
        now = np.concatenate([phis[:j + 1], start[j + 1:]])
        got = abs(np.trace(U.conj().T @ _dense_word(G, now)))
        assert got == pytest.approx(best, rel=0, abs=1e-12)
        # the maximum is over group j alone: no other phase reaches more
        other = now.copy()
        other[j] += rng.uniform(-0.1, 0.1, dim.d)
        assert abs(np.trace(U.conj().T @ _dense_word(G, other))) < got


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


def test_handover_keeps_every_family_on_its_first_length():
    # ALS hands the word to the polish at BASIN_TOL: 20 seeded Haar targets
    # per family still reach the floor at _lengths' first length with an
    # identity frame, and at most one of the 220 needs a restart
    restarted = 0
    for i, (dim, spec_of) in enumerate(FAMILIES):
        intr = intrinsic_of(spec_of(dim))
        rng = np.random.default_rng([777, i])
        for trial in range(20):
            U = haar_unitary(dim.d, rng)
            pat = compile_unitary(U, intr, seed=trial)
            assert pat.stats.residual < 1e-10
            assert pattern_residual(pat, U) < 1e-10
            assert pat.step_count() == compiler._lengths(intr)[0]
            assert pat.frame.is_identity()
            restarted += pat.stats.als_runs > 1
    assert restarted <= 1


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
        runs = run_trajectories(graph, pat, psi, rng=0, trials=3)
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
