"""End-to-end acceptance suite; one printed PASS/FAIL line per criterion."""

import sys
import time

import numpy as np
import pytest

from quditmbqc import cli
from quditmbqc.errors import NoRealSolution, NotCliffordError
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import (
    hadamard,
    mult_gate,
    sgate,
    shear_gate,
    tau,
    xplus_state,
)
from quditmbqc.pauli import matrix_of_pauli, single_word
from quditmbqc.clifford import certify
from quditmbqc.compiler import compile_clifford, compile_unitary
from quditmbqc.resource import (
    EntanglingGateSpec,
    cx_spec,
    cz_spec,
    expand,
    gate_matrix,
    intrinsic_of,
    light_shift_angle,
    light_shift_spec,
    resource_init,
)
from quditmbqc.sim import StateVector, is_max_entangled, schmidt
from quditmbqc.engine import (
    chain_graph,
    diagonal_lattice,
    entangle_via_edge,
    local_complement,
    mediator_step,
    run_trajectories,
    vertex_delete,
)
from dense_oracle import conjugation

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)
D4F = make_dim(FINITE_FIELD, p=2, m=2)

# (dim, gate family, step bound d * o)
COMBOS = [
    (D2, cz_spec, "cz", 4), (D2, light_shift_spec, "light_shift", 4),
    (D2, cx_spec, "cx", 4),
    (D3, cz_spec, "cz", 12), (D3, light_shift_spec, "light_shift", 9),
    (D3, cx_spec, "cx", 9),
    (D4F, cz_spec, "cz", 8), (D4F, light_shift_spec, "light_shift", 8),
    (D4F, cx_spec, "cx", 8),
]


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:02d}: {status} - {detail}"
    print(line)
    print(line, file=sys.__stdout__)  # visible even under capture
    assert ok, f"criterion {num}: {detail}"


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def overlap_residual(A, B):
    return 1.0 - abs(np.trace(A.conj().T @ B)) / A.shape[0]


@pytest.fixture(scope="module")
def compiled():
    """20 Haar targets per (d, gate) family, compiled once, with timing."""
    rng = np.random.default_rng(20240817)
    out = []
    t0 = time.monotonic()
    for dim, spec_of, name, bound in COMBOS:
        intr = intrinsic_of(spec_of(dim))
        for trial in range(20):
            U = haar_unitary(dim.d, rng)
            pat = compile_unitary(U, intr, seed=trial)
            out.append((dim, spec_of(dim), name, bound, U, pat))
    elapsed = time.monotonic() - t0
    return out, elapsed


def test_criterion_01_intrinsic_table(capsys):
    worst = 0.0
    ok = True
    for dim, spec_of, name, _ in COMBOS:
        d = dim.d
        intr = intrinsic_of(spec_of(dim))
        H, S = hadamard(dim), sgate(dim)
        if name == "cz":
            expected = H
        elif name == "light_shift":
            theta = light_shift_angle(d)
            expected = (np.exp(1j * theta) * (np.ones((d, d)) - np.eye(d))
                        + np.eye(d)) / np.sqrt(d)
        else:
            expected = S @ np.linalg.inv(H) @ S
        worst = max(worst, overlap_residual(expected, intr.matrix))
        order = {("cz", 2): 2, ("light_shift", 2): 2, ("cx", 2): 2,
                 ("cz", 3): 4, ("light_shift", 3): 3, ("cx", 3): 3,
                 ("cz", 4): 2, ("light_shift", 4): 2, ("cx", 4): 2}[
                     (name, d)]
        ok = ok and intr.pauli_order == order
    t0 = time.monotonic()
    code = cli.main(["table"])
    capsys.readouterr()
    elapsed = time.monotonic() - t0
    ok = ok and worst < 1e-8 and code == 0 and elapsed < 5.0
    report(1, ok, f"9 intrinsic forms, worst overlap residual "
                  f"{worst:.2e}, table exit {code}, {elapsed:.2f}s")


def test_criterion_02_entanglement_angles():
    errs = [abs(light_shift_angle(2) - np.pi / 2),
            abs(light_shift_angle(3) - 2 * np.pi / 3),
            abs(light_shift_angle(4) - np.pi)]
    raised = False
    try:
        light_shift_angle(5)
    except NoRealSolution:
        raised = True
    ok = max(errs) < 1e-12 and raised
    report(2, ok, f"angles pi/2, 2pi/3, pi (max err {max(errs):.2e}), "
                  f"d=5 infeasible: {raised}")


def test_criterion_03_ququart_bit_exactness():
    dim = D4F
    half = np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                     [1, -1, -1, 1], [1, -1, 1, -1]], dtype=complex) / 2
    S_ref = np.diag([1, -1, -1j, -1j]).astype(complex)
    Z1 = np.diag([1, 1, -1, -1]).astype(complex)
    Zxi = np.diag([1, -1, 1, -1]).astype(complex)
    X1 = np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                   [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    Xxi = np.array([[0, 0, 0, 1], [0, 0, 1, 0],
                    [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex)
    Mxi = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                    [0, 0, 0, 1], [0, 1, 0, 0]], dtype=complex)
    Mxi1 = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                     [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)
    xi = dim.xi                  # encoded 3; 1 + xi is encoded 2
    one_xi = dim.add(1, xi)
    pairs = [
        (hadamard(dim), half), (sgate(dim), S_ref),
        (matrix_of_pauli(single_word(dim, 1, 0, z=1)), Z1),
        (matrix_of_pauli(single_word(dim, 1, 0, z=xi)), Zxi),
        (matrix_of_pauli(single_word(dim, 1, 0, x=1)), X1),
        (matrix_of_pauli(single_word(dim, 1, 0, x=xi)), Xxi),
        (mult_gate(dim, xi), Mxi), (mult_gate(dim, one_xi), Mxi1),
    ]
    worst = max(np.max(np.abs(got - ref)) for got, ref in pairs)
    tr4 = {
        0: dim.gr_trace(dim.gr_embed(0)),
        1: dim.gr_trace(dim.gr_embed(1)),
        "xi^2": dim.gr_trace(dim.gr_mul(dim.gr_embed(xi),
                                        dim.gr_embed(xi))),
        "(1+xi)^2": dim.gr_trace(dim.gr_mul(dim.gr_embed(one_xi),
                                            dim.gr_embed(one_xi))),
    }
    traces_ok = tr4 == {0: 0, 1: 2, "xi^2": 3, "(1+xi)^2": 3}
    ok = worst < 1e-12 and traces_ok
    report(3, ok, f"8 printed matrices (max dev {worst:.2e}), "
                  f"tr4 table {tr4}")


def test_criterion_04_conjugation_suite():
    worst = 0.0
    for d in (2, 3, 4, 5):
        dim = make_dim(INTEGER_RING, d=d)
        H, S = hadamard(dim), sgate(dim)
        Z = matrix_of_pauli(single_word(dim, 1, 0, z=1))
        X = matrix_of_pauli(single_word(dim, 1, 0, x=1))
        Xinv = matrix_of_pauli(single_word(dim, 1, 0, x=dim.neg(1)))
        worst = max(worst, np.max(np.abs(H @ X @ H.conj().T - Z)))
        worst = max(worst, np.max(np.abs(H @ Z @ H.conj().T - Xinv)))
        worst = max(worst,
                    np.max(np.abs(S @ X @ S.conj().T - tau(dim) * X @ Z)))
        M = mult_gate(dim, dim.neg(1))
        H2 = H @ H
        ph = np.trace(M.conj().T @ H2) / d
        worst = max(worst, np.max(np.abs(H2 - ph * M)))
        worst = max(worst,
                    np.max(np.abs(np.linalg.matrix_power(H, 4) - np.eye(d))))
    for dim in (make_dim(FINITE_FIELD, p=2, m=1), D4F):
        HF = hadamard(dim)
        worst = max(worst, np.max(np.abs(HF @ HF - np.eye(dim.d))))
        # field analogues of the basic conjugations
        Z = matrix_of_pauli(single_word(dim, 1, 0, z=1))
        X = matrix_of_pauli(single_word(dim, 1, 0, x=1))
        worst = max(worst, np.max(np.abs(HF @ X @ HF.conj().T - Z)))
    ok = worst < 1e-10
    report(4, ok, f"ring suite d in 2..5 plus field analogues, "
                  f"max deviation {worst:.2e}")


def test_criterion_05_compiler_soundness(compiled):
    patterns, elapsed = compiled
    worst_res = 0.0
    steps_ok = True
    for dim, spec, name, bound, U, pat in patterns:
        F = matrix_of_pauli(pat.frame)
        V = F.conj().T @ pat.dense_product()
        worst_res = max(worst_res, overlap_residual(U, V))
        steps_ok = steps_ok and pat.step_count() <= bound
    ok = worst_res < 1e-6 and steps_ok and elapsed < 60.0
    report(5, ok, f"180 Haar targets, worst residual {worst_res:.2e}, "
                  f"bounds respected: {steps_ok}, compile time "
                  f"{elapsed:.1f}s")


def test_criterion_06_mbqc_determinism(compiled):
    patterns, _ = compiled
    worst = 1.0
    mismatches = 0
    rng = np.random.default_rng(6)
    for dim, spec, name, bound, U, pat in patterns:
        graph = chain_graph(dim, spec, pat.step_count() + 1)
        psi = random_state(dim.d, rng)
        runs = run_trajectories(graph, pat, psi, rng=0, trials=100)
        for t in range(100):
            ideal = matrix_of_pauli(runs.frame(t).word) @ matrix_of_pauli(
                pat.frame).conj().T @ U @ psi
            fid = abs(np.vdot(runs.posteriors[t],
                              ideal / np.linalg.norm(ideal)))
            worst = min(worst, fid)
            if fid < 1 - 1e-9:
                mismatches += 1
    ok = worst >= 1 - 1e-9 and mismatches == 0
    report(6, ok, f"180 patterns x 100 trajectories, worst fidelity "
                  f"1-{1 - worst:.2e}, frame mismatches: {mismatches}")


def test_criterion_07_clifford_single_step():
    intr = intrinsic_of(cz_spec(D3))
    H = hadamard(D3)
    word = shear_gate(D3, 1) @ H @ shear_gate(D3, 2) @ H @ H @ H
    # Z -> Z^2 X and X -> Z X, up to phase
    assert [divmod(i, 3) for i in certify(word, D3).class_key()] \
        == [(2, 1), (1, 1)]
    targets = [sgate(D3), H, mult_gate(D3, 2), word]
    all_static = True
    worst = 1.0
    for C in targets:
        pat = compile_clifford(C, intr)
        all_static = all_static and not any(s.adaptive for s in pat.steps)
        graph = chain_graph(D3, cz_spec(D3), pat.step_count() + 1)
        rng = np.random.default_rng(7)
        psi = random_state(3, rng)
        runs = run_trajectories(graph, pat, psi, rng=0, trials=10)
        for t in range(10):
            ideal = matrix_of_pauli(runs.frame(t).word) @ matrix_of_pauli(
                pat.frame).conj().T @ pat.dense_product() @ psi
            worst = min(worst, abs(np.vdot(
                runs.posteriors[t], ideal / np.linalg.norm(ideal))))
    ok = all_static and worst >= 1 - 1e-9
    report(7, ok, f"S, H, M(2), random Clifford at d=3: non-adaptive "
                  f"{all_static}, worst trajectory fidelity "
                  f"1-{1 - worst:.2e}")


def test_criterion_08_equivalence_theorems():
    rng = np.random.default_rng(8)
    # (a) intrinsic unitary <=> resource maximally entangled
    counter_a = 0
    for dim in (D2, D3):
        d = dim.d
        for trial in range(100):
            theta = rng.uniform(0, 2 * np.pi, size=(d, d))
            if trial % 10 == 0:     # mix in exactly solvable angles
                theta = expand(cz_spec(dim)).theta
            spec = EntanglingGateSpec(dim, "diagonal", theta=theta,
                                      init_phases=np.zeros(d))
            intr = intrinsic_of(spec)
            st = StateVector(dim, 2, gate_matrix(spec) @ np.kron(
                xplus_state(dim), resource_init(spec)))
            if bool(intr.unitary) != bool(is_max_entangled(st, [0])):
                counter_a += 1
    # (b) gate Clifford <=> intrinsic Clifford
    counter_b = 0
    for dim in (D2, D3):
        d = dim.d
        samples = []
        # N = 0 is excluded: without an interaction term the gate is not
        # entangling and the intrinsic map is degenerate by construction
        for N in dim.elements[1:]:
            for a in range(d):
                for b in range(d):
                    Sa = np.angle(np.diag(np.linalg.matrix_power(
                        sgate(dim), a)))
                    Sb = np.angle(np.diag(np.linalg.matrix_power(
                        sgate(dim), b)))
                    jk = np.array([[np.angle(dim.char_phase(
                        dim.mul(dim.mul(j, k), N)))
                        for k in dim.elements] for j in dim.elements])
                    samples.append(Sa[:, None] + Sb[None, :] + jk)
        for _ in range(25):
            samples.append(rng.uniform(0, 2 * np.pi, size=(d, d)))
        for theta in samples:
            spec = EntanglingGateSpec(dim, "diagonal",
                                      theta=np.asarray(theta) % (2 * np.pi),
                                      init_phases=np.zeros(d))
            E = gate_matrix(spec)
            try:
                conjugation(E, dim, 2)
                gate_clifford = True
            except NotCliffordError:
                gate_clifford = False
            intr = intrinsic_of(spec)
            if gate_clifford != bool(intr.is_clifford):
                counter_b += 1
    ok = counter_a == 0 and counter_b == 0
    report(8, ok, f"unitarity<=>max-entanglement counterexamples "
                  f"{counter_a}, Clifford<=>Clifford counterexamples "
                  f"{counter_b}")


def test_criterion_09_mediator_protocols():
    rng = np.random.default_rng(9)
    worst = 1.0
    schmidt_dev = 0.0
    for dim in (D2, D3):
        d = dim.d
        S = sgate(dim)
        CZ = gate_matrix(cz_spec(dim))
        for outcome in range(d):
            for _ in range(d):
                psi = random_state(d * d, rng)
                res = mediator_step(cx_spec(dim), psi, "entangle",
                                    forced_outcome=outcome)
                F = matrix_of_pauli(res.frame.word)
                predicted = F @ np.kron(S, S) @ CZ @ psi
                worst = min(worst, abs(np.vdot(
                    res.posterior.amps,
                    predicted / np.linalg.norm(predicted))))
                prod = np.kron(random_state(d, rng), random_state(d, rng))
                res = mediator_step(cx_spec(dim), prod, "disconnect",
                                    forced_outcome=outcome)
                coeffs, _, _ = schmidt(res.posterior, [0])
                schmidt_dev = max(schmidt_dev, abs(coeffs[0] - 1))
    # pre-existing edge protocol: output is (H x H) CZ (H x H) |psi>
    # up to the tracked Pauli frame (the bare CZ claim omits the
    # Hadamard conjugation the four X-measurements introduce)
    edge_worst = 1.0
    for dim in (D2, D3):
        d = dim.d
        H = hadamard(dim)
        CZ = gate_matrix(cz_spec(dim))
        for trial in range(50):
            psi = random_state(d * d, rng)
            out, frame = entangle_via_edge(dim, psi, rng=trial)
            target = np.kron(H, H) @ CZ @ np.kron(H, H) @ psi
            ideal = matrix_of_pauli(frame.word) @ target
            edge_worst = min(edge_worst, abs(np.vdot(
                out.amps, ideal / np.linalg.norm(ideal))))
    ok = worst >= 1 - 1e-8 and schmidt_dev < 1e-8 and \
        edge_worst >= 1 - 1e-8
    report(9, ok, f"mediator entangle worst 1-{1 - worst:.2e}, "
                  f"disconnect Schmidt dev {schmidt_dev:.2e}, edge "
                  f"protocol worst 1-{1 - edge_worst:.2e} "
                  f"(H-conjugated CZ relation)")


def test_criterion_10_graph_rewriting():
    # vertex deletion and local complementation self-verify densely
    # (FrameMismatch on any corrected-target disagreement at 1e-8)
    cases = 0
    g = chain_graph(D3, cz_spec(D3), 3)
    vertex_delete(g, 1, rng=0)
    cases += 1
    g = diagonal_lattice(D2, 2, 2, light_shift_spec(D2))
    vertex_delete(g, 0, rng=1)
    cases += 1
    g = diagonal_lattice(D2, 2, 3, cz_spec(D2))
    vertex_delete(g, 4, rng=2)
    cases += 1
    # qubit 3-chain Y-measurement identity: endpoints become joined
    g = chain_graph(D2, cz_spec(D2), 3)
    _, _, _, new_graph = local_complement(g, 1, rng=3)
    y_identity = {0, 2} in [{e.control, e.target} for e in new_graph.edges]
    cases += 1
    g = chain_graph(D3, cz_spec(D3), 3)
    local_complement(g, 1, rng=4)
    cases += 1
    g = chain_graph(D2, light_shift_spec(D2), 3)
    local_complement(g, 1, rng=5)
    cases += 1
    g = diagonal_lattice(D2, 2, 2, cz_spec(D2))
    local_complement(g, 0, rng=6)
    cases += 1
    ok = y_identity and cases == 7
    report(10, ok, f"{cases} rewrite cases verified at 1e-8; qubit "
                   f"Y-measurement identity joins the endpoints: "
                   f"{y_identity}")
