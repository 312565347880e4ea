"""Entangling-gate analysis: intrinsic gates, angles, factorizations."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditmbqc import clifford, resource
from quditmbqc.errors import (
    DimensionMismatch,
    NonInvertibleGcd,
    NonUnitary,
    NoRealSolution,
    NotCliffordError,
    NotControlledPauliForm,
)
from quditmbqc.clifford import universality_check
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, dim_to_json, make_dim
from quditmbqc.gates import (
    hadamard,
    normalize_global_phase,
    sgate,
    shear_gate,
    xplus_state,
)
from quditmbqc.pauli import (
    PauliWord,
    match_pauli,
    matrix_of_pauli,
    single_word,
    zmat,
)
from quditmbqc.resource import (
    BLOCK_DIAGONAL,
    EntanglingGateSpec,
    _pauli_to_z,
    cx_spec,
    cz_power,
    cz_spec,
    expand,
    factor_block_controlled_pauli,
    factor_diagonal_clifford,
    gate_from_json,
    gate_matrix,
    gate_to_json,
    intrinsic_of,
    light_shift_angle,
    light_shift_spec,
    mediator_of,
    mediator_tables,
    resource_init,
    unitary_blocks,
)
from quditmbqc.sim import StateVector, is_max_entangled, require_unitary

import dense_oracle

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)
D4F = make_dim(FINITE_FIELD, p=2, m=2)
D4R = make_dim(INTEGER_RING, d=4)
D5 = make_dim(INTEGER_RING, d=5)
# every ring Z2..Z7 and the fields GF(4), GF(8), GF(9), GF(5), GF(7)
CZ_POWER_DIMS = [make_dim(INTEGER_RING, d=d) for d in range(2, 8)] + [
    make_dim(FINITE_FIELD, p=p, m=m)
    for p, m in ((2, 2), (2, 3), (3, 2), (5, 1), (7, 1))]


def light_shift_closed_form(dim):
    d = dim.d
    theta = light_shift_angle(d)
    return (np.exp(1j * theta) * (np.ones((d, d)) - np.eye(d))
            + np.eye(d)) / np.sqrt(d)


@pytest.mark.parametrize("dim,order", [(D2, 2), (D3, 4), (D4F, 2), (D5, 4)])
def test_cz_intrinsic_is_hadamard(dim, order):
    intr = intrinsic_of(cz_spec(dim))
    assert_allclose(normalize_global_phase(intr.matrix),
                    normalize_global_phase(hadamard(dim)), rtol=0, atol=1e-8)
    assert intr.unitary and intr.is_clifford
    assert intr.pauli_order == order


@pytest.mark.parametrize("dim,order", [(D2, 2), (D3, 3), (D4F, 2), (D5, 5),
                                       (make_dim(FINITE_FIELD, p=2, m=3), 2)])
def test_cx_intrinsic(dim, order):
    intr = intrinsic_of(cx_spec(dim))
    H, S = hadamard(dim), sgate(dim)
    assert_allclose(normalize_global_phase(intr.matrix),
                    normalize_global_phase(S @ np.linalg.inv(H) @ S),
                    rtol=0, atol=1e-8)
    assert intr.unitary and intr.is_clifford
    assert intr.pauli_order == order
    assert universality_check(intr.certificate())[0]


@pytest.mark.parametrize("dim,order", [(D2, 2), (D3, 3), (D4F, 2)])
def test_light_shift_intrinsic(dim, order):
    intr = intrinsic_of(light_shift_spec(dim))
    assert_allclose(normalize_global_phase(intr.matrix),
                    normalize_global_phase(light_shift_closed_form(dim)),
                    rtol=0, atol=1e-8)
    assert intr.unitary and intr.is_clifford
    assert intr.pauli_order == order


def test_light_shift_ring4_not_clifford():
    intr = intrinsic_of(light_shift_spec(D4R))
    assert intr.unitary
    assert not intr.is_clifford


def test_light_shift_angles():
    assert abs(light_shift_angle(2) - np.pi / 2) < 1e-12
    assert abs(light_shift_angle(3) - 2 * np.pi / 3) < 1e-12
    assert abs(light_shift_angle(4) - np.pi) < 1e-12
    with pytest.raises(NoRealSolution):
        light_shift_angle(5)


def test_detuned_light_shift_not_unitary():
    intr = intrinsic_of(light_shift_spec(D3, theta=0.7))
    assert not intr.unitary


def test_cx_control_is_site_zero():
    E = gate_matrix(cx_spec(D3))
    # |1>|0> -> |1>|1>: control on the most significant digit
    v = np.zeros(9)
    v[1 * 3 + 0] = 1
    out = E @ v
    assert abs(out[1 * 3 + 1]) > 0.99


def test_resource_init_feeds_max_entanglement():
    for spec in (cz_spec(D3), light_shift_spec(D3), cx_spec(D3)):
        E = gate_matrix(spec)
        init = resource_init(expand(spec))
        st = StateVector(D3, 2, E @ np.kron(xplus_state(D3), init))
        assert is_max_entangled(st, [0])


def test_factor_cz_is_trivial():
    (q1, images1), (q2, images2), N = factor_diagonal_clifford(cz_spec(D3))
    assert_allclose(q1, np.ones(3), rtol=0, atol=1e-8)
    assert_allclose(q2, np.ones(3), rtol=0, atol=1e-8)
    assert images1 is None and images2 is None
    assert N == 1
    assert not q1.flags.writeable and not q2.flags.writeable


@pytest.mark.parametrize("dim", CZ_POWER_DIMS, ids=lambda dim: dim.label())
def test_factor_cz_power(dim):
    for w in dim.elements[1:]:
        spec = cz_power(dim, w)
        (q1, _), (q2, _), N = factor_diagonal_clifford(spec)
        assert N == w
        czN = np.diag([dim.char_phase(dim.mul(N, dim.mul(j, k)))
                       for j in dim.elements for k in dim.elements])
        assert_allclose(normalize_global_phase(np.diag(np.kron(q1, q2)) @ czN),
                        normalize_global_phase(gate_matrix(spec)),
                        rtol=0, atol=1e-8)


@pytest.mark.parametrize("dim,power", [(D2, 1), (D3, 2)])
def test_factor_light_shift(dim, power):
    (q1, _), (q2, _), N = factor_diagonal_clifford(light_shift_spec(dim))
    C1, C2 = np.diag(q1), np.diag(q2)
    S = np.linalg.matrix_power(sgate(dim), power)
    assert_allclose(normalize_global_phase(C1),
                    normalize_global_phase(S), rtol=0, atol=1e-8)
    assert_allclose(normalize_global_phase(C2),
                    normalize_global_phase(S), rtol=0, atol=1e-8)
    assert N == 1
    # reassembly check
    E = gate_matrix(light_shift_spec(dim))
    CZ = gate_matrix(cz_spec(dim))
    assert_allclose(normalize_global_phase(np.kron(C1, C2) @ CZ),
                    normalize_global_phase(E), rtol=0, atol=1e-8)


def test_factor_non_clifford_local_factor_rejected():
    # (D x I) CZ with D = diag(1, e^{i pi/4}, 1) factors densely, but D is
    # not Clifford, so neither is the gate
    theta = expand(cz_spec(D3)).theta.copy()
    theta[1, :] += np.pi / 4
    spec = EntanglingGateSpec(D3, "diagonal", theta=theta)
    with pytest.raises(NotCliffordError) as exc:
        factor_diagonal_clifford(spec)
    assert exc.value.generator == "X0^1"


def test_factor_light_shift_f4_rejected():
    with pytest.raises(NotCliffordError):
        factor_diagonal_clifford(light_shift_spec(D4F))


def test_factor_light_shift_ring4_rejected():
    with pytest.raises(NotCliffordError):
        factor_diagonal_clifford(light_shift_spec(D4R))


# every ring Z2..Z7 and the fields GF(4), GF(8), GF(9)
ORACLE_DIMS = [make_dim(INTEGER_RING, d=d) for d in range(2, 8)] + [
    make_dim(FINITE_FIELD, p=p, m=m) for p, m in ((2, 2), (2, 3), (3, 2))]


def _random_factored_gate(dim, rng):
    """theta of (C1 x C2) CZ^N at a random global phase, C1 and C2 random
    diagonal Cliffords (a shear times a Z power) and N a random weight."""
    q1, q2 = (np.diag(shear_gate(dim, int(rng.integers(dim.d)))
                      @ zmat(dim, int(rng.integers(dim.d))))
              for _ in range(2))
    N = int(rng.integers(dim.d))
    cz = [[dim.char_phase(dim.mul(N, dim.mul(j, k))) for k in dim.elements]
          for j in dim.elements]
    return (np.angle(q1)[:, None] + np.angle(q2) + np.angle(cz)
            + 2 * np.pi * rng.random())


def _factor_or_error(factor, spec):
    try:
        return factor(spec)
    except NotCliffordError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("dim", ORACLE_DIMS, ids=lambda dim: dim.label())
def test_factorization_matches_the_dense_oracle(dim):
    # N read off the d x d phase table is the one N whose dense d^4
    # product (C1 x C2) CZ^N is the gate; the diagonals are the oracle's
    # to the byte, their images diagonal_images', and a gate that does not
    # factor raises as the oracle does
    rng = np.random.default_rng(dim.d * 31 + dim.m)
    specs = [cz_power(dim, w) for w in dim.elements] + [cz_spec(dim)]
    if dim.d < 5:
        specs.append(light_shift_spec(dim))
    for _ in range(20):
        theta = _random_factored_gate(dim, rng)
        specs.append(EntanglingGateSpec(dim, "diagonal", theta=theta))
        theta[1, 1] += 1e-3
        specs.append(EntanglingGateSpec(dim, "diagonal", theta=theta))
    factored = 0
    for spec in specs:
        got = _factor_or_error(factor_diagonal_clifford, spec)
        want = _factor_or_error(dense_oracle.factor_diagonal, spec)
        if isinstance(want[0], type):
            assert got == want
            continue
        factored += 1
        assert got[2] == want[2]
        for (q, images), C in zip(got[:2], want[:2]):
            assert not q.flags.writeable
            assert q.tobytes() == np.diag(C).tobytes()
            z, num = clifford.diagonal_images(dim, q)
            assert images == (None if not any(z) and not any(num)
                              else (tuple(z), tuple(num)))
    # every CZ power, cz, the Z2 and Z3 light shifts and every random gate
    # factor; no bent one does
    assert factored == dim.d + 21 + (dim.label() in ("Z_2", "Z_3"))


def test_factoring_builds_no_two_qudit_matrix(monkeypatch):
    # a fresh Z_13 diagonal gate that does not factor: N is read off the
    # d x d phase table, so no d^4 gate matrix is built and no CZ power
    # spec is made to try against it
    z13 = make_dim(INTEGER_RING, d=13)
    theta = np.zeros((13, 13))
    theta[1, 1] = 0.3
    spec = EntanglingGateSpec(z13, "diagonal", theta=theta)
    calls = []
    real = resource.gate_matrix
    monkeypatch.setattr(resource, "gate_matrix",
                        lambda s: calls.append(s) or real(s))
    specs = resource.cz_power.cache_info().currsize
    with pytest.raises(NotCliffordError, match="does not factor"):
        factor_diagonal_clifford(spec)
    assert calls == []
    assert resource.cz_power.cache_info().currsize == specs


def test_unitarity_is_checked_on_the_blocks():
    # the d blocks decide as the d^2 x d^2 Gram matrix does, with its
    # message, and the checked blocks, kept read-only, are gate_matrix's
    for spec in (cz_spec(D3), cx_spec(D3), light_shift_spec(D3)):
        blocks = unitary_blocks(spec)
        assert unitary_blocks(spec) is blocks and not blocks.flags.writeable
        E = gate_matrix(spec).reshape(3, 3, 3, 3)
        assert np.array_equal(E[range(3), :, range(3)], blocks)
    rng = np.random.default_rng(5)
    blocks = np.linalg.qr(rng.normal(size=(3, 3, 3))
                          + 1j * rng.normal(size=(3, 3, 3)))[0]
    specs = []
    for eps in (0.0, 1e-12, 1e-6, 0.1):
        bent = blocks.copy()
        bent[2, 1, 0] += eps
        specs.append(EntanglingGateSpec(D3, BLOCK_DIAGONAL, blocks=bent))
    theta = rng.random((3, 3)) * 2 * np.pi
    specs.append(EntanglingGateSpec(D3, "diagonal", theta=theta))
    theta[1, 2] = np.nan
    specs.append(EntanglingGateSpec(D3, "diagonal", theta=theta))
    refused = []
    for spec in specs:
        try:
            require_unitary(gate_matrix(spec), "dense")
        except NonUnitary:
            refused.append(spec)
            with pytest.raises(NonUnitary, match="^operator fails the "
                                                 "unitarity check$"):
                unitary_blocks(spec)
        else:
            assert unitary_blocks(spec) is unitary_blocks(spec)
    # the two largest bends and the NaN angle
    assert refused == [specs[2], specs[3], specs[5]]


def test_factor_cx_block():
    bf = factor_block_controlled_pauli(cx_spec(D3))
    assert bf.P.z[0] == 0 and bf.P.x[0] == 1
    assert_allclose(normalize_global_phase(np.diag(np.exp(1j * bf.thetas))),
                    normalize_global_phase(np.eye(3)), rtol=0, atol=1e-8)
    assert_allclose(normalize_global_phase(bf.C2),
                    normalize_global_phase(np.eye(3)), rtol=0, atol=1e-8)


def test_factor_conjugated_pauli_blocks():
    S = sgate(D3)
    X = matrix_of_pauli(single_word(D3, 1, 0, x=1))
    Z = matrix_of_pauli(single_word(D3, 1, 0, z=1))
    blocks = [S @ np.linalg.matrix_power(X, k) @ S.conj().T for k in range(3)]
    spec = EntanglingGateSpec(D3, "block_diagonal", blocks=blocks,
                              init_phases=np.zeros(3))
    bf = factor_block_controlled_pauli(spec)
    assert bf.P.z[0] == 1 and bf.P.x[0] == 1
    # reassemble: blocks_j = C2 P^j C2^dagger up to the stored phases
    P = matrix_of_pauli(bf.P)
    for j in range(3):
        lhs = blocks[j]
        rhs = np.exp(1j * bf.thetas[j]) * bf.C2 @ np.linalg.matrix_power(
            P, j) @ bf.C2.conj().T
        assert_allclose(normalize_global_phase(lhs),
                        normalize_global_phase(rhs), rtol=0, atol=1e-8)


def test_controlled_pauli_block_phases_are_exact_powers():
    # blocks (ZX)^k over Z3: block 2 is (ZX)^2, whose phase differs from
    # Z(2)X(2) by a cube root of unity, so every theta stays 0
    P = matrix_of_pauli(PauliWord(D3, 1, (1,), (1,), 0))
    spec = EntanglingGateSpec(D3, "block_diagonal", blocks=[
        np.linalg.matrix_power(P, k) for k in range(3)])
    assert np.allclose(factor_block_controlled_pauli(spec).thetas, 0,
                       rtol=0, atol=1e-12)


def test_factor_non_controlled_pauli_rejected():
    blocks = [np.eye(3, dtype=complex), hadamard(D3), np.eye(3, dtype=complex)]
    spec = EntanglingGateSpec(D3, "block_diagonal", blocks=blocks,
                              init_phases=np.zeros(3))
    with pytest.raises(NotControlledPauliForm):
        factor_block_controlled_pauli(spec)


@pytest.mark.parametrize("spec", [cz_spec(D3), cx_spec(D4F),
                                  light_shift_spec(D2)])
def test_gate_json_round_trip(spec):
    back = gate_from_json(gate_to_json(spec))
    assert np.allclose(gate_matrix(back), gate_matrix(spec))


@pytest.mark.parametrize("dim", [D2, D3, D4R, D5, D4F],
                         ids=lambda dim: dim.label())
@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec, light_shift_spec])
def test_named_gate_json_returns_the_shared_spec(dim, spec_of):
    # a named gate file reuses the one analysed spec per dimension
    spec = spec_of(dim)
    assert gate_from_json(gate_to_json(spec)) is spec


@pytest.mark.parametrize("name, theta, message", [
    ("cz", 2.5, "theta applies to the light_shift gate, not 'cz'"),
    ("cx", 0.0, "theta applies to the light_shift gate, not 'cx'"),
    ("x", None, "unknown named gate 'x'")])
def test_named_gate_file_is_refused_where_it_is_loaded(name, theta, message):
    # only cz, cx and light_shift are named, and only light_shift takes a
    # theta: anything else is refused by gate_from_json itself
    obj = {"kind": "named", "name": name, "dim": dim_to_json(D3)}
    if theta is not None:
        obj["theta"] = theta
    with pytest.raises(DimensionMismatch) as excinfo:
        gate_from_json(obj)
    assert str(excinfo.value) == message


def test_light_shift_spec_is_shared_per_theta():
    obj = gate_to_json(light_shift_spec(D3, 0.5))
    assert gate_from_json(dict(obj)) is gate_from_json(dict(obj))
    assert light_shift_spec(D3, 0.5) is not light_shift_spec(D3, 0.25)
    # -0.0 == 0.0, but the two print differently, so they stay apart
    neg = light_shift_spec(D3, -0.0)
    assert neg is not light_shift_spec(D3, 0.0)
    assert str(gate_to_json(neg)["theta"]) == "-0.0"


def test_expanded_gate_json_round_trip():
    ex = expand(light_shift_spec(D3))
    back = gate_from_json(gate_to_json(ex))
    assert back.kind == "diagonal"
    assert np.allclose(back.theta, ex.theta)
    assert np.allclose(back.init_phases, ex.init_phases)


# --- specs are immutable and keep their analysis --------------------------

def test_spec_is_frozen_with_read_only_arrays():
    spec = EntanglingGateSpec(D3, "diagonal", theta=np.zeros((3, 3)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.kind = "block_diagonal"
    with pytest.raises(ValueError):
        spec.theta[0, 1] = 1.0
    theta = np.zeros((3, 3))
    spec = EntanglingGateSpec(D3, "diagonal", theta=theta)
    theta[0, 1] = 1.0   # the spec holds its own copy
    assert spec.theta[0, 1] == 0.0
    blocks = EntanglingGateSpec(D3, "block_diagonal",
                                blocks=[np.eye(3)] * 3).blocks
    with pytest.raises(ValueError):
        blocks[0][0, 0] = 2.0


@pytest.mark.parametrize("spec_of", [cz_spec, cx_spec, light_shift_spec])
def test_gate_facts_are_computed_once(spec_of):
    facts = [expand, gate_matrix, intrinsic_of, mediator_of,
             factor_diagonal_clifford if spec_of is not cx_spec
             else factor_block_controlled_pauli]
    spec = spec_of(D3)
    for fact in facts:
        assert fact(spec) is fact(spec)
    assert not gate_matrix(spec).flags.writeable
    assert not intrinsic_of(spec).matrix.flags.writeable


def test_intrinsic_keeps_order_word_and_failed_generator():
    intr = intrinsic_of(cz_spec(D3))
    assert intr.pauli_order == 4 and intr.order_word.phase_num == 0
    assert intr.certificate() is intr.clifford_cert
    bad = intrinsic_of(light_shift_spec(D4R))
    assert bad.failed_generator is not None
    with pytest.raises(NotCliffordError) as exc:
        bad.certificate()
    assert exc.value.generator == bad.failed_generator


def test_clifford_words_are_searched_once_per_gate(monkeypatch):
    # the shortest-word table is built on first use and kept on the gate;
    # a fresh gate of the same matrix builds its own, and both equal the
    # search run directly
    calls = []

    def counted(cert):
        calls.append(cert)
        return clifford.shortest_words(cert)

    monkeypatch.setattr(resource, "shortest_words", counted)
    gate = resource.intrinsic_from_matrix(D3, hadamard(D3))
    table = gate.clifford_words
    assert gate.clifford_words is table and len(calls) == 1
    assert table == clifford.shortest_words(gate.certificate())
    again = resource.intrinsic_from_matrix(D3, hadamard(D3))
    assert again.clifford_words == table and len(calls) == 2
    assert "_clifford_words" not in repr(gate)


def test_diagonal_gate_blocks_are_its_rows():
    bf = factor_block_controlled_pauli(cz_spec(D3))
    assert bf.P.z[0] == 1 and bf.P.x[0] == 0
    assert np.allclose(bf.thetas, 0)


# --- mediators ----------------------------------------------------------

# every ring Z2..Z8 and the prime fields GF(2), GF(3), GF(5), GF(7)
MEDIATOR_DIMS = [make_dim(INTEGER_RING, d=d) for d in range(2, 9)] + [
    make_dim(FINITE_FIELD, p=p, m=1) for p in (2, 3, 5, 7)]


def _controlled_pauli(dim, z, x):
    """P = Z(z)X(x) and the block gate sum_k |k><k| (x) P^k."""
    P = matrix_of_pauli(PauliWord(dim, 1, (z,), (x,), 0))
    blocks = [np.linalg.matrix_power(P, k) for k in dim.elements]
    return P, EntanglingGateSpec(dim, BLOCK_DIAGONAL, blocks=blocks)


@pytest.mark.parametrize("dim", MEDIATOR_DIMS, ids=lambda dim: dim.label())
def test_mediator_of_every_controlled_pauli(dim):
    # includes Z4 Z^2X^2 and Z6 Z^3, which have no unit l, and Z6 Z^2X^3,
    # whose gcd is 1 though neither exponent is a unit
    for z in dim.elements:
        for x in dim.elements:
            if z == x == 0:
                continue
            P, spec = _controlled_pauli(dim, z, x)
            if math.gcd(z, x, dim.d) != 1:
                assert dim.kind == INTEGER_RING
                with pytest.raises(NonInvertibleGcd):
                    mediator_of(spec)
                continue
            C, l = _pauli_to_z(dim, z, x)
            _, word = match_pauli(dim, 1, C @ P @ C.conj().T)
            assert (word.z, word.x) == ((l,), (0,))
            assert dim.is_invertible(l)
            mediator_of(spec)
            for mode in ("disconnect", "entangle"):
                mediator_tables(spec, mode)


@pytest.mark.parametrize("dim", MEDIATOR_DIMS, ids=lambda dim: dim.label())
def test_named_gate_mediators(dim):
    # cz and light-shift control Z: init |0_X>, basis H;
    # cx controls X: init |0>, basis I
    H, e = hadamard(dim), np.eye(dim.d)
    cases = [(cz_spec(dim), xplus_state(dim), H), (cx_spec(dim), e[0], e)]
    if dim.d <= 3:  # a Clifford light shift
        cases.append((light_shift_spec(dim), xplus_state(dim), H))
    for spec, init, G in cases:
        got_init, got_G, _ = mediator_of(spec)
        assert np.allclose(got_init, init, rtol=0, atol=1e-12)
        assert np.allclose(got_G, G, rtol=0, atol=1e-12)
