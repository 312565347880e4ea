"""Clifford certification, symplectic data, and word synthesis."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.errors import (
    DimensionMismatch,
    NotCliffordError,
    QuditError,
    UniversalityViolated,
    UnsupportedFormalism,
)
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import (
    cz_gate,
    equal_up_to_phase,
    hadamard,
    mult_gate,
    sgate,
    shear_gate,
    tau,
)
from quditmbqc.pauli import (
    PauliWord,
    match_pauli,
    matrix_of_pauli,
    single_word,
)
from quditmbqc.clifford import (
    generator_words,
    SymplecticRep,
    certify,
    hadamard_from_intrinsic,
    map_pauli_to_Z,
    pauli_order,
    realize_word,
    rep_tokens,
    symplectic_of,
    synthesize,
    universality_check,
)
from quditmbqc.resource import cx_spec, cz_spec, intrinsic_of, light_shift_spec

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)
D4R = make_dim(INTEGER_RING, d=4)
D4F = make_dim(FINITE_FIELD, p=2, m=2)
D5 = make_dim(INTEGER_RING, d=5)

RING_DIMS = [D2, D3, D4R, D5]


def _Z(dim):
    return matrix_of_pauli(single_word(dim, 1, 0, z=1))


def _X(dim):
    return matrix_of_pauli(single_word(dim, 1, 0, x=1))


@pytest.mark.parametrize("dim", RING_DIMS)
def test_hadamard_conjugations(dim):
    H = hadamard(dim)
    Z, X = _Z(dim), _X(dim)
    Xinv = matrix_of_pauli(single_word(dim, 1, 0, x=dim.neg(1)))
    assert np.max(np.abs(H @ X @ H.conj().T - Z)) < 1e-10
    assert np.max(np.abs(H @ Z @ H.conj().T - Xinv)) < 1e-10


@pytest.mark.parametrize("dim", RING_DIMS)
def test_sgate_conjugation(dim):
    S = sgate(dim)
    Z, X = _Z(dim), _X(dim)
    assert np.max(np.abs(S @ X @ S.conj().T - tau(dim) * X @ Z)) < 1e-10


@pytest.mark.parametrize("dim", RING_DIMS)
def test_hadamard_powers(dim):
    H = hadamard(dim)
    assert equal_up_to_phase(H @ H, mult_gate(dim, dim.neg(1)), tol=1e-10)
    H4 = np.linalg.matrix_power(H, 4)
    assert np.max(np.abs(H4 - np.eye(dim.d))) < 1e-10


@pytest.mark.parametrize("dim", [make_dim(INTEGER_RING, d=2), D4F])
def test_field_hadamard_is_involution(dim):
    H = hadamard(dim)
    assert np.max(np.abs(H @ H - np.eye(dim.d))) < 1e-10


def test_certify_clifford_gates():
    for dim in (D3, D4F):
        for M in (hadamard(dim), sgate(dim)):
            cert = certify(M, dim)
            assert cert.n == 1
            # images, with their exact phases, reproduce the conjugation
            for label, word in generator_words(dim, 1):
                lhs = M @ matrix_of_pauli(word) @ M.conj().T
                assert np.allclose(lhs, matrix_of_pauli(cert.images[label]))


def test_non_clifford_detected():
    T = np.diag([1, np.exp(1j * np.pi / 4)])
    with pytest.raises(NotCliffordError) as exc:
        certify(T, D2)
    # T Z T^dag = Z, so the first failing generator is X
    assert exc.value.generator == "X0^1"


def test_symplectic_of_standard_gates():
    assert symplectic_of(certify(hadamard(D3), D3)) \
        == SymplecticRep(D3, 0, 2, 1, 0)
    assert symplectic_of(certify(sgate(D3), D3)) \
        == SymplecticRep(D3, 1, 0, 1, 1)


def test_gf8_shear_gates_are_symplectic_shears():
    # GF(8)'s default Galois-ring lift gives it S and every shear S(l)
    dim = make_dim(FINITE_FIELD, p=2, m=3)
    assert dim.gr_poly == (3, 1, 2, 1)
    assert np.array_equal(sgate(dim), shear_gate(dim, 1))
    for l in range(1, 8):
        assert symplectic_of(certify(shear_gate(dim, l), dim)) \
            == SymplecticRep(dim, 1, 0, l, 1)


def test_symplectic_round_trip_sl2_z3():
    reps = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for e in range(3):
                    if (a * e - b * c) % 3 == 1:
                        reps.append(SymplecticRep(D3, a, b, c, e))
    assert len(reps) == 24
    for rep in reps:
        U = synthesize(rep)
        back = symplectic_of(certify(U, D3))
        assert back == rep


def test_rep_tokens_realize_rep():
    rng = np.random.default_rng(2)
    for dim in (D2, D5, D4F):
        for _ in range(8):
            while True:
                a, b, c = (int(v) for v in rng.integers(0, dim.d, size=3))
                if dim.is_invertible(a):
                    break
            # complete to determinant one
            e = dim.mul(dim.inv(a), dim.add(1, dim.mul(b, c)))
            rep = SymplecticRep(dim, a, b, c, e)
            U = realize_word(dim, rep_tokens(rep))
            got = symplectic_of(certify(U, dim))
            assert got == rep


@pytest.mark.parametrize("spec_of", [cz_spec, light_shift_spec, cx_spec])
def test_hadamard_from_intrinsic(spec_of):
    for dim in (D2, D3):
        intr = intrinsic_of(spec_of(dim))
        tokens = hadamard_from_intrinsic(intr.clifford_cert)
        assert len(tokens) == 5
        U = realize_word(dim, tokens, G=intr.matrix)
        assert match_pauli(dim, 1, U @ hadamard(dim).conj().T) is not None


def test_hadamard_from_non_universal_rejected():
    cert = certify(sgate(D3), D3)
    with pytest.raises(UniversalityViolated):
        hadamard_from_intrinsic(cert)


def test_universality_check_values():
    ok, (a, b) = universality_check(certify(hadamard(D3), D3))
    assert ok and (a, b) == (0, 2)
    ok, (a, b) = universality_check(certify(sgate(D3), D3))
    assert not ok and b == 0
    # non-invertible X exponent in a ring
    intr = intrinsic_of(cz_spec(D4R))
    ok, _ = universality_check(certify(sgate(D4R), D4R))
    assert not ok


def test_map_pauli_to_Z():
    rep, l = map_pauli_to_Z(D3, 0, 1)
    assert l == 1 and rep.apply(0, 1) == (1, 0)
    rep, l = map_pauli_to_Z(D5, 2, 3)
    assert l == 1 and rep.apply(2, 3) == (1, 0)
    rep, l = map_pauli_to_Z(D4R, 2, 2)
    assert l == 2 and rep.apply(2, 2) == (2, 0)
    rep, l = map_pauli_to_Z(D4F, 2, 3)
    assert l == 1 and rep.apply(2, 3) == (1, 0)


def test_pauli_orders():
    assert pauli_order(hadamard(D3), D3) == 4
    assert pauli_order(_Z(D3), D3) == 1
    assert pauli_order(mult_gate(D5, 2), D5) == 4


# --- exact conjugation through a certificate ------------------------------

CONJ_DIMS = [make_dim(INTEGER_RING, d=d) for d in (2, 3, 4, 5, 6)] + \
    [make_dim(FINITE_FIELD, d=d) for d in (2, 3, 4, 5, 7, 8, 9)]


@functools.lru_cache(maxsize=None)
def _intrinsic_cliffords(dim):
    out = []
    for spec_of in (cz_spec, cx_spec, light_shift_spec):
        try:
            intr = intrinsic_of(spec_of(dim))
        except QuditError:
            continue
        if intr.is_clifford:
            out.append(intr.matrix)
    return out


@st.composite
def single_cliffords(draw, dim):
    """An intrinsic gate, or the synthesis of a random symplectic rep."""
    if draw(st.booleans()):
        units = [u for u in dim.elements if dim.is_invertible(u)]
        a = draw(st.sampled_from(units))
        b, c = draw(st.integers(0, dim.d - 1)), draw(st.integers(0, dim.d - 1))
        rep = SymplecticRep(dim, a, b, c,
                            dim.mul(dim.inv(a), dim.add(1, dim.mul(b, c))))
        for _ in range(draw(st.integers(0, 3))):
            rep = rep.matmul(SymplecticRep(dim, 0, dim.neg(1), 1, 0))
        try:
            return synthesize(rep)
        except UnsupportedFormalism:  # no shear gates without a GR lift
            pass
    return draw(st.sampled_from(_intrinsic_cliffords(dim)))


@st.composite
def conjugation_cases(draw):
    dim = draw(st.sampled_from(CONJ_DIMS))
    n = draw(st.integers(1, 2))
    U = draw(single_cliffords(dim))
    if n == 2:
        U = cz_gate(dim) @ np.kron(U, draw(single_cliffords(dim)))
    digits = st.lists(st.integers(0, dim.d - 1), min_size=n, max_size=n)
    word = PauliWord(dim, n, tuple(draw(digits)), tuple(draw(digits)),
                     draw(st.integers(0, dim.phase_den - 1)))
    return dim, n, U, word


@settings(max_examples=80, deadline=None)
@given(conjugation_cases())
def test_conjugate_matches_dense_conjugation(case):
    dim, n, U, word = case
    got = certify(U, dim, n).conjugate(word)
    dense = U @ matrix_of_pauli(word) @ U.conj().T
    assert np.max(np.abs(matrix_of_pauli(got) - dense)) < 1e-9
    # the same word and exact phase as matching the dense product
    assert got == match_pauli(dim, n, dense)[1]


def test_conjugate_rejects_other_systems():
    cert = certify(hadamard(D3), D3)
    with pytest.raises(DimensionMismatch):
        cert.conjugate(single_word(D3, 2, 0, z=1))
