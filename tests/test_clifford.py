"""Clifford certification, exact conjugation, and native words."""

import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.errors import (
    DimensionMismatch,
    NotCliffordError,
    QuditError,
)
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import (
    hadamard,
    mult_gate,
    normalize_global_phase,
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
    CliffordCert,
    certify,
    pauli_order,
    universality_check,
)
from quditmbqc.resource import (
    cx_spec,
    cz_spec,
    gate_matrix,
    intrinsic_of,
    light_shift_spec,
)

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
    assert_allclose(normalize_global_phase(H @ H),
                    normalize_global_phase(mult_gate(dim, dim.neg(1))),
                    rtol=0, atol=1e-10)
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


def _images(cert):
    """Generator label -> (z, x) of its image, phase dropped."""
    return {label: (w.z[0], w.x[0]) for label, w in cert.images.items()}


def test_symplectic_of_standard_gates():
    # H: Z -> X^-1, X -> Z;  S: Z -> Z, X -> Z X
    assert _images(certify(hadamard(D3), D3)) \
        == {"Z0^1": (0, 2), "X0^1": (1, 0)}
    assert _images(certify(sgate(D3), D3)) \
        == {"Z0^1": (1, 0), "X0^1": (1, 1)}


def test_gf8_shear_gates_are_symplectic_shears():
    # GF(8)'s default Galois-ring lift gives it S and every shear S(l):
    # Z^g -> Z^g and X^g -> Z^(l g) X^g on every additive basis element g
    dim = make_dim(FINITE_FIELD, p=2, m=3)
    assert dim.gr_poly == (3, 1, 2, 1)
    assert np.array_equal(sgate(dim), shear_gate(dim, 1))
    for l in range(1, 8):
        assert _images(certify(shear_gate(dim, l), dim)) == {
            f"{letter}0^{g}": (g, 0) if letter == "Z" else (dim.mul(l, g), g)
            for g in (1, 2, 4) for letter in "ZX"}


def test_universality_check_values():
    ok, (a, b) = universality_check(certify(hadamard(D3), D3))
    assert ok and (a, b) == (0, 2)
    ok, (a, b) = universality_check(certify(sgate(D3), D3))
    assert not ok and b == 0
    # non-invertible X exponent in a ring
    intr = intrinsic_of(cz_spec(D4R))
    ok, _ = universality_check(certify(sgate(D4R), D4R))
    assert not ok


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
    """An intrinsic gate, or a random word of S(l) H steps."""
    if draw(st.booleans()):
        U = np.eye(dim.d, dtype=complex)
        for l in draw(st.lists(st.integers(0, dim.d - 1), max_size=5)):
            U = U @ shear_gate(dim, l) @ hadamard(dim)
        return U
    return draw(st.sampled_from(_intrinsic_cliffords(dim)))


@st.composite
def conjugation_cases(draw):
    dim = draw(st.sampled_from(CONJ_DIMS))
    n = draw(st.integers(1, 2))
    U = draw(single_cliffords(dim))
    if n == 2:
        U = gate_matrix(cz_spec(dim)) @ np.kron(
            U, draw(single_cliffords(dim)))
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


# --- exact composition of certificates ------------------------------------

COMPOSE_DIMS = [D2, D3, D5, D4F]


@st.composite
def native_words(draw):
    """A dimension and a word over {G_I, S(l), H} as dense factors,
    leftmost first."""
    dim = draw(st.sampled_from(COMPOSE_DIMS))
    letters = _intrinsic_cliffords(dim) + [hadamard(dim)] + [
        shear_gate(dim, l) for l in dim.elements]
    return dim, draw(st.lists(st.sampled_from(letters), max_size=8))


@settings(max_examples=80, deadline=None)
@given(native_words())
def test_compose_matches_certify_of_the_dense_product(case):
    dim, factors = case
    got = CliffordCert(dim, 1, dict(generator_words(dim, 1)))
    dense = np.eye(dim.d, dtype=complex)
    for M in factors:
        got = got.compose(certify(M, dim))
        dense = dense @ M
    want = certify(dense, dim)
    # image for image, exact phase included
    assert got.images == want.images
    assert got.class_key() == want.class_key()
