"""Generalized Pauli words: products, inverses, dense matching."""

import numpy as np
import pytest

from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import hadamard, sgate
from quditmbqc.errors import WrongFormalism
from quditmbqc.pauli import (
    PauliWord,
    identity_word,
    invert_word,
    match_pauli,
    matrix_of_pauli,
    normal_form,
    single_word,
    weyl,
    word_power,
    y_word,
)

DIMS = [make_dim(INTEGER_RING, d=2),
        make_dim(INTEGER_RING, d=3),
        make_dim(INTEGER_RING, d=4),
        make_dim(FINITE_FIELD, p=2, m=2),
        make_dim(INTEGER_RING, d=5)]


def _zmat(dim, a):
    return np.diag([dim.char_phase(dim.mul(a, j)) for j in dim.elements])


def _xmat(dim, b):
    d = dim.d
    M = np.zeros((d, d), dtype=complex)
    for j in dim.elements:
        M[dim.add(j, b), j] = 1
    return M


@pytest.mark.parametrize("dim", DIMS)
def test_single_word_matches_independent_matrices(dim):
    for a in dim.elements:
        for b in dim.elements:
            w = single_word(dim, 1, 0, z=a, x=b)
            ref = _zmat(dim, a) @ _xmat(dim, b)
            assert np.allclose(matrix_of_pauli(w), ref)


@pytest.mark.parametrize("dim", DIMS)
def test_normal_form_is_dense_product(dim):
    rng = np.random.default_rng(7)
    for _ in range(25):
        za, xa, zb, xb = rng.integers(0, dim.d, size=4)
        a = single_word(dim, 1, 0, z=int(za), x=int(xa))
        b = single_word(dim, 1, 0, z=int(zb), x=int(xb))
        prod = normal_form(a, b)
        assert np.allclose(matrix_of_pauli(prod),
                           matrix_of_pauli(a) @ matrix_of_pauli(b))


@pytest.mark.parametrize("dim", DIMS)
def test_invert_word(dim):
    rng = np.random.default_rng(11)
    for _ in range(20):
        z, x = (int(v) for v in rng.integers(0, dim.d, size=2))
        t = int(rng.integers(0, dim.phase_den))
        w = single_word(dim, 1, 0, z=z, x=x, phase_num=t)
        winv = invert_word(w)
        prod = normal_form(w, winv)
        assert prod.is_identity() and prod.phase_num == 0
        assert np.allclose(matrix_of_pauli(w) @ matrix_of_pauli(winv),
                           np.eye(dim.d))


@pytest.mark.parametrize("dim", DIMS)
def test_word_power(dim):
    w = single_word(dim, 1, 0, z=1, x=1)
    M = matrix_of_pauli(w)
    acc = np.eye(dim.d, dtype=complex)
    for k in range(1, 2 * dim.d + 1):
        acc = acc @ M
        assert np.allclose(matrix_of_pauli(word_power(w, k)), acc)


def test_commutation_phase_qutrit():
    dim = make_dim(INTEGER_RING, d=3)
    Z = matrix_of_pauli(single_word(dim, 1, 0, z=1))
    X = matrix_of_pauli(single_word(dim, 1, 0, x=1))
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(Z @ X, omega * X @ Z)


def test_y_word_is_hermitian_qubit():
    dim = make_dim(INTEGER_RING, d=2)
    Y = matrix_of_pauli(y_word(dim))
    assert np.allclose(Y, Y.conj().T)
    assert np.allclose(Y @ Y, np.eye(2))


@pytest.mark.parametrize("dim", DIMS)
def test_match_pauli_round_trip(dim):
    rng = np.random.default_rng(3)
    for _ in range(15):
        z, x = (int(v) for v in rng.integers(0, dim.d, size=2))
        t = int(rng.integers(0, dim.phase_den))
        w = single_word(dim, 1, 0, z=z, x=x, phase_num=t)
        M = matrix_of_pauli(w)
        res = match_pauli(dim, 1, M)
        assert res is not None
        ph, got = res
        assert got.z[0] == w.z[0] and got.x[0] == w.x[0]
        assert np.allclose(matrix_of_pauli(got), M)


def test_match_pauli_rejects_non_pauli():
    dim = make_dim(INTEGER_RING, d=3)
    assert match_pauli(dim, 1, hadamard(dim)) is None
    assert match_pauli(dim, 1, sgate(dim)) is None


@pytest.mark.parametrize("dim", DIMS)
def test_match_pauli_rejects_nan(dim):
    assert match_pauli(dim, 1, np.full((dim.d, dim.d), np.nan)) is None
    M = matrix_of_pauli(single_word(dim, 1, 0, z=1, x=1))
    M[-1, -1] = np.nan
    assert match_pauli(dim, 1, M) is None


def test_two_site_words():
    dim = make_dim(INTEGER_RING, d=3)
    w = PauliWord(dim, 2, (1, 2), (0, 1), 0)
    ref = np.kron(_zmat(dim, 1), _zmat(dim, 2) @ _xmat(dim, 1))
    assert np.allclose(matrix_of_pauli(w), ref)
    res = match_pauli(dim, 2, ref)
    assert res is not None
    _, got = res
    assert tuple(got.z) == (1, 2) and tuple(got.x) == (0, 1)


def test_identity_word():
    dim = make_dim(INTEGER_RING, d=4)
    w = identity_word(dim, 2)
    assert w.is_identity()
    assert np.allclose(matrix_of_pauli(w), np.eye(16))


def test_f4_x_shift_uses_field_addition():
    dim = make_dim(FINITE_FIELD, p=2, m=2)
    X2 = matrix_of_pauli(single_word(dim, 1, 0, x=2))
    # adding x in F4 is bitwise XOR with 0b10
    v = np.zeros(4)
    v[3] = 1
    assert np.allclose(X2 @ np.eye(4)[:, 1], v)


def test_weyl_field_only():
    dim = make_dim(FINITE_FIELD, p=2, m=2)
    for z in dim.elements:
        for x in dim.elements:
            w = weyl(dim, z, x)
            ref = _zmat(dim, z) @ _xmat(dim, x)
            assert np.allclose(matrix_of_pauli(w) / w.phase, ref)
    with pytest.raises(WrongFormalism):
        weyl(make_dim(INTEGER_RING, d=3), 1, 1)


def test_weyl_squares_to_identity_char2():
    # W(z, x)^2 = I is what the chi_4 phase convention buys in char 2
    dim = make_dim(FINITE_FIELD, p=2, m=2)
    for z in dim.elements:
        for x in dim.elements:
            W = matrix_of_pauli(weyl(dim, z, x))
            assert np.allclose(W @ W, np.eye(4))
