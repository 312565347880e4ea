"""Clifford certification, exact conjugation, and native words."""

import functools
import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle

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
    zmat,
)
from quditmbqc.clifford import (
    certify,
    diagonal_cert,
    diagonal_images,
    generator_words,
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
    for dim in (D3, D4F, make_dim(FINITE_FIELD, p=2, m=3), D4R):
        for M in (hadamard(dim), sgate(dim), hadamard(dim) @ sgate(dim)):
            cert = certify(M, dim)
            assert not cert.idx.flags.writeable
            assert not cert.phase.flags.writeable
            # every word's image, with its exact phase, is the conjugation
            for i, word in enumerate(dense_oracle.words(dim)):
                z, x = divmod(int(cert.idx[i]), dim.d)
                img = PauliWord(dim, 1, (z,), (x,), int(cert.phase[i]))
                lhs = M @ matrix_of_pauli(word) @ M.conj().T
                assert np.max(np.abs(lhs - matrix_of_pauli(img))) < 1e-9


def test_non_clifford_detected():
    T = np.diag([1, np.exp(1j * np.pi / 4)])
    with pytest.raises(NotCliffordError) as exc:
        certify(T, D2)
    # T Z T^dag = Z, so the first failing generator is X
    assert exc.value.generator == "X0^1"


def _images(cert):
    """Generator label -> (z, x) of its image, phase dropped."""
    return {label: divmod(int(cert.idx[i]), cert.dim.d)
            for label, i in generator_words(cert.dim)}


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
    U = draw(single_cliffords(dim))
    digits = st.integers(0, dim.d - 1)
    word = PauliWord(dim, 1, (draw(digits),), (draw(digits),),
                     draw(st.integers(0, dim.phase_den - 1)))
    return dim, U, word


@settings(max_examples=80, deadline=None)
@given(conjugation_cases())
def test_conjugate_matches_dense_conjugation(case):
    dim, U, word = case
    got = dense_oracle.image(certify(U, dim), word)
    dense = U @ matrix_of_pauli(word) @ U.conj().T
    assert np.max(np.abs(matrix_of_pauli(got) - dense)) < 1e-9
    # the same word and exact phase as matching the dense product
    assert got == match_pauli(dim, 1, dense)[1]


def test_certify_rejects_other_sizes():
    # a certificate is one qudit's word table
    with pytest.raises(DimensionMismatch):
        certify(np.kron(hadamard(D3), hadamard(D3)), D3)


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
    got = certify(np.eye(dim.d), dim)
    dense = np.eye(dim.d, dtype=complex)
    for M in factors:
        got = got.compose(certify(M, dim))
        dense = dense @ M
    want = certify(dense, dim)
    # word for word, exact phase included
    assert np.array_equal(got.idx, want.idx)
    assert np.array_equal(got.phase, want.phase)
    assert got.class_key() == want.class_key()


# --- the diagonal reader ----------------------------------------------------

READER_DIMS = [D2, D3, D5, D4R, D4F, make_dim(FINITE_FIELD, p=2, m=3),
               make_dim(FINITE_FIELD, p=3, m=2)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(READER_DIMS), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_diagonal_cert_equals_the_dense_certificate(dim, seed, clifford):
    # on Clifford diagonals (a shear times a Z power, at a global phase)
    # the reader's images are the certificate's word table word for word,
    # index and exact phase: D Z(z) X(x) D^dag = Z(z + c[x]) X(x) at phase
    # num[x]; on random phase vectors both raise, naming one generator
    rng = np.random.default_rng(seed)
    if clifford:
        q = np.diag(shear_gate(dim, int(rng.integers(dim.d)))
                    @ zmat(dim, int(rng.integers(dim.d)))) \
            * np.exp(2j * np.pi * rng.random())
    else:
        q = np.exp(2j * np.pi * rng.random(dim.d))
    try:
        cert = certify(np.diag(q), dim)
    except NotCliffordError as exc:
        for read in (diagonal_images, diagonal_cert):
            with pytest.raises(NotCliffordError) as got:
                read(dim, q)
            assert (got.value.generator, str(got.value)) \
                == (exc.generator, str(exc))
        return
    c, num = diagonal_images(dim, q)
    assert list(zip(cert.idx.tolist(), cert.phase.tolist())) == [
        (dim.add(z, c[x]) * dim.d + x, num[x])
        for z in dim.elements for x in dim.elements]
    read = diagonal_cert(dim, q)
    assert np.array_equal(read.idx, cert.idx)
    assert np.array_equal(read.phase, cert.phase)


def test_diagonal_images_name_the_generator_they_fail_on():
    # over GF(4), diag(1, 1, a, a) fixes X(1) but maps X(xi), encoded 2,
    # to no word: the reader and certify both name X0^2
    q = np.exp(0.3j * np.array([0, 0, 1, 1]))
    for read in (diagonal_images, lambda dim, q: certify(np.diag(q), dim)):
        with pytest.raises(NotCliffordError) as exc:
            read(D4F, q)
        assert exc.value.generator == "X0^2"


# --- shortest native words --------------------------------------------------

# sha256 of each family's shortest-word table, recorded while a certificate
# still held its generators' images as words: json.dumps of the sorted
# (key, word) pairs, each key the generator images' [z, x] in
# generator_words order
WORDS_SHA256 = {
    "finite_field4-cx":
        "c78d262906bf8dc9eb1b3a9d2b90e3685b6287a8c4bcf6bf2b849e6d669005db",
    "finite_field4-cz":
        "04fcc305f25eb8f6f423d83b5f1ef5e2952039b169f3ffa2d8ee5fe67ac7e9f6",
    "finite_field4-light_shift":
        "df22e3780aca1025c5eda5123701e7aae7cba1b3628e836196c9d5a1f6fbefef",
    "finite_field8-cx":
        "9deb52c88baccbc5a8c74b1d9f1cc2c1a39c614f8029741b6b4ace4481f497c4",
    "finite_field8-cz":
        "9d6e4c6b66ac260078f10830d30e3f0bdf5017b88cb7b61715e9892fa234332c",
    "finite_field9-cx":
        "42b6ff8917a45f16e73717020e65d61939bce0b1a6433bcaf5f05f5ae203685c",
    "finite_field9-cz":
        "6e65e3ffb689e5cc819d87868192b77897e12236906c53c75270206935ab7d6e",
    "integer_ring10-cx":
        "275f7d4c0ea3188a12f5424952628256dc7d89a8495d4d19d2a4ea905318cb1c",
    "integer_ring10-cz":
        "b5284ea4485757db2ad01a2e32f44eb9240014961d5ebbb8b77948fbdcd1796d",
    "integer_ring11-cx":
        "dfd9cdbb049af62fde32aeb9b885fe6b71aec18c02aa884f740d0d8c4847a668",
    "integer_ring11-cz":
        "56ab137459e6bf5414a817d24fd59d4db337ac5b7de6a1fd3e0dd8bb748064c7",
    "integer_ring12-cx":
        "b93ea2f9e4e23bb707ad2968586ed9c722f0783381438f8219d0ebcbb0be2d18",
    "integer_ring12-cz":
        "393c40d5ca0306df84c30ea2e5e2324a56ae9b2e90cb6d82cade1c73f3b2e3e9",
    "integer_ring13-cx":
        "76d66da6f33944612a84a192a125507adde2d01af6bf619e21b6a7bd44907ca3",
    "integer_ring13-cz":
        "28a45b806286187e1081b7a2298fb662683289f0189ec3da9c6ac8e50704c37a",
    "integer_ring2-cx":
        "8e28bf147e0c96a3ce011eaf550edd75d5ead89a6e200fc0bfbb7cd8ac3f0340",
    "integer_ring2-cz":
        "008ac5ac6b40383e73ca55d02ef1b422f8b8f88846f61273496342a1edc87466",
    "integer_ring2-light_shift":
        "8e28bf147e0c96a3ce011eaf550edd75d5ead89a6e200fc0bfbb7cd8ac3f0340",
    "integer_ring3-cx":
        "dee57682463e84dd2e7803983041ebb24fc95d862ba1b146ab4ad4619b31bfed",
    "integer_ring3-cz":
        "d449be5ea15515d5574fcf7175ad45541de416548427dcad60d165e7c16fb902",
    "integer_ring3-light_shift":
        "31f6fbcb7716317792155b04ed03cc29933f883b752095753575604b7d22986f",
    "integer_ring4-cx":
        "230b5b59250d3324eb24a2e283feb39e397bfef677c517d325f6e03178b5d990",
    "integer_ring4-cz":
        "0fc7ea9c6d107cee1e1f59fda52979807c0382c85b5f5079aeeed9b0d23f270e",
    "integer_ring5-cx":
        "f9d1da2c67846f86bc9f2320bdfd07ac52bbed5321c6f20fcad31a9d1b8d0dd3",
    "integer_ring5-cz":
        "b42e3a4f20776dd418172e9b139afc2f43e01ef7f06af779cc9c1227770b4b2d",
    "integer_ring6-cx":
        "389593dfede8575c76bdfea163653635e8340f146c47e274f9b107075eb7bea7",
    "integer_ring6-cz":
        "ed15ee9c48732eb1a119e0b146268808566a54e3370e6952519a0f3eff874dd2",
    "integer_ring7-cx":
        "2cda992dd45f2b04eb9d3b7021ad8d754dab69b8a9bf402d251a67cd54332c2a",
    "integer_ring7-cz":
        "17cb84f7ff6ad28a20000a6554300cd5efdbd85c488268a459224008daea7f5b",
    "integer_ring8-cx":
        "9183ed49afc48aae148b2ea7a3a1a3a04974ef06e784cde23d25ed7ae00680f7",
    "integer_ring8-cz":
        "0737e952fd8afc152c2dd912cc3feae94d55e1450891296ebea224785e6847cf",
    "integer_ring9-cx":
        "e6d93c458a83e7acb840c897754b8c0217233def5305f38e3bf759b87414294e",
    "integer_ring9-cz":
        "01ec7467b568166b23bea00649437919dd0e6358ba0ac414ec05992cdf8b04a9",
}

_FAMILY_SPECS = {"cz": cz_spec, "cx": cx_spec, "light_shift": light_shift_spec}


_FAMILY_DIMS = {f"{dim.kind}{dim.d}": dim for dim in [
    make_dim(INTEGER_RING, d=d) for d in range(2, 14)] + [
    make_dim(FINITE_FIELD, p=2, m=2), make_dim(FINITE_FIELD, p=2, m=3),
    make_dim(FINITE_FIELD, p=3, m=2)]}


@pytest.mark.parametrize("family", sorted(WORDS_SHA256))
def test_shortest_words_are_pinned(family):
    # every class key and its shortest word, over Z_2 to Z_13, GF(4), GF(8)
    # and GF(9), for each Clifford intrinsic gate of cz, cx and light shift
    label, name = family.split("-")
    dim = _FAMILY_DIMS[label]
    words = intrinsic_of(_FAMILY_SPECS[name](dim)).clifford_words
    items = sorted(([list(divmod(i, dim.d)) for i in key], list(word))
                   for key, word in words.items())
    assert hashlib.sha256(json.dumps(items).encode()).hexdigest() \
        == WORDS_SHA256[family]
