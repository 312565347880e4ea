"""Dimension descriptors: ring and field arithmetic, traces, characters."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.errors import (
    DimensionMismatch,
    NonPrimeCharacteristic,
    ReduciblePolynomial,
    ZeroInverse,
)
from quditmbqc.galois import (
    FINITE_FIELD,
    INTEGER_RING,
    dim_from_json,
    dim_to_json,
    json_array,
    make_dim,
)
from quditmbqc.clifford import diagonal_images
from quditmbqc.gates import hadamard, mult_gate, shear_gate, tau
from quditmbqc.pauli import PauliWord, normal_form, xmat, zmat
from quditmbqc.resource import cz_power, cz_spec, gate_matrix


def test_ring_arithmetic_mod4():
    dim = make_dim(INTEGER_RING, d=4)
    assert dim.add(3, 2) == 1
    assert dim.mul(3, 3) == 1
    assert dim.inv(3) == 3
    assert not dim.is_invertible(2)
    assert dim.neg(1) == 3


def test_ring_inverse_of_zero_divisor_raises():
    dim = make_dim(INTEGER_RING, d=4)
    with pytest.raises(ZeroInverse):
        dim.inv(2)


def test_f4_multiplication_table():
    dim = make_dim(FINITE_FIELD, p=2, m=2)
    # elements 0, 1, x, 1+x encoded as 0, 1, 2, 3 with x^2 = x + 1
    assert dim.mul(2, 2) == 3
    assert dim.mul(2, 3) == 1
    assert dim.mul(3, 3) == 2
    assert dim.inv(2) == 3
    assert dim.add(2, 3) == 1
    assert dim.xi == 3


def test_f4_trace_values():
    dim = make_dim(FINITE_FIELD, p=2, m=2)
    assert [dim.trace(t) for t in range(4)] == [0, 0, 1, 1]


def test_f9_frobenius_sums():
    dim = make_dim(FINITE_FIELD, p=3, m=2)
    for a in dim.elements:
        # tr(a) = a + a^3 in F9
        assert dim.trace(a) == dim.add(a, dim.power(a, 3)) % 3
        assert dim.trace(a) in (0, 1, 2)


def test_character_is_additive():
    for dim in (make_dim(INTEGER_RING, d=5),
                make_dim(FINITE_FIELD, p=2, m=2),
                make_dim(FINITE_FIELD, p=3, m=2)):
        for a in dim.elements:
            for b in dim.elements:
                lhs = dim.char_phase(dim.add(a, b))
                rhs = dim.char_phase(a) * dim.char_phase(b)
                assert abs(lhs - rhs) < 1e-12


def test_character_sum_vanishes():
    for dim in (make_dim(INTEGER_RING, d=4),
                make_dim(FINITE_FIELD, p=2, m=2)):
        total = sum(dim.char_phase(t) for t in dim.elements)
        assert abs(total) < 1e-12


def test_phase_denominators():
    assert make_dim(INTEGER_RING, d=3).phase_den == 6
    assert make_dim(INTEGER_RING, d=4).phase_den == 8
    assert make_dim(FINITE_FIELD, p=2, m=2).phase_den == 8
    assert make_dim(FINITE_FIELD, p=3, m=1).phase_den == 12


def test_galois_ring_trace_table():
    dim = make_dim(FINITE_FIELD, p=2, m=2)
    assert dim.gr_trace(dim.gr_embed(0)) == 0
    assert dim.gr_trace(dim.gr_embed(1)) == 2
    # squares computed inside the ring, where lifts of field squares differ
    exi = dim.gr_embed(dim.xi)
    e1xi = dim.gr_embed(dim.add(1, dim.xi))
    assert dim.gr_trace(dim.gr_mul(exi, exi)) == 3
    assert dim.gr_trace(dim.gr_mul(e1xi, e1xi)) == 3


def test_chi4_fourth_roots():
    dim = make_dim(FINITE_FIELD, p=2, m=2)
    for a in range(4):
        v = dim.chi4(dim.gr_embed(a))
        assert abs(abs(v) - 1) < 1e-12
        assert abs(v ** 4 - 1) < 1e-12


def test_composite_nonprimepower_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        make_dim(FINITE_FIELD, p=6, m=1)


def test_reducible_polynomial_rejected():
    with pytest.raises(ReduciblePolynomial):
        make_dim(FINITE_FIELD, p=2, m=2, poly=[1, 0, 1])  # x^2 + 1 = (x+1)^2


@pytest.mark.parametrize("p, m, poly", [
    (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1)),
    (5, 2, (2, 0, 1)), (3, 3, (1, 2, 0, 1))])
def test_default_poly_is_the_first_rootless_one(p, m, poly):
    # the default is searched for, not looked up: GF(4), GF(8) and GF(9)
    # keep the polynomials they always had, and the descriptor is shared
    # with the one that names it
    assert make_dim(FINITE_FIELD, p=p, m=m).poly == poly
    assert make_dim(FINITE_FIELD, p=p, m=m) is \
        make_dim(FINITE_FIELD, p=p, m=m, poly=poly)


def test_tau_is_primitive_phase():
    d3 = make_dim(INTEGER_RING, d=3)
    t = tau(d3)
    assert abs(t ** 6 - 1) < 1e-12
    assert abs(t ** 2 - d3.char_phase(1)) < 1e-12


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_field_add_neg_tables_are_digitwise(p, m):
    dim = make_dim(FINITE_FIELD, p=p, m=m)
    for a in dim.elements:
        ca = dim.coeffs_of(a)
        assert dim.coeffs_of(dim.neg(a)) == tuple((-x) % p for x in ca)
        for b in dim.elements:
            want = tuple((x + y) % p for x, y in zip(ca, dim.coeffs_of(b)))
            assert dim.coeffs_of(dim.add(a, b)) == want


@pytest.mark.parametrize("args", [dict(kind=INTEGER_RING, d=5),
                                  dict(kind=FINITE_FIELD, d=4),
                                  dict(kind=FINITE_FIELD, p=2, m=3)],
                         ids=["Z5", "GF4", "GF8"])
def test_make_dim_builds_each_dimension_once(args):
    dim = make_dim(**args)
    assert make_dim(**args) is dim
    assert dim_from_json(dim_to_json(dim)) is dim


def test_make_dim_validates_on_every_call():
    for _ in range(2):
        with pytest.raises(ReduciblePolynomial):
            make_dim(FINITE_FIELD, p=2, m=2, poly=[1, 0, 1])
        with pytest.raises(DimensionMismatch):
            make_dim(INTEGER_RING, d=1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_json_array_rejects_non_finite(bad):
    with pytest.raises(DimensionMismatch, match="^theta has a NaN"):
        json_array([[0.0, bad], [0.0, 0.0]], (2, 2), "theta")
    assert json_array([[0.0, 1.5], [2, 3]], (2, 2), "theta").sum() == 6.5


# Z2..Z8 and GF(2), GF(3), GF(4), GF(5), GF(7), GF(8), GF(9)
TABLE_DIMS = [make_dim(INTEGER_RING, d=d) for d in range(2, 9)] + [
    make_dim(FINITE_FIELD, d=d) for d in (2, 3, 4, 5, 7, 8, 9)]


@st.composite
def table_cases(draw):
    dim = draw(st.sampled_from(TABLE_DIMS))
    element = st.integers(0, dim.d - 1)
    unit = st.sampled_from([u for u in dim.elements if dim.is_invertible(u)])
    return dim, draw(element), draw(element), draw(unit)


@settings(max_examples=120, deadline=None)
@given(table_cases())
def test_dense_builders_equal_their_defining_formulas(case):
    dim, a, b, lam = case
    els, d = dim.elements, dim.d
    tables = dim.tables
    assert dim.tables is tables
    for t in tables:
        assert not t.flags.writeable
    with pytest.raises(ValueError):
        tables.mul[0, 0] = 1
    assert tables.mul.tolist() == [[dim.mul(u, v) for v in els] for u in els]
    assert tables.add.tolist() == [[dim.add(u, v) for v in els] for u in els]
    assert tables.sub.tolist() == [[dim.sub(u, v) for v in els] for u in els]
    assert tables.chi.tolist() == [dim.char_phase(t) for t in els]
    # each builder against its entries, written out per element
    H = np.array([[dim.char_phase(dim.mul(u, v)) for v in els]
                  for u in els]) / math.sqrt(d)
    assert np.array_equal(hadamard(dim), H)
    assert np.array_equal(zmat(dim, a),
                          np.diag([dim.char_phase(dim.mul(a, u))
                                   for u in els]))
    X, M = np.zeros((d, d), dtype=complex), np.zeros((d, d), dtype=complex)
    for u in els:
        X[dim.add(u, b), u] = 1
        M[dim.mul(lam, u), u] = 1
    assert np.array_equal(xmat(dim, b), X)
    assert np.array_equal(mult_gate(dim, lam), M)
    # CZ^w = diag chi(w j k), its angles taken entry by entry
    for w, spec in ((1, cz_spec(dim)), (a, cz_power(dim, a))):
        chi = [dim.char_phase(dim.mul(w, dim.mul(j, k)))
               for j in els for k in els]
        theta = np.mod([cmath.phase(c) for c in chi], 2 * math.pi)
        CZ = gate_matrix(spec)
        assert np.array_equal(CZ, np.diag(np.exp(1j * theta)))
        assert np.allclose(CZ, np.diag(chi), rtol=0, atol=1e-12)


# every supported dimension up to 27: Z2..Z12 and each GF(p^m), m <= 3
AXIOM_DIMS = [make_dim(INTEGER_RING, d=d) for d in range(2, 13)] + [
    make_dim(FINITE_FIELD, p=p, m=m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for m in (1, 2, 3) if p ** m <= 27]


@st.composite
def axiom_cases(draw):
    dim = draw(st.sampled_from(AXIOM_DIMS))
    element = st.integers(0, dim.d - 1)
    return dim, draw(element), draw(element), draw(element)


@settings(max_examples=300, deadline=None)
@given(axiom_cases())
def test_ring_and_field_axioms_over_every_supported_dimension(case):
    dim, a, b, c = case
    add, mul, field = dim.add, dim.mul, dim.kind == FINITE_FIELD
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, dim.neg(a)) == 0 and dim.sub(a, b) == add(a, dim.neg(b))
    # the units: every nonzero element of a field, the a coprime to d in Z_d
    unit = a != 0 if field else math.gcd(a, dim.d) == 1
    assert dim.is_invertible(a) == unit
    if unit:
        assert mul(a, dim.inv(a)) == 1
    else:
        with pytest.raises(ZeroInverse):
            dim.inv(a)
    assert cmath.isclose(dim.char_phase(a), cmath.exp(
        2j * cmath.pi * dim.char_exp(a) / dim.phase_den), abs_tol=1e-12)
    assert dim.elem_from_coeffs(dim.coeffs_of(a)) == a
    if field:
        assert dim.trace(a) in range(dim.p)
        assert dim.trace(add(a, b)) == (dim.trace(a) + dim.trace(b)) % dim.p
    # the integer view: dim.tables as tuples of ints, read by the scalar
    # methods
    ints = dim.ints
    tables = dim.tables
    assert ints.mul == tuple(map(tuple, tables.mul.tolist()))
    assert ints.add == tuple(map(tuple, tables.add.tolist()))
    assert ints.neg == tuple(tables.sub[0].tolist())
    assert (ints.mul[a][b], ints.add[a][b], ints.neg[a], ints.char_exp[a]) \
        == (mul(a, b), add(a, b), dim.neg(a), dim.char_exp(a))
    # chi(-z x), the phase X(x) Z(z) = chi(-z x) Z(z) X(x) takes, is
    # char_exp[neg[mul[z][x]]], the exponent normal_form adds
    word = normal_form(PauliWord(dim, 1, (0,), (a,)),
                       PauliWord(dim, 1, (b,), (0,)))
    assert word.phase_num == ints.char_exp[ints.neg[ints.mul[b][a]]]


# AXIOM_DIMS and GF(31^2), built in the test
RULE_DIMS = [dim_to_json(dim) for dim in AXIOM_DIMS] + [
    {"kind": "finite_field", "p": 31, "m": 2}]


@pytest.mark.parametrize("obj", RULE_DIMS, ids=lambda obj: f"Z{obj['d']}"
                         if "d" in obj else f"GF{obj['p']}^{obj['m']}")
def test_tables_follow_their_definitions(obj):
    dim = dim_from_json(obj)
    q, m, els = dim.base, dim.m, dim.elements
    xi = dim.elem_from_coeffs([0, 1] + [0] * (m - 2)) if m > 1 else None
    for a in els:
        if m == 1:
            assert [dim.mul(a, b) for b in els] == [a * b % q for b in els]
        else:
            # xi a: a's digits shifted up one place, xi^m reduced by poly
            v = dim.coeffs_of(a)
            assert dim.coeffs_of(dim.mul(xi, a)) == tuple(
                (up - v[-1] * c) % q for up, c in zip((0,) + v[:-1], dim.poly))
        if dim.kind == FINITE_FIELD:
            # tr(a) = a + a^p + ... + a^(p^(m-1))
            assert dim.trace(a) == functools.reduce(
                dim.add, (dim.power(a, dim.p ** i) for i in range(m)))


# each GF(2^m) polynomial with its default lift, x^3 + x^2 + 1, which has
# none and is read over Z_4, and two explicit lifts of it
GR_LIFTS = [((1, 1, 1), None), ((1, 1, 0, 1), None), ((1, 0, 1, 1), None),
            ((1, 0, 1, 1), (3, 2, 3, 1)), ((1, 0, 1, 1), (1, 2, 1, 1))]


@pytest.mark.parametrize("poly, gr_poly", GR_LIFTS)
def test_every_shear_multiplies_by_l_whichever_lift(poly, gr_poly):
    # S(l) X(x) S(l)^dag is Z(l x) X(x) up to phase, for every l and x
    dim = make_dim(FINITE_FIELD, p=2, m=len(poly) - 1, poly=poly,
                   gr_poly=gr_poly)
    for l in dim.elements:
        c, _ = diagonal_images(dim, np.diag(shear_gate(dim, l)))
        assert c == [dim.mul(l, x) for x in dim.elements]


def test_gr_poly_must_lift_poly():
    assert make_dim(FINITE_FIELD, p=2, m=2).gr_poly == (3, 3, 1)
    assert make_dim(FINITE_FIELD, p=2, m=3).gr_poly == (3, 1, 2, 1)
    assert make_dim(FINITE_FIELD, p=2, m=3,
                    poly=(1, 0, 1, 1)).gr_poly == (1, 0, 1, 1)
    for poly, gr_poly in [((1, 0, 1, 1), (3, 1, 2, 1)),
                          (None, (1, 0, 1, 1)), (None, (3, 2, 3, 1))]:
        with pytest.raises(ReduciblePolynomial,
                           match="^gr_poly does not reduce to poly mod 2$"):
            make_dim(FINITE_FIELD, p=2, m=3, poly=poly, gr_poly=gr_poly)
