"""Dimension descriptors: ring and field arithmetic, traces, characters."""

import cmath
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
from quditmbqc.gates import hadamard, mult_gate, tau
from quditmbqc.pauli import xmat, zmat
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
