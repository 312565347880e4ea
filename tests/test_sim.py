"""State vectors, entanglement probes and seeded uniforms, and the dense
oracle's application and measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.errors import (
    DimensionMismatch,
    QuditError,
    NonUnitary,
    SiteOutOfRange,
    StateTooLarge,
    ZeroProbabilityForced,
)
from quditmbqc.galois import (
    FINITE_FIELD,
    INTEGER_RING,
    dim_from_json,
    make_dim,
)
from quditmbqc.gates import basis_state, hadamard, xplus_state
from quditmbqc.resource import cz_spec, gate_matrix
from quditmbqc.sim import (
    StateVector,
    collapse,
    is_max_entangled,
    schmidt,
    seed_uniforms,
    state_to_json,
    unit_vector,
)

import dense_oracle
from dense_oracle import (
    MeasurementBasis,
    apply,
    fidelity,
    measure,
    product_state,
    x_basis,
)

D3 = make_dim(INTEGER_RING, d=3)
Z3 = MeasurementBasis(D3, np.eye(3), "Z")


def bell(dim):
    """Maximally entangled two-qudit state sum_j |jj> / sqrt(d)."""
    d = dim.d
    amps = np.zeros(d * d, dtype=complex)
    for j in range(d):
        amps[j * d + j] = 1 / np.sqrt(d)
    return StateVector(dim, 2, amps)


def test_product_state_ordering():
    # site 0 is the most significant tensor digit
    st = product_state(D3, [basis_state(D3, 1), basis_state(D3, 2)])
    assert abs(st.amps[1 * 3 + 2] - 1) < 1e-12


def test_apply_single_site():
    st = product_state(D3, [basis_state(D3, 0), basis_state(D3, 0)])
    out = apply(st, hadamard(D3), [1])
    expect = np.kron(basis_state(D3, 0), xplus_state(D3))
    assert np.allclose(out.amps, expect)


def test_apply_two_site_entangler():
    st = product_state(D3, [xplus_state(D3), xplus_state(D3)])
    out = apply(st, gate_matrix(cz_spec(D3)), [0, 1])
    assert is_max_entangled(out, [0])


def test_apply_rejects_non_unitary():
    st = product_state(D3, [basis_state(D3, 0)])
    with pytest.raises(NonUnitary):
        apply(st, 2 * np.eye(3), [0])


def test_apply_rejects_bad_site():
    st = product_state(D3, [basis_state(D3, 0)])
    with pytest.raises(SiteOutOfRange):
        apply(st, np.eye(3), [1])


def test_measure_z_on_plus_is_uniform():
    st = product_state(D3, [xplus_state(D3)])
    counts = np.zeros(3)
    for seed in range(90):
        k, post, prob = measure(st, Z3, [0],
                                rng=np.random.default_rng(seed))
        counts[k] += 1
        assert abs(prob - 1 / 3) < 1e-12
        assert post.n == 0
    assert counts.min() > 0


def test_measure_forced_outcome():
    st = product_state(D3, [basis_state(D3, 2), xplus_state(D3)])
    k, post, prob = measure(st, Z3, [0], forced_outcome=2)
    assert k == 2 and abs(prob - 1) < 1e-12
    assert np.allclose(post.amps, xplus_state(D3))


def test_measure_forced_zero_probability():
    st = product_state(D3, [basis_state(D3, 2)])
    with pytest.raises(ZeroProbabilityForced):
        measure(st, Z3, [0], forced_outcome=0)


def test_x_basis_measures_plus_as_zero():
    st = product_state(D3, [xplus_state(D3)])
    k, _, prob = measure(st, x_basis(D3), [0],
                         rng=np.random.default_rng(0))
    assert k == 0 and abs(prob - 1) < 1e-12


def test_measurement_basis_requires_unitary():
    with pytest.raises(NonUnitary):
        MeasurementBasis(D3, np.ones((3, 3)))


def test_schmidt_of_bell():
    st = bell(D3)
    coeffs, _, _ = schmidt(st, [0])
    assert np.allclose(coeffs, np.full(3, 1 / np.sqrt(3)))
    assert is_max_entangled(st, [0])


def test_product_is_not_max_entangled():
    st = product_state(D3, [xplus_state(D3), basis_state(D3, 1)])
    assert not is_max_entangled(st, [0])
    coeffs, _, _ = schmidt(st, [0])
    assert abs(coeffs[0] - 1) < 1e-12


def test_fidelity():
    a = product_state(D3, [xplus_state(D3)])
    b = product_state(D3, [basis_state(D3, 0)])
    assert abs(fidelity(a, a) - 1) < 1e-12
    assert abs(fidelity(a, b) - 1 / np.sqrt(3)) < 1e-12


def test_state_too_large():
    dim5 = make_dim(INTEGER_RING, d=5)
    with pytest.raises(StateTooLarge):
        StateVector(dim5, 9, np.zeros(5 ** 9, dtype=complex))


def test_state_json_round_trip():
    dim4 = make_dim(FINITE_FIELD, p=2, m=2)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    st = StateVector(dim4, 2, amps)
    obj = state_to_json(st)
    assert dim_from_json(obj["dim"]) == dim4 and obj["n"] == 2
    assert np.array_equal([complex(re, im) for re, im in obj["amps"]],
                          st.amps)


def test_measure_nan_state_raises_before_dividing():
    st = StateVector(D3, 2, np.full(9, np.nan, dtype=complex))
    for basis in (Z3, x_basis(D3)):
        with pytest.raises(DimensionMismatch, match="NaN"):
            measure(st, basis, 0, rng=0)
        with pytest.raises(DimensionMismatch, match="NaN"):
            measure(st, basis, 1, forced_outcome=0)


def test_nan_operator_is_not_unitary():
    st = product_state(D3, [xplus_state(D3)])
    with pytest.raises(NonUnitary):
        apply(st, np.full((3, 3), np.nan), 0)
    with pytest.raises(NonUnitary):
        MeasurementBasis(D3, np.full((3, 3), np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_vector_rejects_non_finite(bad):
    with pytest.raises(DimensionMismatch, match="psi"):
        unit_vector([1, bad, 0], 3, "psi")
    with pytest.raises(DimensionMismatch, match="psi"):
        unit_vector([0, 0, 0], 3, "psi")
    assert np.allclose(unit_vector([3, 4j, 0], 3, "psi"), [0.6, 0.8j, 0])


# --- the shared draw -----------------------------------------------------

def _draw_or_error(draw, branch, uniforms, forced):
    try:
        return draw(branch, uniforms, forced)
    except QuditError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 9), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["drawn", "forced"]),
       st.sampled_from([None, 0.0, np.nan, np.inf]))
def test_collapse_equals_the_first_formula(n, D, R, seed, how, spoil):
    # sim.collapse calls ufunc methods where the oracle's first form
    # calls np.sum, np.cumsum and _row_totals: every array, outcome and
    # error must be the same, bit for bit
    rng = np.random.default_rng(seed)
    branch = rng.normal(size=(n, D, R)) + 1j * rng.normal(size=(n, D, R))
    branch[rng.random((n, D)) < 0.3] = 0        # impossible outcomes
    uniforms = rng.random(n)
    uniforms[rng.random(n) < 0.2] = 0.0
    forced = rng.integers(0, D, size=n) if how == "forced" else None
    with np.errstate(invalid="ignore", over="ignore"):
        if spoil is not None:
            branch[rng.integers(n)] *= spoil    # a zero, NaN or inf row
        got = _draw_or_error(collapse, branch, uniforms, forced)
        want = _draw_or_error(dense_oracle.collapse, branch, uniforms, forced)
    assert type(got[0]) is type(want[0])
    if isinstance(got[0], type):
        assert got == want
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["drawn", "forced"]),
       st.sampled_from([None, 0.0, np.nan, np.inf]))
def test_one_row_collapse_equals_the_batched_path(D, R, seed, how, spoil):
    # a batch of one row (a single trajectory, the oracle's measure) gives
    # the outcome, posterior, probability and error of a batch of two
    # copies of that row, bit for bit, over outcome counts past numpy's 8-
    # and 128-element summation blocks
    rng = np.random.default_rng(seed)
    row = rng.normal(size=(D, R)) + 1j * rng.normal(size=(D, R))
    row[rng.random(D) < 0.3] = 0
    u = 0.0 if rng.random() < 0.2 else rng.random()
    k = int(rng.integers(0, D))
    with np.errstate(invalid="ignore", over="ignore"):
        if spoil is not None:
            row *= spoil
        args = ([u], None) if how == "drawn" else (None, [k])
        got = _draw_or_error(collapse, row[None], *args)
        batch = [None if a is None else a * 2 for a in args]
        want = _draw_or_error(collapse, np.stack([row, row]), *batch)
    assert type(got[0]) is type(want[0])
    if isinstance(got[0], type):
        assert got == want
    else:
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b[:1].shape
            assert np.array_equal(a, b[:1])


def _wrapped_one_row(branch, u, forced):
    """collapse's arithmetic on one row (D, R) through numpy's Python
    wrappers (.sum, ** 2, np.sqrt), the form its wrapper-free one must
    equal."""
    weight = (np.abs(branch) ** 2).sum(axis=1)
    probs = weight / weight.sum()
    if forced is None:
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        forced = int(np.count_nonzero(cdf <= u))
    return forced, branch[forced] / np.sqrt(weight[forced]), probs[forced]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 81), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["drawn", "forced"]),
       st.sampled_from(["contiguous", "transposed", "strided"]))
def test_wrapper_free_draw_and_norm_equal_the_wrapped_forms(D, R, seed, how,
                                                           layout):
    # collapse and unit_vector drop numpy's Python wrappers, not their
    # arithmetic: outcome, posterior, probability and unit vector are the
    # wrapped forms', bit for bit, whatever the input's memory layout
    rng = np.random.default_rng(seed)
    row = rng.normal(size=(D, R)) + 1j * rng.normal(size=(D, R))
    row[rng.random(D) < 0.3] = 0
    row[0, 0] += 1        # a live outcome, and a nonzero strided view
    u = 0.0 if rng.random() < 0.2 else rng.random()
    live = np.flatnonzero(np.abs(row).sum(axis=1))
    forced = None if how == "drawn" else int(rng.choice(live))
    got = collapse(row[None], [u], None if forced is None else [forced])
    want = _wrapped_one_row(row, u, forced)
    assert got[0][0] == want[0] and got[2][0] == want[2]
    assert got[1][0].tobytes() == want[1].tobytes()
    v = {"contiguous": row, "transposed": row.T,
         "strided": row.reshape(-1)[::2]}[layout]
    want = np.asarray(v, dtype=complex).reshape(v.size)
    want = want / np.linalg.norm(want)
    assert unit_vector(v, v.size, "v").tobytes() == want.tobytes()


# --- seeded uniforms ------------------------------------------------------

def default_rng_rows(seeds, n):
    """The reference: one default_rng(seed).random(n) row per seed."""
    return np.array([np.random.default_rng(s).random(n)
                     for s in seeds]).reshape(len(seeds), n)


# where SeedSequence's entropy grows by a uint32 word, and the range's ends
EDGE_SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96,
              2 ** 128 - 1]


@pytest.mark.parametrize("n", range(13))
def test_seed_uniforms_match_default_rng_at_edge_seeds(n):
    got = seed_uniforms(EDGE_SEEDS, n)
    assert got.shape == (len(EDGE_SEEDS), n)
    assert np.array_equal(got, default_rng_rows(EDGE_SEEDS, n))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_SEEDS),
                          st.integers(0, 2 ** 128 - 1)),
                min_size=1, max_size=12),
       st.integers(0, 12))
def test_seed_uniforms_match_default_rng(seeds, n):
    assert np.array_equal(seed_uniforms(seeds, n), default_rng_rows(seeds, n))


@pytest.mark.parametrize("start", [2 ** 32 - 50, 2 ** 64 - 50])
def test_seed_uniforms_match_default_rng_across_an_entropy_word(start):
    # consecutive seeds whose entropy grows by a word halfway through
    seeds = range(start, start + 100)
    assert np.array_equal(seed_uniforms(seeds, 7), default_rng_rows(seeds, 7))


def test_seed_uniforms_match_default_rng_on_mixed_entropy_widths():
    # one batch of seeds of 1, 2, 3 and 4 entropy words, interleaved
    seeds = [w + 7919 * i for i in range(6)
             for w in (0, 2 ** 32, 2 ** 64, 2 ** 96)]
    assert np.array_equal(seed_uniforms(seeds, 9), default_rng_rows(seeds, 9))


def test_seed_uniforms_send_other_seeds_through_default_rng():
    # a Generator is drawn from in row order, so twice gives fresh draws
    def seeds():
        gen = np.random.default_rng(5)
        return [3, gen, np.int64(11), 2 ** 128, gen, 2 ** 200, None, 4]

    got = seed_uniforms(seeds(), 6)
    want = default_rng_rows(seeds(), 6)
    assert np.array_equal(np.delete(got, 6, axis=0),
                          np.delete(want, 6, axis=0))
    assert np.all((got[6] >= 0) & (got[6] < 1))     # None: fresh entropy
    assert not np.array_equal(got[1], got[4])


def test_seed_uniforms_negative_seed_raises_default_rngs_error():
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as got:
        seed_uniforms([1, -1], 3)
    assert str(got.value) == str(want.value)
