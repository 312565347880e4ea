"""State vectors, entanglement probes and seeded uniforms, and the dense
oracle's application and measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.engine import mediator_step
from quditmbqc.errors import (
    DimensionMismatch,
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
    is_max_entangled,
    schmidt,
    seed_row,
    state_to_json,
    unit_vector,
)

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


# --- the wrapper-free norm -----------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 81), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["contiguous", "transposed", "strided"]))
def test_wrapper_free_norm_equals_the_wrapped_form(D, R, seed, layout):
    # unit_vector drops np.linalg.norm's Python wrapper, not its
    # arithmetic: the unit vector is the wrapped form's, bit for bit,
    # whatever the input's memory layout
    rng = np.random.default_rng(seed)
    row = rng.normal(size=(D, R)) + 1j * rng.normal(size=(D, R))
    row[rng.random(D) < 0.3] = 0
    row[0, 0] += 1        # a nonzero strided view
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


def seed_row_rows(seeds, n):
    """One sim.seed_row(seed, n) per seed, in row order."""
    return np.array([seed_row(s, n) for s in seeds]).reshape(len(seeds), n)


# where SeedSequence's entropy grows by a uint32 word, and seeds past
# 2^128, which seed_row serves from SeedSequence's pool as any other
EDGE_SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96,
              2 ** 128 - 1, 2 ** 128, 2 ** 200 + 5]


@pytest.mark.parametrize("n", range(13))
def test_seed_row_matches_default_rng_at_edge_seeds(n):
    got = seed_row_rows(EDGE_SEEDS, n)
    assert got.shape == (len(EDGE_SEEDS), n)
    assert np.array_equal(got, default_rng_rows(EDGE_SEEDS, n))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_SEEDS),
                          st.integers(0, 2 ** 128 - 1)),
                min_size=1, max_size=12),
       st.integers(0, 12))
def test_seed_row_matches_default_rng(seeds, n):
    assert np.array_equal(seed_row_rows(seeds, n), default_rng_rows(seeds, n))


@pytest.mark.parametrize("start", [2 ** 32 - 50, 2 ** 64 - 50])
def test_seed_row_matches_default_rng_across_an_entropy_word(start):
    # consecutive seeds whose entropy grows by a word halfway through
    seeds = range(start, start + 100)
    assert np.array_equal(seed_row_rows(seeds, 7), default_rng_rows(seeds, 7))


def test_seed_row_matches_default_rng_on_mixed_entropy_widths():
    # seeds of 1, 2, 3 and 4 entropy words, interleaved
    seeds = [w + 7919 * i for i in range(6)
             for w in (0, 2 ** 32, 2 ** 64, 2 ** 96)]
    assert np.array_equal(seed_row_rows(seeds, 9), default_rng_rows(seeds, 9))


def test_seed_row_sends_other_seeds_through_default_rng():
    # a Generator is drawn from in row order, so twice gives fresh draws
    def seeds():
        gen = np.random.default_rng(5)
        return [3, gen, np.int64(11), 2 ** 128, gen, 2 ** 200, None, 4,
                True]

    got = seed_row_rows(seeds(), 6)
    want = default_rng_rows(seeds(), 6)
    assert np.array_equal(np.delete(got, 6, axis=0),
                          np.delete(want, 6, axis=0))
    assert np.all((got[6] >= 0) & (got[6] < 1))     # None: fresh entropy
    assert not np.array_equal(got[1], got[4])


def test_seed_row_negative_seed_raises_default_rngs_error():
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as got:
        seed_row_rows([1, -1], 3)
    assert str(got.value) == str(want.value)


def test_a_generator_rng_is_advanced_by_one_random():
    # mediator_step draws its outcome off the Generator's next random(),
    # the first uniform of the int seed the Generator was built from
    dim = make_dim(INTEGER_RING, d=5)
    z = np.random.default_rng(5).normal(size=(2, 25))
    psi = z[0] + 1j * z[1]
    gen, ref = np.random.default_rng(9), np.random.default_rng(9)
    out = mediator_step(cz_spec(dim), psi, "entangle", rng=gen)
    assert out.outcome == mediator_step(cz_spec(dim), psi, "entangle",
                                        rng=9).outcome
    ref.random()
    assert gen.bit_generator.state == ref.bit_generator.state
