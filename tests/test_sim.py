"""Dense state vectors: application, measurement, entanglement probes."""

import numpy as np
import pytest

from quditmbqc.errors import (
    DimensionMismatch,
    NonUnitary,
    SiteOutOfRange,
    StateTooLarge,
    ZeroProbabilityForced,
)
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.gates import basis_state, cz_gate, hadamard, xplus_state
from quditmbqc.sim import (
    StateVector,
    apply,
    basis_from_unitary,
    fidelity,
    is_max_entangled,
    measure,
    product_state,
    reduced_density,
    schmidt,
    state_from_json,
    state_to_json,
    unit_vector,
    x_basis,
    z_basis,
)

D3 = make_dim(INTEGER_RING, d=3)


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
    out = apply(st, cz_gate(D3), [0, 1])
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
        k, post, prob = measure(st, z_basis(D3), [0],
                                rng=np.random.default_rng(seed))
        counts[k] += 1
        assert abs(prob - 1 / 3) < 1e-12
        assert post.n == 0
    assert counts.min() > 0


def test_measure_forced_outcome():
    st = product_state(D3, [basis_state(D3, 2), xplus_state(D3)])
    k, post, prob = measure(st, z_basis(D3), [0], forced_outcome=2)
    assert k == 2 and abs(prob - 1) < 1e-12
    assert np.allclose(post.amps, xplus_state(D3))


def test_measure_forced_zero_probability():
    st = product_state(D3, [basis_state(D3, 2)])
    with pytest.raises(ZeroProbabilityForced):
        measure(st, z_basis(D3), [0], forced_outcome=0)


def test_x_basis_measures_plus_as_zero():
    st = product_state(D3, [xplus_state(D3)])
    k, _, prob = measure(st, x_basis(D3), [0],
                         rng=np.random.default_rng(0))
    assert k == 0 and abs(prob - 1) < 1e-12


def test_basis_from_unitary_requires_unitary():
    with pytest.raises(NonUnitary):
        basis_from_unitary(D3, np.ones((3, 3)))


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


def test_reduced_density_of_bell_is_maximally_mixed():
    rho = reduced_density(bell(D3), [1])
    assert np.allclose(rho, np.eye(3) / 3)


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
    back = state_from_json(state_to_json(st))
    assert back.dim.d == 4 and back.n == 2
    assert np.allclose(back.amps, st.amps)


def test_nan_operator_is_not_unitary():
    st = product_state(D3, [xplus_state(D3)])
    with pytest.raises(NonUnitary):
        apply(st, np.full((3, 3), np.nan), 0)
    with pytest.raises(NonUnitary):
        basis_from_unitary(D3, np.full((3, 3), np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_vector_rejects_non_finite(bad):
    with pytest.raises(DimensionMismatch, match="psi"):
        unit_vector([1, bad, 0], 3, "psi")
    with pytest.raises(DimensionMismatch, match="psi"):
        unit_vector([0, 0, 0], 3, "psi")
    assert np.allclose(unit_vector([3, 4j, 0], 3, "psi"), [0.6, 0.8j, 0])
