"""Standard single- and two-qudit gates in both formalisms.

Conventions: site 0 is the most significant tensor digit; two-qudit gates
act as control (x) target with the control on the left index.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonInvertibleLambda
from .galois import INTEGER_RING, DimSpec


def tau(dim: DimSpec) -> complex:
    d = dim.d
    return (-1) ** d * cmath.exp(1j * cmath.pi / d)


def hadamard(dim: DimSpec) -> np.ndarray:
    """H = d^{-1/2} sum char(uv) |u><v| in either formalism."""
    mul, _, _, chi = dim.tables
    return chi[mul] / math.sqrt(dim.d)


def sgate(dim: DimSpec) -> np.ndarray:
    """Canonical quadratic phase gate S."""
    return shear_gate(dim, 1)


def shear_gate(dim: DimSpec, l: int) -> np.ndarray:
    """Diagonal Clifford realizing the symplectic shear Z -> Z, X -> X Z^l.

    Integer ring: S_d^l with S_d = diag(tau^{j^2}).  Odd field: S^F(l) =
    diag(chi(2^{-1} l x^2)).  Even field: M(lam) S M(lam^{-1}) with
    lam = sqrt(l^{-1}), i.e. diag(chi_4(lift(lam^{-1} x)^2)) -- here
    lam^{-1} x = sqrt(l) x, so the entries are chi_4(lift(sqrt(l) x)^2).
    """
    d = dim.d
    if dim.kind == INTEGER_RING:
        t = tau(dim)
        return np.diag([t ** ((l * j * j) % (2 * d)) for j in range(d)])
    if dim.p != 2:
        mul, _, _, chi = dim.tables
        c = dim.mul(dim.inv(dim.scalar(2)), l)
        return np.diag(chi[mul[c, np.diagonal(mul)]])
    # p = 2: squaring is the Frobenius bijection, sqrt(t) = t^{2^{m-1}}
    if l == 0:
        return np.eye(d, dtype=complex)
    sqrt_l = dim.power(l, 2 ** (dim.m - 1))
    out = []
    for x in dim.elements:
        y = dim.gr_embed(dim.mul(sqrt_l, x))
        out.append(dim.chi4(dim.gr_mul(y, y)))
    return np.diag(out)


def mult_gate(dim: DimSpec, lam: int) -> np.ndarray:
    """M(lam) = sum |lam x><x|, so row r is e_{lam^-1 r}; requires lam
    invertible."""
    if not dim.is_invertible(lam):
        raise NonInvertibleLambda(f"lambda = {lam} not invertible in {dim.label()}")
    return np.eye(dim.d, dtype=complex)[dim.tables.mul[dim.inv(lam)]]


def dphi(phases) -> np.ndarray:
    """Diagonal rotation D_phi = diag(e^{i phi_k})."""
    return np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


def xplus_state(dim: DimSpec) -> np.ndarray:
    """|0_X> = H|0>."""
    return np.full(dim.d, 1.0 / math.sqrt(dim.d), dtype=complex)


def basis_state(dim: DimSpec, k: int) -> np.ndarray:
    v = np.zeros(dim.d, dtype=complex)
    v[k] = 1.0
    return v


# --- comparison helpers ---------------------------------------------------

def normalize_global_phase(M: np.ndarray) -> np.ndarray:
    """Make the first nonzero entry (row-major) positive real."""
    flat = M.reshape(-1)
    for v in flat:
        if abs(v) > 1e-12:
            return M * (abs(v) / v)
    return M
