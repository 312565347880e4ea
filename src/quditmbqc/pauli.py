"""Generalized Pauli / Heisenberg-Weyl words with exact phase bookkeeping.

A word is phase * Z-part * X-part.  The phase is an integer exponent of
e^{2 pi i / phase_den} with phase_den = 2d (integer ring, tau_d powers) or
4p (finite field, chi and chi_4 contributions), so products and conjugation
tables stay exact until converted to complex at the simulator boundary.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch
from .galois import DimSpec, json_array, json_check

PAULI_TOL = 1e-8


@dataclass(frozen=True)
class PauliWord:
    dim: DimSpec
    n: int
    z: Tuple[int, ...]
    x: Tuple[int, ...]
    phase_num: int = 0

    def __post_init__(self):
        if len(self.z) != self.n or len(self.x) != self.n:
            raise DimensionMismatch("exponent vectors must have length n")
        object.__setattr__(self, "z", tuple(v % self.dim.d for v in self.z))
        object.__setattr__(self, "x", tuple(v % self.dim.d for v in self.x))
        object.__setattr__(self, "phase_num",
                           self.phase_num % self.dim.phase_den)

    @property
    def phase(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.phase_num / self.dim.phase_den)

    def is_identity(self) -> bool:
        return all(v == 0 for v in self.z) and all(v == 0 for v in self.x)


def identity_word(dim: DimSpec, n: int = 1) -> PauliWord:
    return PauliWord(dim, n, (0,) * n, (0,) * n, 0)


def single_word(dim: DimSpec, n: int, site: int, z: int = 0, x: int = 0,
                phase_num: int = 0) -> PauliWord:
    zv = [0] * n
    xv = [0] * n
    zv[site], xv[site] = z, x
    return PauliWord(dim, n, tuple(zv), tuple(xv), phase_num)


def normal_form(a: PauliWord, b: PauliWord) -> PauliWord:
    """Product a*b brought to phase * Z-part * X-part with exact phase."""
    if a.dim != b.dim or a.n != b.n:
        raise DimensionMismatch("words live on different systems")
    dim = a.dim
    phase = a.phase_num + b.phase_num
    z, x = [], []
    for i in range(a.n):
        # move X^{a.x} right past Z^{b.z}: X(x)Z(z) = char(-z x) Z(z)X(x)
        phase += dim.char_exp(dim.neg(dim.mul(b.z[i], a.x[i])))
        z.append(dim.add(a.z[i], b.z[i]))
        x.append(dim.add(a.x[i], b.x[i]))
    return PauliWord(dim, a.n, tuple(z), tuple(x), phase)


# --- dense matrices -------------------------------------------------------

def zmat(dim: DimSpec, a: int) -> np.ndarray:
    """Z^a (ring) or Z(a) (field) as a dense d x d matrix."""
    mul, _, _, chi = dim.tables
    return np.diag(chi[mul[a % dim.d]])


def xmat(dim: DimSpec, b: int) -> np.ndarray:
    """X^b (ring) or X(b) (field): |u + b><u|, so row r is e_{r - b}."""
    return np.eye(dim.d, dtype=complex)[dim.tables.sub[:, b % dim.d]]


def zx_matrix(w: PauliWord) -> np.ndarray:
    """Dense matrix of the Z/X part of the word, phase ignored."""
    out = np.array([[1.0 + 0j]])
    for i in range(w.n):
        out = np.kron(out, zmat(w.dim, w.z[i]) @ xmat(w.dim, w.x[i]))
    return out


def matrix_of_pauli(w: PauliWord) -> np.ndarray:
    return w.phase * zx_matrix(w)


# --- matching dense matrices back to words --------------------------------

def match_pauli(dim: DimSpec, n: int, M: np.ndarray
                ) -> Optional[Tuple[complex, PauliWord]]:
    """Recognize M as phase * Pauli word; None if it is not one.

    Returns (phase, word) with M ~ phase * zx_matrix(word).  The word's
    exact phase field is populated when the complex phase snaps onto the
    2*pi/phase_den lattice (it always does for proper Clifford
    conjugations); otherwise the word carries phase 0.  Every check is
    written to fail on NaN, so a matrix with a NaN entry gives None.
    """
    d = dim.d
    if M.shape != (d ** n, d ** n):
        raise DimensionMismatch("matrix size does not match (dim, n)")
    # X part from the support of M e_0
    col = M[:, 0]
    j = int(np.argmax(np.abs(col)))
    if not (abs(abs(col[j]) - 1.0) <= PAULI_TOL):
        return None
    x = _index_digits(dim, n, j)
    xinv = np.array([[1.0 + 0j]])
    for i in range(n):
        xinv = np.kron(xinv, xmat(dim, dim.neg(x[i])))
    D = xinv @ M
    diag = np.diag(D).copy()
    if not (np.max(np.abs(D - np.diag(diag))) <= PAULI_TOL):
        return None
    phase = diag[0]
    if not (abs(abs(phase) - 1.0) <= PAULI_TOL):
        return None
    rel = diag / phase
    # site i's entries rel[u d^(n-1-i)], each fitted to its chi(c u)
    z, ok = _character_fit(dim, rel[np.outer(d ** np.arange(n - 1, -1, -1),
                                             dim.elements)])
    if not ok.all():
        return None
    z = z.tolist()
    # we decomposed M = phase * X^x Z^z; reorder to Z-part-leftmost form
    for i in range(n):
        phase *= dim.char_phase(dim.neg(dim.mul(z[i], x[i])))
    word = PauliWord(dim, n, tuple(z), tuple(x), 0)
    # full verification
    if not (np.max(np.abs(M - phase * zx_matrix(word))) <= PAULI_TOL):
        return None
    # snap phase onto the exact lattice when possible
    den = dim.phase_den
    num = round(cmath.phase(phase) * den / (2 * cmath.pi)) % den
    snapped = cmath.exp(2j * cmath.pi * num / den)
    if abs(snapped - phase) <= PAULI_TOL:
        word = PauliWord(dim, n, tuple(z), tuple(x), num)
    return phase, word


def _character_fit(dim: DimSpec, rows: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """(c, ok) for a (k, d) array of rows: c[r] the peak of row r's
    character transform |sum_j rows[r, j] conj(chi(c j))|, and ok[r] where
    row r equals chi(c[r] j) at PAULI_TOL (a NaN fails).  Characters are
    orthogonal, so a row that fits one peaks at it."""
    mul, _, _, chi = dim.tables
    c = np.argmax(np.abs(rows @ chi[mul].conj()), axis=1)
    return c, np.max(np.abs(rows - chi[mul[c]]), axis=1) <= PAULI_TOL


def _index_digits(dim: DimSpec, n: int, idx: int) -> Tuple[int, ...]:
    """Site values of a flat tensor index; site 0 is most significant."""
    out = []
    for _ in range(n):
        out.append(idx % dim.d)
        idx //= dim.d
    return tuple(reversed(out))


# --- JSON ----------------------------------------------------------------

def pauli_to_json(w: PauliWord) -> dict:
    return {
        "phase": [w.phase_num, w.dim.phase_den],
        "z": [list(w.dim.coeffs_of(v)) for v in w.z],
        "x": [list(w.dim.coeffs_of(v)) for v in w.x],
    }


def pauli_from_json(dim: DimSpec, obj: dict) -> PauliWord:
    obj = json_check(obj, dict, "frame")
    num, den = json_array(obj["phase"], (2,), "phase", int).tolist()
    if den != dim.phase_den:
        raise DimensionMismatch("phase denominator does not match DimSpec")
    if not 0 <= num < den:
        raise DimensionMismatch(f"phase numerator must lie in 0..{den - 1}")
    exponents = []
    for key in ("z", "x"):
        coeffs = json_array(obj[key], (None, dim.m), key, int).tolist()
        if not all(0 <= c < dim.base for row in coeffs for c in row):
            raise DimensionMismatch(f"{key} coefficients must lie in "
                                    f"0..{dim.base - 1}")
        exponents.append(tuple(map(dim.elem_from_coeffs, coeffs)))
    return PauliWord(dim, len(exponents[0]), *exponents, num)
