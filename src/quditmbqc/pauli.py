"""Generalized Pauli / Heisenberg-Weyl words with exact phase bookkeeping.

A word is phase * Z-part * X-part.  The phase is an integer exponent of
e^{2 pi i / phase_den} with phase_den = 2d (integer ring, tau_d powers) or
4p (finite field, chi and chi_4 contributions), so products and conjugation
tables stay exact until converted to complex at the simulator boundary.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

    def __str__(self):
        parts = [f"e^(2pi i {self.phase_num}/{self.dim.phase_den})"]
        for i in range(self.n):
            parts.append(f"Z^{self.z[i]}X^{self.x[i]}")
        return " ".join(parts)


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


def invert_word(w: PauliWord) -> PauliWord:
    """Inverse word in normal form."""
    dim = w.dim
    phase = -w.phase_num
    z, x = [], []
    for i in range(w.n):
        # (Z^z X^x)^-1 = X^{-x} Z^{-z} = char(-z x) Z^{-z} X^{-x}
        phase += dim.char_exp(dim.neg(dim.mul(w.z[i], w.x[i])))
        z.append(dim.neg(w.z[i]))
        x.append(dim.neg(w.x[i]))
    return PauliWord(dim, w.n, tuple(z), tuple(x), phase)


def one_qudit_words(dim: DimSpec) -> List[PauliWord]:
    """Every one-qudit word Z^z X^x with phase 0, at index z * d + x."""
    return [PauliWord(dim, 1, (z,), (x,), 0)
            for z in dim.elements for x in dim.elements]


def word_table(words: Sequence[PauliWord]) -> Tuple[np.ndarray, np.ndarray]:
    """Indices z * d + x and exact phase numerators of one-qudit words.

    Given the images of one_qudit_words under a product or a conjugation,
    the table moves a frame (index i, phase p) to (idx[i], p + phase[i]).
    """
    idx = np.array([w.z[0] * w.dim.d + w.x[0] for w in words], dtype=np.intp)
    phase = np.array([w.phase_num for w in words], dtype=np.int64)
    return idx, phase


def word_power(w: PauliWord, k: int) -> PauliWord:
    out = identity_word(w.dim, w.n)
    if k < 0:
        w, k = invert_word(w), -k
    for _ in range(k):
        out = normal_form(out, w)
    return out


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
    mul, _, _, chi = dim.tables
    # site i's entries rel[u d^(n-1-i)], fitted to every chi(c u) at once
    sites = rel[np.outer(d ** np.arange(n - 1, -1, -1), dim.elements)]
    fits = np.all(np.abs(sites[:, None] - chi[mul]) <= PAULI_TOL, axis=2)
    if not fits.any(axis=1).all():
        return None
    z = fits.argmax(axis=1).tolist()
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
    width = len(dim.coeffs_of(0))
    z, x = (tuple(dim.elem_from_coeffs(row) for row in
                  json_array(obj[key], (None, width), key, int).tolist())
            for key in ("z", "x"))
    return PauliWord(dim, len(z), z, x, num)
