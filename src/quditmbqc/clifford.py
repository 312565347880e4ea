"""Clifford certification, symplectic representation, and generator words.

Single-qudit Cliffords are represented (up to Pauli and phase) by symplectic
matrices acting on (z, x) column vectors: Z -> Z^a X^b, X -> Z^c X^e with
a e - b c = 1.  Generator words over {H, shear, G_I} realize the standard
decompositions; every word is verified densely by the caller or tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    NonInvertibleLambda,
    NotCliffordError,
    OrderCapExceeded,
    UniversalityViolated,
    UnsupportedFormalism,
)
from .galois import INTEGER_RING, DimSpec
from .gates import hadamard, shear_gate
from .pauli import (
    PauliWord,
    match_pauli,
    normal_form,
    one_qudit_words,
    single_word,
    word_power,
    word_table,
    zx_matrix,
)


def _additive_basis(dim: DimSpec) -> List[int]:
    """1 for Z_d; the encoded 1, xi, xi^2, ... for GF(p^m), matching the
    digits of DimSpec.coeffs_of."""
    if dim.kind == INTEGER_RING:
        return [1]
    return [dim.p ** i for i in range(dim.m)]


def generator_words(dim: DimSpec, n: int):
    """Pauli generators whose images determine a Clifford: per site,
    Z and X raised to the additive basis elements (1, xi, xi^2, ...)."""
    for site in range(n):
        for g in _additive_basis(dim):
            yield f"Z{site}^{g}", single_word(dim, n, site, z=g)
            yield f"X{site}^{g}", single_word(dim, n, site, x=g)


@dataclass
class NotClifford:
    """Certification failure result carrying the offending generator."""
    generator: str


@dataclass
class CliffordCert:
    dim: DimSpec
    n: int
    U: np.ndarray
    images: Dict[str, Tuple[complex, PauliWord]]
    _letters: Dict[Tuple[int, str, int], PauliWord] = field(
        default_factory=dict, repr=False, compare=False)
    _frame_table: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False)

    def image_of(self, label: str) -> Tuple[complex, PauliWord]:
        return self.images[label]

    def _letter_image(self, site: int, letter: str, value: int) -> PauliWord:
        """U Z^value U^dagger (letter "Z") or U X^value U^dagger on a site,
        for value != 0.

        The value is split over the additive basis, so the letter is a
        product of generator powers; their images are multiplied in normal
        form once and cached.
        """
        key = (site, letter, value)
        if key not in self._letters:
            powers = [word_power(self.images[f"{letter}{site}^{g}"][1], c)
                      for g, c in zip(_additive_basis(self.dim),
                                      self.dim.coeffs_of(value)) if c]
            self._letters[key] = functools.reduce(normal_form, powers)
        return self._letters[key]

    def conjugate(self, word: PauliWord) -> PauliWord:
        """U word U^dagger as an exact-phase word.

        The word is phase * prod_site Z^z X^x; each letter's image comes
        from _letter_image, so one conjugation costs at most two normal_form
        calls per site once the letters are cached.  No dense matrix is
        formed.
        """
        if word.dim != self.dim or word.n != self.n:
            raise DimensionMismatch("word and certificate systems differ")
        zero = (0,) * self.n
        out = PauliWord(self.dim, self.n, zero, zero, word.phase_num)
        for site in range(self.n):
            for letter, value in (("Z", word.z[site]), ("X", word.x[site])):
                if value:
                    out = normal_form(out,
                                      self._letter_image(site, letter, value))
        return out

    def frame_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """word_table of U w U^dagger over one_qudit_words, built once."""
        if self.n != 1:
            raise DimensionMismatch("frame tables are single-qudit")
        if self._frame_table is None:
            self._frame_table = word_table(
                [self.conjugate(w) for w in one_qudit_words(self.dim)])
        return self._frame_table


def conjugation_table(U: np.ndarray, dim: DimSpec, n: int = 1
                      ) -> Union[CliffordCert, NotClifford]:
    """Conjugate every Pauli generator by U and match the result to a word."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (dim.d ** n, dim.d ** n):
        raise DimensionMismatch("operator size does not match (dim, n)")
    images = {}
    Ud = U.conj().T
    for label, w in generator_words(dim, n):
        M = U @ zx_matrix(w) @ Ud
        r = match_pauli(dim, n, M)
        if r is None:
            return NotClifford(label)
        images[label] = r
    return CliffordCert(dim, n, U, images)


def certify(U: np.ndarray, dim: DimSpec, n: int = 1) -> CliffordCert:
    r = conjugation_table(U, dim, n)
    if isinstance(r, NotClifford):
        raise NotCliffordError(f"generator {r.generator} does not conjugate "
                               f"to a Pauli word", generator=r.generator)
    return r


def pauli_order_data(U: np.ndarray, dim: DimSpec, n: int = 1
                     ) -> Tuple[int, complex, PauliWord]:
    """Least o >= 1 with U^o = phase * Pauli; capped at d^2."""
    cap = dim.d ** 2
    P = np.eye(dim.d ** n, dtype=complex)
    for k in range(1, cap + 1):
        P = P @ U
        r = match_pauli(dim, n, P)
        if r is not None:
            return k, r[0], r[1]
    raise OrderCapExceeded(f"no power up to {cap} is a Pauli word")


def pauli_order(U: np.ndarray, dim: DimSpec, n: int = 1) -> int:
    return pauli_order_data(U, dim, n)[0]


# --- symplectic representation -------------------------------------------

@dataclass(frozen=True)
class SymplecticRep:
    dim: DimSpec
    a: int
    b: int
    c: int
    e: int

    def __post_init__(self):
        dim = self.dim
        det = dim.sub(dim.mul(self.a, self.e), dim.mul(self.b, self.c))
        if det != 1:
            raise DimensionMismatch(f"symplectic determinant {det} != 1")

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.e)

    def matmul(self, other: "SymplecticRep") -> "SymplecticRep":
        dim = self.dim
        a = dim.add(dim.mul(self.a, other.a), dim.mul(self.c, other.b))
        b = dim.add(dim.mul(self.b, other.a), dim.mul(self.e, other.b))
        c = dim.add(dim.mul(self.a, other.c), dim.mul(self.c, other.e))
        e = dim.add(dim.mul(self.b, other.c), dim.mul(self.e, other.e))
        return SymplecticRep(dim, a, b, c, e)

    def apply(self, z: int, x: int) -> Tuple[int, int]:
        dim = self.dim
        return (dim.add(dim.mul(self.a, z), dim.mul(self.c, x)),
                dim.add(dim.mul(self.b, z), dim.mul(self.e, x)))


def hadamard_rep(dim: DimSpec) -> SymplecticRep:
    # Z -> X^{-1} ... columns: Z image (0, -1)?  H: Z -> X^-1, X -> Z
    return SymplecticRep(dim, 0, dim.neg(1), 1, 0)


def symplectic_of(cert: CliffordCert) -> SymplecticRep:
    """Extract (a,b,c,e) from a single-qudit certificate; checks linearity."""
    if cert.n != 1:
        raise DimensionMismatch("symplectic extraction is single-qudit")
    dim = cert.dim
    _, wz = cert.image_of(next(l for l, _ in generator_words(dim, 1)
                                if l.startswith("Z")))
    a, b = wz.z[0], wz.x[0]
    _, wx = cert.image_of(next(l for l, _ in generator_words(dim, 1)
                                if l.startswith("X")))
    c, e = wx.z[0], wx.x[0]
    for label, w in generator_words(dim, 1):
        _, img = cert.image_of(label)
        g = w.z[0] if w.z[0] else w.x[0]
        if w.z[0]:
            want = (dim.mul(a, g), dim.mul(b, g))
        else:
            want = (dim.mul(c, g), dim.mul(e, g))
        if (img.z[0], img.x[0]) != want:
            raise NotCliffordError(
                f"generator {label} image is not symplectic-linear",
                generator=label)
    return SymplecticRep(dim, a, b, c, e)


def universality_check(cert: CliffordCert) -> Tuple[bool, Tuple[int, int]]:
    """True iff Z -> Z^a X^b with b invertible (nonzero in a field).

    Reads the image of the Z generator only, so semilinear Cliffords
    (Frobenius-twisted conjugation on higher powers) are still accepted.
    """
    if cert.n != 1:
        raise DimensionMismatch("universality check is single-qudit")
    dim = cert.dim
    _, wz = cert.image_of(next(l for l, _ in generator_words(dim, 1)
                                if l.startswith("Z")))
    a, b = wz.z[0], wz.x[0]
    return dim.is_invertible(b), (a, b)


# --- generator words ------------------------------------------------------

Token = Tuple  # ("H",) | ("shear", l) | ("G", +1 | -1)


def realize_word(dim: DimSpec, tokens: List[Token],
                 G: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense product of a token word, leftmost token = leftmost factor."""
    out = np.eye(dim.d, dtype=complex)
    for t in tokens:
        if t[0] == "H":
            out = out @ hadamard(dim)
        elif t[0] == "shear":
            out = out @ shear_gate(dim, t[1])
        elif t[0] == "G":
            M = G if t[1] == 1 else np.asarray(G).conj().T
            out = out @ M
        else:
            raise ValueError(f"unknown token {t!r}")
    return out


def hadamard_from_intrinsic(cert: CliffordCert) -> List[Token]:
    """Word S^{-a b^{-1} + 1} G S^{b^{-2}} G^{-1} S^{a b^{-1} + 1} realizing
    the Hadamard symplectic from any universal intrinsic gate."""
    ok, (a, b) = universality_check(cert)
    if not ok:
        raise UniversalityViolated("intrinsic gate maps Z to Z^a X^b with "
                                   "non-invertible b")
    dim = cert.dim
    binv = dim.inv(b)
    ab = dim.mul(a, binv)
    l1 = dim.add(dim.neg(ab), 1)
    l2 = dim.mul(binv, binv)
    l3 = dim.add(ab, 1)
    return [("shear", l1), ("G", 1), ("shear", l2), ("G", -1), ("shear", l3)]


def mult_gate_decomposition(dim: DimSpec, lam: int) -> List[Token]:
    """M(lam) as H S(lam) H S(lam^{-1}) H S(lam), up to Pauli and phase."""
    if not dim.is_invertible(lam):
        raise NonInvertibleLambda(f"lambda = {lam} not invertible")
    linv = dim.inv(lam)
    return [("H",), ("shear", lam), ("H",), ("shear", linv), ("H",),
            ("shear", lam)]


def map_pauli_to_Z(dim: DimSpec, m: int, n: int
                   ) -> Tuple[SymplecticRep, int]:
    """Symplectic rep mapping the Pauli exponent vector (m, n) to (l, 0)
    with l = gcd(m, n); built from a Bezout identity."""
    m, n = m % dim.d, n % dim.d
    if m == 0 and n == 0:
        raise DimensionMismatch("zero Pauli cannot be mapped")
    if dim.kind == INTEGER_RING:
        l = math.gcd(m, n)
        mp, np_ = m // l, n // l
        # 1 = u mp + v np_
        g, u, v = _ext_gcd(mp, np_)
        u, v = u % dim.d, v % dim.d
        rep = SymplecticRep(dim, u, dim.neg(np_ % dim.d), v, mp % dim.d)
        return rep, l
    # field: every nonzero element is invertible, l = 1
    if m != 0:
        rep = SymplecticRep(dim, dim.inv(m), dim.neg(n), 0, m)
    else:
        rep = SymplecticRep(dim, 0, dim.neg(n), dim.inv(n), 0)
    return rep, 1


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def rep_tokens(rep: SymplecticRep) -> List[Token]:
    """Decompose a symplectic rep into shear and Hadamard tokens."""
    dim = rep.dim
    F = hadamard_rep(dim)
    cur = rep
    for k in range(4):
        if dim.is_invertible(cur.b):
            l2 = cur.b
            binv = dim.inv(l2)
            l1 = dim.mul(dim.add(cur.a, 1), binv)
            l3 = dim.mul(dim.add(cur.e, 1), binv)
            tokens: List[Token] = [("shear", l1), ("H",), ("shear", l2),
                                   ("H",), ("shear", l3)]
            tokens += [("H",)] * ((4 - k) % 4)
            return tokens
        cur = cur.matmul(F)
    raise UnsupportedFormalism("no F-shift yields an invertible shear "
                               "parameter for this dimension")


def synthesize(rep: SymplecticRep) -> np.ndarray:
    """Dense unitary whose conjugation action realizes the rep
    (up to Pauli phases)."""
    return realize_word(rep.dim, rep_tokens(rep))
