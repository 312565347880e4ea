"""Clifford certification, diagonal Cliffords and native words.

A single-qudit Clifford is known by its certificate: the exact-phase
images of the Pauli generators, Z -> Z^a X^b and X -> Z^c X^e up to phase
with a e - b c = 1.  Certificates compose exactly, so the shortest native
word G_I S(l_{k-1}) ... G_I S(l_0) of every Clifford class an intrinsic
gate reaches is found by a breadth-first search without dense products
(shortest_words).  A diagonal's images are read without a certificate,
for every X(x) at once (diagonal_images).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NotCliffordError,
    OrderCapExceeded,
)
from .galois import DimSpec
from .gates import shear_gate
from .pauli import (
    PAULI_TOL,
    PauliWord,
    match_pauli,
    normal_form,
    one_qudit_words,
    single_word,
    zx_matrix,
)


def _additive_basis(dim: DimSpec) -> List[int]:
    """1 for Z_d; the encoded 1, xi, xi^2, ... for GF(p^m), matching the
    digits of DimSpec.coeffs_of."""
    return [dim.base ** i for i in range(dim.m)]


def generator_words(dim: DimSpec, n: int):
    """Pauli generators whose images determine a Clifford: per site,
    Z and X raised to the additive basis elements (1, xi, xi^2, ...)."""
    for site in range(n):
        for g in _additive_basis(dim):
            yield f"Z{site}^{g}", single_word(dim, n, site, z=g)
            yield f"X{site}^{g}", single_word(dim, n, site, x=g)


@dataclass
class CliffordCert:
    """Images U g U^dagger of the generators g, as exact-phase words."""
    dim: DimSpec
    n: int
    images: Dict[str, PauliWord]
    _letters: Dict[Tuple[int, str, int], PauliWord] = field(
        default_factory=dict, repr=False, compare=False)
    _frame_table: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, repr=False, compare=False)

    def _letter_image(self, site: int, letter: str, value: int) -> PauliWord:
        """U Z^value U^dagger (letter "Z") or U X^value U^dagger on a site,
        for value != 0.

        The value is split over the additive basis, so the letter is a
        product of generator powers, each generator's digit c < p times;
        their images are multiplied in normal form once and cached.
        """
        key = (site, letter, value)
        if key not in self._letters:
            images = [self.images[f"{letter}{site}^{g}"]
                      for g, c in zip(_additive_basis(self.dim),
                                      self.dim.coeffs_of(value))
                      for _ in range(c)]
            self._letters[key] = functools.reduce(normal_form, images)
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
        out = replace(word, z=(0,) * self.n, x=(0,) * self.n)  # its phase
        for site in range(self.n):
            for letter, value in (("Z", word.z[site]), ("X", word.x[site])):
                if value:
                    out = normal_form(out,
                                      self._letter_image(site, letter, value))
        return out

    def compose(self, other: "CliffordCert") -> "CliffordCert":
        """Certificate of the product U V (self U, other V), exact phases
        included: (U V) g (U V)^dagger = U (V g V^dagger) U^dagger."""
        return CliffordCert(self.dim, self.n, {
            label: self.conjugate(w) for label, w in other.images.items()})

    def class_key(self) -> Tuple:
        """The images with their phases dropped: equal exactly when the two
        Cliffords differ by a Pauli word and a global phase."""
        return tuple((w.z, w.x) for w in self.images.values())

    def frame_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Index z * d + x and exact phase numerator of U w U^dagger for each
        w in one_qudit_words, built once: the table moves a frame (index i,
        phase p) to (idx[i], p + phase[i])."""
        if self.n != 1:
            raise DimensionMismatch("frame tables are single-qudit")
        if self._frame_table is None:
            d, words = self.dim.d, [self.conjugate(w)
                                    for w in one_qudit_words(self.dim)]
            idx = np.array([w.z[0] * d + w.x[0] for w in words], dtype=np.intp)
            phase = np.array([w.phase_num for w in words], dtype=np.int64)
            self._frame_table = idx, phase
        return self._frame_table[:2]

    def move_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only (nxt, dph), built on first use: Z^{-k}, then U, move a
        frame (index a, phase p) to (nxt[a, k], p + dph[a, k])."""
        idx, phase = self.frame_table()
        if len(self._frame_table) == 2:
            # Z^{-k} Z(z) X(x) = Z(z - k) X(x), word (z - k) d + x
            d = self.dim.d
            z, x = np.divmod(np.arange(d * d), d)
            zk = self.dim.tables.sub[z] * d + x[:, None]
            self._frame_table += (idx[zk], phase[zk])
            for t in self._frame_table[2:]:
                t.flags.writeable = False
        return self._frame_table[2:]


def certify(U: np.ndarray, dim: DimSpec, n: int = 1) -> CliffordCert:
    """Conjugate every Pauli generator by U and match the result to a word;
    NotCliffordError naming the first generator whose image is not one."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (dim.d ** n, dim.d ** n):
        raise DimensionMismatch("operator size does not match (dim, n)")
    images = {}
    Ud = U.conj().T
    for label, w in generator_words(dim, n):
        r = match_pauli(dim, n, U @ zx_matrix(w) @ Ud)
        if r is None:
            raise NotCliffordError(f"generator {label} does not conjugate "
                                   f"to a Pauli word", generator=label)
        images[label] = r[1]
    return CliffordCert(dim, n, images)


# --- diagonal Cliffords ---------------------------------------------------

def diagonal_images(dim: DimSpec, q: np.ndarray
                    ) -> Tuple[List[int], List[int]]:
    """(c, num) as int lists, num in [0, phase_den): diag(q) X(x)
    diag(q)^dag = e^{2 pi i num[x] / phase_den} Z(c[x]) X(x) for every
    shift x.  NotCliffordError names the first generator X0^g it fails on."""
    c, num, ok = _diagonal_images(dim, np.asarray(q))
    for g in _additive_basis(dim):
        if not ok[g]:
            raise NotCliffordError(f"generator X0^{g} does not conjugate to "
                                   f"a Pauli word", generator=f"X0^{g}")
    return c.tolist(), (num % dim.phase_den).tolist()


def _diagonal_images(dim: DimSpec, q: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, num, ok) over every shift x: diag(q) X(x) diag(q)^dag =
    e^{2 pi i num[x] / phase_den} Z(c[x]) X(x) where ok[x], and no c fits
    where not ok[x] (diag(q) is not Clifford).

    Entries q(j + x) conj(q(j)) are matched to e^{i phi} chi(c (j + x))
    with phi snapped to the exact phase lattice, at PAULI_TOL.
    """
    den = dim.phase_den
    add, shifted_chi = _shift_tables(dim)
    # ratio[x, c, j] = q(j + x) conj(q(j)) conj(chi(c (j + x)))
    ratio = (q[add] * q.conj())[:, None, :] * shifted_chi
    num = np.round(np.angle(ratio[..., 0]) * den / (2 * np.pi))
    fits = np.max(np.abs(ratio - np.exp(2j * np.pi * num / den)[..., None]),
                  axis=2) <= PAULI_TOL
    c = fits.argmax(axis=1)
    return c, num[add[0], c].astype(int), fits.any(axis=1)


@functools.lru_cache(maxsize=None)
def _shift_tables(dim: DimSpec) -> Tuple[np.ndarray, np.ndarray]:
    """add[x, j] = j + x and conj(chi(c (j + x))) as [x, c, j], shared
    read-only by every _diagonal_images call."""
    mul, add, _, chi = dim.tables
    shifted_chi = chi[mul[:, add]].conj().swapaxes(0, 1)
    shifted_chi.flags.writeable = False
    return add, shifted_chi


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


def universality_check(cert: CliffordCert) -> Tuple[bool, Tuple[int, int]]:
    """True iff Z -> Z^a X^b with b invertible (nonzero in a field).

    Reads the image of the Z generator only, so semilinear Cliffords
    (Frobenius-twisted conjugation on higher powers) are still accepted.
    """
    if cert.n != 1:
        raise DimensionMismatch("universality check is single-qudit")
    a, b = cert.images["Z0^1"].z[0], cert.images["Z0^1"].x[0]
    return cert.dim.is_invertible(b), (a, b)


# --- native words ---------------------------------------------------------

def shortest_words(g: CliffordCert) -> Dict[Tuple, Tuple[int, ...]]:
    """Class key -> shortest (l_0, ..., l_{k-1}) with G S(l_{k-1}) ... G S(l_0)
    in that class, for every class the native steps G S(l) reach; G is the
    gate g certifies and S(l) = shear_gate(l).  The identity class is the
    empty word.

    A breadth-first search over exact certificate composition: each step's
    certificate is formed once densely, every word from its predecessor.
    """
    dim = g.dim
    steps = [(l, g.compose(certify(shear_gate(dim, l), dim)))
             for l in dim.elements]
    start = CliffordCert(dim, 1, dict(generator_words(dim, 1)))
    table = {start.class_key(): ()}
    frontier = [(start, ())]
    while frontier:
        reached = []
        for cert, word in frontier:
            for l, step in steps:
                nxt = step.compose(cert)
                key = nxt.class_key()
                if key not in table:
                    table[key] = word + (l,)
                    reached.append((nxt, table[key]))
        frontier = reached
    return table
