"""Clifford certification, diagonal Cliffords and native words.

A single-qudit Clifford U is known by its certificate, its word table:
U w_i U^dagger = e^{2 pi i phase[i] / phase_den} w_{idx[i]} for every
word w_i = Z(z) X(x), i = z d + x, the symplectic map with its exact
phases (Hostens, Dehaene and De Moor, PRA 71, 042315, 2005).  certify
matches the 2m generators' images densely and extends them to every word
exactly; a diagonal's table is read without dense matching, from its
images of every X(x) at once (diagonal_images, diagonal_cert).  Tables
compose by one gather, so the shortest native word G_I S(l_{k-1}) ...
G_I S(l_0) of every Clifford class an intrinsic gate reaches is found by
a breadth-first search over the generators' image indices alone
(shortest_words).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NotCliffordError,
    OrderCapExceeded,
)
from .galois import DimSpec, budget
from .gates import shear_gate
from .pauli import (
    PAULI_TOL,
    PauliWord,
    identity_word,
    match_pauli,
    normal_form,
    xmat,
    zmat,
)


def _additive_basis(dim: DimSpec) -> List[int]:
    """1 for Z_d; the encoded 1, xi, xi^2, ... for GF(p^m), matching the
    digits of DimSpec.coeffs_of."""
    return [dim.base ** i for i in range(dim.m)]


def _lowest_digits(dim: DimSpec) -> List[int]:
    """For each k != 0 in dim.elements, the additive basis element g of
    its lowest nonzero digit, so that k - g precedes k."""
    return [next(g for g, c in zip(_additive_basis(dim), dim.coeffs_of(k))
                 if c) for k in dim.elements[1:]]


def generator_words(dim: DimSpec) -> Iterator[Tuple[str, int]]:
    """(label, word index) of the Pauli generators whose images determine
    a Clifford: Z(g) at g d and X(g) at g for each additive basis element
    g (1, xi, xi^2, ...)."""
    for g in _additive_basis(dim):
        yield f"Z0^{g}", g * dim.d
        yield f"X0^{g}", g


@dataclass(frozen=True, eq=False)
class CliffordCert:
    """The word table of a one-qudit Clifford U, read-only: U w_i U^dagger
    = e^{2 pi i phase[i] / phase_den} w_{idx[i]} for w_i = Z(z) X(x),
    i = z d + x."""
    dim: DimSpec
    idx: np.ndarray
    phase: np.ndarray
    _moves: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.idx, self.phase):
            a.flags.writeable = False

    def compose(self, other: "CliffordCert") -> "CliffordCert":
        """Certificate of the product U V (self U, other V), exact phases
        included: U V w_i (U V)^dagger = U (V w_i V^dagger) U^dagger."""
        return CliffordCert(self.dim, self.idx[other.idx],
                            (other.phase + self.phase[other.idx])
                            % self.dim.phase_den)

    def class_key(self) -> Tuple[int, ...]:
        """idx at the generators' word indices (generator_words): equal
        exactly when the two Cliffords differ by a Pauli word and a global
        phase."""
        return tuple(self.idx[[i for _, i in generator_words(self.dim)]]
                     .tolist())

    def move_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only (nxt, dph), built on first use: Z^{-k}, then U, move a
        frame (index a, phase p) to (nxt[a, k], p + dph[a, k])."""
        if self._moves is None:
            # Z^{-k} Z(z) X(x) = Z(z - k) X(x), word (z - k) d + x
            d = self.dim.d
            z, x = np.divmod(np.arange(d * d), d)
            zk = self.dim.tables.sub[z] * d + x[:, None]
            moves = self.idx[zk], self.phase[zk]
            for t in moves:
                t.flags.writeable = False
            object.__setattr__(self, "_moves", moves)
        return self._moves


def certify(U: np.ndarray, dim: DimSpec) -> CliffordCert:
    """U's word table: each generator conjugated by U densely and matched
    to a word, then every word's image formed exactly from theirs, Z(k) =
    Z(k - g) Z(g) and X(k) = X(k - g) X(g) for k's lowest digit g, and
    Z(z) X(x) as the product of its letters' images, each in normal_form.
    NotCliffordError names the first generator whose image is not a Pauli
    word."""
    U = np.asarray(U, dtype=complex)
    d = dim.d
    if U.shape != (d, d):
        raise DimensionMismatch("operator size does not match the dimension")
    images, Ud = {}, U.conj().T
    for label, i in generator_words(dim):
        r = match_pauli(dim, 1, U @ zmat(dim, i // d) @ xmat(dim, i % d) @ Ud)
        if r is None:
            raise NotCliffordError(f"generator {label} does not conjugate "
                                   f"to a Pauli word", generator=label)
        images[i] = r[1]
    zs, xs = [identity_word(dim)], [identity_word(dim)]
    for k, g in zip(dim.elements[1:], _lowest_digits(dim)):
        zs.append(normal_form(zs[dim.sub(k, g)], images[g * d]))
        xs.append(normal_form(xs[dim.sub(k, g)], images[g]))
    words = [normal_form(a, b) for a in zs for b in xs]
    return CliffordCert(dim, np.array([w.z[0] * d + w.x[0] for w in words],
                                      dtype=np.intp),
                        np.array([w.phase_num for w in words], dtype=np.int64))


# --- diagonal Cliffords ---------------------------------------------------

def diagonal_cert(dim: DimSpec, q: np.ndarray) -> CliffordCert:
    """The word table of diag(q), read off its images (diagonal_images):
    Z(z) X(x) goes to Z(z + c[x]) X(x) at phase num[x].  NotCliffordError
    as diagonal_images raises it."""
    c, num = map(np.array, diagonal_images(dim, q))
    d = dim.d
    z, x = np.divmod(np.arange(d * d), d)
    return CliffordCert(dim, dim.tables.add[z, c[x]] * d + x, num[x])


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
    a, b = divmod(int(cert.idx[cert.dim.d]), cert.dim.d)
    return cert.dim.is_invertible(b), (a, b)


# --- native words ---------------------------------------------------------

def shortest_words(g: CliffordCert) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """Class key -> shortest (l_0, ..., l_{k-1}) with G S(l_{k-1}) ... G S(l_0)
    in that class, for every class the native steps G S(l) reach; G is the
    gate g certifies and S(l) = shear_gate(l).  The identity class is the
    empty word.

    A breadth-first search over class keys alone: a step's key is its
    table's idx gathered at the previous key, each step's table G composed
    with its shear's diagonal_cert once.  StateTooLarge past the budget of
    d^4 search steps (up to d^3 classes, each met through d shears),
    before any is taken.
    """
    dim = g.dim
    budget(dim.d ** 4, "{}^4 class-search steps", dim.d)
    steps = [(l, g.compose(diagonal_cert(dim, np.diag(shear_gate(dim, l))))
              .idx.tolist()) for l in dim.elements]
    start = tuple(i for _, i in generator_words(dim))
    table = {start: ()}
    frontier = [start]
    while frontier:
        reached = []
        for key in frontier:
            for l, idx in steps:
                nxt = tuple([idx[i] for i in key])
                if nxt not in table:
                    table[nxt] = table[key] + (l,)
                    reached.append(nxt)
        frontier = reached
    return table
