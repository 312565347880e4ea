"""Exact arithmetic in Z_d, GF(p^m) and the Galois ring GR(4,m).

Field elements are encoded as integers in [0, d): the element
a_0 + a_1*xi + ... + a_{m-1}*xi^{m-1} is the integer with base-p digits
(a_0, ..., a_{m-1}), a_0 least significant.  Galois-ring elements use the
same encoding with base-4 digits.  Integer-ring elements are plain residues
mod d.  Immutable tables: tuples at construction, arrays on first use.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPrimeCharacteristic,
    ReduciblePolynomial,
    UnsupportedFormalism,
    WrongCharacteristic,
    ZeroInverse,
)

INTEGER_RING = "integer_ring"
FINITE_FIELD = "finite_field"

# default irreducible polynomials, coefficients low-to-high
_DEFAULT_POLY = {
    (2, 2): (1, 1, 1),     # xi^2 + xi + 1
    (2, 3): (1, 1, 0, 1),  # xi^3 + xi + 1
    (3, 2): (1, 0, 1),     # xi^2 + 1
}
_DEFAULT_GR_POLY = {
    (2, 2): (3, 3, 1),     # xi^2 + 3 xi + 3 over Z_4
    (2, 3): (3, 1, 2, 1),  # xi^3 + 2 xi^2 + xi + 3, lifts xi^3 + xi + 1
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def _poly_eval(coeffs: Sequence[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], modpoly: Sequence[int],
                  q: int) -> Tuple[int, ...]:
    """Multiply polynomials over Z_q and reduce modulo the monic modpoly."""
    m = len(modpoly) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
    # reduce: xi^m = -(modpoly[:m])
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(m):
                prod[k - m + j] = (prod[k - m + j] - c * modpoly[j]) % q
    out = prod[:m]
    out += [0] * (m - len(out))
    return tuple(out)


def _digits(value: int, base: int, m: int) -> Tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(value % base)
        value //= base
    return tuple(out)


def _undigits(coeffs: Sequence[int], base: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * base + (c % base)
    return acc


# DimSpec.tables, which every dense builder indexes: mul[a, b] = a b,
# add[a, b] = a + b, sub[a, b] = a - b and chi[t] = char_phase(t)
ElementTables = collections.namedtuple("ElementTables", "mul add sub chi")


@dataclass(frozen=True)
class DimSpec:
    """Dimension descriptor for one qudit: Z_d or GF(p^m) (+ GR(4,m) lift)."""

    kind: str
    d: int
    p: Optional[int] = None
    m: int = 1
    poly: Optional[Tuple[int, ...]] = None
    gr_poly: Optional[Tuple[int, ...]] = None
    _add: Tuple[Tuple[int, ...], ...] = field(default=None, repr=False, compare=False)
    _neg: Tuple[int, ...] = field(default=None, repr=False, compare=False)
    _mul: Tuple[Tuple[int, ...], ...] = field(default=None, repr=False, compare=False)
    _inv: Tuple[Optional[int], ...] = field(default=None, repr=False, compare=False)
    _tr: Tuple[int, ...] = field(default=None, repr=False, compare=False)
    _gr_mul: Tuple[Tuple[int, ...], ...] = field(default=None, repr=False, compare=False)
    _gr_tr: Tuple[int, ...] = field(default=None, repr=False, compare=False)
    _tables: ElementTables = field(default=None, repr=False, compare=False)

    # --- constructors -----------------------------------------------------

    def __post_init__(self):
        if self.kind == FINITE_FIELD:
            self._build_field_tables()
        elif self.kind == INTEGER_RING:
            self._build_ring_tables()
        else:
            raise UnsupportedFormalism(f"unknown kind {self.kind!r}")

    def _build_ring_tables(self):
        d = self.d
        object.__setattr__(self, "_add", tuple(
            tuple((a + b) % d for b in range(d)) for a in range(d)))
        object.__setattr__(self, "_neg", tuple((-a) % d for a in range(d)))
        mul = tuple(tuple((a * b) % d for b in range(d)) for a in range(d))
        inv = []
        for a in range(d):
            try:
                inv.append(pow(a, -1, d))
            except ValueError:
                inv.append(None)
        object.__setattr__(self, "_mul", mul)
        object.__setattr__(self, "_inv", tuple(inv))

    def _build_field_tables(self):
        p, m, d = self.p, self.m, self.d
        digits = [_digits(a, p, m) for a in range(d)]
        object.__setattr__(self, "_add", tuple(
            tuple(_undigits([x + y for x, y in zip(digits[a], digits[b])], p)
                  for b in range(d)) for a in range(d)))
        object.__setattr__(self, "_neg", tuple(
            _undigits([-x for x in digits[a]], p) for a in range(d)))
        mul = [[0] * d for _ in range(d)]
        for a in range(d):
            ca = _digits(a, p, m)
            for b in range(a, d):
                cb = _digits(b, p, m)
                v = _undigits(_poly_mul_mod(ca, cb, self.poly, p), p)
                mul[a][b] = v
                mul[b][a] = v
        mul = tuple(tuple(row) for row in mul)
        inv = [None] * d
        for a in range(1, d):
            for b in range(1, d):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ReduciblePolynomial(
                    f"element {a} has no inverse; polynomial not irreducible")
        tr = []
        for t in range(d):
            acc, cur = 0, t
            for _ in range(m):
                acc = self._add[acc][cur]
                cur = self._pow_static(cur, p, mul)
            digits = _digits(acc, p, m)
            if any(digits[1:]):
                raise ReduciblePolynomial("trace left the prime subfield")
            tr.append(digits[0])
        object.__setattr__(self, "_mul", mul)
        object.__setattr__(self, "_inv", tuple(inv))
        object.__setattr__(self, "_tr", tuple(tr))
        if self.gr_poly is not None:
            self._build_gr_tables()

    @staticmethod
    def _pow_static(a: int, k: int, mul) -> int:
        out = 1
        for _ in range(k):
            out = mul[out][a]
        return out

    def _build_gr_tables(self):
        m = self.m
        size = 4 ** m
        gmul = [[0] * size for _ in range(size)]
        for a in range(size):
            ca = _digits(a, 4, m)
            for b in range(a, size):
                cb = _digits(b, 4, m)
                v = _undigits(_poly_mul_mod(ca, cb, self.gr_poly, 4), 4)
                gmul[a][b] = v
                gmul[b][a] = v
        gtr = []
        for t in range(size):
            # trace of the multiplication-by-t matrix over the Z_4 module
            acc = 0
            ct = _digits(t, 4, m)
            for i in range(m):
                col = _poly_mul_mod(ct, tuple(1 if j == i else 0 for j in range(m)),
                                    self.gr_poly, 4)
                acc = (acc + col[i]) % 4
            gtr.append(acc)
        object.__setattr__(self, "_gr_mul", tuple(tuple(r) for r in gmul))
        object.__setattr__(self, "_gr_tr", tuple(gtr))

    # --- unified element arithmetic --------------------------------------

    @property
    def elements(self) -> range:
        return range(self.d)

    def add(self, a: int, b: int) -> int:
        return self._add[a % self.d][b % self.d]

    def neg(self, a: int) -> int:
        return self._neg[a % self.d]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a % self.d][b % self.d]

    def inv(self, a: int) -> int:
        v = self._inv[a % self.d]
        if v is None:
            raise ZeroInverse(f"{a} has no inverse in {self.label()}")
        return v

    def is_invertible(self, a: int) -> bool:
        return self._inv[a % self.d] is not None

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out = 1
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def scalar(self, k: int) -> int:
        """Image of the integer k in the ring/field (k * 1)."""
        if self.kind == INTEGER_RING:
            return k % self.d
        out = 0
        for _ in range(k % self.p):
            out = self.add(out, 1)
        return out

    @property
    def xi(self) -> int:
        """Canonical generator element written xi in formulas.

        Both roots of the F4 polynomial satisfy xi^2 = xi + 1; the printed
        reference matrices correspond to the root encoded as 3 here, so F4
        designates that one.  Other extensions use the digit vector (0,1).
        """
        if self.kind != FINITE_FIELD or self.m == 1:
            raise WrongCharacteristic("xi is defined for proper extensions")
        if (self.p, self.m) == (2, 2):
            return 3
        return self.p

    def label(self) -> str:
        if self.kind == INTEGER_RING:
            return f"Z_{self.d}"
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    @property
    def tables(self) -> ElementTables:
        """The tuple tables as read-only arrays, built on first use."""
        # not a functools.cached_property: a materialized instance __dict__
        # slows every attribute read of a DimSpec by about half
        if self._tables is None:
            add = np.array(self._add)
            chi = np.array([self.char_phase(t) for t in self.elements])
            tables = ElementTables(np.array(self._mul), add,
                                   add[:, list(self._neg)], chi)
            for t in tables:
                t.flags.writeable = False    # shared by every caller
            object.__setattr__(self, "_tables", tables)
        return self._tables

    # --- traces and characters -------------------------------------------

    def trace(self, t: int) -> int:
        if self.kind != FINITE_FIELD:
            raise WrongCharacteristic("trace requires a finite-field DimSpec")
        return self._tr[t % self.d]

    def char_phase(self, t: int) -> complex:
        """Additive character: omega_d^t (ring) or chi(t) = omega_p^{tr t}."""
        if self.kind == INTEGER_RING:
            return cmath.exp(2j * cmath.pi * (t % self.d) / self.d)
        return cmath.exp(2j * cmath.pi * self.trace(t) / self.p)

    def char_exp(self, t: int) -> int:
        """Exponent of char_phase(t) in units of 2*pi/phase_den."""
        if self.kind == INTEGER_RING:
            return (2 * (t % self.d)) % self.phase_den
        return (4 * self.trace(t)) % self.phase_den

    @property
    def phase_den(self) -> int:
        """Denominator of the exact Pauli phase lattice: 2d ring, 4p field."""
        if self.kind == INTEGER_RING:
            return 2 * self.d
        return 4 * self.p

    # --- Galois ring ------------------------------------------------------

    def _require_gr(self):
        if self.kind != FINITE_FIELD or self.p != 2:
            raise WrongCharacteristic("Galois-ring operations require p = 2")
        if self.m > 1 and self._gr_mul is None:
            raise UnsupportedFormalism(
                "no gr_poly configured for this GF(2^m); pass gr_poly explicitly")

    def gr_embed(self, a: int) -> int:
        """Coefficient-lift embedding of a field element into GR(4,m)."""
        self._require_gr()
        return _undigits(_digits(a, 2, self.m), 4)

    def gr_mul(self, a: int, b: int) -> int:
        self._require_gr()
        if self.m == 1:
            return (a * b) % 4
        return self._gr_mul[a][b]

    def gr_trace(self, t: int) -> int:
        self._require_gr()
        if self.m == 1:
            return t % 4
        return self._gr_tr[t]

    def chi4(self, t: int) -> complex:
        """chi_4(t) = i^{tr_4 t} for a Galois-ring element t."""
        return 1j ** self.gr_trace(t)

    # --- coefficient views ------------------------------------------------

    def coeffs_of(self, a: int) -> Tuple[int, ...]:
        if self.kind == INTEGER_RING:
            return (a % self.d,)
        return _digits(a, self.p, self.m)

    def elem_from_coeffs(self, coeffs: Sequence[int]) -> int:
        if self.kind == INTEGER_RING:
            return coeffs[0] % self.d
        if len(coeffs) != self.m:
            raise DimensionMismatch("coefficient vector has wrong length")
        return _undigits(coeffs, self.p)


def _check_poly(poly: Sequence[int], p: int, m: int) -> Tuple[int, ...]:
    poly = tuple(c % p for c in poly)
    if len(poly) != m + 1:
        raise ReduciblePolynomial(f"polynomial must have degree {m}")
    if poly[-1] != 1:
        raise ReduciblePolynomial("polynomial must be monic")
    if m in (2, 3):
        for x in range(p):
            if _poly_eval(poly, x, p) == 0:
                raise ReduciblePolynomial(f"xi = {x} is a root mod {p}")
    return poly


def _default_poly(p: int, m: int) -> Tuple[int, ...]:
    if (p, m) in _DEFAULT_POLY:
        return _DEFAULT_POLY[(p, m)]
    # first monic rootless polynomial (valid iff m <= 3)
    for low in range(p ** m):
        cand = _digits(low, p, m) + (1,)
        if all(_poly_eval(cand, x, p) != 0 for x in range(p)):
            return cand
    raise ReduciblePolynomial(f"no irreducible polynomial found for p={p}, m={m}")


def make_dim(kind: str, d: Optional[int] = None, p: Optional[int] = None,
             m: Optional[int] = None, poly: Optional[Sequence[int]] = None,
             gr_poly: Optional[Sequence[int]] = None) -> DimSpec:
    """Validated dimension descriptor with default polynomials when omitted.

    The arguments are checked on every call; the descriptor (and its
    tables) is built once per validated (kind, d, p, m, poly, gr_poly), so
    equal arguments, defaulted or explicit, give one shared object.
    """
    if kind == INTEGER_RING:
        if d is None or d < 2:
            raise DimensionMismatch("integer-ring dimension must satisfy d >= 2")
        return _dim_spec(INTEGER_RING, d)
    if kind != FINITE_FIELD:
        raise UnsupportedFormalism(f"unknown kind {kind!r}")
    if p is None or m is None:
        if d is None:
            raise DimensionMismatch("finite field needs (p, m) or d")
        p, m = _factor_prime_power(d)
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"p = {p} is not prime")
    if m < 1:
        raise DimensionMismatch("extension degree must be >= 1")
    if m > 3:
        raise UnsupportedFormalism("extension degree m > 3 is out of scope")
    dd = p ** m
    if d is not None and d != dd:
        raise DimensionMismatch(f"d = {d} != p^m = {dd}")
    if m == 1:
        poly_t = (0, 1) if poly is None else _check_poly(poly, p, m)
    else:
        poly_t = _default_poly(p, m) if poly is None else _check_poly(poly, p, m)
    gr_t = None
    if p == 2:
        if gr_poly is not None:
            gr_t = tuple(c % 4 for c in gr_poly)
        elif (2, m) in _DEFAULT_GR_POLY:
            gr_t = _DEFAULT_GR_POLY[(2, m)]
        elif m == 1:
            gr_t = None  # GR(4,1) = Z_4 needs no modulus
        if gr_t is not None:
            if len(gr_t) != m + 1 or gr_t[-1] % 4 != 1:
                raise ReduciblePolynomial("gr_poly must be monic of degree m")
            mod2 = tuple(c % 2 for c in gr_t)
            for x in range(2):
                if _poly_eval(mod2, x, 2) == 0:
                    raise ReduciblePolynomial("gr_poly reducible mod 2")
    return _dim_spec(FINITE_FIELD, dd, p, m, poly_t, gr_t)


@functools.lru_cache(maxsize=None)
def _dim_spec(kind: str, d: int, p: Optional[int] = None, m: int = 1,
              poly: Optional[Tuple[int, ...]] = None,
              gr_poly: Optional[Tuple[int, ...]] = None) -> DimSpec:
    return DimSpec(kind=kind, d=d, p=p, m=m, poly=poly, gr_poly=gr_poly)


def _factor_prime_power(d: int) -> Tuple[int, int]:
    if d < 2:
        raise DimensionMismatch("d >= 2 required")
    for q in range(2, d + 1):
        if d % q == 0:
            m = 0
            dd = d
            while dd % q == 0:
                dd //= q
                m += 1
            if dd != 1:
                raise DimensionMismatch(f"d = {d} is not a prime power")
            return q, m
    raise DimensionMismatch(f"d = {d} is not a prime power")


# --- JSON ----------------------------------------------------------------

def dim_to_json(dim: DimSpec) -> dict:
    if dim.kind == INTEGER_RING:
        return {"kind": "integer_ring", "d": dim.d}
    out = {"kind": "finite_field", "p": dim.p, "m": dim.m, "poly": list(dim.poly)}
    if dim.gr_poly is not None:
        out["gr_poly"] = list(dim.gr_poly)
    return out


def dim_from_json(obj: dict) -> DimSpec:
    obj = json_check(obj, dict, "dim")
    kind = obj["kind"]
    if kind == "integer_ring":
        return make_dim(INTEGER_RING, d=json_int(obj["d"], "d"))
    if kind == "finite_field":
        m = json_int(obj["m"], "m")
        polys = {key: json_array(obj[key], (None,), key, int).tolist()
                 for key in ("poly", "gr_poly") if obj.get(key) is not None}
        return make_dim(FINITE_FIELD, p=json_int(obj["p"], "p"), m=m,
                        **polys)
    raise DimensionMismatch(f"unknown dim kind {kind!r}")


class _JsonObject(dict):
    """A JSON object whose missing key raises DimensionMismatch naming
    the key and the object."""

    def __init__(self, obj: dict, what: str):
        super().__init__(obj)
        self.what = what

    def __missing__(self, key):
        raise DimensionMismatch(f"missing key {key!r} in {self.what}")


def json_check(obj, kind: type, what: str):
    """obj if it is a JSON array (kind list) or boolean (kind bool); a
    JSON object (kind dict) comes back as a dict that names a missing key
    when one is read."""
    if not isinstance(obj, kind):
        name = {dict: "object", list: "array", bool: "boolean"}[kind]
        raise DimensionMismatch(f"{what} must be a JSON {name}")
    return _JsonObject(obj, what) if kind is dict else obj


def json_int(value, what: str) -> int:
    """value if it is a JSON integer: an int that is not a bool, so that
    3.7, 3.0, "3" and true are refused rather than converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DimensionMismatch(f"{what} must be an integer")
    return value


def _json_leaves(value) -> list:
    """The scalars of a nested JSON array, or [value] for a scalar."""
    if not isinstance(value, list):
        return [value]
    return [leaf for v in value for leaf in _json_leaves(v)]


def json_array(value, shape: Tuple[Optional[int], ...], what: str,
               dtype=float) -> np.ndarray:
    """value as a finite numeric array of the shape; None matches any size.
    An int array takes JSON integers only, as json_int does."""
    if dtype is int and any(isinstance(v, bool) or not isinstance(v, int)
                            for v in _json_leaves(value)):
        raise DimensionMismatch(f"{what} must be an array of integers")
    try:
        arr = np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise DimensionMismatch(f"{what} is not a numeric array") from None
    if arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        want = ", ".join("n" if s is None else str(s) for s in shape)
        got = ", ".join(str(s) for s in arr.shape)
        raise DimensionMismatch(
            f"{what} must have shape ({want}), got ({got})")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{what} has a NaN or infinite entry")
    return arr


def json_complex(value, shape: Tuple[Optional[int], ...],
                 what: str) -> np.ndarray:
    """Complex array from nested [re, im] pairs of the given shape."""
    return json_array(value, tuple(shape) + (2,), what).view(complex)[..., 0]


def complex_to_json(arr) -> list:
    """Nested [re, im] pairs of a complex array, as json_complex reads."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()
