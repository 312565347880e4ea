"""Exact arithmetic in Z_d, GF(p^m) and the Galois ring GR(4,m).

Field elements are encoded as integers in [0, d): the element
a_0 + a_1*xi + ... + a_{m-1}*xi^{m-1} is the integer with base-p digits
(a_0, ..., a_{m-1}), a_0 least significant.  Galois-ring elements use the
same encoding with base-4 digits.  Integer-ring elements are plain residues
mod d.  One builder, _ring_tables, makes every table: Z_d is Z_d[xi]/(xi),
GF(p^m) is Z_p[xi]/(poly) and GR(4,m) is Z_4[xi]/(gr_poly).  A DimSpec
builds its tables once: as read-only arrays (tables) and as nested tuples
of Python ints (ints), which its scalar methods and the engine's rows index.
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
    StateTooLarge,
    UnsupportedFormalism,
    WrongCharacteristic,
    ZeroInverse,
)

INTEGER_RING = "integer_ring"
FINITE_FIELD = "finite_field"
MAX_AMPS = 10 ** 6    # the amplitude budget: entries of any one array (budget)


def budget(count: int, what: str, *args):
    """StateTooLarge, before an array of count entries is built, when they
    exceed MAX_AMPS: "<what.format(*args)> exceed the ... amplitude budget"."""
    if count > MAX_AMPS:
        raise StateTooLarge(f"{what.format(*args)} exceed the {MAX_AMPS} "
                            f"amplitude budget")


# default lifts to Z_4, taken when they lift poly
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


def _ring_tables(q: int, poly: Sequence[int]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mul, add and trace tables of Z_q[xi]/(poly), poly monic of degree m,
    on the base-q digit encoding.  trace[t] is the trace of the Z_q-linear
    map x -> t x: for a field the standard trace, for GR(4, m) tr_4.
    Z_d is (d, xi), GF(p^m) is (p, poly), GR(4, m) is (4, gr_poly)."""
    m = len(poly) - 1
    weights = q ** np.arange(m)
    digits = np.arange(q ** m)[:, None] // weights % q
    add = (digits[:, None] + digits) % q @ weights
    # cols[j][a] holds the digits of a xi^j: xi v shifts v up one place
    # and replaces xi^m by -(poly[0] + ... + poly[m-1] xi^(m-1))
    cols = [digits]
    for _ in range(m - 1):
        v = cols[-1]
        up = np.pad(v[:, :-1], ((0, 0), (1, 0)))
        cols.append((up - v[:, -1:] * np.array(poly[:m])) % q)
    # a b = sum_j b_j (a xi^j), digit by digit
    mul = sum(c[:, None] * digits[:, j, None]
              for j, c in enumerate(cols)) % q @ weights
    trace = sum(c[:, j] for j, c in enumerate(cols)) % q
    return mul, add, trace


# DimSpec.tables, which every dense builder indexes: mul[a, b] = a b,
# add[a, b] = a + b, sub[a, b] = a - b and chi[t] = char_phase(t)
ElementTables = collections.namedtuple("ElementTables", "mul add sub chi")
# DimSpec.ints, as Python ints: mul[a][b], add[a][b], neg[a] = -a and
# char_exp[t], the exponent of char_phase(t) over phase_den
IntTables = collections.namedtuple("IntTables", "mul add neg char_exp")


@dataclass(frozen=True)
class DimSpec:
    """Dimension descriptor for one qudit: Z_d or GF(p^m) (+ GR(4,m) lift).

    base is the digit modulus, d for Z_d and p for GF(p^m), and tables the
    read-only arrays of _ring_tables; ints are the same tables as tuples of
    Python ints, which the scalar methods read, so they return Python ints."""

    kind: str
    d: int
    p: Optional[int] = None
    m: int = 1
    poly: Optional[Tuple[int, ...]] = None
    gr_poly: Optional[Tuple[int, ...]] = None
    base: int = field(init=False, repr=False, compare=False)
    tables: ElementTables = field(init=False, repr=False, compare=False)
    ints: IntTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (INTEGER_RING, FINITE_FIELD):
            raise UnsupportedFormalism(f"unknown kind {self.kind!r}")
        base = self.p if self.kind == FINITE_FIELD else self.d
        mul, add, trace = _ring_tables(base, self.poly or (0, 1))
        one = mul == 1
        inv = [b if unit else None for b, unit in
               zip(one.argmax(axis=1).tolist(), one.any(axis=1))]
        if self.kind == FINITE_FIELD and None in inv[1:]:
            raise ReduciblePolynomial(f"element {inv.index(None, 1)} has no "
                                      "inverse; polynomial not irreducible")
        neg = (add == 0).argmax(axis=1)
        tr = trace.tolist()
        chi = [cmath.exp(2j * cmath.pi * t / base) for t in tr]
        tables = ElementTables(mul, add, add[:, neg], np.array(chi))
        for t in tables:
            t.flags.writeable = False    # shared by every caller
        gr_mul = gr_tr = None
        if self.p == 2:    # GR(4, 1) = Z_4 is Z_4[xi]/(xi)
            gr_mul, _, gr_tr = (t.tolist() for t in
                                _ring_tables(4, self.gr_poly or (0, 1)))
        scale = self.phase_den // base
        ints = IntTables(*(tuple(map(tuple, t.tolist())) for t in (mul, add)),
                         tuple(neg.tolist()), tuple(scale * t for t in tr))
        for name, value in (
                ("base", base), ("tables", tables), ("ints", ints),
                ("_inv", inv), ("_tr", tr), ("_chi", chi),
                ("_gr_mul", gr_mul), ("_gr_tr", gr_tr)):
            object.__setattr__(self, name, value)

    # --- unified element arithmetic --------------------------------------

    @property
    def elements(self) -> range:
        return range(self.d)

    def add(self, a: int, b: int) -> int:
        return self.ints.add[a % self.d][b % self.d]

    def neg(self, a: int) -> int:
        return self.ints.neg[a % self.d]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self.ints.mul[a % self.d][b % self.d]

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
        return k % self.base

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

    # --- traces and characters -------------------------------------------

    def trace(self, t: int) -> int:
        if self.kind != FINITE_FIELD:
            raise WrongCharacteristic("trace requires a finite-field DimSpec")
        return self._tr[t % self.d]

    def char_phase(self, t: int) -> complex:
        """Additive character: omega_d^t (ring) or chi(t) = omega_p^{tr t}."""
        return self._chi[t % self.d]

    def char_exp(self, t: int) -> int:
        """Exponent of char_phase(t) in units of 2*pi/phase_den."""
        return self.ints.char_exp[t % self.d]

    @property
    def phase_den(self) -> int:
        """Denominator of the exact Pauli phase lattice: 2d ring, 4p field."""
        if self.kind == INTEGER_RING:
            return 2 * self.d
        return 4 * self.p

    # --- Galois ring ------------------------------------------------------

    def _require_gr(self):
        if self._gr_mul is None:
            raise WrongCharacteristic("Galois-ring operations require p = 2")

    def gr_embed(self, a: int) -> int:
        """Coefficient-lift embedding of a field element into GR(4,m)."""
        self._require_gr()
        return _undigits(_digits(a, 2, self.m), 4)

    def gr_mul(self, a: int, b: int) -> int:
        self._require_gr()
        return self._gr_mul[a][b]

    def gr_trace(self, t: int) -> int:
        self._require_gr()
        return self._gr_tr[t]

    def chi4(self, t: int) -> complex:
        """chi_4(t) = i^{tr_4 t} for a Galois-ring element t."""
        return 1j ** self.gr_trace(t)

    # --- coefficient views ------------------------------------------------

    def coeffs_of(self, a: int) -> Tuple[int, ...]:
        return _digits(a, self.base, self.m)

    def elem_from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) != self.m:
            raise DimensionMismatch("coefficient vector has wrong length")
        return _undigits(coeffs, self.base)


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
    # the first monic rootless polynomial (valid iff m <= 3), low-to-high:
    # xi^2 + xi + 1 for GF(4), xi^3 + xi + 1 for GF(8), xi^2 + 1 for GF(9)
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
    equal arguments, defaulted or explicit, give one shared object.  A d or
    p^m whose d^2 exceeds MAX_AMPS raises StateTooLarge, decided from the
    arguments before any primality test, factoring or table.
    """
    if kind == INTEGER_RING:
        if d is None or d < 2:
            raise DimensionMismatch("integer-ring dimension must satisfy d >= 2")
        _check_size(d)
        return _dim_spec(INTEGER_RING, d)
    if kind != FINITE_FIELD:
        raise UnsupportedFormalism(f"unknown kind {kind!r}")
    if p is None or m is None:
        if d is None:
            raise DimensionMismatch("finite field needs (p, m) or d")
        _check_size(d)
        p, m = _factor_prime_power(d)
    _check_size(p, m)
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
        elif m > 1:
            # the default lift if it lifts poly, else poly read over Z_4
            lift = _DEFAULT_GR_POLY[(2, m)]
            gr_t = lift if tuple(c % 2 for c in lift) == poly_t else poly_t
        if gr_t is not None:
            if len(gr_t) != m + 1 or gr_t[-1] % 4 != 1:
                raise ReduciblePolynomial("gr_poly must be monic of degree m")
            mod2 = tuple(c % 2 for c in gr_t)
            for x in range(2):
                if _poly_eval(mod2, x, 2) == 0:
                    raise ReduciblePolynomial("gr_poly reducible mod 2")
            if mod2 != poly_t:
                raise ReduciblePolynomial(
                    "gr_poly does not reduce to poly mod 2")
    return _dim_spec(FINITE_FIELD, dd, p, m, poly_t, gr_t)


def _check_size(q: int, m: int = 1):
    """The budget of a dimension q^m's d x d tables, q^m not formed for a
    large m: every q >= 2 has q^10 > 1000."""
    if q > 1 and m > 0:
        budget((int(q) ** min(int(m), 10)) ** 2,
               "dimension {} squared table entries",
               q if m == 1 else f"{q}^{m}")


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


def _leaf_types(value) -> set:
    """The types of a nested JSON array's scalars, or {type(value)} for a
    scalar; each pass flattens one nesting level."""
    leaves, kinds = [value], {type(value)}
    while list in kinds:
        leaves = [u for v in leaves for u in (v if type(v) is list else (v,))]
        kinds = set(map(type, leaves))
    return kinds


def json_array(value, shape: Tuple[Optional[int], ...], what: str,
               dtype=float) -> np.ndarray:
    """value as a finite numeric array of the shape; None matches any size.
    An int array takes JSON integers only, as json_int does, and no array
    takes JSON booleans."""
    kinds = _leaf_types(value)
    if bool in kinds or dtype is int and any(not issubclass(k, int)
                                             for k in kinds):
        kind = "integers" if dtype is int else "numbers"
        raise DimensionMismatch(f"{what} must be an array of {kind}")
    try:
        arr = np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise DimensionMismatch(f"{what} is not a numeric array") from None
    if arr.shape != shape and (arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape))):
        want = ", ".join("n" if s is None else str(s) for s in shape)
        got = ", ".join(str(s) for s in arr.shape)
        raise DimensionMismatch(
            f"{what} must have shape ({want}), got ({got})")
    if dtype is not int and not np.isfinite(arr).all():    # ints are finite
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
