"""Correctness checks that do not trust the code under test.

The compile check rebuilds the pattern's product from the emitted JSON with
numpy.  Only the intrinsic gate G_I comes from the library
(``resource.intrinsic_of``); the Pauli frame and field arithmetic are
rebuilt here from the definitions: Z(a)|u> = chi(a u)|u>, X(b)|u> = |u + b>.
"""

from __future__ import annotations

import cmath
import json
from typing import List, Optional, Sequence, Tuple

import numpy as np

COMPILE_TOL = 1e-6
RUN_FIDELITY = 1 - 1e-9


# --- arithmetic of Z_d and GF(p^m), element = sum_i c_i p^i ----------------

def _digits(v: int, p: int, m: int) -> List[int]:
    return [(v // p ** i) % p for i in range(m)]


def _undigits(c: Sequence[int], p: int) -> int:
    return sum(int(x) % p * p ** i for i, x in enumerate(c))


def _poly_mulmod(a, b, poly, p) -> List[int]:
    m = len(poly) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        prod[k] = 0
        for j in range(m):
            prod[k - m + j] = (prod[k - m + j] - c * poly[j]) % p
    return prod[:m]


class Arithmetic:
    """Addition, multiplication and the additive character of a DimSpec
    given as JSON."""

    def __init__(self, dim_json: dict):
        if dim_json["kind"] == "integer_ring":
            d = int(dim_json["d"])
            self.d, self.p, self.m = d, d, 1
            self.add = np.fromfunction(lambda a, b: (a + b) % d, (d, d),
                                       dtype=int)
            self.mul = np.fromfunction(lambda a, b: (a * b) % d, (d, d),
                                       dtype=int)
            self.chi = np.exp(2j * np.pi * np.arange(d) / d)
            return
        p, m = int(dim_json["p"]), int(dim_json["m"])
        poly = [int(c) % p for c in dim_json["poly"]]
        d = p ** m
        self.d, self.p, self.m = d, p, m
        self.add = np.zeros((d, d), dtype=int)
        self.mul = np.zeros((d, d), dtype=int)
        for a in range(d):
            ca = _digits(a, p, m)
            for b in range(d):
                cb = _digits(b, p, m)
                self.add[a, b] = _undigits([x + y for x, y in zip(ca, cb)], p)
                self.mul[a, b] = _undigits(_poly_mulmod(ca, cb, poly, p), p)
        chi = []
        for t in range(d):
            # tr(t) = t + t^p + ... + t^(p^(m-1)) lies in the prime field
            acc, power = 0, t
            for _ in range(m):
                acc = self.add[acc, power]
                power = self._pow(power, p)
            tr = _digits(acc, p, m)
            if any(tr[1:]):
                raise ValueError("field trace left the prime subfield")
            chi.append(cmath.exp(2j * cmath.pi * tr[0] / p))
        self.chi = np.array(chi)

    def _pow(self, a: int, k: int) -> int:
        out = 1
        for _ in range(k):
            out = self.mul[out, a]
        return out

    def element(self, coeffs: Sequence[int]) -> int:
        return _undigits(coeffs, self.p)

    def z(self, a: int) -> np.ndarray:
        return np.diag(self.chi[self.mul[a, :]])

    def x(self, b: int) -> np.ndarray:
        out = np.zeros((self.d, self.d), dtype=complex)
        out[self.add[np.arange(self.d), b], np.arange(self.d)] = 1.0
        return out


# --- compile --------------------------------------------------------------

def pattern_product(G: np.ndarray, phases: List[Sequence[float]]
                    ) -> np.ndarray:
    """prod (G D_phi) with step 0 the rightmost factor."""
    V = np.eye(G.shape[0], dtype=complex)
    for ph in phases:
        V = G @ np.diag(np.exp(1j * np.asarray(ph, dtype=float))) @ V
    return V


def frame_matrix(arith: Arithmetic, frame: dict) -> np.ndarray:
    """Z-part times X-part of a one-qudit frame word; its phase is ignored."""
    (zc,), (xc,) = frame["z"], frame["x"]
    return arith.z(arith.element(zc)) @ arith.x(arith.element(xc))


def intrinsic(gate_json: dict) -> Tuple[np.ndarray, Optional[int]]:
    """G_I and its Pauli order, from the library's resource module."""
    from quditmbqc.resource import gate_from_json, intrinsic_of
    intr = intrinsic_of(gate_from_json(gate_json))
    return np.asarray(intr.matrix, dtype=complex), intr.pauli_order


def compile_residual(pattern: dict, U: np.ndarray) -> float:
    """1 - |tr(U^dag F^dag V)| / d for the pattern's product V and frame F."""
    G, _ = intrinsic(pattern["intrinsic"])
    V = pattern_product(G, [s["phases"] for s in pattern["steps"]])
    F = frame_matrix(Arithmetic(pattern["dim"]), pattern["frame"])
    d = U.shape[0]
    return 1.0 - abs(np.trace(U.conj().T @ F.conj().T @ V)) / d


def check_compile_report(text: str, U: np.ndarray) -> Optional[str]:
    """None when a `compile` report realises U within the step bound."""
    try:
        report = json.loads(text)
        results = report["results"]
        pattern = results["pattern"]
        steps = len(pattern["steps"])
        if results["steps"] != steps:
            return f"steps field {results['steps']} != {steps} steps"
        G, order = intrinsic(pattern["intrinsic"])
        d = G.shape[0]
        if order is None or steps > d * order:
            return f"{steps} steps exceed d*o = {d}*{order}"
        res = compile_residual(pattern, U)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed compile report: {exc!r}"
    if not res < COMPILE_TOL:
        return f"residual {res:.3e} >= {COMPILE_TOL}"
    return None


# --- run ------------------------------------------------------------------

def check_run_report(rc: int, text: str, trials: int) -> Optional[str]:
    """None when a `run` report succeeded with every trial verified."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        results = json.loads(text)["results"]
        got, fid = results["trials"], results["min_fidelity"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed run report: {exc!r}"
    if got != trials:
        return f"trials {got} != {trials} requested"
    if not fid >= RUN_FIDELITY:
        return f"min_fidelity {fid!r} below {RUN_FIDELITY!r}"
    return None
