"""Compilation of single-qudit unitaries and Cliffords into measurement
patterns over the gate set {G_I * D_phi}.

A pattern is an ordered list of diagonal rotations; step 0 is applied first
(the rightmost factor).  The dense product of the steps equals
phase * frame * U for the declared Pauli frame.  Both compilers emit native
words directly: a unitary's steps are the solved phases of
G D_{L-1} ... G D_0 (identity frame), a Clifford's are the shears of its
class's shortest word G S(l_{k-1}) ... G S(l_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .clifford import certify, universality_check
from .errors import (
    CompilationDiverged,
    DimensionMismatch,
    OrderCapExceeded,
    UniversalityViolated,
    UnsupportedFormalism,
)
from .galois import (
    INTEGER_RING,
    DimSpec,
    complex_to_json,
    dim_from_json,
    dim_to_json,
    is_prime,
    json_array,
    json_check,
    json_complex,
)
from .gates import dphi, shear_gate
from .pauli import (
    PauliWord,
    identity_word,
    match_pauli,
    pauli_from_json,
    pauli_to_json,
)
from .resource import (
    EntanglingGateSpec,
    IntrinsicGate,
    gate_from_json,
    gate_to_json,
    intrinsic_from_matrix,
    intrinsic_of,
)
from .sim import require_unitary

RESIDUAL_TOL = 1e-6
MAX_RESTARTS = 32
MAX_SWEEPS = 500
BASIN_TOL = 1e-2       # ALS hands over to the polish below this residual
POLISH_FLOOR = 1e-12   # the polish stops at this residual
POLISH_STEPS = 30


def _check_compilable(dim: DimSpec):
    if dim.kind == INTEGER_RING and not is_prime(dim.d):
        raise UnsupportedFormalism(
            "composite integer-ring dimensions have no MUB-based "
            "decomposition; use a prime or prime-power dimension")


# --- measurement patterns -------------------------------------------------

@dataclass
class PatternStep:
    phases: np.ndarray
    adaptive: bool


@dataclass
class CompileStats:
    """How compile_unitary reached its phases, summed over attempts."""
    residual: float = 0.0
    als_runs: int = 0
    als_sweeps: int = 0
    polish_steps: int = 0


@dataclass
class MeasurementPattern:
    dim: DimSpec
    intrinsic: IntrinsicGate
    steps: List[PatternStep]
    frame: PauliWord
    gate: Optional[EntanglingGateSpec] = None
    stats: Optional[CompileStats] = None

    def step_count(self) -> int:
        return len(self.steps)

    def dense_product(self) -> np.ndarray:
        """Product of (G_I D_phi) factors, step 0 rightmost."""
        out = np.eye(self.dim.d, dtype=complex)
        for step in self.steps:
            out = (self.intrinsic.matrix @ dphi(step.phases)) @ out
        return out


# --- single-qudit unitary compilation -------------------------------------

def _als_run(U: np.ndarray, Ks: np.ndarray, phis: np.ndarray
             ) -> Tuple[np.ndarray, int]:
    """Alternating exact maximization of |tr(U^dag V)| over group phases,
    until V is in the basin (1 - |tr|/d < BASIN_TOL) or a sweep stalls.
    Returns the phases and the number of sweeps."""
    m, d, _ = Ks.shape
    Ud, Kd = U.conj().T, Ks.conj().transpose(0, 2, 1)
    F = Ks @ (np.exp(1j * phis)[:, :, None] * Kd)
    best = 0.0
    for sweep in range(1, MAX_SWEEPS + 1):
        suffix = [np.eye(d)] * m
        for j in range(m - 1, 0, -1):
            suffix[j - 1] = F[j] @ suffix[j]
        L = np.eye(d)
        for j, K in enumerate(Ks):
            diag = (K.conj() * (suffix[j] @ Ud @ L @ K)).sum(axis=0)
            phis[j] = np.where(np.abs(diag) > 1e-14,
                               -np.angle(diag), phis[j])
            F[j] = K @ (np.exp(1j * phis[j])[:, None] * Kd[j])
            L = L @ F[j]
        val = abs(np.trace(Ud @ L)) / d
        gain, best = val - best, max(best, val)
        if 1.0 - val < BASIN_TOL or gain < 1e-13:
            break
    return phis, sweep


def _torus(Ks: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """V(x) = prod_j K_j D(x_j) K_j^dag and dV/dx as a (2 d^2, m d) real
    matrix (real parts over imaginary parts; x flat over group, then k)."""
    m, d, _ = Ks.shape
    E = np.exp(1j * x).reshape(m, d)
    Kd = Ks.conj().transpose(0, 2, 1)
    F = Ks @ (E[:, :, None] * Kd)
    prefix, suffix = np.empty_like(F), np.empty_like(F)
    prefix[0] = suffix[m - 1] = np.eye(d)
    for j in range(1, m):
        prefix[j] = prefix[j - 1] @ F[j - 1]
        suffix[m - 1 - j] = F[m - j] @ suffix[m - j]
    # dV/dx_jk = i e^{i x_jk} (P_j K_j)[:, k] (K_j^dag S_j)[k, :]
    J = np.einsum("jak,jkb->abjk", (prefix @ Ks) * (1j * E)[:, None, :],
                  Kd @ suffix).reshape(d * d, m * d)
    return prefix[m - 1] @ F[m - 1], np.concatenate([J.real, J.imag])


def _polish(U: np.ndarray, Ks: np.ndarray, phis: np.ndarray
            ) -> Tuple[np.ndarray, float, int]:
    """Levenberg-Marquardt on the phase torus toward 1 - |tr(U^dag V)|/d = 0.

    The residual V - (T/|T|) U, T = tr(U^dag V), has squared norm
    2d(1 - |T|/d).  Each group's global phase is free, so J^T J is rank
    deficient; the damping mu I keeps every step solvable.  Returns the
    phases, |T|/d and the number of accepted steps.
    """
    d = U.shape[0]

    def fit(x):
        V, J = _torus(Ks, x)
        T = np.vdot(U, V)
        r = (V - np.exp(1j * np.angle(T)) * U).ravel()
        return 1.0 - abs(T) / d, np.concatenate([r.real, r.imag]), J

    x = phis.ravel()
    res, r, J = fit(x)
    mu, steps = 1e-3, 0
    while res > POLISH_FLOOR and steps < POLISH_STEPS:
        A, g = J.T @ J, J.T @ r
        for _ in range(8):
            x_new = x - np.linalg.solve(A + mu * np.eye(x.size), g)
            new = fit(x_new)
            if new[0] < res:
                break
            mu *= 10
        else:
            break
        x, (res, r, J) = x_new, new
        mu /= 10
        steps += 1
    return x.reshape(phis.shape), 1.0 - res, steps


def _lengths(intrinsic: IntrinsicGate) -> Tuple[int, int]:
    """Native word lengths, tried in order: d + 1 steps for qubits and d + 2
    otherwise (a step has d - 1 free phases and PU(d) has d^2 - 1
    dimensions, so no word is shorter than d + 1), then the paper's bound
    d * o, o the Pauli order of G_I."""
    d = intrinsic.dim.d
    return d + 1 if d == 2 else d + 2, d * intrinsic.pauli_order


def _powers(G: np.ndarray, L: int) -> np.ndarray:
    """The native word's conjugators K_j = G^{j+1}, j < L (see _solve)."""
    Ks = [G]
    for _ in range(L - 1):
        Ks.append(G @ Ks[-1])
    return np.stack(Ks)


def _solve(U: np.ndarray, G: np.ndarray, L: int, seed: int,
           stats: CompileStats) -> Tuple[np.ndarray, float]:
    """Phases of the native word G D_{L-1} ... G D_0 closest to U (step 0
    first) and its residual 1 - |tr(U^dag V)|/d; the work joins `stats`.

    With K_j = G^{j+1}, prod_j K_j D_j K_j^dag = G D_0 G D_1 ... G D_{L-1}
    G^{-L}, so the groups are fitted to U G^{-L} and read in reverse.  Each
    attempt runs ALS into the basin, then polishes to the floor; the first
    starts from zero phases, each restart from random ones.
    """
    d = G.shape[0]
    Ks = _powers(G, L)
    target = U @ Ks[-1].conj().T
    rng = np.random.default_rng(seed)
    start = np.zeros((L, d))
    best, best_phis = -1.0, start
    for _ in range(MAX_RESTARTS + 1):
        phis, sweeps = _als_run(target, Ks, start)
        phis, val, steps = _polish(target, Ks, phis)
        stats.als_runs += 1
        stats.als_sweeps += sweeps
        stats.polish_steps += steps
        if val > best:
            best, best_phis = val, phis
        if 1.0 - best <= RESIDUAL_TOL * 1e-3:
            break
        start = rng.uniform(-math.pi, math.pi, (L, d))
    return best_phis[::-1], 1.0 - best


def compile_unitary(U: np.ndarray, intrinsic: IntrinsicGate,
                    seed: int = 0) -> MeasurementPattern:
    """Measurement pattern realizing U up to a global phase, identity frame.

    The steps are the phases of the native word G D_{L-1} ... G D_0 (see
    _solve), at the first length of _lengths whose residual is within
    RESIDUAL_TOL.  The pattern's `stats` hold that residual
    1 - |tr(U^dag V)|/d and the work spent over both lengths.  A target
    that fails sim.require_unitary raises NonUnitary before any ALS sweep.
    """
    dim = intrinsic.dim
    _check_compilable(dim)
    d = dim.d
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise DimensionMismatch("target size does not match the dimension")
    require_unitary(U, "target is not unitary")
    ok, _ = universality_check(intrinsic.certificate())
    if not ok:
        raise UniversalityViolated("intrinsic gate cannot reach a Hadamard")
    G = intrinsic.matrix
    frame = identity_word(dim, 1)
    # short-circuit: the gate itself
    r = match_pauli(dim, 1, U @ G.conj().T)
    if r is not None and r[1].is_identity():
        return MeasurementPattern(
            dim, intrinsic, [PatternStep(np.zeros(d), True)], frame,
            stats=CompileStats(float(1.0 - abs(np.vdot(U, G)) / d)))
    stats = CompileStats()
    for L in _lengths(intrinsic):
        phis, res = _solve(U, G, L, seed, stats)
        if res <= RESIDUAL_TOL:
            break
    else:
        raise CompilationDiverged(
            f"residual {res:.3e} after {MAX_RESTARTS} restarts at {L} steps")
    stats.residual = float(res)
    return MeasurementPattern(dim, intrinsic,
                              [PatternStep(p, True) for p in phis], frame,
                              stats=stats)


def compile_clifford(C: np.ndarray, intrinsic: IntrinsicGate
                     ) -> MeasurementPattern:
    """Non-adaptive pattern realizing the Clifford C up to a Pauli frame.

    The steps are the shear diagonals of the shortest native word
    G S(l_{k-1}) ... G S(l_0) in C's class (IntrinsicGate.clifford_words);
    the frame is read from the dense product.  UnsupportedFormalism if no
    such word exists, e.g. for a semilinear C and a linear G_I.
    """
    dim = intrinsic.dim
    word = intrinsic.clifford_words.get(certify(C, dim, 1).class_key())
    if word is None:
        raise UnsupportedFormalism("target Clifford is not a product of the "
                                   "intrinsic gate and shears")
    steps = [PatternStep(np.angle(np.diag(shear_gate(dim, l))), False)
             for l in word]
    pat = MeasurementPattern(dim, intrinsic, steps, identity_word(dim, 1))
    # dense audit: steps product must equal phase * frame * C
    r = match_pauli(dim, 1, pat.dense_product() @ np.asarray(C).conj().T)
    if r is None:
        raise CompilationDiverged("Clifford word failed the dense audit")
    pat.frame = r[1]
    return pat


def transport_pattern(intrinsic: IntrinsicGate) -> MeasurementPattern:
    """o^P identity-rotation steps; the realized product is a Pauli word."""
    dim = intrinsic.dim
    if intrinsic.pauli_order is None:
        raise OrderCapExceeded(f"no power up to {dim.d ** 2} is a Pauli word")
    steps = [PatternStep(np.zeros(dim.d), False)
             for _ in range(intrinsic.pauli_order)]
    return MeasurementPattern(dim, intrinsic, steps, intrinsic.order_word)


# --- JSON ----------------------------------------------------------------

def pattern_to_json(p: MeasurementPattern) -> dict:
    obj = {
        "dim": dim_to_json(p.dim),
        "intrinsic": gate_to_json(p.gate) if p.gate is not None else None,
        "steps": [{"phases": [float(v) for v in s.phases],
                   "adaptive": bool(s.adaptive)} for s in p.steps],
        "frame": pauli_to_json(p.frame),
    }
    if p.gate is None:
        obj["intrinsic_matrix"] = complex_to_json(p.intrinsic.matrix)
    return obj


def pattern_from_json(obj: dict) -> MeasurementPattern:
    obj = json_check(obj, dict, "pattern")
    dim = dim_from_json(obj["dim"])
    d = dim.d
    if obj.get("intrinsic") is not None:
        gate = gate_from_json(obj["intrinsic"])
        if gate.dim != dim:
            raise DimensionMismatch("intrinsic gate and pattern dimensions "
                                    "differ")
        intr = intrinsic_of(gate)
    else:
        gate = None
        M = json_complex(obj["intrinsic_matrix"], (d, d), "intrinsic_matrix")
        intr = intrinsic_from_matrix(dim, M)
    steps = []
    for s in json_check(obj["steps"], list, "steps"):
        s = json_check(s, dict, "step")
        steps.append(PatternStep(json_array(s["phases"], (d,), "phases"),
                                 json_check(s["adaptive"], bool, "adaptive")))
    frame = pauli_from_json(dim, obj["frame"])
    return MeasurementPattern(dim, intr, steps, frame, gate)
