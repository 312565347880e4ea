"""Compilation of single-qudit unitaries and Cliffords into measurement
patterns over the gate set {G_I * D_phi}.

A pattern is an ordered list of diagonal rotations; step 0 is applied first
(the rightmost factor).  The dense product of the steps equals
phase * frame * U for the declared Pauli frame.  Both compilers emit native
words directly: a unitary's steps are the phases of G D_{L-1} ... G D_0
fitted to U itself (identity frame), a Clifford's are the shears of its
class's shortest word G S(l_{k-1}) ... G S(l_0).
"""

from __future__ import annotations

import functools
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
    DimSpec,
    budget,
    complex_to_json,
    dim_from_json,
    dim_to_json,
    json_array,
    json_check,
    json_complex,
)
from .gates import shear_gate
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
# ALS hands over to the polish below this residual: ALS converges linearly,
# and past about 0.1 a sweep buys less than one quadratic polish step
BASIN_TOL = 1e-1
POLISH_FLOOR = 1e-12   # the polish stops at this residual
POLISH_STEPS = 30


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
        """Product of (G_I D_phi) factors, step 0 rightmost, by one np.exp
        and one stacked matmul G_I @ D_phi."""
        d, S = self.dim.d, len(self.steps)
        D = np.zeros((S, d, d), dtype=complex)
        D[:, range(d), range(d)] = np.exp(1j * np.array(
            [step.phases for step in self.steps], dtype=float).reshape(S, d))
        return functools.reduce(lambda out, GD: GD @ out,
                                self.intrinsic.matrix @ D, np.eye(d) + 0j)


# --- single-qudit unitary compilation -------------------------------------

def _als_run(U: np.ndarray, G: np.ndarray, phis: np.ndarray
             ) -> Tuple[np.ndarray, int]:
    """Alternating exact maximization of |tr(U^dag W)| over the groups of
    W = G D_0 G D_1 ... G D_{L-1}, until W is in the basin (1 - |tr|/d <
    BASIN_TOL, where the polish takes over) or a sweep stalls; returns the
    phases and the sweeps.  With A = G D_0 ... G D_{j-1} G and B = G
    D_{j+1} ... G D_{L-1}, |tr(U^dag W)| = |sum_k D_jk diag(B U^dag A)_k|
    peaks at D_jk = conj(diag_k)/|diag_k|.  Groups are kept as these unit
    factors (a step G D_j scales G's columns) and read as angles once, at
    the end."""
    L, d = phis.shape
    E = np.exp(1j * phis)
    R = [U.conj().T] * L                 # R_j = B U^dag
    best = 0.0
    for sweep in range(1, MAX_SWEEPS + 1):
        for j in range(L - 1, 0, -1):
            R[j - 1] = G @ (E[j][:, None] * R[j])
        for j in range(L):
            A = W @ G if j else G
            diag = (R[j] @ A).diagonal()
            mod = np.abs(diag)
            np.divide(diag.conj(), mod, out=E[j], where=mod > 1e-14)
            W = A * E[j]
        val = abs(np.vdot(U, W)) / d
        gain, best = val - best, max(best, val)
        if 1.0 - val < BASIN_TOL or gain < 1e-13:
            break
    return np.angle(E), sweep


def _word(G: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """W(x) = G D(x_0) ... G D(x_{L-1}) and its prefixes P_j G, P_j =
    G D(x_0) ... G D(x_{j-1}), as (L, d, d) (x flat over group, then k)."""
    d = G.shape[0]
    E = np.exp(1j * x).reshape(-1, d)
    PG = np.empty((len(E), d, d), complex)
    PG[0] = G
    for j in range(1, len(E)):
        np.matmul(PG[j - 1] * E[j - 1], G, out=PG[j])
    return PG[-1] * E[-1], PG


def _jacobian(W: np.ndarray, PG: np.ndarray) -> np.ndarray:
    """dW/dx of _word's W and prefixes PG as an (L d, 2 d^2) real matrix:
    row jk is dW/dx_jk, W's complex entries row by row viewed as
    interleaved (real, imaginary) pairs."""
    # dW/dx_jk = i e^{i x_jk} (P_j G)[:, k] Q_j[k, :] with Q_j the steps after
    # j; every step is unitary, so e^{i x_jk} Q_j[k, :] = ((P_j G)^dag W)[k, :]
    J = np.einsum("jak,jkb->jkab", PG,
                  PG.conj().transpose(0, 2, 1) @ (1j * W))
    return J.reshape(-1, W.size).view(float)


def _polish(U: np.ndarray, G: np.ndarray, phis: np.ndarray
            ) -> Tuple[np.ndarray, float, int]:
    """Levenberg-Marquardt on the phase torus toward 1 - |tr(U^dag W)|/d = 0.

    The residual W - (T/|T|) U, T = tr(U^dag W) (phase 1 when T = 0), has
    squared norm 2d(1 - |T|/d); it and J = _jacobian, built only where a
    step starts, are interleaved real pairs: normal equations J J^T, J r.
    Each group's global phase is free, so J J^T is rank deficient; the
    damping mu I keeps every step solvable.  Returns the phases, |T|/d and
    the number of accepted steps.
    """
    d = U.shape[0]

    def fit(x):
        W, PG = _word(G, x)
        T = np.vdot(U, W)
        size = abs(T)
        r = (W - (T / size if size else 1.0) * U).ravel()
        return 1.0 - size / d, r.view(float), (W, PG)

    x = phis.ravel()
    res, r, word = fit(x)
    mu, steps, eye = 1e-3, 0, np.eye(x.size)
    while res > POLISH_FLOOR and steps < POLISH_STEPS:
        J = _jacobian(*word)
        A, g = J @ J.T, J @ r
        for _ in range(8):
            x_new = x - np.linalg.solve(A + mu * eye, g)
            new = fit(x_new)
            if new[0] < res:
                break
            mu *= 10
        else:
            break
        x, (res, r, word) = x_new, new
        mu /= 10
        steps += 1
    return x.reshape(phis.shape), 1.0 - res, steps


def _lengths(intrinsic: IntrinsicGate) -> Tuple[int, int]:
    """Native word lengths L, tried in order: d + 1 steps for qubits and
    d + 2 otherwise (a step has d - 1 free phases and PU(d) has d^2 - 1
    dimensions, so no word is shorter than d + 1), then the paper's bound
    d * o, o the Pauli order of G_I; _solve fits each to the target."""
    d = intrinsic.dim.d
    return d + 1 if d == 2 else d + 2, d * intrinsic.pauli_order


def _solve(U: np.ndarray, G: np.ndarray, L: int, seed: int,
           stats: CompileStats) -> Tuple[np.ndarray, float]:
    """Phases of the native word G D_{L-1} ... G D_0 closest to U (step 0
    first) and its residual 1 - |tr(U^dag W)|/d; the work joins `stats`.

    The groups are fitted as W = G D_0 G D_1 ... G D_{L-1} to U itself, so
    they are read in reverse.  Each attempt runs ALS into the basin
    (residual below BASIN_TOL), then polishes toward POLISH_FLOOR; the
    attempts stop at a residual within RESIDUAL_TOL / 1000.  The first
    starts from zero phases, each restart from random ones of
    np.random.default_rng(seed), built at the first restart.
    """
    start, rng = np.zeros((L, G.shape[0])), None
    best, best_phis = -1.0, start
    for _ in range(MAX_RESTARTS + 1):
        phis, sweeps = _als_run(U, G, start)
        phis, val, steps = _polish(U, G, phis)
        stats.als_runs += 1
        stats.als_sweeps += sweeps
        stats.polish_steps += steps
        if val > best:
            best, best_phis = val, phis
        if 1.0 - best <= RESIDUAL_TOL * 1e-3:
            break
        if rng is None:
            rng = np.random.default_rng(seed)
        start = rng.uniform(-math.pi, math.pi, start.shape)
    return best_phis[::-1], 1.0 - best


def compile_unitary(U: np.ndarray, intrinsic: IntrinsicGate,
                    seed: int = 0) -> MeasurementPattern:
    """Measurement pattern realizing U up to a global phase, identity frame.

    The steps are the phases of the native word G D_{L-1} ... G D_0 (see
    _solve), at the first length of _lengths whose residual is within
    RESIDUAL_TOL.  The pattern's `stats` hold that residual
    1 - |tr(U^dag W)|/d and the work spent over both lengths.  A target
    that fails sim.require_unitary raises NonUnitary before any ALS sweep,
    and a length L past the budget of its L d^3 polish Jacobian entries
    raises StateTooLarge before its ALS.
    """
    dim = intrinsic.dim
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
        budget(L * d ** 3, "{} x {}^3 polish Jacobian entries", L, d)
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
    word = intrinsic.clifford_words.get(certify(C, dim).class_key())
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
    """o^P identity-rotation steps; the realized product is a Pauli word.

    Running a pattern tracks its frame through the intrinsic gate's
    certificate, so a G_I without one raises first, as
    IntrinsicGate.certificate does (NonUnitary or NotCliffordError).
    """
    dim = intrinsic.dim
    intrinsic.certificate()
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
    steps = [PatternStep(json_array(s["phases"], (d,), "phases"),
                         json_check(s["adaptive"], bool, "adaptive"))
             for s in (json_check(s, dict, "step")
                       for s in json_check(obj["steps"], list, "steps"))]
    frame = pauli_from_json(dim, obj["frame"])
    if frame.n != 1:
        raise DimensionMismatch(f"frame acts on {frame.n} qudits, the "
                                f"pattern on one")
    return MeasurementPattern(dim, intr, steps, frame, gate)
