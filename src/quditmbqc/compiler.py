"""Compilation of single-qudit unitaries and Cliffords into measurement
patterns over the gate set {G_I * D_phi}.

A pattern is an ordered list of diagonal rotations; step 0 is applied first
(the rightmost factor).  The dense product of the steps equals
phase * frame * U for the declared Pauli frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .clifford import (
    CliffordCert,
    certify,
    hadamard_from_intrinsic,
    rep_tokens,
    symplectic_of,
    universality_check,
)
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
    invert_word,
    match_pauli,
    normal_form,
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


# --- Pauli-sweep lowering -------------------------------------------------

def lower_factors(g_cert: CliffordCert, factors: List[Tuple]
                  ) -> Tuple[List[np.ndarray], PauliWord]:
    """Rewrite a factor word as C * prod(G * D_i) up to a global phase.

    `factors` is leftmost-first over ("G",), ("diag", vec), ("pauli", word);
    G is the gate certified by g_cert.  Returns (diag vectors leftmost-first,
    C); the word must begin with a "G" factor once Paulis are swept left.
    """
    dim = g_cert.dim
    C = identity_word(dim, 1)
    emitted: List = []  # leftmost-first over ["G"] and ["diag", vec]
    for f in reversed(factors):
        if f[0] == "pauli":
            C = normal_form(f[1], C)
        elif f[0] == "diag":
            x = C.x[0]
            vec = np.asarray(f[1], dtype=complex)
            vec = np.array([vec[dim.add(u, x)] for u in range(dim.d)])
            if emitted and emitted[0][0] == "diag":
                emitted[0][1] = vec * emitted[0][1]
            else:
                emitted.insert(0, ["diag", vec])
        elif f[0] == "G":
            emitted.insert(0, ["G"])
            C = g_cert.conjugate(C)
        else:
            raise DimensionMismatch(f"unknown factor {f[0]!r}")
    # group into (G, diag) pairs, leftmost-first
    diags: List[np.ndarray] = []
    i = 0
    while i < len(emitted):
        if emitted[i][0] != "G":
            raise DimensionMismatch("word does not start each group with G")
        if i + 1 < len(emitted) and emitted[i + 1][0] == "diag":
            diags.append(emitted[i + 1][1])
            i += 2
        else:
            diags.append(np.ones(dim.d, dtype=complex))
            i += 1
    return diags, C


def _gdagger_factors(intrinsic: IntrinsicGate) -> List[Tuple]:
    """G^dagger up to phase over {G, Pauli} via G's Pauli order."""
    return [("G",)] * (intrinsic.pauli_order - 1) \
        + [("pauli", invert_word(intrinsic.order_word))]


# --- single-qudit unitary compilation -------------------------------------

def _word(intrinsic: IntrinsicGate) -> Tuple[List[Tuple], np.ndarray]:
    """The groups K_j D_j K_j^dag of G D_gamma G^dag (prod_l S(l) G D_beta(l)
    G^dag S(l)^dag) D_alpha, leftmost-first: the factors left and right of
    each D_j over {G, diag, Pauli}, and the conjugators K_j = G, S(l) G, 1.
    """
    dim, G = intrinsic.dim, intrinsic.matrix
    gd = _gdagger_factors(intrinsic)
    groups, Ks = [([("G",)], gd)], [G]
    for l in dim.elements:
        if dim.is_invertible(l):
            S = shear_gate(dim, l)
            sv = np.diag(S)
            groups.append(([("diag", sv), ("G",)], gd + [("diag", sv.conj())]))
            Ks.append(S @ G)
    return groups + [([], [])], np.stack(Ks + [np.eye(dim.d)])


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


def _optimize_word(U: np.ndarray, Ks: np.ndarray, seed: int
                   ) -> Tuple[List[int], np.ndarray, CompileStats]:
    """The word's group order and phases, and how they were found.

    Each attempt runs ALS into the basin, then polishes to the floor.  The
    first starts from zero phases in the canonical order; restarts start
    from random phases, and from the fourth on in a random order of the
    groups after the first (gamma stays leftmost, so the lowered word
    still starts with the intrinsic gate).
    """
    m, d, _ = Ks.shape
    rng = np.random.default_rng(seed)
    stats = CompileStats()
    order, start = list(range(m)), np.zeros((m, d))
    best, best_state = -1.0, None
    for tries in range(MAX_RESTARTS + 1):
        phis, sweeps = _als_run(U, Ks[order], start)
        phis, val, steps = _polish(U, Ks[order], phis)
        stats.als_runs += 1
        stats.als_sweeps += sweeps
        stats.polish_steps += steps
        if val > best:
            best, best_state = val, (order, phis)
        if 1.0 - best <= RESIDUAL_TOL * 1e-3:
            break
        if tries >= 3:
            order = [0] + [int(i) for i in 1 + rng.permutation(m - 1)]
        start = rng.uniform(-math.pi, math.pi, (m, d))
    stats.residual = float(1.0 - best)
    return best_state + (stats,)


def compile_unitary(U: np.ndarray, intrinsic: IntrinsicGate,
                    seed: int = 0) -> MeasurementPattern:
    """Measurement pattern realizing U up to a Pauli frame and phase.

    Solves the phases of the universal word (see _word) by ALS into the
    basin and a Levenberg-Marquardt polish to the 1e-12 floor, then lowers
    the word to exactly d * o^P steps.  The pattern's `stats` hold the
    word's residual 1 - |tr(U^dag V)|/d and the work spent.  A target that
    fails sim.require_unitary raises NonUnitary before any ALS sweep.
    """
    dim = intrinsic.dim
    _check_compilable(dim)
    d = dim.d
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise DimensionMismatch("target size does not match the dimension")
    require_unitary(U, "target is not unitary")
    cert = intrinsic.certificate()
    ok, _ = universality_check(cert)
    if not ok:
        raise UniversalityViolated("intrinsic gate cannot reach a Hadamard")
    G = intrinsic.matrix
    # short-circuit: the gate itself
    r = match_pauli(dim, 1, U @ G.conj().T)
    if r is not None and r[1].is_identity():
        return MeasurementPattern(
            dim, intrinsic, [PatternStep(np.zeros(d), True)],
            identity_word(dim, 1), gate=None,
            stats=CompileStats(float(1.0 - abs(np.vdot(U, G)) / d)))
    groups, Ks = _word(intrinsic)
    order, phis, stats = _optimize_word(U, Ks, seed)
    if stats.residual > RESIDUAL_TOL:
        raise CompilationDiverged(
            f"residual {stats.residual:.3e} after {MAX_RESTARTS} restarts")
    factors: List[Tuple] = []
    for i, p in zip(order, phis):
        left, right = groups[i]
        factors += left + [("diag", np.exp(1j * p))] + right
    diags, C = lower_factors(cert, factors)
    steps = [PatternStep(np.angle(v), True) for v in reversed(diags)]
    return MeasurementPattern(dim, intrinsic, steps, invert_word(C),
                              stats=stats)


def compile_clifford(C: np.ndarray, intrinsic: IntrinsicGate
                     ) -> MeasurementPattern:
    """Non-adaptive pattern (Clifford diagonals only) realizing C up to Pauli."""
    dim = intrinsic.dim
    cert_c = certify(C, dim, 1)
    rep = symplectic_of(cert_c)
    g_cert = intrinsic.certificate()
    h_word = hadamard_from_intrinsic(g_cert)
    tokens = rep_tokens(rep)
    factors: List[Tuple] = []
    gd = _gdagger_factors(intrinsic)
    for t in tokens:
        expanded = h_word if t[0] == "H" else [t]
        for u in expanded:
            if u[0] == "shear":
                factors.append(("diag", np.diag(shear_gate(dim, u[1]))))
            elif u == ("G", 1):
                factors.append(("G",))
            elif u == ("G", -1):
                factors += gd
            else:
                raise DimensionMismatch(f"unexpected token {u!r}")
    if not factors or factors[0][0] != "G":
        # transport padding (G^o up to Pauli) so the word starts with G
        factors = [("G",)] + gd + factors
    diags, Cw = lower_factors(g_cert, factors)
    steps = [PatternStep(np.angle(v), False) for v in reversed(diags)]
    pat = MeasurementPattern(dim, intrinsic, steps, invert_word(Cw))
    # dense audit: steps product must equal phase * frame * C
    r = match_pauli(dim, 1, pat.dense_product() @ np.asarray(C).conj().T)
    if r is None:
        raise CompilationDiverged("Clifford lowering failed the dense audit")
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
        obj["intrinsic_matrix"] = [[[float(v.real), float(v.imag)]
                                    for v in row]
                                   for row in p.intrinsic.matrix]
    return obj


def pattern_from_json(obj: dict) -> MeasurementPattern:
    json_check(obj, dict, "pattern")
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
        json_check(s, dict, "step")
        steps.append(PatternStep(json_array(s["phases"], (d,), "phases"),
                                 bool(s["adaptive"])))
    frame = pauli_from_json(dim, obj["frame"])
    return MeasurementPattern(dim, intr, steps, frame, gate)
