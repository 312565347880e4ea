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
class MeasurementPattern:
    dim: DimSpec
    intrinsic: IntrinsicGate
    steps: List[PatternStep]
    frame: PauliWord
    gate: Optional[EntanglingGateSpec] = None

    def step_count(self) -> int:
        return len(self.steps)

    def dense_product(self) -> np.ndarray:
        """Product of (G_I D_phi) factors, step 0 rightmost."""
        out = np.eye(self.dim.d, dtype=complex)
        for step in self.steps:
            out = (self.intrinsic.matrix @ dphi(step.phases)) @ out
        return out


def principal_log_hermitian(U: np.ndarray) -> np.ndarray:
    """H with U = e^{iH}, eigenphases on the principal branch (-pi, pi]."""
    U = np.asarray(U, dtype=complex)
    _, vecs = np.linalg.eig(U)
    # orthonormalize: U is normal, so QR cleans up degenerate clusters
    q, _ = np.linalg.qr(vecs)
    D = q.conj().T @ U @ q
    phases = np.angle(np.diag(D))
    phases[np.isclose(phases, -np.pi)] = np.pi
    return q @ np.diag(phases) @ q.conj().T


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


def _steps_from_diags(diags: List[np.ndarray], adaptive: bool
                      ) -> List[PatternStep]:
    """Leftmost-first diagonals to steps (step 0 = rightmost factor)."""
    return [PatternStep(np.angle(v), adaptive) for v in reversed(diags)]


def _gdagger_factors(intrinsic: IntrinsicGate) -> List[Tuple]:
    """G^dagger up to phase over {G, Pauli} via G's Pauli order."""
    return [("G",)] * (intrinsic.pauli_order - 1) \
        + [("pauli", invert_word(intrinsic.order_word))]


# --- single-qudit unitary compilation -------------------------------------

def _shear_family(dim: DimSpec) -> List[Tuple[int, np.ndarray]]:
    units = [l for l in dim.elements if dim.is_invertible(l)]
    return [(l, shear_gate(dim, l)) for l in units]


def _als_run(U: np.ndarray, conjugators: List[np.ndarray],
             phis: List[np.ndarray]) -> Tuple[List[np.ndarray], float]:
    """Alternating exact maximization of |tr(U^dag V)| over group phases."""
    d = U.shape[0]
    m = len(conjugators)
    Ud = U.conj().T
    F = [K @ np.diag(np.exp(1j * p)) @ K.conj().T
         for K, p in zip(conjugators, phis)]
    best = 0.0
    for _ in range(MAX_SWEEPS):
        for j in range(m):
            L = np.eye(d, dtype=complex)
            for t in range(j):
                L = L @ F[t]
            R = np.eye(d, dtype=complex)
            for t in range(j + 1, m):
                R = R @ F[t]
            K = conjugators[j]
            M = K.conj().T @ R @ Ud @ L @ K
            diag = np.diag(M)
            phis[j] = np.where(np.abs(diag) > 1e-14,
                               -np.angle(diag), phis[j])
            F[j] = K @ np.diag(np.exp(1j * phis[j])) @ K.conj().T
        V = np.eye(d, dtype=complex)
        for t in range(m):
            V = V @ F[t]
        val = abs(np.trace(Ud @ V)) / d
        if val > 1.0 - 1e-12 or val - best < 1e-13:
            best = max(best, val)
            break
        best = max(best, val)
    return phis, best


def _analytic_init(U: np.ndarray, conjugators: List[np.ndarray]
                   ) -> List[np.ndarray]:
    """Phase guess from the Hermitian expansion of the principal log."""
    d = U.shape[0]
    m = len(conjugators)
    try:
        H = principal_log_hermitian(U)
        cols = []
        for K in conjugators:
            B = np.stack([np.concatenate([
                (K[:, k:k + 1] @ K[:, k:k + 1].conj().T).real.reshape(-1),
                (K[:, k:k + 1] @ K[:, k:k + 1].conj().T).imag.reshape(-1)])
                for k in range(d)])
            cols.append(B)
        A = np.concatenate(cols, axis=0).T
        rhs = np.concatenate([H.real.reshape(-1), H.imag.reshape(-1)])
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        return [sol[j * d:(j + 1) * d].copy() for j in range(m)]
    except Exception:
        return [np.zeros(d) for _ in range(m)]


def _optimize_word(U: np.ndarray, groups: List[Tuple],
                   conjugators: List[np.ndarray], dim: DimSpec, seed: int
                   ) -> Tuple[List[Tuple], List[np.ndarray], float]:
    """Solve for the word's phases; restarts may permute the group order.

    The canonical order (gamma, ascending-lambda betas, alpha) is tried
    first; alternating maximization occasionally hits a target outside its
    reachable set, in which case restarts draw a different order for the
    groups after the first (the gamma group stays leftmost so the lowered
    word still starts with the intrinsic gate).
    """
    d = dim.d
    m = len(groups)
    rng = np.random.default_rng(seed)
    order = list(range(m))
    phis, best = _als_run(U, conjugators, _analytic_init(U, conjugators))
    best_state = (order, phis)
    tries = 0
    while 1.0 - best > RESIDUAL_TOL * 1e-3 and tries < MAX_RESTARTS:
        if tries < 3:
            cand = list(range(m))
        else:
            cand = [0] + [int(i) for i in 1 + rng.permutation(m - 1)]
        conj = [conjugators[i] for i in cand]
        start = [rng.uniform(-math.pi, math.pi, d) for _ in range(m)]
        phis, val = _als_run(U, conj, start)
        if val > best:
            best = val
            best_state = (cand, phis)
        tries += 1
    order, phis = best_state
    return [groups[i] for i in order], phis, best


def compile_unitary(U: np.ndarray, intrinsic: IntrinsicGate,
                    seed: int = 0) -> MeasurementPattern:
    """Measurement pattern realizing U up to a Pauli frame and phase.

    Uses the universal word G D_gamma G^dag (prod_lambda S(l) G D_beta(l)
    G^dag S(l)^dag) D_alpha with exact per-group phase maximization, then
    lowers the word to exactly d * o^P steps.  A target that fails
    sim.require_unitary raises NonUnitary before any ALS sweep.
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
            identity_word(dim, 1), gate=None)
    shears = _shear_family(dim)
    groups: List[Tuple] = [("gamma", None)]
    conjugators = [G]
    for l, S in shears:
        groups.append(("beta", np.diag(S)))
        conjugators.append(S @ G)
    groups.append(("alpha", None))
    conjugators.append(np.eye(d, dtype=complex))
    groups2, phis, best = _optimize_word(U, groups, conjugators, dim, seed)
    if 1.0 - best > RESIDUAL_TOL:
        raise CompilationDiverged(
            f"residual {1.0 - best:.3e} after {MAX_RESTARTS} restarts")
    gd = _gdagger_factors(intrinsic)
    factors: List[Tuple] = []
    for (kind, sv), p in zip(groups2, phis):
        dvec = ("diag", np.exp(1j * p))
        if kind == "gamma":
            factors += [("G",), dvec] + gd
        elif kind == "beta":
            factors += [("diag", sv), ("G",), dvec] + gd + [("diag", sv.conj())]
        else:
            factors += [dvec]
    diags, C = lower_factors(cert, factors)
    steps = _steps_from_diags(diags, adaptive=True)
    return MeasurementPattern(dim, intrinsic, steps, invert_word(C))


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
    steps = _steps_from_diags(diags, adaptive=False)
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
