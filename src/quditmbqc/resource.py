"""Entangling-gate analysis: intrinsic gates, entanglement criteria,
named-gate constructors, and Clifford factorizations."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .clifford import (
    CliffordCert,
    NotClifford,
    conjugation_table,
    pauli_order_data,
)
from .errors import (
    DimensionMismatch,
    NoRealSolution,
    NotCliffordError,
    NotControlledPauliForm,
    OrderCapExceeded,
)
from .galois import (
    DimSpec,
    dim_from_json,
    dim_to_json,
    json_array,
    json_check,
    json_complex,
)
from .gates import (
    dphi,
    normalize_global_phase,
    sgate,
    xplus_state,
)
from .pauli import PauliWord, match_pauli, xmat, zx_matrix

DIAGONAL = "diagonal"
BLOCK_DIAGONAL = "block_diagonal"
NAMED = "named"


@dataclass
class EntanglingGateSpec:
    dim: DimSpec
    kind: str
    theta: Optional[np.ndarray] = None         # diagonal: d x d real angles
    blocks: Optional[List[np.ndarray]] = None  # block-diagonal: d unitaries
    init_phases: Optional[np.ndarray] = None   # resource init D_phi |0_X>
    name: Optional[str] = None                 # named: cz | cx | light_shift
    ls_theta: Optional[float] = None


def cz_spec(dim: DimSpec) -> EntanglingGateSpec:
    return EntanglingGateSpec(dim, NAMED, name="cz")


def cx_spec(dim: DimSpec) -> EntanglingGateSpec:
    return EntanglingGateSpec(dim, NAMED, name="cx")


def light_shift_spec(dim: DimSpec,
                     theta: Optional[float] = None) -> EntanglingGateSpec:
    return EntanglingGateSpec(dim, NAMED, name="light_shift", ls_theta=theta)


def expand(spec: EntanglingGateSpec) -> EntanglingGateSpec:
    """Expand a named gate into its canonical diagonal or block form."""
    dim = spec.dim
    d = dim.d
    if spec.kind == DIAGONAL:
        init = spec.init_phases if spec.init_phases is not None else np.zeros(d)
        return replace(spec, theta=np.asarray(spec.theta, dtype=float),
                       init_phases=np.asarray(init, dtype=float))
    if spec.kind == BLOCK_DIAGONAL:
        init = spec.init_phases if spec.init_phases is not None else np.zeros(d)
        return replace(spec, init_phases=np.asarray(init, dtype=float))
    if spec.kind != NAMED:
        raise DimensionMismatch(f"unknown gate kind {spec.kind!r}")
    if spec.name == "cz":
        theta = np.array([[cmath.phase(dim.char_phase(dim.mul(j, k)))
                           for k in dim.elements] for j in dim.elements])
        theta = np.mod(theta, 2 * math.pi)
        return EntanglingGateSpec(dim, DIAGONAL, theta=theta,
                                  init_phases=np.zeros(d))
    if spec.name == "light_shift":
        t = spec.ls_theta if spec.ls_theta is not None else light_shift_angle(d)
        theta = t * (1.0 - np.eye(d))
        return EntanglingGateSpec(dim, DIAGONAL, theta=theta,
                                  init_phases=np.zeros(d))
    if spec.name == "cx":
        blocks = [xmat(dim, k) for k in dim.elements]
        init = np.angle(np.diag(sgate(dim)))
        return EntanglingGateSpec(dim, BLOCK_DIAGONAL, blocks=blocks,
                                  init_phases=init)
    raise DimensionMismatch(f"unknown named gate {spec.name!r}")


def gate_matrix(spec: EntanglingGateSpec) -> np.ndarray:
    """Dense two-qudit matrix of the entangling gate (control = site 0)."""
    spec = expand(spec)
    d = spec.dim.d
    if spec.kind == DIAGONAL:
        return np.diag(np.exp(1j * spec.theta.reshape(-1)))
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        out[j * d:(j + 1) * d, j * d:(j + 1) * d] = spec.blocks[j]
    return out


def resource_init(spec: EntanglingGateSpec) -> np.ndarray:
    """Single-qudit initialization vector D_phi |0_X>."""
    spec = expand(spec)
    return dphi(spec.init_phases) @ xplus_state(spec.dim)


@dataclass
class IntrinsicGate:
    dim: DimSpec
    matrix: np.ndarray
    unitary: bool
    clifford_cert: Optional[CliffordCert] = None
    pauli_order: Optional[int] = None

    @property
    def is_clifford(self) -> bool:
        return self.clifford_cert is not None


def _analyze(dim: DimSpec, matrix: np.ndarray) -> IntrinsicGate:
    d = dim.d
    unitary = bool(np.max(np.abs(matrix.conj().T @ matrix - np.eye(d))) < 1e-8)
    cert = None
    order = None
    if unitary:
        r = conjugation_table(matrix, dim, 1)
        if not isinstance(r, NotClifford):
            cert = r
        try:
            order = pauli_order_data(matrix, dim, 1)[0]
        except OrderCapExceeded:
            order = None
    return IntrinsicGate(dim, matrix, unitary, cert, order)


def intrinsic_of_diagonal(spec: EntanglingGateSpec) -> IntrinsicGate:
    """G_I = d^{-1/2} sum e^{i theta_{kj}} |j><k| (note the transpose)."""
    spec = expand(spec)
    if spec.kind != DIAGONAL:
        raise DimensionMismatch("diagonal gate required")
    d = spec.dim.d
    matrix = np.exp(1j * spec.theta.T) / math.sqrt(d)
    return _analyze(spec.dim, matrix)


def intrinsic_of_block(spec: EntanglingGateSpec) -> IntrinsicGate:
    """G_I = sum_j U_j |phi><j| with |phi> = D_phi |0_X>."""
    spec = expand(spec)
    if spec.kind != BLOCK_DIAGONAL:
        raise DimensionMismatch("block-diagonal gate required")
    phi = resource_init(spec)
    matrix = np.column_stack([spec.blocks[j] @ phi for j in spec.dim.elements])
    return _analyze(spec.dim, matrix)


def intrinsic_of(spec: EntanglingGateSpec) -> IntrinsicGate:
    ex = expand(spec)
    if ex.kind == DIAGONAL:
        return intrinsic_of_diagonal(ex)
    return intrinsic_of_block(ex)


def offdiag_coeffs(spec: EntanglingGateSpec) -> np.ndarray:
    """c_{j,k} = (1/d) sum_a e^{i(theta_{ja} - theta_{ka})}."""
    spec = expand(spec)
    if spec.kind != DIAGONAL:
        raise DimensionMismatch("diagonal gate required")
    E = np.exp(1j * spec.theta)
    return E @ E.conj().T / spec.dim.d


def light_shift_angle(d: int) -> float:
    """Principal theta in (0, pi] with cos(theta) = 1 - d/2."""
    c = 1.0 - d / 2.0
    if c < -1.0:
        raise NoRealSolution(f"cos(theta) = {c} infeasible for d = {d}")
    return math.acos(c)


# --- Clifford factorizations ---------------------------------------------

def factor_diagonal_clifford(spec: EntanglingGateSpec
                             ) -> Tuple[np.ndarray, np.ndarray, int]:
    """G_E = (C1 (x) C2) CZ^N up to global phase, for diagonal Clifford G_E.

    Returns (C1, C2, N) with C1, C2 diagonal single-qudit Cliffords and N
    a ring/field element weighting the CZ edge.
    """
    spec = expand(spec)
    dim = spec.dim
    if spec.kind != DIAGONAL:
        raise DimensionMismatch("diagonal gate required")
    G = gate_matrix(spec)
    cert = conjugation_table(G, dim, 2)
    if isinstance(cert, NotClifford):
        raise NotCliffordError(
            f"entangling gate is not Clifford at generator {cert.generator}",
            generator=cert.generator)
    # N from the Z-power picked up on the partner site by X (x) I
    _, img = cert.image_of("X0^1")
    N = img.z[1]
    th = spec.theta
    c1 = np.exp(1j * (th[:, 0] - th[0, 0]))
    c2 = np.exp(1j * th[0, :])
    d = dim.d
    czN = np.diag([dim.char_phase(dim.mul(N, dim.mul(j, k)))
                   for j in dim.elements for k in dim.elements])
    cand = np.kron(np.diag(c1), np.diag(c2)) @ czN
    if np.max(np.abs(normalize_global_phase(cand) -
                     normalize_global_phase(G))) > 1e-8:
        raise NotCliffordError("gate does not factor as (C1 x C2) CZ^N")
    return np.diag(c1), np.diag(c2), N


@dataclass
class BlockFactorization:
    C1: np.ndarray          # diagonal of control phases e^{i theta_k}
    C2: np.ndarray          # target Clifford U_0 (phase-fixed)
    P: PauliWord            # zero-phase controlled Pauli
    thetas: np.ndarray      # control phase angles


def factor_block_controlled_pauli(spec: EntanglingGateSpec
                                  ) -> BlockFactorization:
    """Factor a block-diagonal Clifford gate as (C1 (x) C2) CP.

    CP = sum_k |k><k| (x) P^k with P = phase-normalized U_0^{-1} U_1;
    succeeds iff U_k = e^{i theta_k} U_0 P^k for all k within tolerance.
    """
    spec = expand(spec)
    dim = spec.dim
    if spec.kind != BLOCK_DIAGONAL:
        raise DimensionMismatch("block-diagonal gate required")
    blocks = [np.asarray(b, dtype=complex) for b in spec.blocks]
    U0 = blocks[0]
    r = match_pauli(dim, 1, U0.conj().T @ blocks[1])
    if r is None:
        raise NotControlledPauliForm("U0^-1 U1 is not a Pauli operator")
    _, word = r
    P = zx_matrix(word)  # phase-normalized Pauli
    thetas = np.zeros(dim.d)
    Pk = np.eye(dim.d, dtype=complex)
    for k in dim.elements:
        M = U0 @ Pk
        # U_k should equal e^{i theta_k} M
        ratios = blocks[k][np.abs(M) > 1e-8] / M[np.abs(M) > 1e-8]
        ph = ratios[0]
        if abs(abs(ph) - 1) > 1e-8 or np.max(np.abs(ratios - ph)) > 1e-8 \
                or np.max(np.abs(blocks[k] - ph * M)) > 1e-8:
            raise NotControlledPauliForm(
                f"block {k} is not e^(i theta) U0 P^{k}")
        thetas[k] = cmath.phase(ph)
        Pk = Pk @ P
    C1 = np.diag(np.exp(1j * thetas))
    C2 = normalize_global_phase(U0)
    return BlockFactorization(C1=C1, C2=C2,
                              P=PauliWord(dim, 1, word.z, word.x, 0),
                              thetas=thetas)


# --- JSON ----------------------------------------------------------------

def gate_to_json(spec: EntanglingGateSpec) -> dict:
    out = {"dim": dim_to_json(spec.dim), "kind": spec.kind}
    if spec.kind == DIAGONAL:
        out["theta"] = [[float(v) for v in row] for row in spec.theta]
        if spec.init_phases is not None:
            out["init_phases"] = [float(v) for v in spec.init_phases]
    elif spec.kind == BLOCK_DIAGONAL:
        out["blocks"] = [[[ [float(v.real), float(v.imag)] for v in row]
                          for row in np.asarray(b)] for b in spec.blocks]
        if spec.init_phases is not None:
            out["init_phases"] = [float(v) for v in spec.init_phases]
    else:
        out["name"] = spec.name
        if spec.ls_theta is not None:
            out["theta"] = float(spec.ls_theta)
    return out


def gate_from_json(obj: dict) -> EntanglingGateSpec:
    json_check(obj, dict, "gate")
    dim = dim_from_json(obj["dim"])
    d = dim.d
    kind = obj["kind"]
    init = None
    if kind in (DIAGONAL, BLOCK_DIAGONAL) and "init_phases" in obj:
        init = json_array(obj["init_phases"], (d,), "init_phases")
    if kind == DIAGONAL:
        return EntanglingGateSpec(
            dim, DIAGONAL, theta=json_array(obj["theta"], (d, d), "theta"),
            init_phases=init)
    if kind == BLOCK_DIAGONAL:
        blocks = list(json_complex(obj["blocks"], (d, d, d), "blocks"))
        return EntanglingGateSpec(dim, BLOCK_DIAGONAL, blocks=blocks,
                                  init_phases=init)
    if kind == NAMED:
        theta = obj.get("theta")
        if theta is not None:
            theta = float(json_array(theta, (), "theta"))
        return EntanglingGateSpec(dim, NAMED, name=obj["name"],
                                  ls_theta=theta)
    raise DimensionMismatch(f"unknown gate kind {kind!r}")
