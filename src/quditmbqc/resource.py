"""Entangling-gate analysis: intrinsic gates, entanglement criteria,
named-gate constructors, Clifford factorizations and mediator data.
Each fact is computed once per gate spec and kept on it."""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .clifford import (
    CliffordCert,
    _additive_basis,
    certify,
    pauli_order_data,
    shortest_words,
)
from .errors import (
    DimensionMismatch,
    FrameMismatch,
    NoRealSolution,
    NonInvertibleGcd,
    NonUnitary,
    NotCliffordError,
    NotControlledPauliForm,
    OrderCapExceeded,
)
from .galois import (
    DimSpec,
    complex_to_json,
    dim_from_json,
    dim_to_json,
    json_array,
    json_check,
    json_complex,
)
from .gates import (
    dphi,
    hadamard,
    mult_gate,
    normalize_global_phase,
    sgate,
    shear_gate,
    xplus_state,
)
from .pauli import (
    PAULI_TOL,
    PauliWord,
    match_pauli,
    matrix_of_pauli,
    xmat,
    zx_matrix,
)
from .sim import require_unitary

DIAGONAL = "diagonal"
BLOCK_DIAGONAL = "block_diagonal"
NAMED = "named"

# fidelity and table gates of the protocols and of graph rewriting
VERIFY_TOL = 1e-9


def _read_only(value, dtype=complex) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class EntanglingGateSpec:
    """An entangling gate.  Immutable (arrays are copied read-only) and
    compared by identity, so facts derived from it can be kept on it."""
    dim: DimSpec
    kind: str
    theta: Optional[np.ndarray] = None        # diagonal: d x d real angles
    blocks: Optional[np.ndarray] = None       # block-diagonal: d unitaries
    init_phases: Optional[np.ndarray] = None  # resource init D_phi |0_X>
    name: Optional[str] = None                # named: cz | cx | light_shift
    ls_theta: Optional[float] = None
    _facts: Dict[str, object] = field(default_factory=dict, init=False,
                                      repr=False)

    def __post_init__(self):
        if self.kind not in (DIAGONAL, BLOCK_DIAGONAL, NAMED):
            raise DimensionMismatch(f"unknown gate kind {self.kind!r}")
        for key, dtype in (("theta", float), ("blocks", complex),
                           ("init_phases", float)):
            if getattr(self, key) is not None:
                object.__setattr__(self, key,
                                   _read_only(getattr(self, key), dtype))


# one cz and one cx spec per dimension, and one light-shift spec per
# (dimension, theta), so every caller shares their facts
@functools.lru_cache(maxsize=None)
def cz_spec(dim: DimSpec) -> EntanglingGateSpec:
    return EntanglingGateSpec(dim, NAMED, name="cz")


@functools.lru_cache(maxsize=None)
def cx_spec(dim: DimSpec) -> EntanglingGateSpec:
    return EntanglingGateSpec(dim, NAMED, name="cx")


def light_shift_spec(dim: DimSpec,
                     theta: Optional[float] = None) -> EntanglingGateSpec:
    # -0.0 == 0.0 as a cache key, yet it prints as -0.0: keep them apart
    sign = None if theta is None else math.copysign(1.0, theta)
    return _light_shift_spec(dim, theta, sign)


@functools.lru_cache(maxsize=None)
def _light_shift_spec(dim: DimSpec, theta: Optional[float], sign
                      ) -> EntanglingGateSpec:
    return EntanglingGateSpec(dim, NAMED, name="light_shift", ls_theta=theta)


@functools.lru_cache(maxsize=None)
def cz_power(dim: DimSpec, w: int) -> EntanglingGateSpec:
    """CZ^w = sum_jk chi(w j k) |jk><jk| in diagonal form; one spec per
    (dimension, weight), so the edges graph rewriting adds share facts."""
    mul, _, _, chi = dim.tables
    theta = np.array([[cmath.phase(c) for c in row]
                      for row in chi[mul[w % dim.d][mul]]])
    return EntanglingGateSpec(dim, DIAGONAL, theta=np.mod(theta, 2 * math.pi),
                              init_phases=np.zeros(dim.d))


def expand(spec: EntanglingGateSpec) -> EntanglingGateSpec:
    """The gate in diagonal or block form with its init phases; a spec
    already in that form is its own expansion."""
    if spec.kind != NAMED and spec.init_phases is not None:
        return spec
    if "expand" not in spec._facts:
        spec._facts["expand"] = _expand(spec)
    return spec._facts["expand"]


def _expand(spec: EntanglingGateSpec) -> EntanglingGateSpec:
    dim = spec.dim
    d = dim.d
    if spec.kind != NAMED:
        return replace(spec, init_phases=np.zeros(d))
    if spec.name == "cz":
        return cz_power(dim, 1)
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


def _per_spec(compute):
    """compute(spec, *args) as a fact kept on the expanded spec object, one
    per argument tuple."""
    name = compute.__name__

    @functools.wraps(compute)
    def fact(spec: EntanglingGateSpec, *args):
        spec = expand(spec)
        key = (name, *args) if args else name
        if key not in spec._facts:
            spec._facts[key] = compute(spec, *args)
        return spec._facts[key]

    return fact


@_per_spec
def gate_matrix(spec: EntanglingGateSpec) -> np.ndarray:
    """Dense two-qudit matrix of the entangling gate (control = site 0)."""
    d = spec.dim.d
    if spec.kind == DIAGONAL:
        return _read_only(np.diag(np.exp(1j * spec.theta.reshape(-1))))
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        out[j * d:(j + 1) * d, j * d:(j + 1) * d] = spec.blocks[j]
    return _read_only(out)


def resource_init(spec: EntanglingGateSpec) -> np.ndarray:
    """Single-qudit initialization vector D_phi |0_X>."""
    spec = expand(spec)
    return dphi(spec.init_phases) @ xplus_state(spec.dim)


@dataclass(frozen=True, eq=False)
class IntrinsicGate:
    """G_I and its analysis: G_I^pauli_order = phase * order_word, and the
    generator whose image is not a Pauli word when G_I is not Clifford."""
    dim: DimSpec
    matrix: np.ndarray
    unitary: bool
    clifford_cert: Optional[CliffordCert] = None
    pauli_order: Optional[int] = None
    order_word: Optional[PauliWord] = None
    failed_generator: Optional[str] = None

    @property
    def is_clifford(self) -> bool:
        return self.clifford_cert is not None

    def certificate(self) -> CliffordCert:
        """The Clifford certificate; NonUnitary if G_I is not unitary, else
        NotCliffordError if G_I has none."""
        if not self.unitary:
            raise NonUnitary("intrinsic gate is not unitary")
        if self.clifford_cert is None:
            g = self.failed_generator
            raise NotCliffordError(f"generator {g} does not conjugate to a "
                                   f"Pauli word", generator=g)
        return self.clifford_cert

    @functools.cached_property
    def clifford_words(self) -> Dict[Tuple, Tuple[int, ...]]:
        """clifford.shortest_words of the certificate, built on first use."""
        return shortest_words(self.certificate())


def intrinsic_from_matrix(dim: DimSpec, matrix: np.ndarray) -> IntrinsicGate:
    """Analyze a d x d matrix as an intrinsic gate."""
    matrix = _read_only(matrix)
    unitary = bool(np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim.d)))
                   <= PAULI_TOL)
    try:
        cert, failed = certify(matrix, dim), None
    except NotCliffordError as exc:
        cert, failed = None, exc.generator
    order = word = None
    if unitary:
        try:
            order, _, w = pauli_order_data(matrix, dim, 1)
            word = PauliWord(dim, 1, w.z, w.x, 0)
        except OrderCapExceeded:
            pass
    return IntrinsicGate(dim, matrix, unitary, cert if unitary else None,
                         order, word, failed)


@_per_spec
def intrinsic_of(spec: EntanglingGateSpec) -> IntrinsicGate:
    """G_I and its analysis.

    Diagonal: G_I = d^{-1/2} sum e^{i theta_{kj}} |j><k| (note the
    transpose).  Block-diagonal: G_I = sum_j U_j |phi><j| with
    |phi> = D_phi |0_X>.
    """
    if spec.kind == DIAGONAL:
        G = np.exp(1j * spec.theta.T) / math.sqrt(spec.dim.d)
    else:
        G = np.column_stack([b @ resource_init(spec) for b in spec.blocks])
    return intrinsic_from_matrix(spec.dim, G)


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

    Returns (C1, C2, N) with C1, C2 diagonal single-qudit Cliffords (read
    off row and column 0 of theta, and certified on the generators) and N
    a ring/field element weighting the CZ edge: the one N whose
    chi(N j k) is e^{i(theta_jk - theta_j0 - theta_0k + theta_00)} for
    all j, k, which the dense product (C1 (x) C2) CZ^N checks.
    """
    return _diagonal_factorization(spec)[0]


def factor_certs(spec: EntanglingGateSpec
                 ) -> Tuple[CliffordCert, CliffordCert]:
    """The certificates of factor_diagonal_clifford's C1 and C2."""
    return _diagonal_factorization(spec)[1]


@_per_spec
def _diagonal_factorization(spec: EntanglingGateSpec):
    if spec.kind != DIAGONAL:
        raise DimensionMismatch("diagonal gate required")
    th = spec.theta
    C1 = _read_only(np.diag(np.exp(1j * (th[:, 0] - th[0, 0]))))
    C2 = _read_only(np.diag(np.exp(1j * th[0, :])))
    certs = []
    for site, C in enumerate((C1, C2)):
        try:
            certs.append(certify(C, spec.dim))
        except NotCliffordError as exc:
            label = f"{exc.generator[0]}{site}{exc.generator[2:]}"
            raise NotCliffordError(f"entangling gate is not Clifford at "
                                   f"generator {label}", generator=label)
    G = normalize_global_phase(gate_matrix(spec))
    for N in spec.dim.elements:
        cand = np.kron(C1, C2) @ gate_matrix(cz_power(spec.dim, N))
        if np.max(np.abs(normalize_global_phase(cand) - G)) <= PAULI_TOL:
            return (C1, C2, N), tuple(certs)
    raise NotCliffordError("gate does not factor as (C1 x C2) CZ^N")


@dataclass(frozen=True, eq=False)
class BlockFactorization:
    C1: np.ndarray          # diagonal of control phases e^{i theta_k}
    C2: np.ndarray          # target Clifford U_0 (phase-fixed)
    P: PauliWord            # zero-phase controlled Pauli
    thetas: np.ndarray      # control phase angles


def _controlled_paulis(word: PauliWord) -> np.ndarray:
    """[P(k) for k in dim.elements] for the zero-phase word P = Z(z) X(x).

    P(k) = Z(k z) X(k x) with the phase CliffordCert._letter_image gives a
    letter: the product of P(g)^c over k's digits c on the additive basis
    g, P(g) = Z(g z) X(g x) (these commute).  Each P(k) is formed as
    P(k - g) P(g) for k's lowest digit, so over Z_d and GF(p) P(k) is P^k
    as P^(k-1) P, entry for entry.
    """
    dim = word.dim
    out = [np.eye(dim.d, dtype=complex)]
    for k in dim.elements[1:]:
        g = next(g for g, c in zip(_additive_basis(dim), dim.coeffs_of(k))
                 if c)
        out.append(out[dim.sub(k, g)] @ zx_matrix(PauliWord(
            dim, 1, (dim.mul(g, word.z[0]),), (dim.mul(g, word.x[0]),))))
    return np.array(out)


@_per_spec
def factor_block_controlled_pauli(spec: EntanglingGateSpec
                                  ) -> BlockFactorization:
    """Factor a block-diagonal Clifford gate as (C1 (x) C2) CP.

    CP = sum_k |k><k| (x) P(k) with P = phase-normalized U_0^{-1} U_1 and
    P(k) its field multiple (_controlled_paulis); succeeds iff
    U_k = e^{i theta_k} U_0 P(k) for all k within tolerance.  A diagonal
    gate's blocks are its rows, U_j = diag(e^{i theta_j}).
    """
    dim = spec.dim
    blocks = spec.blocks if spec.kind != DIAGONAL \
        else [np.diag(np.exp(1j * row)) for row in spec.theta]
    U0 = blocks[0]
    r = match_pauli(dim, 1, U0.conj().T @ blocks[1])
    if r is None:
        raise NotControlledPauliForm("U0^-1 U1 is not a Pauli operator")
    _, word = r
    word = PauliWord(dim, 1, word.z, word.x, 0)  # phase-normalized Pauli
    thetas = np.zeros(dim.d)
    for k, Pk in zip(dim.elements, _controlled_paulis(word)):
        M = U0 @ Pk
        # U_k should equal e^{i theta_k} M
        ratios = blocks[k][np.abs(M) > PAULI_TOL] / M[np.abs(M) > PAULI_TOL]
        ph = ratios[0]
        if not (abs(abs(ph) - 1) <= PAULI_TOL
                and np.max(np.abs(ratios - ph)) <= PAULI_TOL
                and np.max(np.abs(blocks[k] - ph * M)) <= PAULI_TOL):
            raise NotControlledPauliForm(
                f"block {k} is not e^(i theta) U0 P^{k}")
        thetas[k] = cmath.phase(ph)
    return BlockFactorization(C1=_read_only(np.diag(np.exp(1j * thetas))),
                              C2=_read_only(normalize_global_phase(U0)),
                              P=word, thetas=_read_only(thetas, float))


def _pauli_to_z(dim: DimSpec, z: int, x: int) -> Tuple[np.ndarray, int]:
    """A Clifford C with C Z(z)X(x) C^dag = Z(l) up to phase, and l.

    H maps X(x) to Z(x) and Z(z) to X(-z); the shear S(t) maps X(x) to
    X(x)Z(tx).  So C = I and l = z when x = 0, and C = H S(-z/x) and l = x
    when x is a unit.  Otherwise H S(t), for the first t making z + tx a
    unit, first carries (z, x) to (x, -(z + tx)), the unit case.  Such a t
    exists, and l is a unit, iff gcd(z, x, d) = 1; else NonInvertibleGcd.
    """
    if z == 0 and x == 0:
        raise DimensionMismatch("zero Pauli cannot be mapped")
    C = np.eye(dim.d, dtype=complex)
    if x and not dim.is_invertible(x):
        # with no such t, t = 0 leaves l a non-unit, which raises below
        t = next((t for t in dim.elements
                  if dim.is_invertible(dim.add(z, dim.mul(t, x)))), 0)
        C = hadamard(dim) @ shear_gate(dim, t)
        z, x = x, dim.neg(dim.add(z, dim.mul(t, x)))
    l = x if x else z
    if not dim.is_invertible(l):
        raise NonInvertibleGcd(f"the controlled Pauli's exponents have a "
                               f"common factor with {dim.d}")
    if x:
        t = dim.neg(dim.mul(z, dim.inv(x)))
        C = hadamard(dim) @ shear_gate(dim, t) @ C
    return C, l


@_per_spec
def mediator_of(spec: EntanglingGateSpec
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A mediator target qudit for a gate of (C1 x C2) CP form.

    Returns (init C^dag |0_X>, basis matrix G_C = C^dag H M(l) whose
    column s is outcome s's vector, local diagonal e^{i theta_s}
    <G_C e_s, P(s) init>), with _pauli_to_z's C taking P to Z^l (or its
    NonInvertibleGcd).  NotControlledPauliForm unless the target Clifford
    commutes with P; FrameMismatch unless P(s) maps the init onto basis
    vector s up to a phase.
    """
    dim = spec.dim
    bf = factor_block_controlled_pauli(spec)
    C, l = _pauli_to_z(dim, bf.P.z[0], bf.P.x[0])
    P = matrix_of_pauli(bf.P)
    if not np.max(np.abs(bf.C2 @ P - P @ bf.C2)) <= PAULI_TOL:
        raise NotControlledPauliForm(
            "target Clifford does not commute with the controlled Pauli")
    Cd = C.conj().T
    phi = Cd @ xplus_state(dim)
    phi = phi / np.linalg.norm(phi)
    G = Cd @ hadamard(dim) @ mult_gate(dim, l)
    # c[s] = <G_C e_s, P(s) init>
    c = np.array([np.vdot(G[:, s], Ps @ phi) for s, Ps in
                  zip(dim.elements, _controlled_paulis(bf.P))])
    if not np.max(np.abs(np.abs(c) - 1)) <= PAULI_TOL:
        raise FrameMismatch(
            "mediator init is not mapped to the G_C basis by the Pauli")
    return (_read_only(phi), _read_only(G),
            _read_only(np.exp(1j * bf.thetas) * c))


@_per_spec
def mediator_tables(spec: EntanglingGateSpec, mode: str
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Branch table W and predicted action Q of a mediator step, (d, d, d)
    arrays indexed [outcome k, control a, control b], checked once.

    The gate is sum_j |j><j| (x) U_j, with U_j = diag(e^{i theta_j}) for
    a diagonal gate and block j for a block-diagonal one, so after both
    controls outcome k leaves W[k, a, b] psi[a, b], where W[k, a, b] =
    <b_k| U_b U_a |init> and b_k is column k of G_C H (mode "disconnect")
    or else of G_C S^-1 H ("entangle"), mediator_of's init and G_C.  The
    predicted action is diagonal too: Q[k] = A_k (x) A_k, or
    (A_k S (x) A_k S) CZ, with A_k = diag(local) Z^{-k}.  FrameMismatch unless each W[k] is
    c_k Q[k] for one constant c_k, at VERIFY_TOL: the predicted action,
    checked for every input at once.  NonUnitary if the basis is not
    orthonormal.
    """
    dim = spec.dim
    d = dim.d
    init, G, local = mediator_of(spec)
    U = spec.blocks if spec.kind == BLOCK_DIAGONAL \
        else np.eye(d) * np.exp(1j * spec.theta)[:, None, :]
    s = np.diag(sgate(dim))
    B = (G if mode == "disconnect" else G * s.conj()) @ hadamard(dim)
    require_unitary(B, f"basis {mode!r} is not orthonormal")
    UbUa = np.einsum("bce,ae->abc", U, U @ init)
    W = np.einsum("ck,abc->kab", B.conj(), UbUa)
    mul, _, sub, chi = dim.tables
    # A[k, j] = local[j] chi(-k j)
    A = local * chi[mul[sub[0]]]
    Q = A[:, :, None] * A[:, None, :]
    if mode == "entangle":
        cz = np.diag(gate_matrix(cz_spec(dim))).reshape(d, d)
        Q = Q * (np.outer(s, s) * cz)
    c = np.einsum("kab,kab->k", Q.conj(), W) / d ** 2
    deviation = np.max(np.abs(W - c[:, None, None] * Q))
    if not (deviation <= VERIFY_TOL):
        raise FrameMismatch(f"mediator {mode} branches deviate from the "
                            f"predicted action by {deviation:.3e}")
    return _read_only(W), _read_only(Q)


# --- JSON ----------------------------------------------------------------

def gate_to_json(spec: EntanglingGateSpec) -> dict:
    out = {"dim": dim_to_json(spec.dim), "kind": spec.kind}
    if spec.init_phases is not None:
        out["init_phases"] = [float(v) for v in spec.init_phases]
    if spec.kind == DIAGONAL:
        out["theta"] = [[float(v) for v in row] for row in spec.theta]
    elif spec.kind == BLOCK_DIAGONAL:
        out["blocks"] = complex_to_json(spec.blocks)
    else:
        out["name"] = spec.name
        if spec.ls_theta is not None:
            out["theta"] = float(spec.ls_theta)
    return out


def gate_from_json(obj: dict) -> EntanglingGateSpec:
    obj = json_check(obj, dict, "gate")
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
        blocks = json_complex(obj["blocks"], (d, d, d), "blocks")
        return EntanglingGateSpec(dim, BLOCK_DIAGONAL, blocks=blocks,
                                  init_phases=init)
    if kind == NAMED:
        name, theta = obj["name"], obj.get("theta")
        if theta is None and name in ("cz", "cx"):
            return (cz_spec if name == "cz" else cx_spec)(dim)
        if theta is not None:
            theta = float(json_array(theta, (), "theta"))
        if name == "light_shift":
            return light_shift_spec(dim, theta)
        return EntanglingGateSpec(dim, NAMED, name=name, ls_theta=theta)
    raise DimensionMismatch(f"unknown gate kind {kind!r}")
