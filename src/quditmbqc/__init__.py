"""Qudit MBQC toolkit: gate analysis, pattern compilation, verified MBQC
protocols and graph rewriting."""

from .galois import (
    DimSpec,
    FINITE_FIELD,
    INTEGER_RING,
    make_dim,
)
from .pauli import PauliWord, match_pauli, matrix_of_pauli
from .gates import cz_gate, hadamard, mult_gate, sgate, shear_gate
from .sim import StateVector
from .resource import (
    EntanglingGateSpec,
    IntrinsicGate,
    cx_spec,
    cz_spec,
    factor_block_controlled_pauli,
    factor_diagonal_clifford,
    intrinsic_of,
    light_shift_angle,
    light_shift_spec,
)
from .clifford import (
    CliffordCert,
    certify,
    pauli_order,
    universality_check,
)
from .compiler import (
    MeasurementPattern,
    PatternStep,
    compile_clifford,
    compile_unitary,
    transport_pattern,
)
from .engine import (
    PauliFrame,
    ResourceGraph,
    chain_graph,
    couple_input,
    entangle_via_edge,
    local_complement,
    mediator_step,
    run_pattern,
    run_trajectories,
    vertex_delete,
)

__version__ = "0.1.0"
