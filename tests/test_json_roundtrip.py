"""Graph, pattern, Pauli and gate JSON round trips: what a file holds
comes back the same, bit for bit, over every supported small dimension."""

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_galois import AXIOM_DIMS

from quditmbqc.compiler import (
    MeasurementPattern,
    PatternStep,
    pattern_from_json,
    pattern_to_json,
)
from quditmbqc.engine import (
    GraphEdge,
    chain_graph,
    diagonal_lattice,
    graph_from_json,
    graph_to_json,
)
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, dim_to_json, make_dim
from quditmbqc.pauli import PauliWord, pauli_from_json, pauli_to_json
from quditmbqc.resource import (
    BLOCK_DIAGONAL,
    DIAGONAL,
    EntanglingGateSpec,
    cx_spec,
    cz_spec,
    gate_from_json,
    gate_to_json,
    intrinsic_of,
    light_shift_spec,
)

DIMS = [make_dim(INTEGER_RING, d=d) for d in (2, 3, 4, 5)] \
    + [make_dim(FINITE_FIELD, p=2, m=2)]
ANGLES = st.floats(-10, 10, allow_nan=False)


def _through_json(obj) -> dict:
    """obj as a file holds it: dumped to JSON text and read back."""
    return json.loads(json.dumps(obj))


def _bits(arr: np.ndarray) -> tuple:
    return arr.dtype.str, arr.shape, arr.tobytes()


@st.composite
def gates(draw, dim):
    """cz, cx or a light shift at an angle drawn (the default angle has
    no real solution for d = 5)."""
    kind = draw(st.sampled_from(["cz", "cx", "light_shift"]))
    if kind == "light_shift":
        return light_shift_spec(dim, draw(ANGLES))
    return cz_spec(dim) if kind == "cz" else cx_spec(dim)


@st.composite
def graphs(draw):
    """A chain or a lattice over Z2-Z5 or GF(4), its edges' gates and seqs
    redrawn, each init None, real phases, a complex phase vector or a
    Z-basis label, or a raw complex state whose parts may be signed
    zeros."""
    dim = draw(st.sampled_from(DIMS))
    d = dim.d
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    graph = chain_graph(dim, cz_spec(dim), cols) if rows == 1 \
        else diagonal_lattice(dim, rows, cols, cz_spec(dim))
    seqs = draw(st.permutations(range(len(graph.edges))))
    edges = [GraphEdge(e.control, e.target, draw(gates(dim)), seq)
             for e, seq in zip(graph.edges, seqs)]

    def init():
        kind = draw(st.sampled_from(["none", "real", "complex", "label",
                                     "raw"]))
        if kind == "label":
            return draw(st.integers(0, d - 1))
        if kind == "none":
            return None
        if kind == "raw":
            parts = st.sampled_from([0.0, -0.0, 0.5, -1.0])
            return np.array([complex(draw(parts), draw(parts))
                             for _ in range(d)])
        phases = np.array(draw(st.lists(ANGLES, min_size=d, max_size=d)))
        return phases if kind == "real" else np.exp(1j * phases) / np.sqrt(d)

    vertices = [replace(v, init=init()) for v in graph.vertices]
    return replace(graph, vertices=vertices, edges=edges)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_graph_json_round_trip_is_exact(graph):
    back = graph_from_json(_through_json(graph_to_json(graph)))
    assert dim_to_json(back.dim) == dim_to_json(graph.dim)
    assert [v.id for v in back.vertices] == [v.id for v in graph.vertices]
    for v, w in zip(graph.vertices, back.vertices):
        if v.init is None or isinstance(v.init, int):
            assert type(w.init) is type(v.init) and w.init == v.init
        else:
            assert _bits(w.init) == _bits(v.init)
    assert [(e.control, e.target, e.seq, gate_to_json(e.gate))
            for e in back.edges] == \
        [(e.control, e.target, e.seq, gate_to_json(e.gate))
         for e in graph.edges]


@st.composite
def patterns(draw):
    """A pattern over Z2-Z5 or GF(4): a named gate's intrinsic gate, or a
    bare intrinsic matrix (gate None), steps of drawn phases and adaptivity,
    and a frame word with a drawn phase."""
    dim = draw(st.sampled_from(DIMS))
    d = dim.d
    spec = draw(gates(dim))
    gate = draw(st.sampled_from([spec, None]))
    intrinsic = intrinsic_of(spec)
    steps = [PatternStep(np.array(draw(st.lists(ANGLES, min_size=d,
                                                max_size=d))),
                         draw(st.booleans()))
             for _ in range(draw(st.integers(1, 5)))]
    frame = PauliWord(dim, 1, (draw(st.integers(0, d - 1)),),
                      (draw(st.integers(0, d - 1)),),
                      draw(st.integers(0, dim.phase_den - 1)))
    return MeasurementPattern(dim, intrinsic, steps, frame, gate)


@settings(max_examples=150, deadline=None)
@given(patterns())
def test_pattern_json_round_trip_is_exact(pattern):
    back = pattern_from_json(_through_json(pattern_to_json(pattern)))
    assert dim_to_json(back.dim) == dim_to_json(pattern.dim)
    assert [(_bits(s.phases), s.adaptive) for s in back.steps] == \
        [(_bits(s.phases), s.adaptive) for s in pattern.steps]
    assert (back.frame.z, back.frame.x, back.frame.phase_num) == \
        (pattern.frame.z, pattern.frame.x, pattern.frame.phase_num)
    assert (back.gate is None) == (pattern.gate is None)
    if pattern.gate is not None:
        assert gate_to_json(back.gate) == gate_to_json(pattern.gate)
    assert _bits(back.intrinsic.matrix) == _bits(pattern.intrinsic.matrix)


@st.composite
def words(draw):
    """A word on one to three sites over any AXIOM_DIMS dimension, its
    values and phase drawn."""
    dim = draw(st.sampled_from(AXIOM_DIMS))
    n = draw(st.integers(1, 3))
    values = st.lists(st.integers(0, dim.d - 1), min_size=n, max_size=n)
    return PauliWord(dim, n, tuple(draw(values)), tuple(draw(values)),
                     draw(st.integers(0, dim.phase_den - 1)))


@settings(max_examples=150, deadline=None)
@given(words())
def test_pauli_json_round_trip_is_exact(word):
    obj = _through_json(pauli_to_json(word))
    back = pauli_from_json(word.dim, obj)
    assert back == word and pauli_to_json(back) == obj


@st.composite
def any_gates(draw):
    """A named gate, or a diagonal or block-diagonal one of arbitrary
    entries, signed zeros among them, with or without init phases, over
    any AXIOM_DIMS dimension."""
    dim = draw(st.sampled_from(AXIOM_DIMS))
    d = dim.d
    kind = draw(st.sampled_from([DIAGONAL, BLOCK_DIAGONAL, "named"]))
    if kind == "named":
        return draw(gates(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def floats(*shape):
        return np.where(rng.random(shape) < 0.2, -0.0,
                        rng.normal(size=shape) * 10)

    init = draw(st.sampled_from([None, floats(d)]))
    if kind == DIAGONAL:
        return EntanglingGateSpec(dim, DIAGONAL, theta=floats(d, d),
                                  init_phases=init)
    return EntanglingGateSpec(dim, BLOCK_DIAGONAL, init_phases=init,
                              blocks=floats(d, d, d) + 1j * floats(d, d, d))


@settings(max_examples=150, deadline=None)
@given(any_gates())
def test_gate_json_round_trip_is_exact(spec):
    obj = _through_json(gate_to_json(spec))
    back = gate_from_json(obj)
    assert back.dim is spec.dim and gate_to_json(back) == obj
    assert (back.kind, back.name, back.ls_theta) == \
        (spec.kind, spec.name, spec.ls_theta)
    for key in ("theta", "blocks", "init_phases"):
        got, want = getattr(back, key), getattr(spec, key)
        assert (got is None) == (want is None)
        if want is not None:
            assert _bits(got) == _bits(want)
