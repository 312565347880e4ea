"""Protocol and rewrite outputs pinned bit for bit by one golden digest.

The inputs are the graph-rewrite benchmark's: local complementation at
the centre of cz stars, of the Z2 3-chain and of the Z2 3x3 lattice,
vertex deletion on its four lattices, mediator_step in both modes for cz
and cx over Z_d, and couple_input on a cz 2-chain, each run with seeds
0-199 and with every forced outcome.  The digest hashes the outcomes,
the frames (z, x and exact phase numerator), the corrections (label,
exact images and diagonal bytes), the new graph's edges and the
posterior bytes, or the error a forced outcome raises.

A second digest pins entangle_via_edge over Z2, Z3, GF(4), Z4 and Z5
with seeds 0-199 and, for d <= 3, every forced 4-tuple: its outcomes,
frame (z, x and exact phase numerator) and posterior bytes.
"""

import hashlib
import itertools

import numpy as np

from quditmbqc import engine
from quditmbqc.errors import QuditError
from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
from quditmbqc.resource import (
    cx_spec,
    cz_spec,
    factor_diagonal_clifford,
    light_shift_spec,
)

GOLDEN = "e1168940e5f0e62baeee7f80693aa92667a70c8f0341fce5d8a2118be5787336"
EDGE_GOLDEN = (
    "49040f1c4ceddc995c29bdfc2f773545a11be1c5bfa6a2e846dcf68a16800f2e")

SEEDS = range(200)
SPECS = {"cz": cz_spec, "cx": cx_spec, "light_shift": light_shift_spec}


def _dim(formalism, d):
    if formalism == "ring":
        return make_dim(INTEGER_RING, d=d)
    return make_dim(FINITE_FIELD, p=2, m={4: 2}[d])


def _star(dim, leaves):
    vertices = [engine.Vertex(i, np.zeros(dim.d)) for i in range(leaves + 1)]
    edges = [engine.GraphEdge(0, i, cz_spec(dim), i - 1)
             for i in range(1, leaves + 1)]
    return engine.ResourceGraph(dim, vertices, edges)


def _state(dim, size):
    rng = np.random.default_rng([dim.d, size, dim.m])
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


def _calls():
    """(name, outcome count, call(rng, forced_outcome) -> record parts)."""
    def rewrite(rule, graph, vid):
        def call(r, k):
            state, m, corr, new = rule(graph, vid, rng=r, forced_outcome=k)
            assert state.graph is new and state.corrections is corr
            return [m, [(c.vertex, c.label, c.images, c.q.tobytes())
                        for c in corr],
                    [(e.control, e.target, e.seq,
                      factor_diagonal_clifford(e.gate)[2])
                     for e in new.edges]]
        return call

    def frame(f):
        return [f.word.z, f.word.x, f.word.phase_num, f.history]

    for formalism, d, k in [("ring", 2, k) for k in (1, 2, 3, 4)] \
            + [("ring", 3, k) for k in (1, 2, 3)] \
            + [("ring", 5, k) for k in (1, 2)]:
        dim = _dim(formalism, d)
        yield (f"lc {dim.label()} star{k}", d,
               rewrite(engine.local_complement, _star(dim, k), 0))
    d2 = _dim("ring", 2)
    yield ("lc Z2 3-chain", 2, rewrite(
        engine.local_complement, engine.chain_graph(d2, cz_spec(d2), 3), 1))
    yield ("lc Z2 3x3", 2, rewrite(
        engine.local_complement,
        engine.diagonal_lattice(d2, 3, 3, cz_spec(d2)), 4))
    for formalism, d, rows, cols, gate, vids in [
            ("ring", 3, 3, 3, "cz", (4, 0)), ("field", 4, 3, 3, "cz", (4, 0)),
            ("ring", 5, 2, 4, "cz", (1, 0)),
            ("ring", 2, 2, 5, "light_shift", (2, 0))]:
        dim = _dim(formalism, d)
        graph = engine.diagonal_lattice(dim, rows, cols, SPECS[gate](dim))
        for vid in vids:
            yield (f"vdel {dim.label()} {gate} v{vid}", d,
                   rewrite(engine.vertex_delete, graph, vid))
    for formalism, d in [("ring", 2), ("ring", 3), ("field", 4), ("ring", 4),
                         ("ring", 5)]:
        dim = _dim(formalism, d)
        psi2, psi1 = _state(dim, d * d), _state(dim, d)
        if formalism == "ring":
            for gate in ("cz", "cx"):
                for mode in ("disconnect", "entangle"):
                    def call(r, k, spec=SPECS[gate](dim), mode=mode,
                             psi=psi2):
                        out = engine.mediator_step(spec, psi, mode, rng=r,
                                                   forced_outcome=k)
                        return [out.outcome, frame(out.frame),
                                out.posterior.amps.tobytes(),
                                out.local_phases.tobytes()]
                    yield f"mediator {dim.label()} {gate} {mode}", d, call

        def couple(r, k, chain=engine.chain_graph(dim, cz_spec(dim), 2),
                   psi=psi1):
            post, f, m = engine.couple_input(psi, chain, rng=r,
                                             forced_outcome=k)
            return [m, frame(f), post.amps.tobytes()]
        yield f"couple_input {dim.label()}", d * d, couple


def _digest():
    h = hashlib.sha256()
    for name, count, call in _calls():
        runs = [(seed, None) for seed in SEEDS] + [(None, k)
                                                   for k in range(count)]
        for r, k in runs:
            try:
                record = call(r, k)
            except QuditError as exc:
                record = [type(exc).__name__, str(exc)]
            h.update(repr((name, r, k, record)).encode())
    return h.hexdigest()


def test_protocol_and_rewrite_outputs_match_the_golden_digest():
    assert _digest() == GOLDEN


def _edge_digest():
    h = hashlib.sha256()
    for formalism, d in [("ring", 2), ("ring", 3), ("field", 4), ("ring", 4),
                         ("ring", 5)]:
        dim = _dim(formalism, d)
        psi = _state(dim, d * d)
        forced = itertools.product(range(d), repeat=4) if d <= 3 else ()
        for r, k in [(seed, None) for seed in SEEDS] + [(None, list(ks))
                                                        for ks in forced]:
            post, f = engine.entangle_via_edge(dim, psi, rng=r,
                                               forced_outcomes=k)
            record = [f.word.z, f.word.x, f.word.phase_num, f.history,
                      post.amps.tobytes()]
            h.update(repr((dim.label(), r, k, record)).encode())
    return h.hexdigest()


def test_entangle_via_edge_outputs_match_the_golden_digest():
    assert _edge_digest() == EDGE_GOLDEN
