"""The three benchmark workloads: their inputs and the operations they time.

Each workload has two halves:

* ``prepare(seed, tiny, workdir)`` builds the inputs and returns them as plain JSON
  data.  It is the set-up that ``setup_s`` measures, so it runs in a fresh
  interpreter (see ``run.py``) and may call the library (``run-trajectories``
  compiles its patterns here).
* ``make_ops(inputs, workdir, seed)`` turns those inputs into ``Op`` objects.
  ``Op.call`` is the timed part; ``Op.check`` verifies its output afterwards
  and is not timed.

Compile targets come from a fixed Haar corpus (``CORPUS_SEED``), not from
the workload seed.  Compile time per target spans 5 ms to over 1 s depending
on how many ALS restarts the target needs, so targets drawn afresh per seed
move a run's totals by 20-30 % between seeds.  The seed orders the calls and
draws everything else: trajectory seeds, measurement outcomes, and the input
states of the protocols.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import checks

CORPUS_SEED = 2506_20724
TARGETS_PER_FAMILY = 10
RUN_TRIALS = 100

# (formalism, d, gate) for the 11 compile / run families
FAMILIES = [("ring", 2, g) for g in ("cz", "light_shift", "cx")] \
    + [("ring", 3, g) for g in ("cz", "light_shift", "cx")] \
    + [("field", 4, g) for g in ("cz", "light_shift", "cx")] \
    + [("ring", 5, g) for g in ("cz", "cx")]
TINY_FAMILIES = [("ring", 2, "cz"), ("ring", 3, "cx"), ("field", 4, "cz")]

WORKLOADS = ("compile-haar", "run-trajectories", "graph-rewrite")


@dataclass
class Op:
    """One timed call of the workload and its untimed correctness check."""
    key: str                       # stable name of the input it runs on
    part: str                      # group the op reports under
    units: int                     # verified work units the op completes
    steps: Optional[int]           # measurement steps; None: read output
    call: Callable[[int], object]  # timed; takes the pass index
    check: Callable[[object], Optional[str]]  # failure reason or None
    repeatable: bool = True        # output must repeat byte for byte
    calls: int = 1                 # library calls the op makes in a row

    def steps_of(self, out) -> int:
        """Steps of the op, or of the pattern a `compile` call emitted."""
        if self.steps is not None:
            return self.steps
        return int(json.loads(out[1])["results"]["steps"])


# --- shared helpers -------------------------------------------------------

def _dim(formalism: str, d: int):
    from quditmbqc.galois import FINITE_FIELD, INTEGER_RING, make_dim
    if formalism == "field":
        return make_dim(FINITE_FIELD, d=d)
    return make_dim(INTEGER_RING, d=d)


def _gate_json(formalism: str, d: int, gate: str) -> dict:
    from quditmbqc import resource
    spec = getattr(resource, f"{gate}_spec")(_dim(formalism, d))
    return resource.gate_to_json(spec)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d))
         + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_json(U: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in U]


def matrix_from_json(obj) -> np.ndarray:
    return np.array([[complex(a, b) for a, b in row] for row in obj])


def dim_name(formalism: str, d: int) -> str:
    return "GF4" if formalism == "field" else f"Z{d}"


def family_name(formalism: str, d: int, gate: str) -> str:
    return f"{dim_name(formalism, d)}-{gate}"


def cli_call(argv: List[str]):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    from quditmbqc import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _order(n: int, seed: int) -> List[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


# --- compile-haar ---------------------------------------------------------

def _corpus(families, per_family: int) -> List[dict]:
    entries = []
    for fi, (formalism, d, gate) in enumerate(FAMILIES):
        if (formalism, d, gate) not in families:
            continue
        rng = np.random.default_rng([CORPUS_SEED, fi])
        gate_json = _gate_json(formalism, d, gate)
        for j in range(per_family):
            entries.append({
                "family": family_name(formalism, d, gate),
                "d": d,
                "gate": gate_json,
                "target": matrix_json(haar_unitary(d, rng)),
                "compile_seed": j,
            })
    return entries


def prepare_compile(seed: int, tiny: bool, workdir: str) -> dict:
    if tiny:
        return {"entries": _corpus(TINY_FAMILIES, 1)}
    return {"entries": _corpus(FAMILIES, TARGETS_PER_FAMILY)}


def make_compile_ops(inputs: dict, workdir: str, seed: int) -> List[Op]:
    ops = []
    entries = inputs["entries"]
    for idx in _order(len(entries), seed):
        e = entries[idx]
        key = f"{e['family']}#{idx}"
        gate = _write_json(os.path.join(workdir, f"gate-{idx}.json"),
                           e["gate"])
        target = _write_json(os.path.join(workdir, f"target-{idx}.json"),
                             {"matrix": e["target"]})
        argv = ["compile", "--gate", gate, "--target", target,
                "--seed", str(e["compile_seed"])]
        U = matrix_from_json(e["target"])

        def check(out, U=U):
            rc, text = out
            if rc != 0:
                return f"exit code {rc}"
            return checks.check_compile_report(text, U)

        ops.append(Op(key, e["family"], 1, None,
                      lambda _p, argv=argv: cli_call(argv), check))
    return ops


# --- run-trajectories -----------------------------------------------------

def prepare_run(seed: int, tiny: bool, workdir: str) -> dict:
    """Compile one corpus target per family into a pattern via the CLI."""
    import tempfile
    patterns = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for e in _corpus(TINY_FAMILIES if tiny else FAMILIES, 1):
            gate = _write_json(os.path.join(tmp, "gate.json"), e["gate"])
            target = _write_json(os.path.join(tmp, "target.json"),
                                 {"matrix": e["target"]})
            rc, text = cli_call(["compile", "--gate", gate, "--target",
                                 target, "--seed", str(e["compile_seed"])])
            if rc != 0:
                raise RuntimeError(f"set-up compile of {e['family']} "
                                   f"exited {rc}")
            results = json.loads(text)["results"]
            patterns.append({"family": e["family"],
                             "pattern": results["pattern"],
                             "steps": results["steps"]})
    return {"patterns": patterns, "trials": 10 if tiny else RUN_TRIALS}


def make_run_ops(inputs: dict, workdir: str, seed: int) -> List[Op]:
    ops = []
    trials = inputs["trials"]
    patterns = inputs["patterns"]
    for idx in _order(len(patterns), seed):
        p = patterns[idx]
        path = _write_json(os.path.join(workdir, f"pattern-{idx}.json"),
                           p["pattern"])
        argv = ["run", "--pattern", path, "--trials", str(trials),
                "--seed", str(seed * 100_000 + idx * trials)]

        def check(out):
            rc, text = out
            return checks.check_run_report(rc, text, trials)

        ops.append(Op(p["family"], p["family"], trials, p["steps"],
                      lambda _p, argv=argv: cli_call(argv), check))
    return ops


# --- graph-rewrite --------------------------------------------------------

# (formalism, d, leaves) for local complementation at a star's centre
LC_STARS = [("ring", 2, k) for k in (1, 2, 3, 4)] \
    + [("ring", 3, k) for k in (1, 2, 3)] + [("ring", 5, k) for k in (1, 2)]
# (formalism, d, rows, cols, gate, deleted vertices)
VDEL_LATTICES = [("ring", 3, 3, 3, "cz", (4, 0)),
                 ("field", 4, 3, 3, "cz", (4, 0)),
                 ("ring", 5, 2, 4, "cz", (1, 0)),
                 ("ring", 2, 2, 5, "light_shift", (2, 0))]
PROTOCOL_DIMS = [("ring", 2), ("ring", 3), ("field", 4), ("ring", 4),
                 ("ring", 5)]

# Inputs the library documents as unsupported; they are not run.
UNSUPPORTED = [
    {"case": "mediator_step over GF(4), cz and cx",
     "raises": "NotControlledPauliForm",
     "reason": "U0^-1 U1 is not a Pauli operator in the field formalism"},
]
# Inputs that fail today although they should not.  They run once per
# graph-rewrite run, untimed, and are reported apart from the checked ops.
KNOWN_DEFECTS = [
    {"case": "local_complement GF4 cz 3-chain centre",
     "expected_when_fixed": "verifies",
     "fails_today_with": "FrameMismatch"},
]


def _random_state(rng: np.random.Generator, size: int) -> list:
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v = v / np.linalg.norm(v)
    return [[float(a.real), float(a.imag)] for a in v]


def prepare_graph(seed: int, tiny: bool, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    stars = [(f, d, k) for f, d, k in LC_STARS if not tiny or k == 1]
    lattices = [x for x in VDEL_LATTICES if not tiny or x[1] == 2]
    dims = [x for x in PROTOCOL_DIMS if not tiny or x[1] <= 3]
    protocols = []
    for formalism, d in dims:
        protocols.append({"formalism": formalism, "d": d,
                          "psi2": _random_state(rng, d * d),
                          "psi1": _random_state(rng, d)})
    # dimension tables are part of set-up
    for formalism, d in dims:
        _dim(formalism, d)
    return {"stars": stars, "lattices": lattices, "protocols": protocols,
            "lattice_3x3": not tiny}


def _vec(obj) -> np.ndarray:
    return np.array([complex(a, b) for a, b in obj])


def _star(dim, leaves: int):
    from quditmbqc.engine import GraphEdge, ResourceGraph, Vertex
    from quditmbqc.resource import cz_spec
    vertices = [Vertex(i, np.zeros(dim.d)) for i in range(leaves + 1)]
    edges = [GraphEdge(0, i, cz_spec(dim), i - 1)
             for i in range(1, leaves + 1)]
    return ResourceGraph(dim, vertices, edges)


def _rng(seed: int, pass_index: int, call: int, idx: int) -> int:
    return seed * 1_000_003 + (pass_index * 64 + call) * 1009 + idx


def _frame(frame) -> dict:
    return {"z": [int(v) for v in frame.word.z],
            "x": [int(v) for v in frame.word.x],
            "history": [list(map(int, h)) for h in frame.history]}


def make_graph_ops(inputs: dict, workdir: str, seed: int) -> List[Op]:
    """One op per input; ops of a few ms repeat their call (``calls``)
    with fresh measurement seeds so that each op runs for 10 ms or more."""
    from quditmbqc import engine
    from quditmbqc.resource import cx_spec, cz_spec, light_shift_spec
    specs = {"cz": cz_spec, "cx": cx_spec, "light_shift": light_shift_spec}
    ops: List[Op] = []

    def add(key, part, steps, calls, fn, check=lambda out: None):
        idx = len(ops)

        def call(p):
            return [fn(_rng(seed, p, c, idx)) for c in range(calls)]

        def check_all(outs):
            return next((r for r in map(check, outs) if r is not None), None)

        ops.append(Op(key, part, calls, steps, call, check_all,
                      repeatable=False, calls=calls))

    def lc(graph, vid):
        def fn(r):
            _, m, corr, new = engine.local_complement(graph, vid, rng=r)
            return {"outcome": m, "corrections": [c.label for c in corr],
                    "edges": sorted(sorted((e.control, e.target))
                                    for e in new.edges)}
        return fn

    def vdel(graph, vid):
        def fn(r):
            _, m, corr, _ = engine.vertex_delete(graph, vid, rng=r)
            return {"outcome": m, "corrections": [c.label for c in corr]}
        return fn

    def y_identity(out):
        if [0, 2] not in out["edges"]:
            return "qubit 3-chain: endpoints not joined after LC"
        return None

    for formalism, d, k in inputs["stars"]:
        dim = _dim(formalism, d)
        calls = 8 if k == 1 else 2 if (d, k) == (2, 2) else 1
        add(f"lc {family_name(formalism, d, 'cz')} star{k}", "lc", 1, calls,
            lc(_star(dim, k), 0))
    d2 = _dim("ring", 2)
    add("lc Z2-cz 3-chain (Y identity)", "lc", 1, 2,
        lc(engine.chain_graph(d2, cz_spec(d2), 3), 1), y_identity)
    if inputs["lattice_3x3"]:
        add("lc Z2-cz 3x3 centre", "lc", 1, 1,
            lc(engine.diagonal_lattice(d2, 3, 3, cz_spec(d2)), 4))
    for formalism, d, rows, cols, gate, vids in inputs["lattices"]:
        dim = _dim(formalism, d)
        graph = engine.diagonal_lattice(dim, rows, cols, specs[gate](dim))
        for vid in vids:
            add(f"vdel {family_name(formalism, d, gate)} {rows}x{cols} "
                f"v{vid}", "vdel", 1, 2 if d == 2 else 1, vdel(graph, vid))
    for prot in inputs["protocols"]:
        formalism, d = prot["formalism"], prot["d"]
        dim = _dim(formalism, d)
        psi2, psi1 = _vec(prot["psi2"]), _vec(prot["psi1"])
        name = dim_name(formalism, d)
        if formalism == "ring":
            for gate in ("cz", "cx"):
                for mode in ("disconnect", "entangle"):
                    add(f"mediator {name} {gate} {mode}", "protocol", 1, 16,
                        lambda r, s=specs[gate](dim), mode=mode, psi=psi2:
                        _frame(engine.mediator_step(s, psi, mode,
                                                    rng=r).frame))
        add(f"entangle_via_edge {name}", "protocol", 4, 8 if d <= 3 else 2,
            lambda r, dim=dim, psi=psi2: _frame(
                engine.entangle_via_edge(dim, psi, rng=r)[1]))
        chain = engine.chain_graph(dim, cz_spec(dim), 2)
        add(f"couple_input {name}", "protocol", 1, 8,
            lambda r, chain=chain, psi=psi1: _frame(
                engine.couple_input(psi, chain, rng=r)[1]))
    order = _order(len(ops), seed)
    return [ops[i] for i in order]


def probe_known_defects(seed: int) -> List[dict]:
    """Run each known-defect input once and report what it did."""
    from quditmbqc import engine
    from quditmbqc.errors import QuditError
    from quditmbqc.resource import cz_spec
    f4 = _dim("field", 4)
    graph = engine.chain_graph(f4, cz_spec(f4), 3)
    out = dict(KNOWN_DEFECTS[0])
    try:
        engine.local_complement(graph, 1, rng=seed)
        out["observed"] = "verifies"
    except QuditError as exc:
        out["observed"] = type(exc).__name__
    return [out]


PREPARE = {"compile-haar": prepare_compile, "run-trajectories": prepare_run,
           "graph-rewrite": prepare_graph}
MAKE_OPS = {"compile-haar": make_compile_ops,
            "run-trajectories": make_run_ops,
            "graph-rewrite": make_graph_ops}


def trace_slice(workload: str, ops: List[Op]) -> List[Op]:
    """The ops a traced run repeats: one compile per family, else a pass."""
    if workload != "compile-haar":
        return list(ops)
    seen, out = set(), []
    for op in ops:
        if op.part not in seen:
            seen.add(op.part)
            out.append(op)
    return out
