"""Command-line surface: analyze, compile, run, table, transport.

All output is JSON with stable key order and floats at 17 significant
digits, so identical inputs and seed give byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from . import __version__
from .errors import (
    CompilationDiverged,
    FrameMismatch,
    NoRealSolution,
    NotCliffordError,
    NotControlledPauliForm,
    QuditError,
    UnsupportedFormalism,
    WrongFormalism,
)
from .galois import (
    FINITE_FIELD,
    INTEGER_RING,
    complex_to_json,
    json_check,
    json_complex,
    make_dim,
)
from .gates import basis_state, hadamard, sgate, xplus_state
from .clifford import universality_check
from .compiler import (
    compile_unitary,
    pattern_from_json,
    pattern_to_json,
    transport_pattern,
)
from .engine import chain_graph, graph_from_json, run_trajectories
from .pauli import PAULI_TOL
from .resource import (
    DIAGONAL,
    cx_spec,
    cz_spec,
    expand,
    factor_block_controlled_pauli,
    factor_diagonal_clifford,
    gate_from_json,
    gate_matrix,
    intrinsic_of,
    light_shift_spec,
)
from .sim import StateVector, is_max_entangled, state_to_json

EXIT_PARSE = 2
EXIT_FORMALISM = 3
EXIT_TABLE = 4
EXIT_DIVERGED = 5
EXIT_FRAME = 6

_FLOAT_MARK = "@@F{}F@@"


def _mark_floats(obj):
    if isinstance(obj, float):
        return _FLOAT_MARK.format(format(obj, ".17g"))
    if isinstance(obj, dict):
        return {k: _mark_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_mark_floats(v) for v in obj]
    return obj


def dumps_report(obj: dict) -> str:
    """Stable JSON text: sorted keys, 17-significant-digit floats."""
    text = json.dumps(_mark_floats(obj), sort_keys=True)
    return re.sub(r'"@@F(-?[0-9.eE+naif-]+)F@@"', r"\1", text)


def _digest(paths: List[Optional[str]]) -> str:
    h = hashlib.sha256()
    for p in sorted(x for x in paths if x):
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _report(command: str, digest: str, results: dict,
            seed: Optional[int]) -> dict:
    return {
        "command": command,
        "inputs_sha256": digest,
        "results": results,
        "seed": seed,
        "version": __version__,
    }


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_gate(args):
    """The --gate spec; UnsupportedFormalism unless it uses --formalism."""
    spec = gate_from_json(_load_json(args.gate))
    want = {"ring": INTEGER_RING, "field": FINITE_FIELD}.get(args.formalism)
    if want is not None and spec.dim.kind != want:
        raise UnsupportedFormalism(
            f"gate dimension uses {spec.dim.kind}, not {args.formalism}")
    return spec


# --- analyze --------------------------------------------------------------

def cmd_analyze(args) -> int:
    spec = _load_gate(args)
    note = None
    try:
        expand(spec)
    except NoRealSolution as exc:
        note = f"NoRealSolution: {exc}"
        spec = light_shift_spec(spec.dim, float(np.pi))
    kind = expand(spec).kind
    intr = intrinsic_of(spec)
    E = gate_matrix(spec)
    plus = xplus_state(spec.dim)
    st = StateVector(spec.dim, 2, E @ np.kron(plus, plus))
    max_ent = bool(is_max_entangled(st, [0])) and intr.unitary
    results = {
        "kind": kind,
        "intrinsic_matrix": complex_to_json(intr.matrix),
        "unitary": bool(intr.unitary),
        "clifford": bool(intr.is_clifford),
        "pauli_order": intr.pauli_order,
        "max_entangled": max_ent and note is None,
    }
    if note:
        results["note"] = note
    if intr.is_clifford:
        ok, (a, b) = universality_check(intr.clifford_cert)
        results["universality"] = {"universal": bool(ok),
                                   "witness": [int(a), int(b)]}
    try:
        if kind == DIAGONAL:
            C1, C2, N = factor_diagonal_clifford(spec)
            results["factorization"] = {
                "form": "(C1 x C2) CZ^N",
                "C1": complex_to_json(C1),
                "C2": complex_to_json(C2),
                "N": int(N),
            }
        else:
            bf = factor_block_controlled_pauli(spec)
            results["factorization"] = {
                "form": "(C1 x C2) CP",
                "P": {"z": int(bf.P.z[0]), "x": int(bf.P.x[0])},
                "thetas": [float(v) for v in bf.thetas],
            }
    except (NotCliffordError, NotControlledPauliForm) as exc:
        results["factorization"] = {"form": None, "note": str(exc)}
    print(dumps_report(_report("analyze", _digest([args.gate]),
                               results, None)))
    return 0


# --- table ----------------------------------------------------------------

def _table_rows():
    """Expected intrinsic forms and Pauli orders for the summary table."""
    rows = []
    for d in (2, 3, 4):
        dim = make_dim(FINITE_FIELD, p=2, m=2) if d == 4 \
            else make_dim(INTEGER_RING, d=d)
        H = hadamard(dim)
        S = sgate(dim)
        ls = light_shift_spec(dim)
        theta = expand(ls).theta[0, 1]
        U = (np.exp(1j * theta) * (np.ones((d, d)) - np.eye(d))
             + np.eye(d)) / np.sqrt(d)
        orders = {2: {"cz": 2, "light_shift": 2, "cx": 2},
                  3: {"cz": 4, "light_shift": 3, "cx": 3},
                  4: {"cz": 2, "light_shift": 2, "cx": 2}}[d]
        rows.append((dim, cz_spec(dim), "cz", H, orders["cz"]))
        rows.append((dim, ls, "light_shift", U, orders["light_shift"]))
        rows.append((dim, cx_spec(dim), "cx",
                     S @ np.linalg.inv(H) @ S, orders["cx"]))
    dim5 = make_dim(INTEGER_RING, d=5)
    H5, S5 = hadamard(dim5), sgate(dim5)
    rows.append((dim5, cx_spec(dim5), "cx",
                 S5 @ np.linalg.inv(H5) @ S5, 5))
    return rows


def cmd_table(args) -> int:
    rows = []
    mismatch = False
    for dim, spec, name, expected, order in _table_rows():
        intr = intrinsic_of(spec)
        got = intr.matrix
        ov = abs(np.trace(expected.conj().T @ got)) / dim.d
        form_ok = 1 - ov <= PAULI_TOL
        o = intr.pauli_order
        order_ok = o == order
        mismatch = mismatch or not (form_ok and order_ok)
        rows.append({
            "d": dim.d,
            "formalism": "field" if dim.kind == FINITE_FIELD else "ring",
            "gate": name,
            "pauli_order": o,
            "expected_order": order,
            "cost_bound": dim.d * o,
            "intrinsic_matches": bool(form_ok),
            "order_matches": bool(order_ok),
        })
    results = {"rows": rows, "all_match": not mismatch}
    print(dumps_report(_report("table", _digest([]), results, None)))
    return EXIT_TABLE if mismatch else 0


# --- compile / transport --------------------------------------------------

def _print_pattern(command: str, pattern, spec, paths: List[str],
                   seed: Optional[int]) -> int:
    pattern.gate = spec
    results = {"pattern": pattern_to_json(pattern),
               "steps": pattern.step_count()}
    if pattern.stats is not None:
        results["stats"] = asdict(pattern.stats)
    print(dumps_report(_report(command, _digest(paths), results, seed)))
    return 0


def cmd_compile(args) -> int:
    spec = _load_gate(args)
    target = json_check(_load_json(args.target), dict, "target")
    target = json_complex(target["matrix"], (None, None), "matrix")
    pattern = compile_unitary(target, intrinsic_of(spec), seed=args.seed or 0)
    return _print_pattern("compile", pattern, spec, [args.gate, args.target],
                          args.seed)


def cmd_transport(args) -> int:
    spec = _load_gate(args)
    return _print_pattern("transport", transport_pattern(intrinsic_of(spec)),
                          spec, [args.gate], None)


# --- run ------------------------------------------------------------------

def cmd_run(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    pattern = pattern_from_json(_load_json(args.pattern))
    dim = pattern.dim
    if args.graph:
        graph = graph_from_json(_load_json(args.graph))
    else:
        if pattern.gate is None:
            raise WrongFormalism("pattern has no gate; pass --graph")
        graph = chain_graph(dim, pattern.gate, pattern.step_count() + 1)
    psi = basis_state(dim, 0)
    trials, seed = args.trials, args.seed or 0
    runs = run_trajectories(graph, pattern, psi, range(seed, seed + trials))
    last = runs.frame(trials - 1)
    probs = runs.probabilities
    results = {
        "trials": trials,
        "min_fidelity": float(runs.fidelities.min()),
        "frame": {"z": [int(v) for v in last.word.z],
                  "x": [int(v) for v in last.word.x]},
        "history": [[int(a), int(b)] for a, b in last.history],
        "outcome_counts": [[int(c) for c in np.bincount(col, minlength=dim.d)]
                           for col in runs.outcomes.T],
        "outcome_prob_range": [[float(lo), float(hi)] for lo, hi in
                               zip(probs.min(axis=0), probs.max(axis=0))],
    }
    if args.dump_state:
        results["state"] = state_to_json(
            StateVector(dim, 1, runs.posteriors[-1]))
    print(dumps_report(_report(
        "run", _digest([args.pattern, args.graph]), results, seed)))
    return 0


# --- entry point ----------------------------------------------------------

# each command's flags: name -> add_argument keywords
_FLAGS = {"gate": {"required": True}, "target": {"required": True},
          "pattern": {"required": True}, "graph": {}, "seed": {"type": int},
          "trials": {"type": int, "default": 1},
          "dump-state": {"action": "store_true"},
          "formalism": {"choices": ["ring", "field"]}}
_COMMANDS = {"analyze": ("gate", "formalism"),
             "compile": ("gate", "target", "seed", "formalism"),
             "run": ("pattern", "graph", "seed", "trials", "dump-state"),
             "table": (),
             "transport": ("gate", "formalism")}
# exit code of a handler's error: the first matching kind, else EXIT_PARSE
_EXITS = (((UnsupportedFormalism, WrongFormalism), EXIT_FORMALISM),
          (CompilationDiverged, EXIT_DIVERGED), (FrameMismatch, EXIT_FRAME))


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quditmbqc")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, flags in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
    return p


_PARSER = make_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        # looked up by name on each call, so a rebound cmd_* is the one run
        return globals()[f"cmd_{args.cmd}"](args)
    except (OSError, KeyError, ValueError, QuditError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXITS
                     if isinstance(exc, kinds)), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
