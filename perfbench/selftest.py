"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the library's own test run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, public_functions  # noqa: E402


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


# --- smoke runs -----------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result_line(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = benchmark_json()["per_layer" if trace == "1" else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "compile-haar", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- checkers -------------------------------------------------------------

def compile_report(workdir):
    entry = workloads.prepare_compile(0, True, workdir)["entries"][2]
    op = workloads.make_compile_ops({"entries": [entry]}, workdir, 0)[0]
    rc, text = op.call(0)
    assert rc == 0
    return text, workloads.matrix_from_json(entry["target"])


def test_compile_check_accepts_real_report(workdir):
    text, U = compile_report(workdir)
    assert checks.check_compile_report(text, U) is None


def test_compile_check_rejects_perturbed_phase(workdir):
    text, U = compile_report(workdir)
    report = json.loads(text)
    report["results"]["pattern"]["steps"][1]["phases"][0] += 0.05
    reason = checks.check_compile_report(json.dumps(report), U)
    assert reason is not None and "residual" in reason


def test_compile_check_rejects_too_many_steps(workdir):
    text, U = compile_report(workdir)
    report = json.loads(text)
    pattern = report["results"]["pattern"]
    d = U.shape[0]
    zero = {"phases": [0.0] * d, "adaptive": True}
    pattern["steps"] += [zero] * (d * 8)
    report["results"]["steps"] = len(pattern["steps"])
    assert "exceed" in checks.check_compile_report(json.dumps(report), U)


def test_field_frame_matches_library():
    from quditmbqc.galois import FINITE_FIELD, make_dim
    from quditmbqc.pauli import PauliWord, pauli_to_json, zx_matrix
    dim = make_dim(FINITE_FIELD, p=2, m=2)
    arith = checks.Arithmetic({"kind": "finite_field", "p": 2, "m": 2,
                               "poly": list(dim.poly)})
    for z in dim.elements:
        for x in dim.elements:
            w = PauliWord(dim, 1, (z,), (x,), 0)
            assert np.allclose(checks.frame_matrix(arith, pauli_to_json(w)),
                               zx_matrix(w))


def run_report(workdir):
    inputs = workloads.prepare_run(0, True, workdir)
    op = workloads.make_run_ops(inputs, workdir, 0)[0]
    rc, text = op.call(0)
    return rc, text, inputs["trials"]


def test_run_check(workdir):
    rc, text, trials = run_report(workdir)
    assert checks.check_run_report(rc, text, trials) is None
    low = json.loads(text)
    low["results"]["min_fidelity"] = 1 - 1e-6
    assert "below" in checks.check_run_report(rc, json.dumps(low), trials)
    assert "trials" in checks.check_run_report(rc, text, trials + 1)
    assert "exit code" in checks.check_run_report(6, text, trials)


# --- tracer ---------------------------------------------------------------

def traced_compile_slice(workdir):
    inputs = workloads.prepare_compile(0, True, workdir)
    ops = workloads.make_compile_ops(inputs, workdir, 0)
    tracer = Tracer()
    with tracer:
        wall, _, _ = run.run_slice(ops, run.Ledger(), run.Clock(),
                                   check=False)
    return tracer, wall


def test_self_times_within_span_wall(workdir):
    tracer, wall = traced_compile_slice(workdir)
    selfs = tracer.self_times()
    assert min(selfs) > -1e-9
    top = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert sum(selfs) <= top + 1e-9
    assert top <= wall


def test_compile_traces_match_pauli(workdir):
    tracer, _ = traced_compile_slice(workdir)
    totals = tracer.totals()
    assert totals["pauli.match_pauli"]["calls"] > 0
    assert totals["compiler.compile_unitary"]["calls"] == 3
    assert tracer.method_calls["galois.mul"] > 0


def test_tracer_restores_originals():
    import quditmbqc.compiler as compiler
    import quditmbqc.pauli as pauli
    from quditmbqc.galois import DimSpec
    before = (pauli.match_pauli, compiler.match_pauli, DimSpec.add)
    with Tracer():
        assert compiler.match_pauli is pauli.match_pauli
        assert compiler.match_pauli is not before[0]
    assert (pauli.match_pauli, compiler.match_pauli, DimSpec.add) == before


def test_layer_spans_exist():
    import quditmbqc  # noqa: F401
    names = set(public_functions())
    for spec in run.load_layers()["per_layer"]:
        for span in spec.get("spans", []) + [spec.get("root")]:
            assert span is None or span in names, span


# --- BENCHMARK.json -------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_contract():
    b = benchmark_json()
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert b["paths"] == ["perfbench"]
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    e2e = {m["name"]: m for m in b["end_to_end"]}
    assert list(e2e) == list(run.E2E_NAMES)
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"]
                                          for m in b["end_to_end"])
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    layer_names = [m["name"] for m in run.load_layers()["per_layer"]]
    assert [m["name"] for m in b["per_layer"]] == layer_names
    for m in b["end_to_end"] + b["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert 1 <= b["run_seconds"] <= 60
