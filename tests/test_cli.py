"""Command-line interface: exit codes, report determinism, round trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quditmbqc import cli, resource
from quditmbqc.engine import chain_graph, graph_to_json
from quditmbqc.galois import (
    FINITE_FIELD,
    INTEGER_RING,
    complex_to_json,
    make_dim,
)
from quditmbqc.resource import cz_spec, gate_to_json, light_shift_spec

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert "@@F" not in out    # every float marker became a number
    return code, out


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_table_ok(capsys):
    code, out = run_cli(capsys, ["table"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["all_match"] is True
    assert len(report["results"]["rows"]) == 10


def test_table_mismatch_exits_4(monkeypatch, capsys):
    rows = cli._table_rows()
    dim, spec, name, expected, order = rows[0]
    monkeypatch.setattr(cli, "_table_rows",
                        lambda: [(dim, spec, name, expected, order + 1)])
    code, out = run_cli(capsys, ["table"])
    assert code == cli.EXIT_TABLE
    assert json.loads(out)["results"]["all_match"] is False


def test_analyze_cz(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    code, out = run_cli(capsys, ["analyze", "--gate", gate])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["clifford"] and res["unitary"] and res["max_entangled"]
    assert res["pauli_order"] == 4
    assert res["universality"]["universal"] is True


def test_analyze_infeasible_light_shift(tmp_path, capsys):
    dim5 = make_dim(INTEGER_RING, d=5)
    gate = write_json(tmp_path / "gate.json",
                      gate_to_json(light_shift_spec(dim5)))
    code, out = run_cli(capsys, ["analyze", "--gate", gate])
    assert code == 0
    res = json.loads(out)["results"]
    assert "NoRealSolution" in res["note"]
    assert res["max_entangled"] is False


def test_analyze_small_floats_are_numbers(tmp_path, capsys):
    # cos(pi/2) = 6.1e-17 and its kin print as 6.123e-17, not as strings
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D2)))
    code, out = run_cli(capsys, ["analyze", "--gate", gate])
    assert code == 0
    entries = [v for row in json.loads(out)["results"]["intrinsic_matrix"]
               for pair in row for v in pair]
    assert len(entries) == 8
    assert all(type(v) in (int, float) for v in entries), entries


def test_compile_identity_then_run(tmp_path, capsys):
    # the identity's compiled phases include tiny floats such as 1e-17
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    target = write_json(tmp_path / "target.json",
                        {"matrix": complex_to_json(np.eye(3))})
    code, out = run_cli(capsys, ["compile", "--gate", gate,
                                 "--target", target, "--seed", "0"])
    assert code == 0
    pattern = write_json(tmp_path / "pattern.json",
                         json.loads(out)["results"]["pattern"])
    code, out = run_cli(capsys, ["run", "--pattern", pattern,
                                 "--trials", "5"])
    assert code == 0
    assert json.loads(out)["results"]["min_fidelity"] > 1 - 1e-9


def test_compile_on_non_unitary_intrinsic_gate_names_it(tmp_path, capsys):
    # a detuned light shift: its G_I is not unitary, so not Clifford either
    gate = write_json(tmp_path / "gate.json",
                      gate_to_json(light_shift_spec(D3, 1.0)))
    target = write_json(tmp_path / "target.json",
                        {"matrix": complex_to_json(np.eye(3))})
    code = cli.main(["compile", "--gate", gate, "--target", target])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE and out == ""
    assert err == "error: intrinsic gate is not unitary\n", err


def test_cli_import_does_not_load_scipy():
    # importing scipy.optimize more than doubles the peak memory of a compile
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import quditmbqc.cli, sys; "
                    "assert 'scipy' not in sys.modules"],
                   env=env, check=True)


def test_formalism_mismatch(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    code, _ = run_cli(capsys, ["analyze", "--gate", gate,
                               "--formalism", "field"])
    assert code == cli.EXIT_FORMALISM


def test_missing_file_is_parse_error(capsys):
    code, _ = run_cli(capsys, ["analyze", "--gate", "/nonexistent.json"])
    assert code == cli.EXIT_PARSE


def test_bad_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, ["analyze", "--gate", str(bad)])
    assert code == cli.EXIT_PARSE


def test_unknown_subcommand_is_parse_error(capsys):
    code, _ = run_cli(capsys, ["frobnicate"])
    assert code == cli.EXIT_PARSE


def test_reports_are_byte_identical(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    _, first = run_cli(capsys, ["analyze", "--gate", gate])
    _, second = run_cli(capsys, ["analyze", "--gate", gate])
    assert first == second


def test_compile_run_round_trip(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D2)))
    U = haar_unitary(2, np.random.default_rng(0))
    target = write_json(tmp_path / "target.json",
                        {"matrix": complex_to_json(U)})
    code, out = run_cli(capsys, ["compile", "--gate", gate,
                                 "--target", target, "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["steps"] <= 4
    pattern = write_json(tmp_path / "pattern.json",
                         report["results"]["pattern"])
    code, out = run_cli(capsys, ["run", "--pattern", pattern,
                                 "--trials", "20", "--seed", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["trials"] == 20
    assert res["min_fidelity"] > 1 - 1e-9


def _transport_pattern(tmp_path, capsys, spec):
    gate = write_json(tmp_path / "gate.json", gate_to_json(spec))
    code, out = run_cli(capsys, ["transport", "--gate", gate])
    assert code == 0
    return write_json(tmp_path / "pattern.json",
                      json.loads(out)["results"]["pattern"])


def test_run_reports_outcome_statistics(tmp_path, capsys):
    pattern = _transport_pattern(tmp_path, capsys, cz_spec(D3))
    code, out = run_cli(capsys, ["run", "--pattern", pattern,
                                 "--trials", "30", "--seed", "4"])
    assert code == 0
    res = json.loads(out)["results"]
    counts, ranges = res["outcome_counts"], res["outcome_prob_range"]
    assert len(counts) == len(ranges) == len(res["history"]) == 4
    assert all(len(c) == 3 and sum(c) == 30 for c in counts)
    # cz chains draw every outcome with probability 1/3
    assert np.allclose(ranges, 1 / 3, atol=1e-12)


def test_run_rejects_trials_below_one(tmp_path, capsys):
    pattern = _transport_pattern(tmp_path, capsys, cz_spec(D3))
    for trials in ("0", "-3"):
        code = cli.main(["run", "--pattern", pattern, "--trials", trials])
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "--trials" in err


def test_negative_seed_is_parse_error(tmp_path, capsys):
    pattern = _transport_pattern(tmp_path, capsys, cz_spec(D3))
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    target = write_json(tmp_path / "target.json",
                        {"matrix": complex_to_json(np.eye(3))})
    for argv in (["compile", "--gate", gate, "--target", target],
                 ["run", "--pattern", pattern]):
        code = cli.main(argv + ["--seed", "-5"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_PARSE and out == ""
        assert err == "error: --seed must be non-negative, got -5\n", err


def test_run_dump_state(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    code, out = run_cli(capsys, ["transport", "--gate", gate])
    assert code == 0
    pattern = write_json(tmp_path / "pattern.json",
                         json.loads(out)["results"]["pattern"])
    code, out = run_cli(capsys, ["run", "--pattern", pattern,
                                 "--dump-state", "--seed", "2"])
    assert code == 0
    res = json.loads(out)["results"]
    assert "state" in res and res["min_fidelity"] > 1 - 1e-9


def test_transport_steps_match_order(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json",
                      gate_to_json(light_shift_spec(D3)))
    code, out = run_cli(capsys, ["transport", "--gate", gate])
    assert code == 0
    assert json.loads(out)["results"]["steps"] == 3


def test_report_envelope(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D2)))
    _, out = run_cli(capsys, ["analyze", "--gate", gate])
    report = json.loads(out)
    assert set(report) == {"command", "inputs_sha256", "results",
                           "seed", "version"}
    assert report["command"] == "analyze"
    assert len(report["inputs_sha256"]) == 64


def _malformed_inputs(gate_path):
    """(argv, file contents, field the error names) cases that must be
    rejected as parse errors."""
    gate = gate_to_json(cz_spec(D3))
    theta = {"dim": gate["dim"], "kind": "diagonal", "theta": 5}
    empty_dim = dict(gate, dim=[])
    blocks = {"dim": gate["dim"], "kind": "block_diagonal",
              "blocks": [[[1, 0]]]}
    frame = {"phase": [0, 6], "z": [[0]], "x": [[0]]}
    nan = float("nan")
    nan_theta = dict(theta, theta=[[0, 0, 0], [0, nan, 0], [0, 0, 0]])
    nan_step = {"dim": gate["dim"], "intrinsic": gate, "frame": frame,
                "steps": [{"phases": [0, nan, 0], "adaptive": True}]}
    nan_target = {"matrix": [[[1, 0], [0, 0]], [[0, 0], [nan, 0]]]}
    ones_target = {"matrix": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}
    return [
        (["analyze", "--gate"], theta, None),
        (["analyze", "--gate"], empty_dim, None),
        (["transport", "--gate"], blocks, None),
        (["analyze", "--gate"], [], None),
        (["run", "--pattern"], [], None),
        (["run", "--pattern"], {"dim": gate["dim"], "intrinsic": gate,
                                "steps": [{"phases": 1, "adaptive": True}],
                                "frame": frame}, None),
        (["analyze", "--gate"], nan_theta, "theta"),
        (["run", "--pattern"], nan_step, "phases"),
        (["compile", "--gate", gate_path, "--target"], nan_target, "matrix"),
        (["compile", "--gate", gate_path, "--target"], ones_target, None),
    ]


def test_malformed_json_is_parse_error(tmp_path, capsys):
    gate_path = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D2)))
    for i, (argv, obj, field) in enumerate(_malformed_inputs(gate_path)):
        path = write_json(tmp_path / f"bad{i}.json", obj)
        code = cli.main(argv + [path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARSE, (argv, obj)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if field is not None:
            assert field in err and "NaN" in err, err


def test_non_boolean_adaptive_flag_is_parse_error(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    code, out = run_cli(capsys, ["transport", "--gate", gate])
    assert code == 0
    pattern = json.loads(out)["results"]["pattern"]
    for flag in ("no", "false", 0, None):
        bad = dict(pattern, steps=[dict(s, adaptive=flag)
                                   for s in pattern["steps"]])
        path = write_json(tmp_path / "bad.json", bad)
        assert cli.main(["run", "--pattern", path]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: adaptive must be a JSON boolean\n", err
    path = write_json(tmp_path / "good.json", pattern)
    assert cli.main(["run", "--pattern", path, "--trials", "2"]) == 0


def test_malformed_graph_is_parse_error(tmp_path, capsys):
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    code, out = run_cli(capsys, ["transport", "--gate", gate])
    pattern = write_json(tmp_path / "pattern.json",
                         json.loads(out)["results"]["pattern"])
    dim = gate_to_json(cz_spec(D3))["dim"]
    zero_init = graph_to_json(chain_graph(D3, cz_spec(D3), 5))
    zero_init["vertices"][2]["init"] = {"re": [0, 0, 0], "im": [0, 0, 0]}
    for i, graph in enumerate([[], {"dim": dim, "vertices": [7],
                                    "edges": []},
                               {"dim": dim, "vertices": [{"id": 0,
                                                          "init": 9}],
                                "edges": []}, zero_init]):
        path = write_json(tmp_path / f"graph{i}.json", graph)
        code = cli.main(["run", "--pattern", pattern, "--graph", path])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")


def _usage_error(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE, argv
    assert err.startswith("usage: quditmbqc") and "Traceback" not in err
    return err


def test_missing_file_flag_is_usage_error(capsys):
    for argv, flag in [(["analyze"], "--gate"), (["compile"], "--gate"),
                       (["compile", "--gate", "g.json"], "--target"),
                       (["run"], "--pattern"), (["transport"], "--gate")]:
        err = _usage_error(capsys, argv)
        assert "required" in err and flag in err, err


def test_flag_a_command_does_not_read_is_usage_error(capsys):
    for argv in (["analyze", "--gate", "g.json", "--trials", "3"],
                 ["table", "--seed", "1"],
                 ["table", "--self-test-corrupt"],
                 ["transport", "--gate", "g.json", "--seed", "1"],
                 ["compile", "--gate", "g.json", "--target", "t.json",
                  "--dump-state"],
                 ["run", "--pattern", "p.json", "--formalism", "ring"]):
        assert "unrecognized arguments" in _usage_error(capsys, argv)


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "make_parser", no_parser)
    assert cli.main(["table"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "table"


@pytest.mark.parametrize("kind,path,where", [
    ("gate", ["dim"], "gate"), ("gate", ["dim", "kind"], "dim"),
    ("pattern", ["frame"], "pattern"), ("pattern", ["frame", "z"], "frame"),
    ("pattern", ["steps", 0, "adaptive"], "step"),
    ("graph", ["edges"], "graph"), ("graph", ["edges", 0, "seq"], "edge"),
    ("graph", ["vertices", 1, "id"], "vertex")],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else v)
def test_missing_key_is_named(tmp_path, capsys, kind, path, where):
    assert _run_edited(tmp_path, capsys, kind, path) \
        == (cli.EXIT_PARSE, f"error: missing key {path[-1]!r} in {where}\n")


_DELETE = object()


def _run_edited(tmp_path, capsys, kind, path, value=_DELETE):
    """Exit code and stderr of the CLI on a gate, pattern or graph file
    whose entry at path is set to value (or deleted)."""
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    _, out = run_cli(capsys, ["transport", "--gate", gate])
    pattern = json.loads(out)["results"]["pattern"]
    obj = {"gate": gate_to_json(cz_spec(D3)), "pattern": pattern,
           "graph": graph_to_json(chain_graph(D3, cz_spec(D3), 5))}[kind]
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    bad = write_json(tmp_path / "bad.json", obj)
    argv = {"gate": ["analyze", "--gate", bad],
            "pattern": ["run", "--pattern", bad],
            "graph": ["run", "--graph", bad, "--pattern",
                      write_json(tmp_path / "pattern.json", pattern)]}[kind]
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("value", [3.7, "3", True, 3.0], ids=repr)
@pytest.mark.parametrize("kind,path,what", [
    ("pattern", ["dim", "d"], "d"),
    ("graph", ["vertices", 1, "id"], "vertex id"),
    ("graph", ["edges", 0, "seq"], "edge seq"),
    ("graph", ["vertices", 4, "init"], "vertex init")],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else v)
def test_json_integers_must_be_integers(tmp_path, capsys, kind, path, what,
                                        value):
    # an integer field takes a JSON integer only: no truncated float,
    # string, boolean or integral float
    assert _run_edited(tmp_path, capsys, kind, path, value) \
        == (cli.EXIT_PARSE, f"error: {what} must be an integer\n")


F4 = make_dim(FINITE_FIELD, p=2, m=2)
Z4 = make_dim(INTEGER_RING, d=4)


def _chain_with_first_edge(dim, first, length):
    graph = chain_graph(dim, cz_spec(dim), length)
    graph.edges[0].gate = cz_spec(first)
    return graph


@pytest.mark.parametrize("graph, error", [
    (chain_graph(Z4, cz_spec(Z4), 9), "graph is over Z_4, the pattern over "
                                      "GF(2^2)"),
    (chain_graph(D3, cz_spec(D3), 9), "graph is over Z_3, the pattern over "
                                      "GF(2^2)"),
    (_chain_with_first_edge(F4, Z4, 9), "edge 0-1 gate is over Z_4, the "
                                        "graph over GF(2^2)"),
], ids=["Z4-chain", "Z3-chain", "Z4-edge"])
def test_run_on_a_graph_of_another_dimension(tmp_path, capsys, graph, error):
    # the chains are long enough for the pattern, so only the dimension
    # is wrong
    pattern = _run_pattern_file(tmp_path, "GF4-cz")
    assert len(json.loads(Path(pattern).read_text())["steps"]) < 9
    path = write_json(tmp_path / "graph.json", graph_to_json(graph))
    code = cli.main(["run", "--pattern", pattern, "--graph", path])
    assert (code, capsys.readouterr().err) \
        == (cli.EXIT_PARSE, f"error: {error}\n")


@pytest.mark.parametrize("label", [5, -1])
def test_graph_label_init_out_of_range(tmp_path, capsys, label):
    assert _run_edited(tmp_path, capsys, "graph", ["vertices", 4, "init"],
                       label) \
        == (cli.EXIT_PARSE,
            f"error: vertex init {label} is not a label in 0..2\n")


_NOT_INTEGERS = "must be an array of integers"


@pytest.mark.parametrize("family,path,value,error", [
    ("Z3-cz", ["frame", "phase"], [0.7, 6], f"phase {_NOT_INTEGERS}"),
    ("Z3-cz", ["frame", "phase"], [True, 6], f"phase {_NOT_INTEGERS}"),
    ("Z3-cz", ["frame", "phase"], [0, 6.0], f"phase {_NOT_INTEGERS}"),
    ("Z3-cz", ["frame", "z"], [[True]], f"z {_NOT_INTEGERS}"),
    ("Z3-cz", ["frame", "z"], [[0.5]], f"z {_NOT_INTEGERS}"),
    ("Z3-cz", ["frame", "x"], [["1"]], f"x {_NOT_INTEGERS}"),
    ("GF4-cz", ["dim", "poly"], [1, 1, 1.5], f"poly {_NOT_INTEGERS}"),
    ("GF4-cz", ["dim", "gr_poly"], [3, False, 1], f"gr_poly {_NOT_INTEGERS}"),
    # an integer past the machine word is refused, not a traceback
    ("Z3-cz", ["frame", "phase"], [10 ** 30, 6],
     "phase is not a numeric array")],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else str(v))
def test_json_integer_arrays_must_be_integers(tmp_path, capsys, family, path,
                                              value, error):
    # an integer array takes JSON integers only, as an integer field does
    obj = json.loads(RUN_PATTERNS.read_text())[family]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    code = cli.main(["run", "--pattern", write_json(tmp_path / "bad.json",
                                                    obj)])
    assert (code, capsys.readouterr().err) \
        == (cli.EXIT_PARSE, f"error: {error}\n")


# --- golden reports -------------------------------------------------------

# SHA-256 of `run --trials 100` stdout on one compiled pattern per
# benchmark family (tests/data/run_patterns.json), at --seed 7 and at
# --seed 4294967290, whose trajectories cross the seed 2^32 where the
# seed's entropy grows to two words.  The same inputs and seed must keep
# printing the same bytes.
GOLDEN_RUNS = {
    "Z2-cz": ("d949a5564adc7a354bc3540d523612fd285fc5c930f3280853da4fc07c9162b5",
              "b8148e2ceb9ca963bdc24b11aa5568edf07d9c67f35089c15941d21eac20b4d0"),
    "Z2-light_shift": (
        "747d3aa0b40685432f91d978bdfb2665b2a2831804db2711c51556dcb7417bf2",
        "ab580f08383676b8539910b01a780505a67728c3ef213e6befe23f70aee63e71"),
    "Z2-cx": ("a47c4b143c6efe32e5fed4f3531ce616b6612036d95dbc331dd42eff0c01774d",
              "db75d9f6db03a69d8109d6743732eaba6eb4748821605a6a957912cafa3be938"),
    "Z3-cz": ("1868438268c8101708577683e643b9a7e34e627d1274880bc0e79ba5cc14cf79",
              "4b276bff97b0f6759ac21ec7bea475b8f923d1641f54d56e3fdafda955f389c0"),
    "Z3-light_shift": (
        "890671dbf9bd8e39a1e216422d9d3051ced0fe581a58797ca1008ac323d503db",
        "d9f60a902330af384f43901520d102bb3914d5195eeb436dc67313c8741a7828"),
    "Z3-cx": ("4c0b2965c6f386ede10eff81590e317edc61b124d750c60c587b726949391540",
              "dff6a1a42b6d95b3542967a9f97386fb79b3403e073caf1adec7fafa0be3947e"),
    "GF4-cz": (
        "2f88d65da43406afb5540bc734216aad5d1fe95212dcc2279837c62c584da127",
        "99e6b7b3d6bcbd21508728affdd02ac2d86a54903b10a385b46fbea621ec17ec"),
    "GF4-light_shift": (
        "1cafce8d61a69a93657174c2c6ae7c9ea2311548b67aee6952d091fc02f275a6",
        "b40b5fc36590e300b73cea590c53791c3ab9a5da6007a9f1c9ff3de915eddc5b"),
    "GF4-cx": (
        "38f61983921982c8912e60b6e7ce4d1a2b6ef452b40018d8e7f7373aaf4b25b5",
        "d639146bf5ff81c46039217e8394ec913b9270055abf6ccc6d35bf888fa75ac4"),
    "Z5-cz": ("4231016ffebe9f93b865dedb5eab749626ddac38117b38f7970805746d642607",
              "ad652ee0c199fb84d98c416432ac259a445f23cc57768e07c543e431ec57ce83"),
    "Z5-cx": ("604fa8678a4e278b8df47d622a18d68179b1a42068f8d24dfd212093f88df291",
              "12d32bbdfa5b07d4b6da260d2dc1ac7c5430c6c17841d61256f86bad3a44fc42"),
}
RUN_PATTERNS = Path(__file__).parent / "data" / "run_patterns.json"


def _run_pattern_file(tmp_path, family):
    pattern = json.loads(RUN_PATTERNS.read_text())[family]
    return write_json(tmp_path / f"{family}.json", pattern)


@pytest.mark.parametrize("family", sorted(GOLDEN_RUNS))
def test_run_reports_match_golden_digests(tmp_path, capsys, family):
    path = _run_pattern_file(tmp_path, family)
    for seed, want in zip((7, 4294967290), GOLDEN_RUNS[family]):
        code, out = run_cli(capsys, ["run", "--pattern", path,
                                     "--trials", "100", "--seed", str(seed)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, seed


def test_light_shift_is_analysed_once_per_process(tmp_path, capsys,
                                                  monkeypatch):
    # the pattern's named light-shift gate maps to one spec, whose
    # intrinsic analysis the second run reuses
    calls = []

    def counted(*args):
        calls.append(args)
        return analyse(*args)

    analyse = resource.intrinsic_from_matrix
    monkeypatch.setattr(resource, "intrinsic_from_matrix", counted)
    resource._light_shift_spec.cache_clear()
    path = _run_pattern_file(tmp_path, "Z3-light_shift")
    for _ in range(2):
        code, _ = run_cli(capsys, ["run", "--pattern", path, "--trials", "5"])
        assert code == 0
    assert len(calls) == 1
