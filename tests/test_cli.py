"""Command-line interface: exit codes, report determinism, round trips."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from quditmbqc import cli, galois, resource
from quditmbqc.engine import chain_graph, graph_to_json
from quditmbqc.galois import (
    FINITE_FIELD,
    INTEGER_RING,
    complex_to_json,
    make_dim,
)
from quditmbqc.resource import cx_spec, cz_spec, gate_to_json, light_shift_spec

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)
RUN_PATTERNS = Path(__file__).parent / "data" / "run_patterns.json"
CLIFFORD_PATTERNS = Path(__file__).parent / "data" / "clifford_patterns.json"


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


def test_analyze_refuses_a_gr_poly_that_does_not_lift_poly(tmp_path, capsys):
    # x^3 + x^2 + 1 is read over Z_4 as its own lift; GF(8)'s default lift
    # (3, 1, 2, 1) lifts x^3 + x + 1, so an S built from it is not S
    dim = {"kind": "finite_field", "p": 2, "m": 3, "poly": [1, 0, 1, 1]}
    gate = write_json(tmp_path / "gate.json",
                      {"kind": "named", "name": "cx", "dim": dim})
    code, out = run_cli(capsys, ["analyze", "--gate", gate])
    assert code == 0 and json.loads(out)["results"]["clifford"]
    gate = write_json(tmp_path / "gate.json", {
        "kind": "named", "name": "cx",
        "dim": dict(dim, gr_poly=[3, 1, 2, 1])})
    code = cli.main(["analyze", "--gate", gate])
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        cli.EXIT_PARSE, "", "error: gr_poly does not reduce to poly mod 2\n")


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


D4 = make_dim(INTEGER_RING, d=4)


def test_transport_refuses_a_gate_without_a_certificate(tmp_path, capsys):
    # the Z4 light shift's G_I has a Pauli order but is not Clifford, so
    # no run could track the pattern's frame: transport refuses it; a Z3
    # light shift at theta = 0.7 is refused for the cause, a G_I that is
    # not unitary, not for its missing Pauli order
    for spec, code, error in [
            (light_shift_spec(D4), cli.EXIT_FORMALISM,
             "generator Z0^1 does not conjugate to a Pauli word"),
            (light_shift_spec(D3, 0.7), cli.EXIT_PARSE,
             "intrinsic gate is not unitary")]:
        gate = write_json(tmp_path / "gate.json", gate_to_json(spec))
        got = cli.main(["transport", "--gate", gate])
        out, err = capsys.readouterr()
        assert (got, out, err) == (code, "", f"error: {error}\n")


def test_run_refuses_a_pattern_without_a_certificate(tmp_path, capsys):
    # a hand-written pattern on the Z4 light shift parses, and running it
    # stops at the intrinsic gate's certificate with the formalism code
    pattern = {"dim": gate_to_json(light_shift_spec(D4))["dim"],
               "intrinsic": gate_to_json(light_shift_spec(D4)),
               "steps": [{"phases": [0, 0, 0, 0], "adaptive": True}] * 2,
               "frame": {"phase": [0, 8], "z": [[0]], "x": [[0]]}}
    path = write_json(tmp_path / "pattern.json", pattern)
    code = cli.main(["run", "--pattern", path, "--trials", "2"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_FORMALISM and out == ""
    assert err == "error: generator Z0^1 does not conjugate to a Pauli " \
                  "word\n", err


def test_compile_exit_codes_for_gates_without_a_certificate(tmp_path,
                                                            capsys):
    # a Z3 light shift at theta = 0.7 has a G_I that is not unitary, which
    # is checked first and stays a parse error; a diagonal gate whose G_I
    # is the Fourier matrix between non-Clifford phases is unitary but not
    # Clifford, the unsupported formalism code
    target = write_json(tmp_path / "target.json",
                        {"matrix": complex_to_json(np.eye(3))})
    j = np.arange(3)
    twisted = resource.EntanglingGateSpec(
        D3, resource.DIAGONAL,
        theta=2 * np.pi * np.outer(j, j) / 3 + 0.7 * j[:, None])
    for spec, code, error in [
            (light_shift_spec(D3, 0.7), cli.EXIT_PARSE,
             "intrinsic gate is not unitary"),
            (twisted, cli.EXIT_FORMALISM,
             "generator X0^1 does not conjugate to a Pauli word")]:
        gate = write_json(tmp_path / "gate.json", gate_to_json(spec))
        got = cli.main(["compile", "--gate", gate, "--target", target])
        out, err = capsys.readouterr()
        assert (got, out, err) == (code, "", f"error: {error}\n")


def test_diagonal_gate_init_phases_enter_the_intrinsic_gate(tmp_path,
                                                           capsys):
    # the chain prepares every vertex in D_phi|0_X>, so G_I carries D_phi:
    # a Clifford D_phi transports, compiles and runs, and a non-Clifford
    # one is refused before any pattern is printed
    spec = resource.expand(cz_spec(D3))
    target = write_json(tmp_path / "target.json",
                        {"matrix": complex_to_json(np.roll(np.eye(3), 1, 0))})
    for phases, code in [([0, 2 * np.pi / 3, 0], 0),
                         ([0, 0.3, 0], cli.EXIT_FORMALISM)]:
        gate = write_json(tmp_path / "gate.json", gate_to_json(
            resource.EntanglingGateSpec(D3, resource.DIAGONAL,
                                        theta=spec.theta,
                                        init_phases=phases)))
        for argv in (["transport", "--gate", gate],
                     ["compile", "--gate", gate, "--target", target]):
            got, out = run_cli(capsys, argv)
            assert got == code, (phases, argv)
            if code:
                assert out == ""
                continue
            pattern = write_json(tmp_path / "pattern.json",
                                 json.loads(out)["results"]["pattern"])
            got, out = run_cli(capsys, ["run", "--pattern", pattern,
                                        "--trials", "10"])
            assert got == 0
            assert json.loads(out)["results"]["min_fidelity"] > 1 - 1e-9


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


def _recursive_marks(obj):
    """The float marker as it was: one recursive call per value."""
    if isinstance(obj, float):
        return "@@F{}F@@".format(format(obj, ".17g"))
    if isinstance(obj, dict):
        return {k: _recursive_marks(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_recursive_marks(v) for v in obj]
    return obj


def _regex_report(obj):
    """The report writer as it was: the recursive marker, then one re.sub
    over the marked JSON."""
    text = json.dumps(_recursive_marks(obj), sort_keys=True)
    return re.sub(r'"@@F(-?[0-9.eE+naif-]+)F@@"', r"\1", text)


def test_report_writer_strips_the_marks_as_the_regex_did():
    floats = [1 / 3, -2.5, 1e-300, -7.25e+300, 5e-324, 0.0, -0.0,
              float("nan"), float("inf"), float("-inf")]
    report = {"command": "run", "seed": 3, "version": "x.y",
              "results": {"floats": floats, "nested": {"b": [
                  (0.1, -1e-12), {"c": [None, True, 7, "GF(4)"]}],
                  "a": [[[12345678901234567.0]]]},
                  "numpy": [np.float64(v) for v in floats],
                  "scalar": np.float64(-1 / 7), "zero": -0.0}}
    text = cli.dumps_report(report)
    assert text == _regex_report(report)
    assert "@@" not in text
    assert "4.9406564584124654e-324, 0, -0, nan, inf, -inf]" in text
    assert '"numpy": [0.33333333333333331, -2.5' in text


def _recursive_leaves(value):
    """The JSON leaf reader as it was: one recursive call per list."""
    if not isinstance(value, list):
        return [value]
    return [leaf for v in value for leaf in _recursive_leaves(v)]


_JSON_SCALARS = (st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=3)
                 | st.dictionaries(st.text(max_size=2), st.integers(),
                                   max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=4),
                    max_leaves=40))
def test_json_leaves_match_the_recursive_reader(value):
    # nested, ragged lists with every kind of scalar at every depth: the
    # leaf types json_array checks are those of every leaf
    assert galois._leaf_types(value) == set(map(type,
                                                _recursive_leaves(value)))


def _count_opens(monkeypatch, paths):
    """path -> how often the builtin open is called on it from now on."""
    counts, real = dict.fromkeys(paths, 0), open

    def counting(file, *args, **kwargs):
        if file in counts:
            counts[file] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    return counts


def _cli_input_cases(tmp_path, capsys):
    """(argv, input paths) of compile, run --graph and analyze."""
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    target = write_json(tmp_path / "target.json", {"matrix": complex_to_json(
        haar_unitary(3, np.random.default_rng(5)))})
    pattern = _transport_pattern(tmp_path, capsys, cz_spec(D3))
    graph = write_json(tmp_path / "graph.json", graph_to_json(
        chain_graph(D3, cz_spec(D3), 5)))
    return [(["compile", "--gate", gate, "--target", target, "--seed", "2"],
             [gate, target]),
            (["run", "--pattern", pattern, "--graph", graph, "--trials", "3"],
             [pattern, graph]),
            (["analyze", "--gate", gate], [gate])]


def test_each_input_is_read_once_and_its_bytes_hashed(tmp_path, capsys,
                                                      monkeypatch):
    cases = _cli_input_cases(tmp_path, capsys)
    for argv, paths in cases:
        counts = _count_opens(monkeypatch, paths)
        code, out = run_cli(capsys, argv)
        monkeypatch.undo()
        assert code == 0
        assert counts == dict.fromkeys(paths, 1), argv[0]
        blobs = b"".join(Path(p).read_bytes() for p in sorted(paths))
        assert json.loads(out)["inputs_sha256"] == \
            hashlib.sha256(blobs).hexdigest()


@pytest.mark.parametrize("blob, message", [
    (b"\xef\xbb\xbf" + json.dumps(gate_to_json(cz_spec(D3))).encode(),
     "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
     "(char 0)\n"),
    (b'{"kind": "named", "name": "c\xffz"}',
     "error: 'utf-8' codec can't decode byte 0xff in position 28: invalid "
     "start byte\n")], ids=["bom", "invalid-utf8"])
def test_gate_file_that_is_not_plain_utf8_exits_2(tmp_path, capsys, blob,
                                                  message):
    gate = tmp_path / "gate.json"
    gate.write_bytes(blob)
    for argv in (["analyze", "--gate", str(gate)],
                 ["compile", "--gate", str(gate), "--target", str(gate)]):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == cli.EXIT_PARSE and out == ""
        assert err == message


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
    counts = res["outcome_counts"]
    assert len(counts) == len(res["history"]) == 4
    assert all(len(c) == 3 and sum(c) == 30 for c in counts)
    assert "outcome_prob_range" not in res


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


def test_multi_qudit_frame_is_parse_error(tmp_path, capsys):
    # a pattern's frame is a one-qudit word: a two-qudit one is refused
    # when the file is read, before any trajectory runs
    pattern = {"dim": {"kind": "integer_ring", "d": 3},
               "intrinsic": gate_to_json(cz_spec(D3)),
               "steps": [{"phases": [0, 0, 0], "adaptive": True}],
               "frame": {"phase": [0, 6], "z": [[0], [0]], "x": [[0], [0]]}}
    path = write_json(tmp_path / "pattern.json", pattern)
    code = cli.main(["run", "--pattern", path, "--trials", "3"])
    assert (code, capsys.readouterr().err) == (
        cli.EXIT_PARSE, "error: frame acts on 2 qudits, the pattern on one\n")


@pytest.mark.parametrize("dim", [
    {"kind": "integer_ring", "d": 10 ** 5},
    {"kind": "finite_field", "p": 10 ** 18 + 3, "m": 1},
    {"kind": "finite_field", "p": 2, "m": 10 ** 9}],
    ids=["ring", "field", "degree"])
def test_huge_dimension_is_refused_before_allocation(tmp_path, capsys, dim):
    # d^2 past the 10^6 amplitude budget exits 2 from the arguments alone:
    # no d x d table, primality test or p^m is formed
    gate = write_json(tmp_path / "gate.json",
                      {"kind": "named", "name": "cz", "dim": dim})
    tracemalloc.start()
    try:
        code = cli.main(["analyze", "--gate", gate])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: dimension ") \
        and "amplitude budget" in err, err
    assert peak < 2 ** 20, peak


def test_two_qudit_gate_past_the_budget_is_refused(tmp_path, capsys):
    # d = 32 passes the d^2 check, but a cz matrix has d^4 > 10^6 entries:
    # analyze exits 2 before it allocates one
    gate = write_json(tmp_path / "gate.json", {
        "kind": "named", "name": "cz",
        "dim": {"kind": "integer_ring", "d": 32}})
    tracemalloc.start()
    try:
        code = cli.main(["analyze", "--gate", gate])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: 32^4 two-qudit gate entries"), err
    assert peak < 2 ** 20, peak


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


def _edited(obj, path, value=_DELETE):
    """A copy of the JSON obj with its entry at path set to value, or
    deleted."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def _run_edited(tmp_path, capsys, kind, path, value=_DELETE):
    """Exit code and stderr of the CLI on a gate, pattern or graph file
    whose entry at path is set to value (or deleted)."""
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    _, out = run_cli(capsys, ["transport", "--gate", gate])
    pattern = json.loads(out)["results"]["pattern"]
    obj = {"gate": gate_to_json(cz_spec(D3)), "pattern": pattern,
           "graph": graph_to_json(chain_graph(D3, cz_spec(D3), 5))}[kind]
    bad = write_json(tmp_path / "bad.json", _edited(obj, path, value))
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
    """The JSON of a chain over dim whose first edge is a cz over first: a
    graph file that no ResourceGraph can hold, as the constructor refuses
    it."""
    graph = graph_to_json(chain_graph(dim, cz_spec(dim), length))
    graph["edges"][0]["gate"] = gate_to_json(cz_spec(first))
    return graph


@pytest.mark.parametrize("graph, error", [
    (graph_to_json(chain_graph(Z4, cz_spec(Z4), 9)),
     "graph is over Z_4, the pattern over GF(2^2)"),
    (graph_to_json(chain_graph(D3, cz_spec(D3), 9)),
     "graph is over Z_3, the pattern over GF(2^2)"),
    (_chain_with_first_edge(F4, Z4, 9), "edge 0-1 gate is over Z_4, the "
                                        "graph over GF(2^2)"),
], ids=["Z4-chain", "Z3-chain", "Z4-edge"])
def test_run_on_a_graph_of_another_dimension(tmp_path, capsys, graph, error):
    # the chains are long enough for the pattern, so only the dimension
    # is wrong
    pattern = _run_pattern_file(tmp_path, "GF4-cz")
    assert len(json.loads(Path(pattern).read_text())["steps"]) < 9
    path = write_json(tmp_path / "graph.json", graph)
    code = cli.main(["run", "--pattern", pattern, "--graph", path])
    assert (code, capsys.readouterr().err) \
        == (cli.EXIT_PARSE, f"error: {error}\n")


@pytest.mark.parametrize("vertices, edges, error", [
    ([], [], "graph has no vertices"),
    ([0, 1], [(0, 1), (1, 0), (0, 1), (1, 0)], "graph is not a forward chain"),
], ids=["empty", "revisiting"])
def test_run_refuses_a_graph_that_is_not_a_chain(tmp_path, capsys, vertices,
                                                 edges, error):
    # the Z3 transport pattern has four steps: the walk 0-1-0-1-0 would
    # take them on two vertices as if it were a five-vertex chain
    gate = gate_to_json(cz_spec(D3))
    _, out = run_cli(capsys, ["transport", "--gate",
                              write_json(tmp_path / "gate.json", gate)])
    assert json.loads(out)["results"]["steps"] == 4
    pattern = write_json(tmp_path / "pattern.json",
                         json.loads(out)["results"]["pattern"])
    graph = {"dim": gate["dim"],
             "vertices": [{"id": v, "init": None} for v in vertices],
             "edges": [{"c": c, "t": t, "gate": gate, "seq": i}
                       for i, (c, t) in enumerate(edges)]}
    path = write_json(tmp_path / "graph.json", graph)
    code = cli.main(["run", "--pattern", pattern, "--graph", path])
    assert (code, capsys.readouterr().err) \
        == (cli.EXIT_PARSE, f"error: {error}\n")


@pytest.mark.parametrize("vertex", [1, 2])
def test_run_checks_a_chain_with_a_label_init(tmp_path, capsys, vertex):
    # a Z-basis label on a cz chain's vertex makes its step's outcome
    # weights depend on the input, |0>: on vertex 2 that step always draws
    # outcome 1 and the run verifies; on vertex 1 the final check fails
    pattern = _transport_pattern(tmp_path, capsys, cz_spec(D3))
    graph = graph_to_json(chain_graph(D3, cz_spec(D3), 5))
    graph["vertices"][vertex]["init"] = 1
    path = write_json(tmp_path / "graph.json", graph)
    code = cli.main(["run", "--pattern", pattern, "--graph", path,
                     "--trials", "100"])
    out, err = capsys.readouterr()
    if vertex == 2:
        assert code == 0, err
        res = json.loads(out)["results"]
        assert res["min_fidelity"] >= 1 - 1e-9
        assert res["outcome_counts"][1] == [0, 100, 0]
    else:
        assert code == cli.EXIT_FRAME
        assert err.startswith("error: trajectory fidelity"), err


def _malformed_graphs():
    """(case, graph JSON, message) for bad run --graph files: each
    mutation of a valid five-vertex Z3 chain applied at every vertex or
    edge it can reach, with the message its refusal must carry."""
    base = graph_to_json(chain_graph(D3, cz_spec(D3), 5))
    vertices, edges = len(base["vertices"]), len(base["edges"])

    def edited(path, value=_DELETE):
        return _edited(base, path, value)

    for i in range(1, vertices):
        yield (f"duplicate-id-{i}", edited(["vertices", i, "id"], i - 1),
               "duplicate vertex ids")
    others = [make_dim(INTEGER_RING, d=2), make_dim(INTEGER_RING, d=4),
              make_dim(FINITE_FIELD, p=2, m=2)]
    for j, e in enumerate(base["edges"]):
        for end in ("c", "t"):
            yield (f"dangling-{end}-{j}", edited(["edges", j, end], 99),
                   "edge endpoint not in vertex list")
        yield (f"self-loop-{j}", edited(["edges", j, "t"], e["c"]),
               "self-loop edge")
        yield (f"repeated-seq-{j}",
               edited(["edges", j, "seq"], base["edges"][j - 1]["seq"]),
               "edge seq indices must be a total order")
        for other in others:
            yield (f"gate-over-{other.label()}-{j}",
                   edited(["edges", j, "gate"], gate_to_json(cz_spec(other))),
                   f"edge {e['c']}-{e['t']} gate is over {other.label()}, "
                   f"the graph over Z_3")
        for key in ("c", "t", "gate", "seq"):
            yield (f"edge-{j}-without-{key}", edited(["edges", j, key]),
                   f"missing key {key!r} in edge")
        for key, value in (("c", "0"), ("t", 1.0), ("seq", True)):
            yield (f"edge-{j}-{key}-{value!r}",
                   edited(["edges", j, key], value),
                   f"edge {key} must be an integer")
        yield (f"edge-{j}-gate-not-object", edited(["edges", j, "gate"], 3),
               "gate must be a JSON object")
        yield f"edge-{j}-not-object", edited(["edges", j], []), \
            "edge must be a JSON object"
    for i in range(vertices):
        for length in (2, 4):
            yield (f"init-length-{length}-{i}",
                   edited(["vertices", i, "init"], [0.0] * length),
                   f"init must have shape (3), got ({length})")
            yield (f"complex-init-length-{length}-{i}",
                   edited(["vertices", i, "init"],
                          {"re": [0.0] * 3, "im": [0.0] * length}),
                   f"init im must have shape (3), got ({length})")
        for bad in (float("nan"), float("inf"), float("-inf")):
            yield (f"init-{bad}-{i}",
                   edited(["vertices", i, "init"], [0.0, bad, 0.0]),
                   "init has a NaN or infinite entry")
            yield (f"complex-init-{bad}-{i}",
                   edited(["vertices", i, "init"],
                          {"re": [bad, 0.0, 0.0], "im": [0.0] * 3}),
                   "init re has a NaN or infinite entry")
        for label in (3, -1, 9):
            yield (f"label-{label}-{i}", edited(["vertices", i, "init"], label),
                   f"vertex init {label} is not a label in 0..2")
        for value in (1.5, "1", True):
            yield (f"init-{value!r}-{i}", edited(["vertices", i, "init"], value),
                   "vertex init must be an integer")
        yield (f"init-not-numeric-{i}",
               edited(["vertices", i, "init"], ["a", 0.0, 0.0]),
               "init is not a numeric array")
        yield (f"complex-init-without-im-{i}",
               edited(["vertices", i, "init"], {"re": [0.0] * 3}),
               "missing key 'im' in init")
        yield (f"vertex-{i}-without-id", edited(["vertices", i, "id"]),
               "missing key 'id' in vertex")
        yield (f"vertex-{i}-id-string", edited(["vertices", i, "id"], "0"),
               "vertex id must be an integer")
        yield f"vertex-{i}-not-object", edited(["vertices", i], 7), \
            "vertex must be a JSON object"
    for key in ("dim", "vertices", "edges"):
        yield (f"graph-without-{key}", edited([key]),
               f"missing key {key!r} in graph")
    for key, kind in (("dim", "object"), ("vertices", "array"),
                      ("edges", "array")):
        yield (f"{key}-not-{kind}", edited([key], "x"),
               f"{key} must be a JSON {kind}")
    for value in ([], "graph", 3, None):
        yield f"graph-{value!r}", value, "graph must be a JSON object"


_MALFORMED_GRAPHS = list(_malformed_graphs())


@pytest.mark.parametrize("graph, message",
                         [case[1:] for case in _MALFORMED_GRAPHS],
                         ids=[case[0] for case in _MALFORMED_GRAPHS])
def test_malformed_graph_file_exits_2_with_its_message(tmp_path, capsys,
                                                        graph, message):
    # every bad graph file is refused where it is read, as a parse error
    # with its own message and no traceback
    pattern = write_json(tmp_path / "pattern.json",
                         json.loads(RUN_PATTERNS.read_text())["Z3-cz"])
    path = write_json(tmp_path / "graph.json", graph)
    code = cli.main(["run", "--pattern", pattern, "--graph", path])
    assert (code, capsys.readouterr().err) \
        == (cli.EXIT_PARSE, f"error: {message}\n")


def _malformed_patterns():
    """(case, pattern JSON, exit code, message) for bad run --pattern
    files: each mutation of a valid Z3 transport pattern and of a
    compile_clifford pattern applied at every key, step and frame entry
    it can reach, with the exit code and message its refusal must carry."""
    patterns = json.loads(CLIFFORD_PATTERNS.read_text())
    others = [D2, make_dim(INTEGER_RING, d=4), make_dim(FINITE_FIELD, p=2, m=2)]
    parse, formalism = cli.EXIT_PARSE, cli.EXIT_FORMALISM
    for name in ("Z3-cz-transport", "Z3-cz-hadamard"):
        base = patterns[name]

        def edited(path, value=_DELETE):
            return _edited(base, path, value)

        for key, missing in (("dim", "dim"), ("intrinsic", "intrinsic_matrix"),
                             ("steps", "steps"), ("frame", "frame")):
            yield (f"{name}-without-{key}", edited([key]), parse,
                   f"missing key {missing!r} in pattern")
        for key, value, message in (
                ("dim", "x", "dim must be a JSON object"),
                ("intrinsic", 3, "gate must be a JSON object"),
                ("steps", {}, "steps must be a JSON array"),
                ("frame", [], "frame must be a JSON object")):
            yield f"{name}-{key}-{value!r}", edited([key], value), parse, message
        for value in ([], "pattern", 3, None):
            yield (f"{name}-pattern-{value!r}", value, parse,
                   "pattern must be a JSON object")
        for key, value, message in (
                ("kind", "torus", "unknown dim kind 'torus'"),
                ("kind", _DELETE, "missing key 'kind' in dim"),
                ("d", _DELETE, "missing key 'd' in dim"),
                ("d", "3", "d must be an integer"),
                ("d", 2, "intrinsic gate and pattern dimensions differ")):
            label = "deleted" if value is _DELETE else repr(value)
            yield (f"{name}-dim-{key}-{label}", edited(["dim", key], value),
                   parse, message)
        # an intrinsic gate over another dimension, or malformed
        for other in others:
            yield (f"{name}-intrinsic-over-{other.label()}",
                   edited(["intrinsic"], gate_to_json(cz_spec(other))), parse,
                   "intrinsic gate and pattern dimensions differ")
        for key, value, message in (
                ("kind", "x", "unknown gate kind 'x'"),
                ("kind", _DELETE, "missing key 'kind' in gate"),
                ("dim", _DELETE, "missing key 'dim' in gate"),
                ("name", _DELETE, "missing key 'name' in gate")):
            label = "deleted" if value is _DELETE else repr(value)
            yield (f"{name}-intrinsic-{key}-{label}",
                   edited(["intrinsic", key], value), parse, message)
        # an intrinsic matrix instead of a gate: refused if malformed, and
        # a well-formed one has no gate to build the chain from
        eye = complex_to_json(np.eye(3))
        for case, matrix, code, message in (
                ("well-formed", eye, formalism,
                 "pattern has no gate; pass --graph"),
                ("2x3", eye[:2], parse,
                 "intrinsic_matrix must have shape (3, 3, 2), got (2, 3, 2)"),
                ("nan", _edited(eye, [1, 1, 0], float("nan")), parse,
                 "intrinsic_matrix has a NaN or infinite entry"),
                ("string", "x", parse,
                 "intrinsic_matrix is not a numeric array")):
            obj = edited(["intrinsic"], None)
            obj["intrinsic_matrix"] = matrix
            yield f"{name}-intrinsic-matrix-{case}", obj, code, message
        for j in range(len(base["steps"])):
            step = ["steps", j]
            yield (f"{name}-step-{j}-not-object", edited(step, 7), parse,
                   "step must be a JSON object")
            for key in ("phases", "adaptive"):
                yield (f"{name}-step-{j}-without-{key}", edited(step + [key]),
                       parse, f"missing key {key!r} in step")
            for value in (1, "true", None):
                yield (f"{name}-step-{j}-adaptive-{value!r}",
                       edited(step + ["adaptive"], value), parse,
                       "adaptive must be a JSON boolean")
            for value, shape in (([0.0] * 2, "2"), ([0.0] * 4, "4"),
                                 (0.5, ""), ([[0.0] * 3], "1, 3")):
                yield (f"{name}-step-{j}-phases-shape-{shape}",
                       edited(step + ["phases"], value), parse,
                       f"phases must have shape (3), got ({shape})")
            for bad in (float("nan"), float("inf"), float("-inf")):
                yield (f"{name}-step-{j}-phases-{bad}",
                       edited(step + ["phases"], [0.0, bad, 0.0]), parse,
                       "phases has a NaN or infinite entry")
            yield (f"{name}-step-{j}-phases-not-numeric",
                   edited(step + ["phases"], ["a", 0.0, 0.0]), parse,
                   "phases is not a numeric array")
            yield (f"{name}-step-{j}-phases-boolean",
                   edited(step + ["phases"], [True, 0.0, 0.0]), parse,
                   "phases must be an array of numbers")
        for key in ("phase", "z", "x"):
            yield (f"{name}-frame-without-{key}", edited(["frame", key]),
                   parse, f"missing key {key!r} in frame")
        for value, message in (
                ([0, 6, 1], "phase must have shape (2), got (3)"),
                ([0, 7], "phase denominator does not match DimSpec"),
                # a numerator outside 0..den-1 is refused, not reduced
                ([7, 6], "phase numerator must lie in 0..5"),
                ([-1, 6], "phase numerator must lie in 0..5"),
                ([0.5, 6], "phase must be an array of integers"),
                ([float("nan"), 6], "phase must be an array of integers")):
            yield (f"{name}-frame-phase-{value!r}",
                   edited(["frame", "phase"], value), parse, message)
        # multi-qudit frames, and exponent vectors of unequal lengths
        for qudits in (0, 2, 3):
            obj = edited(["frame", "z"], [[0]] * qudits)
            obj["frame"]["x"] = [[0]] * qudits
            message = f"frame acts on {qudits} qudits, the pattern on one" \
                if qudits else "z must have shape (n, 1), got (0)"
            yield f"{name}-frame-on-{qudits}-qudits", obj, parse, message
        for key in ("z", "x"):
            yield (f"{name}-frame-{key}-two-rows",
                   edited(["frame", key], [[0], [0]]), parse,
                   "exponent vectors must have length n")
            yield (f"{name}-frame-{key}-two-columns",
                   edited(["frame", key], [[0, 0]]), parse,
                   f"{key} must have shape (n, 1), got (1, 2)")
            yield (f"{name}-frame-{key}-not-integer",
                   edited(["frame", key], [[0.5]]), parse,
                   f"{key} must be an array of integers")
            # a coefficient outside 0..p-1 is refused, not reduced mod p
            for value in (3, -1, 4):
                yield (f"{name}-frame-{key}-coefficient-{value}",
                       edited(["frame", key], [[value]]), parse,
                       f"{key} coefficients must lie in 0..2")
    # over GF(4) each exponent is two coefficients in 0..1: 2 is not the
    # element xi
    base = patterns["GF4-cx-hadamard"]
    for key, row in itertools.product(("z", "x"), ([2, 0], [0, 2], [-1, 0],
                                                   [0, 3])):
        yield (f"GF4-cx-hadamard-frame-{key}-coefficients-{row[0]}-{row[1]}",
               _edited(base, ["frame", key], [row]), parse,
               f"{key} coefficients must lie in 0..1")


_MALFORMED_PATTERNS = list(_malformed_patterns())


@pytest.mark.parametrize("pattern, code, message",
                         [case[1:] for case in _MALFORMED_PATTERNS],
                         ids=[case[0] for case in _MALFORMED_PATTERNS])
def test_malformed_pattern_file_exits_with_its_message(tmp_path, capsys,
                                                        pattern, code,
                                                        message):
    # every bad pattern file is refused with its own exit code and
    # message, and no traceback
    path = write_json(tmp_path / "pattern.json", pattern)
    assert (cli.main(["run", "--pattern", path]), capsys.readouterr().err) \
        == (code, f"error: {message}\n")


# each value a gate file's entry is replaced by, or deleted
_FUZZ_VALUES = {"null": None, "true": True, "3": 3, "-1": -1, "2.5": 2.5,
                "string": "x", "[]": [], "{}": {}, "[1]": [1], "[[1]]": [[1]],
                "NaN": float("nan"), "deleted": _DELETE}


def _fuzz_expected(gate, key, label, value):
    """(exit code, message) of analyze on gate's file with the entry at
    key (dotted) replaced by value, or deleted: today's refusal, or 0."""
    if gate in ("cz", "cx") and key == "theta":
        # any theta but null is refused on a named cz or cx
        return (0, None) if value is None else (
            cli.EXIT_PARSE, f"theta applies to the light_shift gate, not "
                            f"{gate!r}")
    if label == "deleted":
        if key == "init_phases" or (gate == "light-shift" and key == "theta"):
            return 0, None      # optional: the default is read
        where, name = key.split(".") if "." in key else ("gate", key)
        return cli.EXIT_PARSE, f"missing key {name!r} in {where}"
    if key == "dim":
        return cli.EXIT_PARSE, ("missing key 'kind' in dim" if label == "{}"
                                else "dim must be a JSON object")
    if key in ("kind", "name", "dim.kind"):
        what = {"kind": "gate kind", "name": "named gate",
                "dim.kind": "dim kind"}[key]
        return cli.EXIT_PARSE, f"unknown {what} {value!r}"
    if key == "dim.d":
        if label == "3":
            return 0, None
        return cli.EXIT_PARSE, (
            "integer-ring dimension must satisfy d >= 2" if label == "-1"
            else "d must be an integer")
    # a numeric array: theta, init_phases or blocks
    if label == "true":
        return cli.EXIT_PARSE, f"{key} must be an array of numbers"
    if label in ("string", "{}"):
        return cli.EXIT_PARSE, f"{key} is not a numeric array"
    got = np.shape(value) if isinstance(value, list) else ()
    if gate == "light-shift" and got == ():
        # null is the default angle, any other finite number an angle
        return (cli.EXIT_PARSE, "theta has a NaN or infinite entry") \
            if label == "NaN" else (0, None)
    shape = {"theta": () if gate == "light-shift" else (3, 3),
             "init_phases": (3,), "blocks": (3, 3, 3, 2)}[key]
    return cli.EXIT_PARSE, (f"{key} must have shape "
                            f"({', '.join(map(str, shape))}), got "
                            f"({', '.join(map(str, got))})")


def _fuzzed_gates():
    """(case, gate JSON, exit code, message) for every key of a named
    light-shift gate with its theta, a named cz and cx gate, a diagonal and
    a block-diagonal gate file over Z3, and of their dim, and for a theta
    added to the cz and cx files, each value of _FUZZ_VALUES in turn: the
    exit code analyze gives today and its message (None on exit 0)."""
    bases = {"light-shift": gate_to_json(light_shift_spec(D3, 2.0)),
             "cz": gate_to_json(cz_spec(D3)), "cx": gate_to_json(cx_spec(D3)),
             "diagonal": gate_to_json(resource.expand(light_shift_spec(D3))),
             "block": gate_to_json(resource.expand(cx_spec(D3)))}
    for gate, base in bases.items():
        added = [["theta"]] if gate in ("cz", "cx") else []
        for path in [[k] for k in base] + [["dim", k] for k in base["dim"]] \
                + added:
            key = ".".join(path)
            for label, value in _FUZZ_VALUES.items():
                if path in added and label == "deleted":
                    continue
                yield (f"{gate}-{key}-{label}", _edited(base, path, value),
                       *_fuzz_expected(gate, key, label, value))


_FUZZED_GATES = list(_fuzzed_gates())


@pytest.mark.parametrize("gate, code, message",
                         [case[1:] for case in _FUZZED_GATES],
                         ids=[case[0] for case in _FUZZED_GATES])
def test_fuzzed_gate_file_exits_with_its_message(tmp_path, capsys, gate,
                                                 code, message):
    # every entry of a gate file replaced by a value of the wrong type,
    # size or sign, or deleted: a refusal with its own exit code and
    # message, or a report, and no traceback
    path = write_json(tmp_path / "gate.json", gate)
    assert (cli.main(["analyze", "--gate", path]), capsys.readouterr().err) \
        == (code, "" if message is None else f"error: {message}\n")


def _malformed_targets():
    """(case, target JSON, message) for bad compile --target files over a
    Z3 cz gate: each mutation of a seeded Haar qutrit target at its key
    and at every entry of its matrix, with the message its refusal (exit
    2) must carry."""
    base = {"matrix": complex_to_json(haar_unitary(3, np.random.default_rng(7)))}
    M = base["matrix"]

    def edited(path, value=_DELETE):
        return _edited(base, path, value)

    yield "without-matrix", edited(["matrix"]), "missing key 'matrix' in target"
    for value in ([], "target", 3, None):
        yield f"target-{value!r}", value, "target must be a JSON object"
    size = "target size does not match the dimension"
    for case, value, message in (
            ("2x2", [row[:2] for row in M[:2]], size),
            ("2x3", M[:2], size),
            ("3x2", [row[:2] for row in M], size),
            ("4x4", [row + [[0.0, 0.0]] for row in M] + [[[0.0, 0.0]] * 4],
             size),
            ("1x1", [[[1.0, 0.0]]], size),
            ("vector", M[0], "matrix must have shape (n, n, 2), got (3, 2)"),
            ("scalar", 3, "matrix must have shape (n, n, 2), got ()"),
            ("null", None, "matrix must have shape (n, n, 2), got ()"),
            ("empty", [], "matrix must have shape (n, n, 2), got (0)"),
            ("string", "x", "matrix is not a numeric array"),
            ("object", {}, "matrix is not a numeric array"),
            ("ragged", [M[0], M[1], M[2][:2]], "matrix is not a numeric array"),
            ("scaled", [[[2 * a, 2 * b] for a, b in row] for row in M],
             "target is not unitary"),
            ("zero", [[[0.0, 0.0]] * 3] * 3, "target is not unitary")):
        yield f"matrix-{case}", edited(["matrix"], value), message
    for i, j in itertools.product(range(3), repeat=2):
        entry = ["matrix", i, j]
        for part, bad in ((0, float("nan")), (1, float("inf")),
                          (0, float("-inf"))):
            yield (f"entry-{i}{j}-{part}-{bad}", edited(entry + [part], bad),
                   "matrix has a NaN or infinite entry")
        yield (f"entry-{i}{j}-not-numeric", edited(entry + [1], "a"),
               "matrix is not a numeric array")
        yield (f"entry-{i}{j}-boolean", edited(entry, [True, 0]),
               "matrix must be an array of numbers")
        # one pair of another length makes the array ragged
        for pair in ([1.0], [1.0, 0.0, 0.0]):
            yield (f"entry-{i}{j}-pair-{len(pair)}", edited(entry, pair),
                   "matrix is not a numeric array")
        yield (f"entry-{i}{j}-doubled", edited(entry, [2 * v for v in
                                                       M[i][j]]),
               "target is not unitary")


_MALFORMED_TARGETS = list(_malformed_targets())


@pytest.mark.parametrize("target, message",
                         [case[1:] for case in _MALFORMED_TARGETS],
                         ids=[case[0] for case in _MALFORMED_TARGETS])
def test_malformed_target_file_exits_2_with_its_message(tmp_path, capsys,
                                                         target, message):
    # every bad target file is refused before any ALS sweep, as a parse
    # error with its own message and no traceback
    gate = write_json(tmp_path / "gate.json", gate_to_json(cz_spec(D3)))
    path = write_json(tmp_path / "target.json", target)
    code = cli.main(["compile", "--gate", gate, "--target", path])
    assert (code, capsys.readouterr().err) \
        == (cli.EXIT_PARSE, f"error: {message}\n")


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
    "Z2-cz": ("63521d961ae22a7788bcb6184edd63a9436964c33f2dbc7d6d0ccbfb7b57024d",
              "09d9be07ee51ecf44bdcfd85261976481bb53f4d2f991ac1aa2899890c40aa33"),
    "Z2-light_shift": (
        "4d3944d5aaf90a4f8abddb1e9eb2d35fe4e39d9d8316c79366d3ce2aaa530923",
        "7257dd416bcb8dd21ec928df3af581d8da1bd363806b119b8207aeedd6641d13"),
    "Z2-cx": ("2dda688186fe4226e80a2cadc6bf529f743764d58c8151045a1948f6ab5f7218",
              "d91afd3f74d382616db1e5eff6839021564c0fdb8f3b65ddaa5ef893a2ef8e54"),
    "Z3-cz": ("a57593242258617ee06e6a06b70967c865172774748b8b7f98b79e8978454268",
              "d0b15f01dda8f0893e9fbe0c80188b60898506ae17f42880e2366225fd209b6b"),
    "Z3-light_shift": (
        "20796ec7511e50ea7df9942c4dde384bb858b4a1e90004e5a5221e5a32326a07",
        "960b4ded329baa608d3f7bbaa8ffea7a4e152d2043bd2f54dc99692e9a58dda2"),
    "Z3-cx": ("7572d5c0c044438850a9d1ac87da702e9e2f732feaa395ee948925742c1ac75a",
              "dec9e4309d7a81d60a9f858d49d3dd3e0f77a439160faf5ebab32149564e2c62"),
    "GF4-cz": (
        "4b4734356844a480632fe3c48037241ad0fb641fb64db2a5f9c5585ce54874b8",
        "d40b2b3fb611052f4ad5f56046dd976e7b5aff41065d169c09ea3dcc7466fab5"),
    "GF4-light_shift": (
        "4247fdfb8fb9fd34f55fe6000010a41792cf771008a01639ee055a9486daecf0",
        "5e2a78014560c3989b8f87c82a3a8c3d4c0941da3bebb068e43ef3e6239dd9d7"),
    "GF4-cx": (
        "8840d059ec623ebd0387ea79c8243872ebeb7e45b5df70786baaf8476af1160f",
        "3007026d1f5cff26d8b19842c35593a9f001d2aa3ddeadfd57d1ecc18331c0b6"),
    "Z5-cz": ("f204a82f0fe734bf949e6fc2c9437e7e8620d4fba01677160d7a45485d33b65b",
              "3aa3c4298ae7ea5d259226552f9a5437cd0ab54bb4c8f37c218a122860f87312"),
    "Z5-cx": ("0b7136e68a181f920145a7f150bc76678676636de902fe6be7c254ca14991f29",
              "207883fa26e0a6f20a67b49233a6e32fbf916cdeddf85e60a48267a5c4700eb9"),
}
# the same digests for the non-adaptive patterns of each family
# (tests/data/clifford_patterns.json): its transport pattern and
# compile_clifford(hadamard(dim), G_I), whose steps move the frame by the
# step diagonal's images.  The GF4 light shift reaches no Hadamard word,
# so it has a transport pattern only.
GOLDEN_CLIFFORD_RUNS = {
    "GF4-cx-hadamard": (
        "b488d7c23efb793ce2d6b872af5432f72cc003149ef8855e2daa4dc4e6eb7d29",
        "6b055ecf8b04ae7d210364bab233c1490f7d62ee5ab4e97233b7c49e3cb3be9d"),
    "GF4-cx-transport": (
        "d7cc14d0c241068f7cae5b41a5e9b9f5d6bcf55b90a4e2c151ac6564560772b0",
        "ed7a8af71932a040d0ce80d74a8ac70d2b233dbda5c0504edb12a958f69a24fc"),
    "GF4-cz-hadamard": (
        "35a8ba3e97ff074dddbea89d0d119548fb31153e4f7cdcd050cb7a1b84775de7",
        "343c5f1bf6314885978aa1d415115ab0504641f4f72385fee374c6c319d71223"),
    "GF4-cz-transport": (
        "e29a0e1361380cc30dd06c0f78d61a0bc429bd8e0833f336662142adc1cd1559",
        "58df16927f0ed1ad27e276ac6a644c3d0bde2915d8d8e825525d2a8421f3e121"),
    "GF4-light_shift-transport": (
        "aae1c336ac07b27ee0e21119d245dc19919a7546a9d6212f2abfed88a3d8084c",
        "155b2829a28aa06d949a132a5ed98db7b73ea9515614f36a8ddad232c33d58d2"),
    "Z2-cx-hadamard": (
        "2007345115f7dd93aa13b754f4a06e3b32d5c3e4ed0273aebff981a4ad7c67be",
        "13ddb49432c2fcd6687ebea7bc2bd021ce02b515fdcef9c625453a46efee8bf2"),
    "Z2-cx-transport": (
        "026d4dbead87d50e86a944a0b12d9dafc376d8bcdcdfc81f90abe440dda9f77f",
        "49142a1b1865abf5a0bfef83d71b631c5395ab0efd444c930ebfff75f156f7c9"),
    "Z2-cz-hadamard": (
        "6ff0d984597f66b4da8c9c6bf62137f2f34d3d6c6a9d4006617b95fba30a8970",
        "a9913beb027dedb60e32271289c262e2ee062e0ad5c35443a07675d09dc958fb"),
    "Z2-cz-transport": (
        "5e2f679315759e59c87de8bf23f3504f38c4717e3dd27f639fde3c77df13bf5d",
        "c280d19ef79e6d789fc58b9c7b5aa47091528f50cba62564a58556721506a3f0"),
    "Z2-light_shift-hadamard": (
        "f324c9b0fbcb3a1242d0dff3a8cd416a36df6574a8c4ea55680ce7fe6f6e9300",
        "b3b032e7a388d4d1e921387ffc8607b96c839612664bb32d16e7023e1f217f14"),
    "Z2-light_shift-transport": (
        "cb40a5a13f664041378c52a895880685b2415dac416921f5c9e8b13d43db2532",
        "413254d6dc62270b9d1abd31b3953c45f4f99ca44bc949c080c3f440c5aeeb3f"),
    "Z3-cx-hadamard": (
        "de18eacbea1d8f08f1ce11a1706e7fb0279ff4fd0c0b5c5a73fa5444684e40aa",
        "4f99e10accb4d40ec10d1d409ddbf664ff5b86be28a6274dfff580ad449e44e9"),
    "Z3-cx-transport": (
        "394d0bdd82de4724e57820e18d1e43a583678054f0463e24728f4c0288d2b4d6",
        "4cb27544f5b5db89a8c1d268dcfa2845adc60370a6b80b356658052a2c7988e2"),
    "Z3-cz-hadamard": (
        "0e2f26624429cd9c5c48f1b874c5f1f1582cb9a73f61363c6fb6d5fee630198e",
        "0d6beb3e28d9988a66626f6d48569926a94a87c0832a0ada615be6fd7a28293c"),
    "Z3-cz-transport": (
        "9aa706f677136fcb29addfeb9a1df8bac6f3f853954544a047bc8a26d55807c8",
        "2a0603523a2e1c083672d7cc8465ec07f9f206757a4224e72f8f74770c70d571"),
    "Z3-light_shift-hadamard": (
        "7ec2c9c5d31d524758cda97bc96444515cb400c6cfa8099dc47785fc9dec60dc",
        "2f8f4f6eb7aeeb56caa212a9754e19c6ef5ab01084ae6ff19d06064004eb9a7b"),
    "Z3-light_shift-transport": (
        "02742bb4e5bfd32c6d47e6ae917a9ddf5afd4b97d0fae64a93aa27424730860d",
        "d67e2dc3835c48b451d1af779407b86ce940712b56e7ae69e072eee5d7fde450"),
    "Z5-cx-hadamard": (
        "7d80657dd438bac00722ca9b58a5bbeed87fcd480b53cde227dc6f7c795bf438",
        "94d52a7976ace1477e8d41a97cd82134559fab4a9c056b78085c845d11c570ab"),
    "Z5-cx-transport": (
        "fdc412a0bde973b99d790a2f8de3a213272fab0aea165989eef52f8e47cd1f2b",
        "131036ff564ee9765f696519e58c59b3ef6575d9a29e986bcfd6e46248f6ce9b"),
    "Z5-cz-hadamard": (
        "60f3085140e8b697125211ca50ea76555a229df13c6711079d4d738513056495",
        "84af91f6e2324b43e694bfff0d240b6d95e4eecb73ccbd2e5aa9b450f353b5d0"),
    "Z5-cz-transport": (
        "8a40953d8277f0803c5baa2a58848be41fbab0689653c607a166fded1547ae56",
        "9ea6ba44d5883e9b39f57d16becea24917691cb96f76b80c9e392ce64df26ddf"),
}

# SHA-256 of the JSON list [outcome_counts, frame, history] of the same
# `run --trials 100` reports, for every pattern of both files at the same
# two seeds: the draws and frames alone, which a change to the step's
# floating-point order must leave exactly as they are.
GOLDEN_RUN_OUTCOMES = {
    "Z2-cz": (
        "357b64500396f31b7ac2a90efd42c10726fd6dcd6d7b33b8cd075d08d8efb686",
        "7d0ca1b5e273ae01d37a8b1906bdc39cb15360722febdd985a10d5f0d26ea486"),
    "Z2-light_shift": (
        "a42ab4e7fa080333a12832cd51d8699b332808b47212aa0189f0036544e17fbf",
        "7d0ca1b5e273ae01d37a8b1906bdc39cb15360722febdd985a10d5f0d26ea486"),
    "Z2-cx": (
        "a42ab4e7fa080333a12832cd51d8699b332808b47212aa0189f0036544e17fbf",
        "7d0ca1b5e273ae01d37a8b1906bdc39cb15360722febdd985a10d5f0d26ea486"),
    "Z3-cz": (
        "9d319fa4b6f51d9d96589fc6a4d8b8f42a905491913cc4a8b511c0eebe0dfc1c",
        "2dd6135ae41f172cedeeabbd2a0eb4e1ae82bfd979742986b4dd7a4dde9aefe9"),
    "Z3-light_shift": (
        "6c6b6d432d8842e9c5139f59450df0ba3e2861f7f12f1bcc1bd0fdb69bc4ba57",
        "f7f77d4a718a5b145e5974846d9cab6820e3a2ce5260e7327fdb5cb659a44bfe"),
    "Z3-cx": (
        "9d319fa4b6f51d9d96589fc6a4d8b8f42a905491913cc4a8b511c0eebe0dfc1c",
        "f7f77d4a718a5b145e5974846d9cab6820e3a2ce5260e7327fdb5cb659a44bfe"),
    "GF4-cz": (
        "dc452c0b8906d1ff18ea46e8edf78ce0e9683a43a10db595f37fd0847dc69739",
        "4470e8a5bb5cdae886866eef117e25ceb585deb2366b53f9c7f054ff385e2968"),
    "GF4-light_shift": (
        "827ace68c91169839d72295e5f955eb0614c0d3ec559758a0b189a884171897a",
        "10ba44091278fcf6f26642d762ade02675f46906716f0310029a72e0df534bcf"),
    "GF4-cx": (
        "827ace68c91169839d72295e5f955eb0614c0d3ec559758a0b189a884171897a",
        "bf597ff2c846896f47f97ab21ea5683ad66807409d46381f43499e9f609eb2d2"),
    "Z5-cz": (
        "964ea5bf0ca108d46246a51c184d45a503c88bcb64a5127670d7ed312a46195a",
        "9b8b075ad213cd944b2d201814155cf3d5d8d0ff55a28c553cd50529d12a5e80"),
    "Z5-cx": (
        "afdb30dfbf2399e91d68f25eef1a1d4217405278dec6bbd9fed4e1cfab81aa83",
        "9b8b075ad213cd944b2d201814155cf3d5d8d0ff55a28c553cd50529d12a5e80"),
    "GF4-cx-hadamard": (
        "e308b62cb267d0e6ea94e1eda6188d466dd1f75aee0ce3463656c42c83c780f6",
        "e37a028e6d34415e628ddfcfc9f79a8c490008496be264d30610a157d41e5cb3"),
    "GF4-cx-transport": (
        "b90abb36086c15179f990287f5acf3846473340120c117c08b62365fc3883815",
        "4d1906e02e0ab51297ae085b4df95cef3d0bdd479f1ac4a13d40de72df91802e"),
    "GF4-cz-hadamard": (
        "f03e6cb62bbeaf22dd7fa20875436bc1202955b3d190553547adad96253ffd28",
        "2741211f5b7e7b5bd92d02a2ccdde67dfc0277b37006ccd6910266c09a07c8e2"),
    "GF4-cz-transport": (
        "9dfa88a2de61f2cfd30464c9323c67858f6197968b55c8eceaa6b7bc95b37656",
        "d27c380f22096a96a4cbbdd3ba576e927a5b65655e8e8cd525b29b9f9fa1f1a9"),
    "GF4-light_shift-transport": (
        "9dfa88a2de61f2cfd30464c9323c67858f6197968b55c8eceaa6b7bc95b37656",
        "4d1906e02e0ab51297ae085b4df95cef3d0bdd479f1ac4a13d40de72df91802e"),
    "Z2-cx-hadamard": (
        "fb64e46f36fd576b4d6c6bcd5d5c29c62cedb5dc447e0e64ffc4790b6d3fade9",
        "6cae4768c5604fdd3112f4d038f51c25583c173668035e6e8abd053faa78719c"),
    "Z2-cx-transport": (
        "074846a6935c3bdf758e2f45a032be1eab3ebc205faf07f5e9d8c3d54952750b",
        "ed6927726d718952feeb8a8026368889dece49536fd4d84dbb39c212244bb9ff"),
    "Z2-cz-hadamard": (
        "ae4beae7d0fd8849f23cd2f2fdfd6b96646e5d84878619979db04aa8deffdec6",
        "ad41a1ca7255f5723234ac16a0b219ed07cf9a47cae04fb1e7f500bbd6d1c6c2"),
    "Z2-cz-transport": (
        "fb64e46f36fd576b4d6c6bcd5d5c29c62cedb5dc447e0e64ffc4790b6d3fade9",
        "459ffb0def0b79bc4c492db8f97882887f4471ed929bcf872456bf3e2094fe9b"),
    "Z2-light_shift-hadamard": (
        "fb64e46f36fd576b4d6c6bcd5d5c29c62cedb5dc447e0e64ffc4790b6d3fade9",
        "6cae4768c5604fdd3112f4d038f51c25583c173668035e6e8abd053faa78719c"),
    "Z2-light_shift-transport": (
        "074846a6935c3bdf758e2f45a032be1eab3ebc205faf07f5e9d8c3d54952750b",
        "ed6927726d718952feeb8a8026368889dece49536fd4d84dbb39c212244bb9ff"),
    "Z3-cx-hadamard": (
        "ea8667d9b3104bb164af2efe4e01764f278747fb04179d7250a255937633dd08",
        "ae2ce4bc4257711f02d4bedefdfdfcd7a16504e380b2953a072a915ebcfcf292"),
    "Z3-cx-transport": (
        "ca33241cd5daec65c913c23c3891f1467647bc49a4e4ba5dbe2d5e416d398671",
        "76b48b90ad5e221a49c334a872e591f093e20927272585b25fab45065a208b23"),
    "Z3-cz-hadamard": (
        "ba4c703099ed0f09f198f345ad255eb0e3459b0ccd40a4fce44c5ddd052b6721",
        "5b9650d821e4d6dc0d883103aa375a933305d0746860fec34d59dedaa03f5122"),
    "Z3-cz-transport": (
        "ac75cb2c1436cbea3015ff005f34b6c2503d3fee7a553464d11676d7e9e74789",
        "23b0f646c21924149625051c2fd027cdf7aef0a602144093d8d12e034d5902cd"),
    "Z3-light_shift-hadamard": (
        "76c6311833f08e359629d958e686c0714cbc3621ca2d060d42f9c3741d331718",
        "5ce02b3b04da66dd25aab76df5b21e0a4eb296e9413db0fed27d2a2eabf03db0"),
    "Z3-light_shift-transport": (
        "ca33241cd5daec65c913c23c3891f1467647bc49a4e4ba5dbe2d5e416d398671",
        "fc2ba8f9abbe7b482aed9774e88b925e664704ea1196575a47d1007ecae88f0b"),
    "Z5-cx-hadamard": (
        "041a91dede614779ad271b20e7afd5b533a4a0902d503a731aa1e96a746e3a25",
        "d7d4bfd2ff4336adc4eee8a558845171813cf272cd62f99b3c461a39186f79d7"),
    "Z5-cx-transport": (
        "a806e03fa0a9a4280daacee594d9a10604aa6acd2277d90b0dcbf9355a845f5a",
        "48b35811ba3888938e2615b2d1db054c946d59809a07c03b793f50236ddce8f8"),
    "Z5-cz-hadamard": (
        "75ecebf3d1156af7b235dd18a52c0324f195c47e829e31dd325fda0610adb85d",
        "24987df4c368e03aef40d0415fd6dd37a1fc57f78f4f0a85c4a523b5f7b879f7"),
    "Z5-cz-transport": (
        "8762f8384418b889accb72593e8a0cab77ead0f8480fbe07652494aa6bb05c7f",
        "be935e5cd8273c3d68eb8801008f7a94e001169b5c46fcb282fade47bb4723d7"),
}


def _run_pattern_file(tmp_path, family, source=RUN_PATTERNS):
    pattern = json.loads(source.read_text())[family]
    return write_json(tmp_path / f"{family}.json", pattern)


@pytest.mark.parametrize("family", sorted(GOLDEN_RUNS))
def test_run_reports_match_golden_digests(tmp_path, capsys, family):
    path = _run_pattern_file(tmp_path, family)
    for seed, want in zip((7, 4294967290), GOLDEN_RUNS[family]):
        code, out = run_cli(capsys, ["run", "--pattern", path,
                                     "--trials", "100", "--seed", str(seed)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, seed


@pytest.mark.parametrize("pattern", sorted(GOLDEN_CLIFFORD_RUNS))
def test_clifford_run_reports_match_golden_digests(tmp_path, capsys,
                                                   pattern):
    path = _run_pattern_file(tmp_path, pattern, CLIFFORD_PATTERNS)
    for seed, want in zip((7, 4294967290), GOLDEN_CLIFFORD_RUNS[pattern]):
        code, out = run_cli(capsys, ["run", "--pattern", path,
                                     "--trials", "100", "--seed", str(seed)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, seed


@pytest.mark.parametrize("pattern", sorted(GOLDEN_RUN_OUTCOMES))
def test_run_outcomes_match_golden_digests(tmp_path, capsys, pattern):
    source = RUN_PATTERNS if pattern in GOLDEN_RUNS else CLIFFORD_PATTERNS
    path = _run_pattern_file(tmp_path, pattern, source)
    for seed, want in zip((7, 4294967290), GOLDEN_RUN_OUTCOMES[pattern]):
        code, out = run_cli(capsys, ["run", "--pattern", path,
                                     "--trials", "100", "--seed", str(seed)])
        assert code == 0
        results = json.loads(out)["results"]
        blob = json.dumps([results[k] for k in
                           ("outcome_counts", "frame", "history")])
        assert hashlib.sha256(blob.encode()).hexdigest() == want, seed


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
