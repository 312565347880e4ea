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

from quditmbqc import cli, galois, resource, sim
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


@pytest.mark.parametrize("command,d,code", [
    ("transport", 100, 0), ("transport", 101, 2), ("analyze", 200, 2)])
def test_cx_blocks_past_the_budget_are_refused_in_a_fresh_process(
        tmp_path, command, d, code):
    # a cx gate's d blocks hold d^3 entries: Z_100's 10^6 are built and its
    # transport runs, while over Z_101 transport and over Z_200 analyze,
    # which expands the gate before its d^4 matrix is refused, exit 2
    # before any block is allocated.  The peak is traced in a fresh process
    # from the call on, its dimension's d^2 tables (1.6 MiB at Z_200,
    # within their own budget) built before the trace starts
    gate = write_json(tmp_path / "gate.json", {
        "kind": "named", "name": "cx",
        "dim": {"kind": "integer_ring", "d": d}})
    script = (
        "import sys, tracemalloc\n"
        "from quditmbqc import cli\n"
        "from quditmbqc.galois import INTEGER_RING, make_dim\n"
        f"make_dim(INTEGER_RING, d={d})\n"
        "tracemalloc.start()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, tracemalloc.get_traced_memory()[1], file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", script, command, "--gate",
                          gate], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    *lines, last = out.stderr.splitlines()
    got, peak = map(int, last.split())
    assert got == code, out.stderr
    if code:
        assert lines == [f"error: {d}^3 gate block entries exceed the "
                         f"1000000 amplitude budget"]
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
# --seed 4294967290, each run's trials the rows of one default_rng(seed)
# stream.  The same inputs and seed must keep printing the same bytes.
GOLDEN_RUNS = {
    "Z2-cz": ("764df2f80e3fa93ecbc55bdee3233c62ce5814ffbd0cd8fd0ff24e5a8a1befb5",
              "797eb950321bc913c45ec4bf37c2d054c03def4aacc4b4cec5b5802163a75095"),
    "Z2-light_shift": (
        "dcf3dc5145ec088ff7e582c0316061a9b23c0b7728730c1010225f74b08466ea",
        "e8d69bd35e2389c787ca128e2ef783b4fb552776e292f88c5242add24bcc348f"),
    "Z2-cx": ("07d850a049184a07df53fb764a84a2dd0c200188b7857fa0c056f5cc69f83cf7",
              "48d344bcb0cb941aa48fd4e2b7862414c2477bddd6a3e061f4691921084dcc60"),
    "Z3-cz": ("f5000e417222ea9f75e5dbc040e6f8093fb760dd8dd627df63167a3672b0357c",
              "594125c275ca0bf24a47e0b34f6f507ed349786abf7233afe7c1d8f076809f82"),
    "Z3-light_shift": (
        "e470da8183d41a11c60f79b0090a7696cf5640d22071d409113343f6fa9e5a25",
        "3328c677e6b32a1eb91414bb8bee76342cad41ce5f5fcea8caf9d2d68674cdbd"),
    "Z3-cx": ("605d4f061063383f706c735dfc2e20e1e76dd35ff2ef4b992471a7003cf474d0",
              "2134ad7710fe0dff3bea5bb8e3a218bddf1b29426678640b8a0d781c0e379960"),
    "GF4-cz": (
        "e64687690030457b62580c7e209f5d8cf8b16c3488adb65e2448d54a1b82754f",
        "7f43fdaddfdaff065c0ab52cc594f88785e9fa4e5a0bafecb8d945673146c1f4"),
    "GF4-light_shift": (
        "284035db52c0bc95d1b5b5e8b079ec46cd06f8d19bb1ff92f3db15972d3a93a3",
        "b94e5d0abcf2eeef487efcf2e21521c72b4798ca599544b57946744c6221cbd8"),
    "GF4-cx": (
        "69efc848caaac83283c80fc60f1bd2c5ac69ced5dd420ca24d0b145c901af86e",
        "7aa3311e3e8cbd644bb5bc2e867eea475b77efecf2b0adfa4585c499d07a7e60"),
    "Z5-cz": ("e840eddd5080c5154bbee8515c62d4a0aa28d33b9a75d283661bf77f4a380a4b",
              "f38e3dd00e09a6d848612301d596710ecb8b96bf5fab0920958fc6352cfb19b0"),
    "Z5-cx": ("49f47971559b6ec0b261bc36a8b52c271d057ad27bfc1c2881a39d0b9612aca0",
              "9fd7afe79bfa527c70e193518cf6825ab924af6addc431538fdac92bf61433db"),
}
# the same digests for the non-adaptive patterns of each family
# (tests/data/clifford_patterns.json): its transport pattern and
# compile_clifford(hadamard(dim), G_I), whose steps move the frame by the
# step diagonal's images.  The GF4 light shift reaches no Hadamard word,
# so it has a transport pattern only.
GOLDEN_CLIFFORD_RUNS = {
    "GF4-cx-hadamard": (
        "96b3e677c784d6ad77f5aac495567e6c67b87554bdc959cec0fc822004f3ae24",
        "1b09d2bd337b73df7ccf8ee1b21b5d19ffc3e8fdd1eecde27737f7531ad1c34b"),
    "GF4-cx-transport": (
        "f209d66d0dad6e42736f74d3643e64cad63aac9a569bdee7a0d7af4ac4b36437",
        "77f4ddda10147fa67473f1cf325dd5a95e772b0d256052378e2739ec35d6109f"),
    "GF4-cz-hadamard": (
        "f9c1914c2dd3dfc828de29550c1b117cc4171c46412282873501e2b5c6995dd4",
        "22a89425f6264b1a1cc4aa540ec10f79ca0ee0801b151380e14a02c3d9427fa7"),
    "GF4-cz-transport": (
        "d9b52b4e0797a767e118de5c8fcbb5c7b72a5652eb27772ceed904632a2e3cc6",
        "8490a0aa6cdcb54adfcc14fd9e510e27d75f96fd766084b3c98b940dc487745d"),
    "GF4-light_shift-transport": (
        "313574e61e13fd9eb171659d43f851fd8c0deca595b730d8f6414d26c6e088a9",
        "fb9dc0ec7ee2bf5002f72689afafd153e4e0f56b42a719ed857c4e70f4b1cce6"),
    "Z2-cx-hadamard": (
        "1d09ce0726d08cbb0a93971f4d9feb1907d40e87774f46c802340a9e2150e7ef",
        "487f4c31879971fde26a6211b9666dd0df47802f1e28e25c91ccf0ef57469ac1"),
    "Z2-cx-transport": (
        "35b24faa38d6ae8061a0e4f955302cf5341d8eacc8aad32817ba7731f093df7c",
        "bf07be6b39cc02560b33d9d401b806d9170207aa224e5d6d737b1684e8f26e7c"),
    "Z2-cz-hadamard": (
        "d38b793f11173788558ec99c2f0b9a1df6aec12b0a0ba029b0b6ee4e88a4d6d4",
        "94210696cfe0600f570f48be5ba601e62288fd08909cb41fd36b8e6d6c413435"),
    "Z2-cz-transport": (
        "14e59ebb5e42ad98f3eada491d1c732d18388e9a1157ec97f0b400909a81f8e0",
        "62311bb2dea7288b664d8038080d7a8b4d2ba0f8a347ba115d09535b6ef2508b"),
    "Z2-light_shift-hadamard": (
        "620b85971ac8aaa912d52750aa9eef6f168dd5762460065b2dab0d46d449ac31",
        "93ed023b5e1df14330e10a170777675af9027f6b89dc78d38e64552d73f8ab12"),
    "Z2-light_shift-transport": (
        "acccd6596147b2631eb40dc816dbf9215b8e5bb2778238796f81b390bf9b664a",
        "e6ab9b4e41c4710ecabf9e6c5a7300bdb4f14c1612c8ffe17cef8e047f950b7a"),
    "Z3-cx-hadamard": (
        "0aeafcf1a7f55093cf3ddd3ade1034d6be29108b779d20cbb3c543b40975e44c",
        "7badbb79262ec6dec37596facbbb9f22e2b2e27dbd6289ce1d060135608ac738"),
    "Z3-cx-transport": (
        "ab90fd07c1c45c53066c4c3c56e7c0fcfb4877bbf40b8da1b32eeb26354e231a",
        "dfb81c4699a59277b5907579a5ee8a6cf3f212ca0dc4ec9558625315a288ed39"),
    "Z3-cz-hadamard": (
        "32d6887e51328d3781848d724cc0157e3c6e2d677477147e0cf62eab3d290098",
        "0f2c81a2851468fbdf0ddcb24f84e403a4789a4a7c2dfc5d1f9e0817a35ac129"),
    "Z3-cz-transport": (
        "2be49fa5a7c9ad52e2bbce889e59f8650a852b5a371cbc9825509b4bf6bf8a9d",
        "29694cc90c6f11da955b2fb9f540bf443f464a5f561a7f9d78b82581569479fc"),
    "Z3-light_shift-hadamard": (
        "11af4bdc6f4c1a5b3acffc86b6bdabc1e0c2e253fb205df3a3a84a39e8bfa68d",
        "c7e61038376be794fd244a7c20dc1b27b3d29f481a8374647cd47b6b0bd22d9c"),
    "Z3-light_shift-transport": (
        "74d890eeb97d8fb301afd17b00a0d9cd172a0f39baa52aa34ba08b4d1b2348e6",
        "dc28a97106c070b33d7c000b1c0190098e891a9fe6e015d70e3c22e7bfe6c6c8"),
    "Z5-cx-hadamard": (
        "94e74b5eab055ff3b96c51be9d9da0d82c5ccb862f53080cbef2f11c44fbae08",
        "de82223a4fd44a25e09ecc521b424d0c8ba02611934df8bc918155901e38e67b"),
    "Z5-cx-transport": (
        "1b0d94b1d9d410dc6d545bf021a65afad2f7198e0270fd081beb559afd60a372",
        "fbafadbcd787309cd88d2d675ce7e827e12727640510bb8654f88a6dc3cc4cc3"),
    "Z5-cz-hadamard": (
        "a427c2ccf29a3077fd07959580a5a2147cfae912ffd5c64b1374bcf8df413da1",
        "c1bd189b2db2c2470a705fbe226b32c32f2c5943ef433b0444499471f8e1134a"),
    "Z5-cz-transport": (
        "7170dfee4ff595ea746c1a81d6f8271e31a814c4602e51bced7003f234fb38ad",
        "b611be9644954891293395bedb2224f926f2b5d25df9e30c2aceb6bfdf2c504b"),
}

# SHA-256 of the JSON list [outcome_counts, frame, history] of the same
# `run --trials 100` reports, for every pattern of both files at the same
# two seeds: the draws and frames alone, which a change to the step's
# floating-point order must leave exactly as they are.
GOLDEN_RUN_OUTCOMES = {
    "Z2-cz": (
        "bd8c9a37607cec9bad3a006c65df423fbd9e0a9f146adbc559276e2d8859b435",
        "d6ea8b8ebd24e42c0100cf8aeddc258043ec9bac29165bc9191202383c9d752d"),
    "Z2-light_shift": (
        "e4c6c5da22def95e0475d94985c1c35d0b2cead11dde39bbd21b82c08a75e525",
        "d6ea8b8ebd24e42c0100cf8aeddc258043ec9bac29165bc9191202383c9d752d"),
    "Z2-cx": (
        "e4c6c5da22def95e0475d94985c1c35d0b2cead11dde39bbd21b82c08a75e525",
        "d6ea8b8ebd24e42c0100cf8aeddc258043ec9bac29165bc9191202383c9d752d"),
    "Z3-cz": (
        "32194bb5cbd5641bc36cdf33c534147d72a0aaa5d9e39de004257ed21c325512",
        "f4466195af7cee0aa52c605d46c81d6c3b23b8444d39978b97034bb6db7e6549"),
    "Z3-light_shift": (
        "920d4a605bac8a89e85d6529f187afe534cbbd97c1ef935c5c2335b9e8391616",
        "f4466195af7cee0aa52c605d46c81d6c3b23b8444d39978b97034bb6db7e6549"),
    "Z3-cx": (
        "c546a155bc8cc24f78b3e4047d673eebbe94c8260bddee505841c61a58a0962e",
        "f4466195af7cee0aa52c605d46c81d6c3b23b8444d39978b97034bb6db7e6549"),
    "GF4-cz": (
        "b1b94375dffe1da33cddae105ab706023fad36abd24062f73d0de2827c2fc4f6",
        "d0c40cfbe9efd085c74791060216f1e7c6080eef4fb69f0f7444e6be02b07716"),
    "GF4-light_shift": (
        "ab39e65ed279c7424708420141371087cb9921d7a018a84d1595323e3cbae736",
        "004a242e747e1faf344266acd6ac9420eebc106d765cdfcfce52f9c8f1a7e524"),
    "GF4-cx": (
        "ab39e65ed279c7424708420141371087cb9921d7a018a84d1595323e3cbae736",
        "0788d8fae9917f8ebd2d1673fc5c6860c0e062a8a83582366cc67729c46476ea"),
    "Z5-cz": (
        "874db29468e839b13f4904e5eed94f74f3abbab1dfeccf8289d95f0c63b13510",
        "9fad757df3169ea5f153905f56b827559fb3e315f9b88b004e7af1539c4fc194"),
    "Z5-cx": (
        "4179728c4eb0635cda9a9f9cd381dde12394f205ef1dceb9850dc65e9112e9bc",
        "6020b12404b48b98d72c05815a8da6d028fa2c550ccd8654e9db06505850ba4d"),
    "GF4-cx-hadamard": (
        "2f99dfaf20cf7f84a9078a57216e1c3fe1f8d7bfa4ba5e991eac5fc39331b066",
        "262c834a8b08ba0c1a3ba1f379c290df9dcb312c511fbf51b55ebe6db2a33b9b"),
    "GF4-cx-transport": (
        "06d24c209393d4cc106ba591de4dc99199e23c3afa7f9276faf96defdd8fc682",
        "50c0a3c2e29ce693babd305910296533d13fd06b69ce6f08a74a8a56c972fa75"),
    "GF4-cz-hadamard": (
        "76825c27890bc31b970ecf3c4f885d352f8b957d75e3970c750daa41fe01201e",
        "9ca8c1b1e52dcf5b03f314858410781189002fa9a3a143837255ee53b6060baa"),
    "GF4-cz-transport": (
        "e8fd52ac9b35e471793a5e1de1d437ecefb323f8eb7b24ecbcbcf32e66c1b9ed",
        "30574a5fcbd157a7014dcad12780c57d20adcdfbf0b7b2646b1b583c3cc5d09c"),
    "GF4-light_shift-transport": (
        "06d24c209393d4cc106ba591de4dc99199e23c3afa7f9276faf96defdd8fc682",
        "30574a5fcbd157a7014dcad12780c57d20adcdfbf0b7b2646b1b583c3cc5d09c"),
    "Z2-cx-hadamard": (
        "b096e2538d17d65b8c43c43babdaea1d8e9fedd7244051e4f2767afe94ed1867",
        "a4c8dcf7d7ecf47f6fba4836299092534928b89afc37fbfa7de90b734fb87564"),
    "Z2-cx-transport": (
        "e3dc0208b7b3b45fd7e80febd2e0fa3cb0bf27f26c3256e653433f0faad34fde",
        "a5d741ac5c26a157ebd9eb79b70269434523a51b96801dbaceac9c7d5df1a69f"),
    "Z2-cz-hadamard": (
        "b7fff5ad2ccbd79d23f176f35334b3398b26c3b16a4d1e5183fb2203b0305ade",
        "165bf01a6bd23de4869a28df6697f778f1a291f7c286034d56e8f0b94f17719e"),
    "Z2-cz-transport": (
        "2bdb0637491103fd2ad0e2d50b24017c739b89fe13096f96db1c39005f59d755",
        "a4c8dcf7d7ecf47f6fba4836299092534928b89afc37fbfa7de90b734fb87564"),
    "Z2-light_shift-hadamard": (
        "b096e2538d17d65b8c43c43babdaea1d8e9fedd7244051e4f2767afe94ed1867",
        "a4c8dcf7d7ecf47f6fba4836299092534928b89afc37fbfa7de90b734fb87564"),
    "Z2-light_shift-transport": (
        "e3dc0208b7b3b45fd7e80febd2e0fa3cb0bf27f26c3256e653433f0faad34fde",
        "a5d741ac5c26a157ebd9eb79b70269434523a51b96801dbaceac9c7d5df1a69f"),
    "Z3-cx-hadamard": (
        "9adf10b4c18145e84db29dad22015ad505fbea320c7e1d28d440b9f765292b35",
        "7f55b2937a64af7f53fc43f61278a50e140fcb1a26d574620fcb3e66a72b4001"),
    "Z3-cx-transport": (
        "9adf10b4c18145e84db29dad22015ad505fbea320c7e1d28d440b9f765292b35",
        "7f55b2937a64af7f53fc43f61278a50e140fcb1a26d574620fcb3e66a72b4001"),
    "Z3-cz-hadamard": (
        "bfac570e23a7dfdbb1651f3610129005c06b3fabf8edffd63b7379cef48ea21c",
        "39c28d6af490c2f1986e30628ba1f4a112a4189ccc0e427e11993d210ae897f9"),
    "Z3-cz-transport": (
        "90045c4dd4c53a8dcb7d47c4b6b68cab8b7b693aaa14fb412de56c384d28da59",
        "7e920d37a12b697c75494992fa55229f98eaa0109f20988ca5681496edb2e6f3"),
    "Z3-light_shift-hadamard": (
        "d4836c455e15bfbfaac571e216594c84da92e3f9d396a2efb05b698f9a49ccba",
        "3141a29ed8810b85096794e96b393db7a244675f5bbcc072f1403a46cfe7e9c0"),
    "Z3-light_shift-transport": (
        "7741e7b735436c7744404fcadff076aa879494fbfccd8ffa9808cd0378a4f229",
        "1acb2edb6bdb91800e42d5549c4edf7c11a1a91b3a3beb0fb131c22d42f25004"),
    "Z5-cx-hadamard": (
        "8ff42a749da0784a7ed9bd3a5724133cda825f0a9165d279668b07f5c29c216a",
        "54c8ce09d35a12f70cc611c7bce8f89d6f7d690423d14d883a61a38bd695e652"),
    "Z5-cx-transport": (
        "b24aeabc24fdbfe50029370c2aa4ee2dde5a3f35ca1560fc3f24e8a64842421e",
        "f467a1642fd3b5f63b788f6a40a26820c718f2d369e7cd4b42f35958ff3d4e5a"),
    "Z5-cz-hadamard": (
        "7815787ec7491fda56a935594bc184bdb1894df701d3711b032979e823e95fff",
        "51f8181e81a9e92c7b57c77cddd50ff34e8cc9888046eb578eae9f8bd51dbb4a"),
    "Z5-cz-transport": (
        "59398ed81e072e66bffd77e7ad59b4a9e56b7d711cbf1a41420fc44e45b55072",
        "aaef5b8f7068b9a94cfcb895ed6e249a898fb06f45796214b6c13c23c972f5dd"),
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


@pytest.mark.parametrize("family", ["Z3-cz", "GF4-light_shift", "Z5-cx"])
@pytest.mark.parametrize("seed", [7, 4294967290])
@pytest.mark.parametrize("blocks", ["one", "of d^2 rows"])
def test_run_draws_its_trials_off_one_stream(tmp_path, capsys, monkeypatch,
                                             family, seed, blocks):
    # every step of these phase-init chains weighs each outcome 1/d, so
    # trial t's outcomes are the uniform CDF's bins of row t of
    # default_rng(seed).random((trials, steps)), in one block or in d
    obj = json.loads(RUN_PATTERNS.read_text())[family]
    d, S = galois.dim_from_json(obj["dim"]).d, len(obj["steps"])
    T = d ** 3
    if blocks != "one":
        monkeypatch.setattr(sim, "MAX_AMPS", d ** 4)
    code, out = run_cli(capsys, ["run", "--pattern",
                                 _run_pattern_file(tmp_path, family),
                                 "--trials", str(T), "--seed", str(seed)])
    assert code == 0
    k = np.searchsorted(np.arange(1, d + 1) / d,
                        np.random.default_rng(seed).random((T, S)), "right")
    results = json.loads(out)["results"]
    assert results["outcome_counts"] == [np.bincount(
        col, minlength=d).tolist() for col in k.T]
    assert results["history"] == [[i, v] for i, v in enumerate(k[-1].tolist())]


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
