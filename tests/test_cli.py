"""Command-line interface: exit codes, report determinism, round trips."""

import json

import numpy as np

from quditmbqc import cli
from quditmbqc.engine import chain_graph, graph_to_json
from quditmbqc.galois import INTEGER_RING, make_dim
from quditmbqc.resource import cz_spec, gate_to_json, light_shift_spec
from quditmbqc.cli import matrix_to_json

D2 = make_dim(INTEGER_RING, d=2)
D3 = make_dim(INTEGER_RING, d=3)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
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


def test_table_self_test_corrupt(capsys):
    code, out = run_cli(capsys, ["table", "--self-test-corrupt"])
    assert code == cli.EXIT_TABLE


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
    target = write_json(tmp_path / "target.json", {"matrix": matrix_to_json(U)})
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
