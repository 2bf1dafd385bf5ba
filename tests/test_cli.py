import json
from pathlib import Path

import pytest

from irtopo.cli import build_parser, main


@pytest.fixture
def sierp_file(tmp_path):
    path = tmp_path / "sierp.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "opens": [[], [0], [0, 1]]}))
    return str(path)


@pytest.fixture
def sierp_reach_file(tmp_path):
    path = tmp_path / "sierp_reach.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "reach": [[0, 1]]}))
    return str(path)


@pytest.fixture
def discrete2_file(tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "reach": []}))
    return str(path)


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps({"labels": ["*"], "reach": []}))
    return str(path)


def test_analyze_table(sierp_file, capsys):
    assert main(["analyze", sierp_file]) == 0
    out = capsys.readouterr().out
    assert "ir_co: {1}" in out
    assert "ir_cat: 1" in out
    assert "T0: yes" in out
    assert "hyperconnected: yes" in out


def test_analyze_json_roundtrips(sierp_file, tmp_path, capsys):
    assert main(["analyze", sierp_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ir_co"] == ["1"]
    assert payload["dim"] == 0
    again = tmp_path / "again.json"
    again.write_text(json.dumps(payload["space"]))
    assert main(["cat", str(again)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"


def test_reach_and_opens_forms_agree(sierp_file, sierp_reach_file, capsys):
    for path in (sierp_file, sierp_reach_file):
        assert main(["co", path]) == 0
    outputs = capsys.readouterr().out.splitlines()
    assert outputs[0] == outputs[1] == "{1}"


def test_path_exit_codes(sierp_file, capsys):
    assert main(["path", sierp_file, "--from", "0", "--to", "1"]) == 0
    assert "0 on [0,1); 1 at t=1" in capsys.readouterr().out
    assert main(["path", sierp_file, "--from", "1", "--to", "0"]) == 1


def test_path_unknown_label(sierp_file):
    assert main(["path", sierp_file, "--from", "zz", "--to", "1"]) == 2


def test_point_token_both_label_and_other_index(tmp_path, capsys):
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps({"labels": ["1", "0"], "reach": [[0, 1]]}))
    assert main(["path", str(path), "--from", "1", "--to", "0"]) == 2
    err = capsys.readouterr().err
    assert "ambiguous" in err
    assert "labels point 0" in err and "indexes point 1" in err
    # a token whose two readings agree, or whose index is out of range, is a label
    path.write_text(json.dumps({"labels": ["a", "1", "7"], "reach": [[1, 2]]}))
    assert main(["path", str(path), "--from", "1", "--to", "7"]) == 0


def test_contractible(sierp_file, discrete2_file):
    assert main(["contractible", sierp_file]) == 0
    assert main(["contractible", discrete2_file]) == 1


def test_equiv(sierp_file, point_file, discrete2_file, capsys):
    assert main(["equiv", sierp_file, point_file]) == 0
    assert "equivalent" in capsys.readouterr().out
    assert main(["equiv", discrete2_file, point_file]) == 1
    # the orientation flag was a no-op and is gone
    assert main(["equiv", sierp_file, point_file, "--def8-orientation"]) == 2


def test_equiv_malformed_budget_env(sierp_file, monkeypatch, capsys):
    monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "abc")
    assert main(["equiv", sierp_file, sierp_file]) == 2
    assert "IRTOPO_BUDGET_MAPS" in capsys.readouterr().err


def test_cat_json(sierp_file, capsys):
    assert main(["cat", sierp_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ir_cat"] == 1
    assert payload["cover"] == [["0", "1"]]
    assert payload["witnesses"] == [["1"]]


def test_cat_ambient_sense(sierp_file, capsys):
    # both senses give the same cover and witnesses; the flag is gone
    assert main(["cat", sierp_file, "--sense", "ambient"]) == 2
    assert main(["cat", sierp_file, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sense"] == "subspace"


def test_dim(sierp_file, capsys):
    assert main(["dim", sierp_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0"


@pytest.mark.parametrize("command", ["dim", "analyze"])
def test_budget_points_flag_is_gone(sierp_file, command):
    assert main([command, sierp_file, "--budget-points", "5"]) == 2


def test_no_dimension_above_five_points(tmp_path, capsys):
    path = tmp_path / "d6.json"
    path.write_text(json.dumps({"labels": [str(i) for i in range(6)], "reach": []}))
    assert main(["dim", str(path)]) == 2
    assert "limited to 5 points, space has 6" in capsys.readouterr().err
    assert main(["analyze", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"dim": null' in out
    assert json.loads(out)["ir_cat"]["size"] == 6


def test_spec_zn(tmp_path, capsys):
    out_file = tmp_path / "zn.json"
    assert main(["spec", "zn", "--n", "360", "-o", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "ir_cat: 3" in out
    saved = json.loads(out_file.read_text())
    assert saved["labels"] == ["(2)", "(3)", "(5)"]
    assert saved["maximal"] == ["(2)", "(3)", "(5)"]
    # the emitted space file is consumable by the other commands
    assert main(["cat", str(out_file)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "3"


def test_spec_poset(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(
        json.dumps({"labels": ["(0)", "M1", "M2"], "leq": [[0, 1], [0, 2]]})
    )
    assert main(["spec", "poset", str(path)]) == 0
    assert "ir_cat: 2" in capsys.readouterr().out


def test_interval_commands(capsys):
    assert main(["interval", "dist", "--x", "1/5", "--y", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "3/10"
    assert main(["interval", "ball", "--x", "3/10", "--eps", "1/5"]) == 0
    assert capsys.readouterr().out.strip() == "[0/1, 1/2)"
    for x, clipped in (("3/10", False), ("9/10", True)):
        assert main(["interval", "ball", "--x", x, "--eps", "1/5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clipped"] is payload["whole_space"] is clipped
    assert main(["interval", "dist", "--x", "5/2", "--y", "1/2"]) == 2


def test_grid(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(
        json.dumps(
            {"points": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"], ["1/1", "1/1"]]}
        )
    )
    assert main(["grid", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ir_co"] == ["(1/1,1/1)"]


def test_verify_small(capsys):
    assert main(["verify", "--max-points", "2", "--claims", "T2,T7,C9"]) == 0
    out = capsys.readouterr().out
    assert "T2" in out and "verdict: all required claims hold" in out


def test_verify_json_and_out(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--max-points",
            "2",
            "--claims",
            "T2,L2_literal",
            "--format",
            "json",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0  # known-false failures do not gate the exit status
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_file.read_text())
    assert stdout_payload == file_payload
    assert stdout_payload["all_required_passed"] is True
    claims = {c["claim"]: c for c in stdout_payload["claims"]}
    assert claims["L2_literal"]["passed"] is False


def test_verify_unknown_claim():
    assert main(["verify", "--claims", "T99"]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("command", [["spec", "poset"], ["grid"]])
def test_malformed_json_poset_and_grid(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(command + [str(path)]) == 2
    assert f"error: {path}: Expecting property name" in capsys.readouterr().err


def test_inconsistent_reach_and_opens(tmp_path):
    path = tmp_path / "both.json"
    path.write_text(
        json.dumps(
            {"labels": ["0", "1"], "reach": [], "opens": [[], [0], [0, 1]]}
        )
    )
    assert main(["analyze", str(path)]) == 2


def test_missing_file():
    assert main(["analyze", "/nonexistent/space.json"]) == 2


def test_no_args_usage():
    assert main([]) == 2


def test_not_a_topology(tmp_path):
    path = tmp_path / "bad_top.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "opens": [[], [0], [1]]}))
    assert main(["analyze", str(path)]) == 2


def _readme_commands():
    """The ``irtopo`` invocations of the README's command-line block, as
    argument lists: brackets around optional parts dropped, the first of
    the alternatives ``a|b`` taken and the metavariable ``N`` set to 1."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    commands = []
    for line in block.split("```", 1)[0].splitlines():
        code = line.split("#", 1)[0].strip()
        words = [w.strip("[]").split("|")[0] for w in code.split()]
        words = ["1" if w == "N" else w for w in words]
        if code.startswith("irtopo "):
            commands.append(words[1:])
        elif code.startswith("[") and commands:
            commands[-1] += words
    return commands


def test_readme_command_line_matches_parser():
    commands = _readme_commands()
    assert len(commands) >= 10
    for words in commands:
        try:
            build_parser().parse_args(words)
        except SystemExit:
            pytest.fail(f"the parser rejects the README command: irtopo {' '.join(words)}")
