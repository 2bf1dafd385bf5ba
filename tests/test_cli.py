import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
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
    # only plain ASCII digits index a point; other tokens are labels or nothing
    labels = [str(i) for i in range(12)] + ["+11", "1_1"]
    path.write_text(json.dumps({"labels": labels, "reach": [[0, 12]]}))
    assert main(["path", str(path), "--from", "0", "--to", "+11"]) == 0
    assert main(["path", str(path), "--from", "0", "--to", "1_1"]) == 1
    capsys.readouterr()
    for token in (" 11", "11 ", "\u0661\u0661", "-0", "0x1"):
        assert main(["path", str(path), "--from", "0", "--to", token]) == 2
        assert capsys.readouterr().err == f"error: no point labelled {token!r}\n"
    assert main(["path", str(path), "--from", "0", "--to", "014"]) == 2
    assert "point index 14 out of range" in capsys.readouterr().err


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


def test_equiv_negative_budget_env(sierp_file, monkeypatch, capsys):
    monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "-1")
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
    # `dim` answers at any size with the closed form: the maximal minimal
    # neighbourhoods are both the worst cover and its best refinement;
    # `analyze` still prints no dimension above five points
    path = tmp_path / "d6.json"
    path.write_text(json.dumps({"labels": [str(i) for i in range(6)], "reach": []}))
    assert main(["dim", str(path), "--format", "json"]) == 0
    singletons = [[str(i)] for i in range(6)]
    assert json.loads(capsys.readouterr().out) == {
        "dim": 0, "worst_cover": singletons, "refinement": singletons,
    }
    fence = tmp_path / "fence.json"
    # the even points lie below their odd neighbours, the 20 maximal points
    reach = [[x, y] for x in range(0, 40, 2) for y in (x - 1, x + 1) if 0 <= y < 40]
    fence.write_text(json.dumps({"labels": [f"p{i}" for i in range(40)], "reach": reach}))
    assert main(["dim", str(fence), "--format", "json"]) == 0
    # in canonical order: the smaller {p38, p39} first
    neighbourhoods = sorted(
        ([f"p{x}" for x in (y - 1, y, y + 1) if x < 40] for y in range(1, 40, 2)), key=len
    )
    assert json.loads(capsys.readouterr().out) == {
        "dim": 1, "worst_cover": neighbourhoods, "refinement": neighbourhoods,
    }
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
    for x, whole in (("3/10", False), ("9/10", True)):
        assert main(["interval", "ball", "--x", x, "--eps", "1/5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "clipped" not in payload
        assert payload["whole_space"] is whole
    assert main(["interval", "dist", "--x", "5/2", "--y", "1/2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["interval", "dist", "--x", "1/0", "--y", "1/2"],
        ["interval", "ball", "--x", "1/2", "--eps", "1/0"],
    ],
    ids=["dist", "ball"],
)
def test_interval_zero_denominator(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator in '1/0'")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["interval", "dist", "--x", "1e-100000000", "--y", "1/2"],
        ["interval", "ball", "--x", "1/2", "--eps", "1E-100000000"],
        ["grid", "grid.json"],
    ],
    ids=["dist", "ball", "grid"],
)
def test_exponent_notation_fails_at_once(argv, tmp_path, capsys):
    # Fraction would expand 10**100000000 before the range check
    (tmp_path / "grid.json").write_text(json.dumps({"points": [["1e-100000000", "0/1"]]}))
    if argv[0] == "grid":
        argv = ["grid", str(tmp_path / "grid.json")]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exponent notation in '1" in err


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


def test_grid_boolean_coordinates(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"points": [[True, False], [1, 1]]}))
    assert main(["grid", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad coordinate in [True, False]: bools")


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


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_empty_claim_selection(fmt, capsys):
    assert main(["verify", "--max-points", "2", "--claims", ",", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no claim selected" in captured.err


def test_verify_seven_points_refused(capsys):
    assert main(["verify", "--max-points", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: claim sweeps support 1..6 points, got 7" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one(jobs, capsys):
    assert main(["verify", "--max-points", "1", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: jobs must be at least 1, got {jobs}" in captured.err


_IMPORT_PROBE = """
import contextlib, io, json, sys
import irtopo
import irtopo.cli
LAYERS = ("irtopo.verifier", "concurrent.futures", "multiprocessing")
seen = [("import", 0, [m for m in LAYERS if m in sys.modules])]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = irtopo.cli.main(argv)
    seen.append((argv[0], code, [m for m in LAYERS if m in sys.modules]))
print(json.dumps(seen))
"""


def test_only_verify_loads_the_verifier(sierp_file):
    # the oracle layer stays out of a process until it verifies, and the
    # process-pool modules until it verifies on more than one job
    src = Path(__file__).resolve().parents[1] / "src"
    argvs = [
        ["co", sierp_file, "--format", "json"],
        ["cat", sierp_file, "--format", "json"],
        ["analyze", sierp_file, "--format", "json"],
        ["spec", "zn", "--n", "360", "--format", "json"],
        ["verify", "--max-points", "1", "--format", "json"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen[:-1] == [
        [name, 0, []] for name in ("import", "co", "cat", "analyze", "spec")
    ]
    name, code, loaded = seen[-1]
    assert (name, code) == ("verify", 0)
    assert loaded == ["irtopo.verifier"]


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


def test_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["co", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: maximum recursion depth")
    assert "Traceback" not in err


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


@pytest.fixture
def wide_files(tmp_path):
    """A 26-point discrete space, an antichain poset on its labels and 26
    pairwise incomparable grid points: each space has 2**26 open sets."""
    n = 26
    labels = [f"p{i}" for i in range(n)]
    docs = {
        "space": {"labels": labels, "reach": []},
        "poset": {"labels": labels, "leq": []},
        "grid": {"points": [[f"{i}/{n}", f"{n - i}/{n}"] for i in range(n)]},
    }
    paths = {"out": str(tmp_path / "out.json")}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{space}"],
        ["analyze", "{space}", "--format", "json"],
        ["spec", "poset", "{poset}", "--format", "json"],
        ["spec", "poset", "{poset}", "-o", "{out}"],
        ["grid", "{grid}", "--format", "json"],
    ],
    ids=["analyze-table", "analyze-json", "spec-poset-json", "spec-poset-out", "grid-json"],
)
def test_listing_open_sets_has_a_budget(argv, wide_files, capsys):
    start = time.perf_counter()
    assert main([a.format(**wide_files) for a in argv]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: over 65536 open sets on 26 points\n")
    assert not Path(wide_files["out"]).exists()


@pytest.mark.parametrize(
    "command, expected",
    [
        ("cat", {"ir_cat": 26}),
        ("co", {"ir_co": []}),
        ("dim", {"dim": 0}),
    ],
)
def test_wide_space_answers_without_open_sets(command, expected, wide_files, capsys):
    assert main([command, wide_files["space"], "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {k: payload[k] for k in expected} == expected


def _run_cli(argv, env=None, preexec_fn=None):
    """Run the CLI in a fresh interpreter: (exit code, stdout, stderr, seconds),
    interpreter start included.  ``env`` adds environment variables and
    ``preexec_fn`` runs in the child before it starts."""
    src = Path(__file__).resolve().parents[1] / "src"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "irtopo", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src), **(env or {})},
        preexec_fn=preexec_fn,
    )
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def _space_file(directory, name, n, pairs):
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"labels": [f"p{i}" for i in range(n)], "reach": pairs}))
    return str(path)


@pytest.fixture(scope="module")
def large_discrete(tmp_path_factory):
    """A 20,000-point discrete space: every point set the commands walk is
    one high bit, or the whole space."""
    return _space_file(tmp_path_factory.mktemp("large"), "d20000", 20_000, [])


@pytest.mark.parametrize(
    "command, code, expected",
    [
        ("co", 0, {"ir_co": []}),
        ("contractible", 1, {"ir_contractible": False}),
        ("cat", 0, {"ir_cat": 20_000}),
        ("dim", 0, {"dim": 0}),
    ],
)
def test_large_sparse_space_answers_fast(command, code, expected, large_discrete):
    # the sets these commands walk are single high bits, so a walk over
    # the points of a set must cost per point, not per bit position
    got, out, err, seconds = _run_cli([command, large_discrete, "--format", "json"])
    assert (got, err) == (code, "")
    payload = json.loads(out)
    assert {k: payload[k] for k in expected} == expected
    assert seconds < 15


@pytest.fixture(scope="module")
def large_star(tmp_path_factory):
    """Stars on 20,000, 3,000 and 1,000 points, point 0 reaching every
    other one: the open sets are the sets holding point 0, and the maps
    from a star to itself are too many to list."""
    directory = tmp_path_factory.mktemp("star")
    return {n: _space_file(directory, f"star{n}", n, [[0, k] for k in range(1, n)])
            for n in (1_000, 3_000, 20_000)}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_analyze_refuses_a_wide_space_first(fmt, large_star):
    # the open-set budget must refuse before the pairwise work of the
    # other answers, which took 96 s on this input
    code, out, err, seconds = _run_cli(["analyze", large_star[20_000], "--format", fmt])
    assert (code, out, err) == (2, "", "error: over 65536 open sets on 20000 points\n")
    assert seconds < 2


def test_equiv_of_discrete_spaces_answers_fast(tmp_path):
    # 7,776 maps one way and 15,625 back: each f gets at most one search
    # for its partners, not a scan of 121.5M map pairs
    left, right = (_space_file(tmp_path, f"d{n}", n, []) for n in (5, 6))
    code, out, err, seconds = _run_cli(["equiv", left, right])
    assert (code, out, err) == (1, "not ir-homotopy equivalent\n", "")
    assert seconds < 5


def test_equiv_holds_one_map_at_a_time(large_star):
    # 300,000 maps of 1,000 points would take 2.4 GB as a list; within
    # 600 MB of address space the budget, not memory, must end the search
    resource = pytest.importorskip("resource")
    limit = 600 * 1024 * 1024

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    star = large_star[1_000]
    code, out, err, _ = _run_cli(
        ["equiv", star, star], env={"IRTOPO_BUDGET_MAPS": "300000"}, preexec_fn=cap_memory
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: map budget exceeded: more than 300000 maps tried (IRTOPO_BUDGET_MAPS sets it)\n"
    )


def test_equiv_counts_maps_without_copying_them(large_star):
    # the first counting pass passes the default budget of 1,000,000 maps;
    # a fresh 3,000-tuple per map counted made this take 15 s
    star = large_star[3_000]
    code, out, err, seconds = _run_cli(["equiv", star, star])
    assert (code, out) == (2, "")
    assert err == (
        "error: map budget exceeded: more than 1000000 maps tried (IRTOPO_BUDGET_MAPS sets it)\n"
    )
    assert seconds < 5


def test_equiv_matches_a_relabelled_star(large_star, tmp_path):
    # the star is its own up-core; the cores of it and of a copy centred
    # on point 1 are matched by one bijection, so the map search is
    # reached, and refused, as fast as for the star itself
    moved = _space_file(tmp_path, "moved", 3_000, [[1, k] for k in range(3_000) if k != 1])
    code, out, err, seconds = _run_cli(["equiv", large_star[3_000], moved])
    assert (code, out) == (2, "")
    assert err == (
        "error: map budget exceeded: more than 1000000 maps tried (IRTOPO_BUDGET_MAPS sets it)\n"
    )
    assert seconds < 5


def test_equiv_answers_from_the_cores_over_the_budget(tmp_path):
    # 11 points reaching a 12th retract onto it; the 12-point discrete
    # space is its own core, so no map search is made and the budget,
    # which their maps pass, does not stop the answer
    cone = _space_file(tmp_path, "cone", 12, [[i, 11] for i in range(11)])
    discrete = _space_file(tmp_path, "d12", 12, [])
    code, out, err, _ = _run_cli(["equiv", cone, discrete], env={"IRTOPO_BUDGET_MAPS": "1000"})
    assert (code, out, err) == (1, "not ir-homotopy equivalent\n", "")
    code, out, err, _ = _run_cli(["equiv", discrete, discrete], env={"IRTOPO_BUDGET_MAPS": "1000"})
    assert (code, out) == (2, "")
    assert err == (
        "error: map budget exceeded: more than 1000 maps tried (IRTOPO_BUDGET_MAPS sets it)\n"
    )


def test_duplicate_label_found_in_one_pass(tmp_path):
    # the first repeated label must be found in one pass over the labels
    path = tmp_path / "dup.json"
    labels = [f"p{i}" for i in range(200_000)] + ["p1", "p0"]
    path.write_text(json.dumps({"labels": labels, "reach": []}))
    got, out, err, seconds = _run_cli(["co", str(path)])
    assert (got, out, err) == (2, "", "error: duplicate label 'p1'\n")
    assert seconds < 5


@pytest.mark.parametrize(
    "command, doc, field",
    [
        (["co"], {"labels": ["a", "b"], "reach": [list(range(100_000))]}, "reach entry"),
        (["co"], {"labels": ["a", "b"], "opens": [[], [0] * 100_000 + [2]]}, "open set"),
        (["co"], {"labels": ["x" * 100_000] * 2, "reach": []}, "duplicate label"),
        (["grid"], {"points": [["1/2"] * 100_000 + ["1/0"]]}, "bad coordinate"),
        (["grid"], {"points": ["x" * 100_000]}, "grid point"),
        (["spec", "poset"], {"labels": ["a", "b"], "leq": [list(range(100_000))]}, "leq entry"),
    ],
    ids=["reach", "opens", "labels", "grid-coordinate", "grid-row", "leq"],
)
def test_error_messages_clip_quoted_input(command, doc, field, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and len(err.encode()) < 1024


_LONG = "x" * 5000


@pytest.mark.parametrize(
    "argv, doc, budget",
    [
        (["analyze", "FILE"], {"labels": ["a", _LONG, "c"], "reach": [[0, 1], [1, 2]]}, None),
        (["spec", "poset", "FILE"], {"labels": [_LONG, "b"], "leq": [[0, 1], [1, 0]]}, None),
        (["verify", "--max-points", "1", "--claims", _LONG], None, None),
        (["path", "FILE", "--from", _LONG, "--to", "0"], {"labels": ["a"], "reach": []}, None),
        (["path", "FILE", "--from", "1", "--to", "0"], {"labels": ["1", _LONG], "reach": []}, None),
        (["equiv", "FILE", "FILE"], {"labels": ["a"], "reach": []}, _LONG),
    ],
    ids=["not-transitive", "not-antisymmetric", "claim", "point", "ambiguous-point", "budget"],
)
def test_long_inputs_are_clipped_in_errors(argv, doc, budget, tmp_path, monkeypatch, capsys):
    # an error message quotes each input through clip_repr, never whole
    if budget is not None:
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", budget)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.encode()) < 400


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


def _leaf_commands(prefix=()):
    """Every leaf subcommand of ``build_parser()`` as a word tuple, read
    from the ``{a,b,...} ...`` subcommand choices of each help text."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        build_parser().parse_args([*prefix, "-h"])
    choices = re.search(r"\{([\w,-]+)\}\s+\.\.\.", text.getvalue())
    if choices is None:
        return [prefix]
    return [
        leaf for name in choices.group(1).split(",") for leaf in _leaf_commands((*prefix, name))
    ]


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "irtopo":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["interval", "dist", "--x", "0", "--y", "1/2"]) == 0
        assert main(["spec", "zn", "--n", "12"]) == 0
    assert len(built) <= 1


def test_readme_command_line_matches_parser():
    commands = _readme_commands()
    assert len(commands) >= 10
    for words in commands:
        try:
            build_parser().parse_args(words)
        except SystemExit:
            pytest.fail(f"the parser rejects the README command: irtopo {' '.join(words)}")
    leaves = _leaf_commands()
    assert len(leaves) == 13
    for leaf in leaves:
        if not any(tuple(words[: len(leaf)]) == leaf for words in commands):
            pytest.fail(f"the README command-line block lacks irtopo {' '.join(leaf)}")
