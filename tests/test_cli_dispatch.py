"""``main`` parses an argv that starts with a leaf subcommand's words with
that leaf's parser alone.  Each argv here runs twice, through the leaves
and through ``build_parser().parse_args`` (the route every other argv
takes), and both runs must give the same exit code, stdout, stderr,
``--out`` file and parsed arguments."""

import contextlib
import io
import json
import re

import pytest

from irtopo import cli
from test_cli import _leaf_commands, _readme_commands
from test_cli_golden import INPUTS, _cases

# the README's file names, each standing for one of the golden inputs
README_FILES = {
    "space.json": "seven.json",
    "x.json": "sierp.json",
    "y.json": "point.json",
    "points.json": "grid.json",
}

USAGE = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "co"],
    ["--format", "json", "co", "sierp.json"],
    ["bogus"],
    ["bogus", "sierp.json"],
    ["spec"],
    ["spec", "bogus"],
    ["spec", "-h"],
    ["interval"],
    ["interval", "zn"],
    ["co"],
    ["co", "-h", "sierp.json"],
    ["co", "sierp.json", "extra"],
    ["co", "sierp.json", "extra", "--more"],
    ["equiv", "sierp.json"],
    ["equiv", "sierp.json", "point.json", "seven.json"],
    ["path", "sierp.json", "--from", "0"],
    ["spec", "zn"],
    ["spec", "zn", "--n", "12", "extra"],
    ["spec", "poset", "poset.json", "poset.json"],
    ["interval", "dist", "--x", "1/2", "--y", "1/5", "z"],
    ["co", "sierp.json", "--bogus"],
    ["spec", "zn", "--n", "12", "--bogus=1"],
    ["co", "sierp.json", "--form", "json"],
    ["co", "sierp.json", "--f", "json"],
    ["path", "sierp.json", "--f", "0", "--to", "1"],
    ["verify", "--max-p", "1", "--claims", "T2"],
    ["co", "sierp.json", "--format=json"],
    ["path", "sierp.json", "--from=0", "--to=1"],
    ["co", "--", "sierp.json"],
    ["co", "sierp.json", "--"],
    ["path", "--from", "1", "--to", "0", "--", "sierp.json"],
    ["co", "sierp.json", "--format", "json", "--format", "table"],
    ["path", "sierp.json", "--from", "1", "--from", "0", "--to", "1"],
    ["co", "sierp.json", "--format", "xml"],
    ["spec", "zn", "--n", "-12"],
    ["spec", "zn", "--n", "twelve"],
    ["interval", "dist", "--x", "-1/2", "--y", "1"],
    ["spec", "zn", "--n", "12", "-o"],
    ["co", "co", "sierp.json"],
]


def _argvs():
    argvs = [argv for _, argv, _ in _cases()]
    argvs += _readme_commands()
    argvs += [[*leaf, "-h"] for leaf in _leaf_commands()]
    return argvs + USAGE


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("IRTOPO_BUDGET_MAPS", raising=False)
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for name, source in README_FILES.items():
        (tmp_path / name).write_text(json.dumps(INPUTS[source]))
    return tmp_path


def _run(argv, cwd) -> dict:
    before = {p.name for p in cwd.iterdir()}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = {}
    for p in sorted(cwd.iterdir()):
        if p.name not in before:
            written[p.name] = p.read_text()
            p.unlink()
    text = stdout.getvalue()
    if argv[:1] == ["verify"]:  # the one column that is a time
        text = re.sub(r"  \d+\.\d\ds", "  <elapsed>", text)
    return {"code": code, "stdout": text, "stderr": stderr.getvalue(), "written": written}


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_leaf_parse_matches_the_full_parse(argv, inputs, monkeypatch):
    parser = cli.build_parser()
    full_parses = []
    full = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda a: full_parses.append(a) or full(a))
    got = _run(argv, inputs)
    leaf = tuple(argv[:2]) in cli._LEAVES or tuple(argv[:1]) in cli._LEAVES
    assert full_parses == ([] if leaf else [argv])
    monkeypatch.setattr(cli, "_LEAVES", {})
    assert got == _run(argv, inputs)


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_leaf_parse_gives_the_full_namespace(argv, monkeypatch):
    parsed = []

    def record(words):
        def func(args):  # the full parse also names the subcommands under "*command"
            parsed.append((words, {k: v for k, v in vars(args).items() if not k.endswith("command")}))
            return 0, dict, list

        return func

    cli.build_parser()
    for words, leaf in cli._LEAVES.items():
        monkeypatch.setitem(leaf._defaults, "func", record(words))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
        monkeypatch.setattr(cli, "_LEAVES", {})
        assert cli.main(argv) == code
    assert len(parsed) in (0, 2)
    assert parsed[:1] == parsed[1:]
    if parsed:
        words = parsed[0][0]
        assert list(words) == argv[: len(words)]


def test_every_leaf_is_filed_under_its_words():
    cli.build_parser()
    assert sorted(cli._LEAVES) == sorted(_leaf_commands())
