"""Golden output of every leaf subcommand, in table and JSON form.

Each case runs ``irtopo`` on fixed small inputs and compares its exit
code, stdout, stderr and ``-o``/``--out`` file with ``cli_golden.json``.
The elapsed column of the verify table is replaced by ``<elapsed>``.

After an intended output change, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from irtopo.cli import main

GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")

INPUTS = {
    "sierp.json": {"labels": ["0", "1"], "opens": [[], [0], [0, 1]]},
    "discrete.json": {"labels": ["a", "b", "c"], "reach": []},
    "point.json": {"labels": ["*"], "reach": []},
    "pseudocircle.json": {
        "labels": ["a", "b", "c", "d"],
        "reach": [[0, 2], [0, 3], [1, 2], [1, 3]],
    },
    "seven.json": {
        "labels": ["p0", "p1", "p2", "p3", "p4", "p5", "p6"],
        "reach": [
            [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4], [2, 4],
            [3, 4], [5, 4], [5, 6], [6, 4], [6, 5],
        ],
    },
    "empty.json": {"labels": [], "reach": []},
    "poset.json": {"labels": ["(0)", "M1", "M2"], "leq": [[0, 1], [0, 2]]},
    "grid.json": {
        "points": [
            ["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"], ["1/1", "1/1"],
            ["1/2", "1/3"],
        ]
    },
}

SPACES = ["sierp", "discrete", "point", "pseudocircle", "seven", "empty"]


def _commands():
    """(argv without --format, name of the --out file or None)."""
    out = []
    for s in SPACES:
        for command in ("analyze", "co", "contractible", "cat", "dim"):
            out.append(([command, f"{s}.json"], None))
    for s, a, b in (
        ("sierp", "0", "1"),
        ("sierp", "1", "0"),
        ("pseudocircle", "a", "c"),
        ("pseudocircle", "c", "a"),
        ("seven", "0", "4"),
        ("seven", "p4", "p0"),
        ("sierp", "zz", "1"),
    ):
        out.append((["path", f"{s}.json", "--from", a, "--to", b], None))
    for a, b in (
        ("sierp", "point"),
        ("discrete", "point"),
        ("pseudocircle", "seven"),
        ("seven", "sierp"),
        ("empty", "empty"),
        ("point", "empty"),
    ):
        out.append((["equiv", f"{a}.json", f"{b}.json"], None))
    out += [
        (["spec", "zn", "--n", "360", "-o", "zn360.out"], "zn360.out"),
        (["spec", "zn", "--n", "12"], None),
        (["spec", "zn", "--n", "1", "-o", "zn1.out"], "zn1.out"),
        (["spec", "poset", "poset.json", "--out", "poset.out"], "poset.out"),
        (["interval", "dist", "--x", "1/5", "--y", "1/2"], None),
        (["interval", "dist", "--x", "1/2", "--y", "1/5"], None),
        (["interval", "ball", "--x", "3/10", "--eps", "1/5"], None),
        (["interval", "ball", "--x", "9/10", "--eps", "1/5"], None),
        (["grid", "grid.json"], None),
        (["verify", "--max-points", "2", "--out", "report.out"], "report.out"),
        (["verify", "--max-points", "1", "--claims", "T2,L2_literal,C3"], None),
        (["verify", "--claims", "T99", "--out", "t99.out"], "t99.out"),
    ]
    return out


def _cases():
    return [
        (" ".join(argv + ["--format", fmt]), argv + ["--format", fmt], out)
        for argv, out in _commands()
        for fmt in ("table", "json")
    ]


def _run(argv, out_name, cwd) -> dict:
    for name, doc in INPUTS.items():
        (cwd / name).write_text(json.dumps(doc))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    text = stdout.getvalue()
    if argv[0] == "verify":
        text = re.sub(r"  \d+\.\d\ds", "  <elapsed>", text)
    out_file = None if out_name is None else cwd / out_name
    return {
        "code": code,
        "stdout": text,
        "stderr": stderr.getvalue(),
        "out": out_file.read_text() if out_file and out_file.exists() else None,
    }


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize(
    "key, argv, out_name", _cases(), ids=[c[0] for c in _cases()]
)
def test_cli_output_is_pinned(key, argv, out_name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("IRTOPO_BUDGET_MAPS", raising=False)
    assert _run(argv, out_name, tmp_path) == _golden()[key]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(c[0] for c in _cases())


def _record() -> None:
    os.environ.pop("IRTOPO_BUDGET_MAPS", None)
    golden = {}
    for key, argv, out_name in _cases():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            golden[key] = _run(argv, out_name, Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
