import enum
import json
import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from irtopo import from_reach, mask_of
from irtopo.cli import main
from irtopo.core import ReachNotPreorder, SearchBudgetExceeded
from irtopo.spectra import NotAPartialOrder
from irtopo.spaceio import (
    ParseError,
    dumps_canonical,
    grid_points_from_dict,
    load_grid_points,
    load_poset,
    load_space,
    poset_from_dict,
    space_from_dict,
    space_to_dict,
)
from irtopo.verifier import enumerate_spaces

from conftest import discrete

SPACES_UPTO4 = [s for n in range(1, 5) for s in enumerate_spaces(n)]


@pytest.mark.parametrize(
    "doc",
    [
        {"labels": ["a", "b"], "reach": [[True, False]]},
        {"labels": ["a", "b"], "reach": [[0, True]]},
        {"labels": ["a", "b"], "opens": [[], [False], [0, 1]]},
        {"labels": ["a", "b"], "opens": [[], [0], [True, 0]]},
    ],
)
def test_space_rejects_boolean_indices(doc):
    with pytest.raises(ParseError):
        space_from_dict(doc)


# the first bad open is named whole, whatever follows it
BAD_OPENS = {
    "true": [True],
    "false": [0, False],
    "float": [1.0],
    "str": ["1"],
    "null": [None],
    "negative": [-1],
    "past-end": [2],
    "far": [0, 10**8],
    "far-then-str": [10**8, "x"],
    "int": 3,
    "string": "01",
    "object": {"0": 1},
}


@pytest.mark.parametrize("entry", list(BAD_OPENS.values()), ids=list(BAD_OPENS))
def test_opens_entries_are_lists_of_point_indices(entry):
    with pytest.raises(ParseError) as e:
        space_from_dict({"labels": ["a", "b"], "opens": [[], entry, [0, 1], [9], 7]})
    assert str(e.value) == f"open set {entry!r} is not a list of point indices"


@pytest.mark.parametrize("field", [{}, "", 3, None], ids=["object", "string", "int", "null"])
def test_opens_field_must_be_a_list(field):
    with pytest.raises(ParseError) as e:
        space_from_dict({"labels": ["a", "b"], "opens": field})
    assert str(e.value) == 'field "opens" must be a list of point lists'


def test_far_open_index_is_never_shifted():
    # 1 << 10**8 alone would be a 12.5 MB int; the index is refused unshifted
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^open set \[100000000\] is not a list"):
            space_from_dict({"labels": ["a"], "opens": [[], [0], [10**8]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_opens_are_read_as_their_masks():
    doc = {"labels": ["a", "b", "c"], "opens": [[], [1, 0], [0, 0], [2, 1, 0], [0, 1]]}
    assert space_from_dict(doc).open_sets == (0, 0b001, 0b011, 0b111)


def test_poset_rejects_boolean_indices():
    with pytest.raises(ParseError):
        poset_from_dict({"labels": ["p", "q"], "leq": [[False, True]]})


PAIR_FIELDS = [(space_from_dict, "reach"), (poset_from_dict, "leq")]
NOT_A_PAIR = "is not an [i, j] pair"
NOT_INDICES = "is not a pair of point indices"
BAD_PAIRS = {
    "one": ([0], NOT_A_PAIR),
    "three": ([0, 1, 1], NOT_A_PAIR),
    "int": (0, NOT_A_PAIR),
    "string": ("01", NOT_A_PAIR),
    "object": ({"0": 1}, NOT_A_PAIR),
    "bool": ([True, 1], NOT_INDICES),
    "bool-to": ([0, False], NOT_INDICES),
    "past-end": ([0, 2], NOT_INDICES),
    "negative": ([-1, 0], NOT_INDICES),
    "float": ([0.0, 1], NOT_INDICES),
    "float-to": ([0, 1.0], NOT_INDICES),
    "null": ([None, 0], NOT_INDICES),
}


@pytest.mark.parametrize("parse, key", PAIR_FIELDS, ids=["reach", "leq"])
@pytest.mark.parametrize("entry, why", list(BAD_PAIRS.values()), ids=list(BAD_PAIRS))
def test_reach_and_leq_reject_the_same_entries(parse, key, entry, why):
    # the first bad entry is named, whatever follows it
    with pytest.raises(ParseError) as e:
        parse({"labels": ["a", "b"], key: [[0, 1], entry, [9, 9], 7]})
    assert str(e.value) == f"{key} entry {entry!r} {why}"


@pytest.mark.parametrize("parse, key", PAIR_FIELDS, ids=["reach", "leq"])
@pytest.mark.parametrize("field", [{}, "", 3, None], ids=["object", "string", "int", "null"])
def test_pair_fields_must_be_lists(parse, key, field):
    with pytest.raises(ParseError) as e:
        parse({"labels": ["a", "b"], key: field})
    assert str(e.value) == f'field "{key}" must be a list of [i, j] pairs'


def _random_preorder(rng, n):
    """Reach rows of a random preorder on n points: a random relation,
    made reflexive and then transitive (Warshall)."""
    rows = [1 << x | sum(1 << y for y in range(n) if rng.random() < 0.15) for x in range(n)]
    for k in range(n):
        for x in range(n):
            if rows[x] >> k & 1:
                rows[x] |= rows[k]
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_reach_rows_equal_the_warshall_rows(seed):
    # duplicate pairs and [i, i] pairs included, in a shuffled order
    rng = random.Random(seed)
    n = rng.randrange(0, 13)
    rows = _random_preorder(rng, n)
    pairs = [[x, y] for x in range(n) for y in range(n) if rows[x] >> y & 1]
    pairs = [p for p in pairs if p[0] != p[1] or rng.random() < 0.5]
    pairs += rng.sample(pairs, len(pairs) // 3)
    rng.shuffle(pairs)
    labels = [f"p{i}" for i in range(n)]
    space = space_from_dict({"labels": labels, "reach": pairs})
    assert space.reach_rows == tuple(rows)


@pytest.mark.parametrize("seed", range(10))
def test_non_transitive_reach_fails_as_from_reach_does(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    pairs = [[x, x + 1] for x in range(n - 1)]
    rng.shuffle(pairs)
    labels = [f"p{i}" for i in range(n)]
    with pytest.raises(ReachNotPreorder) as want:
        from_reach(labels, [mask_of((x, x + 1)) for x in range(n - 1)] + [1 << n - 1])
    with pytest.raises(ReachNotPreorder) as got:
        space_from_dict({"labels": labels, "reach": pairs})
    assert str(got.value) == str(want.value)
    with pytest.raises(NotAPartialOrder) as got:
        poset_from_dict({"labels": labels, "leq": pairs})
    assert str(got.value) == str(want.value)


def test_large_discrete_round_trip():
    """A 15-point discrete space writes 32,768 opens, and they read back:
    the opens check is linear in the list, not in its pairs."""
    n = 15
    space = from_reach([str(i) for i in range(n)], [1 << i for i in range(n)])
    start = time.monotonic()
    doc = json.loads(json.dumps(space_to_dict(space)))
    back = space_from_dict(doc)
    elapsed = time.monotonic() - start
    assert len(doc["opens"]) == 1 << n and doc["reach"] == []
    assert back == space and back.labels == space.labels
    assert elapsed < 10.0


def _readme_format_examples():
    """The JSON lines of the README's "File formats" code blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### File formats", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    return [json.loads(line) for block in blocks for line in block.splitlines()]


def test_readme_file_formats_parse():
    examples = _readme_format_examples()
    assert {"reach", "opens", "leq", "points"} <= {k for doc in examples for k in doc}
    for doc in examples:
        if "leq" in doc:
            poset_from_dict(doc)
        elif "points" in doc:
            grid_points_from_dict(doc)
        else:
            space_from_dict(doc)


@pytest.mark.parametrize("row", [[True, False], ["1/2", False], [True, "1/1"]])
def test_grid_rejects_boolean_coordinates(row):
    with pytest.raises(ParseError, match="bad coordinate"):
        grid_points_from_dict({"points": [row, ["1/1", "1/1"]]})


def test_grid_rejects_exponent_notation():
    with pytest.raises(ParseError, match="bad coordinate .*exponent notation"):
        grid_points_from_dict({"points": [["1/2", "1e-100000000"]]})


@pytest.mark.parametrize("load", [load_space, load_poset, load_grid_points])
def test_deeply_nested_json_is_a_parse_error(load, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ParseError, match="maximum recursion depth"):
        load(str(path))


def test_space_rejects_duplicate_labels():
    with pytest.raises(ParseError, match="duplicate label 'a'"):
        space_from_dict({"labels": ["a", "a"], "reach": []})


def test_poset_rejects_duplicate_labels():
    with pytest.raises(ParseError, match="duplicate label 'p'"):
        poset_from_dict({"labels": ["p", "p"], "leq": []})


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SPACES_UPTO4))
def test_round_trip(space):
    back = space_from_dict(space_to_dict(space))
    assert back.reach_rows == space.reach_rows
    assert back.labels == space.labels


def _stdlib_canonical(obj) -> str:
    """The reference layout that dumps_canonical must reproduce."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_TEXT = st.text(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "/", "é", "☃", "𝄞"])
    | st.characters(),
    max_size=8,
)
_INT = st.integers() | st.sampled_from([0, -1, 2**63, -(10**40), 10**100])
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | _INT
    | _TEXT
    | st.lists(_INT)
    | st.lists(_TEXT)
    | st.lists(st.lists(_INT, max_size=4), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(_INT | st.booleans(), max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dumps_canonical_matches_the_stdlib(value):
    assert dumps_canonical(value) == _stdlib_canonical(value)


class _Bit(enum.IntEnum):
    ON = 1


@pytest.mark.parametrize(
    "value",
    [[], {}, (), [[]], [{}], {"a": []}, {"a": {"b": ()}}, [True, 1, False, 0, None],
     [1, 2, True], ["a", "b", 1], [[0, 1], [], [2]], {"": "", "\x00": ["\\", '"']},
     # lists of int lists, written in bulk unless a member is not a list of
     # plain ints
     [[], [], []], [[[0, 1], []], [[]], [[2]]],
     {"opens": [[], [0], [0, 1]], "reach": [[0, 1]], "x": {"y": [[-3], []]}},
     [[-1, -(10**40)], [10**100, -(10**100)], [0]], ([0, 1], [2]),
     [[True, 1], [False]], [(0, 1), [2]], [[0], (1,)], [[_Bit.ON, 2], [_Bit.ON]]],
)
def test_dumps_canonical_edge_values(value):
    assert dumps_canonical(value) == _stdlib_canonical(value)


@pytest.mark.parametrize(
    "value, kind",
    [(1.5, "float"), ({1, 2}, "set"), (object(), "object"), ([0, {"a": 0.0}], "float"),
     ({1: "a"}, "int"), ([[0, 1.5]], "float"), ([[0], [1.5]], "float"),
     ({"a": [[], [0.0]]}, "float")],
)
def test_dumps_canonical_rejects_other_types(value, kind):
    with pytest.raises(TypeError, match=kind):
        dumps_canonical(value)



def _chain(n):
    """The n-point chain: point x reaches every point above it."""
    full = (1 << n) - 1
    return from_reach([str(i) for i in range(n)], [full >> x << x for x in range(n)])


def _preorder_with_classes(rng, n):
    """A seeded space on n points in fewer than n classes, so not T0: each
    point joins one of the classes, and the classes are ordered at random
    along their index, closed transitively."""
    k = rng.randrange(n // 2, n)
    cls = [rng.randrange(k) for _ in range(n)]
    up = [1 << i for i in range(k)]
    for i in reversed(range(k)):
        for j in range(i + 1, k):
            if rng.random() < 0.12:
                up[i] |= up[j]
    rows = [sum(1 << y for y in range(n) if up[cls[x]] >> cls[y] & 1) for x in range(n)]
    return from_reach([f"p{i}" for i in range(n)], rows)


def _random_spaces(seed, count):
    rng = random.Random(seed)
    return [_preorder_with_classes(rng, rng.randint(5, 24)) for _ in range(count)]


_RANDOM_SPACES = _random_spaces(35, 50)


# the table writer's byte edges (8, 16 and 24 points) and the dict route
# past them
@pytest.mark.parametrize(
    "space",
    [from_reach([], []), *SPACES_UPTO4]
    + [make(n) for n in (7, 8, 9, 16) for make in (discrete, _chain)]
    + [_chain(n) for n in (17, 24, 25)]
    + _RANDOM_SPACES,
    ids=lambda s: f"n{s.n}",
)
def test_dumps_canonical_writes_a_space_as_its_dict(space):
    d = space_to_dict(space)
    for value, plain in ((space, d), ({"space": space, "n": 1}, {"space": d, "n": 1}),
                         ([space, [space]], [d, [d]])):
        # compared as lines: pytest's diff of two long strings takes minutes
        assert dumps_canonical(value).split("\n") == _stdlib_canonical(plain).split("\n")


@pytest.mark.parametrize("n", [17, 24, 25])
def test_dumps_canonical_space_over_the_open_set_budget(n):
    for value in (discrete(n), [discrete(n)]):
        with pytest.raises(SearchBudgetExceeded):
            dumps_canonical(value)


def test_analyze_output_matches_the_stdlib(tmp_path, capsys):
    """`analyze` on a 12-point discrete space lists 4096 opens."""
    path = tmp_path / "discrete12.json"
    path.write_text(json.dumps({"labels": [f"p{i}" for i in range(12)], "reach": []}))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert len(doc["space"]["opens"]) == 4096
    assert text == _stdlib_canonical(doc)
