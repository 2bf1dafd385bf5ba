"""JSON serialization for spaces, posets, grids and covers.

Space format (all CLI commands consume and produce it):

    {"labels": ["a", "b"], "reach": [[0, 1]]}          reach variant
    {"labels": ["a", "b"], "opens": [[], [0], [0, 1]]} opens variant

``reach`` lists the non-reflexive reach pairs by index (the diagonal is
implied); ``opens`` must list every open set explicitly, including the
empty and the full set.  Output always carries both keys; when a file
carries both they must agree.

Poset format: {"labels": [...], "leq": [[i, j], ...]} with the
non-reflexive contained-in pairs.  Grid format: {"points": [["1/2",
"0/1"], ...]} with exact "p/q" coordinates.
"""

from __future__ import annotations

import json

from .core import FiniteSpace, IrtopoError, from_open_sets, from_reach, iter_points, points_of
from .intervals import as_fraction
from .spectra import SpecSpace, spec_from_poset


class ParseError(IrtopoError):
    pass


def space_to_dict(space: FiniteSpace) -> dict:
    return {
        "labels": list(space.labels),
        "reach": [[x, y] for x, y in space.reach_pairs()],
        "opens": [list(points_of(o)) for o in space.open_sets],
    }


def _is_index(v, n: int) -> bool:
    return type(v) is int and 0 <= v < n  # JSON true/false are ints in Python


def _labels(d: dict) -> list[str]:
    labels = d.get("labels")
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ParseError('field "labels" must be a list of strings')
    if len(set(labels)) != len(labels):
        dup = next(s for i, s in enumerate(labels) if s in labels[:i])
        raise ParseError(f"duplicate label {dup!r}")
    return labels


def _reach_rows_from_pairs(n: int, pairs) -> list[int]:
    rows = [1 << i for i in range(n)]
    for item in pairs:
        try:
            x, y = item
        except (TypeError, ValueError):
            raise ParseError(f"reach entries must be [from, to] pairs, got {item!r}")
        if not (_is_index(x, n) and _is_index(y, n)):
            raise ParseError(f"reach pair {item!r} is out of range")
        rows[x] |= 1 << y
    return rows


def space_from_dict(d: dict) -> FiniteSpace:
    if not isinstance(d, dict):
        raise ParseError("expected a JSON object describing a space")
    labels = _labels(d)
    has_reach = "reach" in d
    has_opens = "opens" in d
    if not has_reach and not has_opens:
        raise ParseError('a space needs a "reach" or an "opens" field')
    n = len(labels)
    space = None
    if has_opens:
        opens = d["opens"]
        if not isinstance(opens, list):
            raise ParseError('field "opens" must be a list of point lists')
        for o in opens:
            if not isinstance(o, list) or not all(_is_index(p, n) for p in o):
                raise ParseError(f"open set {o!r} is not a list of point indices")
        space = from_open_sets(labels, opens)
    if has_reach:
        rows = _reach_rows_from_pairs(n, d["reach"])
        reach_space = from_reach(labels, rows)
        if space is not None and space.reach_rows != reach_space.reach_rows:
            raise ParseError('the "reach" and "opens" fields describe different spaces')
        space = reach_space
    return space


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from e


def load_space(path: str) -> FiniteSpace:
    return space_from_dict(_load_json(path))


def spec_to_dict(spec: SpecSpace) -> dict:
    d = space_to_dict(spec.space)
    d["maximal"] = [spec.space.labels[i] for i in iter_points(spec.maximal)]
    return d


def poset_from_dict(d: dict) -> SpecSpace:
    if not isinstance(d, dict):
        raise ParseError("expected a JSON object describing a poset")
    labels = _labels(d)
    leq = d.get("leq")
    if not isinstance(leq, list):
        raise ParseError('field "leq" must be a list of [i, j] pairs')
    pairs = []
    for item in leq:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(type(v) is int for v in item)
        ):
            raise ParseError(f"leq entry {item!r} is not an [i, j] pair")
        pairs.append((item[0], item[1]))
    return spec_from_poset(labels, pairs)


def load_poset(path: str) -> SpecSpace:
    return poset_from_dict(_load_json(path))


def grid_points_from_dict(d: dict) -> list[tuple]:
    if not isinstance(d, dict) or not isinstance(d.get("points"), list):
        raise ParseError('expected a JSON object with a "points" list')
    pts = []
    for row in d["points"]:
        if not isinstance(row, list):
            raise ParseError(f"grid point {row!r} is not a coordinate list")
        try:
            pts.append(tuple(as_fraction(c) for c in row))
        except (ValueError, TypeError, ZeroDivisionError) as e:
            raise ParseError(f"bad coordinate in {row!r}: {e}") from e
    return pts


def load_grid_points(path: str) -> list[tuple]:
    return grid_points_from_dict(_load_json(path))


def cover_labels(space: FiniteSpace, masks) -> list[list[str]]:
    return [[space.labels[p] for p in iter_points(m)] for m in masks]


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
