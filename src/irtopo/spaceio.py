"""JSON serialization for spaces, posets, grids and covers.

Space format (all CLI commands consume and produce it):

    {"labels": ["a", "b"], "reach": [[0, 1]]}          reach variant
    {"labels": ["a", "b"], "opens": [[], [0], [0, 1]]} opens variant

``reach`` lists the non-reflexive reach pairs by index (the diagonal is
implied); ``opens`` must list every open set explicitly, including the
empty and the full set.  An opens list is checked through its minimal
neighborhoods, in time linear in its length, so every space in a JSON
output of this package reads back.  Output always carries both keys;
when a file carries both they must agree.

Poset format: {"labels": ["(0)", "M"], "leq": [[0, 1]]} with the
non-reflexive contained-in pairs.  Grid format: {"points": [["1/2",
"0/1"], ["1/1", "1/3"]]} with exact "p/q" coordinates.  A ``reach`` or
``leq`` entry that is not a list of two point indices is a ParseError.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .core import FiniteSpace, IrtopoError, clip_repr, from_open_sets, from_pairs, points_of
from .intervals import as_fraction
from .spectra import spec_from_poset


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
    seen = set()
    for s in labels:
        if s in seen:
            raise ParseError(f"duplicate label {clip_repr(s)}")
        seen.add(s)
    return labels


def _pairs(d: dict, key: str, n: int) -> list[list[int]]:
    """The [i, j] point-index pairs listed under ``key``, checked."""
    items = d.get(key)
    if not isinstance(items, list):
        raise ParseError(f'field "{key}" must be a list of [i, j] pairs')
    for item in items:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"{key} entry {clip_repr(item)} is not an [i, j] pair")
        i, j = item
        if not (_is_index(i, n) and _is_index(j, n)):
            raise ParseError(f"{key} entry {clip_repr(item)} is not a pair of point indices")
    return items


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
                raise ParseError(f"open set {clip_repr(o)} is not a list of point indices")
        space = from_open_sets(labels, opens)
    if has_reach:
        reach_space = from_pairs(labels, _pairs(d, "reach", n))
        if space is not None and space.reach_rows != reach_space.reach_rows:
            raise ParseError('the "reach" and "opens" fields describe different spaces')
        space = reach_space
    return space


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ParseError(f"{path}: {e}") from e


def load_space(path: str) -> FiniteSpace:
    return space_from_dict(_load_json(path))


def spec_to_dict(space: FiniteSpace) -> dict:
    d = space_to_dict(space)
    d["maximal"] = space.labels_of(space.closed_points())
    return d


def poset_from_dict(d: dict) -> FiniteSpace:
    if not isinstance(d, dict):
        raise ParseError("expected a JSON object describing a poset")
    labels = _labels(d)
    return spec_from_poset(labels, _pairs(d, "leq", len(labels)))


def load_poset(path: str) -> FiniteSpace:
    return poset_from_dict(_load_json(path))


def grid_points_from_dict(d: dict) -> list[tuple]:
    if not isinstance(d, dict) or not isinstance(d.get("points"), list):
        raise ParseError('expected a JSON object with a "points" list')
    pts = []
    for row in d["points"]:
        if not isinstance(row, list):
            raise ParseError(f"grid point {clip_repr(row)} is not a coordinate list")
        try:
            pts.append(tuple(as_fraction(c) for c in row))
        except (ValueError, TypeError) as e:
            raise ParseError(f"bad coordinate in {clip_repr(row)}: {e}") from e
    return pts


def load_grid_points(path: str) -> list[tuple]:
    return grid_points_from_dict(_load_json(path))


def cover_labels(space: FiniteSpace, masks) -> list[list[str]]:
    return [space.labels_of(m) for m in masks]


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline.

    The text equals ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``
    byte for byte.  With an indent the stdlib encodes in pure Python, so
    this writer builds the same layout itself: strings go through the C
    string encoder and each list of plain ints is one join.  It takes
    dicts with str keys, lists, tuples, str, int, bool and None; anything
    else raises TypeError.
    """
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, out: list[str], nl: str) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``nl`` is a newline and
    the indent of the line ``obj`` starts on."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if set(map(type, obj)) == _INTS:
            out += ("[", inner, sep.join(map(int.__repr__, obj)), nl, "]")
        else:
            lead = "[" + inner
            for item in obj:
                out.append(lead)
                lead = sep
                _write(item, out, inner)
            out += (nl, "]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (lead, _quote(key), ": ")
            lead = "," + inner
            _write(obj[key], out, inner)
        out += (nl, "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_INTS = {int}
