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

:func:`dumps_canonical` writes a :class:`FiniteSpace` found in its value
as the text of its :func:`space_to_dict` form.

Poset format: {"labels": ["(0)", "M"], "leq": [[0, 1]]} with the
non-reflexive contained-in pairs.  Grid format: {"points": [["1/2",
"0/1"], ["1/1", "1/3"]]} with exact "p/q" coordinates.  A ``reach`` or
``leq`` entry that is not a list of two point indices, or an ``opens``
entry that is not a list of point indices, is a ParseError; each entry
is checked in one pass, which also ORs it into its reach row or its
mask, and those rows and masks go on to the core constructors and
``spec_from_poset``, which take masks only.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .core import FiniteSpace, IrtopoError, clip_repr, from_open_sets, from_reach, points_of
from .intervals import as_fraction
from .spectra import spec_from_poset


class ParseError(IrtopoError):
    pass


def space_to_dict(space: FiniteSpace) -> dict:
    return {
        "labels": list(space.labels),
        "reach": list(map(list, space.reach_pairs())),
        "opens": list(map(list, map(points_of, space.open_sets))),
    }


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


def _rows(d: dict, key: str, n: int) -> list[int]:
    """Reach rows (row i holds i and j) of the checked [i, j] pairs under ``key``."""
    items = d.get(key)
    if not isinstance(items, list):
        raise ParseError(f'field "{key}" must be a list of [i, j] pairs')
    rows = [1 << x for x in range(n)]
    for item in items:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"{key} entry {clip_repr(item)} is not an [i, j] pair")
        i, j = item
        if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"{key} entry {clip_repr(item)} is not a pair of point indices")
        rows[i] |= 1 << j
    return rows


def _open_mask(o, n: int) -> int:
    """The mask of an ``opens`` entry, each point index checked once."""
    m = 0
    if isinstance(o, list):
        for p in o:
            # an identity test, which JSON's true and false (ints in Python) fail
            if type(p) is not int or not 0 <= p < n:
                break
            m |= 1 << p
        else:
            return m
    raise ParseError(f"open set {clip_repr(o)} is not a list of point indices")


def space_from_dict(d: dict) -> FiniteSpace:
    if not isinstance(d, dict):
        raise ParseError("expected a JSON object describing a space")
    labels = _labels(d)
    if "reach" not in d and "opens" not in d:
        raise ParseError('a space needs a "reach" or an "opens" field')
    n = len(labels)
    space = None
    if "opens" in d:
        opens = d["opens"]
        if not isinstance(opens, list):
            raise ParseError('field "opens" must be a list of point lists')
        space = from_open_sets(labels, [_open_mask(o, n) for o in opens])
    if "reach" in d:
        reach_space = from_reach(labels, _rows(d, "reach", n))
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
    return spec_from_poset(labels, _rows(d, "leq", len(labels)))


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
    string encoder.  A list of lists of plain ints, such as a space's
    ``reach``, is one call of the C encoder with the newline and indent
    of an int as its item separator; two ``str.replace`` passes then put
    the members' brackets on lines of their own and close up empty
    members.  A :class:`FiniteSpace` is written as the text of
    ``space_to_dict(space)``; below 25 points its open sets are written
    straight from their masks, a byte at a time from text tables, and a
    larger space goes through its dict.  It takes dicts with str keys,
    lists, tuples, str, int, bool, None and FiniteSpace; anything else
    raises TypeError.
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
        if set(map(type, obj)) == _LISTS and set(map(type, chain.from_iterable(obj))) <= _INTS:
            # the encoder starts each int on its own line; the members'
            # brackets are moved onto theirs, and empty members closed up
            deep = inner + "  "
            body = _items_encoder("," + deep)(obj)[2:-2].replace(
                "]," + deep + "[", inner + "]," + inner + "[" + deep
            )
            text = ("[" + deep + body + inner + "]").replace("[" + deep + inner + "]", "[]")
            out += ("[", inner, text, nl, "]")
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
    elif isinstance(obj, FiniteSpace):
        if obj.n > 24:  # past the three byte tables
            _write(space_to_dict(obj), out, nl)
            return
        inner = nl + "  "
        # space_to_dict's keys, in sorted order
        out += ("{", inner, '"labels": ')
        _write(obj.labels, out, inner)
        out += (",", inner, '"opens": ', _opens_text(obj.open_sets, inner), ",", inner, '"reach": ')
        _write(list(map(list, obj.reach_pairs())), out, inner)
        out += (nl, "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_INTS = {int}
_LISTS = {list}


@lru_cache(maxsize=None)
def _items_encoder(sep: str):
    """JSON text with ``sep`` between list items and no other whitespace,
    through the C encoder, which the stdlib runs only without an indent."""
    return json.JSONEncoder(separators=(sep, ":")).encode


def _opens_text(opens, nl: str) -> str:
    """The JSON text of ``space_to_dict``'s ``opens`` for masks below 2**24,
    starting on a line whose newline and indent are ``nl``."""
    inner = nl + "  "
    low, mid, high = _point_texts("," + inner + "  ")
    close = inner + "]"
    items = [
        "[" + (low[m & 255] + mid[m >> 8 & 255] + high[m >> 16])[1:] + close if m else "[]"
        for m in opens
    ]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


@lru_cache(maxsize=None)
def _point_texts(sep: str) -> tuple[tuple[str, ...], ...]:
    """``_point_texts(sep)[k][b]``: ``sep`` and the index of each point of
    byte value ``b`` placed as byte ``k`` of a mask, so the text of a mask
    below 2**24 is three lookups, then its first comma dropped."""
    return tuple(
        tuple("".join(sep + str(p) for p in points_of(b << 8 * k)) for b in range(256))
        for k in range(3)
    )
