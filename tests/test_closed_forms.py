"""The closed forms on spaces beyond the exhaustive sweep.

The verifier checks ``ir_cat``, ``covering_dimension`` and ``ir_co``
against brute force on every space of at most 5 points, but the CLI and
the benchmark serve spaces of 20-60 points.  Here seeded random
preorders of that size go through transformations whose effect on the
three answers is a theorem of finite-space theory (Stong 1966; Barmak,
LNM 2032, ch. 1), and the answers must move as the theorem says:

* relabelling the points relabels every answer;
* blowing a point up into an indiscrete class of k copies keeps the
  ir_cat size, the dimension and whether ir_co is empty;
* adding a beat point x, one whose strict closure cl{x} minus x is the
  closure of an existing point m, keeps the same three (x retracts onto
  m, and the identity deforms to that retraction);
* a product multiplies the ir_cat sizes and the dimensions plus one,
  and its ir_co is the product of the factors' ir_co.

The two predicates of ``analyze`` answer from the reach rows alone:
hyperconnected when some point reaches every point, ir-path connected
when the closures form a chain.  The pairwise scans they replaced stay
here as oracles, on the empty space, every swept space and the family.
"""

import random
from itertools import combinations

import pytest

from irtopo import (
    covering_dimension,
    from_reach,
    ir_cat,
    ir_co,
    is_ir_path_connected,
    product,
)
from irtopo.core import points_of, transpose
from irtopo.verifier import enumerate_spaces

SEED = 20260418


def _closed(rows):
    """The reflexive, transitive closure of relation rows (Warshall)."""
    rows = [row | 1 << x for x, row in enumerate(rows)]
    for k in range(len(rows)):
        for i, row in enumerate(rows):
            if row >> k & 1:
                rows[i] = row | rows[k]
    return rows


def _space(rows):
    return from_reach([f"p{i}" for i in range(len(rows))], rows)


def random_preorder(rng, n):
    """A random DAG on n points, closed, with a few of its edges doubled
    back so that some classes hold several points (not T0); one in four
    has a greatest point, so that its ir_co is not empty."""
    p = rng.uniform(1.5, 4.0) / n
    rows = [0] * n
    edges = []
    top = rng.random() < 0.25
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p or top and j == n - 1:
                rows[i] |= 1 << j
                edges.append((i, j))
    for i, j in rng.sample(edges, min(len(edges), rng.randint(1, 3))):
        rows[j] |= 1 << i
    return _space(_closed(rows))


@pytest.fixture(scope="module")
def family():
    rng = random.Random(SEED)
    return [random_preorder(rng, rng.randint(20, 60)) for _ in range(40)]


def _invariants(space):
    return (
        ir_cat(space).size,
        covering_dimension(space).dim,
        ir_co(space) != 0,
    )


def _image(mask, perm):
    out = 0
    for x in points_of(mask):
        out |= 1 << perm[x]
    return out


def test_family_is_varied(family):
    # the relations below would be idle on spaces whose answers are all alike
    assert any(not s.is_t0() for s in family)
    assert len({ir_cat(s).size for s in family}) > 5
    assert len({covering_dimension(s).dim for s in family}) > 1
    assert any(ir_co(s) for s in family) and not all(ir_co(s) for s in family)


def test_relabelling(family):
    rng = random.Random(SEED + 1)
    for s in family:
        perm = list(range(s.n))
        rng.shuffle(perm)
        rows = [0] * s.n
        for x, row in enumerate(s.reach_rows):
            rows[perm[x]] = _image(row, perm)
        t = _space(rows)
        assert {_image(m, perm) for m in ir_cat(s).sets} == set(ir_cat(t).sets)
        assert covering_dimension(t).dim == covering_dimension(s).dim
        assert ir_co(t) == _image(ir_co(s), perm)


def test_blowing_up_a_point(family):
    rng = random.Random(SEED + 2)
    for s in family:
        x, k = rng.randrange(s.n), rng.randint(2, 4)
        # the copies of x are the points n .. n + k - 2; each reaches what x
        # reaches, and is reached from what reaches x
        copies = ((1 << k - 1) - 1) << s.n
        rows = [row | copies if row >> x & 1 else row for row in s.reach_rows]
        rows += [rows[x]] * (k - 1)
        t = _space(rows)
        assert t.n == s.n + k - 1
        assert _invariants(t) == _invariants(s)


def test_adding_a_beat_point(family):
    rng = random.Random(SEED + 3)
    for s in family:
        m = rng.randrange(s.n)
        # the points reaching the new point: an open set below m without m,
        # the union of the neighbourhoods of some points strictly below m
        below = [y for y in points_of(s.min_opens[m]) if not s.reach(m, y)]
        reached_from = 0
        for y in rng.sample(below, rng.randint(0, min(3, len(below)))):
            reached_from |= s.min_opens[y]
        x = 1 << s.n
        rows = [row | x if reached_from >> y & 1 else row for y, row in enumerate(s.reach_rows)]
        rows.append(x | s.reach_rows[m])
        t = _space(rows)
        assert t.reach_rows[s.n] & ~x == s.reach_rows[m]
        assert _invariants(t) == _invariants(s)


def test_products():
    rng = random.Random(SEED + 4)
    swept = [s for n in (3, 4) for s in enumerate_spaces(n)]
    small = [random_preorder(rng, rng.randint(5, 12)) for _ in range(30)]
    for y in small:
        for x in rng.sample(swept, 3):
            xy = product(x, y)
            assert ir_cat(xy).size == ir_cat(x).size * ir_cat(y).size
            dim = covering_dimension(xy).dim + 1
            assert dim == (covering_dimension(x).dim + 1) * (covering_dimension(y).dim + 1)
            co = 0
            for a in points_of(ir_co(x)):
                for b in points_of(ir_co(y)):
                    co |= 1 << (a * y.n + b)
            assert ir_co(xy) == co


def hyperconnected_scan(space):
    """Oracle: no two nonempty opens are disjoint, so no two minimal
    neighbourhoods are, since every open is a union of minimal ones."""
    return all(a & b for a, b in combinations(space.min_opens, 2))


def path_connected_scan(space):
    """Oracle: each pair of points is joined by a path one way or the other."""
    return all(space.reach(x, y) or space.reach(y, x) for x, y in combinations(range(space.n), 2))


def total_preorder(rng, n):
    """n points on a few levels, each reaching the points of its level and
    above: ir-path connected, and hyperconnected through a bottom point."""
    levels = [rng.randrange(6) for _ in range(n)]
    return _space([sum(1 << y for y in range(n) if levels[y] >= lv) for lv in levels])


def _predicates(space):
    return space.is_hyperconnected(), is_ir_path_connected(space)


def _scans(space):
    return hyperconnected_scan(space), path_connected_scan(space)


def test_predicates_on_the_empty_space():
    empty = _space([])
    assert _predicates(empty) == _scans(empty) == (True, True)


def test_predicates_match_the_scans_on_every_swept_space():
    swept = [s for n in range(1, 6) for s in enumerate_spaces(n)]
    assert len(swept) == 7331
    seen = set()
    for s in swept:
        got = _predicates(s)
        assert got == _scans(s), s
        seen.add(got)
    assert seen == {(False, False), (True, False), (True, True)}


def test_predicates_match_the_scans_on_the_family(family):
    rng = random.Random(SEED + 5)
    # each space, its opposite (closures and neighbourhoods swapped), and
    # total preorders, so that every answer occurs at this size
    spaces = [t for s in family for t in (s, _space(list(transpose(s.reach_rows))))]
    spaces += [total_preorder(rng, rng.randint(20, 60)) for _ in range(10)]
    seen = set()
    for s in spaces:
        got = _predicates(s)
        assert got == _scans(s), s
        seen.add(got)
    assert seen == {(False, False), (True, False), (True, True)}
