"""One-way paths and homotopies over finite spaces.

A path from x to y here is the two-piece map that sits at x on [0, 1)
and jumps to y at 1; it is continuous into X exactly when y lies in the
closure of {x}, i.e. when reach(x, y) holds.  Because the parameter
interval carries the left-ray topology these paths do not reverse in
general: the calculus is directed (in a T0 space no nonconstant path
has a reverse; verifier claim T11 checks this on every space).

A homotopy from f to g is likewise a two-stage deformation, and exists
exactly when g(x) is reachable from f(x) at every point.  That pointwise
criterion is validated against an independent brute-force model (see
``verifier.chain_homotopy_oracle``) rather than assumed.

Every space is equivalent to its up-core (``up_core``): the T0 quotient
with Stong's beat points deleted on the closure side only, since the
calculus is directed.  Two spaces are equivalent exactly when their
up-cores are isomorphic, so ``ir_homotopy_equivalent`` answers None from
the cores before it searches for maps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .core import (
    FiniteSpace,
    IrtopoError,
    SearchBudgetExceeded,
    clip_repr,
    points_of,
    require_int,
)

DEFAULT_MAP_BUDGET = 1_000_000


class MapMismatch(IrtopoError):
    """The two maps do not share a domain and codomain."""


class NotContinuous(IrtopoError):
    """A map assignment whose preimage of some open set is not open."""

    def __init__(self, message: str, witness_open: int | None = None):
        super().__init__(message)
        self.witness_open = witness_open


def _map_budget() -> int:
    raw = os.environ.get("IRTOPO_BUDGET_MAPS", str(DEFAULT_MAP_BUDGET))
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise IrtopoError(
            f"IRTOPO_BUDGET_MAPS must be a nonnegative integer, got {clip_repr(raw)}"
        )
    return limit


def _over_map_budget(limit: int) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(
        f"map budget exceeded: more than {limit} maps tried (IRTOPO_BUDGET_MAPS sets it)"
    )


def ir_path(space: FiniteSpace, x: int, y: int) -> bool:
    """Whether the two-piece path from x to y exists: y is reachable from x.
    ValueError when a point is out of range, TypeError when not an int."""
    # a sweep asks for paths by the 100,000; plain ints skip the two calls
    if type(x) is not int or type(y) is not int:
        require_int("x", x)
        require_int("y", y)
    if not (0 <= x < space.n and 0 <= y < space.n):
        raise ValueError("point index out of range")
    return bool(space.reach_rows[x] >> y & 1)


def ir_co(space: FiniteSpace) -> int:
    """Points reachable from everywhere: the intersection of all closures,
    equivalently the points whose only open neighborhood is the whole
    space."""
    return space.common_reach(space.full_mask)


def is_ir_path_connected(space: FiniteSpace) -> bool:
    """True when every pair of points is joined by a path in one direction:
    x reaches y when the closure of y lies in that of x, so when the
    closures, sorted by size, each lie inside the next."""
    rows = sorted(space.reach_rows, key=int.bit_count)
    return all(not a & ~b for a, b in zip(rows, rows[1:]))


@dataclass(frozen=True)
class ContinuousMap:
    """A total map between finite spaces, validated at construction.

    Continuity is equivalent to monotonicity for reach (the preimage of
    every open is open iff reach(x, x') implies reach(f(x), f(x'))); the
    constructor checks the latter and NotContinuous carries an open set
    whose preimage fails as witness.
    """

    domain: FiniteSpace
    codomain: FiniteSpace
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        f = tuple(self.assignment)
        object.__setattr__(self, "assignment", f)
        if len(f) != self.domain.n:
            raise ValueError("assignment must cover every domain point")
        for v in f:
            require_int("assignment value", v)
        if any(not 0 <= v < self.codomain.n for v in f):
            raise ValueError("assignment target out of range")
        for x, row in enumerate(self.domain.reach_rows):
            for x2 in points_of(row):
                if not self.codomain.reach(f[x], f[x2]):
                    witness = self.codomain.min_opens[f[x2]]
                    raise NotContinuous(
                        f"preimage of open {points_of(witness)} is not open: "
                        f"{x}->{x2} in the domain but not {f[x]}->{f[x2]}",
                        witness_open=witness,
                    )

    def __call__(self, x: int) -> int:
        return self.assignment[x]


def ir_homotopic(f: ContinuousMap, g: ContinuousMap) -> bool:
    """Whether f deforms to g.

    The criterion is pointwise: reach(f(x), g(x)) in the codomain for
    every x, which is exactly what makes the two-stage deformation (f
    below t = 1, g at t = 1) continuous on the product with the one-way
    interval.  The relation is directed -- a deformation from f to g
    says nothing about one from g to f.
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        raise MapMismatch("maps must share domain and codomain")
    cod = f.codomain
    return all(cod.reach(a, b) for a, b in zip(f.assignment, g.assignment))


def continuous_maps(domain: FiniteSpace, codomain: FiniteSpace) -> list[ContinuousMap]:
    """All continuous maps domain -> codomain, in lexicographic order.

    Backtracks point by point: the image of point k must be reached from
    the images of the earlier points that reach k, and must reach the
    images of the earlier points that k reaches, so no discontinuous map
    is built.  SearchBudgetExceeded is raised before the map budget
    (IRTOPO_BUDGET_MAPS overrides it) is passed.  It counts maps tried:
    maps built and partial maps that no image of the next point extends.
    None is a prefix of another, so there are at most |codomain| **
    |domain| of them, and at most |domain| search steps per one.
    """
    search = _map_search(domain, codomain)
    return [ContinuousMap(domain, codomain, tuple(a)) for a in search()]


def _map_search(domain: FiniteSpace, codomain: FiniteSpace) -> Callable[..., Iterator[list[int]]]:
    """The map search of ``continuous_maps``, with the domain's lists built
    once for any number of runs.  It reads the map budget itself
    (``_map_budget``), once, when it is made.

    ``search(within)`` yields the assignments in lexicographic order,
    unvalidated: the search builds only monotone ones.  Each is the
    search's own live list, overwritten when the run resumes, so a caller
    that keeps one copies it with ``tuple``.  Each run counts
    its own maps tried against the budget.  Given ``within``, it yields
    only those sending each point k into ``within[k]``, in the same
    order; that run walks part of the unmasked one's tree, so it tries
    no more maps.
    """
    n, limit = domain.n, _map_budget()
    full, reach_rows, min_opens = codomain.full_mask, codomain.reach_rows, codomain.min_opens
    below = [points_of(domain.min_opens[k] & ((1 << k) - 1)) for k in range(n)]
    above = [points_of(domain.reach_rows[k] & ((1 << k) - 1)) for k in range(n)]

    def search(within: Sequence[int] | None = None) -> Iterator[list[int]]:
        assign = [0] * n
        if n == 0:
            if limit < 1:
                raise _over_map_budget(limit)
            yield assign
            return
        seed = [full] * n if within is None else within

        def allowed(k: int) -> int:
            m = seed[k]
            for p in below[k]:
                m &= reach_rows[assign[p]]
            for p in above[k]:
                m &= min_opens[assign[p]]
            return m

        k, tried = 0, 0
        pending = [seed[0]] + [0] * (n - 1)  # pending[k]: images of point k left to try
        while k >= 0:
            m = pending[k]
            if not m:
                k -= 1
                continue
            low = m & -m
            pending[k] = m ^ low
            assign[k] = low.bit_length() - 1
            if k + 1 < n and (nxt := allowed(k + 1)):
                k += 1
                pending[k] = nxt
                continue
            if tried == limit:
                raise _over_map_budget(limit)
            tried += 1
            if k + 1 == n:
                yield assign

    return search


def up_core(space: FiniteSpace) -> tuple[FiniteSpace, ContinuousMap, ContinuousMap]:
    """The up-core of ``space`` with its retraction r and inclusion i.

    The core is the subspace left when the T0 quotient keeps the first
    point of each class and then beat points x, those whose strict
    closure cl{x} minus x is the closure cl{m} of a point m, are deleted
    one at a time; r sends a twin to its class's point and x to r(m).
    r is continuous, r i is the identity and the identity deforms to
    i r (x reaches m).  Only the closure side of Stong's beat points
    is deleted: ir-homotopy is directed, and retracting a point whose
    minimal open minus itself is a point's minimal open gives a map
    that deforms to the identity, not one the identity deforms to.

    The core has no beat point, so any map h of it with reach(p, h(p))
    everywhere is the identity: at a point p moved by h with the least
    closure, h fixes cl{p} minus p, which holds h(p), so it would be
    cl{h(p)}.  Composing with r and i then turns an equivalence
    of two spaces into inverse maps of their cores: equivalent spaces
    have isomorphic up-cores, and the converse holds through r and i.
    """
    keep, step = _up_core_points(space)
    if not keep:
        return space, ContinuousMap(space, space, ()), ContinuousMap(space, space, ())
    core, kept = space.subspace(keep), points_of(keep)
    rank = {p: k for k, p in enumerate(kept)}
    r = ContinuousMap(space, core, tuple(rank[step[t]] for t in step))
    return core, r, ContinuousMap(core, space, kept)


def _up_core_points(space: FiniteSpace) -> tuple[int, list[int]]:
    """The points of ``up_core``'s core, as a mask, and each point's step
    towards it: a twin's class point, a beat point's m and a core point
    itself, so that two steps reach the core.

    One pass visits the points by closure size, smallest first.  The
    points of cl{x} outside x's class are then decided before x, and
    none decided later lies in cl{x}.  So x is a beat point of what is
    left exactly when its closure within the points kept, minus x, is
    the closure of a kept point m, and a point kept never becomes one.
    The pass costs one sort, one dict of the kept closures and one
    lookup per point.
    """
    rows = space.reach_rows
    step = list(range(space.n))
    first: dict[int, int] = {}
    kept: dict[int, int] = {}
    keep = 0
    for x in sorted(step, key=lambda p: rows[p].bit_count()):
        row = rows[x]
        t = first.setdefault(row, x)
        if t != x:
            step[x] = t
            continue
        row &= keep | 1 << x
        m = kept.get(row ^ 1 << x)
        if m is None:
            keep |= 1 << x
            kept[row] = x
        else:
            step[x] = m
    return keep, step


def _isomorphic(x: FiniteSpace, keep_x: int, y: FiniteSpace, keep_y: int, limit: int) -> bool:
    """Whether the subspace of x on ``keep_x`` and that of y on ``keep_y``
    are isomorphic.

    The sorted (closure, neighbourhood) sizes within the subspaces must
    agree; then the search maps the points of x, those of the rarest
    sizes first, each to an unused point of y of the same sizes whose
    reach to and from the points already mapped matches.  It backtracks
    without recursion and counts each bijection tried against ``limit``,
    as ``_map_search`` counts maps: each complete one and each partial
    one that no point extends.
    """
    pts_x, pts_y = points_of(keep_x), points_of(keep_y)
    if len(pts_x) != len(pts_y):
        return False
    rows_x, cols_x, rows_y, cols_y = x.reach_rows, x.min_opens, y.reach_rows, y.min_opens
    sizes_x = [((rows_x[p] & keep_x).bit_count(), (cols_x[p] & keep_x).bit_count()) for p in pts_x]
    sizes_y = [((rows_y[q] & keep_y).bit_count(), (cols_y[q] & keep_y).bit_count()) for q in pts_y]
    if sorted(sizes_x) != sorted(sizes_y):
        return False
    cells: dict[tuple[int, int], int] = {}
    for q, size in zip(pts_y, sizes_y):
        cells[size] = cells.get(size, 0) | 1 << q
    order = sorted(zip(pts_x, [cells[s] for s in sizes_x]), key=lambda pc: pc[1].bit_count())
    n, tried = len(order), 0
    if n == 0:
        if limit < 1:
            raise _over_map_budget(limit)
        return True
    image = [0] * x.n
    pending, wants, fitted = [order[0][1]] + [0] * (n - 1), [(0, 0)] * n, [False] * n
    # at level k, done holds the points of x mapped before it, used their images
    k, done, used = 0, 0, 0
    while k >= 0:
        m = pending[k]
        if not m:
            if not fitted[k]:
                if tried == limit:
                    raise _over_map_budget(limit)
                tried += 1
            k -= 1
            if k >= 0:
                p = order[k][0]
                done, used = done ^ 1 << p, used ^ 1 << image[p]
            continue
        low = m & -m
        pending[k] = m ^ low
        q = low.bit_length() - 1
        if (rows_y[q] & used, cols_y[q] & used) != wants[k]:
            continue
        fitted[k] = True
        p = order[k][0]
        image[p] = q
        if k + 1 == n:
            if tried == limit:
                raise _over_map_budget(limit)
            return True
        done, used, k = done | 1 << p, used | low, k + 1
        p, cell = order[k]
        want_row = want_col = 0
        for s in points_of(rows_x[p] & done):
            want_row |= 1 << image[s]
        for s in points_of(cols_x[p] & done):
            want_col |= 1 << image[s]
        pending[k], wants[k], fitted[k] = cell & ~used, (want_row, want_col), False
    return False


def ir_homotopy_equivalent(
    x: FiniteSpace, y: FiniteSpace
) -> tuple[ContinuousMap, ContinuousMap] | None:
    """The first pair of maps f: x -> y and g: y -> x, in lexicographic
    order, with both round trips deformable from the identities:
    reach(p, g(f(p))) in x for every p and reach(q, f(g(q))) in y for
    every q.

    Such a pair exists exactly when the up-cores of x and y are
    isomorphic (``up_core``), so None comes from comparing the cores,
    before any map search; that comparison counts its bijections tried
    against the map budget.  When they agree, the search finds the
    first pair.  Given f, the two conditions bound each g(q) on its own:
    g(q) lies in the closure of each p with f(p) = q, and f(g(q)) in that
    of q.  So each f before the first pair gets one search for its first
    g within those points.
    """
    if not _isomorphic(x, _up_core_points(x)[0], y, _up_core_points(y)[0], _map_budget()):
        return None
    # all maps g, then all maps f are walked, so an over-budget input whose
    # cores agree raises before any answer; only the returned pair is
    # validated as maps
    search_xy, search_yx = _map_search(x, y), _map_search(y, x)
    for _ in search_yx():
        pass
    pair = None
    for fa in search_xy():
        if pair is not None:
            continue
        within, hit = [x.full_mask] * y.n, [0] * y.n
        for p, q in enumerate(fa):
            within[q] &= x.reach_rows[p]  # g(q) in the closure of p
            for r in points_of(y.min_opens[q]):  # f(p) in the closure of r
                hit[r] |= 1 << p
        within = [w & h for w, h in zip(within, hit)]
        if all(within):  # else some q has no image
            for ga in search_yx(within):
                pair = ContinuousMap(x, y, tuple(fa)), ContinuousMap(y, x, tuple(ga))
                break
    return pair
