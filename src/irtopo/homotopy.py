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


def ir_homotopy_equivalent(
    x: FiniteSpace, y: FiniteSpace
) -> tuple[ContinuousMap, ContinuousMap] | None:
    """The first pair of maps f: x -> y and g: y -> x, in lexicographic
    order, with both round trips deformable from the identities:
    reach(p, g(f(p))) in x for every p and reach(q, f(g(q))) in y for
    every q.

    Given f, the two conditions bound each g(q) on its own: g(q) lies in
    the closure of each p with f(p) = q, and f(g(q)) in that of q.  So
    each f before the first pair gets one search for its first g within
    those points; it is exhaustive, so None is a proof that no pair exists.
    """
    # all maps g, then all maps f are walked, so an over-budget input raises
    # before any answer; only the returned pair is validated as maps
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
