"""Minimal covers by deformable open sets, and covering dimension.

The covering category of a nonempty finite space is the least number of
open sets, each of which deforms onto a point, needed to cover the
space.  "Deforms onto a point" comes in two senses:

* subspace: the set, as a space of its own, has a point reachable
  from all of its points -- the witness lies inside the set;
* ambient: some point of the whole space is reachable from all points
  of the set -- the witness may lie outside.

Both quantities have closed forms in the reach preorder (Stong, Trans.
AMS 1966; Barmak, LNM 2032).  U_y, the minimal neighborhood of y, is
the set of points that reach y, and U_y <= U_z exactly when y reaches z.
Call y maximal when every point it reaches reaches it back: then U_y is
inclusion-maximal, and every point reaches some maximal point.

Covering category.  A deformable open O with witness w lies in U_w.  If
a maximal y lies in O, y reaches w, so U_w = U_y <= O.  Hence every
deformable cover contains each maximal U_y; these already cover the
space, and the class of y witnesses U_y in either sense.  The optimal
cover is unique, the maximal minimal neighborhoods, with the same
witnesses in both senses, so ``ir_cat`` takes no sense.

Covering dimension, the least m such that every open cover has an open
refinement of order at most m + 1, is the order of that cover minus 1:
it refines every open cover, as U_y lies in every open containing y,
and every open refinement of it contains each maximal U_y again.  It is
thus both the worst cover and its own best refinement.  The searches
these forms replace are kept in ``verifier`` as oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    EmptySpace,
    FiniteSpace,
    IrtopoError,
    canon_sorted,
    points_of,
    require_int,
)


class NotACover(IrtopoError):
    pass


class SubcoverNotFound(IrtopoError):
    """No member of the cover contains the given minimal-cover member."""


@dataclass(frozen=True, slots=True)
class CoverReport:
    """An optimal cover by deformable opens, with per-member witnesses."""

    sets: tuple[int, ...]
    witnesses: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class DimensionReport:
    """Covering dimension with certificates.

    ``worst_cover`` is an open cover whose best refinement order is
    maximal; ``refinement`` is that best refinement, of order dim + 1.
    The empty space has dimension -1 and no certificates.
    """

    dim: int
    worst_cover: tuple[int, ...] | None
    refinement: tuple[int, ...] | None


def ir_cat(space: FiniteSpace) -> CoverReport:
    """Exact covering category, with its unique optimal cover as certificate.

    The cover is the set of inclusion-maximal minimal neighborhoods, in
    canonical order; its witnesses lie inside their members, and no
    witness outside would give a smaller cover (see the module
    docstring).  Results depend only on the reach relation.
    """
    if space.n == 0:
        raise EmptySpace("covering category is undefined for the empty space")
    # y is maximal when its closure lies in U_y, and then every point of
    # U_y reaches exactly the closure of y, which is the witness of U_y
    witness = {m: row for m, row in zip(space.min_opens, space.reach_rows) if not row & ~m}
    cover = canon_sorted(witness)
    return CoverReport(cover, tuple(map(witness.__getitem__, cover)))


def _open_cover(space: FiniteSpace, cover: Iterable[int]) -> tuple[int, ...]:
    """The members of ``cover``; TypeError on a member that is not an int
    (a bool included), NotACover unless they are open and cover the space."""
    members = tuple(cover)
    full = space.full_mask
    union = 0
    for v in members:
        require_int("cover member", v)
        if v & ~full:
            # on a negative mask points_of raises ValueError, not NotACover
            raise NotACover(f"member {v:#b} has points outside the space")
        if not space.is_open(v):
            raise NotACover(f"member {points_of(v)} is not open")
        union |= v
    if union != full:
        raise NotACover("the given family does not cover the space")
    return members


def check_refinement(space: FiniteSpace, cover: Iterable[int]):
    """Whether the optimal cover refines ``cover``: every member of the
    optimal cover sits inside some member of ``cover``.

    Validates ``cover`` (NotACover unless its members are open and cover
    the space), then decides by ``refinement_mapping``.  Returns (True,
    mapping) with the first containing index per member, or (False,
    None).
    """
    members = _open_cover(space, cover)
    return refinement_mapping(ir_cat(space).sets, members)


def refinement_mapping(optimal: tuple[int, ...], members: tuple[int, ...]):
    """``check_refinement``'s decision, on the optimal cover of a space
    and the members of an open cover of it, neither validated: (True,
    mapping) with the index of the first member holding each optimal
    member, or (False, None).  ``members`` may be a tuple of masks or
    the ``bytes`` of a packed cover (one mask per byte)."""
    mapping = []
    for w in optimal:
        for j, v in enumerate(members):
            if w & ~v == 0:
                mapping.append(j)
                break
        else:
            return False, None
    return True, tuple(mapping)


def min_subcover(space: FiniteSpace, cover: Iterable[int]) -> tuple[int, ...]:
    """A subcover of ``cover`` with at most ir_cat(space) members.

    Validates ``cover`` (NotACover unless its members are open and cover
    the space), then chooses by ``greedy_subcover``.
    """
    members = _open_cover(space, cover)
    return greedy_subcover(ir_cat(space).sets, members)


def greedy_subcover(optimal: tuple[int, ...], members: tuple[int, ...]) -> tuple[int, ...]:
    """``min_subcover``'s choice, on the optimal cover of a space and the
    members of an open cover of it, neither validated; ``members`` may
    be a tuple of masks or the ``bytes`` of a packed cover.

    Each optimal member is mapped greedily to its largest container among
    ``members`` (the smallest mask among equals); the deduplicated
    containers already cover the space and are at most as many as the
    optimal members.  SubcoverNotFound signals an optimal member with no
    container, which would refute the refinement property.
    """
    chosen: list[int] = []
    for w in optimal:
        best = best_size = -1
        for v in members:
            if w & ~v == 0:
                size = v.bit_count()
                if size > best_size or size == best_size and v < best:
                    best, best_size = v, size
        if best_size < 0:
            raise SubcoverNotFound(
                f"no member of the cover contains {points_of(w)}"
            )
        if best not in chosen:
            chosen.append(best)
    return canon_sorted(chosen)


def irredundant_covers(space: FiniteSpace) -> Iterator[tuple[int, ...]]:
    """All irredundant open covers, in canonical depth-first order.

    Irredundant: every member is nonempty and essential (dropping it
    breaks coverage).  Every open cover contains an irredundant
    subcover, which is all the dimension and subcover sweeps need.

    Covers are listed in lexicographic order of their members' indices
    in ``open_sets``.  A member is essential exactly when it has a
    private point, one no other member covers.  Adding members only
    shrinks private sets, so every prefix (in index order) of an
    irredundant cover is itself a family whose members all have private
    points.  The search therefore takes a member only when it brings a
    new point and leaves every chosen member a private point; each
    family it completes is irredundant with no further check, and it
    reaches every irredundant cover.

    A node whose branch candidates, with its union, miss a point is dead,
    and pushes no branch.  Only those candidates can join any family
    below it: every later member comes from them, since a candidate that
    leaves some chosen member no private point keeps doing so as the
    private sets shrink, and one that brings no new point never brings
    one as the union grows.  So no family below the node covers the
    space, and the prune drops no cover and changes no order.

    The depth-first walk runs in one frame over an explicit stack of
    branches (next open, chosen, union, once); each node pushes its
    surviving branches in reverse, so the lowest open is explored first.
    """
    opens = [o for o in space.open_sets if o]
    full = space.full_mask
    count = len(opens)
    # once: the points covered by exactly one chosen member
    stack = [(0, (), 0, 0)]
    while stack:
        start, chosen, union, once = stack.pop()
        if union == full:
            yield chosen
            continue
        branches = []
        reach = union
        for i in range(start, count):
            c = opens[i]
            fresh = c & ~union
            if not fresh:
                continue
            rest = once & ~c
            if once & c:
                # c must leave every chosen member a private point
                for d in chosen:
                    if not d & rest:
                        break
                else:
                    branches.append((i + 1, chosen + (c,), union | c, rest | fresh))
                    reach |= c
                continue
            branches.append((i + 1, chosen + (c,), union | c, rest | fresh))
            reach |= c
        if reach == full:
            branches.reverse()
            stack += branches


def cover_order(cover: Iterable[int]) -> int:
    """Largest number of members sharing a single point."""
    counts = Counter(p for m in cover for p in points_of(m))
    return max(counts.values(), default=0)


def covering_dimension(space: FiniteSpace) -> DimensionReport:
    """Exact covering dimension: the order of the optimal deformable cover, minus 1.

    That cover is both the worst cover and its best refinement (see the
    module docstring).
    """
    if space.n == 0:
        return DimensionReport(-1, None, None)
    cover = ir_cat(space).sets
    return DimensionReport(cover_order(cover) - 1, cover, cover)
