"""Finite topological spaces over integer point sets.

Every finite topology is an Alexandrov topology: each point has a unique
smallest open neighborhood, so the whole space is captured by the
reachability relation

    reach(x, y)  <=>  y lies in the closure of {x}
                 <=>  x belongs to every open set containing y.

This module stores that relation as bitmask rows and derives open sets,
closure, interior, subspaces, products and the separation predicates
from it.

Bitmask conventions: a set of points is an int with bit ``i`` set for
point ``i``; ``reach_rows[x]`` has bit ``y`` set when reach(x, y) holds,
i.e. row ``x`` is the closure of ``{x}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator


class IrtopoError(Exception):
    """Base class for all errors raised by this package."""


class NotATopology(IrtopoError):
    """The given family of sets violates a topology axiom."""


class ReachNotPreorder(IrtopoError):
    """The given relation is not reflexive and transitive."""


class EmptySubspace(IrtopoError):
    """A subspace needs at least one point."""


class SearchBudgetExceeded(IrtopoError):
    """An exhaustive search would exceed its configured budget."""


class InvariantViolated(IrtopoError):
    """Two computations of the same quantity disagree: a defect in this package."""


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def iter_points(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def points_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_points(mask))


def canon_key(mask: int) -> tuple[int, int]:
    """Canonical sort key for point sets: cardinality, then bitmask value."""
    return (mask.bit_count(), mask)


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite space given by point labels and reach bitmask rows.

    Labels are presentation metadata only: two spaces compare equal when
    their reach rows agree, whatever the labels say.  Instances are
    immutable and safe to share; the validated constructors are
    :func:`from_open_sets` and :func:`from_reach`.
    """

    labels: tuple[str, ...]
    reach_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.reach_rows):
            raise ValueError("labels and reach rows must have the same length")

    def __eq__(self, other: object):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.reach_rows == other.reach_rows

    def __hash__(self) -> int:
        return hash(self.reach_rows)

    def __repr__(self) -> str:
        return f"FiniteSpace(n={self.n}, reach_rows={self.reach_rows!r})"

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def reach(self, x: int, y: int) -> bool:
        """True when y lies in the closure of {x}."""
        return bool(self.reach_rows[x] >> y & 1)

    def reach_pairs(self) -> list[tuple[int, int]]:
        """The non-reflexive reach pairs (x, y), ordered by x, then y."""
        return [
            (x, y) for x, row in enumerate(self.reach_rows) for y in iter_points(row) if x != y
        ]

    @cached_property
    def min_opens(self) -> tuple[int, ...]:
        """min_opens[y] is the smallest open set containing y (column y of reach)."""
        cols = [0] * self.n
        for x, row in enumerate(self.reach_rows):
            bit = 1 << x
            for y in iter_points(row):
                cols[y] |= bit
        return tuple(cols)

    @cached_property
    def open_sets(self) -> tuple[int, ...]:
        """All open sets: the unions of minimal neighborhoods, in canonical order."""
        opens = {0}
        for m in set(self.min_opens):
            opens |= {o | m for o in opens}
        return tuple(sorted(opens, key=canon_key))

    def is_open(self, mask: int) -> bool:
        return all(self.min_opens[y] & ~mask == 0 for y in iter_points(mask))

    def closure(self, aset: int) -> int:
        out = 0
        for x in iter_points(aset):
            out |= self.reach_rows[x]
        return out

    def interior(self, aset: int) -> int:
        """Largest open subset: the points whose minimal neighborhood fits inside."""
        return mask_of(y for y in iter_points(aset) if self.min_opens[y] & ~aset == 0)

    def subspace(self, aset: int) -> FiniteSpace:
        """The subspace on the points of ``aset``, reach restricted.

        This agrees with the relative topology {O & aset}; raises
        EmptySubspace when no points are selected.
        """
        aset &= self.full_mask
        if aset == 0:
            raise EmptySubspace("a subspace needs at least one point")
        pts = points_of(aset)
        index = {p: i for i, p in enumerate(pts)}
        rows = []
        for p in pts:
            row = 0
            for q in iter_points(self.reach_rows[p] & aset):
                row |= 1 << index[q]
            rows.append(row)
        return FiniteSpace(tuple(self.labels[p] for p in pts), tuple(rows))

    def is_t0(self) -> bool:
        """T0 holds exactly when reach is antisymmetric."""
        rows = self.reach_rows
        return not any(
            rows[x] >> y & 1 and rows[y] >> x & 1
            for x in range(self.n)
            for y in range(x + 1, self.n)
        )

    def is_t1(self) -> bool:
        """T1 holds exactly when reach is the identity relation."""
        return all(row == 1 << x for x, row in enumerate(self.reach_rows))

    def is_hyperconnected(self) -> bool:
        # Two disjoint nonempty opens exist iff two disjoint minimal
        # neighborhoods do, since every open is a union of minimal ones.
        return all(a & b for a, b in combinations(self.min_opens, 2))


def _as_mask(o, full: int) -> int:
    m = o if isinstance(o, int) else mask_of(o)
    if m & ~full:
        raise NotATopology(
            f"set {sorted(points_of(m))} uses point indices outside the space"
        )
    return m


def from_open_sets(labels: Iterable[str], opens: Iterable) -> FiniteSpace:
    """Build a space from an explicit list of open sets.

    The list must contain the empty set and the full point set and be
    closed under pairwise union and intersection (enough at finite
    scale); violations raise NotATopology with the witness pair rather
    than being repaired.  Duplicate entries collapse silently.  Each
    open may be given as an iterable of point indices or as a bitmask.
    """
    labels = tuple(labels)
    n = len(labels)
    full = (1 << n) - 1
    fam = sorted({_as_mask(o, full) for o in opens}, key=canon_key)
    famset = set(fam)
    if 0 not in famset:
        raise NotATopology("the empty set must be listed")
    if full not in famset:
        raise NotATopology("the full point set must be listed")
    for a, b in combinations(fam, 2):
        if a | b not in famset:
            raise NotATopology(
                f"union of {points_of(a)} and {points_of(b)} is missing"
            )
        if a & b not in famset:
            raise NotATopology(
                f"intersection of {points_of(a)} and {points_of(b)} is missing"
            )
    mo = []
    for y in range(n):
        acc = full
        for m in fam:
            if m >> y & 1:
                acc &= m
        mo.append(acc)
    rows = [0] * n
    for y in range(n):
        for x in iter_points(mo[y]):
            rows[x] |= 1 << y
    # Cross-check the two readings of reach: "x in every open containing y"
    # must give exactly the closure "complement of the opens avoiding x".
    for x in range(n):
        avoid = 0
        for m in fam:
            if not m >> x & 1:
                avoid |= m
        if rows[x] != full & ~avoid:
            raise InvariantViolated(
                f"closure of {labels[x]!r} disagrees between the two readings"
            )
    return FiniteSpace(labels, tuple(rows))


def from_reach(labels: Iterable[str], relation: Iterable) -> FiniteSpace:
    """Build a space from a reach relation given as rows of booleans or masks.

    The relation must already be reflexive and transitive; anything else
    raises ReachNotPreorder with a witness.
    """
    labels = tuple(labels)
    n = len(labels)
    full = (1 << n) - 1
    rows = []
    for r in relation:
        row = r if isinstance(r, int) else mask_of(y for y, v in enumerate(r) if v)
        if row & ~full:
            raise ValueError("relation row mentions points outside the space")
        rows.append(row)
    if len(rows) != n:
        raise ValueError("relation must have one row per label")
    for x in range(n):
        if not rows[x] >> x & 1:
            raise ReachNotPreorder(f"not reflexive at {labels[x]!r}")
    for x in range(n):
        for y in iter_points(rows[x]):
            extra = rows[y] & ~rows[x]
            if extra:
                z = next(iter_points(extra))
                raise ReachNotPreorder(
                    f"not transitive: {labels[x]!r}->{labels[y]!r} and "
                    f"{labels[y]!r}->{labels[z]!r} but not {labels[x]!r}->{labels[z]!r}"
                )
    return FiniteSpace(labels, tuple(rows))


def product(x: FiniteSpace, y: FiniteSpace) -> FiniteSpace:
    """Product space with componentwise reach; points in row-major (x, y) order.

    For finite spaces this componentwise relation generates exactly the
    product topology built from boxes of opens; the test suite verifies
    that identity exhaustively on small spaces.
    """
    ny = y.n
    labels = tuple(f"({a},{b})" for a in x.labels for b in y.labels)
    rows = []
    for rx in x.reach_rows:
        for ry in y.reach_rows:
            row = 0
            for xb in iter_points(rx):
                row |= ry << (xb * ny)
            rows.append(row)
    return FiniteSpace(labels, tuple(rows))
