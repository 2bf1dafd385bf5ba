"""Finite topological spaces over integer point sets.

Every finite topology is an Alexandrov topology: each point has a unique
smallest open neighborhood, so the whole space is captured by the
reachability relation

    reach(x, y)  <=>  y lies in the closure of {x}
                 <=>  x belongs to every open set containing y.

This module stores that relation as bitmask rows and derives open sets,
subspaces, products and the separation predicates from it.

Bitmask conventions: a set of points is an int with bit ``i`` set for
point ``i``; ``reach_rows[x]`` has bit ``y`` set when reach(x, y) holds,
i.e. row ``x`` is the closure of ``{x}``.  :func:`points_of` is the one
way to list the points of a mask, and :func:`mask_of` builds one: the
constructors take masks only, and ``spaceio`` is the one place JSON
index lists and index pairs become masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class IrtopoError(Exception):
    """Base class for all errors raised by this package."""


class NotATopology(IrtopoError):
    """The given family of sets violates a topology axiom."""


class ReachNotPreorder(IrtopoError):
    """The given relation is not reflexive and transitive."""


class EmptySpace(IrtopoError):
    """An operation that needs at least one point got none."""


class SearchBudgetExceeded(IrtopoError):
    """An exhaustive search would exceed its configured budget."""


# The count for a 16-point discrete space; at 26 points the list of open
# sets no longer fits in 2 GB.
OPEN_SET_LIMIT = 1 << 16


def _clip(text: str) -> str:
    """``text`` cut to 40 characters and marked "...", so that an error
    message never echoes a whole input."""
    return text if len(text) <= 40 else text[:40] + "..."


def clip_repr(value) -> str:
    """``repr(value)``, clipped (``_clip``)."""
    return _clip(repr(value))


def require_int(name: str, value) -> None:
    """TypeError naming ``name`` unless value is an int; a bool is refused,
    since it would pass as 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {clip_repr(value)}")


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _negative_mask(mask: int) -> ValueError:
    """The error for a negative mask, which names no finite point set.  The
    mask is shown in hex and clipped: ``str`` refuses an int of over 4300
    digits."""
    return ValueError(f"negative mask {_clip(hex(mask))} is not a point set")


# _BYTE_POINTS[k][b]: the points of byte value b placed as byte k of a mask.
_BYTE_POINTS = tuple(
    tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))
    for k in range(3)
)


def points_of(mask: int) -> tuple[int, ...]:
    """The points of ``mask`` as an ascending tuple; ValueError on a
    negative mask, which names no finite point set.  A mask below 2**24
    is read a byte at a time from a table, a larger one lowest bit first."""
    if 0 <= mask < 1 << 24:
        low, mid, high = _BYTE_POINTS
        return low[mask & 255] + mid[mask >> 8 & 255] + high[mask >> 16]
    if mask < 0:
        raise _negative_mask(mask)
    points = []
    while mask:
        low = mask & -mask
        points.append(low.bit_length() - 1)
        mask ^= low
    return tuple(points)


def canon_sorted(masks: Iterable[int]) -> tuple[int, ...]:
    """Point sets in canonical order: by cardinality, then by bitmask value."""
    return tuple(sorted(sorted(masks), key=int.bit_count))


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite space given by point labels and reach bitmask rows.

    Labels are presentation metadata only: two spaces compare equal when
    their reach rows agree, whatever the labels say.  Instances are
    immutable and safe to share; the validated constructors are
    :func:`from_open_sets` and :func:`from_reach`, which take masks.
    """

    # Slots, not a per-instance dict (a sweep block holds 1024 spaces): the fields, then n,
    # full_mask and the min_opens and open_sets caches, None until first read
    __slots__ = ("labels", "reach_rows", "n", "full_mask", "_min_opens", "_open_sets")
    labels: tuple[str, ...]
    reach_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n != len(self.reach_rows):
            raise ValueError("labels and reach rows must have the same length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "_min_opens", None)
        object.__setattr__(self, "_open_sets", None)

    # pickling: with no __dict__, the default would set each slot through the frozen __setattr__
    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.reach_rows == other.reach_rows

    def __hash__(self) -> int:
        return hash(self.reach_rows)

    def __repr__(self) -> str:
        return f"FiniteSpace(n={self.n}, reach_rows={self.reach_rows!r})"

    def reach(self, x: int, y: int) -> bool:
        """True when y lies in the closure of {x}."""
        return bool(self.reach_rows[x] >> y & 1)

    def labels_of(self, aset: int) -> list[str]:
        """The labels of the points of ``aset``, in ascending index order;
        ``aset`` is refused as :meth:`subspace` refuses it."""
        if type(aset) is not int or not 0 <= aset <= self.full_mask:
            self._check_mask(aset)
        return [self.labels[p] for p in points_of(aset)]

    def reach_pairs(self) -> list[tuple[int, int]]:
        """The non-reflexive reach pairs (x, y), ordered by x, then y."""
        return [
            (x, y) for x, row in enumerate(self.reach_rows) for y in points_of(row) if x != y
        ]

    @property
    def min_opens(self) -> tuple[int, ...]:
        """min_opens[y] is the smallest open set containing y (column y of reach)."""
        if self._min_opens is None:
            object.__setattr__(self, "_min_opens", transpose(self.reach_rows))
        return self._min_opens

    @property
    def open_sets(self) -> tuple[int, ...]:
        """The open sets, in canonical order; at most OPEN_SET_LIMIT.

        They are built point by point, in ascending mask order: the opens
        of the subspace on points 0..p are :func:`extend_opens` of those
        on 0..p-1.  One stable sort by size at the end makes the order
        canonical.  The budget is checked after each point; no subspace
        has more opens than the space, so it raises exactly when the
        space is over it.
        """
        if self._open_sets is None:
            opens = [0]
            min_opens = self.min_opens
            for p, row in enumerate(self.reach_rows):
                below = (1 << p) - 1
                opens = extend_opens(opens, row & below, min_opens[p] & below, 1 << p)
                if len(opens) > OPEN_SET_LIMIT:
                    raise SearchBudgetExceeded(f"over {OPEN_SET_LIMIT} open sets on {self.n} points")
            object.__setattr__(self, "_open_sets", tuple(sorted(opens, key=int.bit_count)))
        return self._open_sets

    def is_open(self, mask: int) -> bool:
        """Whether ``mask`` is an open set of this space; False for any
        mask with points outside it, negative masks included, and
        TypeError when it is not an int (a bool included)."""
        require_int("mask", mask)
        if mask & ~self.full_mask:
            return False
        min_opens = self.min_opens
        for y in points_of(mask):
            if min_opens[y] & ~mask:
                return False
        return True

    def common_reach(self, aset: int) -> int:
        """The points reachable from every point of ``aset``: the
        intersection of their closures, the whole space when ``aset`` is
        empty.  ``aset`` is refused as :meth:`subspace` refuses it."""
        # a sweep asks for it by the 100,000; a plain int in range skips the call
        if type(aset) is not int or not 0 <= aset <= self.full_mask:
            self._check_mask(aset)
        out = self.full_mask
        rows = self.reach_rows
        for x in points_of(aset):
            out &= rows[x]
        return out

    def closed_points(self) -> int:
        """The points x whose closure is {x}; in a spectrum, the maximal ideals."""
        return mask_of(x for x, row in enumerate(self.reach_rows) if row == 1 << x)

    def _check_mask(self, aset: int) -> None:
        """TypeError when ``aset`` is not an int (a bool included), and
        ValueError when it is negative or has points past the space."""
        require_int("aset", aset)
        if aset < 0:
            raise _negative_mask(aset)
        if aset > self.full_mask:
            raise ValueError(f"mask {_clip(hex(aset))} has points outside the space")

    def subspace(self, aset: int) -> FiniteSpace:
        """The subspace on the points of ``aset``, reach restricted.

        This agrees with the relative topology {O & aset}; raises
        EmptySpace when no points are selected, ValueError on a negative
        mask or one with points past the space, and TypeError when
        ``aset`` is not an int (a bool included).
        """
        self._check_mask(aset)
        if aset == 0:
            raise EmptySpace("a subspace needs at least one point")
        pts = points_of(aset)
        index = {p: i for i, p in enumerate(pts)}
        rows = []
        for p in pts:
            row = 0
            for q in points_of(self.reach_rows[p] & aset):
                row |= 1 << index[q]
            rows.append(row)
        return FiniteSpace(tuple(self.labels_of(aset)), tuple(rows))

    def is_t0(self) -> bool:
        """T0 holds exactly when reach is antisymmetric.

        In a preorder two points reach each other exactly when their
        closures agree, so this asks that no two rows are equal.
        """
        return len(set(self.reach_rows)) == self.n

    def is_t1(self) -> bool:
        """T1 holds exactly when every point is closed."""
        return self.closed_points() == self.full_mask

    def is_hyperconnected(self) -> bool:
        # All nonempty opens meet exactly when some point lies in every
        # minimal neighborhood, that is, when some point reaches every point.
        return not self.n or self.full_mask in self.reach_rows


def from_open_sets(labels: Iterable[str], opens: Iterable[int]) -> FiniteSpace:
    """Build a space from an explicit list of open sets, as masks.

    A finite topology is fixed by its minimal neighborhoods U_y: the list
    is one exactly when it holds the empty set, the full set and every
    U_y, and is closed under union with each U_y.  Both checks are linear
    in its length; violations raise NotATopology naming two listed sets
    whose union or intersection is missing, rather than being repaired.
    Duplicates collapse silently.  Each open is a mask (see
    :func:`mask_of`): a non-int, a bool included, raises TypeError, a
    negative one ValueError and one past the space NotATopology.
    """
    labels = tuple(labels)
    n = len(labels)
    full = (1 << n) - 1
    famset = set()
    for m in opens:
        require_int("open set", m)  # before hashing, which a list fails with a bare message
        if m < 0:
            raise _negative_mask(m)
        if m > full:
            raise NotATopology(f"open set {_clip(hex(m))} uses points outside the space")
        famset.add(m)
    fam = canon_sorted(famset)
    if 0 not in famset:
        raise NotATopology("the empty set must be listed")
    if full not in famset:
        raise NotATopology("the full point set must be listed")
    # Fold each U_y one member at a time, so every partial intersection
    # must itself be listed.
    mo = [full] * n
    for m in fam:
        for y in points_of(m):
            if mo[y] & m not in famset:
                raise NotATopology(
                    f"intersection of {points_of(mo[y])} and {points_of(m)} is missing"
                )
            mo[y] &= m
    for u in canon_sorted(set(mo)):
        for m in fam:
            if m | u not in famset:
                raise NotATopology(f"union of {points_of(m)} and {points_of(u)} is missing")
    return FiniteSpace(labels, transpose(mo))


def from_reach(labels: Iterable[str], relation: Iterable[int]) -> FiniteSpace:
    """Build a space from a reach relation given as mask rows.

    The relation must already be reflexive and transitive; anything else
    raises ReachNotPreorder with a witness.  Without one row per label it
    raises ValueError before reading a row, and a row that is not an int,
    a bool, list or tuple included, TypeError naming its label.
    """
    labels, rows = tuple(labels), tuple(relation)
    if len(rows) != len(labels):
        raise ValueError("relation must have one row per label")
    full = (1 << len(rows)) - 1
    for x, row in enumerate(rows):
        if not isinstance(row, int) or isinstance(row, bool):
            label, got = clip_repr(labels[x]), clip_repr(row)
            raise TypeError(f"reach row of {label} must be an int mask, got {got}")
        if row & ~full:
            raise ValueError("relation row mentions points outside the space")
        if not row >> x & 1:
            raise ReachNotPreorder(f"not reflexive at {clip_repr(labels[x])}")
    for x, row in enumerate(rows):
        for y in points_of(row):
            extra = rows[y] & ~row
            if extra:
                z = points_of(extra)[0]
                lx, ly, lz = (clip_repr(labels[i]) for i in (x, y, z))
                raise ReachNotPreorder(
                    f"not transitive: {lx}->{ly} and {ly}->{lz} but not {lx}->{lz}"
                )
    return FiniteSpace(labels, rows)


def extend_opens(opens: Sequence[int], out: int, inc: int, bit: int) -> list[int]:
    """The open sets of a space with a new point ``bit``, from ``opens``,
    those of the space without it.

    ``out`` holds the old points the new one reaches and ``inc`` those
    that reach it.  An open without the new point must miss ``out``, whose
    minimal neighborhoods now hold it; an open O with it needs O open in
    the old space and holding ``inc``.  Those without come first, then
    those with it, each in the order of ``opens``.  ``bit`` is above
    every old point, so the result is in ascending mask order when
    ``opens`` is.
    """
    return [o for o in opens if not o & out] + [o | bit for o in opens if not inc & ~o]


def extensions(space: FiniteSpace) -> Iterator[FiniteSpace]:
    """Every space on the points of ``space`` plus a new last point p,
    labelled by the least ``str(k)``, k >= ``space.n``, that ``space`` does
    not use.  A child holds its labels and reach rows only: its opens,
    and the budget on them, come from ``open_sets`` when first read.

    p is reached from the points I and reaches the points O.  The child
    is a preorder exactly when I is open, O is closed and O lies in
    ``space.common_reach(I)`` (x -> p -> y forces x -> y), so the
    children are read off the opens and their complements (Brinkmann &
    McKay, "Posets on up to 16 points", Order 2002): I runs over
    ``space.open_sets`` and, for each I, O over their complements, in order.
    """
    n, bit = space.n, 1 << space.n
    # n labels leave one of the n + 1 candidates free
    fresh = next(str(k) for k in range(n, 2 * n + 1) if str(k) not in space.labels)
    labels = space.labels + (fresh,)
    opens = space.open_sets
    closed = [space.full_mask ^ o for o in opens]
    for inc in opens:
        head = tuple(row | bit if inc >> x & 1 else row for x, row in enumerate(space.reach_rows))
        allowed = space.common_reach(inc)
        for out in closed:
            if not out & ~allowed:
                yield FiniteSpace(labels, head + (out | bit,))


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The converse of a relation on len(rows) points, as bitmask rows."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        bit = 1 << x
        for y in points_of(row):
            cols[y] |= bit
    return tuple(cols)


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
            for xb in points_of(rx):
                row |= ry << (xb * ny)
            rows.append(row)
    return FiniteSpace(labels, tuple(rows))
