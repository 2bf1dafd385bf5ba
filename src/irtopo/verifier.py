"""Exhaustive enumeration of finite spaces and machine checks of the
package's structural claims.

Every finite topology on labelled points corresponds to a reflexive,
transitive relation, so sweeping all spaces of a given size means
enumerating all preorders (counts 1, 4, 29, 355, 6942, 209527 for 1..6
points).  Each claim is a registry row under a stable identifier: an
instance family and a check that maps one instance to a counterexample
payload or None.  One driver sweeps every family and reports the
instances examined plus any counterexamples, serialized so they can be
replayed through the CLI.

Claim categories:

* asserted -- expected to hold; a counterexample is a failure.
* known_false -- expected to fail; the counterexample is the point
  (currently L2_literal: covers can always be padded where spare open
  sets exist).
* experimental -- measured, not presumed (T9_product and the
  subspace-vs-ambient witness comparison); either verdict is reported
  without gating the exit status.

Exhaustive searches that production code replaced by closed forms are
kept here as oracles (``_cover_search``, ``_dimension_search``), so the
claims that use them check their statements by brute force.
``_cover_search`` answers in both witness senses from one listing of
the deformable opens: a witness inside its set is the ambient witness
cut down to the set.  Every oracle reads neighbourhoods through one
derivation, ``_meets``, from the open sets; none reads ``min_opens``
or ``common_reach``, and ``reach_rows`` only hash a space.  The
irredundant covers that L1, L2_subcover, C5 and T13 sweep are read in
one form, packed ``bytes`` (``_packed_covers``), and are open covers by
construction, so L1 and L2_subcover call the decisions
``category.refinement_mapping`` and ``category.greedy_subcover``, which
validate nothing; C8 and the unit tests call the validating entries
``check_refinement`` and ``min_subcover``.

Logic that only one claim needs lives in that claim's check, and a
corollary that is an instance of another claim reuses that claim's
check (C1 is T1 on the closed unit interval, C2 is C3 on the two-point
chain).

Reports are deterministic given (claim, size limits, seed) and
independent of the worker count: instances are indexed before sharding,
each shard returns its first counterexamples and they merge by index.
Timing is kept out of the JSON form so reports compare byte for byte.
``run_claim`` runs in the calling process, and only ``run_suite`` starts
a pool, and only then imports it: with k workers it gets k tasks, task i
running shard i of every claim.  Both run ``_run_shard``, where each
claim runs one pass: the sweep claims over the shard's classes, built
once before any pass, and every other claim over its own family.  What the
checks share (``_meets``, ``_closure_rows``, ``_packed_covers``,
``_ir_cat`` per space, ``_theorem8`` per spectrum) lives in a ``_memo``
until the shard ends, so no space or memo outlives its shard, and a
worker works it out for its own shard only: an instance family yields
only what defines its instances.

A class sweep checks each homeomorphism class (``_classes``) on its
canonical member: every swept statement is topological, so a relabelling
keeps its verdict, and a class counts its orbit size, tested or failing.
T8's one pass reads the T0 classes alike, and a pair claim's the ordered
pairs of classes, weighted by the product of the orbit sizes, since its
statement is topological in each factor (``_WEIGHTED``).  After the merge
a failing claim reports the first counterexamples of its check over its
labelled family (``instances``); ``elapsed`` holds both passes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator

from . import category, homotopy, intervals, spaceio, spectra
from .core import (
    FiniteSpace,
    IrtopoError,
    SearchBudgetExceeded,
    canon_sorted,
    clip_repr,
    extensions,
    from_open_sets,
    mask_of,
    points_of,
    product,
    require_int,
    transpose,
)

MAX_ENUM_POINTS = 6
MAX_PAIR_POINTS = 4
MAX_REPORTED_COUNTEREXAMPLES = 10
_T8_MODULUS_LIMIT = 5000
_DIM_SWEEP_CAP = 4


class UnknownClaim(IrtopoError):
    pass


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _space_table(n: int) -> bytes:
    """The spaces on n >= 1 points as their reach rows, sorted, a byte per
    row (MAX_ENUM_POINTS is at most 8), built once per process: the rows
    of the children (``core.extensions``) of the spaces on n - 1 points."""
    parents = enumerate_spaces(n - 1) if n > 1 else [FiniteSpace((), ())]
    return b"".join(sorted(bytes(c) for s in parents for c in extensions(s)))


@lru_cache(maxsize=None)
def _cell_moves(cells: tuple[int, ...]) -> tuple:
    """The relabellings that permute points only within runs of ``cells[0]``,
    ``cells[1]``, ... points (none when no run holds two), as (image, move):
    ``rows.translate(image)`` maps each row, ``move`` reads each point's."""
    n = sum(cells)
    runs = [range(k - size, k) for k, size in zip(itertools.accumulate(cells), cells)]
    moves = []
    for parts in itertools.product(*map(itertools.permutations, runs)) if n > len(cells) else ():
        perm, image = sum(parts, ()), [0]
        for p in perm:  # the masks with point p are those without it, plus p's image
            image += [m | 1 << p for m in image]
        move = operator.itemgetter(*sorted(range(n), key=perm.__getitem__))
        moves.append((bytes(image).ljust(256, b"\0"), move))
    return tuple(moves)


def _canonical(rows: tuple[int, ...]) -> tuple[bytes, int]:
    """A canonical form of the space with these reach rows (at most 8 points)
    and |Aut|: the points sorted by colour, (row size, column size), and the
    least byte image over the relabellings that permute only within equal
    colours (McKay, "Practical graph isomorphism", 1981); every automorphism
    keeps colours, so |Aut| is the number of them that reach it."""
    colour = [(r.bit_count(), c.bit_count()) for r, c in zip(rows, transpose(rows))]
    order = sorted(range(len(rows)), key=colour.__getitem__)
    bits = [1 << j for j in sorted(range(len(rows)), key=order.__getitem__)]  # x's place, as a mask
    ranked = bytes(sum(map(bits.__getitem__, points_of(rows[x]))) for x in order)
    moves = _cell_moves(tuple(len(list(run)) for _, run in itertools.groupby(order, colour.__getitem__)))
    images = [move(ranked.translate(image)) for image, move in moves] or [ranked]
    return bytes(least := min(images)), images.count(least)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[bytes, int], ...]:
    """The classes of the spaces on n >= 1 points as (canonical rows, orbit
    size n!/|Aut|), in order of their rows, built once per process: every
    space on n points, relabelled so that a point of largest closure comes
    last, is a child (``core.extensions``) of its restriction's class
    representative, so those children of the classes on n - 1 points, told
    apart by ``_canonical``, meet every class."""
    smaller = _classes(n - 1) if n > 1 else [(b"", 1)]  # the empty space's one class
    parents = [FiniteSpace(_labels(n - 1), tuple(rows)) for rows, _ in smaller]
    children = (c for s in parents for c in extensions(s) if c[-1].bit_count() == max(map(int.bit_count, c)))
    found = sorted(dict(map(_canonical, children)).items())
    return tuple((rows, math.factorial(n) // aut) for rows, aut in found)


@lru_cache(maxsize=None)
def _labels(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(n)))


def enumerate_spaces(n: int) -> Iterator[FiniteSpace]:
    """Every finite space on exactly n labelled points, once, in canonical
    order (ascending reach-row tuples), labelled "0" to ``str(n - 1)``.

    Each call yields new spaces, read off ``_space_table(n)``, which holds
    their rows only.  An n that is not an int raises TypeError, and one
    outside 1..MAX_ENUM_POINTS SearchBudgetExceeded, at the call.
    """
    require_int("n", n)
    if not 1 <= n <= MAX_ENUM_POINTS:
        raise SearchBudgetExceeded(
            f"enumeration supports 1..{MAX_ENUM_POINTS} points, got {n}"
        )
    table, labels = _space_table(n), _labels(n)
    return (FiniteSpace(labels, tuple(table[k:k + n])) for k in range(0, len(table), n))


def topologies_by_open_families(n: int) -> set[tuple[int, ...]]:
    """Reach-row tuples of every topology found by the open-family recount.

    An n that is not an int raises TypeError, and one outside 1..4
    SearchBudgetExceeded, as :func:`enumerate_spaces` does.
    """
    require_int("n", n)
    if not 1 <= n <= 4:
        raise SearchBudgetExceeded("open-family recount supports 1..4 points")
    full = (1 << n) - 1
    proper = [m for m in range(1, full)]
    found = set()
    labels = _labels(n)
    for sel in range(1 << len(proper)):
        fam = {0, full, *(proper[i] for i in points_of(sel))}
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            found.add(from_open_sets(labels, fam).reach_rows)
    return found


# ---------------------------------------------------------------------------
# independent homotopy oracle


def _rows(mask: int, ny: int) -> int:
    """One bit per point p of ``mask``, at the first product point of row
    p; as a mask m of the second factor is below 2**ny, rows * m is the
    box ``mask`` x m over row-major product points."""
    rows = 0
    for p in points_of(mask):
        rows |= 1 << (p * ny)
    return rows


def box_topology(x: FiniteSpace, y: FiniteSpace) -> frozenset[int]:
    """The boxes O x P of opens of x and of y, as masks over row-major
    product points: closed under intersection, with the empty and the full
    set, so a basis of the product topology, whose opens are not listed."""
    y_opens = y.open_sets
    boxes = set()
    for ox in x.open_sets:
        rows = _rows(ox, y.n)
        boxes.update([rows * oy for oy in y_opens])
    return frozenset(boxes)


# the table of every memo, emptied when a shard or a labelled block ends
_MEMOS: list[dict] = []


def _memo(compute: Callable) -> Callable:
    """``compute(key)`` kept by its one argument in a plain dict (no link
    node per entry, as an ``lru_cache`` has) until ``_MEMOS`` is emptied."""
    table: dict = {}
    _MEMOS.append(table)

    @functools.wraps(compute)
    def memo(key):
        value = table.get(key)
        if value is None:
            value = table[key] = compute(key)
        return value

    return memo


@_memo
def _meets(space: FiniteSpace) -> list[int]:
    """meets[p]: the intersection of the open sets holding p, read from
    ``open_sets`` alone; the one neighbourhood derivation of the oracles.
    The opens are closed under intersection, so that meet is the smallest
    open holding p, and in canonical order (by size) the first one."""
    meets = [0] * space.n
    todo = space.full_mask
    for o in space.open_sets:
        fresh = o & todo
        if fresh:
            todo ^= fresh
            for p in points_of(fresh):
                meets[p] = o
            if not todo:
                break
    return meets


# the finite model of the one-way unit interval: bottom open, top not
_TWO_POINT_CHAIN = intervals.chain_space(2)
_CHAIN_MEETS = tuple(_meets.__wrapped__(_TWO_POINT_CHAIN))  # no memo entry at import


def _smallest_boxes(x: FiniteSpace) -> list[int]:
    """The smallest box of ``box_topology(x, _TWO_POINT_CHAIN)`` holding
    each product point, 2p being (p, bottom) and 2p + 1 (p, top).

    A box O x P holds (p, t) exactly when O holds p and P holds t, so the
    meet of those boxes is the meet of the opens holding p times the meet
    of those holding t; the boxes themselves are never listed.
    """
    spread = [_rows(m, 2) for m in _meets(x)]
    return [r * c for r in spread for c in _CHAIN_MEETS]


def chain_homotopy_oracle(x: FiniteSpace, y: FiniteSpace, f, targets) -> int:
    """Brute-force decision of "f deforms to g" over the two-point chain,
    for each map g in ``targets``.

    Returns a mask whose bit j is set when f deforms to ``targets[j]``:
    when H on the product of x with the two-point chain, H(., bottom) = f
    and H(., top) = g, is continuous, where the product carries the
    box-generated topology: every preimage of an open of y must be the
    union of the boxes inside it.  This is independent of the pointwise
    reach criterion used by homotopy.ir_homotopic, and decides the same
    question as a deformation over the one-way unit interval: a
    two-stage deformation lifts through the collapse t < 1 -> bottom,
    t = 1 -> top, and conversely every interval deformation restricts to
    its two stages.  The boundary conditions pin every product point, so
    H is the only candidate.

    The boxes are closed under intersection and hold the full set, so
    each product point lies in a smallest box, the meet of the boxes
    holding it (``_smallest_boxes``, once per call); a set is the union
    of the boxes inside it exactly when it holds the smallest box of
    each of its points.  Only the open sets are read, never reach.
    """
    nx, ny = x.n, y.n
    targets = list(targets)
    for g in (f, *targets):
        # a bare map passed as targets would be a list of ints here
        if not isinstance(g, (tuple, list)):
            raise TypeError(f"boundary maps must be sequences of points, got {g!r}")
        if len(g) != nx:
            raise ValueError("boundary maps must assign every point of the domain")
        if not all(type(v) is int and 0 <= v < ny for v in g):
            raise ValueError(f"boundary map {tuple(g)} has values outside the codomain")
    smallest = _smallest_boxes(x)
    # fibers[q]: the product points H sends to q; boxes[q]: the union of
    # their smallest boxes; the bottom row's share is the same for every g
    f_fibers = [0] * ny
    f_boxes = [0] * ny
    for p, q in enumerate(f):
        f_fibers[q] |= 1 << (2 * p)
        f_boxes[q] |= smallest[2 * p]
    found = 0
    for j, g in enumerate(targets):
        fibers = f_fibers[:]
        boxes = f_boxes[:]
        for p, q in enumerate(g):
            fibers[q] |= 1 << (2 * p + 1)
            boxes[q] |= smallest[2 * p + 1]
        for v in y.open_sets:
            pre = need = 0
            for q in points_of(v):
                pre |= fibers[q]
                need |= boxes[q]
            if need & ~pre:
                break
        else:
            found |= 1 << j
    return found


# ---------------------------------------------------------------------------
# exhaustive covering oracles


# the most labelled spaces a failing claim's counterexample pass builds
# at once (``_report_labelled``), and so holds in the memos
_BLOCK = 1024

@_memo
def _ir_cat(space: FiniteSpace) -> category.CoverReport:
    """``category.ir_cat``, worked out once per space in a shard."""
    return category.ir_cat(space)


@_memo
def _packed_covers(space: FiniteSpace) -> bytes:
    """``category.irredundant_covers(space)`` packed: one byte per member
    mask, a zero byte between covers.

    No member is empty, so the zero byte only separates.  ``bytes``
    raises ValueError on a mask of 256 or more, so only spaces of at
    most 8 points are packed; the swept spaces have at most 6.
    """
    return b"\0".join(map(bytes, category.irredundant_covers(space)))


@_memo
def _closure_rows(space: FiniteSpace) -> bytes:
    """The closure of each point of a space of at most 8 points: row x
    holds the y with x in meets[y].  T2, T3, T4, P4 and C9 read one copy."""
    cols = [0] * space.n
    for y, meet in enumerate(_meets(space)):
        for x in points_of(meet):
            cols[x] |= 1 << y
    return bytes(cols)


def _deformable_opens(space: FiniteSpace) -> dict[int, int]:
    """Each nonempty open set o with a nonempty ambient witness, the
    points w reachable from all of it (o lies in meets[w]), mapped to
    that witness, in ``open_sets`` order."""
    meets = _meets(space)
    out = {}
    for o in space.open_sets[1:]:  # past the empty open, first in canonical order
        w = 0
        for p, meet in enumerate(meets):
            if not o & ~meet:
                w |= 1 << p
        if w:
            out[o] = w
    return out


def _minimum_cover(universe: int, candidates: tuple[int, ...]) -> tuple[int, ...]:
    """Exact minimum set cover: the first covering family of the smallest
    size, in ``itertools.combinations`` order, returned in canonical order
    (``canon_sorted``); so a tie goes to the first optimum in candidate
    order.  Exponential in the number of candidates, which spaces of at
    most 5 points (9 for products) keep small.  NotACover at once when the candidates miss a point."""
    if universe & ~reduce(operator.or_, candidates, 0):
        raise category.NotACover("candidate sets do not cover the space")
    for size in itertools.count():
        for family in itertools.combinations(candidates, size):
            if not universe & ~reduce(operator.or_, family, 0):
                return canon_sorted(family)


def _cover_search(
    space: FiniteSpace,
) -> tuple[category.CoverReport, category.CoverReport]:
    """Covering category by exact set cover over every deformable open, as
    the (subspace, ambient) reports: a subspace witness must lie in its
    set, so it is the ambient witness w cut down to the set o, w & o."""
    ambient = _deformable_opens(space)
    subspace = {o: w & o for o, w in ambient.items() if w & o}
    reports = []
    for witness in (subspace, ambient):
        cover = _minimum_cover(space.full_mask, tuple(witness))
        reports.append(category.CoverReport(cover, tuple(map(witness.get, cover))))
    return tuple(reports)


def _dimension_search(space: FiniteSpace) -> category.DimensionReport:
    """Covering dimension by sweeping every irredundant cover for its best
    irredundant refinement.

    Restricting both sweeps to irredundant covers suffices: every cover
    contains an irredundant subcover, refining the subcover refines the
    cover, and dropping redundant members of a refinement never raises
    its order.  The sweeps read the packed covers; only the two
    certificates returned are decoded, to tuples of masks.
    """
    covers = _packed_covers(space).split(b"\0")
    # bitsets over masks: below[v] holds the subsets of v, from those of v less
    # its lowest point, and r refines c when each member of r is below a member of c
    below = [1]
    for v in range(1, space.full_mask + 1):
        rest = below[v & (v - 1)]
        below.append(rest | rest << (v & -v))
    refinements = [(r, mask_of(r), category.cover_order(r)) for r in covers]
    worst_cover = worst_refinement = None
    worst_order = 0
    for c in covers:
        inside = reduce(operator.or_, map(below.__getitem__, c))
        # c refines itself, so best_order is set
        best_order = best_ref = None
        for r, members, order in refinements:
            if not members & ~inside and (best_order is None or order < best_order):
                best_order, best_ref = order, r
        if best_order > worst_order:
            worst_cover, worst_order, worst_refinement = tuple(c), best_order, tuple(best_ref)
    return category.DimensionReport(worst_order - 1, worst_cover, worst_refinement)


# ---------------------------------------------------------------------------
# claim framework


@dataclass
class ClaimReport:
    claim: str
    category: str
    description: str
    instances_tested: int
    passed: bool
    counterexamples: list[dict]
    counterexample_count: int
    # seconds: the claim's pass, plus the labelled counterexample pass of a
    # failing claim over classes; above one job, the slowest shard's, timed in its worker
    elapsed: float

    def to_jsonable(self) -> dict:
        # elapsed deliberately omitted: reports must be byte-stable
        return {
            "claim": self.claim,
            "category": self.category,
            "description": self.description,
            "instances_tested": self.instances_tested,
            "passed": self.passed,
            "counterexample_count": self.counterexample_count,
            "counterexamples_truncated": self.counterexample_count
            > len(self.counterexamples),
            "counterexamples": self.counterexamples,
        }


def _spaces_upto(n_max: int) -> Iterator[FiniteSpace]:
    for n in range(1, n_max + 1):
        yield from enumerate_spaces(n)


# ---------------------------------------------------------------------------
# instance families: each maps (n_max, pair_max, seed) to the instances,
# in a fixed order that indexes them for sharding


def _spaces(n_max: int, pair_max: int, seed: int) -> Iterator[FiniteSpace]:
    return _spaces_upto(n_max)


def _pairs(n_max: int, pair_max: int, seed: int) -> Iterable[tuple[FiniteSpace, FiniteSpace]]:
    return itertools.product(list(_spaces_upto(pair_max)), repeat=2)


def _dim_spaces(n_max: int, pair_max: int, seed: int) -> Iterator[FiniteSpace]:
    return _spaces_upto(min(n_max, _DIM_SWEEP_CAP))


def _fixed(*instances) -> Callable:
    return lambda n_max, pair_max, seed: instances


# the endpoints of the unit interval, for the symbolic rows of T1 and C1
_UNIT = (Fraction(0), Fraction(1))


def _t1_instances(n_max: int, pair_max: int, seed: int) -> list:
    rng = random.Random(seed)
    instances: list = []
    for _ in range(100):
        size = rng.randint(1, 8)
        vals = set()
        while len(vals) < size:
            vals.add(Fraction(rng.randint(-120, 120), rng.randint(1, 24)))
        instances.append(("finite", tuple(sorted(vals))))
    return instances + [("open", _UNIT), ("closed", _UNIT)]


def _t8_instances(n_max: int, pair_max: int, seed: int) -> Iterator[tuple]:
    for s in _spaces_upto(n_max):
        if s.is_t0():  # the spectrum of its poset of points, as it stands
            yield "poset", s
    for m in range(2, _T8_MODULUS_LIMIT + 1):
        yield "zn", m


def _members(n_max: int) -> Iterator[tuple[int, FiniteSpace]]:
    """The canonical member of each class of at most n_max points, with its orbit size."""
    for n in range(1, n_max + 1):
        yield from ((w, FiniteSpace(_labels(n), tuple(rows))) for rows, w in _classes(n))


def _t8_classes(n_max: int, pair_max: int, seed: int) -> Iterator[tuple]:
    """``_t8_instances`` weighted: each T0 class's first member with its orbit
    size (T0 is topological, as T8's check is), then each modulus, weight 1."""
    yield from ((w, ("poset", s)) for w, s in _members(n_max) if s.is_t0())
    yield from ((1, ("zn", m)) for m in range(2, _T8_MODULUS_LIMIT + 1))


def _pair_classes(n_max: int, pair_max: int, seed: int) -> Iterator[tuple]:
    """``_pairs`` weighted: each ordered pair of first class members of at most
    pair_max points with the product of their orbit sizes, its number of labelled
    pairs, which a pair claim decides alike, being topological in each factor."""
    for (wa, a), (wb, b) in itertools.product(_members(pair_max), repeat=2):
        yield wa * wb, (a, b)


def _t10_batches(n_max: int, pair_max: int, seed: int) -> list:
    rng = random.Random(seed)
    batches = []
    for _ in range(100):
        arity = rng.randint(1, 3)
        count = rng.randint(1, 6)
        pts = set()
        while len(pts) < count:
            pts.add(
                tuple(
                    Fraction(rng.randint(0, 12), rng.randint(1, 12))
                    for _ in range(arity)
                )
            )
        pts = sorted(pts)
        top = tuple(max(p[i] for p in pts) for i in range(arity))
        if top not in pts:
            pts.append(top)
        batches.append(pts)
    return batches


def _p1_instances(n_max: int, pair_max: int, seed: int) -> Iterator[tuple]:
    getrandbits = random.Random(seed).getrandbits
    # table[q][p] is Fraction(p, q): every value drawn, built on first use
    table = [()] + [[Fraction(p, q) for p in range(q + 1)] for q in range(1, 51)]

    def below(n):  # randint's own draw below n: n.bit_length() random bits until one is
        while (r := getrandbits(n.bit_length())) >= n:
            pass
        return r

    def unit():
        den = below(50) + 1
        return table[den][below(den + 1)]

    for _ in range(10000):
        yield unit(), unit(), unit(), table[50][below(50) + 1]


def _p2_instances(n_max: int, pair_max: int, seed: int) -> list:
    instances = []
    for k in range(1, 8):
        chain = intervals.chain_space(k)
        for m in range(1, 1 << k):
            instances.append((chain, m))
    return instances


_PRIMES_25 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


# ---------------------------------------------------------------------------
# checks: each maps one instance to a counterexample payload, or None


def _check_t1(inst):
    """A finite set: on its 1-D grid subspace the whole set is the only
    open holding the greatest point, so every open cover has a one-member
    subcover.  The intervals (lo, hi) are definitional rows: "closed"
    [lo, hi] has greatest element hi, and "open" [lo, hi) has none, its
    left rays (-oo, a) covering it with no finite subfamily."""
    kind, payload = inst
    fmt = intervals.format_fraction
    if kind == "finite":
        space = intervals.grid_subspace((v,) for v in payload)
        if space.min_opens[payload.index(max(payload))] != space.full_mask:
            return {"kind": kind, "values": [fmt(v) for v in payload]}
        return None
    lo, hi = payload
    if not lo < hi:
        return {"kind": kind, "interval": [fmt(lo), fmt(hi)]}
    return None


def _pair_payload(s: FiniteSpace, x: int, y: int, **extra) -> dict:
    """A counterexample at the points x and y of s, with extra fields."""
    return {"space": s, "from": s.labels[x], "to": s.labels[y], **extra}


def _check_t2(s):
    ir_path = homotopy.ir_path
    for x, cl in enumerate(_closure_rows(s)):
        for y in range(s.n):
            has_path = ir_path(s, x, y)
            if has_path != (cl >> y & 1):  # True == 1 and False == 0
                return _pair_payload(
                    s, x, y, path_exists=has_path, in_closure=bool(cl >> y & 1)
                )
    return None


def _check_t3(s):
    for x, cl in enumerate(_closure_rows(s)):
        # the image {x, y} leaves cl exactly at the y outside it, when x is in it
        outside = s.full_mask & ~cl if cl >> x & 1 else s.full_mask
        for y in points_of(outside):
            if homotopy.ir_path(s, x, y):
                return _pair_payload(s, x, y)
    return None


def _check_t4(s):
    if any(cl != 1 << x for x, cl in enumerate(_closure_rows(s))):
        return None  # not T1
    for x in range(s.n):
        for y in range(s.n):
            if x != y and homotopy.ir_path(s, x, y):
                return _pair_payload(s, x, y)
    return None


def _check_t5(pair):
    dom, cod = pair
    if not cod.is_t1():
        return None
    maps = homotopy.continuous_maps(dom, cod)
    for f in maps:
        for g in maps:
            if homotopy.ir_homotopic(f, g) and f.assignment != g.assignment:
                return {
                    "domain": dom,
                    "codomain": cod,
                    "f": list(f.assignment),
                    "g": list(g.assignment),
                }
    return None


def _check_t6(s):
    co = homotopy.ir_co(s)
    identity = tuple(range(s.n))
    constants = [(x0,) * s.n for x0 in range(s.n)]
    # bit x0 of the mask: the identity deforms to the constant map at x0
    oracle_co = chain_homotopy_oracle(s, s, identity, constants)
    if oracle_co != co:
        return {
            "space": s,
            "pointwise_core": s.labels_of(co),
            "oracle_core": s.labels_of(oracle_co),
        }
    return None


def _check_t7(pair):
    a, b = pair
    if homotopy.ir_co(product(a, b)) != _rows(homotopy.ir_co(a), b.n) * homotopy.ir_co(b):
        return {"left": a, "right": b}
    return None


@_memo
def _theorem8(space: FiniteSpace) -> tuple[bool, category.CoverReport]:
    """``spectra.check_theorem8`` once per distinct spectrum in a shard: it reads reach alone."""
    return spectra.check_theorem8(space)


def _check_t8(inst):
    kind, payload = inst
    sp = payload if kind == "poset" else spectra.spec_zn(payload)
    ok, rep = _theorem8(sp)
    if not ok:
        return {
            "kind": kind,
            "instance": sp,
            "maximal_count": sp.closed_points().bit_count(),
            "category": rep.size,
        }
    return None


def _check_t9(pair):
    a, b = pair
    prod = product(a, b)
    lhs = category.ir_cat(prod).size
    rhs = _ir_cat(a).size * _ir_cat(b).size
    if lhs != rhs:
        return {"left": a, "right": b, "product_cat": lhs, "factor_product": rhs}
    return None


def _check_t10(pts):
    top = tuple(map(max, zip(*pts)))
    core = homotopy.ir_co(intervals.grid_subspace(pts))
    if top not in pts or core != 1 << pts.index(top):
        return {
            "points": [
                [intervals.format_fraction(c) for c in p] for p in pts
            ]
        }
    return None


def _check_t11(s):
    if not s.is_t0():
        return None
    # a pair reaching both ways holds a reach pair; the condition is
    # symmetric, so a full loop over (x, y) would name it with x < y
    for x, y in s.reach_pairs():
        if s.reach(y, x):
            return _pair_payload(s, min(x, y), max(x, y))
    return None


def _check_t12(s):
    co = homotopy.ir_co(s)
    if s.is_t0() and co and co.bit_count() != 1:
        return {"space": s, "core": s.labels_of(co)}
    return None


def _check_t13(s):
    dim_rep = _dimension_search(s)
    cat_rep = _cover_search(s)[0]
    if dim_rep.dim + 1 > cat_rep.size:
        return {
            "space": s,
            "dim": dim_rep.dim,
            "cat": cat_rep.size,
        }
    return None


def _equivalence_payload(a: FiniteSpace, b: FiniteSpace, **extra):
    """A T14/T15 payload: extra plus the maps of an ir-homotopy equivalence
    between a and b, or None when there is none."""
    eq = homotopy.ir_homotopy_equivalent(a, b)
    if eq is None:
        return None
    f, g = eq
    return {"left": a, "right": b, "f": list(f.assignment), "g": list(g.assignment), **extra}


def _check_t14(pair):
    a, b = pair
    if homotopy.ir_co(a) and not homotopy.ir_co(b):
        return _equivalence_payload(a, b)
    return None


def _check_t15(pair):
    a, b = pair
    ca, cb = _ir_cat(a).size, _ir_cat(b).size
    if ca != cb:
        return _equivalence_payload(a, b, cat_left=ca, cat_right=cb)
    return None


def _check_p1(inst):
    x, y, z, eps = inst
    d = intervals.d_ir
    fmt = intervals.format_fraction
    if d(x, x) != 0:
        return {"axiom": "identity", "x": fmt(x)}
    dxy = d(x, y)
    # d(x, z) > d(x, y) + d(y, z) as a/b > c/e + g/h, over positive denominators
    (a, b), (c, e), (g, h) = d(x, z).as_integer_ratio(), dxy.as_integer_ratio(), d(y, z).as_integer_ratio()
    if a * e * h > (c * h + g * e) * b:
        return {"axiom": "triangle", "x": fmt(x), "y": fmt(y), "z": fmt(z)}
    if dxy == 0 == d(y, x) and x != y:
        return {"axiom": "separation", "x": fmt(x), "y": fmt(y)}
    b = intervals.ball(x, eps)
    # the Fraction operators, not the hand arithmetic of ball, set the endpoint
    hi = x + eps
    if b.whole_space:
        if hi <= 1:
            return {"axiom": "ball-clip", "x": fmt(x), "eps": fmt(eps)}
    elif b.hi != hi:
        return {"axiom": "ball-endpoint", "x": fmt(x), "eps": fmt(eps)}
    return None


def _check_p2(inst):
    chain, m = inst
    sub = chain.subspace(m)
    if not sub.is_hyperconnected():
        return {"chain": chain.n, "points": list(points_of(m))}
    return None


def _check_p3(s):
    cover = _ir_cat(s)
    for i, wit in enumerate(cover.witnesses):
        for j, other in enumerate(cover.sets):
            if i != j and wit & other:
                return {
                    "space": s,
                    "cover": bytes(cover.sets),
                    "witness_member": i,
                    "other_member": j,
                    "point": s.labels[points_of(wit & other)[0]],
                }
    return None


def _check_p4(s):
    rows = _closure_rows(s)
    for x in range(s.n):
        if not rows[x] >> x & 1:
            return {"space": s, "missing_reflexive": s.labels[x]}
        for y in points_of(rows[x]):
            if rows[y] & ~rows[x]:
                return {"space": s, "broken_at": s.labels[x]}
    return None


def _check_l1(s):
    # the covers are open covers by construction, so only the decision runs
    optimal = _ir_cat(s).sets
    for cov in _packed_covers(s).split(b"\0"):
        ok, mapping = category.refinement_mapping(optimal, cov)
        # optimal member i must lie in cover member mapping[i]
        if not ok or len(mapping) != len(optimal) or not all(
            0 <= j < len(cov) and w & ~cov[j] == 0 for w, j in zip(optimal, mapping)
        ):
            return {"space": s, "cover": cov}
    return None


def _padded_cover(s: FiniteSpace, rep: category.CoverReport):
    """The optimal cover ``rep.sets`` of s with its first spare nonempty
    open added, or None when s has no spare open."""
    used = set(rep.sets)
    extra = next((o for o in s.open_sets if o and o not in used), None)
    if extra is None:
        return None
    return canon_sorted(rep.sets + (extra,))


def _check_l2_literal(s):
    rep = _ir_cat(s)
    padded = _padded_cover(s, rep)
    if padded is None:
        return None
    # an open cover with more members than the covering category
    return {"space": s, "cat": rep.size, "padded_cover": bytes(padded)}


def _check_l2_subcover(s):
    rep = _ir_cat(s)
    padded = _padded_cover(s, rep)
    covers = _packed_covers(s).split(b"\0")
    if padded is not None:
        covers.append(bytes(padded))
    for cov in covers:
        try:
            sub = category.greedy_subcover(rep.sets, cov)
        except category.SubcoverNotFound:
            return {"space": s, "cover": cov}
        union = reduce(operator.or_, sub, 0)
        if len(sub) > rep.size or not set(sub).issubset(cov) or union != s.full_mask:
            return {"space": s, "cover": cov, "subcover": bytes(sub)}
    return None


def _check_c3(k):
    s = intervals.chain_space(k)
    if homotopy.ir_co(s) != 1 << (k - 1):
        return {"chain": k}
    return None


def _check_c4(s):
    if s.is_t1() and homotopy.ir_co(s) and s.n != 1:
        return {"space": s}
    return None


def _check_c5(s):
    if not homotopy.ir_co(s):
        return None
    covers = _packed_covers(s)
    if covers != bytes((s.full_mask,)):
        return {
            "space": s,
            "covers": [spaceio.cover_labels(s, c) for c in covers.split(b"\0")],
        }
    return None


def _check_c6(s):
    if not s.is_t0():
        return None
    maximal = s.closed_points()
    if maximal.bit_count() != 1:
        return None
    if _ir_cat(s).size != 1 or homotopy.ir_co(s) != maximal:
        return {"space": s}
    return None


def _check_c7(p):
    sp = spectra.spec_zn(p)
    if sp.n != 1 or homotopy.ir_co(sp) != 1 or category.ir_cat(sp).size != 1:
        return {"prime": p}
    return None


def _check_c8(s):
    rep = _ir_cat(s)
    ok, mapping = category.check_refinement(s, rep.sets)
    if not ok or mapping != tuple(range(rep.size)):
        return {"space": s, "mapping": mapping}
    for i, a in enumerate(rep.sets):
        for j, b in enumerate(rep.sets):
            if i != j and a & ~b == 0:
                return {
                    "space": s,
                    "nested_members": [i, j],
                }
    return None


def _check_c9(s):
    rows = _closure_rows(s)
    antisymmetric = not any(
        rows[x] >> y & 1 and rows[y] >> x & 1
        for x in range(s.n)
        for y in range(x + 1, s.n)
    )
    if antisymmetric != s.is_t0():
        return {"space": s}
    return None


def _check_d5(s):
    sub, amb = (rep.size for rep in _cover_search(s))
    if sub != amb:
        return {
            "space": s,
            "subspace_cat": sub,
            "ambient_cat": amb,
        }
    return None


# ---------------------------------------------------------------------------
# registry and drivers


@dataclass(frozen=True)
class ClaimSpec:
    """A claim: ``instances(n_max, pair_max, seed)`` is its instance family
    and ``check(instance)`` returns a counterexample payload or None.  A
    payload is a JSON-ready dict whose values may also be spaces; the
    driver writes out only those of the counterexamples it reports."""

    name: str
    category: str
    description: str
    instances: Callable
    check: Callable


_CLAIM_LIST = [
    ClaimSpec("T1", "asserted",
              "subsets of the one-way line are compact exactly through a greatest element",
              _t1_instances, _check_t1),
    ClaimSpec("T2", "asserted",
              "a one-way path from x to y exists exactly when y lies in the closure of {x}",
              _spaces, _check_t2),
    ClaimSpec("T3", "asserted",
              "the image of a one-way path lies in the closure of its start point",
              _spaces, _check_t3),
    ClaimSpec("T4", "asserted",
              "in a T1 space every one-way path is constant",
              _spaces, _check_t4),
    ClaimSpec("T5", "asserted",
              "one-way homotopic maps into a T1 space are equal",
              _pairs, _check_t5),
    ClaimSpec("T6", "asserted",
              "deformability onto a point matches the chain-model homotopy oracle",
              _spaces, _check_t6),
    ClaimSpec("T7", "asserted",
              "the core of a product is the product of the cores",
              _pairs, _check_t7),
    ClaimSpec("T8", "asserted",
              "the covering category of a spectrum equals its number of maximal ideals",
              _t8_instances, _check_t8),
    ClaimSpec("T9_product", "experimental",
              "whether covering category is multiplicative over products",
              _pairs, _check_t9),
    ClaimSpec("T10", "asserted",
              "a grid subspace with a greatest point has exactly that point as core",
              _t10_batches, _check_t10),
    ClaimSpec("T11", "asserted",
              "in a T0 space no nonconstant one-way path has a reverse",
              _spaces, _check_t11),
    ClaimSpec("T12", "asserted",
              "a T0 space that deforms onto a point has a single core point",
              _spaces, _check_t12),
    ClaimSpec("T13", "asserted",
              "covering dimension + 1 is at most the covering category (4-point cap)",
              _dim_spaces, _check_t13),
    ClaimSpec("T14", "asserted",
              "deformability onto a point transfers across equivalence",
              _pairs, _check_t14),
    ClaimSpec("T15", "asserted",
              "covering category is invariant under equivalence",
              _pairs, _check_t15),
    ClaimSpec("P1", "asserted",
              "the asymmetric interval distance is a quasi-metric with left-ray balls",
              _p1_instances, _check_p1),
    ClaimSpec("P2", "asserted",
              "all subspaces of finite chains are hyperconnected",
              _p2_instances, _check_p2),
    ClaimSpec("P3", "asserted",
              "optimal-cover witness points avoid every other cover member",
              _spaces, _check_p3),
    ClaimSpec("P4", "asserted",
              "reachability is reflexive and transitive",
              _spaces, _check_p4),
    ClaimSpec("L1", "asserted",
              "an optimal deformable cover refines every open cover",
              _spaces, _check_l1),
    ClaimSpec("L2_literal", "known_false",
              "no open cover has more members than the covering category",
              _spaces, _check_l2_literal),
    ClaimSpec("L2_subcover", "asserted",
              "every open cover contains a subcover no larger than the covering category",
              _spaces, _check_l2_subcover),
    ClaimSpec("C1", "asserted",
              "the closed unit interval of the one-way line is compact",
              _fixed(("closed", _UNIT)), _check_t1),
    ClaimSpec("C2", "asserted",
              "the two-point chain deforms onto its top point",
              _fixed(2), _check_c3),
    ClaimSpec("C3", "asserted",
              "every finite chain deforms onto its top point",
              _fixed(*range(1, 13)), _check_c3),
    ClaimSpec("C4", "asserted",
              "T1 spaces that deform onto a point are singletons",
              _spaces, _check_c4),
    ClaimSpec("C5", "asserted",
              "a space that deforms onto a point has the whole space as its only irredundant cover",
              _spaces, _check_c5),
    ClaimSpec("C6", "asserted",
              "spectra with a unique maximal ideal deform onto it",
              _spaces, _check_c6),
    ClaimSpec("C7", "asserted",
              "one-prime spectra deform onto their single point",
              _fixed(*_PRIMES_25), _check_c7),
    ClaimSpec("C8", "asserted",
              "an optimal cover is an antichain and refines itself identically",
              _spaces, _check_c8),
    ClaimSpec("C9", "asserted",
              "reachability is a partial order exactly on T0 spaces",
              _spaces, _check_c9),
    ClaimSpec("D5_sense_compare", "experimental",
              "covering category under in-set vs ambient witnesses",
              _spaces, _check_d5),
]

CLAIMS = {spec.name: spec for spec in _CLAIM_LIST}

CLAIM_ORDER = tuple(spec.name for spec in _CLAIM_LIST)


def _lookup_claim(name: str) -> ClaimSpec:
    try:
        return CLAIMS[name]
    except KeyError:
        raise UnknownClaim(
            f"unknown claim {clip_repr(name)}; known: {', '.join(CLAIM_ORDER)}"
        ) from None


def _resolve_limits(n_max: int, pair_max: int | None, seed: int) -> tuple[int, int]:
    """The budgets (n_max, pair_max) a sweep runs at, pair_max defaulting
    to min(3, n_max).  TypeError unless both and the seed are ints,
    SearchBudgetExceeded when a budget is out of range."""
    require_int("n_max", n_max)
    require_int("seed", seed)
    if not 1 <= n_max <= MAX_ENUM_POINTS:
        raise SearchBudgetExceeded(
            f"claim sweeps support 1..{MAX_ENUM_POINTS} points, got {n_max}"
        )
    if pair_max is None:
        pair_max = min(3, n_max)
    require_int("pair_max", pair_max)
    if not 1 <= pair_max <= MAX_PAIR_POINTS:
        raise SearchBudgetExceeded(
            f"pair sweeps support 1..{MAX_PAIR_POINTS} points, got {pair_max}"
        )
    return n_max, pair_max


def _jsonable(payload: dict) -> dict:
    """A counterexample payload with each space in it written out, and
    each packed cover (``bytes``) as the labels of its members in the
    payload's ``space``."""
    space = payload.get("space")
    return {
        k: spaceio.space_to_dict(v) if isinstance(v, FiniteSpace)
        else spaceio.cover_labels(space, v) if isinstance(v, bytes) else v
        for k, v in payload.items()
    }


def _check_all(check: Callable, instances: Iterable, tally: list, weighted: bool = False) -> None:
    """One pass of a claim: ``check`` each (index, instance) and add to
    ``tally``, [tested, counterexamples, first, seconds]; first keeps the
    first MAX_REPORTED_COUNTEREXAMPLES as (index, payload written out).
    Weighted, a key is a class's orbit size, counted for it, and none kept."""
    start = time.monotonic()
    first = tally[2]
    tested = count = 0
    for key, inst in instances:
        weight = key if weighted else 1
        tested += weight
        payload = check(inst)
        if payload is not None:
            count += weight
            if not weighted and len(first) < MAX_REPORTED_COUNTEREXAMPLES:
                first.append((key, _jsonable(payload)))
    tally[0] += tested
    tally[1] += count
    tally[3] += time.monotonic() - start


# the families whose instances are the swept spaces, to the most points each takes
_SWEEPS = {_spaces: MAX_ENUM_POINTS, _dim_spaces: _DIM_SWEEP_CAP}
# a one-pass family to the family over classes that a pass takes in its place
_WEIGHTED = {_t8_instances: _t8_classes, _pairs: _pair_classes}


def _run_shard(names: list[str], n_max: int, pair_max: int, seed: int, nshards: int, shard: int):
    """Each named claim's instances whose index is ``shard`` modulo
    ``nshards``: one pool task, or all of a run at one job.

    What the selection reads (the classes of the sweep claims, of T8 to
    n_max and of the pair claims to pair_max; no labelled table) is built
    first, and then the canonical member of each of the shard's classes
    with its structure, all outside every claim's time.  Each claim runs one pass,
    through ``run_claim``: a sweep claim's over those members, T8's and
    the pair claims' over ``_WEIGHTED``, any other's over its indexed
    family.  The passes share the memos, which are emptied when the shard
    ends.  Returns the tallies.
    """
    tallies = {name: [0, 0, [], 0.0] for name in names}
    families = {CLAIMS[name].instances for name in names}
    swept = max(min(_SWEEPS.get(f, 0), n_max) for f in families)
    classed = max(swept, n_max if _t8_instances in families else 0, pair_max if _pairs in families else 0)
    for n in range(1, classed + 1):
        _classes(n)
    members = list(itertools.islice(_members(swept), shard, None, nshards))
    for _, space in members:
        space.open_sets  # fills min_opens as well
    try:
        for name in names:
            family = CLAIMS[name].instances
            if family in _SWEEPS:  # the members of at most as many points as the claim takes
                instances, weighted = [(w, s) for w, s in members if s.n <= _SWEEPS[family]], True
            else:  # a weighted family yields (orbit size, instance), any other is indexed
                limits, weighted = (n_max, pair_max, seed), family in _WEIGHTED
                family = _WEIGHTED[family](*limits) if weighted else enumerate(family(*limits))
                instances = itertools.islice(family, shard, None, nshards)
            run_claim(name, _pass=(instances, tallies[name], weighted))
    finally:
        for table in _MEMOS:
            table.clear()
    return [tuple(tallies[name]) for name in names]


def _report_labelled(report: ClaimReport, n_max: int, pair_max: int, seed: int) -> None:
    """A claim's counterexamples after a failing pass over classes: its check over
    its labelled family in order, in blocks, until MAX_REPORTED_COUNTEREXAMPLES
    fail; the time, not that of building a table or a block, adds to elapsed."""
    tally, most, size = [0, 0, [], 0.0], MAX_REPORTED_COUNTEREXAMPLES, 1
    first = tally[2]
    instances = enumerate(CLAIMS[report.claim].instances(n_max, pair_max, seed))
    # blocks, and the tables they reach, are built untimed, doubling up to _BLOCK,
    # so that at most as many instances again as the pass needs are built
    while len(first) < most and (block := list(itertools.islice(instances, size))):
        size = min(2 * size, _BLOCK)
        try:
            more = itertools.takewhile(lambda _: len(first) < most, block)
            run_claim(report.claim, _pass=(more, tally))
        finally:
            for table in _MEMOS:
                table.clear()
    report.counterexamples = [payload for _, payload in first]
    report.elapsed += tally[3]


def _merge(name: str, parts) -> ClaimReport:
    """One claim's report from its shards' results: counts add up, the
    first counterexamples merge by index and elapsed is the slowest shard's."""
    spec = CLAIMS[name]
    count = sum(p[1] for p in parts)
    first = sorted((v for p in parts for v in p[2]), key=lambda item: item[0])
    return ClaimReport(
        claim=name,
        category=spec.category,
        description=spec.description,
        instances_tested=sum(p[0] for p in parts),
        passed=not count,
        counterexamples=[v for _, v in first[:MAX_REPORTED_COUNTEREXAMPLES]],
        counterexample_count=count,
        elapsed=max(p[3] for p in parts),
    )


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform reports one, else ``os.cpu_count()`` (1 when unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_claim(
    name: str, n_max: int = 3, seed: int = 0, pair_max: int | None = None, *, _pass=None
) -> ClaimReport:
    """Run a single claim sweep in this process and return its report.

    Sweeps all spaces of 1..n_max points (pairs capped at pair_max,
    default min(3, n_max)); randomized instance families are derived
    from the seed: the one-claim suite at one job, so no pool starts.
    ``_run_shard`` runs each pass of a claim through here as well, with
    ``_pass`` the (instances, tally) of ``_check_all``, and gets None, so
    a wrapper of this name (perfbench's ``--trace``) times every pass.
    """
    if _pass is not None:
        return _check_all(CLAIMS[name].check, *_pass)
    return run_suite(n_max=n_max, seed=seed, pair_max=pair_max, claims=[name])[0]


def run_suite(
    n_max: int = 3,
    seed: int = 0,
    jobs: int = 1,
    pair_max: int | None = None,
    claims: Iterable[str] | None = None,
) -> list[ClaimReport]:
    """Run the named claims (every claim for None) and return their reports.

    Before any claim runs: an unknown or repeated name or an empty
    selection raises UnknownClaim; a bare str in place of the list, or a
    budget, seed or jobs that is not an int, raises TypeError; a budget
    out of range raises SearchBudgetExceeded and jobs below 1 ValueError.

    jobs is capped at the CPUs this process may use (``_usable_cpus``).
    At one job the claims run here, as the one shard of ``_run_shard``.
    Above it, this is the one place a process pool starts: it gets one
    task per worker, task k runs shard k of every claim, so each worker
    works out what its checks need for its own shard and waits for no
    other between claims, and the parent merges the shards claim by claim.
    The pool is shut down when the suite ends, also when a claim raises.
    """
    if isinstance(claims, str):
        raise TypeError(
            f"claims must be a list of claim names such as [{clip_repr(claims)}], not a str; "
            f"known: {', '.join(CLAIM_ORDER)}"
        )
    names = list(CLAIM_ORDER) if claims is None else list(claims)
    if not names:
        raise UnknownClaim(f"no claim selected; known: {', '.join(CLAIM_ORDER)}")
    for i, name in enumerate(names):
        _lookup_claim(name)
        if name in names[:i]:
            raise UnknownClaim(f"claim {name!r} selected more than once")
    require_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    n_max, pair_max = _resolve_limits(n_max, pair_max, seed)
    jobs = min(jobs, _usable_cpus())
    if jobs == 1:
        shards = [_run_shard(names, n_max, pair_max, seed, 1, 0)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        task = functools.partial(_run_shard, names, n_max, pair_max, seed, jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            shards = list(pool.map(task, range(jobs)))
    reports = [_merge(name, parts) for name, parts in zip(names, zip(*shards))]
    for report in reports:
        if report.counterexample_count and CLAIMS[report.claim].instances in _SWEEPS.keys() | _WEIGHTED.keys():
            _report_labelled(report, n_max, pair_max, seed)
    return reports


def suite_passed(reports: Iterable[ClaimReport]) -> bool:
    """True when every asserted claim passed; known-false and experimental
    claims never gate the verdict."""
    return all(r.passed for r in reports if r.category == "asserted")


def suite_to_jsonable(
    reports: list[ClaimReport], n_max: int, pair_max: int | None, seed: int
) -> dict:
    n_max, pair_max = _resolve_limits(n_max, pair_max, seed)
    return {
        "max_points": n_max,
        "pair_points": pair_max,
        "seed": seed,
        "all_required_passed": suite_passed(reports),
        "claims": [r.to_jsonable() for r in reports],
    }
