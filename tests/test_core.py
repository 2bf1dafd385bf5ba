import ast
import dataclasses
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from irtopo import (
    EmptySpace,
    FiniteSpace,
    NotATopology,
    ReachNotPreorder,
    SearchBudgetExceeded,
    chain_space,
    from_open_sets,
    from_reach,
    ir_co,
    mask_of,
    points_of,
    product,
)
from irtopo.core import OPEN_SET_LIMIT, clip_repr, extensions, transpose
from irtopo.verifier import (
    _closure_rows,
    box_topology,
    enumerate_spaces,
    topologies_by_open_families,
)

from conftest import discrete, indiscrete, sphere_model, union_closure_opens


def brute_force_opens(space):
    """Oracle: check every subset against the minimal-neighborhood condition."""
    out = []
    for mask in range(1 << space.n):
        if all(space.min_opens[y] & ~mask == 0 for y in points_of(mask)):
            out.append(mask)
    return sorted(out, key=lambda m: (m.bit_count(), m))


def smallest_closed_superset(space, aset):
    """Oracle: intersect all closed sets (complements of opens) containing aset."""
    acc = space.full_mask
    for o in space.open_sets:
        closed = space.full_mask & ~o
        if aset & ~closed == 0:
            acc &= closed
    return acc


def test_mask_helpers_roundtrip():
    assert points_of(mask_of([0, 2, 5])) == (0, 2, 5)
    assert mask_of([]) == 0
    assert points_of(0) == ()


def test_points_of_agrees_with_the_bit_walk():
    # every mask of the byte table's low two bytes, the masks around its
    # 2**24 bound, and masks of 20,000 bits, which take the bit walk
    rng = random.Random(0)
    wide = [(1 << 20_000) - 1, 1 << 19_999, (1 << 19_999) | 1]
    wide += [rng.getrandbits(20_000) for _ in range(20)]
    near = [(1 << 24) + d for d in range(-300, 300)]
    near += [rng.getrandbits(24) for _ in range(1000)]
    for mask in [*range(1 << 16), *near, *wide]:
        assert points_of(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    for mask in (-1, -(1 << 24), -(1 << 20_000)):
        with pytest.raises(ValueError, match="negative mask"):
            points_of(mask)


@pytest.mark.parametrize(
    "query",
    [
        points_of,
        lambda m: FiniteSpace(("a", "b"), (3, 2)).labels_of(m),
        lambda m: FiniteSpace(("a", "b"), (3, 2)).common_reach(m),
        lambda m: FiniteSpace(("a", "b"), (3, 2)).subspace(m),
    ],
    ids=["points_of", "labels_of", "common_reach", "subspace"],
)
@pytest.mark.parametrize("mask", [-1, -4])
def test_negative_masks_rejected(query, mask):
    # a negative mask has infinitely many set bits, so a bit walk over it
    # would never end
    with pytest.raises(ValueError, match="negative mask"):
        query(mask)


MASK_QUERIES = pytest.mark.parametrize(
    "query",
    [lambda s, m: s.labels_of(m), lambda s, m: s.common_reach(m), lambda s, m: s.subspace(m)],
    ids=["labels_of", "common_reach", "subspace"],
)


@MASK_QUERIES
@pytest.mark.parametrize(
    "aset, text",
    [(0b1010, "0xa"), (0b1000, "0x8"), (1 << 200, "0x1" + "0" * 37 + "...")],
    ids=["points-1-and-3", "point-3-only", "far"],
)
def test_points_past_the_space_rejected(query, aset, text):
    # never clipped to the 3-point space: 0b1010 would give the subspace
    # on point 1, and 0b1000 no point; nor a bare IndexError
    with pytest.raises(ValueError, match=f"^mask {re.escape(text)} has points outside the space$"):
        query(chain_space(3), aset)


@MASK_QUERIES
@pytest.mark.parametrize("aset", [True, False, 1.0, "1", None], ids=repr)
def test_non_int_mask_rejected(query, aset):
    # True would select point 0 and False no point
    with pytest.raises(TypeError, match=f"^aset must be an int, got {re.escape(repr(aset))}$"):
        query(chain_space(3), aset)


class TestStoredSize:
    """``n`` and ``full_mask`` are stored on the instance at construction."""

    def test_empty_space(self):
        empty = FiniteSpace((), ())
        assert empty.n == 0 and empty.full_mask == 0

    def test_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            FiniteSpace(("a",), (1,), n=1)
        with pytest.raises(AttributeError):
            FiniteSpace(("a",), (1,)).n = 2

    def test_equality_and_hash_read_only_reach(self):
        # spaces of any size compare by reach rows alone
        assert FiniteSpace((), ()) == FiniteSpace((), ())
        assert FiniteSpace(("a",), (1,)) != FiniteSpace(("a", "b"), (1, 2))
        assert hash(FiniteSpace(("a",), (1,))) == hash(FiniteSpace(("z",), (1,)))

    def test_pickle_round_trip(self, pseudocircle):
        # pool workers receive spaces pickled, stored attributes included
        again = pickle.loads(pickle.dumps(pseudocircle))
        assert again == pseudocircle and hash(again) == hash(pseudocircle)
        assert again.labels == pseudocircle.labels
        assert again.n == 4 and again.full_mask == 0b1111


def _filled(space: FiniteSpace) -> list[str]:
    """The structures of ``space`` held in its slots, read without filling."""
    return [name for name in ("min_opens", "open_sets") if getattr(space, "_" + name) is not None]


class TestSlots:
    """A space keeps its fields in slots, with no per-instance dict, and
    fills ``min_opens`` and ``open_sets`` on their first read."""

    def test_no_dict_and_no_assignment(self, pseudocircle):
        assert not hasattr(pseudocircle, "__dict__")
        pseudocircle.open_sets
        names = ("labels", "reach_rows", "n", "full_mask", "_min_opens", "_open_sets")
        for name in names + ("min_opens", "open_sets", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pseudocircle, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(pseudocircle, name)
        with pytest.raises(AttributeError, match="^'FiniteSpace' object has no attribute 'other'$"):
            pseudocircle.other

    def test_structure_fills_on_first_read(self):
        space = chain_space(3)
        assert _filled(space) == []
        assert space.min_opens == (0b001, 0b011, 0b111)
        assert _filled(space) == ["min_opens"]
        assert space.open_sets == (0, 0b001, 0b011, 0b111)
        assert _filled(space) == ["min_opens", "open_sets"]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_keeps_what_is_filled(self, protocol):
        for filled in ([], ["min_opens"], ["min_opens", "open_sets"]):
            space = chain_space(4)
            for name in filled:
                getattr(space, name)
            again = pickle.loads(pickle.dumps(space, protocol))
            assert _filled(again) == filled
            assert (again, again.labels, again.n, again.full_mask) == (
                space, space.labels, space.n, space.full_mask
            )
            assert (again.min_opens, again.open_sets) == (space.min_opens, space.open_sets)

    def test_pickle_does_not_fill_an_over_budget_space(self):
        # 17 discrete points have 2**17 opens, past OPEN_SET_LIMIT
        space = FiniteSpace(tuple(map(str, range(17))), tuple(1 << x for x in range(17)))
        again = pickle.loads(pickle.dumps(space))
        assert again == space and _filled(again) == []
        with pytest.raises(SearchBudgetExceeded):
            again.open_sets

    def test_extensions_leave_the_structure_to_open_sets(self):
        # a child is its reach rows alone, and a space on them works out
        # the structure of those rows on first read: every space of at most
        # 5 points is a child of one of at most 4
        for n in range(5):
            labels = tuple(map(str, range(n + 1)))
            for space in enumerate_spaces(n) if n else [FiniteSpace((), ())]:
                for rows in extensions(space):
                    assert type(rows) is tuple and len(rows) == n + 1, rows
                    child = FiniteSpace(labels, rows)
                    assert child.open_sets == union_closure_opens(child)
                    assert child.min_opens == transpose(rows)


class TestFromOpenSets:
    def test_sierpinski_reach(self, sierpinski):
        pairs = {
            (x, y)
            for x in range(2)
            for y in range(2)
            if sierpinski.reach(x, y)
        }
        assert pairs == {(0, 0), (1, 1), (0, 1)}

    def test_discrete_two_points(self):
        s = from_open_sets(["0", "1"], [0, 0b01, 0b10, 0b11])
        assert s.reach_rows == (0b01, 0b10)
        assert s.is_t1()

    def test_missing_full_set(self):
        with pytest.raises(NotATopology):
            from_open_sets(["0", "1"], [0, 0b01, 0b10])

    def test_missing_empty_set(self):
        with pytest.raises(NotATopology):
            from_open_sets(["0", "1"], [0b01, 0b11])

    def test_union_witness(self):
        with pytest.raises(NotATopology, match="union"):
            from_open_sets(["0", "1", "2"], [0, 0b001, 0b010, 0b111])

    def test_intersection_witness(self):
        with pytest.raises(NotATopology, match="intersection"):
            from_open_sets(["0", "1", "2"], [0, 0b011, 0b110, 0b111])

    def test_duplicates_collapse_silently(self):
        s = from_open_sets(["0", "1"], [0, 0b01, 0b01, 0b11, 0b11])
        assert s.open_sets == (0, 1, 3)

    def test_out_of_range_point(self):
        with pytest.raises(NotATopology):
            from_open_sets(["0"], [0, 0b1001, 0b1])

    def test_index_lists_read_through_mask_of(self):
        opens = [[], [0], [0, 1]]
        assert from_open_sets(["0", "1"], map(mask_of, opens)).open_sets == (0, 1, 3)

    @pytest.mark.parametrize("mask, text", [(0b110, "0x6"), (1 << 40 | 1, "0x10000000001")])
    def test_out_of_range_text(self, mask, text):
        with pytest.raises(NotATopology) as e:
            from_open_sets(["a"], [0, 1, mask])
        assert str(e.value) == f"open set {text} uses points outside the space"

    def test_far_mask_text_is_short(self):
        for mask in (1 << 10**6, (1 << 10**6) - 1):
            with pytest.raises(NotATopology) as e:
                from_open_sets(["a"], [0, 1, mask])
            assert len(str(e.value)) < 100

    # a bool would pass as mask 1 or 0; a list is refused before it is
    # hashed, so no bare "unhashable type" error escapes
    @pytest.mark.parametrize(
        "mask", [True, False, [0, 1], (0,), 1.0, "1", {0: 1}, [0] * 5000],
        ids=["true", "false", "list", "tuple", "float", "str", "dict", "long-list"],
    )
    def test_non_int_mask(self, mask):
        with pytest.raises(TypeError) as e:
            from_open_sets(["a"], [0, mask, 1])
        assert str(e.value) == f"open set must be an int, got {clip_repr(mask)}"

    def test_negative_mask(self):
        with pytest.raises(ValueError, match=r"^negative mask -0x2 is not a point set$"):
            from_open_sets(["a"], [0, -2, 1])


WITNESS = re.compile(r"(union|intersection) of (\(.*?\)) and (\(.*?\)) is missing")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_open_families_match_pairwise_oracle(n):
    """Over every family of sets with the empty and the full set, the
    minimal-neighborhood check accepts exactly the families closed under
    pairwise union and intersection, and each rejection names two listed
    sets whose union or intersection is missing."""
    full = (1 << n) - 1
    labels = [str(i) for i in range(n)]
    accepted = []
    for sel in range(1 << (full - 1)):
        fam = {0, full} | {m for m in range(1, full) if sel >> (m - 1) & 1}
        try:
            s = from_open_sets(labels, fam)
        except NotATopology as e:
            op, a, b = WITNESS.fullmatch(str(e)).groups()
            a, b = mask_of(ast.literal_eval(a)), mask_of(ast.literal_eval(b))
            assert a in fam and b in fam
            assert (a | b if op == "union" else a & b) not in fam
        else:
            assert set(s.open_sets) == fam
            accepted.append(s.reach_rows)
    assert set(accepted) == topologies_by_open_families(n)


class TestFromReach:
    def test_identity_gives_discrete(self):
        s = from_reach(["a", "b", "c"], [0b001, 0b010, 0b100])
        assert len(s.open_sets) == 8

    def test_total_relation_gives_indiscrete(self):
        s = from_reach(["a", "b"], [0b11, 0b11])
        assert s.open_sets == (0, 3)

    def test_chain_matches_sierpinski(self, sierpinski):
        s = from_reach(["0", "1"], [0b11, 0b10])
        assert s == sierpinski

    def test_not_reflexive(self):
        with pytest.raises(ReachNotPreorder, match="reflexive"):
            from_reach(["a", "b"], [0b10, 0b10])

    def test_not_transitive(self):
        with pytest.raises(ReachNotPreorder, match="transitive"):
            from_reach(["a", "b", "c"], [0b011, 0b110, 0b100])

    # a bool would pass as row 1 or 0, and a sequence is not a mask
    @pytest.mark.parametrize(
        "rows, label",
        [([True, 3], "'a'"), ([1, False], "'b'"), ([[1, 0], 3], "'a'"), ([1, (1, 1)], "'b'")],
        ids=["true", "false", "list", "tuple"],
    )
    def test_non_mask_row_rejected(self, rows, label):
        with pytest.raises(TypeError, match=f"^reach row of {label} must be an int mask, got "):
            from_reach(["a", "b"], rows)

    def test_bool_row_label_is_clipped(self):
        with pytest.raises(TypeError) as err:
            from_reach(["x" * 5000], [True])
        assert len(str(err.value)) < 120

    def test_row_count_is_checked_before_the_rows(self):
        with pytest.raises(ValueError, match="one row per label"):
            from_reach(["a", "b"], [1, 3, True])


class TestOpenSets:
    def test_sierpinski(self, sierpinski):
        assert [points_of(o) for o in sierpinski.open_sets] == [(), (0,), (0, 1)]

    def test_indiscrete(self):
        assert indiscrete(2).open_sets == (0, 0b11)

    def test_limit_admits_exactly_its_count(self):
        # the 16-point discrete space has exactly OPEN_SET_LIMIT opens
        assert len(discrete(16).open_sets) == OPEN_SET_LIMIT == 65536
        with pytest.raises(SearchBudgetExceeded):
            discrete(17).open_sets

    def test_fold_matches_union_closure_on_swept_spaces(self):
        # a fresh copy of each swept space, so that its opens are folded
        # here rather than read from the table
        for n in range(1, 6):
            for s in enumerate_spaces(n):
                fresh = FiniteSpace(s.labels, s.reach_rows)
                assert fresh.open_sets == union_closure_opens(s)

    def test_fold_matches_union_closure_on_products(self, spaces_upto3):
        for a in spaces_upto3:
            for b in spaces_upto3:
                p = product(a, b)
                assert p.open_sets == union_closure_opens(p)

    def test_fold_matches_union_closure_on_random_spaces(self):
        # up to three random reach edges per point, closed transitively:
        # classes of several points, and points in every index order
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(6, 20)
            rows = [1 << x for x in range(n)]
            for x in range(n):
                for _ in range(rng.randint(0, 3)):
                    rows[x] |= 1 << rng.randrange(n)
            for k in range(n):
                for x in range(n):
                    if rows[x] >> k & 1:
                        rows[x] |= rows[k]
            s = from_reach([str(i) for i in range(n)], rows)
            assert s.open_sets == union_closure_opens(s)

    def test_pseudocircle_brute_force(self, pseudocircle):
        # frozen from the subset-by-subset oracle: 7 open sets
        oracle = brute_force_opens(pseudocircle)
        assert list(pseudocircle.open_sets) == oracle
        assert len(oracle) == 7
        assert oracle == [0b0000, 0b0001, 0b0010, 0b0011, 0b0111, 0b1011, 0b1111]

    def test_canonical_order(self, spaces_upto3):
        for s in spaces_upto3:
            keys = [(o.bit_count(), o) for o in s.open_sets]
            assert keys == sorted(keys)

    def test_is_open_matches_open_sets(self, spaces_upto3):
        for s in spaces_upto3:
            opens = set(s.open_sets)
            for m in range(1 << s.n):
                assert s.is_open(m) == (m in opens)

    def test_is_open_false_outside_the_space(self, sierpinski):
        # bits beyond the space, with or without its own points
        assert not sierpinski.is_open(0b100)
        assert not sierpinski.is_open(0b111)
        assert not FiniteSpace((), ()).is_open(1)

    def test_is_open_false_for_negative_masks(self, sierpinski):
        for m in (-1, -2, -4, -(1 << 40)):
            assert not sierpinski.is_open(m)

    @pytest.mark.parametrize("mask", [True, False, "x", 1.0, None])
    def test_is_open_refuses_a_non_int(self, mask):
        # a bool would pass as 0 or 1, a str fail inside an operator
        s = from_reach(["a", "b"], [0b11, 0b10])
        with pytest.raises(TypeError, match=f"^mask must be an int, got {re.escape(repr(mask))}$"):
            s.is_open(mask)


def test_minimal_basis_invariants(spaces_upto3):
    for s in spaces_upto3:
        for x in range(s.n):
            mo = s.min_opens[x]
            assert mo >> x & 1
            assert s.is_open(mo)
            for o in s.open_sets:
                if o >> x & 1:
                    assert mo & ~o == 0
        for o in s.open_sets:
            assert o == _union(s.min_opens[y] for y in points_of(o))


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def _closure(space, aset):
    """The closure of ``aset`` from the reach rows: row x is the closure of {x}."""
    return _union(space.reach_rows[x] for x in points_of(aset))


def _interior(space, aset):
    """The interior of ``aset`` from the minimal neighborhoods inside it."""
    return mask_of(y for y in points_of(aset) if space.min_opens[y] & ~aset == 0)


class TestClosureInterior:
    """Closures read from the reach rows and interiors read from the minimal
    neighborhoods, against oracles that read the open sets."""

    def test_sierpinski_closures(self, sierpinski):
        # frozen from the smallest-closed-superset oracle
        assert smallest_closed_superset(sierpinski, 0b01) == 0b11
        assert sierpinski.reach_rows[0] == 0b11
        assert smallest_closed_superset(sierpinski, 0b10) == 0b10
        assert sierpinski.reach_rows[1] == 0b10

    def test_closure_matches_oracle_everywhere(self, spaces_upto3):
        for s in spaces_upto3:
            for mask in range(1 << s.n):
                assert _closure(s, mask) == smallest_closed_superset(s, mask)

    def test_duality_with_interior(self, spaces_upto3):
        for s in spaces_upto3:
            full = s.full_mask
            for mask in range(1 << s.n):
                assert _closure(s, mask) == full & ~_interior(s, full & ~mask)

    def test_interior_is_largest_open_subset(self, spaces_upto3):
        for s in spaces_upto3:
            for mask in range(1 << s.n):
                inner = _interior(s, mask)
                assert s.is_open(inner) and inner & ~mask == 0
                for o in s.open_sets:
                    if o & ~mask == 0:
                        assert o & ~inner == 0


class TestSubspace:
    def test_pseudocircle_pair_is_discrete(self, pseudocircle):
        sub = pseudocircle.subspace(0b0011)
        assert sub.reach_rows == (1, 2)
        assert sub.labels == ("a", "b")

    def test_single_point(self, sierpinski):
        assert sierpinski.subspace(0b10).reach_rows == (1,)

    def test_whole_space_unchanged(self, pseudocircle):
        assert pseudocircle.subspace(pseudocircle.full_mask) == pseudocircle

    def test_empty_rejected(self, sierpinski):
        with pytest.raises(EmptySpace):
            sierpinski.subspace(0)

    def test_matches_relative_opens(self, spaces_upto3):
        for s in spaces_upto3:
            for mask in range(1, 1 << s.n):
                sub = s.subspace(mask)
                relative = {0}
                pts = points_of(mask)
                index = {p: i for i, p in enumerate(pts)}
                for o in s.open_sets:
                    relative.add(mask_of(index[p] for p in points_of(o & mask)))
                assert set(sub.open_sets) == relative


def _random_preorder(rng, n):
    """Seeded random reach rows on n points, closed under transitivity,
    with two points reaching each other, so a class of several points."""
    rows = [1 << x | mask_of(y for y in range(n) if rng.random() < 0.2) for x in range(n)]
    x, y = rng.sample(range(n), 2)
    rows[x] |= 1 << y
    rows[y] |= 1 << x
    for k in range(n):  # Warshall: route every path through k
        rows = [row | rows[k] if row >> k & 1 else row for row in rows]
    return rows


class TestExtensions:
    @pytest.mark.parametrize("seed", range(6))
    def test_children_are_every_preorder_extension(self, seed):
        # against every pair (I, O) of masks that from_reach accepts, with I
        # reaching the new last point and O reached from it
        rng = random.Random(seed)
        n = 5 + seed % 3
        parent = from_reach("abcdefg"[:n], _random_preorder(rng, n))
        assert not parent.is_t0()
        bit = 1 << n
        brute = set()
        for inc in range(bit):
            head = tuple(row | bit if inc >> x & 1 else row for x, row in enumerate(parent.reach_rows))
            for out in range(bit):
                try:
                    brute.add(from_reach(range(n + 1), head + (out | bit,)).reach_rows)
                except ReachNotPreorder:
                    continue
        children = list(extensions(parent))
        assert len(children) == len(brute)
        assert set(children) == brute
        opens, full = parent.open_sets, parent.full_mask
        order = []
        for rows in children:
            c = FiniteSpace(parent.labels + ("new",), rows)
            assert c.min_opens == transpose(rows)
            assert c.open_sets == union_closure_opens(c)
            inc = mask_of(x for x in range(n) if rows[x] & bit)
            order.append((opens.index(inc), opens.index(full ^ rows[n] ^ bit)))
        # I runs over the opens, and for each I, O over their complements
        assert order == sorted(order)

    def test_children_of_the_five_point_spaces(self):
        # OEIS A000798 (labelled topologies) and A001035 (labelled posets) at 6
        total = t0 = 0
        for space in enumerate_spaces(5):
            for rows in extensions(space):
                total += 1
                t0 += FiniteSpace(space.labels + ("5",), rows).is_t0()
        assert (total, t0) == (209_527, 130_023)

    def test_open_set_budget(self):
        # the first child of the 16-point discrete space is reached from no
        # point and reaches all, so it has one open more than its parent;
        # its rows are yielded, and a space on them refused when its opens
        # are first read
        parent = discrete(16)
        child = FiniteSpace(parent.labels + ("16",), next(extensions(parent)))
        with pytest.raises(SearchBudgetExceeded, match=f"over {OPEN_SET_LIMIT} open sets on 17 points"):
            child.open_sets


class TestPastTheByteTable:
    """The callers of points_of on spaces of more than 24 points, whose
    masks it walks bit by bit rather than reading from its byte table."""

    @pytest.fixture(scope="class")
    def wide(self):
        # each point reaches up to two later ones, the last two reach each
        # other, and the points are then shuffled; closed transitively
        rng = random.Random(30)
        n = 30
        rows = [1 << x for x in range(n)]
        for x in range(n - 1):
            for _ in range(rng.randint(0, 2)):
                rows[x] |= 1 << rng.randrange(x + 1, n)
        rows[n - 2] |= 1 << n - 1
        for k in range(n):
            rows = [row | rows[k] if row >> k & 1 else row for row in rows]
        perm = rng.sample(range(n), n)
        shuffled = [0] * n
        for x, row in enumerate(rows):
            shuffled[perm[x]] = mask_of(perm[y] for y in range(n) if row >> y & 1)
        return from_reach([f"p{i}" for i in range(n)], shuffled)

    def test_is_open_matches_brute_force(self, wide):
        # a mask is open when every point reaching a point of it is in it;
        # random masks are rarely open, the points reaching random seeds are
        rng = random.Random(1)
        n = wide.n
        masks = [rng.getrandbits(n) for _ in range(300)]
        for _ in range(300):
            seeds = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            masks.append(
                mask_of(x for x in range(n) if any(wide.reach(x, y) for y in points_of(seeds)))
            )
        assert sum(m >= 1 << 24 for m in masks) > 500
        opens = 0
        for m in masks:
            brute = all(m >> x & 1 for y in range(n) if m >> y & 1 for x in range(n) if wide.reach(x, y))
            assert wide.is_open(m) == brute
            opens += brute
        assert 300 <= opens < len(masks)

    def test_common_reach_matches_brute_force(self, wide):
        rng = random.Random(2)
        n = wide.n
        asets = [0, wide.full_mask, *(rng.getrandbits(n) for _ in range(100))]
        asets += [1 << x | 1 << y for x in range(n) for y in range(24, n)]
        hits = 0
        for aset in asets:
            brute = mask_of(
                y for y in range(n) if all(wide.reach(x, y) for x in range(n) if aset >> x & 1)
            )
            assert wide.common_reach(aset) == brute
            hits += brute != 0
        assert hits > 20

    def test_subspace_and_transpose(self, wide):
        n = wide.n
        aset = 0b110101_01100111_00011011_10111101
        pts = [p for p in range(n) if aset >> p & 1]
        sub = wide.subspace(aset)
        assert sub.labels == tuple(wide.labels[p] for p in pts)
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                assert sub.reach(i, j) == wide.reach(p, q)
        assert wide.min_opens == tuple(
            mask_of(x for x in range(n) if wide.reach(x, y)) for y in range(n)
        )
        assert wide.reach_pairs() == [
            (x, y) for x in range(n) for y in range(n) if x != y and wide.reach(x, y)
        ]

    def test_product(self, wide, sierpinski):
        p = product(wide, sierpinski)
        for a in range(wide.n):
            for b in range(2):
                for c in range(wide.n):
                    for d in range(2):
                        expected = wide.reach(a, c) and sierpinski.reach(b, d)
                        assert p.reach(2 * a + b, 2 * c + d) == expected

    def test_from_open_sets_round_trip(self):
        s = sphere_model(15)
        assert s.n == 30 and len(s.open_sets) == 46
        assert from_open_sets(s.labels, s.open_sets).reach_rows == s.reach_rows

    def test_from_reach_names_the_broken_triple(self):
        # 3 -> 27 -> {25, 29}: the witness is the least point 27 reaches
        # and 3 does not
        rows = [1 << x for x in range(30)]
        rows[3] |= 1 << 27
        rows[27] |= 1 << 25 | 1 << 29
        message = "not transitive: 'p3'->'p27' and 'p27'->'p25' but not 'p3'->'p25'"
        with pytest.raises(ReachNotPreorder, match=re.escape(message)):
            from_reach([f"p{i}" for i in range(30)], rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_from_reach_witness_matches_brute_force(self, seed):
        # the first x, then the first y that x reaches, then the least z
        # that y reaches and x does not
        rng = random.Random(seed)
        n = 30
        rows = [1 << x | mask_of(rng.sample(range(n), 3)) for x in range(n)]
        x, y, z = next(
            (x, y, z)
            for x in range(n)
            for y in range(n)
            if rows[x] >> y & 1
            for z in range(n)
            if rows[y] >> z & 1 and not rows[x] >> z & 1
        )
        message = f"not transitive: 'p{x}'->'p{y}' and 'p{y}'->'p{z}' but not 'p{x}'->'p{z}'"
        with pytest.raises(ReachNotPreorder, match=re.escape(message)):
            from_reach([f"p{i}" for i in range(n)], rows)


class TestProduct:
    def test_sierpinski_square(self, sierpinski):
        sq = product(sierpinski, sierpinski)
        for xi in range(2):
            for yi in range(2):
                for xj in range(2):
                    for yj in range(2):
                        expected = sierpinski.reach(xi, xj) and sierpinski.reach(yi, yj)
                        assert sq.reach(xi * 2 + yi, xj * 2 + yj) == expected

    def test_product_with_point_is_identity(self, pseudocircle):
        point = discrete(1)
        assert product(pseudocircle, point).reach_rows == pseudocircle.reach_rows

    def test_discrete_times_discrete(self):
        assert product(discrete(2), discrete(2)) == discrete(4)

    def test_matches_box_generated_topology(self, spaces_upto3):
        # the componentwise-reach product carries exactly the topology
        # generated by boxes of opens: every box is open, and every open
        # is the union of the boxes inside it; exhaustive at small size
        for a in spaces_upto3:
            for b in spaces_upto3:
                opens = product(a, b).open_sets
                boxes = box_topology(a, b)
                assert boxes <= set(opens)
                for o in opens:
                    inside = 0
                    for box in boxes:
                        if box & ~o == 0:
                            inside |= box
                    assert inside == o

    def test_threefold_fold(self, sierpinski):
        from irtopo import ir_co

        triple = product(product(sierpinski, sierpinski), sierpinski)
        assert points_of(ir_co(triple)) == (7,)


class TestSeparation:
    def test_sierpinski(self, sierpinski):
        assert sierpinski.is_t0()
        assert not sierpinski.is_t1()
        assert sierpinski.is_hyperconnected()

    def test_discrete(self):
        d = discrete(2)
        assert d.is_t0() and d.is_t1() and not d.is_hyperconnected()

    def test_indiscrete(self):
        s = indiscrete(2)
        assert not s.is_t0() and not s.is_t1() and s.is_hyperconnected()

    def test_t1_iff_singleton_closures(self, spaces_upto4):
        for s in spaces_upto4:
            singleton = all(cl == 1 << x for x, cl in enumerate(_closure_rows(s)))
            assert s.is_t1() == singleton

    def test_hyperconnected_matches_open_pair_scan(self, spaces_upto3):
        for s in spaces_upto3:
            opens = [o for o in s.open_sets if o]
            clash = all(a & b for a in opens for b in opens)
            assert s.is_hyperconnected() == clash


class TestPointSetMembers:
    """closed_points, common_reach and labels_of against routes that read
    the open sets instead of the reach rows."""

    def test_closed_points_have_singleton_closures(self, spaces_upto4):
        for s in spaces_upto4:
            singletons = mask_of(
                x for x, cl in enumerate(_closure_rows(s)) if cl == 1 << x
            )
            assert s.closed_points() == singletons
            assert s.is_t1() == (s.closed_points() == s.full_mask)

    def test_common_reach_intersects_closures(self, spaces_upto4):
        for s in spaces_upto4:
            for m in s.open_sets:
                meet = s.full_mask
                for x in points_of(m):
                    meet &= _closure_rows(s)[x]
                assert s.common_reach(m) == meet
            assert ir_co(s) == s.common_reach(s.full_mask)

    def test_labels_of_follows_index_order(self, spaces_upto4):
        for s in spaces_upto4:
            relabelled = FiniteSpace(tuple("zyxw"[: s.n]), s.reach_rows)
            for m in range(1 << s.n):
                assert relabelled.labels_of(m) == [
                    label for i, label in enumerate(relabelled.labels) if m >> i & 1
                ]
        assert FiniteSpace(("c", "a", "b"), (1, 2, 4)).labels_of(0b101) == ["c", "b"]


def test_roundtrip_open_sets(spaces_upto4):
    for s in spaces_upto4:
        again = from_open_sets(s.labels, s.open_sets)
        assert again.reach_rows == s.reach_rows


def test_equality_ignores_labels():
    a = FiniteSpace(("a", "b"), (3, 2))
    b = FiniteSpace(("x", "y"), (3, 2))
    assert a == b and hash(a) == hash(b)
    assert a != FiniteSpace(("a", "b"), (1, 2))


@st.composite
def space_and_masks(draw):
    spaces = []
    for n in range(1, 4):
        spaces.extend(enumerate_spaces(n))
    s = draw(st.sampled_from(spaces))
    a = draw(st.integers(min_value=0, max_value=s.full_mask))
    b = draw(st.integers(min_value=0, max_value=s.full_mask))
    return s, a, b


@given(space_and_masks())
def test_closure_is_idempotent_monotone_additive(args):
    s, a, b = args
    ca = _closure(s, a)
    assert _closure(s, ca) == ca
    if a & ~b == 0:
        assert ca & ~_closure(s, b) == 0
    assert _closure(s, a | b) == ca | _closure(s, b)


@given(space_and_masks())
def test_reach_is_reflexive_and_transitive(args):
    s, _, _ = args
    for x in range(s.n):
        assert s.reach(x, x)
        for y in points_of(s.reach_rows[x]):
            assert s.reach_rows[y] & ~s.reach_rows[x] == 0


def test_no_bare_asserts_in_package():
    # asserts vanish under python -O, so package checks must raise
    import ast
    from pathlib import Path

    import irtopo

    for path in sorted(Path(irtopo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"
