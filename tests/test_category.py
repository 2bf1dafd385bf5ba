import hashlib
import time

import pytest

from irtopo import (
    EmptySpace,
    NotACover,
    chain_space,
    covering_dimension,
    ir_cat,
    ir_co,
    points_of,
    product,
)
from irtopo.category import check_refinement, cover_order, irredundant_covers, min_subcover
from irtopo.core import FiniteSpace
from irtopo.verifier import (
    _check_p3,
    _cover_search,
    _dimension_search,
    _ir_contractible_opens,
    _minimum_cover,
    enumerate_spaces,
)

from conftest import discrete, indiscrete


def maximal_cluster_count(space):
    """Independent oracle for the covering category.

    Any deformable open meets at most one maximal cluster of mutually
    reaching points (its witness would have to sit in two disjoint
    closures), and the minimal neighborhoods of one representative per
    maximal cluster form a deformable cover, so the exact category is
    the number of maximal clusters.
    """
    n = space.n
    rows = space.reach_rows
    cluster_of = {}
    clusters = []
    for x in range(n):
        for rep, members in enumerate(clusters):
            y = members[0]
            if rows[x] >> y & 1 and rows[y] >> x & 1:
                members.append(x)
                cluster_of[x] = rep
                break
        else:
            cluster_of[x] = len(clusters)
            clusters.append([x])
    count = 0
    for members in clusters:
        x = members[0]
        if all(cluster_of[y] == cluster_of[x] for y in points_of(rows[x])):
            count += 1
    return count


class TestContractibleOpens:
    def test_sierpinski_subspace_sense(self, sierpinski):
        cands = _ir_contractible_opens(sierpinski, "subspace")
        assert cands == ((0b01, 0b01), (0b11, 0b10))

    def test_pseudocircle_candidates(self, pseudocircle):
        cands = _ir_contractible_opens(pseudocircle, "subspace")
        assert [c for c, _ in cands] == [0b0001, 0b0010, 0b0111, 0b1011]
        assert dict(cands)[0b0111] == 0b0100
        assert 0b0011 not in dict(cands)  # its subspace is discrete

    def test_pseudocircle_ambient_sense(self, pseudocircle):
        cands = dict(_ir_contractible_opens(pseudocircle, "ambient"))
        # {a, b} qualifies ambiently: both closures contain {c, d}
        assert cands[0b0011] == 0b1100

    def test_min_opens_always_qualify(self, spaces_upto3):
        for s in spaces_upto3:
            cands = dict(_ir_contractible_opens(s, "subspace"))
            for x in range(s.n):
                witness = cands[s.min_opens[x]]
                assert witness >> x & 1

    def test_subspace_witness_equals_subspace_core(self, spaces_upto3):
        for s in spaces_upto3:
            for o, witness in _ir_contractible_opens(s, "subspace"):
                sub = s.subspace(o)
                pts = points_of(o)
                lifted = sum(1 << pts[i] for i in points_of(ir_co(sub)))
                assert lifted == witness

    def test_bad_sense(self, sierpinski):
        with pytest.raises(ValueError):
            _ir_contractible_opens(sierpinski, "other")


class TestIrCat:
    def test_sierpinski(self, sierpinski):
        rep = ir_cat(sierpinski)
        assert rep.size == 1 and rep.sets == (0b11,) and rep.witnesses == (0b10,)

    def test_discrete_needs_singletons(self):
        for n in range(1, 5):
            rep = ir_cat(discrete(n))
            assert rep.size == n
            assert rep.sets == tuple(1 << i for i in range(n))

    def test_pseudocircle(self, pseudocircle):
        rep = ir_cat(pseudocircle)
        assert rep.size == 2
        assert rep.sets == (0b0111, 0b1011)
        assert rep.witnesses == (0b0100, 0b1000)

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            ir_cat(FiniteSpace((), ()))

    def test_at_least_one_and_one_iff_contractible(self, spaces_upto4):
        for s in spaces_upto4:
            rep = ir_cat(s)
            assert rep.size >= 1
            assert (rep.size == 1) == bool(ir_co(s))

    def test_bounded_by_minimal_basis(self, spaces_upto4):
        for s in spaces_upto4:
            assert ir_cat(s).size <= len(set(s.min_opens))

    def test_matches_cluster_oracle(self, spaces_upto4):
        for s in spaces_upto4:
            expected = maximal_cluster_count(s)
            assert ir_cat(s).size == expected

    def test_deterministic_reports(self, pseudocircle):
        from irtopo.category import _ir_cat_cached

        first = ir_cat(pseudocircle)
        _ir_cat_cached.cache_clear()
        assert ir_cat(pseudocircle) == first


@pytest.fixture(scope="module")
def spaces_upto5():
    return [s for n in range(1, 6) for s in enumerate_spaces(n)]


class TestClosedFormsMatchSearch:
    """The closed forms against the exhaustive searches in the verifier.

    The searches in both witness senses give the closed-form cover and
    witnesses, which is why ``ir_cat`` takes no sense.
    """

    def test_cover_on_all_small_spaces(self, spaces_upto5):
        for s in spaces_upto5:
            for sense in ("subspace", "ambient"):
                assert ir_cat(s) == _cover_search(s, sense)

    def test_cover_on_products(self, spaces_upto3):
        for a in spaces_upto3:
            for b in spaces_upto3:
                prod = product(a, b)
                for sense in ("subspace", "ambient"):
                    assert ir_cat(prod) == _cover_search(prod, sense)

    def test_dimension_on_all_small_spaces(self, spaces_upto5):
        for s in spaces_upto5:
            assert covering_dimension(s) == _dimension_search(s)

    def test_large_discrete_is_polynomial(self):
        singletons = tuple(1 << i for i in range(40))
        assert ir_cat(discrete(40)).sets == singletons
        rep = covering_dimension(discrete(40))
        assert rep.dim == 0 and rep.worst_cover == rep.refinement == singletons


def test_minimum_cover_is_exact():
    # cross-check the search against brute force over all subsets
    from itertools import combinations

    cases = [
        (0b11111, (0b00011, 0b00110, 0b01100, 0b11000, 0b10001)),
        (0b1111, (0b0001, 0b0010, 0b0100, 0b1000, 0b0111)),
        (0b111111, (0b010101, 0b101010, 0b000111, 0b111000)),
    ]
    for universe, cands in cases:
        got = _minimum_cover(universe, cands)
        assert universe & ~_union(got) == 0
        best = None
        for r in range(1, len(cands) + 1):
            for combo in combinations(cands, r):
                if universe & ~_union(combo) == 0:
                    best = r
                    break
            if best:
                break
        assert len(got) == best


def test_minimum_cover_rejects_a_non_cover_at_once():
    # 40 candidates that all miss the last point: without the check up
    # front the search would try all 2**40 families
    start = time.perf_counter()
    with pytest.raises(NotACover):
        _minimum_cover((1 << 41) - 1, tuple(1 << i for i in range(40)))
    assert time.perf_counter() - start < 1


def test_minimum_cover_tie_goes_to_the_first_optimum():
    # {1,2}+{0,3} and {0,1}+{2,3} both cover in two; the first pair in
    # candidate order comes back, though a search branching on the lowest
    # uncovered point would meet {0,1}+{2,3} first
    universe = 0b1111
    assert _minimum_cover(universe, (0b0110, 0b0011, 0b1100, 0b1001)) == (0b0110, 0b1001)
    assert _minimum_cover(universe, (0b0011, 0b1100, 0b0110, 0b1001)) == (0b0011, 0b1100)


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


class TestProp3:
    def test_pseudocircle(self, pseudocircle):
        assert _check_p3(pseudocircle) is None

    def test_discrete(self):
        assert _check_p3(discrete(2)) is None

    def test_single_member_vacuous(self, sierpinski):
        assert _check_p3(sierpinski) is None


class TestRefinement:
    def test_against_whole_space(self, pseudocircle):
        ok, mapping = check_refinement(pseudocircle, (pseudocircle.full_mask,))
        assert ok and mapping == (0, 0)

    def test_against_itself(self, pseudocircle):
        rep = ir_cat(pseudocircle)
        ok, mapping = check_refinement(pseudocircle, rep.sets)
        assert ok and mapping == (0, 1)

    def test_not_a_cover(self, pseudocircle):
        with pytest.raises(NotACover):
            check_refinement(pseudocircle, (0b0111,))

    def test_non_open_member(self, pseudocircle):
        with pytest.raises(NotACover):
            check_refinement(pseudocircle, (0b0100, pseudocircle.full_mask))

    def test_member_outside_the_space(self, sierpinski):
        with pytest.raises(NotACover):
            check_refinement(sierpinski, (0b11, 0b100))
        with pytest.raises(NotACover):
            check_refinement(sierpinski, (-1,))

    def test_all_irredundant_covers_refined(self, spaces_upto4):
        for s in spaces_upto4:
            for cov in irredundant_covers(s):
                ok, _ = check_refinement(s, cov)
                assert ok


class TestMinSubcover:
    def test_sierpinski_padded(self, sierpinski):
        assert min_subcover(sierpinski, (0b01, 0b11)) == (0b11,)

    def test_discrete_prefers_big_containers(self):
        d2 = discrete(2)
        assert min_subcover(d2, (0b01, 0b10, 0b11)) == (0b11,)

    def test_ties_go_to_the_smallest_mask(self):
        # each singleton of the discrete 3-point space has two containers
        # of size 2; the smaller mask wins, whatever the member order
        d3 = discrete(3)
        for cover in ((0b011, 0b101, 0b110), (0b110, 0b101, 0b011)):
            assert min_subcover(d3, cover) == (0b011, 0b101)

    def test_already_minimal_is_fixed(self, pseudocircle):
        rep = ir_cat(pseudocircle)
        assert min_subcover(pseudocircle, rep.sets) == rep.sets

    def test_not_a_cover(self, sierpinski):
        with pytest.raises(NotACover):
            min_subcover(sierpinski, (0b01,))

    def test_member_outside_the_space(self, sierpinski):
        with pytest.raises(NotACover):
            min_subcover(sierpinski, (0b11, 0b100))
        with pytest.raises(NotACover):
            min_subcover(sierpinski, (-1,))

    def test_never_exceeds_category(self, spaces_upto3):
        for s in spaces_upto3:
            limit = ir_cat(s).size
            for cov in irredundant_covers(s):
                assert len(min_subcover(s, cov)) <= limit


class TestIrredundantCovers:
    def test_sierpinski(self, sierpinski):
        assert list(irredundant_covers(sierpinski)) == [(0b11,)]

    def test_discrete2(self):
        got = sorted(irredundant_covers(discrete(2)))
        assert got == [(0b01, 0b10), (0b11,)]

    def test_every_member_essential(self, spaces_upto3):
        for s in spaces_upto3:
            for cov in irredundant_covers(s):
                assert _union(cov) == s.full_mask
                for k in range(len(cov)):
                    rest = _union(cov[:k] + cov[k + 1 :])
                    assert rest != s.full_mask

    def test_matches_brute_force(self, spaces_upto4):
        # same covers in the same order: lexicographic in the members'
        # indices among the nonempty opens
        from itertools import combinations

        total = 0
        for s in spaces_upto4:
            opens = [o for o in s.open_sets if o]
            expected = []
            # each member of an irredundant cover has a private point, so
            # there are at most n members
            for r in range(1, s.n + 1):
                for idx in combinations(range(len(opens)), r):
                    combo = tuple(opens[i] for i in idx)
                    if _union(combo) != s.full_mask:
                        continue
                    if all(
                        _union(combo[:k] + combo[k + 1 :]) != s.full_mask
                        for k in range(r)
                    ):
                        expected.append(idx)
            expected.sort()
            got = list(irredundant_covers(s))
            assert got == [tuple(opens[i] for i in idx) for idx in expected]
            total += len(got)
        assert total == 1200

    def test_empty_space(self):
        assert list(irredundant_covers(FiniteSpace((), ()))) == [()]

    def test_sequence_pinned_to_five_points(self):
        # per point count: the number of covers over all labelled spaces,
        # and the sha256 of their reprs in enumeration order; the
        # brute-force order check above stops at four points
        pinned = {
            1: (1, "28cb03b06c288e88c6a880eeba293bf9c9bb9fa586128586459a486a511f832f"),
            2: (5, "7f5f72c7a1e2e7ae4aa1af60b24005f80edee16a74f1fbfaa5dfde1411d316b8"),
            3: (54, "62d661f10da7ea51b5d8ceaf24e7e88b5efa00e250de96d4d6da6df31a09159f"),
            4: (1140, "ea05bb33bde566862b86abef44cb51d1e767b10cbcf7fc9883a156f01f598eea"),
            5: (43808, "686d75a67e24cf2a8d27d6736b55225355ed36680f45208d59cf03c6472e4c2e"),
        }
        for n, (count, digest) in pinned.items():
            h = hashlib.sha256()
            got = 0
            for s in enumerate_spaces(n):
                for cov in irredundant_covers(s):
                    h.update(repr(cov).encode())
                    got += 1
            assert (got, h.hexdigest()) == (count, digest), n


class TestDimension:
    def test_cover_order(self):
        assert cover_order((0b011, 0b110)) == 2
        assert cover_order((0b001, 0b110)) == 1
        assert cover_order(()) == 0

    def test_discrete2(self):
        assert covering_dimension(discrete(2)).dim == 0

    def test_sierpinski(self, sierpinski):
        assert covering_dimension(sierpinski).dim == 0

    def test_chains_are_zero_dimensional(self):
        for k in range(1, 6):
            assert covering_dimension(chain_space(k)).dim == 0

    def test_pseudocircle_is_one_dimensional(self, pseudocircle):
        rep = covering_dimension(pseudocircle)
        assert rep.dim == 1
        assert rep.worst_cover == (0b0111, 0b1011)
        assert cover_order(rep.refinement) == 2

    def test_empty_space(self):
        rep = covering_dimension(FiniteSpace((), ()))
        assert rep.dim == -1 and rep.worst_cover is None

    def test_no_point_budget(self):
        assert covering_dimension(discrete(6)).dim == 0


def test_product_category_on_examples(sierpinski, pseudocircle):
    assert ir_cat(product(discrete(2), discrete(3))).size == 6
    assert ir_cat(product(sierpinski, pseudocircle)).size == 2
    assert ir_cat(product(indiscrete(2), pseudocircle)).size == 2
