import random
import re
from itertools import product as iproduct

import pytest

from irtopo import (
    ContinuousMap,
    FiniteSpace,
    IrtopoError,
    MapMismatch,
    NotContinuous,
    SearchBudgetExceeded,
    chain_space,
    from_reach,
    ir_co,
    ir_homotopic,
    ir_homotopy_equivalent,
    ir_path,
    is_ir_path_connected,
    mask_of,
    points_of,
    product,
)

from irtopo import homotopy
from irtopo.core import clip_repr
from irtopo.homotopy import continuous_maps
from irtopo.verifier import _check_t11, _spaces_upto, enumerate_spaces

from conftest import discrete, indiscrete, sphere_model


def closures_intersection(space):
    """Oracle for the core: intersect the closures of all singletons."""
    acc = space.full_mask
    for x in range(space.n):
        acc &= space.reach_rows[x]
    return acc


class TestIrPath:
    def test_sierpinski_forward(self, sierpinski):
        assert ir_path(sierpinski, 0, 1) is True

    def test_sierpinski_backward(self, sierpinski):
        assert ir_path(sierpinski, 1, 0) is False

    def test_constant(self, pseudocircle):
        for x in range(4):
            assert ir_path(pseudocircle, x, x) is True

    def test_bad_index(self, sierpinski):
        with pytest.raises(ValueError):
            ir_path(sierpinski, 0, 5)

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1"], ids=repr)
    def test_non_int_point_rejected(self, bad):
        # True would ask for point 1 and False for point 0
        space = chain_space(3)
        with pytest.raises(TypeError, match=re.escape(f"x must be an int, got {bad!r}")):
            ir_path(space, bad, 0)
        with pytest.raises(TypeError, match=re.escape(f"y must be an int, got {bad!r}")):
            ir_path(space, 0, bad)


class TestPastTheByteTable:
    """Maps and equivalences on spaces of more than 24 points, whose masks
    points_of walks bit by bit rather than reading from its byte table."""

    def test_continuity_matches_monotonicity(self):
        # random maps rarely keep reach; maps that fix the levels below a
        # cut and send every point above it to one point of the cut do
        s = sphere_model(15)
        rng = random.Random(0)
        pairs = [(x, y) for x in range(s.n) for y in range(s.n) if s.reach(x, y)]
        assignments = [tuple(rng.randrange(s.n) for _ in range(s.n)) for _ in range(50)]
        for _ in range(50):
            cut = rng.randrange(15)
            assignments.append(tuple(p if p // 2 < cut else 2 * cut for p in range(s.n)))
        continuous = 0
        for f in assignments:
            broken = [(x, y) for x, y in pairs if not s.reach(f[x], f[y])]
            if broken:
                x, y = broken[0]
                with pytest.raises(NotContinuous) as err:
                    ContinuousMap(s, s, f)
                assert err.value.witness_open == s.min_opens[f[y]]
            else:
                ContinuousMap(s, s, f)
                continuous += 1
        assert 50 <= continuous < len(assignments)

    def test_equivalence_with_a_point(self):
        # a point is equivalent to a space exactly when some point of it is
        # reached from everywhere, and the first f picks the least such
        point = discrete(1)
        # the sphere model with a point 30 in the closure of every point
        rows = [row | 1 << 30 for row in sphere_model(15).reach_rows]
        cone = from_reach([str(i) for i in range(31)], [*rows, 1 << 30])
        for s in (sphere_model(15), chain_space(30), cone):
            found = ir_homotopy_equivalent(point, s)
            co = ir_co(s)
            assert (found is not None) == (co != 0)
            if found:
                assert found[0].assignment == (points_of(co)[0],)


class TestReverse:
    """Claim T11's check tests each path of a T0 space in both directions."""

    def test_sierpinski_no_reverse(self, sierpinski):
        assert sierpinski.reach(0, 1)
        assert _check_t11(sierpinski) is None

    def test_indiscrete_reverses(self, monkeypatch):
        space = indiscrete(2)
        assert _check_t11(space) is None  # not T0: outside the claim
        monkeypatch.setattr(FiniteSpace, "is_t0", lambda self: True)
        assert _check_t11(space) == {"space": space, "from": "0", "to": "1"}

    def test_constant_is_its_own_reverse(self, pseudocircle):
        # constant paths reverse trivially and are not counterexamples
        assert pseudocircle.reach(2, 2)
        assert _check_t11(pseudocircle) is None


class TestIrCo:
    def test_sierpinski(self, sierpinski):
        assert points_of(ir_co(sierpinski)) == (1,)

    def test_discrete(self):
        assert ir_co(discrete(2)) == 0

    def test_chain_top(self):
        s = chain_space(5)
        assert points_of(ir_co(s)) == (4,)
        assert ir_co(s) == closures_intersection(s)

    def test_matches_intersection_oracle(self):
        # and the points whose only open neighborhood is the whole space
        for s in _spaces_upto(5):
            by_neighborhoods = mask_of(
                y for y in range(s.n) if s.min_opens[y] == s.full_mask
            )
            assert ir_co(s) == closures_intersection(s) == by_neighborhoods


class TestContractible:
    def test_sierpinski(self, sierpinski):
        assert ir_co(sierpinski) == 0b10

    def test_discrete(self):
        assert ir_co(discrete(2)) == 0

    def test_sierpinski_square(self, sierpinski):
        sq = product(sierpinski, sierpinski)
        assert points_of(ir_co(sq)) == (3,)


class TestPathConnected:
    def test_examples(self, sierpinski):
        assert is_ir_path_connected(sierpinski)
        assert not is_ir_path_connected(discrete(2))
        assert is_ir_path_connected(discrete(1))


class TestContinuousMap:
    def test_identity_and_constant(self, sierpinski):
        ContinuousMap(sierpinski, sierpinski, (0, 1))
        ContinuousMap(sierpinski, sierpinski, (1, 1))

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_non_int_value_refused(self, sierpinski, value):
        # a bool was stored as given, a float failed at indexing
        with pytest.raises(TypeError, match=re.escape(clip_repr(value))):
            ContinuousMap(sierpinski, sierpinski, (value, 1))

    def test_not_continuous_with_witness(self, sierpinski):
        with pytest.raises(NotContinuous) as info:
            ContinuousMap(sierpinski, sierpinski, (1, 0))
        assert info.value.witness_open == 0b01  # smallest open around 0

    def test_monotone_equals_preimage_open(self, spaces_upto3):
        # continuity via open preimages coincides with reach monotonicity;
        # checked for every assignment, continuous or not
        for dom in spaces_upto3:
            for cod in spaces_upto3:
                for assign in iproduct(range(cod.n), repeat=dom.n):
                    monotone = all(
                        cod.reach(assign[x], assign[y])
                        for x in range(dom.n)
                        for y in points_of(dom.reach_rows[x])
                    )
                    preimages_open = all(
                        dom.is_open(
                            sum(
                                1 << x
                                for x in range(dom.n)
                                if o >> assign[x] & 1
                            )
                        )
                        for o in cod.open_sets
                    )
                    assert monotone == preimages_open


class TestIrHomotopic:
    def test_identity_to_constant_top(self, sierpinski):
        f = ContinuousMap(sierpinski, sierpinski, tuple(range(sierpinski.n)))
        g = ContinuousMap(sierpinski, sierpinski, (1, 1))
        assert ir_homotopic(f, g) is True

    def test_directedness_witness(self, sierpinski):
        # the relation is not symmetric: identity deforms to the constant
        # at the top, never the other way around
        f = ContinuousMap(sierpinski, sierpinski, tuple(range(sierpinski.n)))
        g = ContinuousMap(sierpinski, sierpinski, (1, 1))
        assert ir_homotopic(f, g) is True
        assert ir_homotopic(g, f) is False

    def test_t1_codomain_forces_equality(self):
        d2 = discrete(2)
        maps = continuous_maps(d2, d2)
        for f in maps:
            for g in maps:
                if ir_homotopic(f, g):
                    assert f.assignment == g.assignment

    def test_reflexive(self, pseudocircle):
        f = ContinuousMap(pseudocircle, pseudocircle, tuple(range(pseudocircle.n)))
        assert ir_homotopic(f, f) is True

    def test_transitive(self, spaces_upto3):
        small = [s for s in spaces_upto3 if s.n <= 2]
        for dom in small:
            for cod in small:
                maps = continuous_maps(dom, cod)
                related = {
                    (f.assignment, g.assignment)
                    for f in maps
                    for g in maps
                    if ir_homotopic(f, g)
                }
                for fa, ga in related:
                    for gb, ha in related:
                        if ga == gb:
                            assert (fa, ha) in related

    def test_mismatch(self, sierpinski):
        f = ContinuousMap(sierpinski, sierpinski, tuple(range(sierpinski.n)))
        g = ContinuousMap(discrete(2), discrete(2), (0, 1))
        with pytest.raises(MapMismatch):
            ir_homotopic(f, g)

    def test_mismatch_on_one_side(self, sierpinski):
        # both spaces have 2 points, so only the check tells them apart
        d2 = discrete(2)
        f = ContinuousMap(sierpinski, sierpinski, (0, 1))
        with pytest.raises(MapMismatch):  # only the domain differs
            ir_homotopic(f, ContinuousMap(d2, sierpinski, (0, 1)))
        with pytest.raises(MapMismatch):  # only the codomain differs
            ir_homotopic(f, ContinuousMap(sierpinski, d2, (0, 0)))


class TestEquivalence:
    def test_identity_pair(self, pseudocircle):
        found = ir_homotopy_equivalent(pseudocircle, pseudocircle)
        assert found is not None

    def test_sierpinski_vs_point(self, sierpinski):
        # frozen by the exhaustive search itself: the two-point chain is
        # equivalent to the point, with g sending the point to the top
        point = discrete(1)
        found = ir_homotopy_equivalent(sierpinski, point)
        assert found is not None
        f, g = found
        assert f.assignment == (0, 0)
        assert g.assignment == (1,)

    def test_discrete2_vs_discrete3(self):
        assert ir_homotopy_equivalent(discrete(2), discrete(3)) is None

    def test_transitive_empirically(self, spaces_upto3):
        small = [s for s in spaces_upto3 if s.n <= 2]
        related = {
            (i, j)
            for i, a in enumerate(small)
            for j, b in enumerate(small)
            if ir_homotopy_equivalent(a, b) is not None
        }
        assert all((j, i) in related for i, j in related)
        for i, j in related:
            for k in range(len(small)):
                if (j, k) in related:
                    assert (i, k) in related

    def test_budget_guard(self, sierpinski, monkeypatch):
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "1")
        with pytest.raises(SearchBudgetExceeded):
            ir_homotopy_equivalent(sierpinski, sierpinski)

    def test_budget_counts_maps_built(self, monkeypatch):
        # 8 ** 8 assignments, far fewer monotone maps
        monkeypatch.delenv("IRTOPO_BUDGET_MAPS", raising=False)
        chain = chain_space(8)
        assert ir_homotopy_equivalent(chain, chain) is not None
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "1")
        with pytest.raises(SearchBudgetExceeded, match=r"\b1\b.*IRTOPO_BUDGET_MAPS"):
            ir_homotopy_equivalent(chain, chain)

    def test_budget_counts_both_directions_before_answering(self, monkeypatch):
        # one map one way, three the other; the first f has a partner, found
        # after one g, so only counting the side with three maps in full
        # refuses these inputs before an answer
        chain, point = chain_space(3), discrete(1)
        down = from_reach(["0", "1", "2"], [0b001, 0b011, 0b111])  # all reach 0
        for x, y, pair in ((chain, point, ((0, 0, 0), (2,))), (point, down, ((0,), (0, 0, 0)))):
            monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "2")
            with pytest.raises(SearchBudgetExceeded, match=r"\b2\b.*IRTOPO_BUDGET_MAPS"):
                ir_homotopy_equivalent(x, y)
            monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "3")
            f, g = ir_homotopy_equivalent(x, y)
            assert (f.assignment, g.assignment) == pair

    @pytest.mark.parametrize(
        "x, y, found",
        [
            (chain_space(2), discrete(1), True),
            (discrete(2), discrete(3), False),
            (FiniteSpace((), ()), discrete(1), False),
            (discrete(1), FiniteSpace((), ()), False),
            (FiniteSpace((), ()), FiniteSpace((), ()), True),
        ],
        ids=["answer", "no-answer", "empty-x", "empty-y", "both-empty"],
    )
    def test_walks_each_map_tree_once(self, monkeypatch, x, y, found):
        # each search made counts its runs without `within`; the maps f
        # (made first) are walked once, counting and pairing together
        unmasked = []
        make = homotopy._map_search

        def counting(domain, codomain):
            search, side = make(domain, codomain), len(unmasked)
            unmasked.append(0)

            def run(within=None):
                unmasked[side] += within is None
                return search(within)

            return run

        monkeypatch.setattr(homotopy, "_map_search", counting)
        assert (ir_homotopy_equivalent(x, y) is not None) == found
        assert unmasked == [1, 1]

    def test_builds_only_the_returned_maps(self, monkeypatch):
        # the search yields monotone assignments; only the answer is
        # validated, not the 2 * 24310 maps of the 9-chain to itself
        built = []
        check = ContinuousMap.__post_init__

        def counting(self):
            built.append(self.assignment)
            check(self)

        monkeypatch.setattr(ContinuousMap, "__post_init__", counting)
        chain = chain_space(9)
        f, g = ir_homotopy_equivalent(chain, chain)
        assert built == [f.assignment, g.assignment]
        assert len(continuous_maps(chain_space(3), chain_space(3))) == 10
        assert len(built) == 12  # continuous_maps still returns validated maps

    def test_budget_allows_exactly_the_limit(self, sierpinski, monkeypatch):
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "3")
        assert len(continuous_maps(sierpinski, sierpinski)) == 3
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "2")
        with pytest.raises(SearchBudgetExceeded):
            continuous_maps(sierpinski, sierpinski)

    def test_budget_counts_abandoned_partial_maps(self, monkeypatch):
        # n - 1 unrelated points all reaching an apex, into a discrete space:
        # m ** (n - 1) partial maps, of which only the m constant ones extend
        def cone(n):
            return from_reach([str(i) for i in range(n)], [1 << i | 1 << n - 1 for i in range(n)])

        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "4")
        maps = continuous_maps(cone(3), discrete(2))
        assert [f.assignment for f in maps] == [(0, 0, 0), (1, 1, 1)]
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "3")
        with pytest.raises(SearchBudgetExceeded):
            continuous_maps(cone(3), discrete(2))
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "1000")
        with pytest.raises(SearchBudgetExceeded, match=r"\b1000\b.*IRTOPO_BUDGET_MAPS"):
            ir_homotopy_equivalent(cone(12), discrete(12))

    def test_budget_env_override(self, sierpinski, monkeypatch):
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "1")
        with pytest.raises(SearchBudgetExceeded):
            continuous_maps(sierpinski, sierpinski)
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "100")
        assert continuous_maps(sierpinski, sierpinski)

    def test_malformed_budget_env_is_named(self, sierpinski, monkeypatch):
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "abc")
        with pytest.raises(IrtopoError, match="IRTOPO_BUDGET_MAPS.*'abc'"):
            ir_homotopy_equivalent(sierpinski, sierpinski)

    def test_negative_budget_env_is_rejected(self, monkeypatch):
        # a negative budget must not switch the limit off
        monkeypatch.setenv("IRTOPO_BUDGET_MAPS", "-1")
        with pytest.raises(IrtopoError, match="IRTOPO_BUDGET_MAPS.*'-1'"):
            continuous_maps(discrete(6), discrete(4))


def reference_maps(dom, cod):
    """Every assignment of the full product that ContinuousMap accepts."""
    out = []
    for assign in iproduct(range(cod.n), repeat=dom.n):
        try:
            out.append(ContinuousMap(dom, cod, assign))
        except NotContinuous:
            pass
    return out


def reference_equivalence(x, y):
    """The first pair, in lexicographic order, whose composites are
    deformable from the identities, found with ir_homotopic."""
    id_x = ContinuousMap(x, x, tuple(range(x.n)))
    id_y = ContinuousMap(y, y, tuple(range(y.n)))
    gs = reference_maps(y, x)
    for f in reference_maps(x, y):
        for g in gs:
            gf = ContinuousMap(x, x, tuple(g(f(p)) for p in range(x.n)))
            fg = ContinuousMap(y, y, tuple(f(g(q)) for q in range(y.n)))
            if ir_homotopic(id_x, gf) and ir_homotopic(id_y, fg):
                return f, g
    return None


def _assignments(found):
    return None if found is None else (found[0].assignment, found[1].assignment)


@pytest.fixture(scope="module")
def reference_pairs(spaces_upto3):
    # every pair of spaces with at most 3 points, plus a seeded sample of
    # pairs of 4-point spaces
    four = list(enumerate_spaces(4))
    rng = random.Random(0)
    sample = [(rng.choice(four), rng.choice(four)) for _ in range(100)]
    return [(a, b) for a in spaces_upto3 for b in spaces_upto3] + sample


class TestAgainstReference:
    def test_continuous_maps(self, reference_pairs):
        for dom, cod in reference_pairs:
            got = [f.assignment for f in continuous_maps(dom, cod)]
            assert got == [f.assignment for f in reference_maps(dom, cod)]

    def test_equivalence(self, reference_pairs):
        for x, y in reference_pairs:
            assert _assignments(ir_homotopy_equivalent(x, y)) == _assignments(
                reference_equivalence(x, y)
            )

    def test_empty_domain_has_one_map(self, sierpinski):
        empty = from_reach([], [])
        for cod in (empty, sierpinski):
            maps = continuous_maps(empty, cod)
            assert [f.assignment for f in maps] == [()]
        assert continuous_maps(sierpinski, empty) == []
