import random
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
    enumerate_spaces,
    from_reach,
    ir_co,
    ir_homotopic,
    ir_homotopy_equivalent,
    ir_path,
    is_ir_path_connected,
    points_of,
    product,
)

from irtopo.homotopy import continuous_maps
from irtopo.verifier import _check_t11

from conftest import discrete, indiscrete


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

    def test_matches_intersection_oracle(self, spaces_upto3):
        for s in spaces_upto3:
            assert ir_co(s) == closures_intersection(s)


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
