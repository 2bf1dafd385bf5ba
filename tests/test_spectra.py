import math
import random
import time
from itertools import combinations

import pytest

from irtopo import (
    InvalidModulus,
    NotAPartialOrder,
    SearchBudgetExceeded,
    check_theorem8,
    factorize,
    ir_cat,
    ir_co,
    mask_of,
    points_of,
    spec_from_poset,
    spec_zn,
)
from irtopo.verifier import enumerate_spaces


def test_factorize_basics():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(InvalidModulus):
        factorize(1)
    with pytest.raises(SearchBudgetExceeded):
        factorize(10**13)


@pytest.mark.parametrize("n", [12.0, True, "12"], ids=repr)
def test_factorize_rejects_non_int(n):
    # 12.0 would factor as [(2, 2), (3.0, 1)] and label a point "(3.0)"
    for func in (factorize, spec_zn):
        with pytest.raises(TypeError, match=f"modulus must be an int, got {n!r}"):
            func(n)


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


@pytest.mark.parametrize(
    "values",
    [range(2, 20_001), [999_983 * 999_979, 2**39, 3**25, 10**12, 600_851_475_143]],
    ids=["upto-20000", "large"],
)
def test_factorize_oracle(values):
    # the factors multiply back to n, their primes strictly ascend and
    # each is prime by trial division
    for n in values:
        factors = factorize(n)
        product = 1
        for p, e in factors:
            assert e >= 1
            product *= p**e
        assert product == n
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))
        assert all(map(_is_prime, primes))


class TestSpecZn:
    def test_two_primes(self):
        s = spec_zn(12)
        assert s.labels == ("(2)", "(3)")
        assert s.is_t1()
        assert s.closed_points() == s.full_mask
        assert ir_cat(s).size == 2

    def test_prime_gives_singleton(self):
        s = spec_zn(7)
        assert s.n == 1
        assert ir_co(s) == 1  # a one-point spectrum deforms onto itself

    def test_four_primes(self):
        s = spec_zn(2 * 3 * 5 * 7)
        assert s.n == 4
        assert ir_cat(s).size == 4

    def test_depends_only_on_radical(self):
        assert spec_zn(12) == spec_zn(6)
        assert spec_zn(12).labels == spec_zn(6).labels
        # same shape, different primes: equal as spaces, labels differ
        assert spec_zn(10) == spec_zn(12)
        assert spec_zn(10).labels != spec_zn(12).labels

    def test_invalid(self):
        with pytest.raises(InvalidModulus):
            spec_zn(0)


class TestSpecFromPoset:
    def test_local_chain(self):
        s = spec_from_poset(["(0)", "(p)"], [(0, 1)])
        assert points_of(s.closed_points()) == (1,)
        assert points_of(ir_co(s)) == (1,)
        assert ir_cat(s).size == 1

    def test_antichain(self):
        s = spec_from_poset(["M1", "M2", "M3"], [])
        assert s.closed_points() == 0b111
        assert ir_cat(s).size == 3

    def test_v_poset(self):
        s = spec_from_poset(["(0)", "M1", "M2"], [(0, 1), (0, 2)])
        assert points_of(s.closed_points()) == (1, 2)
        rep = ir_cat(s)
        assert rep.size == 2
        # optimal cover removes one maximal ideal at a time
        assert rep.sets == (0b011, 0b101)

    def test_rejects_cycle(self):
        with pytest.raises(NotAPartialOrder, match="antisymmetric"):
            spec_from_poset(["a", "b"], [(0, 1), (1, 0)])

    def test_antisymmetry_witness_is_the_least_x_first(self):
        # classes {1, 2} and {0, 5}: 1 = 2 is met first, but 0 is the least x
        pairs = [(1, 2), (2, 1), (0, 5), (5, 0)]
        with pytest.raises(NotAPartialOrder) as e:
            spec_from_poset([f"p{i}" for i in range(6)], pairs)
        assert str(e.value) == "not antisymmetric: 'p0' <= 'p5' <= 'p0'"

    @pytest.mark.parametrize("seed", range(20))
    def test_antisymmetry_witness_matches_the_pairwise_scan(self, seed):
        # a random preorder: n points in m < n classes, so two rows agree,
        # under a random order of the classes closed transitively
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        m = rng.randint(1, n - 1)
        cls = [rng.randrange(m) for _ in range(n)]
        up = [1 << c | sum(1 << d for d in range(c + 1, m) if rng.random() < 0.3) for c in range(m)]
        for c in reversed(range(m)):
            for d in points_of(up[c] >> c + 1):
                up[c] |= up[c + 1 + d]
        rows = [mask_of(y for y in range(n) if up[cls[x]] >> cls[y] & 1) for x in range(n)]
        x, y = next((x, y) for x, y in combinations(range(n), 2) if rows[x] == rows[y])
        leq = [(a, b) for a in range(n) for b in points_of(rows[a]) if a != b]
        with pytest.raises(NotAPartialOrder) as e:
            spec_from_poset([f"p{i}" for i in range(n)], leq)
        assert str(e.value) == f"not antisymmetric: 'p{x}' <= 'p{y}' <= 'p{x}'"

    def test_antisymmetry_witness_is_linear(self):
        # one equal pair at the end of 8,000 points: a pairwise scan takes seconds
        n = 8000
        start = time.perf_counter()
        with pytest.raises(NotAPartialOrder, match="'p7998' <= 'p7999'"):
            spec_from_poset([f"p{i}" for i in range(n)], [(n - 2, n - 1), (n - 1, n - 2)])
        assert time.perf_counter() - start < 1

    def test_rejects_missing_transitivity(self):
        with pytest.raises(NotAPartialOrder, match="transitive"):
            spec_from_poset(["a", "b", "c"], [(0, 1), (1, 2)])

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            spec_from_poset(["a"], [(0, 4)])


class TestTheorem8:
    def test_zn_360(self):
        ok, rep = check_theorem8(spec_zn(360))
        assert ok and rep.size == 3

    def test_local_chain(self):
        ok, rep = check_theorem8(spec_from_poset(["(0)", "(p)"], [(0, 1)]))
        assert ok and rep.size == 1

    def test_expected_cover_shape(self):
        # complements of "all other maximal ideals" always give a valid
        # deformable cover of the right size
        s = spec_from_poset(
            ["(0)", "M1", "M2", "M3"], [(0, 1), (0, 2), (0, 3)]
        )
        ok, rep = check_theorem8(s)
        assert ok and rep.size == 3
        maximal = s.closed_points()
        others = [s.full_mask & ~(maximal & ~(1 << m)) for m in points_of(maximal)]
        union = 0
        for w in others:
            assert s.is_open(w)
            union |= w
        assert union == s.full_mask

    def test_all_small_posets(self, spaces_upto4):
        for s in spaces_upto4:
            if not s.is_t0():
                continue
            ok, _ = check_theorem8(spec_from_poset(s.labels, s.reach_pairs()))
            assert ok

    def test_optimal_cover_is_the_neighbourhoods_of_the_maximal_ideals(self, spaces_upto4):
        # not the complements of the other maximal ideals: for a < M1,
        # c < M2 the cover is {a, M1}, {c, M2}, while the complement of
        # {M2} is {a, c, M1}
        s = spec_from_poset(["a", "M1", "c", "M2"], [(0, 1), (2, 3)])
        assert check_theorem8(s)[1].sets == (0b0011, 0b1100)
        for s in spaces_upto4:
            if s.is_t0():
                _, rep = check_theorem8(s)
                maximal = points_of(s.closed_points())
                assert sorted(rep.sets) == sorted(s.min_opens[m] for m in maximal)

    def test_swept_posets_are_their_own_spectra(self):
        # the verifier sweeps T0 spaces as spectra without rebuilding them
        posets = [s for n in range(1, 6) for s in enumerate_spaces(n) if s.is_t0()]
        assert len(posets) == 4473
        for s in posets:
            sp = spec_from_poset(s.labels, s.reach_pairs())
            assert (sp.labels, sp.reach_rows) == (s.labels, s.reach_rows)


class TestSpecInvariants:
    def _posets(self):
        for n in range(1, 4):
            for s in enumerate_spaces(n):
                if s.is_t0():
                    yield s

    def test_spectra_are_t0_and_t1_iff_antichain(self):
        for s in self._posets():
            pairs = s.reach_pairs()
            sp = spec_from_poset(s.labels, pairs)
            assert sp.is_t0()
            assert sp.is_t1() == (not pairs)

    def test_closure_is_up_set(self):
        s = spec_from_poset(["(0)", "M1", "M2"], [(0, 1), (0, 2)])
        assert s.reach_rows[0] == 0b111
        assert s.reach_rows[1] == 0b010

    def test_core_iff_unique_maximal(self):
        for s in self._posets():
            sp = spec_from_poset(s.labels, s.reach_pairs())
            core = ir_co(sp)
            maximal = sp.closed_points()
            if maximal.bit_count() == 1:
                assert core == maximal
            else:
                assert core == 0
