import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from irtopo import (
    ArityMismatch,
    EmptySpace,
    OutOfRange,
    ball,
    chain_space,
    d_ir,
    grid_subspace,
    ir_cat,
    ir_co,
    points_of,
)
from irtopo import intervals
from irtopo.core import FiniteSpace
from irtopo.intervals import as_fraction, format_fraction
from irtopo.verifier import _UNIT, _check_p1, _check_t1, _check_t10, _t1_instances, _t10_batches


class TestDistance:
    def test_forward(self):
        assert d_ir(Fraction(1, 5), Fraction(1, 2)) == Fraction(3, 10)

    def test_asymmetry(self):
        assert d_ir(Fraction(1, 2), Fraction(1, 5)) == 0

    def test_self_distance(self):
        assert d_ir(Fraction(3, 7), Fraction(3, 7)) == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            d_ir(Fraction(3, 2), Fraction(1, 2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            d_ir(0.2, Fraction(1, 2))

    @pytest.mark.parametrize("flag", [True, False])
    def test_booleans_rejected(self, flag):
        with pytest.raises(TypeError, match="bools are not accepted"):
            as_fraction(flag)

    @pytest.mark.parametrize("text", ["1e-100000000", "1E5", "2.5e3", "-1e0", "1/2e3"])
    def test_exponent_notation_rejected(self, text):
        with pytest.raises(ValueError, match="exponent notation"):
            as_fraction(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("abc", "Invalid literal for Fraction: 'abc'"),
            ("1/x" + "x" * 100_000, "Invalid literal for Fraction: '1/" + "x" * 37 + "..."),
            ("1" * 4000 + "/0", "zero denominator in '" + "1" * 39 + "..."),
        ],
        ids=["short", "long-literal", "long-zero-denominator"],
    )
    def test_quoted_input_is_clipped(self, text, message):
        with pytest.raises(ValueError) as err:
            as_fraction(text)
        assert str(err.value) == message

    def test_string_fractions_accepted(self):
        assert d_ir("1/5", "1/2") == Fraction(3, 10)


def _unit_by_comparison(v, name):
    # the reference form of intervals._unit: compares the Fraction to ints
    f = as_fraction(v)
    if not 0 <= f <= 1:
        raise OutOfRange(f"{name} must lie in [0, 1], got {f}")
    return f


def _d_ir_by_max(x, y):
    x = _unit_by_comparison(x, "x")
    y = _unit_by_comparison(y, "y")
    return max(y - x, Fraction(0))


_BIG = 10**40
EDGE_VALUES = [
    Fraction(0, 1), Fraction(1, 1), Fraction(-1, 3), Fraction(4, 3), Fraction(1, 2),
    Fraction(_BIG - 1, _BIG), Fraction(_BIG + 1, _BIG), Fraction(-_BIG, 7), Fraction(_BIG, 3),
    0, 1, 2, -1, _BIG,
    "0/1", "1/1", "1/2", "-1/3", "4/3", f"{_BIG - 1}/{_BIG}", "1/0", "half",
]


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "returned", type(value), value


@pytest.mark.parametrize("v", EDGE_VALUES, ids=repr)
def test_unit_matches_the_comparison_form(v):
    assert _outcome(intervals._unit, v, "x") == _outcome(_unit_by_comparison, v, "x")


def test_d_ir_matches_the_max_form():
    for x in EDGE_VALUES:
        for y in EDGE_VALUES:
            assert _outcome(d_ir, x, y) == _outcome(_d_ir_by_max, x, y), (x, y)


def _ball_by_operators(x, eps):
    # the reference form of intervals.ball, through the Fraction operators
    x = _unit_by_comparison(x, "x")
    eps = as_fraction(eps)
    if eps <= 0:
        raise OutOfRange("radius must be positive")
    hi = x + eps
    if hi > 1:
        return intervals.Ball(Fraction(1), whole_space=True)
    return intervals.Ball(hi, whole_space=False)


def _exact(outcome):
    # a returned Fraction compared by type, numerator and denominator
    kind, typ, value = outcome
    if kind == "returned" and isinstance(value, intervals.Ball):
        value = (value.whole_space, type(value.hi), value.hi.numerator, value.hi.denominator)
    elif kind == "returned":
        value = (value.numerator, value.denominator)
    return kind, typ, value


# every fraction in [0, 1] and every radius in (0, 2] with denominator at
# most 12; both hold 0 and 1, and x + eps hits 1 exactly
_TWELFTHS = sorted({Fraction(p, q) for q in range(1, 13) for p in range(0, 2 * q + 1)})
_UNIT_GRID = [f for f in _TWELFTHS if f <= 1]
_RADII = [f for f in _TWELFTHS if f > 0]


def test_d_ir_matches_the_operators_on_twelfths():
    for x in _UNIT_GRID:
        for y in _UNIT_GRID:
            assert _exact(_outcome(d_ir, x, y)) == _exact(_outcome(_d_ir_by_max, x, y)), (x, y)


def test_ball_matches_the_operators_on_twelfths():
    whole = half_open_at_one = 0
    for x in _UNIT_GRID:
        for eps in _RADII:
            got = _exact(_outcome(ball, x, eps))
            assert got == _exact(_outcome(_ball_by_operators, x, eps)), (x, eps)
            whole += got[2][0]
            # hi == 1 is still an initial segment, not the whole space
            half_open_at_one += x + eps == 1 and not got[2][0]
    assert whole and half_open_at_one == len(_UNIT_GRID) - 1


def _p1_by_operators(inst):
    # the reference form of verifier._check_p1: the triangle inequality
    # through the Fraction operators
    x, y, z, eps = inst
    d = intervals.d_ir
    if d(x, x) != 0:
        return {"axiom": "identity", "x": format_fraction(x)}
    dxy = d(x, y)
    if d(x, z) > dxy + d(y, z):
        return {"axiom": "triangle", "x": format_fraction(x), "y": format_fraction(y), "z": format_fraction(z)}
    if dxy == 0 == d(y, x) and x != y:
        return {"axiom": "separation", "x": format_fraction(x), "y": format_fraction(y)}
    b = intervals.ball(x, eps)
    hi = x + eps
    if b.whole_space:
        if hi <= 1:
            return {"axiom": "ball-clip", "x": format_fraction(x), "eps": format_fraction(eps)}
    elif b.hi != hi:
        return {"axiom": "ball-endpoint", "x": format_fraction(x), "eps": format_fraction(eps)}
    return None


def _d_ir_off(unit):
    # d_ir with a positive distance off by one unit of the common denominator
    def d(x, y):
        (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
        diff = yn * xd - xn * yd
        return Fraction(diff + unit, xd * yd) if diff > 0 else Fraction(0)

    return d


def _ball_off(unit):
    # ball with the numerator of x + eps off by one unit of its denominator
    def b(x, eps):
        (xn, xd), (en, ed) = x.as_integer_ratio(), eps.as_integer_ratio()
        num, den = xn * ed + en * xd + unit, xd * ed
        return intervals.Ball(Fraction(1), True) if num > den else intervals.Ball(Fraction(num, den), False)

    return b


# every 11th (x, y, z) of the unit grid in product order, so z steps
# through the grid, each with a radius in turn
_P1_GRID = [
    (x, y, z, _RADII[i % len(_RADII)])
    for i, (x, y, z) in enumerate(itertools.islice(itertools.product(_UNIT_GRID, repeat=3), 0, None, 11))
]


@pytest.mark.parametrize(
    "name, mutant, flagged",
    [
        ("d_ir", None, set()),
        ("d_ir", _d_ir_off(1), {"triangle"}),
        ("d_ir", _d_ir_off(-1), {"triangle", "separation"}),
        ("ball", _ball_off(1), {"ball-endpoint", "ball-clip"}),
        ("ball", _ball_off(-1), {"ball-endpoint"}),
    ],
    ids=["none", "d_ir+1", "d_ir-1", "ball+1", "ball-1"],
)
def test_p1_flags_what_the_operator_form_flags(monkeypatch, name, mutant, flagged):
    # a d_ir or ball off by one unit in the last place: P1's check with its
    # cross-multiplied triangle inequality names the same axiom as the
    # check through the Fraction operators, on every instance
    if mutant is not None:
        monkeypatch.setattr(intervals, name, mutant)
    axioms = set()
    for inst in _P1_GRID:
        got = _check_p1(inst)
        assert got == _p1_by_operators(inst), inst
        if got is not None:
            axioms.add(got["axiom"])
    assert axioms == flagged


# rejected inputs: bools, floats, exponent notation, zero denominators,
# out-of-range points and non-positive radii
REJECTED = [True, False, 0.5, 1.0, "1e-3", "2E1", "1/0", "x", Fraction(-1, 3), Fraction(4, 3), -1, 2]


@pytest.mark.parametrize("bad", REJECTED, ids=repr)
def test_rejections_match_the_operator_forms(bad):
    half = Fraction(1, 2)
    assert _outcome(d_ir, bad, half) == _outcome(_d_ir_by_max, bad, half)
    assert _outcome(d_ir, half, bad) == _outcome(_d_ir_by_max, half, bad)
    assert _outcome(ball, bad, half) == _outcome(_ball_by_operators, bad, half)
    assert _outcome(ball, half, bad) == _outcome(_ball_by_operators, half, bad)
    # x is checked before the radius
    assert _outcome(ball, bad, 0) == _outcome(_ball_by_operators, bad, 0)


@pytest.mark.parametrize("eps", [0, Fraction(0), "0/5", -1, Fraction(-1, 12), "-1/2"], ids=repr)
def test_non_positive_radius_rejected_as_before(eps):
    assert _outcome(ball, Fraction(1, 3), eps) == _outcome(_ball_by_operators, Fraction(1, 3), eps)
    assert _outcome(ball, Fraction(1, 3), eps)[1] is OutOfRange


units = st.fractions(min_value=0, max_value=1, max_denominator=200)


@given(units, units, units)
def test_quasi_metric_axioms(x, y, z):
    assert d_ir(x, x) == 0
    assert d_ir(x, z) <= d_ir(x, y) + d_ir(y, z)
    if d_ir(x, y) == 0 and d_ir(y, x) == 0:
        assert x == y


class TestBall:
    def test_plain(self):
        b = ball(Fraction(3, 10), Fraction(1, 5))
        assert b.hi == Fraction(1, 2)
        assert not b.whole_space
        assert str(b) == "[0/1, 1/2)"

    def test_clipped_to_whole_space(self):
        b = ball(Fraction(9, 10), Fraction(1, 2))
        assert b.whole_space
        assert str(b) == "[0/1, 1/1]"

    def test_radius_one_from_zero_is_half_open(self):
        b = ball(Fraction(0), Fraction(1))
        assert not b.whole_space
        assert b.hi == 1

    def test_bad_radius(self):
        with pytest.raises(OutOfRange):
            ball(Fraction(1, 2), Fraction(0))

    @given(units, st.fractions(min_value="1/200", max_value=1, max_denominator=200))
    def test_endpoint_matches_left_segment(self, x, eps):
        b = ball(x, eps)
        if x + eps > 1:
            assert b.whole_space
        else:
            assert format_fraction(b.hi) == format_fraction(x + eps)


class TestChainSpace:
    def test_two_points_is_bottom_open_top_closed(self, sierpinski):
        assert chain_space(2) == sierpinski

    def test_single_point(self):
        assert chain_space(1).reach_rows == (1,)

    def test_five_points(self):
        s = chain_space(5)
        assert points_of(ir_co(s)) == (4,)
        assert ir_cat(s).size == 1

    def test_chain_properties(self):
        for k in range(1, 9):
            s = chain_space(k)
            assert s.is_t0()
            assert s.is_hyperconnected()
            assert ir_co(s) == 1 << (k - 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            chain_space(0)

    @pytest.mark.parametrize("k", [True, False, 2.0, "3"])
    def test_non_int_rejected(self, k):
        # True would pass as the 1-point chain and 2.0 fail only at the shift
        with pytest.raises(TypeError, match="k must be an int"):
            chain_space(k)


class TestCompactness:
    """Claim T1's check: compact exactly through a greatest element."""

    def test_finite_set(self):
        values = (Fraction(1, 10), Fraction(7, 10), Fraction(3, 10))
        assert _check_t1(("finite", values)) is None

    def test_singleton(self):
        assert _check_t1(("finite", (Fraction(2, 3),))) is None

    def test_half_open_interval_not_compact(self):
        assert _check_t1(("open", _UNIT)) is None
        # a degenerate [1, 1) is empty, not a half-open interval
        assert _check_t1(("open", (Fraction(1), Fraction(1)))) == {
            "kind": "open",
            "interval": ["1/1", "1/1"],
        }

    def test_closed_interval_compact(self):
        assert _check_t1(("closed", _UNIT)) is None

    def test_finite_check_sees_a_reversed_order(self, monkeypatch):
        # with up-sets for opens the greatest point would be open alone
        real = intervals.grid_subspace
        monkeypatch.setattr(
            intervals, "grid_subspace", lambda pts: real([(-c,) for (c,) in pts])
        )
        values = (Fraction(1, 10), Fraction(3, 10))
        assert _check_t1(("finite", values)) == {
            "kind": "finite",
            "values": ["1/10", "3/10"],
        }

    def test_seeded_finite_sets(self):
        for seed in range(10):
            for inst in _t1_instances(5, 3, seed):
                assert _check_t1(inst) is None


def _pairwise_grid(points):
    """``grid_subspace`` as it compared every pair of points, kept as the
    reference of its sort: p reaches q when p <= q in every coordinate."""
    pts = [tuple(as_fraction(c) for c in p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("grid points must be distinct")
    labels = tuple("(" + ",".join(format_fraction(c) for c in p) + ")" for p in pts)
    rows = [
        sum(1 << j for j, q in enumerate(pts) if all(pc <= qc for pc, qc in zip(p, q)))
        for p in pts
    ]
    return FiniteSpace(labels, tuple(rows))


class TestGrid:
    def test_box_corners(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        space = grid_subspace(pts)
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                expected = all(a <= b for a, b in zip(p, q))
                assert space.reach(i, j) == expected
        assert points_of(ir_co(space)) == (3,)

    def test_antichain_has_empty_core(self):
        space = grid_subspace([(1, 0), (0, 1)])
        assert ir_co(space) == 0

    def test_single_point(self):
        space = grid_subspace([(Fraction(1, 2),)])
        assert ir_co(space) == 1

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            grid_subspace([(0, 1), (1,)])

    def test_empty_rejected(self):
        with pytest.raises(EmptySpace):
            grid_subspace([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            grid_subspace([(0, 1), (0, 1)])

    @pytest.mark.parametrize("grids", ["T1", "T10", "seeded"])
    def test_sorted_rows_match_the_pairwise_reference(self, grids):
        # the grid subspace of each of T1's and T10's seeded grids, and of
        # seeded grids of 1 to 3 coordinates and up to 24 points, drawn
        # with ties and negative values, or the error it raises, is what
        # the pairwise reference gives
        import random

        if grids == "T1":
            cases = [[(v,) for v in inst[1]] for seed in range(5) for inst in _t1_instances(5, 3, seed)]
        elif grids == "T10":
            cases = [batch for seed in range(5) for batch in _t10_batches(5, 3, seed)]
        else:
            rng = random.Random(11)
            cases = [
                [
                    tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(arity))
                    for _ in range(rng.randint(1, 24))
                ]
                for arity in (1, 2, 3) for _ in range(100)
            ]
            cases += [[()], [(), ()], [(1, 2), (Fraction(2, 2), Fraction(4, 2))]]
        raised = 0
        for pts in cases:
            try:
                expected = _pairwise_grid(pts)
            except ValueError as e:
                raised += 1
                with pytest.raises(ValueError, match=f"^{e}$"):
                    grid_subspace(pts)
            else:
                got = grid_subspace(pts)
                assert (got.labels, got.reach_rows) == (expected.labels, expected.reach_rows)
        assert raised if grids == "seeded" else not raised

    def test_grids_are_partial_orders(self):
        import random

        rng = random.Random(7)
        for _ in range(20):
            pts = {
                tuple(Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(2))
                for _ in range(rng.randint(1, 7))
            }
            assert grid_subspace(sorted(pts)).is_t0()


class TestTheorem10:
    """Claim T10's check: the coordinatewise greatest point is the core."""

    def test_box_corners(self):
        assert _check_t10([(0, 0), (1, 0), (0, 1), (1, 1)]) is None
        assert _check_t10([(1, 1), (0, 0), (1, 0)]) is None

    def test_antichain_fails_hypothesis(self):
        # no greatest point, so the grid is reported, not skipped
        assert _check_t10([(1, 0), (0, 1)]) == {
            "points": [["1/1", "0/1"], ["0/1", "1/1"]]
        }

    def test_random_sets_with_max_appended(self):
        import random

        rng = random.Random(11)
        for _ in range(20):
            arity = rng.randint(1, 3)
            pts = {
                tuple(
                    Fraction(rng.randint(0, 9), rng.randint(1, 9))
                    for _ in range(arity)
                )
                for _ in range(rng.randint(1, 6))
            }
            pts = sorted(pts)
            top = tuple(max(p[i] for p in pts) for i in range(arity))
            if top not in pts:
                pts.append(top)
            assert _check_t10(pts) is None


def test_as_fraction_and_format():
    assert as_fraction("2/4") == Fraction(1, 2)
    half = Fraction(1, 2)
    assert as_fraction(half) is half  # immutable, so returned as is

    class Tagged(Fraction):
        pass

    copied = as_fraction(Tagged(1, 3))
    assert type(copied) is Fraction and copied == Fraction(1, 3)
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(3)) == "3/1"
    assert format_fraction(Fraction(0)) == "0/1"
