import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import operator
import os
import re
import subprocess
import sys
from collections import Counter
from functools import lru_cache, reduce
from pathlib import Path

import pytest

from irtopo import (
    SearchBudgetExceeded,
    category,
    chain_space,
    ir_homotopic,
)
from irtopo.core import FiniteSpace, ReachNotPreorder, from_reach, points_of, product, transpose
from irtopo.homotopy import continuous_maps
from irtopo.verifier import (
    CLAIM_ORDER,
    CLAIMS,
    MAX_PAIR_POINTS,
    UnknownClaim,
    _check_t3,
    _check_t11,
    _meets,
    _p1_instances,
    _pairs,
    _packed_covers,
    _padded_cover,
    _smallest_boxes,
    _space_table,
    _spaces_upto,
    _SWEEPS,
    box_topology,
    chain_homotopy_oracle,
    enumerate_spaces,
    run_claim,
    run_suite,
    suite_passed,
    suite_to_jsonable,
    topologies_by_open_families,
)
from irtopo.spaceio import dumps_canonical, space_to_dict

from conftest import discrete, sphere_model, union_closure_opens


EXPECTED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}


def _inline_pool(sizes, maps=None):
    """A stand-in for ProcessPoolExecutor that appends its size to sizes
    and runs each task in this process; when maps is given, each map call
    appends its number of tasks to it."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            results = list(map(fn, *iterables))
            if maps is not None:
                maps.append(len(results))
            return results

    return InlinePool


def _space_cover_pairs(claim, s):
    """The (optimal cover, cover) pair of each cover that L1 or L2_subcover
    decides at the space s, read from the cover walk itself; L2_subcover
    also decides the padded cover."""
    rep = category.ir_cat(s)
    padded = _padded_cover(s, rep)
    covers = list(category.irredundant_covers(s))
    if claim == "L2_subcover" and padded is not None:
        covers.append(padded)
    return [(rep.sets, cov) for cov in covers]


def _cover_pairs(claim, n_max):
    """``_space_cover_pairs`` at each space of at most n_max points, in order."""
    return [pair for s in _spaces_upto(n_max) for pair in _space_cover_pairs(claim, s)]


def _reps(n_max):
    """The canonical member of each class of at most n_max points, the
    spaces the class sweep checks, in its order."""
    from irtopo import verifier

    found = []
    for n in range(1, n_max + 1):
        labels = tuple(map(str, range(n)))
        found += [FiniteSpace(labels, tuple(rows)) for rows, _ in verifier._classes(n)]
    return found


def _relabellings(s):
    """The reach rows of every relabelling of s: point x moved to perm[x],
    with the points its row holds."""
    found = set()
    for perm in itertools.permutations(range(s.n)):
        rows = [0] * s.n
        for x, row in enumerate(s.reach_rows):
            for y in points_of(row):
                rows[perm[x]] |= 1 << perm[y]
        found.add(tuple(rows))
    return found


def _most_held(pairs):
    """The pair held by the most spaces (the greatest among ties) and
    their number."""
    return max(Counter(pairs).items(), key=lambda item: (item[1], item[0]))


def _failing_on(helper, target):
    """``category.<helper>`` deciding ``target`` wrong and every other pair
    as the real decision does."""
    real = getattr(category, helper)

    def decide(optimal, cov):
        if (tuple(optimal), tuple(cov)) == target:
            if helper == "refinement_mapping":
                return False, None
            raise category.SubcoverNotFound("failing on purpose")
        return real(optimal, cov)

    return decide


_COVER_HELPERS = [("L1", "refinement_mapping"), ("L2_subcover", "greedy_subcover")]


class TestEnumeration:
    def test_counts_up_to_four(self):
        for n, expected in EXPECTED_COUNTS.items():
            assert sum(1 for _ in enumerate_spaces(n)) == expected

    def test_canonical_order_and_uniqueness(self):
        for n in range(1, 5):
            rows = [s.reach_rows for s in enumerate_spaces(n)]
            assert rows == sorted(rows)
            assert len(set(rows)) == len(rows)

    def test_two_point_spaces(self):
        rows = [s.reach_rows for s in enumerate_spaces(2)]
        assert rows == [(1, 2), (1, 3), (3, 2), (3, 3)]

    def test_every_yield_is_a_preorder(self):
        from irtopo.core import points_of

        for n in range(1, 4):
            for s in enumerate_spaces(n):
                for x in range(n):
                    assert s.reach(x, x)
                    for y in points_of(s.reach_rows[x]):
                        assert s.reach_rows[y] & ~s.reach_rows[x] == 0

    def test_budget(self):
        # refused at the call, before any item is asked for
        with pytest.raises(SearchBudgetExceeded):
            enumerate_spaces(7)
        with pytest.raises(SearchBudgetExceeded):
            enumerate_spaces(0)

    @pytest.mark.parametrize("n", [2.5, True, "2"], ids=repr)
    def test_non_int_rejected_before_any_space_is_built(self, monkeypatch, n):
        # True would pass the range check and yield the 1-point table
        from irtopo import verifier

        built = []
        monkeypatch.setattr(verifier, "_space_table", built.append)
        with pytest.raises(TypeError, match=f"n must be an int, got {n!r}"):
            enumerate_spaces(n)
        assert built == []

    def test_every_call_yields_equal_fresh_spaces(self):
        # the table holds rows only, so each call builds new spaces, with
        # nothing worked out yet and the labels "0" to str(n - 1)
        for n in range(1, 6):
            first, again = list(enumerate_spaces(n)), list(enumerate_spaces(n))
            assert first == again
            assert not any(a is b for a, b in zip(first, again))
            for s in first:
                assert s.labels == tuple(map(str, range(n)))
                assert s._min_opens is None and s._open_sets is None

    def test_children_are_every_preorder_extension(self):
        # The spaces on n points whose first n - 1 points restrict to P
        # must be every pair (I, O) of masks over P, with I reaching the
        # new last point and O reached from it, that from_reach accepts.
        for n in range(1, 6):
            bit_p = 1 << (n - 1)
            drawn = {}
            children = list(enumerate_spaces(n))
            for child in children:
                parent = tuple(row & ~bit_p for row in child.reach_rows[:-1])
                drawn.setdefault(parent, set()).add(child.reach_rows)
            assert sum(map(len, drawn.values())) == len(children)
            brute = {}
            for space in enumerate_spaces(n - 1) if n > 1 else [FiniteSpace((), ())]:
                found = brute[space.reach_rows] = set()
                for incoming in range(bit_p):
                    head = tuple(
                        row | bit_p if incoming >> x & 1 else row
                        for x, row in enumerate(space.reach_rows)
                    )
                    for outgoing in range(bit_p):
                        rows = head + (outgoing | bit_p,)
                        try:
                            from_reach([str(i) for i in range(n)], rows)
                        except ReachNotPreorder:
                            continue
                        found.add(rows)
            assert drawn == brute

    def test_enumerated_spaces_work_out_their_structure(self):
        # the opens and minimal opens each space works out are those of
        # its own reach rows
        for n in range(1, 6):
            for s in enumerate_spaces(n):
                assert s.min_opens == transpose(s.reach_rows)
                assert s.open_sets == union_closure_opens(s)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_swept_class_is_built_and_worked_out_once_per_shard(self, monkeypatch, jobs):
        # a sweep of every claim over single spaces, with core.transpose,
        # which open_sets calls through min_opens, recording its inputs
        # shard by shard: each shard works out the structure of the first
        # member of each of its classes, once each, and no check works out
        # a swept space again
        from irtopo import core, verifier

        transposed, shards = [], []
        real_transpose, real_shard = core.transpose, verifier._run_shard

        def recording(rows):
            transposed.append(tuple(rows))
            return real_transpose(rows)

        def run_shard(*args):
            transposed.clear()
            result = real_shard(*args)
            shards.append(Counter(transposed))
            return result

        monkeypatch.setattr(verifier, "_classes", lru_cache(maxsize=None)(verifier._classes.__wrapped__))
        for n in range(1, 5):  # fresh classes, whose build transposes their parents
            verifier._classes(n)
        monkeypatch.setattr(core, "transpose", recording)
        monkeypatch.setattr(verifier, "_run_shard", run_shard)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        names = [name for name, spec in CLAIMS.items() if spec.instances in verifier._SWEEPS]
        assert len(names) == 18
        reports = run_suite(n_max=4, claims=names, jobs=jobs)
        assert all(r.passed or r.category != "asserted" for r in reports)
        swept = [s.reach_rows for s in _reps(4)]
        assert len(swept) == 46
        assert shards == [Counter(swept[shard::jobs]) for shard in range(jobs)]
        assert [sum(c.values()) for c in shards] == ([46] if jobs == 1 else [23, 23])

    def test_matches_open_family_enumeration(self):
        for n in range(1, 4):
            families = topologies_by_open_families(n)
            assert len(families) == EXPECTED_COUNTS[n]
            enumerated = {s.reach_rows for s in enumerate_spaces(n)}
            assert families == enumerated

    @pytest.mark.parametrize("n", [True, "2", 2.0], ids=repr)
    def test_open_family_recount_rejects_a_non_int(self, n):
        # True would recount the 1-point space, and "2" reach the range
        # check's bare comparison error
        with pytest.raises(TypeError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
            topologies_by_open_families(n)


def _table_walk(n):
    """The orbits of the spaces on n points as the table walk that the
    class builder replaced found them, kept as its oracle: each space not
    yet seen in table order starts a class, whose orbit is its n!
    relabellings (each row mapped, and moved to its point's image)."""
    table, seen, orbits, moves = _space_table(n), set(), [], []
    for perm in itertools.permutations(range(n)):
        image = bytes(sum(1 << perm[p] for p in points_of(m)) for m in range(1 << n)).ljust(256, b"\0")
        # the row each point reads: two or more indices, so the getter returns a tuple
        moves.append((image, operator.itemgetter(*sorted(range(n), key=perm.__getitem__), 0)))
    for k in range(0, len(table), n):
        if (rows := table[k:k + n]) not in seen:
            orbit = frozenset(bytes(move(rows.translate(image))[:n]) for image, move in moves)
            seen |= orbit
            orbits.append(orbit)
    return orbits


class TestClasses:
    def test_counts_and_orbit_sizes(self):
        # the classes of OEIS A001930, whose orbits add up to the labelled
        # spaces of A000798, and the T0 classes among them, the posets of
        # A000112, whose orbits add up to the labelled posets of A001035
        from irtopo import verifier

        counts = [(len(c), sum(w for _, w in c)) for c in map(verifier._classes, range(1, 7))]
        assert counts == [(1, 1), (3, 4), (9, 29), (33, 355), (139, 6942), (718, 209527)]
        t0 = [[w for rows, w in verifier._classes(n) if len(set(rows)) == n] for n in range(1, 7)]
        assert list(map(len, t0)) == [1, 2, 5, 16, 63, 318]
        assert list(map(sum, t0)) == list(_LABELLED_POSETS)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_each_orbit_is_the_relabellings_of_its_canonical_member(self, n):
        # each class's orbit size is the number of relabellings of its
        # representative, which is its own canonical form, and no two
        # classes share a member, so the orbits partition the table
        from irtopo import verifier

        table, labels = _space_table(n), tuple(map(str, range(n)))
        owner = {}
        for rows, w in verifier._classes(n):
            assert verifier._canonical(tuple(rows)) == (rows, math.factorial(n) // w)
            orbit = _relabellings(FiniteSpace(labels, tuple(rows)))
            assert len(orbit) == w
            for member in orbit:
                assert owner.setdefault(bytes(member), rows) == rows
        assert sorted(owner) == [table[k:k + n] for k in range(0, len(table), n)]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_classes_are_the_orbits_the_table_walk_finds(self, n):
        # the children of the classes one point smaller, deduplicated by
        # their canonical form, give one class per orbit of the table walk
        from irtopo import verifier

        labels, classes = tuple(map(str, range(n))), verifier._classes(n)
        orbits = {frozenset(map(bytes, _relabellings(FiniteSpace(labels, tuple(rows))))) for rows, _ in classes}
        assert len(orbits) == len(classes)
        assert orbits == set(_table_walk(n))

    def test_canonical_form_is_the_same_for_every_relabelling(self):
        # the labelled spaces of at most 5 points grouped by their
        # canonical form: each group is the relabellings of any one of
        # its members, so the form is unchanged under every relabelling
        # and tells classes apart, and its count of relabellings that
        # reach the form is |Aut|, n! over the orbit size
        from irtopo import verifier

        groups = {}
        for s in _spaces_upto(5):
            groups.setdefault(verifier._canonical(s.reach_rows), []).append(s)
        assert len(groups) == 1 + 3 + 9 + 33 + 139
        for (rows, aut), members in groups.items():
            orbit = _relabellings(members[-1])
            assert {m.reach_rows for m in members} == orbit and tuple(rows) in orbit
            assert aut * len(orbit) == math.factorial(len(rows))


# the most points the class sweep is compared with the labelled sweep at
_ORACLE_POINTS = int(os.environ.get("IRTOPO_ORACLE_POINTS", "5"))

_SWEEP_CLAIMS = [name for name in CLAIM_ORDER if CLAIMS[name].instances in _SWEEPS]


def _labelled_sweep(claims, n_max):
    """The labelled sweep that the class sweep replaced, kept as its
    oracle: in blocks of the table of spaces of at most n_max points, each
    space built with its structure first, each claim's check over the
    block's spaces it takes, in table order, the memos shared within the
    block; as {claim: (instances tested, counterexample count, the
    counterexamples reported)}."""
    from irtopo import verifier

    tallies = {name: [0, 0, [], 0.0] for name in claims}
    spaces = enumerate(_spaces_upto(n_max))
    while block := list(itertools.islice(spaces, verifier._BLOCK)):
        for _, space in block:
            space.open_sets
        try:
            for name, tally in tallies.items():
                cap = _SWEEPS[CLAIMS[name].instances]
                verifier._check_all(CLAIMS[name].check, [(i, s) for i, s in block if s.n <= cap], tally)
        finally:
            for table in verifier._MEMOS:
                table.clear()
    return {name: (t[0], t[1], [payload for _, payload in t[2]]) for name, t in tallies.items()}


@lru_cache(maxsize=None)
def _labelled_oracle(n_max):
    """``_labelled_sweep`` of every sweep claim, once per test run."""
    return _labelled_sweep(_SWEEP_CLAIMS, n_max)


def _class_sweep(claim, n_max, pair_max=None):
    """The same three fields of the claim's report, from the class sweep."""
    report = run_claim(claim, n_max=n_max, pair_max=pair_max)
    return report.instances_tested, report.counterexample_count, report.counterexamples


def _labelled_t8(n_max):
    """T8's check over its labelled family, which its pass over the T0
    classes replaced, kept as its oracle: every spectrum decided by
    ``spectra.check_theorem8`` itself, with no memo of verdicts; the same
    three fields as ``_class_sweep``."""
    from irtopo import spectra, verifier

    tally = [0, 0, [], 0.0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_theorem8", lambda space: spectra.check_theorem8(space))
        verifier._check_all(CLAIMS["T8"].check, enumerate(CLAIMS["T8"].instances(n_max, 3, 0)), tally)
    return tally[0], tally[1], [payload for _, payload in tally[2]]


# labelled posets on 1..6 points (OEIS A001035)
_LABELLED_POSETS = (1, 3, 19, 219, 4231, 130023)

# the most points of a factor at which the pass of a pair claim over pairs
# of classes is compared with its labelled pairs: 3, or IRTOPO_ORACLE_POINTS
# capped at MAX_PAIR_POINTS where it is set
_ORACLE_PAIR_POINTS = min(int(os.environ.get("IRTOPO_ORACLE_POINTS", "3")), MAX_PAIR_POINTS)

_PAIR_CLAIMS = [name for name in CLAIM_ORDER if CLAIMS[name].instances is _pairs]


def _labelled_pairs(claim, pair_max):
    """A pair claim's check over every labelled pair of spaces of at most
    pair_max points (``_pairs``), which its pass over pairs of classes
    replaced, kept as its oracle, the memos emptied after; the same three
    fields as ``_class_sweep``."""
    from irtopo import verifier

    tally = [0, 0, [], 0.0]
    try:
        verifier._check_all(CLAIMS[claim].check, enumerate(_pairs(pair_max, pair_max, 0)), tally)
    finally:
        for table in verifier._MEMOS:
            table.clear()
    return tally[0], tally[1], [payload for _, payload in tally[2]]


def _failing_t7(monkeypatch, fails):
    """T7's check made to fail at each pair of spaces for which
    ``fails(left rows, right rows)`` holds, and as it does elsewhere."""
    from irtopo import verifier

    real = verifier._check_t7

    def check(pair):
        a, b = pair
        return {"left": a, "right": b} if fails(a.reach_rows, b.reach_rows) else real(pair)

    monkeypatch.setitem(verifier.CLAIMS, "T7", dataclasses.replace(verifier.CLAIMS["T7"], check=check))


class TestLabelledOracle:
    @pytest.mark.parametrize("claim", _SWEEP_CLAIMS)
    def test_class_sweep_matches_the_labelled_sweep(self, claim):
        # each sweep claim decides every labelling of a space alike, so the
        # class sweep weighted by orbit size reports what the labelled
        # sweep does (at 6 points with IRTOPO_ORACLE_POINTS=6)
        assert len(_SWEEP_CLAIMS) == 18
        assert _class_sweep(claim, _ORACLE_POINTS) == _labelled_oracle(_ORACLE_POINTS)[claim]

    @pytest.mark.parametrize("rows", [(1, 3), (3, 2)], ids=["first-member", "other-member"])
    def test_comparison_catches_a_failure_on_one_labelling(self, monkeypatch, rows):
        # C5 given a second cover at one labelling of the Sierpinski space
        # only: the labelled sweep counts that space; the class sweep
        # counts the whole orbit when it is the class's first member, and
        # nothing when it is not
        from irtopo import verifier

        assert _relabellings(FiniteSpace(("0", "1"), rows)) == {(1, 3), (3, 2)}
        real = verifier._packed_covers

        def packed(space):
            return real(space) + b"\0" + bytes((1, 2)) if space.reach_rows == rows else real(space)

        monkeypatch.setattr(verifier, "_packed_covers", packed)
        labelled, classes = _labelled_sweep(["C5"], 3)["C5"], _class_sweep("C5", 3)
        assert labelled[:2] == (34, 1)
        assert classes[:2] == (34, 2 if rows == (1, 3) else 0)
        assert classes != labelled

    def test_t8_class_pass_matches_the_labelled_pass(self):
        # T0 and T8's check are topological, so T8 over the T0 classes
        # weighted by orbit size, one verdict per distinct spectrum,
        # reports what its check over every labelled poset and modulus
        # does (at 6 points with IRTOPO_ORACLE_POINTS=6)
        labelled = _labelled_t8(_ORACLE_POINTS)
        assert labelled[:2] == (sum(_LABELLED_POSETS[:_ORACLE_POINTS]) + 4999, 0)
        assert _class_sweep("T8", _ORACLE_POINTS) == labelled

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_t8_reports_the_labelled_counterexamples(self, monkeypatch, jobs):
        # Theorem 8 made to fail at one labelling of the Sierpinski space,
        # the first member of its class, and at the spectra of two primes:
        # the class pass counts the whole orbit, and the counterexamples
        # reported are those of the labelled family, in its order, at
        # either job count
        from irtopo import spectra, verifier

        real = spectra.check_theorem8

        def failing(space):
            ok, rep = real(space)
            return ok and space.reach_rows not in ((1, 3), (1, 2)), rep

        monkeypatch.setattr(spectra, "check_theorem8", failing)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        labelled = _labelled_t8(3)
        report = run_suite(n_max=3, claims=["T8"], jobs=jobs)[0]
        # the discrete 2-point space and Z/m for the m with two prime factors
        two_primes = sum(len(spectra.factorize(m)) == 2 for m in range(2, 5001))
        assert labelled[:2] == (23 + 4999, 2 + two_primes)
        assert (report.instances_tested, report.counterexample_count) == (23 + 4999, 3 + two_primes)
        assert len(labelled[2]) == 10 and report.counterexamples == labelled[2]
        assert [p["kind"] for p in labelled[2]] == ["poset"] * 2 + ["zn"] * 8

    @pytest.mark.parametrize("claim", _PAIR_CLAIMS)
    def test_class_pairs_match_the_labelled_pairs(self, claim):
        # each pair claim decides every relabelling of either factor alike,
        # so its pass over ordered pairs of classes, weighted by the product
        # of their orbit sizes, reports what its check over every labelled
        # pair does (at 4 points with IRTOPO_ORACLE_POINTS=4 or more)
        assert _PAIR_CLAIMS == ["T5", "T7", "T9_product", "T14", "T15"]
        points = _ORACLE_PAIR_POINTS
        labelled = _labelled_pairs(claim, points)
        assert labelled[0] == sum(EXPECTED_COUNTS[n] for n in range(1, points + 1)) ** 2
        assert _class_sweep(claim, points, points) == labelled

    @pytest.mark.parametrize(
        "left, right, weight",
        [((1, 3), (1, 3), 4), ((1, 3), (3, 2), 0), ((3, 2), (1, 3), 0)],
        ids=["first-members", "other-right", "other-left"],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pair_comparison_catches_a_failure_on_one_labelled_pair(
        self, monkeypatch, left, right, weight, jobs
    ):
        # T7 made to fail at one labelled pair of Sierpinski spaces: the
        # labelled pairs count that pair; the pass over pairs of classes
        # counts the whole orbit, 2 x 2 labelled pairs, when each factor is
        # its class's first member, and nothing when one is not; a failing
        # claim reports the labelled counterexample, at either job count
        from irtopo import verifier

        _failing_t7(monkeypatch, lambda a, b: (a, b) == (left, right))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        labelled = _labelled_pairs("T7", 3)
        report = run_suite(n_max=3, claims=["T7"], jobs=jobs)[0]
        assert labelled[:2] == (1156, 1)
        assert (report.instances_tested, report.counterexample_count) == (1156, weight)
        assert report.counterexamples == (labelled[2] if weight else [])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pair_claims_report_the_labelled_counterexamples(self, monkeypatch, jobs):
        # T7 made to fail at every pair with a Sierpinski factor, in either
        # labelling: 2 x 34 pairs on each side, 2 x 2 of them on both; the
        # pass over pairs of classes counts as many, and the counterexamples
        # reported are the labelled pairs' first ten, in their order, at
        # either job count
        from irtopo import verifier

        sierpinski = {(1, 3), (3, 2)}
        _failing_t7(monkeypatch, lambda a, b: a in sierpinski or b in sierpinski)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        labelled = _labelled_pairs("T7", 3)
        report = run_suite(n_max=3, claims=["T7"], jobs=jobs)[0]
        assert labelled[:2] == (1156, 2 * 68 - 4)
        assert (report.instances_tested, report.counterexample_count) == labelled[:2]
        first = [(a, b) for a, b in _pairs(3, 3, 0) if {a.reach_rows, b.reach_rows} & sierpinski][:10]
        assert report.counterexamples == labelled[2] == [
            {"left": space_to_dict(a), "right": space_to_dict(b)} for a, b in first
        ]


class TestOracle:
    def test_identity_to_constant_top(self, sierpinski):
        assert chain_homotopy_oracle(sierpinski, sierpinski, (0, 1), [(1, 1)]) == 0b1

    def test_constant_top_to_identity_fails(self, sierpinski):
        assert chain_homotopy_oracle(sierpinski, sierpinski, (1, 1), [(0, 1)]) == 0

    def test_identity_vs_swap_on_discrete(self):
        d2 = discrete(2)
        assert chain_homotopy_oracle(d2, d2, (0, 1), [(1, 0)]) == 0

    def test_equal_maps_always_deform(self, spaces_upto3):
        for s in spaces_upto3:
            ident = tuple(range(s.n))
            assert chain_homotopy_oracle(s, s, ident, [ident]) == 0b1

    def test_one_bit_per_target(self, sierpinski):
        # the identity deforms to itself and to the constant at the closed
        # point 1, not to the constant at 0
        targets = [(0, 1), (0, 0), (1, 1)]
        assert chain_homotopy_oracle(sierpinski, sierpinski, (0, 1), targets) == 0b101
        assert chain_homotopy_oracle(sierpinski, sierpinski, (0, 1), []) == 0

    def test_values_outside_the_codomain(self, sierpinski):
        for f, g in [((0, 1), (5, 7)), ((0, 2), (0, 1)), ((0, 1), (-1, 0))]:
            with pytest.raises(ValueError):
                chain_homotopy_oracle(sierpinski, sierpinski, f, [g])

    def test_target_of_wrong_length(self, sierpinski):
        with pytest.raises(ValueError):
            chain_homotopy_oracle(sierpinski, sierpinski, (0, 1), [(1,)])
        with pytest.raises(ValueError):
            chain_homotopy_oracle(sierpinski, sierpinski, (0,), [(1, 1)])

    def test_bare_map_as_targets(self, sierpinski):
        with pytest.raises(TypeError):
            chain_homotopy_oracle(sierpinski, sierpinski, (0, 1), (1, 1))

    def test_smallest_box_test_matches_box_unions(self, spaces_upto3, sierpinski):
        # Map a subset S of x times the chain to the open point 0 of the
        # Sierpinski space and the rest to 1: the only preimage that can
        # fail is S, so the oracle accepts exactly when S is the union of
        # the boxes inside it.  One call per bottom row, all top rows as
        # targets.
        for x in spaces_upto3:
            boxes = box_topology(x, chain_space(2))
            rows = [tuple(0 if r >> p & 1 else 1 for p in range(x.n)) for r in range(1 << x.n)]
            for bottom, f in enumerate(rows):
                mask = chain_homotopy_oracle(x, sierpinski, f, rows)
                for top in range(1 << x.n):
                    subset = 0
                    for p in range(x.n):
                        subset |= (bottom >> p & 1) << (2 * p)
                        subset |= (top >> p & 1) << (2 * p + 1)
                    inside = 0
                    for b in boxes:
                        if b & ~subset == 0:
                            inside |= b
                    assert bool(mask >> top & 1) == (inside == subset)

    def test_box_topology_contains_boxes(self, spaces_upto3):
        # the oracle reads the boxes as a basis: they hold the empty and
        # the full set and are closed under intersection
        for a in spaces_upto3:
            for b in spaces_upto3:
                boxes = box_topology(a, b)
                assert 0 in boxes
                assert (1 << (a.n * b.n)) - 1 in boxes
                assert all(p & q in boxes for p in boxes for q in boxes)

    def test_agreement_with_pointwise_criterion(self, spaces_upto3):
        # the pointwise reach criterion must match the brute-force
        # chain-model search for every continuous map pair at small size
        for dom in spaces_upto3:
            for cod in spaces_upto3:
                maps = continuous_maps(dom, cod)
                targets = [g.assignment for g in maps]
                for f in maps:
                    mask = chain_homotopy_oracle(dom, cod, f.assignment, targets)
                    assert mask >> len(maps) == 0
                    for j, g in enumerate(maps):
                        assert ir_homotopic(f, g) == bool(mask >> j & 1)


class TestPastTheByteTable:
    """The oracle's walks on a 30-point space, whose masks points_of reads
    through ``to_bytes`` rather than as three bytes."""

    def test_meets_and_smallest_boxes(self):
        s = sphere_model(15)
        chain = chain_space(2)
        assert _meets(s) == list(s.min_opens)
        assert max(s.min_opens) >= 1 << 24
        boxes = box_topology(s, chain)
        # 45 nonempty opens times the chain's 2, and the empty box
        assert len(boxes) == 45 * 2 + 1
        meets = []
        for point in range(2 * s.n):
            meet = (1 << 2 * s.n) - 1
            for b in boxes:
                if b >> point & 1:
                    meet &= b
            meets.append(meet)
        assert _smallest_boxes(s) == meets

    def test_oracle_agrees_with_pointwise_criterion(self, sierpinski):
        s = sphere_model(15)
        for dom, cod, step in ((s, sierpinski, 1), (sierpinski, s, 50)):
            maps = continuous_maps(dom, cod)
            targets = [g.assignment for g in maps]
            for f in maps[::step]:
                mask = chain_homotopy_oracle(dom, cod, f.assignment, targets)
                assert mask == sum(1 << j for j, g in enumerate(maps) if ir_homotopic(f, g))


class TestClaimKernels:
    """The shortcuts that L1, L2_subcover and T6 take once per space,
    against the entries and searches they replace."""

    def test_cover_decisions_match_the_validated_entries(self, spaces_upto4):
        # every cover L1 and L2_subcover sweep: the irredundant ones and
        # the padded optimal cover
        checked = 0
        for s in spaces_upto4:
            optimal = category.ir_cat(s).sets
            padded = _padded_cover(s, category.ir_cat(s))
            covers = list(category.irredundant_covers(s))
            if padded is not None:
                covers.append(padded)
            for cov in covers:
                assert category.refinement_mapping(optimal, cov) == category.check_refinement(s, cov)
                assert category.greedy_subcover(optimal, cov) == category.min_subcover(s, cov)
                checked += 1
        assert checked > len(spaces_upto4)

    def test_cover_decisions_on_a_family_that_misses_a_member(self, sierpinski):
        # the decisions validate nothing: a family with no container for
        # an optimal member is refused by the verdict, not by NotACover
        optimal = category.ir_cat(sierpinski).sets
        assert optimal == (0b11,)
        assert category.refinement_mapping(optimal, (0b01,)) == (False, None)
        with pytest.raises(category.SubcoverNotFound):
            category.greedy_subcover(optimal, (0b01,))

    def test_packed_covers_decode_to_the_walk(self):
        # same covers, same order, on every swept space and the empty one
        spaces = [FiniteSpace((), ()), *_spaces_upto(5)]
        for s in spaces:
            assert list(map(tuple, _packed_covers(s).split(b"\0"))) == list(category.irredundant_covers(s))

    def test_c5_reports_a_second_cover(self, monkeypatch):
        # C5 compares the packed covers with the one cover (full,): give
        # every labelling of one contractible space a second cover, and C5
        # counts that class's orbit and names its two spaces alone
        from irtopo import homotopy, verifier

        target = next(s for s in _spaces_upto(2) if s.n == 2 and homotopy.ir_co(s))
        orbit = _relabellings(target)
        assert len(orbit) == 2
        real = verifier._packed_covers

        def packed(space):
            return real(space) + b"\0" + bytes((1, 2)) if space.reach_rows in orbit else real(space)

        monkeypatch.setattr(verifier, "_packed_covers", packed)
        report = run_claim("C5", n_max=3)
        assert report.counterexample_count == 2
        named = [s for s in _spaces_upto(2) if s.reach_rows in orbit]
        assert named[0] == target
        assert [p["space"]["reach"] for p in report.counterexamples] == [
            [list(p) for p in s.reach_pairs()] for s in named
        ]
        for payload in report.counterexamples:
            assert payload["covers"] == [[["0", "1"]], [["0"], ["1"]]]

    def test_packed_covers_refuse_masks_over_a_byte(self):
        # the indiscrete 9-point space has the one cover (511,)
        nine = FiniteSpace(tuple("abcdefghi"), (511,) * 9)
        with pytest.raises(ValueError):
            _packed_covers(nine)

    def test_cover_claims_walk_each_class_once(self, monkeypatch):
        walked = []
        real = category.irredundant_covers

        def counting(space):
            walked.append(space)
            return real(space)

        from irtopo import verifier

        # no run leaves a memo behind, but calls outside a run may have
        for table in verifier._MEMOS:
            table.clear()
        monkeypatch.setattr(category, "irredundant_covers", counting)
        reports = run_suite(n_max=4, claims=["T13", "L1", "L2_subcover", "C5"], jobs=1)
        assert all(r.passed for r in reports)
        swept = _reps(4)
        assert len(walked) == len(swept) == 46
        assert Counter(walked) == Counter(swept)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("claim, helper", _COVER_HELPERS)
    def test_cover_claims_decide_every_cover_of_every_class(self, monkeypatch, claim, helper, jobs):
        # no record of decided pairs is kept: each swept class decides
        # every (optimal cover, cover) pair it holds, once, in the shard
        # that checks it, so a pair held by several classes is decided at
        # each of them; how many pairs are distinct depends on which
        # member represents each class
        from irtopo import verifier

        held = [pair for s in _reps(4) for pair in _space_cover_pairs(claim, s)]
        if claim == "L1":
            assert len(held) == 171 > len(set(held))
        decided = []
        real = getattr(category, helper)

        def counting(optimal, cov):
            decided.append((tuple(optimal), tuple(cov)))
            return real(optimal, cov)

        monkeypatch.setattr(category, helper, counting)
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        (report,) = run_suite(n_max=4, claims=[claim], jobs=jobs)
        assert report.passed
        assert sizes == ([2] if jobs == 2 else [])
        assert Counter(decided) == Counter(held)
        assert len(decided) > len(set(decided))

    @pytest.mark.parametrize("claim, helper", _COVER_HELPERS)
    def test_cover_claims_decide_the_same_covers_on_every_run(self, monkeypatch, claim, helper):
        # nothing decided in one run carries into the next: a second run
        # in the same process decides the same pairs in the same order and
        # reports the same bytes, and neither leaves a memo entry
        from irtopo import verifier

        decided = []
        real = getattr(category, helper)

        def counting(optimal, cov):
            decided.append((tuple(optimal), tuple(cov)))
            return real(optimal, cov)

        monkeypatch.setattr(category, helper, counting)
        runs = []
        for _ in range(2):
            decided.clear()
            report = suite_to_jsonable([run_claim(claim, n_max=4)], 4, None, 0)
            assert not any(verifier._MEMOS)
            runs.append((list(decided), dumps_canonical(report)))
        assert runs[0][0] and runs[0] == runs[1]

    @pytest.mark.parametrize("claim, helper", _COVER_HELPERS)
    def test_failing_pair_fails_at_every_space_holding_it(self, monkeypatch, claim, helper):
        # each space holding a pair decided wrong is a counterexample
        target, k = _most_held(_cover_pairs(claim, 4))
        assert k >= 2
        monkeypatch.setattr(category, helper, _failing_on(helper, target))
        report = run_claim(claim, n_max=4)
        assert report.counterexample_count == k
        for payload in report.counterexamples:
            labels = payload["space"]["labels"]
            assert payload["cover"] == [[labels[p] for p in points_of(m)] for m in target[1]]

    def test_cover_claims_agree_across_jobs(self, monkeypatch):
        # L2_subcover fails on a pair that L1 decides right: a decision
        # shared by the two claims or by the shards would change the count
        from irtopo import verifier

        target, k = _most_held(_cover_pairs("L1", 4))
        monkeypatch.setattr(category, "greedy_subcover", _failing_on("greedy_subcover", target))
        names = ["L1", "L2_subcover"]
        seq = suite_to_jsonable(run_suite(n_max=4, claims=names, jobs=1), 4, None, 0)
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        par = suite_to_jsonable(run_suite(n_max=4, claims=names, jobs=2), 4, None, 0)
        assert sizes == [2]
        assert dumps_canonical(par) == dumps_canonical(seq)
        l1, l2 = seq["claims"]
        assert l1["passed"]
        assert l2["counterexample_count"] == k >= 2

    @pytest.mark.parametrize("shard", [0, 1])
    def test_cover_claims_work_out_only_their_shard(self, monkeypatch, shard):
        # each shard asks ir_cat about its own classes only, class index
        # shard modulo 2, not about every class it skips, and the two
        # claims share the block's report; each counts its orbit sizes
        from irtopo import verifier

        asked = []
        real = category.ir_cat

        def recording(space):
            asked.append(space)
            return real(space)

        monkeypatch.setattr(category, "ir_cat", recording)
        results = verifier._run_shard(["L1", "L2_subcover"], 4, 3, 0, 2, shard)
        assert [r[:2] for r in results] == [((176, 213)[shard], 0)] * 2
        swept = _reps(4)
        assert len(swept) == 46
        mine = swept[shard::2]
        assert len(mine) == 23
        assert len(asked) == len(mine) and Counter(asked) == Counter(mine)

    def test_closure_claims_compute_each_class_once(self, monkeypatch):
        from irtopo import verifier

        walked = []
        real = verifier._meets

        def counting(space):
            walked.append(space)
            return real(space)

        for table in verifier._MEMOS:
            table.clear()
        monkeypatch.setattr(verifier, "_meets", counting)
        reports = run_suite(n_max=4, claims=["T2", "T3", "T4", "P4", "C9"], jobs=1)
        assert all(r.passed for r in reports)
        swept = _reps(4)
        assert len(walked) == len(swept) == 46
        assert Counter(walked) == Counter(swept)

    def test_meets_are_the_intersections_of_the_opens(self):
        # the 9-point grid has meets of 256 and more, masks over more than
        # one byte of points
        grid = product(chain_space(3), chain_space(3))
        assert grid.n == 9 and max(_meets(grid)) >= 256
        for s in [*_spaces_upto(5), grid]:
            meets = []
            for p in range(s.n):
                meet = s.full_mask
                for o in s.open_sets:
                    if o >> p & 1:
                        meet &= o
                meets.append(meet)
            assert _meets(s) == meets

    def test_p1_draws_the_fraction_recipe(self):
        from fractions import Fraction
        import random

        for seed in (0, 1):
            rng = random.Random(seed)

            def unit():
                den = rng.randint(1, 50)
                return Fraction(rng.randint(0, den), den)

            expected = [
                (unit(), unit(), unit(), Fraction(rng.randint(1, 50), 50)) for _ in range(10000)
            ]
            drawn = list(_p1_instances(5, 3, seed))
            assert drawn == expected
            assert all(type(v) is Fraction for inst in drawn for v in inst)

    def test_t3_keeps_the_first_counterexample_of_the_full_loop(self, monkeypatch):
        from irtopo import homotopy, verifier

        def full_loop(s):
            for x in range(s.n):
                cl = verifier._closure_rows(s)[x]
                for y in range(s.n):
                    if homotopy.ir_path(s, x, y) and (1 << x | 1 << y) & ~cl:
                        return {"space": s, "from": s.labels[x], "to": s.labels[y]}
            return None

        real_path = homotopy.ir_path
        real_rows_of = verifier._closure_rows
        found = 0
        for s in _spaces_upto(3):
            real_rows = real_rows_of(s)
            for a in range(s.n):
                for b in range(s.n):
                    # ir_path lies at (a, b); then the closure of a also
                    # lies, leaving out a itself
                    def path(space, x, y, a=a, b=b):
                        return real_path(space, x, y) != (space is s and (x, y) == (a, b))

                    lied = bytearray(real_rows)
                    lied[a] &= ~(1 << a)
                    monkeypatch.setattr(homotopy, "ir_path", path)
                    for rows in (real_rows, bytes(lied)):
                        monkeypatch.setattr(verifier, "_closure_rows", lambda _, rows=rows: rows)
                        expected = full_loop(s)
                        assert _check_t3(s) == expected
                        found += expected is not None
        assert found > 0

    def test_t11_keeps_the_first_counterexample_of_the_full_loop(self, monkeypatch):
        def full_loop(s):
            if not s.is_t0():
                return None
            for x in range(s.n):
                for y in range(s.n):
                    if x != y and s.reach(x, y) and s.reach(y, x):
                        return {"space": s, "from": s.labels[x], "to": s.labels[y]}
            return None

        real = FiniteSpace.reach
        found = 0
        for s in _spaces_upto(4):
            for a in range(s.n):
                for b in range(s.n):
                    def reach(space, x, y, a=a, b=b):
                        return real(space, x, y) != (space is s and (x, y) == (a, b))

                    monkeypatch.setattr(FiniteSpace, "reach", reach)
                    expected = full_loop(s)
                    assert _check_t11(s) == expected
                    found += expected is not None
        assert found > 0

    def test_smallest_boxes_are_the_box_meets(self, spaces_upto4):
        chain = chain_space(2)
        for x in [*spaces_upto4, product(chain_space(3), chain_space(3))]:
            boxes = box_topology(x, chain)
            meets = []
            for point in range(2 * x.n):
                meet = (1 << 2 * x.n) - 1
                for b in boxes:
                    if b >> point & 1:
                        meet &= b
                meets.append(meet)
            assert _smallest_boxes(x) == meets


class _HashOnlyRows(tuple):
    """Reach rows that hash and compare as a tuple but raise on any read
    of a row."""

    def __getitem__(self, i):
        raise AssertionError("an oracle read the reach rows")

    def __iter__(self):
        raise AssertionError("an oracle read the reach rows")


class _OpensOnly(FiniteSpace):
    """A copy of a space that answers only through its open sets."""

    __slots__ = ()

    @property
    def min_opens(self):
        raise AssertionError("an oracle read min_opens")


def _refuse(*args):
    raise AssertionError("an oracle read the reach relation")


class TestOraclesReadOnlyTheOpens:
    def test_closure_cover_and_chain_oracles(self, monkeypatch, spaces_upto4):
        from irtopo import verifier

        expected = []
        for s in spaces_upto4:
            identity = tuple(range(s.n))
            targets = [f.assignment for f in continuous_maps(s, s)]
            answers = (
                verifier._closure_rows(s),
                verifier._cover_search(s),
                chain_homotopy_oracle(s, s, identity, targets),
            )
            expected.append((s, identity, targets, answers))
        monkeypatch.setattr(FiniteSpace, "common_reach", _refuse)
        monkeypatch.setattr(FiniteSpace, "reach", _refuse)
        for s, identity, targets, answers in expected:
            copy = _OpensOnly(s.labels, _HashOnlyRows(s.reach_rows))
            object.__setattr__(copy, "_open_sets", s.open_sets)
            # the copy hashes as s does, so s's memo entry would answer
            for table in verifier._MEMOS:
                table.clear()
            assert (
                verifier._closure_rows(copy),
                verifier._cover_search(copy),
                chain_homotopy_oracle(copy, copy, identity, targets),
            ) == answers, s


class TestClaims:
    def test_registry_is_complete(self):
        assert len(CLAIM_ORDER) == 32
        assert set(CLAIMS) == set(CLAIM_ORDER)
        categories = {spec.category for spec in CLAIMS.values()}
        assert categories == {"asserted", "known_false", "experimental"}

    def test_readme_table_names_the_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| claim | statement checked |\n|---|---|\n", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()
        assert tuple(row.split("|")[1].strip() for row in rows) == CLAIM_ORDER

    def test_t4_passes(self):
        report = run_claim("T4", n_max=3)
        assert report.passed
        assert report.instances_tested == 34  # all spaces on 1..3 points

    def test_c9_passes(self):
        assert run_claim("C9", n_max=3).passed

    def test_l2_literal_fails_with_padded_cover(self):
        report = run_claim("L2_literal", n_max=3)
        assert not report.passed
        assert report.category == "known_false"
        assert report.counterexample_count > 0
        first = report.counterexamples[0]
        assert len(first["padded_cover"]) == first["cat"] + 1

    @pytest.mark.parametrize(
        "helper, mutant",
        [
            ("refinement_mapping", lambda optimal, cov: (True, ())),
            ("refinement_mapping", lambda optimal, cov: (True, (0,) * len(optimal))),
            ("greedy_subcover", lambda optimal, cov: ()),
            # the union of a cover is the whole space
            ("greedy_subcover", lambda optimal, cov: (reduce(operator.or_, cov),)),
        ],
        ids=["no-mapping", "wrong-mapping", "empty-subcover", "foreign-subcover"],
    )
    def test_cover_claims_check_their_helpers(self, monkeypatch, helper, mutant):
        # L1 and L2_subcover check what the decisions they call return,
        # not only their shape
        claim = "L1" if helper == "refinement_mapping" else "L2_subcover"
        assert run_claim(claim, n_max=3).passed
        monkeypatch.setattr(category, helper, mutant)
        assert not run_claim(claim, n_max=3).passed

    def test_equivalence_search_runs_only_when_the_violation_fires(self, monkeypatch):
        # a payload carries the maps that the equivalence search found;
        # T14 and T15 test their cheap violation first and search only
        # when it fires
        from irtopo import homotopy, verifier

        pairs = [(a, b) for n in (1, 2) for a in enumerate_spaces(n) for b in enumerate_spaces(n)]
        equivalent = 0
        for a, b in pairs:
            payload = verifier._equivalence_payload(a, b, mark=1)
            eq = homotopy.ir_homotopy_equivalent(a, b)
            if eq is None:
                assert payload is None
                continue
            equivalent += 1
            f, g = eq
            assert payload == {
                "left": a,
                "right": b,
                "f": list(f.assignment),
                "g": list(g.assignment),
                "mark": 1,
            }
        assert 0 < equivalent < len(pairs)

        fires = {
            "T14": lambda a, b: homotopy.ir_co(a) and not homotopy.ir_co(b),
            "T15": lambda a, b: category.ir_cat(a).size != category.ir_cat(b).size,
        }

        def no_search(a, b):
            raise AssertionError("equivalence searched for a pair with no violation")

        monkeypatch.setattr(homotopy, "ir_homotopy_equivalent", no_search)
        for name, violation in fires.items():
            quiet = [pair for pair in pairs if not violation(*pair)]
            assert 0 < len(quiet) < len(pairs)
            for pair in quiet:
                assert CLAIMS[name].check(pair) is None

    def test_only_reported_counterexamples_write_out_spaces(self, monkeypatch):
        from irtopo import spaceio

        written = []
        real = spaceio.space_to_dict
        monkeypatch.setattr(spaceio, "space_to_dict", lambda s: written.append(s) or real(s))
        report = run_claim("L2_literal", n_max=4)
        assert report.counterexample_count > 10
        assert len(written) == len(report.counterexamples) == 10
        assert [c["space"] for c in report.counterexamples] == [real(s) for s in written]

    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            run_claim("T99")

    def test_bad_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            run_claim("T2", n_max=9)

    def test_sweeps_reach_six_points_and_stop_at_seven(self, monkeypatch):
        # checked without building a table: six points is a budget
        # accepted, seven is refused before any claim runs
        from irtopo import verifier

        monkeypatch.setattr(verifier, "_space_table", None)
        assert verifier._resolve_limits(6, None, 0) == (6, 3)
        for jobs in (1, 2):
            with pytest.raises(SearchBudgetExceeded, match="support 1..6 points, got 7"):
                run_suite(n_max=7, claims=["T2"], jobs=jobs)

    def test_jobs_do_not_change_reports(self, monkeypatch):
        from irtopo import verifier

        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        seq = run_suite(n_max=3, claims=["T7"], jobs=1)[0]
        par = run_suite(n_max=3, claims=["T7"], jobs=2)[0]
        assert seq.to_jsonable() == par.to_jsonable()

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        from irtopo import verifier

        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes))
        seq = run_suite(n_max=3, claims=["T7"], jobs=1)[0].to_jsonable()
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 3)
        assert run_suite(n_max=3, claims=["T7"], jobs=64)[0].to_jsonable() == seq
        assert sizes == [3]
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 1)
        assert run_suite(n_max=3, claims=["T7"], jobs=64)[0].to_jsonable() == seq
        assert sizes == [3]  # one usable CPU: runs inline

    def test_usable_cpus(self, monkeypatch):
        from irtopo import verifier

        if hasattr(os, "sched_getaffinity"):
            assert verifier._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert verifier._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert verifier._usable_cpus() == 1

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_suite(n_max=1, jobs=jobs)

    def test_report_json_shape(self):
        report = run_claim("T2", n_max=2)
        payload = report.to_jsonable()
        assert payload["claim"] == "T2"
        assert payload["passed"] is True
        assert payload["counterexamples"] == []
        assert "elapsed" not in payload


class TestSuite:
    def test_single_point_suite_all_pass(self):
        reports = run_suite(n_max=1)
        assert all(r.passed for r in reports)
        assert suite_passed(reports)

    def test_selected_claims_in_order(self):
        reports = run_suite(n_max=2, claims=["T7", "T2"])
        assert [r.claim for r in reports] == ["T7", "T2"]

    def test_unknown_claim_rejected(self):
        with pytest.raises(UnknownClaim):
            run_suite(n_max=2, claims=["nope"])

    @staticmethod
    def _record_runs(monkeypatch):
        """Patch the one route claims run by (``_run_shard``, here at one
        job and in the pool's tasks above it) to record the claims that
        would run."""
        from irtopo import verifier

        ran = []
        monkeypatch.setattr(verifier, "_run_shard", lambda names, *a: ran.extend(names))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        return ran

    def test_repeated_claim_rejected_before_any_claim_runs(self, monkeypatch):
        ran = self._record_runs(monkeypatch)
        for jobs in (1, 2):
            with pytest.raises(UnknownClaim, match="'T2' selected more than once"):
                run_suite(n_max=2, claims=["T2", "T7", "T2"], jobs=jobs)
        assert ran == []

    def test_bare_str_rejected_before_any_claim_runs(self, monkeypatch):
        # a str would be iterated one letter at a time
        ran = self._record_runs(monkeypatch)
        for jobs in (1, 2):
            with pytest.raises(TypeError, match=r"list of claim names such as \['T1'\]"):
                run_suite(n_max=2, claims="T1", jobs=jobs)
        assert ran == []

    @pytest.mark.parametrize("value", [2.5, True, "2"], ids=repr)
    @pytest.mark.parametrize("param", ["n_max", "pair_max", "seed"])
    def test_non_int_limits_rejected_before_any_claim_runs(self, monkeypatch, param, value):
        # 2.5 would pass the range check and reach the report, which
        # could then not be written, and True would be written as true
        ran = self._record_runs(monkeypatch)
        limits = {"n_max": 2, "pair_max": None, "seed": 0, param: value}
        match = f"{param} must be an int, got {value!r}"
        with pytest.raises(TypeError, match=match):
            run_claim("T2", **limits)
        for jobs in (1, 2):
            with pytest.raises(TypeError, match=match):
                run_suite(claims=["T1", "T2"], jobs=jobs, **limits)
        with pytest.raises(TypeError, match=match):
            suite_to_jsonable([], limits["n_max"], limits["pair_max"], limits["seed"])
        assert ran == []

    @pytest.mark.parametrize("jobs", [1.5, True, "2"], ids=repr)
    def test_non_int_jobs_rejected_before_any_claim_runs(self, monkeypatch, jobs):
        # 1.5 would fail inside the pool, and True would run as one job
        ran = self._record_runs(monkeypatch)
        with pytest.raises(TypeError, match=f"jobs must be an int, got {jobs!r}"):
            run_suite(n_max=2, claims=["T2"], jobs=jobs)
        assert ran == []

    def test_empty_selection_rejected(self, monkeypatch):
        # an empty selection would report a pass with nothing checked
        ran = self._record_runs(monkeypatch)
        for jobs in (1, 2):
            with pytest.raises(UnknownClaim, match="no claim selected"):
                run_suite(n_max=2, claims=[], jobs=jobs)
        assert ran == []

    def test_jsonable_structure(self):
        reports = run_suite(n_max=2, claims=["T2", "L2_literal"])
        payload = suite_to_jsonable(reports, 2, None, 0)
        assert payload["max_points"] == 2
        assert payload["pair_points"] == 2
        assert payload["all_required_passed"] is True

    def test_one_pool_per_suite(self, monkeypatch):
        from irtopo import verifier

        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 3)
        seq = suite_to_jsonable(run_suite(n_max=2, jobs=1), 2, None, 0)
        assert sizes == []
        par = suite_to_jsonable(run_suite(n_max=2, jobs=64), 2, None, 0)
        assert sizes == [3]
        assert par == seq

    def test_one_task_per_worker(self, monkeypatch):
        from irtopo import verifier

        names = ["L2_literal", "T7", "P1"]
        seq = suite_to_jsonable(run_suite(n_max=4, claims=names), 4, None, 0)
        sizes, maps = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes, maps))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 3)
        par = suite_to_jsonable(run_suite(n_max=4, claims=names, jobs=64), 4, None, 0)
        # one map over one task per worker, not one map per claim
        assert sizes == [3]
        assert maps == [3]
        # L2_literal's counterexamples are cut to the first 10 over all shards
        assert par["claims"][0]["counterexamples_truncated"]
        assert dumps_canonical(par) == dumps_canonical(seq)

    def test_failing_check_shuts_the_pool_down(self, monkeypatch):
        from irtopo import verifier

        def boom(_):
            raise ValueError("check failed on purpose")

        monkeypatch.setitem(
            verifier.CLAIMS, "C3", dataclasses.replace(verifier.CLAIMS["C3"], check=boom)
        )
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="check failed on purpose"):
            run_suite(n_max=2, jobs=2)
        assert multiprocessing.active_children() == []

    def test_sweep_claims_get_worked_out_classes_and_workers_agree(self, monkeypatch):
        # every sweep claim gets the first member of each class with its
        # structure worked out, read from the slots, which the properties
        # would fill; after the shards only L2_literal, the one sweep claim
        # that fails, checks labelled spaces: those of table order up to
        # its tenth counterexample
        from irtopo import verifier

        seen, after, in_shard = Counter(), [], [False]
        real_shard = verifier._run_shard

        def run_shard(*args):
            in_shard[0] = True
            try:
                return real_shard(*args)
            finally:
                in_shard[0] = False

        def watching(name, check):
            def watched(s):
                if in_shard[0]:
                    assert s._min_opens is not None and s._open_sets is not None, s
                    seen[s] += 1
                else:
                    after.append((name, s))
                return check(s)

            return watched

        with monkeypatch.context() as patched:
            patched.setattr(verifier, "_run_shard", run_shard)
            for name, spec in CLAIMS.items():
                if spec.instances in verifier._SWEEPS:
                    patched.setitem(CLAIMS, name, dataclasses.replace(spec, check=watching(name, spec.check)))
            seq = run_suite(n_max=4)
        # at 4 points T13's cap takes every class too, so 18 claims see each
        assert seen == Counter({s: 18 for s in _reps(4)})
        labelled = list(_spaces_upto(4))
        failing = [i for i, s in enumerate(labelled) if CLAIMS["L2_literal"].check(s) is not None]
        for table in verifier._MEMOS:
            table.clear()
        assert after == [("L2_literal", s) for s in labelled[:failing[9] + 1]]
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        par = run_suite(n_max=4, jobs=2)
        assert multiprocessing.active_children() == []
        assert dumps_canonical(suite_to_jsonable(par, 4, None, 0)) == dumps_canonical(
            suite_to_jsonable(seq, 4, None, 0)
        )

    def test_report_pinned(self):
        # the full seed-0 report at 4 points and 3-point pairs, byte for byte
        report = suite_to_jsonable(run_suite(n_max=4, pair_max=3, seed=0), 4, 3, 0)
        text = dumps_canonical(report)
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert len(text.encode()) == 17742
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d036dcd71eb5a106ae393be38a39d420ba1bd44ace05de3232b0116c16f2c48c"
        )


_PINNED_4_3 = "d036dcd71eb5a106ae393be38a39d420ba1bd44ace05de3232b0116c16f2c48c"


def _watch_memos(monkeypatch, seen):
    """Wrap the check of every sweep claim so that, at each class a shard
    checks, it appends to seen the class index of the instance, the
    first member of a class, the shard running it and the class indices
    of the spaces that key the memos."""
    from irtopo import verifier

    index = {s: i for i, s in enumerate(_reps(4))}
    shard = [None]
    real_shard = verifier._run_shard

    def run_shard(*args):
        shard[0] = args[-1]
        try:
            return real_shard(*args)
        finally:
            shard[0] = None

    def watching(check):
        def watched(inst):
            if shard[0] is not None:  # not L2_literal's labelled counterexamples
                held = {index[k] for table in verifier._MEMOS for k in table if isinstance(k, FiniteSpace)}
                seen.append((index[inst], shard[0], held))
            return check(inst)

        return watched

    monkeypatch.setattr(verifier, "_run_shard", run_shard)

    for name in CLAIM_ORDER:
        spec = verifier.CLAIMS[name]
        if spec.instances in verifier._SWEEPS:
            monkeypatch.setitem(
                verifier.CLAIMS, name, dataclasses.replace(spec, check=watching(spec.check))
            )


class TestSweepBlocks:
    @pytest.mark.parametrize("block", [None, 1, 10_000], ids=["default", "one", "over-table"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_labelled_block_size_changes_no_report(self, monkeypatch, block, jobs):
        # _BLOCK bounds only the blocks of the labelled counterexample pass
        # (L2_literal's here): the suite and each claim run alone agree
        # claim by claim, and the suite stays byte for byte the pinned
        # one, wherever those blocks end
        from irtopo import verifier

        if block is not None:
            monkeypatch.setattr(verifier, "_BLOCK", block)
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        suite = run_suite(n_max=4, pair_max=3, jobs=jobs)
        assert sizes == ([2] if jobs == 2 else [])
        for report in suite:
            alone = run_claim(report.claim, n_max=4, pair_max=3)
            assert report.to_jsonable() == alone.to_jsonable(), report.claim
        text = dumps_canonical(suite_to_jsonable(suite, 4, 3, 0))
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_4_3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memos_hold_only_the_shards_classes_and_no_run_leaves_them(self, monkeypatch, jobs):
        from irtopo import verifier

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        seen = []
        _watch_memos(monkeypatch, seen)
        run_suite(n_max=4, pair_max=3, claims=_SWEEP_CLAIMS, jobs=jobs)
        assert not any(verifier._MEMOS)
        # every space a memo holds is a class of the shard of the class
        # checked, and by the shard's last check the memos hold every one
        assert len(seen) == 18 * 46
        for i, shard, held in seen:
            assert i % jobs == shard
            assert all(j % jobs == shard for j in held)
        for shard in range(jobs):
            assert max(len(held) for _, k, held in seen if k == shard) == len(range(shard, 46, jobs))
        seen.clear()
        # alone, L1 adds each class to the memos as it checks it
        assert run_claim("L1", n_max=4).passed
        assert not any(verifier._MEMOS)
        assert [len(held) for *_, held in seen] == list(range(46))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_swept_space_outlives_its_shard(self, monkeypatch, jobs):
        # when a shard ends, as the memos are emptied, the spaces alive
        # that the run built are the first members of the shard's classes
        # (the sweep claims' instances), one space per distinct spectrum
        # that the shard's T8 pass checked (its memo of verdicts), and
        # at most one of each of the 13 class members of at most 3 points
        # (pair_max) that the pair claims' memos hold; at the end of each
        # block of L2_literal's labelled counterexample pass, only
        # labelled spaces of at most 3 points; after the run none is
        # alive.  No collection runs first: reference counting alone must
        # free them, as the memory peak of a sweep needs
        import gc

        from irtopo import verifier
        from irtopo.spectra import spec_zn

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        reps = [s.reach_rows for s in _reps(4)]
        classes = {rows: i for i, rows in enumerate(reps)}
        labelled = {s.reach_rows: i for i, s in enumerate(_spaces_upto(4))}
        mine, spectra, ends = set(), set(), []
        real_run_claim = verifier.run_claim

        def checked(instances):
            # T8's instances, passed on, with the reach rows of each spectrum
            for key, (kind, payload) in instances:
                spectra.add((payload if kind == "poset" else spec_zn(payload)).reach_rows)
                yield key, (kind, payload)

        def run_claim(name, *args, _pass=None, **kwargs):
            if CLAIMS[name].instances in _SWEEPS and _pass[2:] == (True,):  # the shard's classes
                mine.update(classes[s.reach_rows] for _, s in _pass[0])
            elif name == "T8":
                _pass = (checked(_pass[0]), *_pass[1:])
            return real_run_claim(name, *args, _pass=_pass, **kwargs)

        def alive():
            return [o for o in gc.get_objects() if type(o) is FiniteSpace and id(o) not in before]

        class EndWatch(list):
            def __iter__(self):
                # the reach rows of the spaces alive, no space itself
                ends.append((set(mine), set(spectra), [s.reach_rows for s in alive()]))
                mine.clear()
                spectra.clear()
                return super().__iter__()

        # held, so that no id of theirs is reused
        older = [o for o in gc.get_objects() if type(o) is FiniteSpace]
        before = set(map(id, older))
        monkeypatch.setattr(verifier, "run_claim", run_claim)
        monkeypatch.setattr(verifier, "_MEMOS", EndWatch(verifier._MEMOS))
        run_suite(n_max=4, pair_max=3, jobs=jobs)
        assert alive() == []
        shards = [end for end in ends if end[0]]
        assert len(shards) == jobs
        assert sorted(i for classes_of, *_ in shards for i in classes_of) == list(range(46))
        # the shards check the 24 T0 classes of at most 4 points and the
        # discrete spectrum of 5 points (of Z/2310)
        assert len(set().union(*(spectra_of for _, spectra_of, _ in shards))) == 25
        for classes_of, spectra_of, rows in shards:
            held = Counter(rows)
            expected = Counter(reps[i] for i in classes_of) + Counter(spectra_of)
            assert not expected - held
            rest = held - expected
            assert rest and max(rest.values()) == 1
            assert all(r in reps[:13] for r in rest)
        others = [rows for classes_of, _, rows in ends if not classes_of]
        assert others and all(0 <= labelled[r] < 34 for rows in others for r in rows)
        assert max(map(len, others)) > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_swept_class_derives_its_meets_once_per_shard(self, monkeypatch, jobs):
        # T2-T4, P4 and C9 (closure rows), T6 (smallest boxes), T13 and
        # D5_sense_compare (deformable opens) read one memo of meets: in the
        # 4/3 suite the undecorated _meets runs once per swept class and
        # shard, and L2_literal's labelled counterexamples derive none
        from irtopo import verifier

        derived, shard = [], [None]
        real_meets, real_shard = verifier._meets.__wrapped__, verifier._run_shard

        def counting(space):
            derived.append((shard[0], space))
            return real_meets(space)

        def run_shard(*args):
            shard[0] = args[-1]
            try:
                return real_shard(*args)
            finally:
                shard[0] = None

        # the counting memo registers in a copy of the table of memos
        monkeypatch.setattr(verifier, "_MEMOS", list(verifier._MEMOS))
        monkeypatch.setattr(verifier, "_meets", verifier._memo(counting))
        monkeypatch.setattr(verifier, "_run_shard", run_shard)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        run_suite(n_max=4, pair_max=3, jobs=jobs)
        assert not any(verifier._MEMOS)
        swept = _reps(4)
        assert len(derived) == len(swept)
        per_shard = [[s for k, s in derived if k == i] for i in range(jobs)]
        assert [len(spaces) for spaces in per_shard] == ([46] if jobs == 1 else [23, 23])
        for i, spaces in enumerate(per_shard):
            assert Counter(spaces) == Counter(swept[i::jobs])

    def test_import_leaves_no_memo_entry(self):
        # the chain's meets are worked out at import without the memo; each
        # memo the module defines (the closure that _memo returns) has its
        # one table, and every table is empty
        root = Path(__file__).resolve().parents[1]
        code = f"""
import sys
sys.path[:0] = [{str(root / "src")!r}]
from irtopo import verifier
memos = [f for f in vars(verifier).values() if getattr(f, "__code__", None) is verifier._meets.__code__]
print(len(verifier._MEMOS) - len(memos), sum(map(len, verifier._MEMOS)))
"""
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]

    @pytest.mark.parametrize(
        "claims, n_max, pair_max, tables, classes",
        [
            (["T8"], 4, 2, 0, 4),
            (["T5"], 4, 2, 0, 2),
            (["C9"], 3, 4, 0, 3),
            (["T13"], 6, 3, 0, 4),
            (["C3"], 6, 4, 0, 0),
            (["T13", "T5", "L2_literal"], 5, 3, 3, 5),
        ],
        ids=["T8", "T5", "sweep", "T13", "C3", "mixed"],
    )
    def test_only_what_the_selection_reads_is_built_before_any_pass(
        self, monkeypatch, claims, n_max, pair_max, tables, classes
    ):
        # the classes of the pair claims (to pair_max), of T8 (to n_max)
        # and of the sweep claims (T13's to its 4-point cap) are built
        # before the first pass, and no sweep builds a labelled table:
        # only L2_literal's labelled counterexamples read the tables, each
        # built between two of its passes, so no claim's elapsed counts a
        # build; nothing else is built, and C3 reads neither cache
        from irtopo import verifier

        built = {"table": [], "classes": []}

        def spy(name, compute):
            def recording(n):
                built[name].append(n)
                return compute(n)

            return lru_cache(maxsize=None)(recording)

        passes, real_check_all = [], verifier._check_all

        def check_all(*args):
            before = {name: list(ns) for name, ns in built.items()}
            real_check_all(*args)
            passes.append((before, {name: list(ns) for name, ns in built.items()}))

        monkeypatch.setattr(verifier, "_space_table", spy("table", _space_table.__wrapped__))
        monkeypatch.setattr(verifier, "_classes", spy("classes", verifier._classes.__wrapped__))
        monkeypatch.setattr(verifier, "_check_all", check_all)
        reports = run_suite(n_max=n_max, pair_max=pair_max, claims=claims)
        assert all(r.passed or r.category != "asserted" for r in reports)
        assert sorted(built["table"]) == list(range(1, tables + 1))
        assert sorted(built["classes"]) == list(range(1, classes + 1))
        assert len(passes) >= len(claims)
        assert all(before == after and before["classes"] == built["classes"] for before, after in passes)
        assert not any(after["table"] for _, after in passes[:len(claims)])

    def test_labelled_counterexamples_list_at_most_twice_the_spaces_checked(self, monkeypatch):
        # the labelled pass lists its blocks doubling from 1 space, so it
        # builds fewer than twice the spaces up to L2_literal's tenth
        # counterexample, none of 5 points, whatever the size of a block
        from irtopo import verifier

        check = CLAIMS["L2_literal"].check
        tenth = [i for i, s in enumerate(_spaces_upto(5)) if check(s) is not None][9]
        listed = []

        def spaces_upto(n_max):
            for s in _spaces_upto(n_max):
                listed.append(s.n)
                yield s

        monkeypatch.setattr(verifier, "_spaces_upto", spaces_upto)
        assert run_claim("L2_literal", n_max=5).counterexample_count == 7326
        assert tenth < len(listed) < 2 * (tenth + 1) and max(listed) < 5

    def test_a_failing_check_leaves_no_memo(self, monkeypatch):
        from irtopo import verifier

        def boom(s):
            verifier._closure_rows(s)
            raise ValueError("check failed on purpose")

        monkeypatch.setitem(
            verifier.CLAIMS, "C9", dataclasses.replace(verifier.CLAIMS["C9"], check=boom)
        )
        with pytest.raises(ValueError, match="check failed on purpose"):
            run_suite(n_max=3, claims=["L1", "C9"])
        assert not any(verifier._MEMOS)

    def test_l2_literal_labels_only_the_reported_covers(self, monkeypatch):
        from irtopo import spaceio

        labelled = []
        real = spaceio.cover_labels
        monkeypatch.setattr(
            spaceio, "cover_labels", lambda s, masks: labelled.append(s) or real(s, masks)
        )
        report = run_claim("L2_literal", n_max=5)
        assert report.counterexample_count == 7326
        assert len(labelled) == len(report.counterexamples) == 10
        for payload, space in zip(report.counterexamples, labelled):
            assert payload["space"] == spaceio.space_to_dict(space)
            assert len(payload["padded_cover"]) == payload["cat"] + 1

def test_trace_layer_map_counts_each_cover_once():
    # perfbench's layer map patches category.irredundant_covers by name:
    # instrument() fails here if a patched name goes missing, and the
    # cover counter reads 25 (1 + 4 + 20 covers of the 13 classes) when
    # the cover claims share one walk per class
    root = Path(__file__).resolve().parents[1]
    code = f"""
import sys
sys.path[:0] = [{str(root / "perfbench")!r}, {str(root / "src")!r}]
import spans
from irtopo import verifier
rec = spans.Recorder()
spans.instrument(rec)
verifier.run_suite(n_max=3, claims=["L1", "L2_subcover", "C5"])
print(spans.layer_metrics(rec)["category.irredundant_covers.covers"])
"""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 25


def test_trace_layer_map_sees_the_suite():
    # perfbench's --trace 1 wraps verifier functions under their module
    # globals; a fresh interpreter keeps the wrappers out of this one
    root = Path(__file__).resolve().parents[1]
    code = f"""
import contextlib, io, json, sys
sys.path[:0] = [{str(root / "perfbench")!r}, {str(root / "src")!r}]
import spans
from irtopo import cli, verifier
rec = spans.Recorder()
spans.instrument(rec)
verifier.run_suite(n_max=2)
suite = spans.span_counts(rec)
verifier._BLOCK = 2
verifier.run_suite(n_max=2, claims=["T2", "L1", "T14"])
passes = spans.span_counts(rec)["verifier.run_claim"] - suite["verifier.run_claim"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["spec", "zn", "--n", "360", "--format", "json"])
print(json.dumps({{"code": code, "suite": suite, "passes": passes, "counts": spans.span_counts(rec)}}))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    suite, counts = result["suite"], result["counts"]
    # every claim pass runs through run_claim: at 2 points, one per claim
    # and three for L2_literal's labelled counterexamples, its 5 labelled
    # spaces in blocks of 1, 2 and 2 (blocks double); whatever _BLOCK is,
    # one pass per claim for T2, L1 and T14, which all pass
    assert suite["verifier.run_claim"] == 32 + 3
    assert result["passes"] == 3
    assert suite["verifier.enumerate"] > 0
    # one traced `spec zn` call adds its own spans
    assert result["code"] == 0
    assert counts["cli.main"] == suite.get("cli.main", 0) + 1
    # cli.main writes through the module global that the layer map wraps
    assert counts["spaceio.dumps_canonical"] == suite.get("spaceio.dumps_canonical", 0) + 1
    assert counts["spectra.check_theorem8"] == suite["spectra.check_theorem8"] + 1
