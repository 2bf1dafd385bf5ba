import concurrent.futures
import dataclasses
import hashlib
import json
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
    UnknownClaim,
    _check_t3,
    _check_t11,
    _meets,
    _p1_instances,
    _packed_covers,
    _padded_cover,
    _smallest_boxes,
    _space_table,
    _spaces_upto,
    box_topology,
    chain_homotopy_oracle,
    enumerate_spaces,
    run_claim,
    run_suite,
    suite_passed,
    suite_to_jsonable,
    topologies_by_open_families,
)
from irtopo.spaceio import dumps_canonical

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
    def test_each_swept_space_is_built_and_worked_out_once_per_shard(self, monkeypatch, jobs):
        # a sweep of every claim over single spaces, with core.transpose,
        # which open_sets calls through min_opens, recording its inputs
        # shard by shard: each shard works out the structure of its own
        # spaces, once each, and no check works out a swept space again
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

        monkeypatch.setattr(verifier, "_space_table", lru_cache(maxsize=None)(_space_table.__wrapped__))
        for n in range(1, 5):  # a fresh table, whose build transposes its parents
            verifier._space_table(n)
        monkeypatch.setattr(core, "transpose", recording)
        monkeypatch.setattr(verifier, "_run_shard", run_shard)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        names = [name for name, spec in CLAIMS.items() if spec.instances in verifier._SWEEPS]
        assert len(names) == 18
        reports = run_suite(n_max=4, claims=names, jobs=jobs)
        assert all(r.passed or r.category != "asserted" for r in reports)
        swept = [s.reach_rows for s in _spaces_upto(4)]
        assert len(swept) == 389
        assert shards == [Counter(swept[shard::jobs]) for shard in range(jobs)]
        assert [sum(c.values()) for c in shards] == ([389] if jobs == 1 else [195, 194])

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
    """The oracle's walks on a 30-point space, whose masks points_of walks
    bit by bit rather than reading from its byte table."""

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
        # C5 compares the packed covers with the one cover (full,): give one
        # contractible space a second cover, and C5 names that space alone
        from irtopo import homotopy, verifier

        target = next(s for s in _spaces_upto(2) if s.n == 2 and homotopy.ir_co(s))
        real = verifier._packed_covers

        def packed(space):
            return real(space) + b"\0" + bytes((1, 2)) if space == target else real(space)

        monkeypatch.setattr(verifier, "_packed_covers", packed)
        report = run_claim("C5", n_max=3)
        assert report.counterexample_count == 1
        (payload,) = report.counterexamples
        assert payload["space"]["reach"] == [list(p) for p in target.reach_pairs()]
        assert payload["covers"] == [[["0", "1"]], [["0"], ["1"]]]

    def test_packed_covers_refuse_masks_over_a_byte(self):
        # the indiscrete 9-point space has the one cover (511,)
        nine = FiniteSpace(tuple("abcdefghi"), (511,) * 9)
        with pytest.raises(ValueError):
            _packed_covers(nine)

    def test_cover_claims_walk_each_space_once(self, monkeypatch):
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
        swept = list(_spaces_upto(4))
        assert len(walked) == len(swept) == 389
        assert Counter(walked) == Counter(swept)

    @pytest.mark.parametrize("block", [None, 49], ids=["one-block", "block-49"])
    @pytest.mark.parametrize("claim, helper", _COVER_HELPERS)
    def test_cover_claims_decide_each_distinct_pair_once(self, monkeypatch, claim, helper, block):
        # both decisions depend on the (optimal cover, cover) pair alone,
        # so a pair decided right at one space is skipped at the next in
        # its block; a new block decides it again
        from irtopo import verifier

        decided = []
        real = getattr(category, helper)

        def counting(optimal, cov):
            decided.append((tuple(optimal), tuple(cov)))
            return real(optimal, cov)

        monkeypatch.setattr(category, helper, counting)
        if block is not None:
            monkeypatch.setattr(verifier, "_BLOCK", block)
        assert run_claim(claim, n_max=4).passed
        if block is None:
            held = _cover_pairs(claim, 4)
            if claim == "L1":
                assert (len(held), len(set(held))) == (1200, 499)
            assert Counter(decided) == Counter(set(held))
        else:
            swept = list(_spaces_upto(4))
            per_block = Counter()
            for lo in range(0, len(swept), block):
                per_block.update({pair for s in swept[lo:lo + block] for pair in _space_cover_pairs(claim, s)})
            assert Counter(decided) == per_block
            assert len(decided) > len(set(decided))

    @pytest.mark.parametrize("claim", ["L1", "L2_subcover"])
    def test_cover_records_hold_one_block(self, monkeypatch, claim):
        # after each space's check, the claim's records (the ``_decided``
        # memo, keyed by (claim, optimal cover)) hold the optimal covers of
        # its block so far and the pairs decided there, each recorded cover
        # the one object the intern memo keeps; no run leaves them behind
        from irtopo import verifier

        monkeypatch.setattr(verifier, "_BLOCK", 49)
        swept = list(_spaces_upto(4))
        index = {s: i for i, s in enumerate(swept)}
        held = [_space_cover_pairs(claim, s) for s in swept]
        real = CLAIMS[claim].check
        shared = []

        def watched(s):
            assert real(s) is None
            i = index[s]
            block = held[i - i % 49:i + 1]
            records = {k: v for table in verifier._MEMOS for k, v in table.items() if type(k) is tuple}
            interned = {k: v for table in verifier._MEMOS for k, v in table.items() if type(k) is bytes}
            # each space decides at least one cover, and the first pair holds its optimal cover
            assert set(records) == {(claim, space_pairs[0][0]) for space_pairs in block}
            pairs = {(optimal, tuple(cov)) for (_, optimal), covs in records.items() for cov in covs}
            assert pairs == {pair for space_pairs in block for pair in space_pairs}
            covers = [cov for covs in records.values() for cov in covs]
            assert all(interned[cov] is cov for cov in covers)
            assert len(set(map(id, covers))) == len(set(covers))
            shared.append(len(covers) - len(set(covers)))

        monkeypatch.setitem(CLAIMS, claim, dataclasses.replace(CLAIMS[claim], check=watched))
        for table in verifier._MEMOS:
            table.clear()
        assert run_claim(claim, n_max=4).passed
        assert not any(verifier._MEMOS)
        assert len(shared) == 389 and max(shared) > 0

    @pytest.mark.parametrize("claim, helper", _COVER_HELPERS)
    def test_failing_pair_fails_at_every_space_holding_it(self, monkeypatch, claim, helper):
        # a pair decided wrong is not recorded, so each space holding it
        # is a counterexample, as without the record
        target, k = _most_held(_cover_pairs(claim, 4))
        assert k >= 2
        monkeypatch.setattr(category, helper, _failing_on(helper, target))
        report = run_claim(claim, n_max=4)
        assert report.counterexample_count == k
        for payload in report.counterexamples:
            labels = payload["space"]["labels"]
            assert payload["cover"] == [[labels[p] for p in points_of(m)] for m in target[1]]

    def test_cover_claims_agree_across_jobs(self, monkeypatch):
        # L2_subcover fails on a pair that L1 decides right: a record
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
        # each shard asks ir_cat about its own spaces only, index shard
        # modulo 2, not about every space it skips, and the two claims
        # share the block's report
        from irtopo import verifier

        asked = []
        real = category.ir_cat

        def recording(space):
            asked.append(space)
            return real(space)

        monkeypatch.setattr(category, "ir_cat", recording)
        results = verifier._run_shard(["L1", "L2_subcover"], 4, 3, 0, 2, shard)
        assert [r[:2] for r in results] == [(194 + (shard == 0), 0)] * 2
        swept = list(_spaces_upto(4))
        assert len(swept) == 389
        mine = swept[shard::2]
        assert len(asked) == len(mine) and Counter(asked) == Counter(mine)

    def test_closure_claims_compute_each_space_once(self, monkeypatch):
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
        swept = list(_spaces_upto(4))
        assert len(walked) == len(swept) == 389
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

    def test_sweep_claims_get_worked_out_spaces_and_workers_agree(self, monkeypatch):
        # every sweep claim gets each space with its structure worked out,
        # read from the slots, which the properties would fill
        from irtopo import verifier

        seen = Counter()

        def watching(check):
            def watched(s):
                assert s._min_opens is not None and s._open_sets is not None, s
                seen[s] += 1
                return check(s)

            return watched

        with monkeypatch.context() as patched:
            for name, spec in CLAIMS.items():
                if spec.instances in verifier._SWEEPS:
                    patched.setitem(CLAIMS, name, dataclasses.replace(spec, check=watching(spec.check)))
            seq = run_suite(n_max=4)
        # at 4 points T13's cap takes every space too, so 18 claims see each
        assert seen == Counter({s: 18 for s in _spaces_upto(4)})
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
    """Wrap the check of every sweep claim so that, at each instance, it
    appends to seen the table index of the instance, a space, the shard
    running it and the table indices of the spaces that key the memos
    (the cover memos are keyed by covers, not spaces)."""
    from irtopo import verifier

    index = {s: i for i, s in enumerate(_spaces_upto(4))}
    shard = [None]
    real_shard = verifier._run_shard

    def run_shard(*args):
        shard[0] = args[-1]
        return real_shard(*args)

    def watching(check):
        def watched(inst):
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
    def test_block_size_changes_no_report(self, monkeypatch, block, jobs):
        # the suite and each claim run alone agree claim by claim, and the
        # suite stays byte for byte the pinned one, wherever blocks end
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
    def test_memos_hold_one_block_and_no_run_leaves_them(self, monkeypatch, jobs):
        from irtopo import verifier

        # an odd block, so that the blocks of a shard start at either parity
        monkeypatch.setattr(verifier, "_BLOCK", 49)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        seen = []
        _watch_memos(monkeypatch, seen)
        run_suite(n_max=4, pair_max=3, jobs=jobs)
        assert not any(verifier._MEMOS)
        # every space a memo holds lies in the block and the shard of the
        # space checked, and a block fills the memos with its shard
        assert len(seen) == 18 * 389
        for i, shard, held in seen:
            assert i % jobs == shard
            lo = i - i % 49
            assert held <= {j for j in range(lo, lo + 49) if j % jobs == shard}
        assert max(len(held) for *_, held in seen) == -(-49 // jobs)
        seen.clear()
        assert run_claim("L1", n_max=4).passed
        assert not any(verifier._MEMOS)
        assert len(seen) == 389 and max(len(held) for *_, held in seen) == 48

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_swept_space_outlives_its_block(self, monkeypatch, jobs):
        # at each end of a pass or block, as the memos are emptied, the
        # spaces alive that the run built are those of the shard's block
        # (the memos hold every one), or at most the 34 pair spaces a pair
        # claim's memos hold; after the run none is alive.  No collection
        # runs first: reference counting alone must free them, as the
        # memory peak of a sweep needs
        import gc

        from irtopo import verifier

        monkeypatch.setattr(verifier, "_BLOCK", 49)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
        index = {s.reach_rows: i for i, s in enumerate(_spaces_upto(4))}
        block, ends = set(), []
        real_run_claim = verifier.run_claim

        def run_claim(name, *args, _pass=None, **kwargs):
            if CLAIMS[name].instances in verifier._SWEEPS:
                block.update(i for i, _ in _pass[0])
            return real_run_claim(name, *args, _pass=_pass, **kwargs)

        def alive():
            return [o for o in gc.get_objects() if type(o) is FiniteSpace and id(o) not in before]

        class EndWatch(list):
            def __iter__(self):
                # the table indices of the spaces alive (-1 off the table), no space itself
                ends.append((set(block), sorted(index.get(s.reach_rows, -1) for s in alive())))
                block.clear()
                return super().__iter__()

        # held, so that no id of theirs is reused
        older = [o for o in gc.get_objects() if type(o) is FiniteSpace]
        before = set(map(id, older))
        monkeypatch.setattr(verifier, "run_claim", run_claim)
        monkeypatch.setattr(verifier, "_MEMOS", EndWatch(verifier._MEMOS))
        run_suite(n_max=4, pair_max=3, jobs=jobs)
        assert alive() == []
        blocks = [(mine, spaces) for mine, spaces in ends if mine]
        assert len(blocks) == 8 * jobs
        for mine, spaces in blocks:
            assert len(mine) <= -(-49 // jobs)
            assert spaces == sorted(mine)
        assert sorted(i for mine, _ in blocks for i in mine) == list(range(389))
        assert all(0 <= i < 34 for mine, spaces in ends if not mine for i in spaces)
        assert max(len(spaces) for mine, spaces in ends if not mine) > 0

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
    # cover counter reads 60 (1 + 5 + 54 covers) when the cover claims
    # share one walk per space
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
    assert int(done.stdout) == 60


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
blocks = spans.span_counts(rec)["verifier.run_claim"] - suite["verifier.run_claim"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["spec", "zn", "--n", "360", "--format", "json"])
print(json.dumps({{"code": code, "suite": suite, "blocks": blocks, "counts": spans.span_counts(rec)}}))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    suite, counts = result["suite"], result["counts"]
    # every claim pass runs through run_claim: at 2 points, one per claim;
    # in blocks of 2 of the 5 spaces, three per sweep claim and one for T14
    assert suite["verifier.run_claim"] == 32
    assert result["blocks"] == 3 + 3 + 1
    assert suite["verifier.enumerate"] > 0
    # one traced `spec zn` call adds its own spans
    assert result["code"] == 0
    assert counts["cli.main"] == suite.get("cli.main", 0) + 1
    # cli.main writes through the module global that the layer map wraps
    assert counts["spaceio.dumps_canonical"] == suite.get("spaceio.dumps_canonical", 0) + 1
    assert counts["spectra.check_theorem8"] == suite["spectra.check_theorem8"] + 1
