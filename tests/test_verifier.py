import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

from irtopo import (
    SearchBudgetExceeded,
    category,
    UnknownClaim,
    chain_homotopy_oracle,
    chain_space,
    enumerate_spaces,
    ir_homotopic,
    run_claim,
    run_suite,
)
from irtopo.core import ReachNotPreorder, from_reach
from irtopo.homotopy import continuous_maps
from irtopo.verifier import (
    CLAIM_ORDER,
    CLAIMS,
    _space_table,
    box_topology,
    suite_passed,
    suite_to_jsonable,
    topologies_by_open_families,
)
from irtopo.spaceio import dumps_canonical

from conftest import discrete


EXPECTED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}


def _inline_pool(sizes):
    """A stand-in for ProcessPoolExecutor that appends its size to sizes
    and runs each shard in this process."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    return InlinePool


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
        from irtopo.core import iter_points

        for n in range(1, 4):
            for s in enumerate_spaces(n):
                for x in range(n):
                    assert s.reach(x, x)
                    for y in iter_points(s.reach_rows[x]):
                        assert s.reach_rows[y] & ~s.reach_rows[x] == 0

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            list(enumerate_spaces(6))
        with pytest.raises(SearchBudgetExceeded):
            list(enumerate_spaces(0))

    def test_every_call_yields_the_same_spaces(self):
        # built once per process, so cached properties are shared
        for n in range(1, 6):
            first, again = list(enumerate_spaces(n)), list(enumerate_spaces(n))
            assert len(first) == len(again)
            assert all(a is b for a, b in zip(first, again))

    def test_children_are_every_preorder_extension(self):
        # The spaces of _space_table(n) whose first n - 1 points restrict
        # to P must be every pair (I, O) of masks over P, with I reaching
        # the new last point and O reached from it, that from_reach accepts.
        for n in range(1, 6):
            bit_p = 1 << (n - 1)
            drawn = {}
            for child in _space_table(n):
                parent = tuple(row & ~bit_p for row in child.reach_rows[:-1])
                drawn.setdefault(parent, set()).add(child.reach_rows)
            assert sum(map(len, drawn.values())) == len(_space_table(n))
            brute = {}
            for space in _space_table(n - 1):
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

    def test_matches_open_family_enumeration(self):
        for n in range(1, 4):
            families = topologies_by_open_families(n)
            assert len(families) == EXPECTED_COUNTS[n]
            enumerated = {s.reach_rows for s in enumerate_spaces(n)}
            assert families == enumerated


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
            ("check_refinement", lambda s, cov: (True, ())),
            ("check_refinement", lambda s, cov: (True, (0,) * len(category.ir_cat(s).sets))),
            ("min_subcover", lambda s, cov: ()),
            ("min_subcover", lambda s, cov: (s.full_mask,)),
        ],
        ids=["no-mapping", "wrong-mapping", "empty-subcover", "foreign-subcover"],
    )
    def test_cover_claims_check_their_helpers(self, monkeypatch, helper, mutant):
        # L1 and L2_subcover check what the helpers return, not only their shape
        claim = "L1" if helper == "check_refinement" else "L2_subcover"
        assert run_claim(claim, n_max=3).passed
        monkeypatch.setattr(category, helper, mutant)
        assert not run_claim(claim, n_max=3).passed

    def test_equivalence_search_runs_only_when_the_violation_fires(self, monkeypatch):
        # T14 and T15 test their cheap violation first; a payload still
        # carries the maps that the equivalence search found
        from irtopo import homotopy, verifier

        pairs = [(a, b) for n in (1, 2) for a in enumerate_spaces(n) for b in enumerate_spaces(n)]
        equivalent = 0
        for a, b in pairs:
            payload = verifier._equivalence_counterexample((a, b), lambda a, b: {"mark": 1})
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

        def no_search(a, b):
            raise AssertionError("equivalence searched for a pair with no violation")

        monkeypatch.setattr(homotopy, "ir_homotopy_equivalent", no_search)
        for pair in pairs:
            assert verifier._equivalence_counterexample(pair, lambda a, b: None) is None

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

    def test_jobs_do_not_change_reports(self):
        seq = run_claim("T7", n_max=3, jobs=1)
        par = run_claim("T7", n_max=3, jobs=2)
        assert seq.to_jsonable() == par.to_jsonable()

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        from irtopo import verifier

        sizes = []
        monkeypatch.setattr(verifier, "ProcessPoolExecutor", _inline_pool(sizes))
        seq = run_claim("T7", n_max=3, jobs=1).to_jsonable()
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 3)
        assert run_claim("T7", n_max=3, jobs=64).to_jsonable() == seq
        assert sizes == [3]
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 1)
        assert run_claim("T7", n_max=3, jobs=64).to_jsonable() == seq
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
            run_claim("T2", n_max=1, jobs=jobs)
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

    def test_repeated_claim_rejected_before_any_claim_runs(self, monkeypatch):
        from irtopo import verifier

        ran = []
        monkeypatch.setattr(verifier, "run_claim", lambda name, **kw: ran.append(name))
        with pytest.raises(UnknownClaim, match="'T2' selected more than once"):
            run_suite(n_max=2, claims=["T2", "T7", "T2"])
        assert ran == []

    def test_empty_selection_rejected(self):
        # an empty selection would report a pass with nothing checked
        with pytest.raises(UnknownClaim, match="no claim selected"):
            run_suite(n_max=2, claims=[])

    def test_jsonable_structure(self):
        reports = run_suite(n_max=2, claims=["T2", "L2_literal"])
        payload = suite_to_jsonable(reports, 2, None, 0)
        assert payload["max_points"] == 2
        assert payload["pair_points"] == 2
        assert payload["all_required_passed"] is True

    def test_one_pool_per_suite(self, monkeypatch):
        from irtopo import verifier

        sizes = []
        monkeypatch.setattr(verifier, "ProcessPoolExecutor", _inline_pool(sizes))
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 3)
        seq = suite_to_jsonable(run_suite(n_max=2, jobs=1), 2, None, 0)
        assert sizes == []
        par = suite_to_jsonable(run_suite(n_max=2, jobs=64), 2, None, 0)
        assert sizes == [3]
        assert par == seq

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

    def test_suite_fills_the_shared_spaces_and_workers_agree(self, monkeypatch):
        from irtopo import verifier

        seq = run_suite(n_max=4)
        for n in range(1, 5):
            for s in enumerate_spaces(n):
                assert {"min_opens", "open_sets"} <= vars(s).keys(), s
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
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["spec", "zn", "--n", "360", "--format", "json"])
print(json.dumps({{"code": code, "suite": suite, "counts": spans.span_counts(rec)}}))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    suite, counts = result["suite"], result["counts"]
    assert suite["verifier.run_claim"] == 32
    assert suite["verifier.enumerate"] > 0
    # one traced `spec zn` call adds its own spans
    assert result["code"] == 0
    assert counts["cli.main"] == suite.get("cli.main", 0) + 1
    # cli.main writes through the module global that the layer map wraps
    assert counts["spaceio.dumps_canonical"] == suite.get("spaceio.dumps_canonical", 0) + 1
    assert counts["spectra.check_theorem8"] == suite["spectra.check_theorem8"] + 1
