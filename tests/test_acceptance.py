"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

from irtopo import spec_zn, check_theorem8
from irtopo.spaceio import dumps_canonical
from irtopo.verifier import (
    enumerate_spaces,
    run_claim,
    run_suite,
    suite_to_jsonable,
    topologies_by_open_families,
)

EXPECTED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_enumeration_counts():
    start = time.monotonic()
    counts = {n: sum(1 for _ in enumerate_spaces(n)) for n in range(1, 5)}
    small_elapsed = time.monotonic() - start
    counts[5] = sum(1 for _ in enumerate_spaces(5))
    cross = all(
        len(topologies_by_open_families(n)) == EXPECTED_COUNTS[n]
        and topologies_by_open_families(n)
        == {s.reach_rows for s in enumerate_spaces(n)}
        for n in range(1, 4)
    )
    ok = counts == EXPECTED_COUNTS and cross and small_elapsed < 10.0
    _verdict(
        1,
        ok,
        f"counts {tuple(counts[n] for n in range(1, 6))}, open-family cross-check "
        f"at n<=3 {'ok' if cross else 'MISMATCH'}, n<=4 in {small_elapsed:.2f}s",
    )


def test_criterion_2_path_closure_sweep():
    reports = [run_claim(name, n_max=4) for name in ("T2", "T3", "T4")]
    ok = all(r.passed for r in reports) and all(
        r.instances_tested == 389 for r in reports
    )
    _verdict(
        2,
        ok,
        "path existence == closure membership and T1 forces constants on all "
        f"389 spaces of 1..4 points ({sum(r.counterexample_count for r in reports)} violations)",
    )


def test_criterion_3_contractibility_oracle():
    start = time.monotonic()
    report = run_claim("T6", n_max=3)
    elapsed = time.monotonic() - start
    ok = report.passed and report.instances_tested == 34 and elapsed < 300.0
    _verdict(
        3,
        ok,
        f"pointwise contractibility matches the chain-model oracle on all 34 "
        f"spaces of <=3 points in {elapsed:.2f}s",
    )


def test_criterion_4_product_core():
    report = run_claim("T7", n_max=3, pair_max=3)
    ok = report.passed and report.instances_tested == 34 * 34
    _verdict(
        4,
        ok,
        f"core of product equals product of cores on {report.instances_tested} "
        f"pairs ({report.counterexample_count} violations)",
    )


def test_criterion_5_spectra():
    start = time.monotonic()
    bad = 0
    for n in range(2, 100001):
        okay, _ = check_theorem8(spec_zn(n))
        if not okay:
            bad += 1
    poset_report = run_claim("T8", n_max=4)
    elapsed = time.monotonic() - start
    ok = bad == 0 and poset_report.passed and elapsed < 120.0
    _verdict(
        5,
        ok,
        f"category == number of maximal ideals for every modulus in [2, 10^5] "
        f"({bad} failures) and for all posets on <=4 points, in {elapsed:.1f}s",
    )


def test_criterion_6_cover_structure_sweeps():
    names = ("P3", "L1", "L2_subcover", "C8", "T12", "T13", "C4", "C9")
    reports = {name: run_claim(name, n_max=4) for name in names}
    literal = run_claim("L2_literal", n_max=4)
    structure_ok = all(r.passed for r in reports.values())
    literal_ok = (
        not literal.passed
        and literal.counterexample_count > 0
        and all(
            len(c["padded_cover"]) == c["cat"] + 1 for c in literal.counterexamples
        )
    )
    ok = structure_ok and literal_ok
    _verdict(
        6,
        ok,
        "cover-structure sweeps pass on all spaces of 1..4 points "
        f"({', '.join(names)}); padded-cover reading fails as expected with "
        f"{literal.counterexample_count} counterexamples",
    )


def test_criterion_7_product_category_experiment():
    report = run_claim("T9_product", n_max=3, pair_max=3)
    verdict = (
        "multiplicative on every pair"
        if report.passed
        else f"{report.counterexample_count} counterexamples recorded"
    )
    ok = report.instances_tested == 34 * 34
    _verdict(
        7,
        ok,
        f"product-category experiment over {report.instances_tested} pairs under "
        f"both witness senses: {verdict}",
    )


def test_criterion_8_equivalence_invariants():
    t14 = run_claim("T14", n_max=3, pair_max=3)
    t15 = run_claim("T15", n_max=3, pair_max=3)
    emitted = (
        (t14.passed or t14.counterexample_count > 0)
        and (t15.passed or t15.counterexample_count > 0)
    )
    ok = emitted and t14.instances_tested == t15.instances_tested == 34 * 34
    detail = (
        f"equivalence sweeps: contractibility transfer "
        f"{'holds' if t14.passed else f'FAILS ({t14.counterexample_count} cases)'}; "
        f"category invariance "
        f"{'holds' if t15.passed else f'FAILS ({t15.counterexample_count} cases)'}"
    )
    _verdict(8, ok, detail)


def test_criterion_9_quasi_metric():
    report = run_claim("P1", n_max=1, seed=0)
    ok = report.passed and report.instances_tested == 10000
    _verdict(
        9,
        ok,
        f"quasi-metric axioms and exact ball endpoints on "
        f"{report.instances_tested} seeded rational instances "
        f"({report.counterexample_count} violations)",
    )


def test_criterion_10_determinism_across_jobs():
    sequential = run_suite(n_max=3, seed=0, jobs=1)
    parallel = run_suite(n_max=3, seed=0, jobs=8)
    blob_seq = dumps_canonical(suite_to_jsonable(sequential, 3, None, 0)).encode()
    blob_par = dumps_canonical(suite_to_jsonable(parallel, 3, None, 0)).encode()
    ok = blob_seq == blob_par
    _verdict(
        10,
        ok,
        f"verification reports byte-identical for jobs=1 and jobs=8 "
        f"({len(blob_seq)} bytes)",
    )
