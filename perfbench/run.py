"""The irtopo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):

  verify_sweep     run_suite(n_max=5, pair_max=3, jobs=1), serialized as
                   ``irtopo verify --format json`` does
  verify_parallel  the same suite with one pool worker per CPU
  space_queries    a seeded stream of CLI queries run through irtopo.cli.main

Every repetition runs in a fresh interpreter (``worker.py``), so the
package's caches start cold as they do for a user's ``irtopo`` command.
Repetitions run back to back (a closed loop).  Their number is
``--seconds`` over the workload's budget per repetition, so that every
run pools the same number of latency samples and reads the same tail
percentile; on the reference machine (2 CPUs) a run lasts 0.8 to 1.6
times ``--seconds``.  Times are scaled to a reference CPU speed (see
``worker.py``), except set-up; the unscaled wall time is printed too.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs untraced and traced repetitions in turn and reports
the per-layer metrics.  The last line of output is one JSON object; the
lines before it list every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import queries
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
WORKLOADS = ("verify_sweep", "verify_parallel", "space_queries")
SETUP_PROBES = 5  # extra set-ups per run, so that setup_s is a median of several
# seconds of a run budgeted per repetition
REP_SECONDS = {"verify_sweep": 15, "verify_parallel": 7.5, "space_queries": 7.5}
REP_TIMEOUT_S = 170
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
CHEAP_CLAIMS = ("C1", "C2", "C3", "C7")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


CLAIMS = (
    "T1 T2 T3 T4 T5 T6 T7 T8 T9_product T10 T11 T12 T13 T14 T15 P1 P2 P3 P4 L1 "
    "L2_literal L2_subcover C1 C2 C3 C4 C5 C6 C7 C8 C9 D5_sense_compare"
).split()
_COUNTED = (
    "verifier.oracle category.ir_cat category.covering_dimension homotopy.continuous_maps "
    "homotopy.ir_homotopy_equivalent homotopy.ir_co core.product"
).split()
PER_LAYER = {
    **{f"verifier.claim_s.{c}": "s" for c in CLAIMS},
    **{f"{name}.self_s": "s" for name in spans.LAYERS},
    **{f"{name}.calls": "count" for name in _COUNTED},
    "verifier.pool.speedup": "ratio",
    "verifier.pool.cheap_claims_s": "s",
    "category.ir_cat.distinct_spaces": "count",
    "category.ir_cat.reuse_ratio": "ratio",
    "category.irredundant_covers.covers": "count",
    "homotopy.continuous_maps.candidates": "count",
    "homotopy.continuous_maps.returned": "count",
    "homotopy.continuous_maps.useful_ratio": "ratio",
    "homotopy.ir_homotopy_equivalent.found": "count",
    "trace.overhead_s": "s",
    "input.opens_over_1000_share": "ratio",
}


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest of PERCENTILES that has at least ``beyond`` values above
    it, as (percentile, value); (None, max) when no percentile has."""
    best = (None, max(values))
    for p in PERCENTILES:
        v = percentile(values, p)
        if sum(x > v for x in values) >= beyond:
            best = (p, v)
    return best


# ---------------------------------------------------------------------------
# repetitions


def worker_cmd(kind: str, seed: int, jobs: int, trace: int, out: Path, *extra) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", kind, "--seed", str(seed),
            "--jobs", str(jobs), "--trace", str(trace), "--out", str(out), *extra]


def rep(kind: str, seed: int, jobs: int, trace: int, out: Path, *extra) -> dict:
    """Run one repetition in a fresh interpreter; add its set-up time."""
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(
        worker_cmd(kind, seed, jobs, trace, out, *extra),
        cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def workload_args(workload: str, nproc: int) -> tuple[str, int]:
    if workload == "verify_sweep":
        return "verify", 1
    if workload == "verify_parallel":
        return "verify", nproc
    return "space_queries", 1


def repetitions(workload: str, seconds: float, per_round: int = 1) -> int:
    """Rounds of ``per_round`` repetitions that fit the run's budget."""
    return max(1, round(seconds / (per_round * REP_SECONDS[workload])))


def run_untraced(workload, seed, seconds, nproc, out):
    kind, jobs = workload_args(workload, nproc)
    probes = [rep(kind, seed, jobs, 0, out, "--setup-only") for _ in range(SETUP_PROBES)]
    reps = [rep(kind, seed, jobs, 0, out) for _ in range(repetitions(workload, seconds))]
    return reps, probes + reps


def run_traced(workload, seed, seconds, nproc, out):
    """Untraced and traced repetitions in turn, plus (for verify_parallel)
    an untraced serial one for the pool speed-up."""
    kind, jobs = workload_args(workload, nproc)
    plain, traced, serial = [], [], []
    per_round = 3 if workload == "verify_parallel" else 2
    for _ in range(repetitions(workload, seconds, per_round)):
        plain.append(rep(kind, seed, jobs, 0, out))
        if workload == "verify_parallel":
            serial.append(rep(kind, seed, 1, 0, out))
        traced.append(rep(kind, seed, jobs, 1, out))
    return plain, traced, serial


# ---------------------------------------------------------------------------
# metrics


def end_to_end(reps, setups) -> tuple[dict, dict]:
    latencies = [x for r in reps for x in r["latencies_s"]]
    tail_p, tail_v = tail(latencies)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_tail_ms": 1000 * tail_v,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {
        "repetitions": len(reps),
        "setups": len(setups),
        "samples": len(latencies),
        "tail_percentile": tail_p,
        "measured_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
    }
    return metrics, notes


def per_layer(workload, seed, plain, traced, serial) -> tuple[dict, dict]:
    metrics = {}
    layers = [r["layers"] for r in traced]
    for name in layers[0]:
        metrics[name] = statistics.median(x[name] for x in layers)
    for name in CLAIMS:
        values = [r["claims_s"].get(name, 0.0) for r in plain if "claims_s" in r]
        metrics[f"verifier.claim_s.{name}"] = statistics.median(values) if values else 0.0
    if serial:
        metrics["verifier.pool.speedup"] = statistics.median(
            r["wall_s"] for r in serial
        ) / statistics.median(r["wall_s"] for r in plain)
        metrics["verifier.pool.cheap_claims_s"] = statistics.median(
            sum(r.get("claims_s", {}).get(c, 0.0) for c in CHEAP_CLAIMS) for r in plain
        )
    else:
        metrics["verifier.pool.speedup"] = 0.0
        metrics["verifier.pool.cheap_claims_s"] = 0.0
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    notes = {}
    if workload == "space_queries":
        props = queries.properties(queries.make_stream(seed))
        share = sum(p["opens"] > 1000 for p in props) / len(props)
        metrics["input.opens_over_1000_share"] = share
        notes["inputs"] = props
    else:
        metrics["input.opens_over_1000_share"] = 0.0
    return metrics, notes


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else "unknown"
    return ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=queries.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "irtopo" / "__init__.py").is_file():
        print(f"perfbench: no irtopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    out = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            plain, traced, serial = run_traced(args.workload, args.seed, args.seconds, nproc, out)
            reps = plain + traced + serial
            metrics, notes = per_layer(args.workload, args.seed, plain, traced, serial)
            metrics = {name: metrics[name] for name in PER_LAYER}
            units = PER_LAYER
            spans_file = out / "spans.bin"
            if spans_file.exists():
                for suffix in (".bin", ".json"):
                    shutil.move(out / f"spans{suffix}", OUT / f"spans-{args.workload}{suffix}")
        else:
            reps, setups = run_untraced(args.workload, args.seed, args.seconds, nproc, out)
            metrics, notes = end_to_end(reps, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({f"{k}: {v}" for r in reps for k, v in r["problems"].items()})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": commit(), "machine": {"cpus": nproc, "platform": platform.platform(),
                                        "python": platform.python_version()},
        "metrics": metrics, "notes": notes, "problems": problems,
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(f"workload {args.workload}  seed {args.seed}  commit {record['commit'][:12]}  "
          f"cpus {nproc}  python {platform.python_version()}")
    for key, value in notes.items():
        if key != "inputs":
            print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  ops_failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
