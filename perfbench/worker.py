"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --jobs J \
        --trace 0|1 --out DIR [--setup-only | --record]

Imports irtopo from the checkout's ``src/``, builds the workload's inputs
(set-up ends here), runs the workload once, checks every output, and
prints one JSON line with its timings and checks.  ``--record`` writes
the output digests of the default seed to ``expected.json`` instead of
checking them.  ``perfbench/run.py`` starts this script; it is not meant
to be run by hand except to record digests.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import queries
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
clock = spans.clock

# the fixed verify budget: 7331 spaces of at most 5 points, 34 * 34 pairs
N_MAX, PAIR_MAX = 5, 3
SPACE_SWEEPS = (
    "T2 T3 T4 T6 T11 T12 P3 P4 L1 L2_literal L2_subcover C4 C5 C6 C8 C9 D5_sense_compare"
).split()
PAIR_SWEEPS = "T5 T7 T9_product T14 T15".split()
SPACE_COUNT, PAIR_COUNT = 7331, 1156


# ---------------------------------------------------------------------------
# speed calibration
#
# The shared machines this runs on change speed by up to 1.6x over tens of
# seconds, as neighbours load the same cores.  A thread in the repetition
# times a fixed loop every few milliseconds, on the same CPU as the work
# when the work runs in one process.  Each duration is scaled to the
# reference speed: multiplied by REF_SAMPLE_S over the median loop time
# around it.  The wall time is also reported as measured.

CAL_ITERATIONS = 2000
REF_SAMPLE_S = 0.00015  # one calibration loop at the reference speed
CAL_PERIOD_S = 0.01
CAL_MARGIN_S = 0.5


def calibration_sample() -> float:
    start = clock()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return clock() - start


class SpeedProbe:
    """Calibration samples (start, duration) taken by a background thread."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            start = clock()
            d = calibration_sample()
            self.starts.append(start)
            self.durations.append(d)
            time.sleep(CAL_PERIOD_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, a: float, b: float) -> float:
        """Factor taking a duration measured over [a, b] to the reference speed."""
        lo = bisect.bisect_left(self.starts, a - CAL_MARGIN_S)
        hi = bisect.bisect_right(self.starts, b + CAL_MARGIN_S)
        window = self.durations[lo:hi] if hi - lo >= 5 else self.durations
        return REF_SAMPLE_S / statistics.median(window)


def import_irtopo():
    """Import the package from this checkout's sources, never an installed copy."""
    src = (ROOT / "src").resolve()
    if not (src / "irtopo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no irtopo sources under {src}")
    sys.path.insert(0, str(src))
    import irtopo

    if not Path(irtopo.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported irtopo from {irtopo.__file__}, not {src}")
    return irtopo


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


# ---------------------------------------------------------------------------
# verify workloads


def verify_problems(payload: dict, seed: int, expected: dict | None) -> dict:
    """Claim name -> why its part of the report is wrong."""
    from irtopo.verifier import CLAIM_ORDER

    header = (payload["max_points"], payload["pair_points"], payload["seed"])
    if header != (N_MAX, PAIR_MAX, seed) or payload["all_required_passed"] is not True:
        return {name: "report header is wrong" for name in CLAIM_ORDER}
    problems = {name: "claim missing from the report" for name in CLAIM_ORDER}
    for claim in payload["claims"]:
        name = claim["claim"]
        problems.pop(name, None)
        count = claim["instances_tested"]
        if claim["category"] == "asserted" and not claim["passed"]:
            problems[name] = "asserted claim failed"
        elif name == "L2_literal" and claim["passed"]:
            problems[name] = "known-false claim passed"
        elif name in SPACE_SWEEPS and count != SPACE_COUNT:
            problems[name] = f"{count} spaces tested, expected {SPACE_COUNT}"
        elif name in PAIR_SWEEPS and count != PAIR_COUNT:
            problems[name] = f"{count} pairs tested, expected {PAIR_COUNT}"
        elif expected is not None and digest(json.dumps(claim, sort_keys=True)) != expected[
            "claims"
        ].get(name):
            problems[name] = "differs from the recorded report"
    return problems


def run_verify(seed: int, jobs: int, expected: dict | None, record: bool) -> dict:
    from irtopo import spaceio, verifier

    start = clock()
    try:
        reports = verifier.run_suite(n_max=N_MAX, seed=seed, jobs=jobs, pair_max=PAIR_MAX)
        text = spaceio.dumps_canonical(
            verifier.suite_to_jsonable(reports, N_MAX, PAIR_MAX, seed)
        )
    except Exception as e:  # a crash fails every claim, and the run goes on
        end = clock()
        problems = {name: f"suite raised {e!r}" for name in verifier.CLAIM_ORDER}
        return {"wall": (start, end), "ops": [(start, end)], "problems": problems,
                "attempted": len(problems)}
    end = clock()
    # claims run back to back, so each one's interval follows from the elapsed times
    ops = []
    t = start
    for r in reports:
        ops.append((t, t + r.elapsed))
        t += r.elapsed
    payload = json.loads(text)
    if record:
        claims = {c["claim"]: digest(json.dumps(c, sort_keys=True)) for c in payload["claims"]}
        return {"record": {"report": digest(text), "claims": claims}}
    problems = verify_problems(payload, seed, expected)
    if expected is not None and digest(text) != expected["report"] and not problems:
        problems = {name: "report differs from the recorded one" for name in verifier.CLAIM_ORDER}
    return {
        "wall": (start, end),
        "ops": ops,
        "problems": problems,
        "attempted": len(reports),
        "claims": [r.claim for r in reports],
    }


# ---------------------------------------------------------------------------
# space_queries


def setup_queries(seed: int, out: Path):
    from irtopo import cli  # noqa: F401  (imported during set-up)

    stream = queries.make_stream(seed)
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    return stream, queries.write_files(stream, inputs)


def run_queries(stream, argvs, expected: list | None, record: bool) -> dict:
    from irtopo import cli

    results = []
    ops = []
    start = clock()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as e:  # counted as a failed query
                code = f"raised {e!r}"
        ops.append((t, clock()))
        results.append((code, out.getvalue()))
    end = clock()
    digests = [digest(f"{code}\n{text}") for code, text in results]
    if record:
        return {"record": digests}
    problems = {}
    for i, (q, (code, text)) in enumerate(zip(stream, results)):
        why = code if isinstance(code, str) else queries.check(q, code, text)
        if why is None and expected is not None and digests[i] != expected[i]:
            why = "differs from the recorded output"
        if why is not None:
            problems[f"{i}:{q.command}"] = why
    return {"wall": (start, end), "ops": ops, "problems": problems, "attempted": len(stream)}


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("verify", "space_queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.record and args.seed != queries.DEFAULT_SEED:
        raise SystemExit("perfbench: digests are recorded for the default seed only")

    if args.jobs == 1:
        # one process: keep it and its calibration thread on one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_irtopo()
    rec = None
    if args.trace:
        rec = spans.Recorder(child_dir=args.out)
        spans.instrument(rec)
    if args.workload == "space_queries":
        stream, argvs = setup_queries(args.seed, args.out)
    ready = clock()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    expected = None
    if args.seed == queries.DEFAULT_SEED and not args.record:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    with SpeedProbe() as probe:
        if args.workload == "verify":
            result = run_verify(args.seed, args.jobs, expected and expected["verify"], args.record)
        else:
            result = run_queries(stream, argvs, expected and expected["space_queries"], args.record)
    if args.workload == "space_queries":
        shutil.rmtree(args.out / "inputs")

    if args.record:
        doc = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        doc[args.workload] = result["record"]
        EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    start, end = result.pop("wall")
    scale = probe.scale(start, end)
    result["raw_wall_s"] = end - start
    result["wall_s"] = (end - start) * scale
    result["latencies_s"] = [(b - a) * probe.scale(a, b) for a, b in result.pop("ops")]
    if "claims" in result:
        result["claims_s"] = dict(zip(result.pop("claims"), result["latencies_s"]))
    result["ready"] = ready
    result["peak_rss_mb"] = peak_rss_mb()
    result["failed"] = len(result["problems"])
    if rec is not None:
        spans.load_children(rec)
        result["layers"] = {
            name: value * scale if name.endswith("_s") else value
            for name, value in spans.layer_metrics(rec).items()
        }
        rec.dump(args.out / "spans")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
