"""Seeded inputs and output checks for the ``space_queries`` workload.

A space is handled here as a tuple of reach rows: bit ``y`` of row ``x``
is set when ``y`` lies in the closure of ``{x}``.  Everything in this
module is written independently of the ``irtopo`` package, so the checks
do not trust the code they check.

The stream is stratified: a fixed schedule of query slots (command plus
a band of input sizes) is filled with random instances drawn from the
seed.  Seeds change every input but not the mix, so the stream's median
and tail latency are comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# (command, count, parameters).  Cheap commands are 58% of the stream,
# so they set the median.  cat on about 23,000 open sets of 20 points is
# the heaviest slot and holds the top 19% of queries, so it sets the tail;
# dim and equiv inputs are bounded so that they stay below it.
SCHEDULE = (
    ("co", 40, {}),
    ("path", 40, {}),
    ("contractible", 24, {}),
    ("spec", 8, {}),
    ("cat", 4, {"opens": (4, 16)}),
    ("cat", 4, {"opens": (64, 256)}),
    ("cat", 4, {"opens": (1024, 2048)}),
    ("cat", 4, {"opens": (4096, 8192)}),
    ("cat", 36, {"opens": (22000, 24000), "points": 20}),
    ("analyze", 3, {"opens": (4, 32)}),
    ("analyze", 3, {"opens": (64, 256)}),
    ("analyze", 3, {"opens": (512, 1024)}),
    ("analyze", 3, {"opens": (2048, 2600)}),
    ("dim", 4, {"opens": (8, 16)}),
    ("dim", 4, {"opens": (16, 21)}),
    ("equiv", 8, {}),
)
# equiv enumerates every map both ways and then tries map pairs
EQUIV_MAX_CANDIDATES = 8_000
EQUIV_MAX_PAIRS = 1_500
MIN_POINTS = 4
MAX_POINTS = 24


# ---------------------------------------------------------------------------
# finite spaces as reach rows


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(rows: list[int]) -> tuple[int, ...]:
    rows = list(rows)
    changed = True
    while changed:
        changed = False
        for x, row in enumerate(rows):
            grown = row
            for y in bits(row):
                grown |= rows[y]
            if grown != row:
                rows[x] = grown
                changed = True
    return tuple(rows)


def columns(rows) -> tuple[int, ...]:
    """Column y is the smallest open set containing y."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        for y in bits(row):
            cols[y] |= 1 << x
    return tuple(cols)


def count_opens(rows, cap: int | None = None) -> int:
    """Number of open sets, i.e. of sets closed under "x reaches y, y in O => x in O".

    An open set either avoids a point p (and then everything p reaches)
    or contains it (and then everything reaching p); the two branches
    are counted on what remains, per connected component.  With ``cap``,
    counting stops early and any count of at least ``cap`` reads as ``cap``.
    """
    rows = tuple(rows)
    cols = columns(rows)
    link = [rows[x] | cols[x] for x in range(len(rows))]
    limit = cap if cap is not None else 1 << (len(rows) + 1)
    memo: dict[int, int] = {0: 1}

    def count(avail: int) -> int:
        if avail in memo:
            return memo[avail]
        total = 1
        rest = avail
        while rest and total < limit:
            comp = rest & -rest
            grown = comp
            while True:
                more = grown
                for p in bits(grown):
                    more |= link[p] & avail
                if more == grown:
                    break
                grown = more
            comp = grown
            rest &= ~comp
            if comp.bit_count() == 1:
                total *= 2
                continue
            p = max(bits(comp), key=lambda q: (link[q] & comp).bit_count())
            part = count(comp & ~rows[p])
            if part < limit:
                part += count(comp & ~cols[p])
            total *= part
        total = min(total, limit)
        memo[avail] = total
        return total

    return count((1 << len(rows)) - 1)


def open_sets(rows) -> list[int]:
    """Every open set, by closing the minimal neighborhoods under union."""
    cols = columns(rows)
    seen = {0}
    stack = [0]
    while stack:
        o = stack.pop()
        for m in cols:
            u = o | m
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return sorted(seen)


def core(rows) -> int:
    """Points reachable from every point."""
    acc = (1 << len(rows)) - 1
    for row in rows:
        acc &= row
    return acc


def maximal_neighborhoods(rows) -> list[int]:
    """Distinct inclusion-maximal minimal neighborhoods.

    A deformable open set O with witness w satisfies O = U_w, and a point
    whose U is maximal is covered only by that U itself; so these sets are
    exactly the optimal deformable cover.
    """
    cols = set(columns(rows))
    return sorted(u for u in cols if not any(u != v and u & ~v == 0 for v in cols))


def covering_dimension(rows) -> int:
    maximal = maximal_neighborhoods(rows)
    return max(sum(p in set(bits(u)) for u in maximal) for p in range(len(rows))) - 1


def is_open(cols, mask: int) -> bool:
    return all(cols[y] & ~mask == 0 for y in bits(mask))


def product_rows(a, b) -> tuple[int, ...]:
    nb = len(b)
    out = []
    for ra in a:
        for rb in b:
            row = 0
            for xa in bits(ra):
                row |= rb << (xa * nb)
            out.append(row)
    return tuple(out)


def is_monotone(dom, cod, assign) -> bool:
    """Continuity of a map between finite spaces: it preserves reach."""
    return all(
        cod[assign[x]] >> assign[y] & 1 for x in range(len(dom)) for y in bits(dom[x])
    )


def count_maps(dom, cod, cap: int) -> int:
    """Number of continuous maps dom -> cod, counted up to ``cap``."""
    n = len(dom)
    assign = [0] * n

    def rec(i: int) -> int:
        if i == n:
            return 1
        total = 0
        for v in range(len(cod)):
            if all(
                (not dom[i] >> j & 1 or cod[v] >> assign[j] & 1)
                and (not dom[j] >> i & 1 or cod[assign[j]] >> v & 1)
                for j in range(i)
            ):
                assign[i] = v
                total += rec(i + 1)
                if total >= cap:
                    break
        return total

    return rec(0)


# ---------------------------------------------------------------------------
# random spaces


def random_space(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    """A random preorder: relations along a random order, then closed.

    About one space in four gets a pair of indistinguishable points, so
    that non-T0 spaces are in the mix.
    """
    order = list(range(n))
    rng.shuffle(order)
    rows = [1 << x for x in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[order[i]] |= 1 << order[j]
    if rng.random() < 0.25:
        a, b = rng.sample(range(n), 2)
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return transitive_closure(rows)


def relabel(rng: random.Random, rows) -> tuple[int, ...]:
    """A copy of the space with its points permuted."""
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for x in range(n):
        out[perm[x]] = sum(1 << perm[y] for y in bits(rows[x]))
    return tuple(out)


def space_with_opens(rng: random.Random, lo: int, hi: int, points=None) -> tuple[int, ...]:
    """A random space whose open-set count lies in [lo, hi).

    ``points`` is a (least, greatest) point count.  Draws a point count
    and a relation order, then bisects the relation density: more
    relations never give more open sets.  Some draws are discrete
    spaces or products instead.
    """
    least, greatest = points or (MIN_POINTS, MAX_POINTS)
    least = max(least, (lo - 1).bit_length())
    greatest = min(greatest, hi - 2)
    while True:
        kind = rng.random()
        if kind < 0.15:
            # a discrete space on n points has 2^n open sets
            if lo <= 1 << least < hi:
                return tuple(1 << x for x in range(least))
        elif kind < 0.3:
            rows = product_rows(
                random_space(rng, rng.randint(2, 4), rng.uniform(0.2, 0.8)),
                random_space(rng, rng.randint(2, 5), rng.uniform(0.2, 0.8)),
            )
            if least <= len(rows) <= greatest and lo <= count_opens(rows, hi) < hi:
                return rows
            continue
        n = rng.randint(least, max(least, greatest))
        state = rng.getstate()
        d_lo, d_hi = 0.0, 1.0
        for _ in range(14):
            mid = (d_lo + d_hi) / 2
            rng.setstate(state)
            rows = random_space(rng, n, mid)
            c = count_opens(rows, hi)
            if c >= hi:
                d_lo = mid
            elif c < lo:
                d_hi = mid
            else:
                return rows


def equiv_pair(rng: random.Random):
    """Two spaces of at most 7 points whose map search stays within bounds.

    Half the pairs are a space and a relabelled copy, which are
    equivalent.  Returns (left, right, expected answer or None).
    """
    while True:
        n = rng.randint(3, 7)
        left = random_space(rng, n, rng.uniform(0.2, 0.8))
        if rng.random() < 0.5:
            right, expected = relabel(rng, left), True
        else:
            m = rng.randint(2, 7)
            right, expected = random_space(rng, m, rng.uniform(0.2, 0.8)), None
            if len(maximal_neighborhoods(left)) != len(maximal_neighborhoods(right)) or (
                core(left) == 0
            ) != (core(right) == 0):
                # covering category and contractibility are invariants
                expected = False
        n, m = len(left), len(right)
        if right == left or n**m + m**n > EQUIV_MAX_CANDIDATES:
            continue
        cap = EQUIV_MAX_PAIRS + 1
        if count_maps(left, right, cap) * count_maps(right, left, cap) <= EQUIV_MAX_PAIRS:
            return left, right, expected


# ---------------------------------------------------------------------------
# the query stream


@dataclass
class Query:
    """One CLI invocation: arguments, the files it reads, and what to expect."""

    command: str
    argv: list[str] = field(default_factory=list)
    files: dict[str, dict] = field(default_factory=dict)
    spaces: list[tuple[int, ...]] = field(default_factory=list)
    labels: list[list[str]] = field(default_factory=list)
    expect: dict = field(default_factory=dict)


def make_labels(rng: random.Random, n: int) -> list[str]:
    stem = rng.choice("abcdefghjkmnpqrstuvwxyz")
    return [f"{stem}{i}" for i in rng.sample(range(100), n)]


def space_document(rng: random.Random, labels, rows) -> dict:
    if len(rows) <= 6 and rng.random() < 0.5:
        # the opens variant exercises the other input route of the parser
        return {"labels": list(labels), "opens": [list(bits(o)) for o in open_sets(rows)]}
    return {
        "labels": list(labels),
        "reach": [[x, y] for x, row in enumerate(rows) for y in bits(row) if x != y],
    }


def _add_space(q: Query, rng: random.Random, rows) -> str:
    name = f"s{len(q.files)}.json"
    labels = make_labels(rng, len(rows))
    q.files[name] = space_document(rng, labels, rows)
    q.spaces.append(rows)
    q.labels.append(labels)
    return name


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
MAX_MODULUS = 10**11


def make_stream(seed: int) -> list[Query]:
    """The seeded query stream: the fixed schedule with random inputs, shuffled.

    No two inputs have the same reach relation, so no query can reuse a
    result cached for another.
    """
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()

    def distinct(draw):
        while True:
            rows = draw()
            if rows not in seen:
                seen.add(rows)
                return rows

    # Z/n has a discrete spectrum on its distinct prime divisors, so each
    # spec query gets its own number of them
    spec_sizes = list(range(1, 1 + sum(c for cmd, c, _ in SCHEDULE if cmd == "spec")))
    rng.shuffle(spec_sizes)
    out: list[Query] = []
    for command, count, params in SCHEDULE:
        for _ in range(count):
            q = Query(command)
            if command in ("co", "path", "contractible"):
                n = rng.randint(MIN_POINTS, MAX_POINTS)
                rows = distinct(lambda: random_space(rng, n, rng.uniform(0.02, 0.5)))
                q.argv = [command, _add_space(q, rng, rows)]
                if command == "path":
                    x = rng.randrange(n)
                    # half the targets are reachable, so both exit codes occur
                    y = rng.choice(list(bits(rows[x]))) if rng.random() < 0.5 else rng.randrange(n)
                    q.argv += ["--from", q.labels[0][x], "--to", q.labels[0][y]]
                    q.expect = {"from": x, "to": y}
            elif command == "spec":
                k = spec_sizes.pop()
                seen.add(tuple(1 << x for x in range(k)))
                modulus = MAX_MODULUS + 1
                while modulus > MAX_MODULUS:
                    ps = sorted(rng.sample(PRIMES, k))
                    modulus = 1
                    for p in ps:
                        modulus *= p ** rng.randint(1, 2)
                q.argv = ["spec", "zn", "--n", str(modulus)]
                q.expect = {"primes": ps}
            elif command in ("cat", "analyze", "dim"):
                lo, hi = params["opens"]
                if command == "dim":
                    points = (MIN_POINTS, 5)
                else:
                    points = (params["points"],) * 2 if "points" in params else None
                rows = distinct(lambda: space_with_opens(rng, lo, hi, points))
                q.argv = [command, _add_space(q, rng, rows)]
            elif command == "equiv":
                left, right, expected = equiv_pair(rng)
                while left in seen or right in seen:
                    left, right, expected = equiv_pair(rng)
                seen.update((left, right))
                q.argv = ["equiv", _add_space(q, rng, left), _add_space(q, rng, right)]
                q.expect = {"equivalent": expected}
            q.argv += ["--format", "json"]
            out.append(q)
    rng.shuffle(out)
    return out


def write_files(stream: list[Query], directory) -> list[list[str]]:
    """Write every query's input files; return each query's argv with real paths."""
    argvs = []
    for i, q in enumerate(stream):
        paths = {}
        for name, doc in q.files.items():
            path = directory / f"q{i:03d}_{name}"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths[name] = str(path)
        argvs.append([paths.get(a, a) for a in q.argv])
    return argvs


OPENS_REPORT_CAP = 10**6


def properties(stream: list[Query]) -> list[dict]:
    """Point and open-set count of each query's (first) input.

    Open-set counts stop at OPENS_REPORT_CAP.
    """
    out = []
    for q in stream:
        if q.command == "spec":
            k = len(q.expect["primes"])
            out.append({"command": q.command, "points": k, "opens": 2**k})
        else:
            rows = q.spaces[0]
            out.append(
                {
                    "command": q.command,
                    "points": len(rows),
                    "opens": count_opens(rows, OPENS_REPORT_CAP),
                }
            )
    return out


# ---------------------------------------------------------------------------
# output checks


def _masks(labels, groups) -> list[int]:
    index = {lab: i for i, lab in enumerate(labels)}
    return [sum(1 << index[lab] for lab in group) for group in groups]


def _label_list(labels, mask) -> list[str]:
    return [labels[p] for p in bits(mask)]


def _check_cover(rows, labels, size, cover, witnesses) -> str | None:
    """An optimal cover by deformable open sets, with in-set witnesses."""
    n = len(rows)
    cols = columns(rows)
    members = _masks(labels, cover)
    wits = _masks(labels, witnesses)
    if not size == len(members) == len(wits) == len(maximal_neighborhoods(rows)):
        return f"cover of {len(members)} sets reported as {size}, optimum is {len(maximal_neighborhoods(rows))}"
    union = 0
    for m, w in zip(members, wits):
        if not is_open(cols, m):
            return f"cover member {_label_list(labels, m)} is not open"
        if w == 0 or w & ~m:
            return f"witness {_label_list(labels, w)} is not a nonempty part of its member"
        if any(w & ~rows[x] for x in bits(m)):
            return f"witness {_label_list(labels, w)} is not reached from all of its member"
        union |= m
    if union != (1 << n) - 1:
        return "cover members do not cover the space"
    return None


def _check_co(q, code, doc):
    rows, labels = q.spaces[0], q.labels[0]
    if code != 0 or doc != {"ir_co": _label_list(labels, core(rows))}:
        return "wrong core"
    return None


def _check_contractible(q, code, doc):
    rows, labels = q.spaces[0], q.labels[0]
    c = core(rows)
    want = {"ir_contractible": c != 0, "at": _label_list(labels, c)}
    if code != (0 if c else 1) or doc != want:
        return "wrong contractibility"
    return None


def _check_path(q, code, doc):
    rows, labels = q.spaces[0], q.labels[0]
    x, y = q.expect["from"], q.expect["to"]
    exists = bool(rows[x] >> y & 1)
    if code != (0 if exists else 1) or doc["exists"] is not exists:
        return "wrong path verdict"
    if (doc["from"], doc["to"]) != (labels[x], labels[y]):
        return "wrong path end points"
    if (doc["description"] is None) is exists:
        return "path description does not match the verdict"
    return None


def _check_spec(q, code, doc):
    ps = q.expect["primes"]
    k = len(ps)
    if code != 0 or doc["ir_cat"] != k or doc["cat_equals_maximal_count"] is not True:
        return "wrong spectrum category"
    if len(doc["labels"]) != k or doc["maximal"] != doc["labels"] or doc["reach"]:
        return "spectrum is not a discrete space of closed points"
    if len(doc["opens"]) != 2**k:
        return "wrong number of open sets in the spectrum"
    return None


def _check_cat(q, code, doc):
    rows, labels = q.spaces[0], q.labels[0]
    if code != 0 or doc["sense"] != "subspace":
        return "wrong exit code or sense"
    return _check_cover(rows, labels, doc["ir_cat"], doc["cover"], doc["witnesses"])


def _check_dim(q, code, doc):
    rows, labels = q.spaces[0], q.labels[0]
    dim = covering_dimension(rows)
    if code != 0 or doc["dim"] != dim:
        return f"dimension {doc['dim']}, expected {dim}"
    cols = columns(rows)
    full = (1 << len(rows)) - 1
    worst = _masks(labels, doc["worst_cover"])
    fine = _masks(labels, doc["refinement"])
    for family in (worst, fine):
        union = 0
        for m in family:
            if not is_open(cols, m):
                return "certificate member is not open"
            union |= m
        if union != full:
            return "certificate is not a cover"
    if not all(any(m & ~v == 0 for v in worst) for m in fine):
        return "refinement does not refine the worst cover"
    order = max(sum(m >> p & 1 for m in fine) for p in range(len(rows)))
    if order != dim + 1:
        return "refinement order does not match the dimension"
    return None


def _check_analyze(q, code, doc):
    rows, labels = q.spaces[0], q.labels[0]
    n = len(rows)
    space = doc["space"]
    pairs = sorted([x, y] for x, row in enumerate(rows) for y in bits(row) if x != y)
    if space["labels"] != labels or sorted(space["reach"]) != pairs:
        return "space echoed wrongly"
    cols = columns(rows)
    opens = [sum(1 << p for p in o) for o in space["opens"]]
    if len(set(opens)) != len(opens) or len(opens) != count_opens(rows):
        return "wrong list of open sets"
    if not all(is_open(cols, o) for o in opens):
        return "listed set is not open"
    c = core(rows)
    want = {
        "points": n,
        "t0": not any(rows[x] >> y & 1 and rows[y] >> x & 1 for x in range(n) for y in range(x)),
        "t1": all(row == 1 << x for x, row in enumerate(rows)),
        "hyperconnected": all(a & b for a in cols for b in cols),
        "ir_path_connected": all(
            rows[x] >> y & 1 or rows[y] >> x & 1 for x in range(n) for y in range(x)
        ),
        "ir_co": _label_list(labels, c),
        "ir_contractible": c != 0,
        "dim": covering_dimension(rows) if n <= 5 else None,
    }
    got = {key: doc[key] for key in want}
    if got != want:
        wrong = sorted(key for key in want if got[key] != want[key])
        return f"wrong {', '.join(wrong)}"
    cat = doc["ir_cat"]
    if code != 0 or cat["sense"] != "subspace":
        return "wrong exit code or sense"
    return _check_cover(rows, labels, cat["size"], cat["cover"], cat["witnesses"])


def _check_equiv(q, code, doc):
    left, right = q.spaces
    expected = q.expect["equivalent"]
    found = doc["equivalent"]
    if code != (0 if found else 1) or doc["orientation"] != "thm15":
        return "wrong exit code or orientation"
    if expected is not None and found is not expected:
        return f"equivalence reported as {found}, expected {expected}"
    if not found:
        return None if doc["f"] is None and doc["g"] is None else "maps given for a negative answer"
    f, g = doc["f"], doc["g"]
    if len(f) != len(left) or len(g) != len(right):
        return "maps do not cover their domains"
    if not all(0 <= v < len(right) for v in f) or not all(0 <= v < len(left) for v in g):
        return "map values out of range"
    if not (is_monotone(left, right, f) and is_monotone(right, left, g)):
        return "a map is not continuous"
    if not all(left[x] >> g[f[x]] & 1 for x in range(len(left))):
        return "x does not reach g(f(x))"
    if not all(right[y] >> f[g[y]] & 1 for y in range(len(right))):
        return "y does not reach f(g(y))"
    return None


_CHECKS = {
    "co": _check_co,
    "contractible": _check_contractible,
    "path": _check_path,
    "spec": _check_spec,
    "cat": _check_cat,
    "dim": _check_dim,
    "analyze": _check_analyze,
    "equiv": _check_equiv,
}


def check(q: Query, code: int, out: str) -> str | None:
    """Why the output of query ``q`` is wrong, or None when it is right."""
    try:
        doc = json.loads(out)
        return _CHECKS[q.command](q, code, doc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        return f"malformed output: {e!r}"
