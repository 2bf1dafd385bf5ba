"""Span recording for the traced run.

The recorder wraps the package's public functions from outside, under the
module attribute each caller looks up (``verifier.product`` as well as
``core.product``, since the verifier imports the name).  A span is kept in
memory as (name, start, end, parent); a layer's self time is the time its
spans cover minus the time covered by their child spans.

Pool workers forked by the verifier inherit the wrappers.  Each worker
starts an empty span list and writes it to a file when it exits, and
:func:`load_children` merges those files back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter
from multiprocessing import util as mp_util
from pathlib import Path

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """Spans in parallel arrays, plus counters and distinct-key sets."""

    def __init__(self, child_dir: Path | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.child_dir = child_dir
        self._reset()
        if child_dir is not None:
            mp_util.register_after_fork(self, Recorder._after_fork)

    def _reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.keys: dict[str, set] = {}

    def _after_fork(self) -> None:
        # runs in a forked pool worker, after multiprocessing cleared the
        # finalizers inherited from the parent
        self._reset()
        mp_util.Finalize(self, self._dump_child, exitpriority=10)

    def _dump_child(self) -> None:
        path = self.child_dir / f"child-{os.getpid()}-{time.monotonic_ns()}"
        self.dump(path)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def note_key(self, kind: str, key) -> None:
        self.keys.setdefault(kind, set()).add(key)

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording one span per call; ``observe(rec, args, kwargs, result)``
        may add counters after each call."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str, counter: str | None = None):
        """A generator function whose every resumption is a span, so that
        the time spent producing items is charged to ``name``."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(self.stack[-1])
                self.end.append(0.0)
                self.stack.append(idx)
                self.start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end[idx] = clock()
                    self.stack.pop()
                if counter is not None:
                    self.counters[counter] += 1
                yield item

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans to ``path``.bin and the rest to ``path``.json."""
        with open(f"{path}.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "count": len(self.start),
            "counters": dict(self.counters),
            "keys": {k: [list(key) for key in v] for k, v in self.keys.items()},
        }
        Path(f"{path}.json").write_text(json.dumps(meta), encoding="utf-8")

    def merge(self, path: Path) -> None:
        """Append the spans written by :meth:`dump` at ``path``; their roots
        stay roots."""
        meta = json.loads(Path(f"{path}.json").read_text(encoding="utf-8"))
        count = meta["count"]
        arrays = [array("i"), array("i"), array("d"), array("d")]
        with open(f"{path}.bin", "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, count)
        ids = [self.name_id(n) for n in meta["names"]]
        offset = len(self.start)
        self.name.extend(array("i", (ids[i] for i in arrays[0])))
        self.parent.extend(array("i", (p + offset if p >= 0 else -1 for p in arrays[1])))
        self.start.extend(arrays[2])
        self.end.extend(arrays[3])
        self.counters.update(meta["counters"])
        for kind, keys in meta["keys"].items():
            self.keys.setdefault(kind, set()).update(_freeze(k) for k in keys)


def _freeze(value):
    return tuple(_freeze(v) for v in value) if isinstance(value, list) else value


def load_children(rec: Recorder) -> None:
    """Merge and delete the span files written by forked workers."""
    for meta in sorted(rec.child_dir.glob("child-*.json")):
        stem = meta.with_suffix("")
        rec.merge(stem)
        meta.unlink()
        Path(f"{stem}.bin").unlink()


def self_times(names, parent, start, end) -> dict:
    """Total self time per span name; span ``i`` is named ``names[i]``.

    A span's self time is its duration minus the part of it that its
    child spans cover; overlapping or adjacent children are counted once,
    and a child sticking out of its parent counts only inside it.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # per parent: how far children have been counted
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    out: dict = {}
    for i in range(n):
        out[names[i]] = out.get(names[i], 0.0) + (end[i] - start[i]) - covered[i]
    return out


def span_counts(rec: Recorder) -> Counter:
    counts = Counter(rec.name)
    return Counter({rec.names[i]: c for i, c in counts.items()})


# ---------------------------------------------------------------------------
# the layer map


def _ir_cat_key(rec, args, kwargs, result):
    space = args[0] if args else kwargs["space"]
    sense = args[1] if len(args) > 1 else kwargs.get("sense", "subspace")
    rec.note_key("ir_cat.spaces", space.reach_rows)
    rec.note_key("ir_cat.keys", (space.reach_rows, sense))


def _continuous_maps(rec, args, kwargs, result):
    domain = args[0] if args else kwargs["domain"]
    codomain = args[1] if len(args) > 1 else kwargs["codomain"]
    rec.counters["continuous_maps.candidates"] += codomain.n**domain.n
    rec.counters["continuous_maps.returned"] += len(result)


def _equivalent(rec, args, kwargs, result):
    rec.counters["ir_homotopy_equivalent.found"] += result is not None


def instrument(rec: Recorder) -> None:
    """Replace the package's public functions by recording wrappers."""
    from irtopo import category, cli, core, homotopy, intervals, spaceio, spectra, verifier

    def patch(module, attr, name, observe=None):
        setattr(module, attr, rec.wrap(getattr(module, attr), name, observe))

    patch(verifier, "run_claim", "verifier.run_claim")
    verifier.enumerate_spaces = rec.wrap_generator(
        verifier.enumerate_spaces, "verifier.enumerate"
    )
    patch(verifier, "chain_homotopy_oracle", "verifier.oracle")
    patch(verifier, "box_topology", "verifier.oracle")
    patch(core, "product", "core.product")
    patch(verifier, "product", "core.product")

    patch(category, "ir_cat", "category.ir_cat", _ir_cat_key)
    patch(spectra, "ir_cat", "category.ir_cat", _ir_cat_key)
    patch(category, "covering_dimension", "category.covering_dimension")
    category.irredundant_covers = rec.wrap_generator(
        category.irredundant_covers, "category.irredundant_covers", "irredundant_covers.covers"
    )
    patch(category, "check_refinement", "category.check_refinement")
    patch(category, "min_subcover", "category.min_subcover")

    patch(homotopy, "continuous_maps", "homotopy.continuous_maps", _continuous_maps)
    patch(homotopy, "ir_homotopy_equivalent", "homotopy.ir_homotopy_equivalent", _equivalent)
    patch(homotopy, "ir_co", "homotopy.ir_co")

    for attr in ("load_space", "space_to_dict", "dumps_canonical"):
        patch(spaceio, attr, f"spaceio.{attr}")
    patch(cli, "main", "cli.main")
    for attr in ("factorize", "check_theorem8"):
        patch(spectra, attr, f"spectra.{attr}")
    for attr, value in list(vars(intervals).items()):
        if (
            callable(value)
            and not isinstance(value, type)
            and not attr.startswith("_")
            and getattr(value, "__module__", None) == intervals.__name__
        ):
            patch(intervals, attr, "intervals")


def layer_metrics(rec: Recorder) -> dict:
    """Counts, self times and ratios for each layer, by metric name."""
    counts = span_counts(rec)
    by_id = self_times(rec.name, rec.parent, rec.start, rec.end)
    selfs = {rec.names[i]: t for i, t in by_id.items()}
    c = rec.counters
    calls = counts["category.ir_cat"]
    cat_keys = len(rec.keys.get("ir_cat.keys", ()))
    candidates = c["continuous_maps.candidates"]
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in LAYERS}
    out.update(
        {
            "verifier.oracle.calls": counts["verifier.oracle"],
            "category.ir_cat.calls": calls,
            "category.ir_cat.distinct_spaces": len(rec.keys.get("ir_cat.spaces", ())),
            "category.ir_cat.reuse_ratio": (calls - cat_keys) / calls if calls else 0.0,
            "category.covering_dimension.calls": counts["category.covering_dimension"],
            "category.irredundant_covers.covers": c["irredundant_covers.covers"],
            "homotopy.continuous_maps.calls": counts["homotopy.continuous_maps"],
            "homotopy.continuous_maps.candidates": candidates,
            "homotopy.continuous_maps.returned": c["continuous_maps.returned"],
            "homotopy.continuous_maps.useful_ratio": c["continuous_maps.returned"] / candidates
            if candidates
            else 0.0,
            "homotopy.ir_homotopy_equivalent.calls": counts["homotopy.ir_homotopy_equivalent"],
            "homotopy.ir_homotopy_equivalent.found": c["ir_homotopy_equivalent.found"],
            "homotopy.ir_co.calls": counts["homotopy.ir_co"],
            "core.product.calls": counts["core.product"],
        }
    )
    return out


# span names whose self time is reported
LAYERS = (
    "verifier.run_claim",
    "verifier.enumerate",
    "verifier.oracle",
    "category.ir_cat",
    "category.covering_dimension",
    "category.irredundant_covers",
    "category.check_refinement",
    "category.min_subcover",
    "homotopy.continuous_maps",
    "homotopy.ir_homotopy_equivalent",
    "homotopy.ir_co",
    "core.product",
    "spaceio.load_space",
    "spaceio.space_to_dict",
    "spaceio.dumps_canonical",
    "cli.main",
    "spectra.factorize",
    "spectra.check_theorem8",
    "intervals",
)
