"""Tests for the benchmark's own helpers: python3 -m pytest perfbench"""

import json
import statistics
from collections import Counter
from pathlib import Path

import queries
import run
import spans
import worker


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile(values, 99.9) == 100
    assert run.percentile([7], 50) == 7


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 1001))) == (99, 990)
    assert run.tail(list(range(1, 201))) == (95, 190)


def test_tail_counts_only_values_strictly_above():
    assert run.tail([1] * 50 + [2] * 50) == (50, 1)
    # too few samples for any percentile: the maximum, without a percentile
    assert run.tail(list(range(15))) == (None, 14)


def _self(spans_list):
    names = [s[0] for s in spans_list]
    parent = [s[1] for s in spans_list]
    start = [s[2] for s in spans_list]
    end = [s[3] for s in spans_list]
    return spans.self_times(names, parent, start, end)


def test_self_time_nested_children():
    out = _self([("a", -1, 0.0, 10.0), ("b", 0, 2.0, 5.0), ("c", 1, 3.0, 4.0)])
    assert out == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_self_time_adjacent_and_overlapping_children():
    out = _self([("p", -1, 0.0, 10.0), ("x", 0, 1.0, 3.0), ("y", 0, 3.0, 6.0)])
    assert out == {"p": 5.0, "x": 2.0, "y": 3.0}
    # children from another process may overlap: covered time counts once
    out = _self([("p", -1, 0.0, 10.0), ("x", 0, 1.0, 4.0), ("x", 0, 3.0, 8.0)])
    assert out["p"] == 3.0
    # a child outside its parent's interval counts only inside it
    out = _self([("p", -1, 0.0, 4.0), ("x", 0, 2.0, 6.0)])
    assert out["p"] == 2.0


def test_self_time_sums_spans_of_one_name():
    out = _self([("r", -1, 0.0, 4.0), ("s", 0, 0.0, 1.0), ("s", 0, 2.0, 3.0), ("s", -1, 5.0, 6.0)])
    assert out == {"r": 2.0, "s": 3.0}


def test_recorder_parents_and_generator_spans():
    rec = spans.Recorder()

    def inner(x):
        return x + 1

    def items(n):
        yield from range(n)

    inner = rec.wrap(inner, "inner")
    items = rec.wrap_generator(items, "items", counter="items")

    def outer(x):
        return sum(inner(v) for v in items(x))

    outer = rec.wrap(outer, "outer")
    assert outer(3) == 6
    names = [rec.names[i] for i in rec.name]
    assert names.count("outer") == 1
    assert names.count("inner") == 3
    assert names.count("items") == 4  # three items, then the exhausted resumption
    assert rec.counters["items"] == 3
    assert all(p == 0 for n, p in zip(names, rec.parent) if n != "outer")
    assert rec.parent[0] == -1
    assert all(e >= s for s, e in zip(rec.start, rec.end))


def test_recorder_dump_and_merge_keep_structure(tmp_path):
    rec = spans.Recorder()
    f = rec.wrap(lambda: None, "f", lambda r, a, k, res: r.note_key("k", (1, 2)))
    g = rec.wrap(lambda: f(), "g")
    g()
    rec.dump(tmp_path / "s")
    merged = spans.Recorder()
    merged.wrap(lambda: None, "other")()
    merged.merge(tmp_path / "s")
    names = [merged.names[i] for i in merged.name]
    assert names == ["other", "g", "f"]
    assert list(merged.parent) == [-1, -1, 1]
    assert merged.keys == {"k": {(1, 2)}}


def _stream_signature(seed):
    return [(q.command, q.argv, q.files, q.spaces, q.expect) for q in queries.make_stream(seed)]


def test_inputs_depend_only_on_the_seed():
    assert _stream_signature(3) == _stream_signature(3)
    assert _stream_signature(3) != _stream_signature(4)


def test_streams_have_distinct_inputs():
    for seed in range(10):
        all_spaces = [s for q in queries.make_stream(seed) for s in q.spaces]
        assert len(set(all_spaces)) == len(all_spaces)
        assert all(2 <= len(rows) <= queries.MAX_POINTS for rows in all_spaces)


def test_stream_follows_the_schedule():
    stream = queries.make_stream(5)
    want = Counter()
    for command, count, _ in queries.SCHEDULE:
        want[command] += count
    assert Counter(q.command for q in stream) == want
    heavy = [
        q for q in stream if q.command == "cat" and 22000 <= queries.count_opens(q.spaces[0]) < 24000
    ]
    assert len(heavy) == sum(c for cmd, c, p in queries.SCHEDULE if "points" in p)
    assert all(len(q.spaces[0]) == 20 for q in heavy)


def test_count_opens_matches_enumeration():
    for seed in range(20):
        rows = queries.random_space(queries.random.Random(seed), 9, seed / 25)
        assert queries.count_opens(rows) == len(queries.open_sets(rows))
    assert queries.count_opens(tuple(1 << i for i in range(12))) == 4096
    assert queries.count_opens(tuple(1 << i for i in range(12)), cap=100) == 100


def test_checks_accept_right_and_reject_wrong_cat_output():
    q = next(q for q in queries.make_stream(6) if q.command == "cat")
    rows, labels = q.spaces[0], q.labels[0]
    cover = queries.maximal_neighborhoods(rows)
    witnesses = []
    for m in cover:
        w = m
        for x in queries.bits(m):
            w &= rows[x]
        witnesses.append(w)
    doc = {
        "ir_cat": len(cover),
        "sense": "subspace",
        "cover": [queries._label_list(labels, m) for m in cover],
        "witnesses": [queries._label_list(labels, w) for w in witnesses],
    }
    assert queries.check(q, 0, json.dumps(doc)) is None
    assert queries.check(q, 1, json.dumps(doc)) is not None
    assert queries.check(q, 0, json.dumps(dict(doc, ir_cat=len(cover) + 1))) is not None
    assert queries.check(q, 0, "not json") is not None


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_speed_probe_scales_by_the_samples_around_an_interval():
    probe = worker.SpeedProbe()
    probe.starts = [0.1 * i for i in range(100)]
    ref = worker.REF_SAMPLE_S
    probe.durations = [ref] * 50 + [2 * ref] * 50
    assert probe.scale(1.0, 2.0) == 1.0
    assert probe.scale(7.0, 8.0) == 0.5
    # with fewer than five samples near the interval, all samples count
    assert probe.scale(50.0, 50.0) == ref / statistics.median(probe.durations)
