"""Tests of the benchmark's own arithmetic: percentiles, self time, wrappers."""

import json
import random
import types
from pathlib import Path

import pytest

import run
import spans


def test_percentile_nearest_rank_leaves_ten_beyond_p90():
    latencies = list(range(1, 101))
    random.Random(3).shuffle(latencies)
    assert run.percentile(latencies, 50) == 50
    assert run.percentile(latencies, 90) == 90
    assert sum(v > run.percentile(latencies, 90) for v in latencies) == 10
    # 105 tasks (whole cycles of 7 classes): still >= 10 beyond p90
    assert sum(v > run.percentile(range(105), 90) for v in range(105)) >= 10


def test_percentile_never_averages_across_a_class_gap():
    fast, slow = [10.0] * 51, [100.0] * 50
    assert run.percentile(fast + slow, 50) == 10.0
    assert run.percentile(slow + fast, 90) == 100.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    root = rec.open("root")            # [0, 10]
    a = rec.open("a")                  # [1, 4]
    rec.close(a)
    b = rec.open("b")                  # [5, 9] with child c [6, 7]
    c = rec.open("c")
    rec.close(c)
    rec.close(b)
    rec.close(root)
    out = spans.self_times(rec.names, rec.starts, rec.ends, rec.parents)
    assert out == {"root": [1, 3.0], "a": [1, 3.0], "b": [1, 3.0], "c": [1, 1.0]}


def test_self_time_sums_calls_of_one_name():
    names = ["task", "layer", "layer", "task"]
    starts, ends = [0.0, 0.5, 1.5, 3.0], [2.0, 1.0, 1.75, 4.0]
    parents = [-1, 0, 0, -1]
    out = spans.self_times(names, starts, ends, parents)
    assert out["task"] == [2, 2.25]
    assert out["layer"] == [2, 0.75]


def test_wrappers_return_exactly_what_they_wrap():
    sentinel = object()
    module = types.ModuleType("fake")
    module.f = lambda x, *, k=None: (sentinel, x, k)

    class Thing:
        def __init__(self):
            self.ready = True

        def method(self, y):
            return self, y

        def fail(self):
            raise KeyError("boom")

    rec = spans.Recorder()
    original_f, original_init = module.f, vars(Thing)["__init__"]
    undo = [spans.wrap_span(rec, module, "f", "fake.f"),
            spans.wrap_span(rec, Thing, "method", lambda a, kw: f"thing.{a[1]}"),
            spans.wrap_span(rec, Thing, "fail", "thing.fail"),
            spans.wrap_count(rec, Thing, "__init__", "thing.init")]
    payload = [1.5]
    result = module.f(payload, k=2)
    assert result[0] is sentinel and result[1] is payload and result[2] == 2
    thing = Thing()
    assert thing.ready
    assert thing.method(payload) == (thing, payload)
    assert thing.method(payload)[1] is payload
    with pytest.raises(KeyError):
        thing.fail()
    assert rec.names == ["fake.f", f"thing.{payload}", f"thing.{payload}", "thing.fail"]
    assert all(end >= start for start, end in zip(rec.starts, rec.ends))
    assert rec.counts["thing.init"] == 1
    for restore in undo:
        restore()
    assert module.f is original_f
    assert vars(Thing)["__init__"] is original_init


def test_resolve_reports_a_missing_name():
    owner, attr = spans.resolve("json.dumps")
    assert owner is json and attr == "dumps"
    owner, attr = spans.resolve("json.JSONEncoder.encode")
    assert owner is json.JSONEncoder and attr == "encode"
    with pytest.raises(AttributeError):
        spans.resolve("json.no_such_function")
    with pytest.raises(AttributeError):
        spans.resolve("json.JSONEncoder.no_such_method")


def test_benchmark_json_declares_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
