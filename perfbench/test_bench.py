"""Tests for the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "_clock", fake)
    return fake


def test_generator_spans_time_each_resume_and_subtract_children(clock):
    tracer = spans.Tracer(["outer", "inner"])

    def inner():
        clock.t += 2
        yield "a"
        clock.t += 3
        yield "b"
        clock.t += 1
        return "inner-done"

    inner_w = tracer.wrap_function("inner", inner)

    def outer():
        clock.t += 10
        value = yield from inner_w()
        assert value == "inner-done"
        clock.t += 5
        yield "c"
        clock.t += 7
        return "outer-done"

    outer_w = tracer.wrap_function("outer", outer)
    gen = outer_w()
    assert isinstance(gen, types.GeneratorType)
    yielded = []
    with pytest.raises(StopIteration) as stop:
        while True:
            yielded.append(gen.send(None))
    assert stop.value.value == "outer-done"
    assert yielded == ["a", "b", "c"]
    snap = tracer.snapshot()
    # outer: 10 (resume 1) + 0 (resume 2, all inner) + 5 + 7.
    assert snap["outer"] == (22.0, 4)
    # inner: 2 + 3 + 1, one span per resume.
    assert snap["inner"] == (6.0, 3)
    assert sum(s for s, _ in snap.values()) == clock.t
    # Calls count once per generator call, not per resume.
    assert sorted(tracer.call_counts().values()) == [1, 1]
    # Parent links: every inner span's parent is an outer span.
    for i, layer in enumerate(tracer.span_layer):
        parent = tracer.span_parent[i]
        if layer == tracer.index["inner"]:
            assert tracer.span_layer[parent] == tracer.index["outer"]
        else:
            assert parent == -1


def test_throw_and_close_are_timed_and_forwarded(clock):
    tracer = spans.Tracer(["g"])
    seen = []

    def body():
        try:
            yield 1
        except KeyError:
            clock.t += 4
            seen.append("caught")
        try:
            yield 2
        finally:
            clock.t += 6
            seen.append("closed")

    gen = tracer.wrap_function("g", body)()
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == 2
    gen.close()
    assert seen == ["caught", "closed"]
    assert tracer.snapshot()["g"] == (10.0, 3)


def test_plain_function_spans_nest_and_exceptions_pop(clock):
    tracer = spans.Tracer(["a", "b"])

    def leaf():
        clock.t += 1
        raise ValueError("boom")

    leaf_w = tracer.wrap_function("b", leaf)

    def top():
        clock.t += 2
        try:
            leaf_w()
        except ValueError:
            pass
        clock.t += 3

    tracer.wrap_function("a", top)()
    assert tracer.snapshot() == {"a": (5.0, 1), "b": (1.0, 1)}
    assert tracer._stack == []


def test_patch_restores_originals():
    class Thing:
        def hit(self):
            return 7

    original = Thing.__dict__["hit"]
    tracer = spans.Tracer(["x"])
    with spans.Patch(tracer) as patch:
        patch.wrap_public("x", Thing)
        assert Thing.__dict__["hit"] is not original
        assert Thing().hit() == 7
    assert Thing.__dict__["hit"] is original
    assert tracer.snapshot()["x"][1] == 1


def test_dump_writes_header_and_arrays(tmp_path, clock):
    tracer = spans.Tracer(["x"])
    fn = tracer.wrap_function("x", lambda: None)
    fn()
    fn()
    header = json.loads(open(tracer.dump(str(tmp_path), "t")).read())
    assert header["spans"] == 2 and header["layers"] == ["x"]
    for field in ("layer", "parent", "start", "end"):
        info = header["arrays"][field]
        size = os.path.getsize(tmp_path / info["file"])
        assert size == 2 * info["itemsize"]


def test_reference_loop_imports_nothing_from_the_program():
    source = open(os.path.join(HERE, "refloop.py")).read()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    imported.discard("__future__")
    assert imported <= set(sys.stdlib_module_names), imported
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import refloop; "
             "r = refloop.Reference(); r.scheduler(200); r.table(200); "
             "print(sorted(m for m in sys.modules if m.startswith('repro')))")
    out = subprocess.run([sys.executable, "-c", probe, HERE],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_and_counts():
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_printed_metrics_match_benchmark_json():
    import run
    import workloads
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = run.end_to_end_metrics([5.0], [0.2], 30.0, 2.0,
                                        (1.0, 2.0), 1, 0)
    assert {k: v["unit"] for k, v in end_to_end.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    counters = dict.fromkeys(
        ["events", "started", "services", "service_wait_ms", "lock_waits",
         "lock_borrows", "deadlock_victims", "msgs", "cross_dc_msgs",
         "drops", "forced", "unforced", "replica_updates",
         "replica_writes_skipped", "crashes", "in_doubt_resolved",
         "blocked_lock_ms", "commit_msgs_mean", "forced_writes_mean",
         "block_ratio", "shed_ratio", "queue_wait_p95_ms", "util_cpu",
         "util_data_disk", "util_log_disk"], 1.0)
    per_layer = run.layer_metrics(counters, 1, 10, {}, {}, run.layer_extras())
    assert {k: v["unit"] for k, v in per_layer.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_sampler_section_subtracts_samples_and_combines_loops():
    import refloop
    sampler = refloop.Sampler()
    nominal = refloop.SAMPLE_NOMINAL_S
    # Inside [10, 12]: the scheduler loop at half and full speed (mean
    # 0.75), the table loop at 1/3 speed; one sample outside.
    sampler.samples[:] = [
        (9.0, "table", 1.0),
        (10.2, "scheduler", 2 * nominal["scheduler"]),
        (10.6, "table", 3 * nominal["table"]),
        (11.0, "scheduler", nominal["scheduler"])]
    seconds, factor = sampler.section(10.0, 12.0)
    inside = 3 * nominal["scheduler"] + 3 * nominal["table"]
    assert seconds == pytest.approx(2.0 - inside)
    assert factor == pytest.approx((0.75 * (1 / 3)) ** 0.5)
    assert sampler.section(20.0, 21.0) == (1.0, 0.0)


def test_stopped_tracer_only_delegates(clock):
    tracer = spans.Tracer(["g"])

    def body():
        clock.t += 1
        yield 1
        clock.t += 1

    gen = tracer.wrap_function("g", body)()
    assert next(gen) == 1
    tracer.stop()
    assert list(gen) == []
    assert tracer.snapshot()["g"] == (1.0, 1)
    assert len(tracer.span_start) == 1


def test_op_cap_stops_a_livelocked_op(monkeypatch):
    import run
    monkeypatch.setattr(run, "OP_CAP_S", 0.2)

    def livelock():
        while True:
            pass

    start = time.perf_counter()
    with pytest.raises(run.OpTimeout):
        with run.op_cap():
            livelock()
    assert time.perf_counter() - start < 5


def test_op_cap_stops_a_blocked_op_and_guard_counts_it_failed(monkeypatch):
    import threading

    import run
    monkeypatch.setattr(run, "OP_CAP_S", 0.2)
    value, error = run._run_guarded(threading.Event().wait)
    assert value is None and "OpTimeout" in error


def test_op_cap_leaves_a_quick_op_alone():
    import run
    with run.op_cap():
        pass
    assert run._run_guarded(sum, [1, 2]) == (3, None)
