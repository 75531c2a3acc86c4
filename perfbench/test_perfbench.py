"""Tests of the benchmark itself: seeded generators, span arithmetic, the
metric declarations in BENCHMARK.json and the op failure accounting."""

import json
import os
import re

import numpy as np
import pytest

import harness
import srgc.codec as codec
from spans import Span, layer_totals, self_times
from workloads import WORKLOADS, Workload, gate_scene

BENCHMARK_JSON = os.path.join(harness.ROOT, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = Workload(
    name="tiny",
    why="a 16x16, 2x2 gate scene that runs in milliseconds",
    scene=lambda seed: gate_scene(seed, size=16, views=2, patch=4),
    config=codec.CodecConfig(q_gft=16.0, slic_k=16, n_target=8),
    grouped=True,
)


def _planes(lf):
    return [p for v in lf.views for p in v.planes]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    scene = WORKLOADS[name].scene
    (a, da), (b, db), (c, _) = scene(3), scene(3), scene(4)
    assert all(np.array_equal(x, y) for x, y in zip(_planes(a), _planes(b)))
    assert np.array_equal(da.values, db.values)
    assert not all(np.array_equal(x, y) for x, y in zip(_planes(a), _planes(c)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_keeps_workload_character(name):
    # Groups form on gate and parallax, partition mode runs on partition,
    # and the set-up round trip passes every output check.
    _, _, ref, problems = harness.set_up(WORKLOADS[name], seed=2)
    assert problems == []
    if name == "gate":
        assert (ref.eig_enc, ref.eig_dec) == (16, 2)


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, "enc"),
        Span("a", 1.0, 4.0, 0, 0, "enc"),
        Span("a.child", 2.0, 3.0, 1, 0, "enc"),
        Span("a.child.leaf", 2.2, 2.7, 2, 0, "enc"),
        Span("b", 5.0, 9.0, 0, 0, "enc"),
        Span("b.child", 6.0, 8.0, 4, 0, "enc"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 0.5, 0.5, 2.0, 2.0])


def test_layer_totals_are_per_op_sums():
    spans = [
        Span("x", 0.0, 2.0, -1, 0, "enc", {"n": 5}),
        Span("y", 0.5, 1.0, 0, 0, "enc"),
        Span("x", 3.0, 4.0, -1, 1, "enc", {"n": 7}),
        Span("x", 5.0, 9.0, -1, 1, "dec"),
    ]
    t = layer_totals(spans, ops=2)
    assert t["enc.x.s"] == pytest.approx(1.5)
    assert t["enc.x.self_s"] == pytest.approx(1.25)
    assert t["enc.x.calls"] == 1.0
    assert t["enc.x.n"] == 6.0
    assert t["enc.y.s"] == pytest.approx(0.25)
    assert t["dec.x.s"] == pytest.approx(2.0)


def test_benchmark_json_declares_what_the_harness_emits():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    declared = {
        "end_to_end": harness.END_TO_END,
        "per_layer": harness.PER_LAYER,
    }
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    for kind, table in declared.items():
        rows = spec[kind]
        assert [r["name"] for r in rows] == list(table)
        for r in rows:
            assert NAME.fullmatch(r["name"]) and UNIT.fullmatch(r["unit"])
            assert (r["unit"], r["better"]) == table[r["name"]]
    for r in spec["end_to_end"]:
        assert set(r) == {"name", "unit", "better", "bound"}
        assert 0 < r["bound"] <= 0.25
    setup = next(r for r in spec["end_to_end"] if r["name"] == "setup_s")
    assert setup["bound"] == max(r["bound"] for r in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_declarations(trace):
    result = harness.run(TINY, seed=1, seconds=0, trace=trace,
                         blas_env={}, import_s=0.5)
    line = harness.result_line(result, trace)
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == harness.SETUP_REPEATS + harness.MIN_OPS
    assert list(line["metrics"]) == list(table)
    for name, m in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert m["unit"] == table[name][0]
        assert isinstance(m["value"], (int, float))
    if trace:
        assert result["spans"] and line["metrics"]["grouping.saved_ratio"]["value"] > 0
    json.dumps(line, allow_nan=False)


def test_failing_ops_are_counted_not_raised(monkeypatch):
    real_decode = codec.decode
    calls = []

    def flaky_decode(*args, **kwargs):
        calls.append(1)
        if len(calls) > harness.SETUP_REPEATS and len(calls) % 2:
            raise RuntimeError("injected")
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(codec, "decode", flaky_decode)
    result = harness.run(TINY, seed=1, seconds=0, trace=0,
                         blas_env={}, import_s=0.5)
    line = harness.result_line(result, 0)
    assert line["attempted"] == harness.SETUP_REPEATS + harness.MIN_OPS
    assert line["failed"] == harness.MIN_OPS // 2
    assert not line["correct"]
