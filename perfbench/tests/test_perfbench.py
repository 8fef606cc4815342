"""Tests of the benchmark itself: which calls the tracer times, that timing
changes no output, that the metric lists match BENCHMARK.json, and what
the seed controls.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from pgft import codec  # noqa: E402
from pgft.pointcloud import SequenceConfig  # noqa: E402
from pgft.synth import synthetic_sequence  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS  # noqa: E402


def _tiny_inputs():
    # 3 frames so P-frames, ICP and both trial codings run; 3 clusters.
    return (synthetic_sequence("rigid-motion", 3, 1500, seed=0),
            SequenceConfig(grid_dim=64, qstep=8.0))


def _layer_callables(namespace):
    """{attr: object} for what `namespace` holds from other pgft modules:
    functions, and modules imported whole."""
    out = {}
    for attr, obj in vars(namespace).items():
        if isinstance(obj, types.ModuleType):
            name = obj.__name__
        elif isinstance(obj, types.FunctionType):
            name = obj.__module__
        else:
            continue
        if name.startswith("pgft.") and name != "pgft.codec":
            out[attr] = obj
    return out


def test_every_layer_function_codec_imports_is_wrapped():
    originals = _layer_callables(codec)
    assert originals, "pgft.codec imports no layer functions"
    wrapped = set()
    with tracing.instrument(codec, tracing.Tracer()) as roots:
        for attr, original in originals.items():
            current = getattr(codec, attr)
            if isinstance(original, types.ModuleType):
                layer = original.__name__.split(".")[1]
                for name, fn in vars(original).items():
                    if (isinstance(fn, types.FunctionType)
                            and not name.startswith("_")
                            and fn.__module__ == original.__name__):
                        proxied = getattr(current, name)
                        assert proxied.traced_name == f"{layer}.{name}"
                        wrapped.add(proxied.traced_name)
            else:
                layer = original.__module__.split(".")[1]
                assert getattr(current, "traced_name", None) == \
                    f"{layer}.{original.__name__}", f"codec.{attr} is not timed"
                wrapped.add(current.traced_name)
            assert layer in tracing.LAYERS
        wrapped |= {fn.traced_name for fn in roots}
    # Every function a per-layer metric reads from is still a wrapped call.
    assert tracing.traced_functions() <= wrapped
    for attr, original in originals.items():
        assert getattr(codec, attr) is original


def test_wrapping_changes_no_output():
    frames, config = _tiny_inputs()
    plain = codec.encode_sequence(frames, config)
    plain_dec = codec.decode_sequence(plain.data, frames)
    tracer = tracing.Tracer()
    with tracing.instrument(codec, tracer) as (encode, decode):
        traced = encode(frames, config)
        traced_dec = decode(traced.data, frames)
    assert traced.data == plain.data
    assert traced.stats == plain.stats
    assert traced_dec.stats == plain_dec.stats
    for a, b in zip(traced_dec.recon, plain_dec.recon):
        assert np.array_equal(a.attributes, b.attributes)
    assert {s[0] for s in tracer.spans} == {0, 1}
    assert tracer.spans[0][3] == tracing.ROOTS["encode"]
    assert tracer.counts[0]["coding.symbols_encoded"] > 0


def test_self_times_sum_to_wall_time():
    frames, config = _tiny_inputs()
    tracer = tracing.Tracer()
    with tracing.instrument(codec, tracer) as (encode, _):
        encode(frames, config)
    root = tracer.spans[0]
    summary = tracing.summarize(tracer, 0, "encode")
    layers = sum(summary[f"{layer}.self_s"]
                 for layer in tracing.LAYERS + (tracing.ORCHESTRATION,))
    assert summary["wall_s"] == pytest.approx(root[5] - root[4])
    assert layers == pytest.approx(summary["wall_s"])
    assert summary["transform.eigendecompose.calls"] > 0


def test_metric_lists_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, WORKLOADS[name].why) for name in BENCHMARKED]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.per_layer_metrics()

    monkeypatch.setattr(run, "OUT", tmp_path)
    frames, config = _tiny_inputs()
    trips = run.RoundTrips(frames, config)
    end_to_end, _ = run.measure(trips, codec, seconds=0)
    per_layer, _ = run.measure_traced(trips, codec, seconds=0, name="tiny")
    assert (trips.attempted, trips.failed) == (3, 0)
    assert set(end_to_end) | {"setup_s"} == {n for n, _ in run.END_TO_END}
    assert set(per_layer) == {n for n, _, _ in tracing.per_layer_metrics()}
    assert per_layer["rdo.inter_ratio"] > 0
    assert 0 < per_layer["coding.trial_keep_ratio"] < 1
    spans = (tmp_path / "spans-tiny.jsonl").read_text().splitlines()
    assert set(json.loads(spans[0])) == {"trace", "span", "parent", "name",
                                         "start", "end"}


def test_round_trips_flag_a_changed_stream():
    frames, config = _tiny_inputs()
    trips = run.RoundTrips(frames, config)
    assert trips.run(codec.encode_sequence, codec.decode_sequence) is not None

    def other_stream(frames, config, threads):
        return codec.encode_sequence(frames, SequenceConfig(
            grid_dim=config.grid_dim, qstep=2 * config.qstep), threads)

    assert trips.run(other_stream, codec.decode_sequence) is None
    assert (trips.attempted, trips.failed) == (2, 1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_not_shape(name):
    workload = WORKLOADS[name]
    frames_a, config_a = workload.inputs(0)
    frames_b, config_b = workload.inputs(1)
    again, _ = workload.inputs(0)
    assert config_a == config_b
    assert len(frames_a) == len(frames_b) == workload.frames
    assert [f.point_count for f in frames_a] == [f.point_count for f in frames_b] \
        == [workload.points] * workload.frames
    assert not np.array_equal(frames_a[0].positions, frames_b[0].positions)
    assert all(np.array_equal(a.positions, b.positions)
               and np.array_equal(a.colors, b.colors)
               for a, b in zip(frames_a, again))
