"""Per-layer spans around the calls pgft.codec makes into its layers.

`instrument` replaces every function that `pgft.codec` imports from a
layer module (and the functions of a layer module it imports whole,
such as `bitstream`) with a timed wrapper, and restores them on exit.
Nothing under `src/` changes.  Layers are the modules; `codec` is the
orchestration: the time inside `encode_sequence`/`decode_sequence` that
no layer call covers, which includes the mirror hash and context copies.

A span is (trace id, span id, parent span id, name, start, end).  All
spans of one root call share its trace id.  A span's self time is its
duration minus the durations of its child spans.  The tracer is not
thread-safe; the benchmark runs the codec with threads=1.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types
from collections import defaultdict

LAYERS = ("pointcloud", "clustering", "graph", "transform", "motion",
          "coding", "rdo", "bitstream", "metrics")
ORCHESTRATION = "codec"
PHASES = ("encode", "decode")
ROOTS = {"encode": "codec.encode_sequence", "decode": "codec.decode_sequence"}

# Work counts taken at the wrapped boundary: (args, result) -> {key: n}.
COUNTERS = {
    "transform.eigendecompose":
        lambda args, r: {"transform.eigendecompose.n3": r.n ** 3},
    "clustering.kmeans_geometry":
        lambda args, r: {"clustering.voxels": r.labels.shape[0],
                         "clustering.clusters": r.k},
    "motion.icp_register":
        lambda args, r: {"motion.region_points": len(args[0])},
    "graph.build_epsilon_graph":
        lambda args, r: {"graph.edges": r.edge_count},
    "coding.encode_block":
        lambda args, r: {"coding.symbols_encoded": len(args[0])},
    "coding.decode_block":
        lambda args, r: {"coding.symbols_decoded": len(r)},
}

# Metric groups summing the self time of several wrapped functions.
GROUPS = {
    "graph.laplacian": ("graph.combinatorial_laplacian",
                        "graph.generalized_laplacian"),
    "transform.gft": ("transform.gft_forward", "transform.gft_inverse"),
}

# Per-layer metrics reported for both phases, under "encode."/"decode.".
_SELF = ["transform.eigendecompose", "clustering.kmeans_geometry",
         "motion.icp_register", "motion.find_correspondence",
         "graph.estimate_normals", "graph.build_epsilon_graph",
         "graph.laplacian", "transform.inter_predict", "transform.gft",
         "pointcloud.voxelize", "metrics.psnr"]
_CALLS = ["transform.eigendecompose", "motion.icp_register"]
_COUNTS = ["transform.eigendecompose.n3", "clustering.voxels",
           "clustering.clusters", "motion.region_points", "graph.edges"]
_PHASE_ONLY = {
    "encode": ([("coding.encode_block.self_s", "s", "lower"),
                ("coding.symbols_encoded", "count", "lower"),
                ("coding.encode_symbols_per_s", "1/s", "higher"),
                ("coding.quantize.self_s", "s", "lower"),
                ("rdo.choose_mode.calls", "count", "lower"),
                ("bitstream.write_bitstream.self_s", "s", "lower")]),
    "decode": ([("coding.decode_block.self_s", "s", "lower"),
                ("coding.symbols_decoded", "count", "lower"),
                ("coding.decode_symbols_per_s", "1/s", "higher"),
                ("bitstream.read_bitstream.self_s", "s", "lower")]),
}


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for phase in PHASES:
        rows = [(f"{n}.self_s", "s", "lower") for n in _SELF]
        rows += [(f"{n}.calls", "count", "lower") for n in _CALLS]
        rows += [(n, "count", "lower") for n in _COUNTS]
        rows += [(f"{layer}.self_s", "s", "lower")
                 for layer in LAYERS + (ORCHESTRATION,)]
        rows += _PHASE_ONLY[phase]
        rows += [("wall_s", "s", "lower"), ("trace.coverage", "ratio", "higher")]
        out += [(f"{phase}.{n}", u, b) for n, u, b in rows]
    out += [("coding.trial_keep_ratio", "ratio", "higher"),
            ("rdo.inter_ratio", "ratio", "higher"),
            ("trace.coverage", "ratio", "higher"),
            ("trace.overhead", "ratio", "lower")]
    return out


def traced_functions():
    """Wrapped-function names the metrics above rely on."""
    names = set(_SELF) | set(_CALLS) | set(COUNTERS) | set(ROOTS.values())
    names |= {"coding.encode_block", "coding.decode_block", "coding.quantize",
              "rdo.choose_mode", "bitstream.write_bitstream",
              "bitstream.read_bitstream"}
    for group, members in GROUPS.items():
        names.discard(group)
        names |= set(members)
    return names


class Tracer:
    """Collects spans and work counts in memory."""

    def __init__(self):
        self.spans = []      # [trace, span, parent, name, start, end]
        self.counts = defaultdict(lambda: defaultdict(int))  # trace -> key -> n
        self._stack = []
        self._trace = -1

    @property
    def last_trace(self) -> int:
        """Id of the most recent trace."""
        return self._trace

    def wrap(self, name: str, fn):
        """Return `fn` timed as span `name`; a call with no enclosing span
        starts a new trace."""
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not stack:
                self._trace += 1
            span = [self._trace, len(spans), stack[-1][1] if stack else None,
                    name, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, result).items():
                    counts[span[0]][key] += n
            return result

        timed.traced_name = name
        return timed

    def self_times(self):
        """{trace: {name: (self seconds, calls)}}."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for trace, sid, _, name, start, end in self.spans:
            entry = out[trace][name]
            entry[0] += end - start - child[sid]
            entry[1] += 1
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for trace, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace, "span": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _layer_of(obj):
    name = obj.__name__ if isinstance(obj, types.ModuleType) else getattr(
        obj, "__module__", "")
    package, _, layer = (name or "").partition(".")
    return layer if package == "pgft" and layer in LAYERS else None


def _wrapped_module(module, layer, tracer):
    proxy = types.ModuleType(module.__name__, module.__doc__)
    for attr, obj in vars(module).items():
        if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                and obj.__module__ == module.__name__):
            obj = tracer.wrap(f"{layer}.{attr}", obj)
        setattr(proxy, attr, obj)
    return proxy


@contextlib.contextmanager
def instrument(codec, tracer: Tracer):
    """Time every layer function `codec` imports, for the duration of the
    block.  Yields the wrapped (encode_sequence, decode_sequence)."""
    saved = {}
    for attr, obj in list(vars(codec).items()):
        layer = _layer_of(obj)
        if layer is None:
            continue
        if isinstance(obj, types.ModuleType):
            saved[attr] = obj
            setattr(codec, attr, _wrapped_module(obj, layer, tracer))
        elif isinstance(obj, types.FunctionType):
            saved[attr] = obj
            setattr(codec, attr, tracer.wrap(f"{layer}.{obj.__name__}", obj))
    try:
        yield (tracer.wrap(ROOTS["encode"], codec.encode_sequence),
               tracer.wrap(ROOTS["decode"], codec.decode_sequence))
    finally:
        for attr, obj in saved.items():
            setattr(codec, attr, obj)


def summarize(tracer: Tracer, trace: int, phase: str):
    """Per-layer metrics of one root call, keyed without the phase prefix."""
    times = tracer.self_times()[trace]
    counts = tracer.counts[trace]
    wall = sum(v[0] for v in times.values())  # all spans nest in the root

    def self_s(name):
        return sum(times.get(m, (0.0, 0))[0] for m in GROUPS.get(name, (name,)))

    def calls(name):
        return times.get(name, (0.0, 0))[1]

    out = {f"{n}.self_s": self_s(n) for n in _SELF}
    out.update({f"{n}.calls": calls(n) for n in _CALLS})
    out.update({n: counts.get(n, 0) for n in _COUNTS})
    layer_self = {layer: sum(v[0] for k, v in times.items()
                             if k.split(".")[0] == layer) for layer in LAYERS}
    out.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
    out[f"{ORCHESTRATION}.self_s"] = wall - sum(layer_self.values())
    if phase == "encode":
        block_s = self_s("coding.encode_block")
        symbols = counts.get("coding.symbols_encoded", 0)
        out.update({"coding.encode_block.self_s": block_s,
                    "coding.symbols_encoded": symbols,
                    "coding.encode_symbols_per_s": symbols / block_s if block_s else 0.0,
                    "coding.quantize.self_s": self_s("coding.quantize"),
                    "rdo.choose_mode.calls": calls("rdo.choose_mode"),
                    "bitstream.write_bitstream.self_s":
                        self_s("bitstream.write_bitstream")})
    else:
        block_s = self_s("coding.decode_block")
        symbols = counts.get("coding.symbols_decoded", 0)
        out.update({"coding.decode_block.self_s": block_s,
                    "coding.symbols_decoded": symbols,
                    "coding.decode_symbols_per_s": symbols / block_s if block_s else 0.0,
                    "bitstream.read_bitstream.self_s":
                        self_s("bitstream.read_bitstream")})
    out["wall_s"] = wall
    out["trace.coverage"] = sum(layer_self.values()) / wall
    return out
