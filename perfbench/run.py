"""pgft benchmark: seeded encode -> decode round trips through the public API.

    python3 perfbench/run.py --workload motion-p --seed 0 --seconds 60 --trace 0

With --trace 0 it times `encode_sequence` and `decode_sequence` untraced
and reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced round trips and reports the per-layer split (see
tracing.py).  Every round trip is checked: the decoder's reconstruction
must equal the encoder's exactly, per-frame mirror hashes must match,
and bytes and PSNR must repeat across the run's round trips.  Any
failure makes the exit code non-zero.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; a fuller record
with the environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Pinned before numpy loads.  The encoded bytes depend on the BLAS thread
# count (motion-p, seed 0: 3405 B with one thread, 3397 B with two), and
# one thread keeps timings steady on a small shared machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Set-up is short and noisy, so it is measured this many times per run
# (this process plus fresh interpreters) and reported as the median.
SETUP_SAMPLES = 7
# Sanity floor on every frame's PSNR: a self-consistent but broken codec
# would still pass the encoder/decoder comparison.
MIN_PSNR_DB = 25.0

END_TO_END = [("encode_pts_per_s", "pts/s"), ("decode_pts_per_s", "pts/s"),
              ("bpip", "bits/pt"), ("psnr_y_db", "dB"), ("psnr_u_db", "dB"),
              ("psnr_v_db", "dB"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]


def _setup(workload, seed: int):
    """Import numpy, scipy and pgft from this checkout and build the
    inputs; returns (codec module, frames, config, seconds taken)."""
    start = time.perf_counter()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pgft" / "__init__.py").is_file():
        raise SystemExit(f"error: no pgft sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.spatial  # noqa: F401
    import pgft
    from pgft import codec
    if Path(pgft.__file__).resolve().parent != SRC / "pgft":
        raise SystemExit(f"error: imported pgft from {pgft.__file__}, "
                         f"not from {SRC}")
    frames, config = workload.inputs(seed)
    return codec, frames, config, time.perf_counter() - start


def _openblas_threads(module):
    """Thread count reported by the OpenBLAS bundled with numpy/scipy."""
    import ctypes

    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import platform

    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration"),
                "threads": _openblas_threads(module)}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_pinning": "one thread, set before numpy is imported: stream "
                        "bytes depend on the BLAS thread count, and one "
                        "thread keeps timings steady",
    }


def _setup_samples(workload, seed: int, own: float):
    """Set-up seconds of this process plus fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload.name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


class RoundTrips:
    """Runs and checks encode -> decode round trips on fixed inputs."""

    def __init__(self, frames, config):
        self.frames = frames
        self.config = config
        self.points = sum(f.point_count for f in frames)
        self.reference = None  # (bytes, per-frame PSNR) of the first success
        self.attempted = 0
        self.failed = 0

    def run(self, encode, decode):
        """One checked round trip; returns (enc, dec, enc_s, dec_s), or None
        if it failed."""
        import numpy as np

        self.attempted += 1
        try:
            t0 = time.perf_counter()
            enc = encode(self.frames, self.config, threads=1)
            t1 = time.perf_counter()
            dec = decode(enc.data, self.frames, threads=1)
            t2 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = []
        if len(dec.recon) != len(enc.recon):
            problems.append("decoded frame count differs")
        for t, (e, d, es, ds) in enumerate(zip(enc.recon, dec.recon,
                                               enc.stats, dec.stats)):
            if not np.array_equal(e.attributes, d.attributes):
                problems.append(f"frame {t}: decoded recon differs")
            if es.mirror_hash != ds.mirror_hash:
                problems.append(f"frame {t}: mirror hash differs")
            if (es.psnr_y, es.psnr_u, es.psnr_v) != (ds.psnr_y, ds.psnr_u, ds.psnr_v):
                problems.append(f"frame {t}: decoder PSNR differs")
            if min(es.psnr_y, es.psnr_u, es.psnr_v) < MIN_PSNR_DB:
                problems.append(f"frame {t}: PSNR below {MIN_PSNR_DB} dB")
        signature = (enc.data, [(s.psnr_y, s.psnr_u, s.psnr_v) for s in enc.stats])
        if self.reference is None:
            self.reference = signature
        elif signature != self.reference:
            problems.append("bytes or PSNR differ from the run's first round trip")
        if problems:
            print("round trip failed: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        return enc, dec, t1 - t0, t2 - t1


def _stream_metrics(trips: RoundTrips, enc):
    stats = enc.stats
    return {
        "bpip": 8 * len(enc.data) / trips.points,
        "psnr_y_db": statistics.fmean(s.psnr_y for s in stats),
        "psnr_u_db": statistics.fmean(s.psnr_u for s in stats),
        "psnr_v_db": statistics.fmean(s.psnr_v for s in stats),
    }


def _keep_going(start: float, durations, seconds: float) -> bool:
    """Start another iteration only if a typical one still ends in time."""
    return not durations or (time.perf_counter() - start
                             + statistics.median(durations) <= seconds)


def measure(trips: RoundTrips, codec, seconds: float):
    """Untraced round trips for `seconds`; end-to-end metrics."""
    start = time.perf_counter()
    enc_s, dec_s, durations, last = [], [], [], None
    while _keep_going(start, durations, seconds):
        t0 = time.perf_counter()
        result = trips.run(codec.encode_sequence, codec.decode_sequence)
        durations.append(time.perf_counter() - t0)
        if result is not None:
            last, e, d = result[0], result[2], result[3]
            enc_s.append(e)
            dec_s.append(d)
    if last is None:
        return {}, {}
    metrics = {
        "encode_pts_per_s": statistics.median(trips.points / s for s in enc_s),
        "decode_pts_per_s": statistics.median(trips.points / s for s in dec_s),
        **_stream_metrics(trips, last),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"encode_s": enc_s, "decode_s": dec_s,
                     "bytes": len(last.data)}


def measure_traced(trips: RoundTrips, codec, seconds: float, name: str):
    """Pairs of untraced and traced round trips for `seconds`, the order
    alternating between pairs; per-layer metrics.  Spans are written to
    OUT at the end."""
    tracer = tracing.Tracer()

    def round_trip(traced: bool):
        if not traced:
            return trips.run(codec.encode_sequence, codec.decode_sequence)
        with tracing.instrument(codec, tracer) as (encode, decode):
            return trips.run(encode, decode)

    start = time.perf_counter()
    plain_s, traced_s, summaries, durations = [], [], [], []
    last = None
    while _keep_going(start, durations, seconds):
        t0 = time.perf_counter()
        order = (True, False) if len(durations) % 2 else (False, True)
        results = {traced: round_trip(traced) for traced in order}
        plain, traced = results[False], results[True]
        durations.append(time.perf_counter() - t0)
        if plain is None or traced is None:
            continue
        plain_s.append(plain[2] + plain[3])
        traced_s.append(traced[2] + traced[3])
        decode_trace = tracer.last_trace
        enc_sum = tracing.summarize(tracer, decode_trace - 1, "encode")
        dec_sum = tracing.summarize(tracer, decode_trace, "decode")
        summaries.append((enc_sum, dec_sum))
        last = traced[0]
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}.jsonl")
    if last is None:
        return {}, {}

    samples = []
    for enc_sum, dec_sum in summaries:
        row = {f"encode.{k}": v for k, v in enc_sum.items()}
        row.update({f"decode.{k}": v for k, v in dec_sum.items()})
        encoded = enc_sum["coding.symbols_encoded"]
        row["coding.trial_keep_ratio"] = (
            dec_sum["coding.symbols_decoded"] / encoded if encoded else 0.0)
        covered = sum(enc_sum[f"{layer}.self_s"] + dec_sum[f"{layer}.self_s"]
                      for layer in tracing.LAYERS)
        row["trace.coverage"] = covered / (enc_sum["wall_s"] + dec_sum["wall_s"])
        samples.append(row)
    metrics = {k: statistics.median(row[k] for row in samples)
               for k in samples[0]}
    p_frames = [s for s in last.stats if s.frame_type == "P"]
    p_clusters = sum(s.intra_clusters + s.inter_clusters for s in p_frames)
    metrics["rdo.inter_ratio"] = (
        sum(s.inter_clusters for s in p_frames) / p_clusters if p_clusters else 0.0)
    metrics["trace.overhead"] = (statistics.median(traced_s)
                                 / statistics.median(plain_s) - 1.0)
    return metrics, {"untraced_s": plain_s, "traced_s": traced_s,
                     "bytes": len(last.data)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up sample, then exit
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    codec, frames, config, setup_s = _setup(workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment()
    trips = RoundTrips(frames, config)
    tag = f"{workload.name}-seed{args.seed}"
    if args.trace:
        metrics, detail = measure_traced(trips, codec, args.seconds, tag)
        units = {n: u for n, u, _ in tracing.per_layer_metrics()}
    else:
        setups = _setup_samples(workload, args.seed, setup_s)
        metrics, detail = measure(trips, codec, args.seconds)
        if metrics:
            metrics["setup_s"] = statistics.median(setups)
        detail["setup_s"] = setups
        units = dict(END_TO_END)

    correct = trips.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": trips.attempted,
              "failed": trips.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "samples": detail, **result}, fh,
                  indent=1)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{trips.attempted} round trips, {trips.failed} failed, "
          f"roundtrip_fail_ratio {trips.failed / trips.attempted}")
    print("environment " + json.dumps(env))
    for key, sample in detail.items():
        print(f"  samples {key}: {sample}")
    for key, v in metrics.items():
        print(f"  {key:<44} {v:>16.6g} {units[key]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
