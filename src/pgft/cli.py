"""Command-line entry points.

Subcommands: synth, encode, decode, rd-sweep, validate-gmrf.
`synth` writes PLY frames, and the other four read them.
`rd-sweep` also fits the lambda-Q model to the curve rows it writes.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

import numpy as np

from . import codec, gmrf, metrics, rdo, synth
from .clustering import kmeans_geometry
from .graph import derived_epsilon_sq, generalized_laplacian
from .pointcloud import (SequenceConfig, read_ply, sequence_bounding_box,
                         voxelize, write_ply, yuv_to_rgb)


def _add_config_flags(parser, with_q=True, graph_only=False):
    """One flag per SequenceConfig field, each storing into that field;
    `graph_only` keeps the flags of the fields the clustering, graph and
    motion steps read.  A field without a flag keeps its default."""
    parser.set_defaults(**dataclasses.asdict(SequenceConfig()))
    if with_q:
        parser.add_argument("--q", dest="qstep", type=float, required=True,
                            help="quantization step (quality factor)")
    if not graph_only:
        parser.add_argument("--gop", dest="gop_size", type=int)
    parser.add_argument("--cluster-size", dest="target_cluster_size", type=int)
    parser.add_argument("--grid-dim", type=int)


def _input_flag(parser):
    parser.add_argument("--input", nargs="+", required=True, metavar="PATH",
                        help="PLY files, or a single directory of them")


def _threads_flag(parser):
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel cluster analysis (output is "
                             "independent of this)")


def _config(args, parser, **changes) -> SequenceConfig:
    """The config the flags set, with `changes` applied.  A value the
    codec would refuse is a usage error, before any I/O."""
    values = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(SequenceConfig)}
    try:
        return SequenceConfig(**(values | changes))
    except ValueError as exc:
        parser.error(str(exc))


def _resolve_ply_paths(paths, parser):
    if len(paths) == 1 and os.path.isdir(paths[0]):
        found = sorted(glob.glob(os.path.join(paths[0], "*.ply")))
        if not found:
            parser.error(f"no .ply files in directory {paths[0]}")
        return found
    for p in paths:
        if not os.path.exists(p):
            parser.error(f"input file not found: {p}")
    return list(paths)


def _read_ply(path):
    try:
        return read_ply(path)
    except ValueError as exc:  # name the file, as an OSError does
        raise ValueError(f"{path}: {exc}") from exc


def _read_frames(paths, parser):
    return [_read_ply(p) for p in _resolve_ply_paths(paths, parser)]


def _write_records(path, rows):
    """One JSON object per row and line; json.loads reads every float
    back exactly (an infinite PSNR is written as Infinity)."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)


def _print_stats(stats):
    for s in stats:
        print(f"frame {s.index}: {s.frame_type}  {s.bits} bits  "
              f"PSNR-Y {s.psnr_y:.2f} dB  intra/inter "
              f"{s.intra_clusters}/{s.inter_clusters}")


def _cmd_synth(args, parser):
    if args.frames < 1 or args.points < 1:
        parser.error("--frames and --points must be >= 1")
    paths = synth.write_synthetic_sequence(args.output, args.kind, args.frames,
                                           args.points, args.seed)
    print(f"wrote {len(paths)} synthetic frames to {args.output}")
    return 0


def _cmd_encode(args, parser):
    config = _config(args, parser)
    frames = _read_frames(args.input, parser)
    result = codec.encode_sequence(frames, config, threads=args.threads)
    with open(args.output, "wb") as fh:
        fh.write(result.data)
    _write_records(args.output + ".stats.jsonl",
                   map(dataclasses.asdict, result.stats))
    _print_stats(result.stats)
    total_points = sum(f.point_count for f in frames)
    rate = metrics.bpip(result.total_bits, total_points)
    print(f"total {result.total_bits} bits, {rate:.4f} bits per input point")
    print(f"bitstream written to {args.output}")
    return 0


def _cmd_decode(args, parser):
    frames = _read_frames(args.geometry, parser)
    with open(args.bitstream, "rb") as fh:
        data = fh.read()
    result = codec.decode_sequence(data, frames, threads=args.threads)
    # Write outputs only after the whole stream decoded cleanly.
    os.makedirs(args.output, exist_ok=True)
    for t, (raw, yuv) in enumerate(zip(frames, result.point_attributes)):
        rgb = np.clip(np.round(yuv_to_rgb(yuv)), 0, 255).astype(np.uint8)
        write_ply(os.path.join(args.output, f"decoded_{t:04d}.ply"),
                  raw.positions, rgb)
    _write_records(os.path.join(args.output, "decode.stats.jsonl"),
                   map(dataclasses.asdict, result.stats))
    _print_stats(result.stats)
    print(f"decoded {len(frames)} frames into {args.output}")
    return 0


def _cmd_rd_sweep(args, parser):
    try:
        q_values = [float(tok) for tok in args.q_list.split(",") if tok]
    except ValueError:
        q_values = []
    if not q_values:
        parser.error("--q-list must be a comma-separated list of numbers")
    configs = {q: _config(args, parser, qstep=q) for q in q_values}
    if len(configs) != len(q_values):
        print("warning: duplicate q values removed", file=sys.stderr)
    frames = _read_frames(args.input, parser)
    total_points = sum(f.point_count for f in frames)

    rows = []
    for q, config in sorted(configs.items()):
        # the encoder's stats carry the decoder's PSNRs bit for bit
        result = codec.encode_sequence(frames, config, threads=args.threads)
        rate = metrics.bpip(result.total_bits, total_points)
        mean = lambda key: float(np.mean([getattr(s, key) for s in result.stats]))
        rows.append({"q": q, "bpip": rate, "psnr_y": mean("psnr_y"),
                     "psnr_u": mean("psnr_u"), "psnr_v": mean("psnr_v")})
        print(f"q={q:g}: {rate:.4f} bpip, PSNR-Y {rows[-1]['psnr_y']:.2f} dB")

    rates = [row["bpip"] for row in rows]
    if any(rates[i] <= rates[i + 1] for i in range(len(rates) - 1)):
        print("warning: rate is not strictly decreasing over the q ladder",
              file=sys.stderr)
    _write_records(args.output, rows)
    print(f"rd curve written to {args.output}")
    try:
        alpha, beta = rdo.fit_lambda_model(
            (row["q"], row["bpip"], rdo.distortion_from_psnr(
                row["psnr_y"], row["psnr_u"], row["psnr_v"])) for row in rows)
    except ValueError as exc:
        print(f"warning: no lambda-Q fit: {exc}", file=sys.stderr)
    else:
        print(f"alpha = {alpha:.6g}")
        print(f"beta = {beta:.6g}")
    return 0


def _cmd_validate_gmrf(args, parser):
    config = _config(args, parser)
    if args.patches < 1:
        parser.error("--patches must be >= 1")
    paths = _resolve_ply_paths(args.input, parser)
    if len(paths) < args.patches + 1:
        parser.error(f"need at least {args.patches + 1} frames for "
                     f"{args.patches} patches")
    lap, samples = _aligned_patch_samples(paths, args.patches, config)
    if np.count_nonzero(lap) == lap.shape[0]:  # L + I is diagonal
        print("warning: the tracked cluster's graph has no edges; its "
              "points lie farther apart than the graph radius derived from "
              "frame 0", file=sys.stderr)
    estimate = gmrf.empirical_precision(samples)
    report = gmrf.compare_to_laplacian(estimate, lap)
    print(f"samples: {estimate.sample_count}  "
          f"rank_deficient: {estimate.rank_deficient}")
    print(f"support size: {report.support_size}  "
          f"sparsity: {report.sparsity_ratio:.4f}")
    print(f"sign agreement on support: {report.sign_agreement:.4f}")
    print(f"support correlation: {report.support_correlation:.4f}")
    return 0


def _aligned_patch_samples(paths, patches, config):
    """The first cluster of frame 0 is tracked through the next
    `patches` frames via motion correspondence; its correspondence-ordered
    attribute vectors are the patch observations.  Its graph takes the
    epsilon the codec derives.  Only those frames are read."""
    frames = [_read_ply(p) for p in paths[:patches + 1]]
    box = sequence_bounding_box(frames[0])
    vox = [voxelize(f, config.grid_dim, box) for f in frames]
    partition = kmeans_geometry(vox[0], config.target_cluster_size)
    members = partition.members(0)
    pts = vox[0].voxel_coords[members].astype(np.float64)
    epsilon_sq = derived_epsilon_sq(vox[0].voxel_coords)
    lap = generalized_laplacian(codec.cluster_laplacian(pts, epsilon_sq))

    samples = [vox[0].attributes[members][:, 0]]  # Y channel
    for other in vox[1:]:
        ref_index = codec.reference_index(pts, other.voxel_coords)
        if ref_index is not None:
            samples.append(other.attributes[ref_index][:, 0])
    return lap, np.asarray(samples)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgft",
        description="Attribute codec for dynamic point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synth", help="write a seeded synthetic PLY sequence")
    syn.add_argument("kind", choices=synth.KINDS)
    syn.add_argument("--frames", type=int, default=4, help="frame count")
    syn.add_argument("--points", type=int, default=2000,
                     help="points per frame")
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--output", required=True, help="output directory")

    enc = sub.add_parser("encode", help="encode a PLY sequence")
    _input_flag(enc)
    enc.add_argument("--output", required=True, help="bitstream file")
    _add_config_flags(enc)
    _threads_flag(enc)

    dec = sub.add_parser("decode", help="decode a bitstream")
    dec.add_argument("--bitstream", required=True)
    dec.add_argument("--geometry", nargs="+", required=True, metavar="PATH",
                     help="the original PLY files (geometry side channel)")
    dec.add_argument("--output", required=True, help="output directory")
    _threads_flag(dec)

    sweep = sub.add_parser("rd-sweep",
                           help="encode over a q ladder and fit lambda-Q")
    _input_flag(sweep)
    sweep.add_argument("--q-list", required=True,
                       help="comma-separated quantization steps")
    sweep.add_argument("--output", required=True, help="curve file")
    _add_config_flags(sweep, with_q=False)
    _threads_flag(sweep)

    val = sub.add_parser("validate-gmrf",
                         help="compare a tracked cluster's generalized "
                              "Laplacian against its empirical precision")
    _input_flag(val)
    val.add_argument("--patches", type=int, default=19,
                     help="number of aligned patches K")
    _add_config_flags(val, with_q=False, graph_only=True)

    for subparser in sub.choices.values():  # usage errors name the subcommand
        subparser.set_defaults(parser=subparser)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    parser = args.parser

    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be >= 1")

    commands = {
        "synth": _cmd_synth,
        "encode": _cmd_encode,
        "decode": _cmd_decode,
        "rd-sweep": _cmd_rd_sweep,
        "validate-gmrf": _cmd_validate_gmrf,
    }
    try:
        return commands[args.command](args, parser)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
