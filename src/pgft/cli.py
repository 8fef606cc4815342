"""Command-line entry points.

Subcommands: encode, decode, rd-sweep, validate-gmrf, fit-lambda.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys

import numpy as np

from . import codec, gmrf, metrics, rdo, synth
from .graph import (build_epsilon_graph, combinatorial_laplacian,
                    estimate_normals, generalized_laplacian)
from .pointcloud import (SequenceConfig, read_ply, write_ply, yuv_to_rgb)

DEFAULT_SEED = 0


def _add_config_flags(parser, with_q=True):
    cfg = SequenceConfig()
    if with_q:
        parser.add_argument("--q", type=float, required=True,
                            help="quantization step (quality factor)")
    else:
        parser.set_defaults(q=1.0)  # rd-sweep takes its q values from --q-list
    parser.add_argument("--gop", type=int, default=cfg.gop_size)
    parser.add_argument("--epsilon2", type=float, default=cfg.epsilon_sq,
                        help="squared neighborhood radius (50 for dense, "
                             "300 for sparse content)")
    parser.add_argument("--cluster-size", type=int, default=cfg.target_cluster_size)
    parser.add_argument("--sigma2", type=float, default=cfg.sigma_sq)
    parser.add_argument("--normal-k", type=int, default=cfg.normal_k)
    parser.add_argument("--box-expand", type=float, default=cfg.box_expand)
    parser.add_argument("--grid-dim", type=int, default=cfg.grid_dim)
    parser.add_argument("--lambda-alpha", type=float, default=cfg.lambda_alpha)
    parser.add_argument("--lambda-beta", type=float, default=cfg.lambda_beta)


def _add_input_flags(parser, name="--input"):
    parser.add_argument(name, nargs="+", metavar="PATH",
                        help="PLY files, or a single directory of them")
    parser.add_argument("--synthetic", choices=synth.KINDS,
                        help="generate a synthetic sequence instead of "
                             "reading --input")
    parser.add_argument("--frames", type=int, default=4,
                        help="synthetic frame count")
    parser.add_argument("--points", type=int, default=2000,
                        help="synthetic points per frame")
    parser.add_argument("--synthetic-dir", metavar="DIR",
                        help="where to write the generated PLYs (default: "
                             "next to --output)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="synthetic sequence seed")


def _threads_flag(parser):
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel cluster analysis (output is "
                             "independent of this)")


def _config_from_args(args) -> SequenceConfig:
    return SequenceConfig(grid_dim=args.grid_dim, target_cluster_size=args.cluster_size,
                          epsilon_sq=args.epsilon2, sigma_sq=args.sigma2,
                          normal_k=args.normal_k, box_expand=args.box_expand,
                          gop_size=args.gop, qstep=args.q,
                          lambda_alpha=args.lambda_alpha,
                          lambda_beta=args.lambda_beta)


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


def _load_frames(args, parser, output_hint):
    """Either read the given PLYs or generate+write a synthetic sequence.
    Returns (frames, ply_paths)."""
    if args.synthetic:
        directory = args.synthetic_dir
        if directory is None:
            base = output_hint or "."
            directory = os.path.join(os.path.dirname(os.path.abspath(base)),
                                     "synthetic_frames")
        paths = synth.write_synthetic_sequence(directory, args.synthetic,
                                               args.frames, args.points,
                                               args.seed)
        print(f"wrote {len(paths)} synthetic frames to {directory}")
    elif args.input:
        paths = _resolve_ply_paths(args.input, parser)
    else:
        parser.error("either --input or --synthetic is required")
    return [read_ply(p) for p in paths], paths


def _write_stats(path, stats):
    with open(path, "w") as fh:
        fh.write("frame\ttype\tbits\tpsnr_y\tpsnr_u\tpsnr_v\t"
                 "intra_clusters\tinter_clusters\n")
        for s in stats:
            fh.write(f"{s.index}\t{s.frame_type}\t{s.bits}\t{s.psnr_y:.4f}\t"
                     f"{s.psnr_u:.4f}\t{s.psnr_v:.4f}\t{s.intra_clusters}\t"
                     f"{s.inter_clusters}\n")


def _print_stats(stats):
    for s in stats:
        print(f"frame {s.index}: {s.frame_type}  {s.bits} bits  "
              f"PSNR-Y {s.psnr_y:.2f} dB  intra/inter "
              f"{s.intra_clusters}/{s.inter_clusters}")


def _cmd_encode(args, parser):
    config = _config_from_args(args)
    frames, _ = _load_frames(args, parser, args.output)
    result = codec.encode_sequence(frames, config, threads=args.threads)
    with open(args.output, "wb") as fh:
        fh.write(result.data)
    _write_stats(args.output + ".stats.tsv", result.stats)
    _print_stats(result.stats)
    total_points = sum(f.point_count for f in frames)
    rate = metrics.bpip(result.total_bits, total_points)
    print(f"total {result.total_bits} bits, {rate:.4f} bits per input point")
    print(f"bitstream written to {args.output}")
    return 0


def _cmd_decode(args, parser):
    paths = _resolve_ply_paths(args.geometry, parser)
    frames = [read_ply(p) for p in paths]
    with open(args.bitstream, "rb") as fh:
        data = fh.read()
    result = codec.decode_sequence(data, frames, threads=args.threads)
    # Write outputs only after the whole stream decoded cleanly.
    os.makedirs(args.output, exist_ok=True)
    for t, (raw, yuv) in enumerate(zip(frames, result.point_attributes)):
        rgb = np.clip(np.round(yuv_to_rgb(yuv)), 0, 255).astype(np.uint8)
        write_ply(os.path.join(args.output, f"decoded_{t:04d}.ply"),
                  raw.positions, rgb)
    _write_stats(os.path.join(args.output, "decode.stats.tsv"), result.stats)
    _print_stats(result.stats)
    print(f"decoded {len(frames)} frames into {args.output}")
    return 0


def _cmd_rd_sweep(args, parser):
    try:
        q_values = [float(tok) for tok in args.q_list.split(",") if tok]
    except ValueError:
        parser.error("--q-list must be a comma-separated list of numbers")
    if not q_values or any(q <= 0 for q in q_values):
        parser.error("--q-list values must be positive")
    deduped = sorted(set(q_values))
    if len(deduped) != len(q_values):
        print("warning: duplicate q values removed", file=sys.stderr)
    frames, _ = _load_frames(args, parser, args.output)
    total_points = sum(f.point_count for f in frames)

    rows = []
    for q in deduped:
        config = _config_from_args(args)
        config.qstep = q
        result = codec.encode_sequence(frames, config, threads=args.threads)
        decoded = codec.decode_sequence(result.data, frames, threads=args.threads)
        rate = metrics.bpip(result.total_bits, total_points)
        mean = lambda key: float(np.mean([getattr(s, key) for s in decoded.stats]))
        rows.append((q, rate, mean("psnr_y"), mean("psnr_u"), mean("psnr_v")))
        print(f"q={q:g}: {rate:.4f} bpip, PSNR-Y {rows[-1][2]:.2f} dB")

    rates = [r[1] for r in rows]
    if any(rates[i] <= rates[i + 1] for i in range(len(rates) - 1)):
        print("warning: rate is not strictly decreasing over the q ladder",
              file=sys.stderr)
    with open(args.output, "w") as fh:
        fh.write("q\tbpip\tpsnr_y\tpsnr_u\tpsnr_v\n")
        for row in rows:
            fh.write("\t".join(f"{v:.6g}" for v in row) + "\n")
    print(f"rd curve written to {args.output}")
    return 0


def _cmd_validate_gmrf(args, parser):
    if args.synthetic_nodes:
        n = args.synthetic_nodes
        rng = np.random.default_rng(args.seed)
        pts = rng.uniform(0, math.sqrt(n) * 3.0, size=(n, 3))
        normals = estimate_normals(pts, k=min(15, n))
        g = build_epsilon_graph(pts, normals, epsilon_sq=25.0, sigma_sq=0.4)
        lap = generalized_laplacian(combinatorial_laplacian(g))
        samples = gmrf.sample_gmrf(lap.matrix, (args.patches + 1), rng=rng)
    else:
        if not args.frames_in:
            parser.error("provide --frames or --synthetic-nodes")
        paths = _resolve_ply_paths(args.frames_in, parser)
        if len(paths) < args.patches + 1:
            parser.error(f"need at least {args.patches + 1} frames for "
                         f"{args.patches} patches")
        lap, samples = _aligned_patch_samples(paths, args)
    estimate = gmrf.empirical_precision(samples)
    report = gmrf.compare_to_laplacian(estimate, lap)
    print(f"samples: {estimate.sample_count}  "
          f"rank_deficient: {estimate.rank_deficient}")
    print(f"support size: {report.support_size}  "
          f"sparsity: {report.sparsity_ratio:.4f}")
    print(f"sign agreement on support: {report.sign_agreement:.4f}")
    print(f"support correlation: {report.support_correlation:.4f}")
    return 0


def _aligned_patch_samples(paths, args):
    """Dataset mode: the first cluster of frame 1 is tracked through the
    following frames via motion correspondence; its correspondence-ordered
    attribute vectors are the patch observations."""
    from .clustering import kmeans_geometry
    from .motion import BoundingBox, expand_box, find_correspondence, icp_register
    from .pointcloud import sequence_bounding_box, voxelize

    config = SequenceConfig()
    frames = [read_ply(p) for p in paths]
    box = sequence_bounding_box(frames[0])
    vox = [voxelize(f, config.grid_dim, box) for f in frames]
    partition = kmeans_geometry(vox[0], config.target_cluster_size)
    members = partition.members(0)
    pts = vox[0].voxel_coords[members].astype(np.float64)
    normals = estimate_normals(pts, config.normal_k)
    g = build_epsilon_graph(pts, normals, config.epsilon_sq, config.sigma_sq)
    lap = generalized_laplacian(combinatorial_laplacian(g))

    samples = [vox[0].attributes[members][:, 0]]  # Y channel
    for other in vox[1:args.patches + 1]:
        bbox = expand_box(BoundingBox.of(pts), config.box_expand)
        region = np.flatnonzero(bbox.contains(other.voxel_coords))
        if region.size == 0:
            continue
        region_pts = other.voxel_coords[region].astype(np.float64)
        transform = icp_register(region_pts, pts)
        ref_index = find_correspondence(pts, transform.apply(region_pts))
        samples.append(other.attributes[region[ref_index]][:, 0])
    return lap, np.asarray(samples)


def _cmd_fit_lambda(args, parser):
    rows = []
    with open(args.curve) as fh:
        header = fh.readline()
        for line in fh:
            parts = line.split()
            if len(parts) >= 5:
                rows.append([float(x) for x in parts[:5]])
    if len(rows) < 3:
        print("error: need >= 3 points to fit the lambda-Q model",
              file=sys.stderr)
        return 1
    peak = 255.0
    points = []
    for q, rate, py, pu, pv in rows:
        mses = [peak * peak / (10 ** (p / 10.0)) for p in (py, pu, pv)]
        points.append((q, rate, sum(mses) / 3.0))
    model = rdo.fit_lambda_model(points)
    print(f"alpha = {model.alpha:.6g}")
    print(f"beta = {model.beta:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgft",
        description="Attribute codec for dynamic point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a PLY sequence")
    _add_input_flags(enc)
    enc.add_argument("--output", required=True, help="bitstream file")
    _add_config_flags(enc)
    _threads_flag(enc)

    dec = sub.add_parser("decode", help="decode a bitstream")
    dec.add_argument("--bitstream", required=True)
    dec.add_argument("--geometry", nargs="+", required=True, metavar="PATH",
                     help="the original PLY files (geometry side channel)")
    dec.add_argument("--output", required=True, help="output directory")
    _threads_flag(dec)

    sweep = sub.add_parser("rd-sweep", help="encode+decode over a q ladder")
    _add_input_flags(sweep)
    sweep.add_argument("--q-list", required=True,
                       help="comma-separated quantization steps")
    sweep.add_argument("--output", required=True, help="curve file")
    _add_config_flags(sweep, with_q=False)
    _threads_flag(sweep)

    val = sub.add_parser("validate-gmrf",
                         help="compare the generalized Laplacian against an "
                              "empirical precision matrix")
    val.add_argument("--frames", dest="frames_in", nargs="+", metavar="PATH")
    val.add_argument("--patches", type=int, default=19,
                     help="number of aligned patches K")
    val.add_argument("--synthetic-nodes", type=int, metavar="N",
                     help="synthetic mode: sample from a random N-node graph")
    val.add_argument("--seed", type=int, default=DEFAULT_SEED)

    fit = sub.add_parser("fit-lambda",
                         help="fit alpha, beta from an rd-sweep curve file")
    fit.add_argument("--curve", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "q", None) is not None and args.q <= 0:
        parser.error("--q must be positive")
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be >= 1")

    commands = {
        "encode": _cmd_encode,
        "decode": _cmd_decode,
        "rd-sweep": _cmd_rd_sweep,
        "validate-gmrf": _cmd_validate_gmrf,
        "fit-lambda": _cmd_fit_lambda,
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
