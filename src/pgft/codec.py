"""Sequence encoder and decoder.

Per frame: voxelize, cluster, then code every cluster either intra
(transform of the attributes on the spatial graph) or inter (temporal
prediction from the corresponded reconstructed reference, transform of
the residual).  Each cluster is eigendecomposed once: the eigenbasis of
its combinatorial Laplacian L is the intra transform, and, because
L + I shares its eigenvectors, also the residual transform (GGFT) and
the spectral form of the predictor (L + I)^{-1} x_ref.  The first frame
of each GOP is intra-only; every P-frame predicts from the immediately
previous reconstructed frame (low-delay).

The decoder recomputes every geometry-derived quantity (clusters,
normals, graphs, bases, motion) from the shared point positions, so the
bitstream carries only mode flags and coefficient payloads.  Both
directions share one per-cluster path: `_plans` derives each cluster's
basis and reference one cluster at a time, in cluster order, and a plan
is dropped once its cluster is coded, so at most a couple of dense
bases are alive at once.  `_reconstruct` is the only reconstruction
arithmetic; the encoder's mode trials and the decoder both call it.
Both paths fold their derived state into a per-frame mirror hash;
equality of those hashes is the bit-exactness check.
"""

from __future__ import annotations

import hashlib
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bitstream, graph
from .bitstream import (BitstreamError, ClusterRecord, FrameRecord,
                        StreamHeader, FRAME_I, FRAME_P)
from .clustering import kmeans_geometry
from .coding import ContextSet, decode_block, dequantize, encode_block, quantize
from .metrics import psnr
from .motion import BoundingBox, expand_box, find_correspondence, icp_register
from .pointcloud import (RawPointCloud, SequenceConfig, VoxelizedFrame,
                         devoxelize, rgb_to_yuv, sequence_bounding_box,
                         voxelize)
from .rdo import (INTER, INTRA, LambdaModel, ModeCost, choose_mode,
                  distortion_yuv, lambda_from_q)
from .transform import eigendecompose, gft_forward, gft_inverse, inter_predict

CHANNELS = 3


@dataclass(frozen=True)
class ReconstructedFrame:
    """Voxel geometry of the input frame plus decoded attributes."""

    frame: VoxelizedFrame       # original geometry (and original attributes)
    attributes: np.ndarray      # (v, 3) decoded, mid-level centered


@dataclass(frozen=True)
class FrameStats:
    index: int
    frame_type: str
    bits: int
    psnr_y: float
    psnr_u: float
    psnr_v: float
    intra_clusters: int
    inter_clusters: int
    mirror_hash: str


@dataclass(frozen=True)
class EncodeResult:
    data: bytes
    stats: list
    recon: list  # [ReconstructedFrame]

    @property
    def total_bits(self) -> int:
        return len(self.data) * 8


@dataclass(frozen=True)
class DecodeResult:
    recon: list           # [ReconstructedFrame]
    point_attributes: list  # per frame: (n, 3) devoxelized YUV in [0, 255]
    stats: list


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def geometry_hash(voxel_coords: np.ndarray) -> int:
    """64-bit hash over the canonical (sorted) voxel coordinates."""
    return _hash64(np.ascontiguousarray(voxel_coords, dtype="<i4").tobytes())


def recon_checksum(attributes: np.ndarray) -> int:
    return _hash64(np.ascontiguousarray(attributes, dtype="<f8").tobytes())


@dataclass(frozen=True)
class _ClusterPlan:
    """Geometry-derived state for one cluster (identical on both paths)."""

    members: np.ndarray
    basis: object                     # eigenbasis of the combinatorial L
    ref_index: np.ndarray = None      # reference voxel indices in frame t-1


def _analyze_cluster(frame: VoxelizedFrame, members: np.ndarray,
                     config: SequenceConfig, prev_coords,
                     need_inter: bool) -> _ClusterPlan:
    pts = frame.voxel_coords[members].astype(np.float64)
    normals = graph.estimate_normals(pts, config.normal_k)
    g = graph.build_epsilon_graph(pts, normals, config.epsilon_sq,
                                  config.sigma_sq)
    basis = eigendecompose(graph.combinatorial_laplacian(g))
    ref_index = None
    if need_inter and prev_coords is not None:
        box = expand_box(BoundingBox.of(pts), config.box_expand)
        region = np.flatnonzero(box.contains(prev_coords))
        if region.size:
            region_pts = prev_coords[region].astype(np.float64)
            transform = icp_register(region_pts, pts)
            ref_index = region[find_correspondence(pts, transform.apply(region_pts))]
    return _ClusterPlan(members=members, basis=basis, ref_index=ref_index)


def _check_threads(threads):
    if (isinstance(threads, bool) or not isinstance(threads, numbers.Integral)
            or threads < 1):
        raise ValueError(f"threads={threads!r} must be an integer >= 1")


def _plans(frame, partition, config, prev_coords, need_inter, threads: int):
    """Yield every cluster's plan in cluster order, lazily, so the caller
    can drop each plan once its cluster is coded.  `need_inter[cid]`
    says whether cluster cid needs a motion-compensated reference."""
    def analyze(cid):
        return _analyze_cluster(frame, partition.members(cid), config,
                                prev_coords, bool(need_inter[cid]))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(analyze, range(partition.k))
    else:
        yield from map(analyze, range(partition.k))


def _reconstruct(plan: _ClusterPlan, indices: np.ndarray, qstep: float,
                 prediction) -> np.ndarray:
    """Decoded attributes of one cluster from its (n, 3) indices."""
    recon = gft_inverse(dequantize(indices, qstep), plan.basis)
    # Intra adds nothing: 0.0 + -0.0 would change the bytes recon_checksum hashes.
    return recon if prediction is None else prediction + recon


def _trial(attrs, plan: _ClusterPlan, prediction, qstep: float, contexts):
    """Code one cluster intra (prediction None) or inter on copies of the
    contexts, so the caller can keep or drop the trial.  Returns
    (payloads, contexts, recon, payload bits)."""
    residual = attrs if prediction is None else attrs - prediction
    indices = quantize(gft_forward(residual, plan.basis), qstep)
    ctx = [c.copy() for c in contexts]
    payloads = tuple(encode_block(indices[:, c], ctx[c]) for c in range(CHANNELS))
    recon = _reconstruct(plan, indices, qstep, prediction)
    return payloads, ctx, recon, 8 * sum(len(p) for p in payloads)


class _MirrorHash:
    """Accumulates the geometry-derived state both paths must share."""

    def __init__(self, labels: np.ndarray):
        self._h = hashlib.blake2b(digest_size=16)
        self._h.update(np.ascontiguousarray(labels, dtype="<i4").tobytes())

    def add_cluster(self, plan: _ClusterPlan, prediction, recon: np.ndarray):
        """Fold in one coded cluster; `prediction` is None for intra."""
        self._h.update((INTRA if prediction is None else INTER).encode())
        self._h.update(np.ascontiguousarray(plan.basis.basis, dtype="<f8").tobytes())
        self._h.update(np.ascontiguousarray(plan.basis.eigenvalues, dtype="<f8").tobytes())
        if prediction is not None:
            self._h.update(np.ascontiguousarray(plan.ref_index, dtype="<i8").tobytes())
            self._h.update(np.ascontiguousarray(prediction, dtype="<f8").tobytes())
        self._h.update(np.ascontiguousarray(recon, dtype="<f8").tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _decoded_points(raw: RawPointCloud, rec: ReconstructedFrame) -> np.ndarray:
    """The reconstruction spread back onto the frame's points (YUV)."""
    f = rec.frame
    return devoxelize(VoxelizedFrame(f.voxel_coords, rec.attributes,
                                     f.grid_dim, f.point_map),
                      f.point_map, raw.point_count)


def _frame_stats(t: int, record: FrameRecord, raw: RawPointCloud,
                 decoded: np.ndarray, mirror: _MirrorHash) -> FrameStats:
    orig = rgb_to_yuv(raw.colors)
    py, pu, pv = (psnr(orig[:, c], decoded[:, c]) for c in range(CHANNELS))
    n_inter = int(np.count_nonzero(record.inter_flags))
    return FrameStats(
        index=t, frame_type="P" if record.frame_type == FRAME_P else "I",
        bits=len(bitstream.frame_record_bytes(record)) * 8,
        psnr_y=py, psnr_u=pu, psnr_v=pv,
        intra_clusters=record.cluster_count - n_inter, inter_clusters=n_inter,
        mirror_hash=mirror.hexdigest())


def encode_sequence(raw_frames, config: SequenceConfig,
                    threads: int = 1) -> EncodeResult:
    """Encode an ordered list of RawPointCloud frames."""
    _check_threads(threads)
    if not raw_frames:
        raise ValueError("need at least one frame")
    config.validate()
    header = StreamHeader(grid_dim=config.grid_dim, qstep=config.qstep,
                          gop_size=config.gop_size,
                          target_cluster_size=config.target_cluster_size,
                          epsilon_sq=config.epsilon_sq,
                          sigma_sq=config.sigma_sq, normal_k=config.normal_k,
                          box_expand=config.box_expand,
                          frame_count=len(raw_frames))
    bitstream.check_header(header)
    lam = lambda_from_q(config.qstep,
                        LambdaModel(config.lambda_alpha, config.lambda_beta))
    box = sequence_bounding_box(raw_frames[0])

    records = []
    stats = []
    recon_frames = []
    prev: ReconstructedFrame = None
    for t, raw in enumerate(raw_frames):
        frame = voxelize(raw, config.grid_dim, box)
        partition = kmeans_geometry(frame, config.target_cluster_size)
        is_p = t % config.gop_size != 0
        prev_coords = prev.frame.voxel_coords if is_p else None

        contexts = [ContextSet() for _ in range(CHANNELS)]
        mirror = _MirrorHash(partition.labels)
        recon_attrs = np.zeros_like(frame.attributes)
        clusters = []
        flags = np.zeros(partition.k, dtype=bool)
        for cid, plan in enumerate(_plans(frame, partition, config, prev_coords,
                                          np.full(partition.k, is_p), threads)):
            attrs = frame.attributes[plan.members]
            prediction = None
            payloads, trial_ctx, recon, bits = _trial(
                attrs, plan, None, config.qstep, contexts)
            if plan.ref_index is not None:
                candidate = inter_predict(plan.basis, prev.attributes[plan.ref_index])
                p_pay, p_ctx, p_recon, p_bits = _trial(
                    attrs, plan, candidate, config.qstep, contexts)
                # both rates include the one-bit mode flag
                mode = choose_mode(
                    ModeCost(INTRA, distortion_yuv(attrs, recon), bits + 1),
                    ModeCost(INTER, distortion_yuv(attrs, p_recon), p_bits + 1),
                    lam)
                if mode == INTER:
                    prediction, payloads, trial_ctx, recon = (
                        candidate, p_pay, p_ctx, p_recon)
            contexts = trial_ctx
            flags[cid] = prediction is not None
            recon_attrs[plan.members] = recon
            clusters.append(ClusterRecord(payloads=payloads))
            mirror.add_cluster(plan, prediction, recon)

        record = FrameRecord(
            frame_type=FRAME_P if is_p else FRAME_I,
            geometry_hash=geometry_hash(frame.voxel_coords),
            recon_checksum=recon_checksum(recon_attrs),
            inter_flags=flags if is_p else np.zeros(0, dtype=bool),
            clusters=clusters)
        records.append(record)

        prev = ReconstructedFrame(frame=frame, attributes=recon_attrs)
        recon_frames.append(prev)
        stats.append(_frame_stats(t, record, raw, _decoded_points(raw, prev),
                                  mirror))

    data = bitstream.write_bitstream(header, records)
    return EncodeResult(data=data, stats=stats, recon=recon_frames)


def config_from_header(header: StreamHeader) -> SequenceConfig:
    return SequenceConfig(grid_dim=header.grid_dim, qstep=header.qstep,
                          gop_size=header.gop_size,
                          target_cluster_size=header.target_cluster_size,
                          epsilon_sq=header.epsilon_sq,
                          sigma_sq=header.sigma_sq, normal_k=header.normal_k,
                          box_expand=header.box_expand)


def decode_sequence(data: bytes, geometry_frames,
                    threads: int = 1) -> DecodeResult:
    """Decode a stream given the same geometry files used at encoding."""
    _check_threads(threads)
    header, records = bitstream.read_bitstream(data)
    try:
        config = config_from_header(header).validate()
    except ValueError as exc:
        raise BitstreamError(f"invalid stream header: {exc}") from exc
    if len(geometry_frames) != header.frame_count:
        raise BitstreamError(
            f"stream has {header.frame_count} frames but "
            f"{len(geometry_frames)} geometry frames were supplied")
    box = sequence_bounding_box(geometry_frames[0])

    recon_frames = []
    point_attrs = []
    stats = []
    prev: ReconstructedFrame = None
    for t, (raw, record) in enumerate(zip(geometry_frames, records)):
        frame = voxelize(raw, config.grid_dim, box)
        if geometry_hash(frame.voxel_coords) != record.geometry_hash:
            raise BitstreamError(f"reference geometry mismatch in frame {t}")
        is_p = record.frame_type == FRAME_P
        if is_p and prev is None:
            raise BitstreamError("first frame of the stream is not an I-frame")
        partition = kmeans_geometry(frame, config.target_cluster_size)
        if partition.k != record.cluster_count:
            raise BitstreamError(
                f"cluster count mismatch in frame {t}: stream has "
                f"{record.cluster_count}, geometry gives {partition.k}")
        prev_coords = prev.frame.voxel_coords if is_p else None
        flags = record.inter_flags if is_p else np.zeros(partition.k, dtype=bool)

        contexts = [ContextSet() for _ in range(CHANNELS)]
        mirror = _MirrorHash(partition.labels)
        recon_attrs = np.zeros_like(frame.attributes)
        for cid, plan in enumerate(_plans(frame, partition, config, prev_coords,
                                          flags, threads)):
            n_k = plan.members.shape[0]
            payloads = record.clusters[cid].payloads
            indices = np.stack([decode_block(payloads[c], n_k, contexts[c])
                                for c in range(CHANNELS)], axis=1)
            prediction = None
            if flags[cid]:
                if plan.ref_index is None:
                    raise BitstreamError(
                        f"frame {t} cluster {cid} is inter-coded but has no "
                        "reference candidates")
                prediction = inter_predict(plan.basis, prev.attributes[plan.ref_index])
            recon = _reconstruct(plan, indices, config.qstep, prediction)
            recon_attrs[plan.members] = recon
            mirror.add_cluster(plan, prediction, recon)

        if recon_checksum(recon_attrs) != record.recon_checksum:
            raise BitstreamError(f"reconstruction checksum mismatch in frame {t}")

        prev = ReconstructedFrame(frame=frame, attributes=recon_attrs)
        recon_frames.append(prev)
        point_attrs.append(_decoded_points(raw, prev))
        stats.append(_frame_stats(t, record, raw, point_attrs[-1], mirror))

    return DecodeResult(recon=recon_frames, point_attributes=point_attrs,
                        stats=stats)
