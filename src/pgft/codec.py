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
bitstream carries only mode flags and coefficient payloads.  Both paths
fold their derived state into a per-frame mirror hash; equality of
those hashes is the bit-exactness check.
"""

from __future__ import annotations

import hashlib
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


@dataclass
class _ClusterPlan:
    """Geometry-derived state for one cluster (identical on both paths)."""

    members: np.ndarray
    basis: object                     # eigenbasis of the combinatorial L
    ref_index: np.ndarray = None      # reference voxel indices in frame t-1
    prediction: np.ndarray = None     # (n, 3), filled once ref attrs known


def _analyze_cluster(frame: VoxelizedFrame, members: np.ndarray,
                     config: SequenceConfig, prev_coords,
                     need_inter: bool) -> _ClusterPlan:
    pts = frame.voxel_coords[members].astype(np.float64)
    normals = graph.estimate_normals(pts, config.normal_k)
    g = graph.build_epsilon_graph(pts, normals, config.epsilon_sq,
                                  config.sigma_sq)
    plan = _ClusterPlan(members=members,
                        basis=eigendecompose(graph.combinatorial_laplacian(g)))
    if need_inter and prev_coords is not None:
        box = expand_box(BoundingBox.of(pts), config.box_expand)
        region = np.flatnonzero(box.contains(prev_coords))
        if region.size:
            region_pts = prev_coords[region].astype(np.float64)
            transform = icp_register(region_pts, pts)
            corr = find_correspondence(pts, transform.apply(region_pts))
            plan.ref_index = region[corr.ref_index]
    return plan


def _code_channels(coeffs: np.ndarray, qstep: float, contexts):
    """Quantize and entropy-code the three channels; contexts are cloned
    so the caller can keep or drop the trial."""
    ctx = [c.copy() for c in contexts]
    payloads = []
    indices = []
    for c in range(CHANNELS):
        block = quantize(coeffs[:, c], qstep)
        indices.append(block)
        payloads.append(encode_block(block.indices, ctx[c]))
    bits = 8 * sum(len(p) for p in payloads)
    return payloads, indices, ctx, bits


def _intra_candidate(attrs, plan, qstep, contexts, mode_bit):
    coeffs = gft_forward(attrs, plan.basis)
    payloads, blocks, ctx, bits = _code_channels(coeffs, qstep, contexts)
    recon = gft_inverse(np.stack([dequantize(b) for b in blocks], axis=1),
                        plan.basis)
    rate = bits + mode_bit
    return payloads, ctx, recon, rate


def _inter_candidate(attrs, plan, prev_recon_attrs, qstep, contexts):
    ref = prev_recon_attrs[plan.ref_index]
    plan.prediction = inter_predict(plan.basis, ref)
    coeffs = gft_forward(attrs - plan.prediction, plan.basis)
    payloads, blocks, ctx, bits = _code_channels(coeffs, qstep, contexts)
    residual = gft_inverse(np.stack([dequantize(b) for b in blocks], axis=1),
                           plan.basis)
    recon = plan.prediction + residual
    rate = bits + 1
    return payloads, ctx, recon, rate


class _MirrorHash:
    """Accumulates the geometry-derived state both paths must share."""

    def __init__(self, labels: np.ndarray):
        self._h = hashlib.blake2b(digest_size=16)
        self._h.update(np.ascontiguousarray(labels, dtype="<i4").tobytes())

    def add_cluster(self, mode: str, plan: _ClusterPlan, recon: np.ndarray):
        self._h.update(mode.encode())
        self._h.update(np.ascontiguousarray(plan.basis.basis, dtype="<f8").tobytes())
        self._h.update(np.ascontiguousarray(plan.basis.eigenvalues, dtype="<f8").tobytes())
        if mode == INTER:
            self._h.update(np.ascontiguousarray(plan.ref_index, dtype="<i8").tobytes())
            self._h.update(np.ascontiguousarray(plan.prediction, dtype="<f8").tobytes())
        self._h.update(np.ascontiguousarray(recon, dtype="<f8").tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _frame_psnr(raw: RawPointCloud, rec: ReconstructedFrame):
    orig = rgb_to_yuv(raw.colors)
    decoded = devoxelize(
        VoxelizedFrame(rec.frame.voxel_coords, rec.attributes,
                       rec.frame.grid_dim, rec.frame.point_map),
        rec.frame.point_map, raw.point_count)
    return tuple(psnr(orig[:, c], decoded[:, c]) for c in range(CHANNELS))


def _map_clusters(analyze, k: int, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(analyze, range(k)))
    return [analyze(cid) for cid in range(k)]


def encode_sequence(raw_frames, config: SequenceConfig,
                    threads: int = 1) -> EncodeResult:
    """Encode an ordered list of RawPointCloud frames."""
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

        def analyze(cid):
            return _analyze_cluster(frame, partition.members(cid), config,
                                    prev_coords, need_inter=is_p)

        plans = _map_clusters(analyze, partition.k, threads)

        contexts = [ContextSet() for _ in range(CHANNELS)]
        mirror = _MirrorHash(partition.labels)
        recon_attrs = np.zeros_like(frame.attributes)
        clusters = []
        flags = np.zeros(partition.k, dtype=bool)
        n_inter = 0
        for cid, plan in enumerate(plans):
            attrs = frame.attributes[plan.members]
            mode_bit = 1 if is_p else 0
            i_pay, i_ctx, i_recon, i_rate = _intra_candidate(
                attrs, plan, config.qstep, contexts, mode_bit)
            mode = INTRA
            if is_p and plan.ref_index is not None:
                p_pay, p_ctx, p_recon, p_rate = _inter_candidate(
                    attrs, plan, prev.attributes, config.qstep, contexts)
                intra_cost = ModeCost(INTRA, distortion_yuv(attrs, i_recon), i_rate)
                inter_cost = ModeCost(INTER, distortion_yuv(attrs, p_recon), p_rate)
                mode = choose_mode(intra_cost, inter_cost, lam)
            if mode == INTER:
                payloads, contexts, cluster_recon = p_pay, p_ctx, p_recon
                flags[cid] = True
                n_inter += 1
            else:
                payloads, contexts, cluster_recon = i_pay, i_ctx, i_recon
            recon_attrs[plan.members] = cluster_recon
            clusters.append(ClusterRecord(payloads=tuple(payloads)))
            mirror.add_cluster(mode, plan, cluster_recon)

        record = FrameRecord(
            frame_type=FRAME_P if is_p else FRAME_I,
            geometry_hash=geometry_hash(frame.voxel_coords),
            recon_checksum=recon_checksum(recon_attrs),
            inter_flags=flags if is_p else np.zeros(0, dtype=bool),
            clusters=clusters)
        records.append(record)

        rec = ReconstructedFrame(frame=frame, attributes=recon_attrs)
        recon_frames.append(rec)
        prev = rec
        py, pu, pv = _frame_psnr(raw, rec)
        stats.append(FrameStats(
            index=t, frame_type="P" if is_p else "I",
            bits=len(bitstream.frame_record_bytes(record)) * 8,
            psnr_y=py, psnr_u=pu, psnr_v=pv,
            intra_clusters=partition.k - n_inter, inter_clusters=n_inter,
            mirror_hash=mirror.hexdigest()))

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
    header, records = bitstream.read_bitstream(data)
    if len(geometry_frames) != header.frame_count:
        raise BitstreamError(
            f"stream has {header.frame_count} frames but "
            f"{len(geometry_frames)} geometry frames were supplied")
    config = config_from_header(header)
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

        def analyze(cid):
            return _analyze_cluster(frame, partition.members(cid), config,
                                    prev_coords, need_inter=bool(flags[cid]))

        plans = _map_clusters(analyze, partition.k, threads)

        contexts = [ContextSet() for _ in range(CHANNELS)]
        mirror = _MirrorHash(partition.labels)
        recon_attrs = np.zeros_like(frame.attributes)
        n_inter = 0
        for cid, plan in enumerate(plans):
            n_k = plan.members.shape[0]
            payloads = record.clusters[cid].payloads
            coeffs = np.empty((n_k, CHANNELS))
            for c in range(CHANNELS):
                indices = decode_block(payloads[c], n_k, contexts[c])
                coeffs[:, c] = indices.astype(np.float64) * config.qstep
            if flags[cid]:
                if plan.ref_index is None:
                    raise BitstreamError(
                        f"frame {t} cluster {cid} is inter-coded but has no "
                        "reference candidates")
                ref = prev.attributes[plan.ref_index]
                plan.prediction = inter_predict(plan.basis, ref)
                cluster_recon = plan.prediction + gft_inverse(coeffs, plan.basis)
                mode = INTER
                n_inter += 1
            else:
                cluster_recon = gft_inverse(coeffs, plan.basis)
                mode = INTRA
            recon_attrs[plan.members] = cluster_recon
            mirror.add_cluster(mode, plan, cluster_recon)

        if recon_checksum(recon_attrs) != record.recon_checksum:
            raise BitstreamError(f"reconstruction checksum mismatch in frame {t}")

        rec = ReconstructedFrame(frame=frame, attributes=recon_attrs)
        recon_frames.append(rec)
        prev = rec
        decoded_frame = VoxelizedFrame(frame.voxel_coords, recon_attrs,
                                       frame.grid_dim, frame.point_map)
        point_attrs.append(devoxelize(decoded_frame, frame.point_map,
                                      raw.point_count))
        py, pu, pv = _frame_psnr(raw, rec)
        stats.append(FrameStats(
            index=t, frame_type="P" if is_p else "I",
            bits=len(bitstream.frame_record_bytes(record)) * 8,
            psnr_y=py, psnr_u=pu, psnr_v=pv,
            intra_clusters=partition.k - n_inter, inter_clusters=n_inter,
            mirror_hash=mirror.hexdigest()))

    return DecodeResult(recon=recon_frames, point_attributes=point_attrs,
                        stats=stats)
