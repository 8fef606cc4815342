"""Sequence encoder and decoder.

Per frame: voxelize, cluster, then code every cluster either intra
(transform of the attributes on the spatial graph) or inter (temporal
prediction from the corresponded reconstructed reference, transform of
the residual).  Each cluster is eigendecomposed once: the eigenbasis U
of its combinatorial Laplacian L is the intra transform, and, because
L + I shares its eigenvectors, also the residual transform (GGFT) and
the spectral form of the predictor (L + I)^{-1} x_ref, whose
coefficients g * U^T x_ref (`inter_predict`) the inter mode subtracts
from the cluster's U^T x.  The first frame of each GOP is intra-only
(`SequenceConfig.is_p_frame`); every P-frame predicts from the
immediately previous reconstructed frame (low-delay).

The decoder recomputes every geometry-derived quantity (clusters,
normals, graphs, bases, motion) from the shared point positions and the
`SequenceConfig` the stream header carries, so the bitstream holds only
that header, mode flags and one payload per cluster.  `cluster_laplacian`
and `reference_index` are one cluster's graph and motion steps; the GMRF
study in `cli` calls them too; the normal neighbourhood
(`graph.NORMAL_K`), edge kernel (`graph.SIGMA_SQ`) and motion search
region (`BOX_EXPAND`) they use are constants, not coded parameters.
Both directions share one per-cluster path: `_plans` derives each
cluster's basis and reference in cluster order, at most `threads`
clusters ahead of the one being coded, and a plan is dropped once its
cluster is coded, so at most two dense bases are alive at once
(`threads` + 2 with a worker pool).
`_reconstruct` is the only reconstruction arithmetic and inverse
transform; both paths call it once per cluster, on the kept mode.
Both paths fold their derived state into a per-frame mirror hash;
equality of those hashes is the bit-exactness check.  It covers the
labels and each cluster's mode, eigenvalues, reference indices,
predictor coefficients and reconstruction exactly, and the basis U
through a fixed seeded probe p: it hashes U^T p, an O(n^2) product,
instead of the dense n x n basis.
"""

from __future__ import annotations

import hashlib
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bitstream, graph
from .bitstream import BitstreamError, FrameRecord
from .clustering import kmeans_geometry
from .coding import (ContextSet, EndOfStreamError, decode_block, dequantize,
                     encode_block, quantize)
from .metrics import psnr
from .motion import find_correspondence, icp_register
from .pointcloud import (RawPointCloud, SequenceConfig, VoxelizedFrame,
                         bounding_box, devoxelize, rgb_to_yuv,
                         sequence_bounding_box, voxelize)
from .rdo import INTER, INTRA, choose_mode, distortion_yuv, lambda_from_q
from .transform import eigendecompose, gft_forward, gft_inverse, inter_predict

CHANNELS = 3
BOX_EXPAND = 3.0  # growth of a cluster's box into the motion search region


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


def _hash64(array: np.ndarray, dtype: str) -> int:
    data = np.ascontiguousarray(array, dtype=dtype)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def geometry_hash(voxel_coords: np.ndarray) -> int:
    """64-bit hash over the canonical (sorted) voxel coordinates."""
    return _hash64(voxel_coords, "<i4")


def recon_checksum(attributes: np.ndarray) -> int:
    return _hash64(attributes, "<f8")


@dataclass(frozen=True)
class _ClusterPlan:
    """Geometry-derived state for one cluster (identical on both paths)."""

    members: np.ndarray
    basis: object                     # eigenbasis of the combinatorial L
    ref_index: np.ndarray = None      # reference voxel indices in frame t-1


def cluster_laplacian(pts: np.ndarray, config: SequenceConfig) -> np.ndarray:
    """Dense combinatorial Laplacian of the normal-weighted epsilon-graph
    on a cluster's (n, 3) float64 voxel coordinates."""
    normals = graph.estimate_normals(pts)
    g = graph.build_epsilon_graph(pts, normals, config.epsilon_sq)
    return graph.combinatorial_laplacian(g)


def reference_index(pts: np.ndarray, ref_coords: np.ndarray):
    """Index into `ref_coords` of each cluster point's temporal reference:
    ICP against the reference points inside the cluster's bounding box
    expanded by BOX_EXPAND, then nearest neighbour.  None if that box is
    empty."""
    lo, hi = bounding_box(pts, BOX_EXPAND)
    region = np.flatnonzero(np.all((ref_coords >= lo) & (ref_coords <= hi),
                                   axis=1))
    if not region.size:
        return None
    region_pts = ref_coords[region].astype(np.float64)
    rotation, translation = icp_register(region_pts, pts)
    return region[find_correspondence(pts, region_pts @ rotation.T
                                      + translation)]


def _analyze_cluster(frame: VoxelizedFrame, members: np.ndarray,
                     config: SequenceConfig, prev_coords,
                     need_inter: bool) -> _ClusterPlan:
    pts = frame.voxel_coords[members].astype(np.float64)
    basis = eigendecompose(cluster_laplacian(pts, config))
    ref_index = None
    if need_inter and prev_coords is not None:
        ref_index = reference_index(pts, prev_coords)
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
            ahead = deque()  # bounded, so finished bases cannot pile up
            for cid in range(partition.k):
                ahead.append(pool.submit(analyze, cid))
                if len(ahead) > threads:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
    else:
        yield from map(analyze, range(partition.k))


def _reconstruct(plan: _ClusterPlan, indices: np.ndarray, qstep: float,
                 prediction) -> np.ndarray:
    """Decoded attributes of one cluster from its indices and prediction."""
    coeffs = dequantize(indices, qstep)
    return gft_inverse(coeffs if prediction is None else coeffs + prediction,
                       plan.basis)


def _trial(coeffs: np.ndarray, prediction, qstep: float, contexts):
    """Code one cluster intra (prediction None) or inter on a copy of the
    contexts.  Returns (indices, payload, contexts, (distortion, rate));
    U is orthonormal, so the coefficients' error is the attributes'."""
    target = coeffs if prediction is None else coeffs - prediction
    indices = quantize(target, qstep)
    ctx = contexts.copy()
    payload = encode_block(indices.ravel(), ctx)  # Y, U, V per coefficient
    cost = (distortion_yuv(target, dequantize(indices, qstep)),
            8 * len(payload) + 1)  # + the mode flag
    return indices, payload, ctx, cost


def _probe(n: int) -> np.ndarray:
    """The fixed seeded vector a basis is digested through."""
    return np.random.default_rng(0).standard_normal(n)


class _MirrorHash:
    """Accumulates the geometry-derived state both paths must share
    (the module docstring lists what it covers)."""

    def __init__(self, labels: np.ndarray):
        self._h = hashlib.blake2b(digest_size=16)
        self._update(labels, "<i4")

    def _update(self, array: np.ndarray, dtype: str):
        self._h.update(np.ascontiguousarray(array, dtype=dtype))

    def add_cluster(self, plan: _ClusterPlan, prediction, recon: np.ndarray):
        """Fold in one coded cluster; `prediction` is None for intra."""
        basis = plan.basis
        self._h.update((INTRA if prediction is None else INTER).encode())
        self._update(basis.eigenvalues, "<f8")
        self._update(basis.basis.T @ _probe(basis.n), "<f8")
        if prediction is not None:
            self._update(plan.ref_index, "<i8")
            self._update(prediction, "<f8")
        self._update(recon, "<f8")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _decoded_points(raw: RawPointCloud, rec: ReconstructedFrame) -> np.ndarray:
    """The reconstruction spread back onto the frame's points (YUV)."""
    return devoxelize(rec.attributes, rec.frame.point_map, raw.point_count)


def _frame_stats(t: int, is_p: bool, record: FrameRecord,
                 raw: RawPointCloud, decoded: np.ndarray,
                 mirror: _MirrorHash) -> FrameStats:
    orig = rgb_to_yuv(raw.colors)
    py, pu, pv = (psnr(orig[:, c], decoded[:, c]) for c in range(CHANNELS))
    n_inter = int(np.count_nonzero(record.inter_flags))
    return FrameStats(
        index=t, frame_type="P" if is_p else "I",
        bits=len(bitstream.frame_record_bytes(record)) * 8,
        psnr_y=py, psnr_u=pu, psnr_v=pv,
        intra_clusters=record.cluster_count - n_inter, inter_clusters=n_inter,
        mirror_hash=mirror.hexdigest())


def _check_frames_have_points(raw_frames):
    for t, raw in enumerate(raw_frames):
        if raw.point_count < 1:
            raise ValueError(f"frame {t} has no points")


def encode_sequence(raw_frames, config: SequenceConfig,
                    threads: int = 1) -> EncodeResult:
    """Encode an ordered list of RawPointCloud frames."""
    _check_threads(threads)
    if not raw_frames:
        raise ValueError("need at least one frame")
    _check_frames_have_points(raw_frames)
    config.validate()
    lam = lambda_from_q(config.qstep)
    box = sequence_bounding_box(raw_frames[0])

    records = []
    stats = []
    recon_frames = []
    prev: ReconstructedFrame = None
    for t, raw in enumerate(raw_frames):
        frame = voxelize(raw, config.grid_dim, box)
        partition = kmeans_geometry(frame, config.target_cluster_size)
        is_p = config.is_p_frame(t)
        prev_coords = prev.frame.voxel_coords if is_p else None

        contexts = ContextSet()
        mirror = _MirrorHash(partition.labels)
        recon_attrs = np.zeros_like(frame.attributes)
        clusters = []
        flags = np.zeros(partition.k, dtype=bool)
        for cid, plan in enumerate(_plans(frame, partition, config, prev_coords,
                                          np.full(partition.k, is_p), threads)):
            coeffs = gft_forward(frame.attributes[plan.members], plan.basis)
            prediction = None
            kept = _trial(coeffs, None, config.qstep, contexts)
            if plan.ref_index is not None:
                candidate = inter_predict(plan.basis, prev.attributes[plan.ref_index])
                inter = _trial(coeffs, candidate, config.qstep, contexts)
                if choose_mode(kept[3], inter[3], lam) == INTER:
                    prediction, kept = candidate, inter
            indices, payload, contexts, _ = kept
            flags[cid] = prediction is not None
            recon = _reconstruct(plan, indices, config.qstep, prediction)
            recon_attrs[plan.members] = recon
            clusters.append(payload)
            mirror.add_cluster(plan, prediction, recon)

        record = FrameRecord(
            geometry_hash=geometry_hash(frame.voxel_coords),
            recon_checksum=recon_checksum(recon_attrs),
            inter_flags=flags if is_p else np.zeros(0, dtype=bool),
            clusters=clusters)
        records.append(record)

        prev = ReconstructedFrame(frame=frame, attributes=recon_attrs)
        recon_frames.append(prev)
        stats.append(_frame_stats(t, is_p, record, raw,
                                  _decoded_points(raw, prev), mirror))

    data = bitstream.write_bitstream(config, records)
    return EncodeResult(data=data, stats=stats, recon=recon_frames)


def decode_sequence(data: bytes, geometry_frames,
                    threads: int = 1) -> DecodeResult:
    """Decode a stream given the same geometry files used at encoding."""
    _check_threads(threads)
    config, records = bitstream.read_bitstream(data)
    if not records:
        raise BitstreamError("stream holds no frames")
    if len(geometry_frames) != len(records):
        raise BitstreamError(
            f"stream has {len(records)} frames but "
            f"{len(geometry_frames)} geometry frames were supplied")
    _check_frames_have_points(geometry_frames)
    box = sequence_bounding_box(geometry_frames[0])

    recon_frames = []
    point_attrs = []
    stats = []
    prev: ReconstructedFrame = None
    for t, (raw, record) in enumerate(zip(geometry_frames, records)):
        frame = voxelize(raw, config.grid_dim, box)
        if geometry_hash(frame.voxel_coords) != record.geometry_hash:
            raise BitstreamError(f"reference geometry mismatch in frame {t}")
        is_p = config.is_p_frame(t)
        partition = kmeans_geometry(frame, config.target_cluster_size)
        if partition.k != record.cluster_count:
            raise BitstreamError(
                f"cluster count mismatch in frame {t}: stream has "
                f"{record.cluster_count}, geometry gives {partition.k}")
        prev_coords = prev.frame.voxel_coords if is_p else None
        flags = record.inter_flags if is_p else np.zeros(partition.k, dtype=bool)

        contexts = ContextSet()
        mirror = _MirrorHash(partition.labels)
        recon_attrs = np.zeros_like(frame.attributes)
        for cid, plan in enumerate(_plans(frame, partition, config, prev_coords,
                                          flags, threads)):
            n = plan.members.shape[0]
            try:
                indices = decode_block(record.clusters[cid], CHANNELS * n,
                                       contexts).reshape(n, CHANNELS)
            except EndOfStreamError as exc:
                raise BitstreamError(f"frame {t} cluster {cid}: {exc}") from exc
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
        stats.append(_frame_stats(t, is_p, record, raw, point_attrs[-1],
                                  mirror))

    return DecodeResult(recon=recon_frames, point_attributes=point_attrs,
                        stats=stats)
