"""Sequence encoder and decoder.

Per frame: voxelize, cluster, then code every cluster either intra
(transform of the attributes on the spatial graph) or inter (temporal
prediction from the corresponded reconstructed reference, transform of
the residual).  Each cluster is eigendecomposed once: the eigenbasis U
of its combinatorial Laplacian L is the intra transform, and, because
L + wI shares its eigenvectors, also the residual transform (GGFT) and
the spectral form of the predictor w (L + wI)^{-1} x_ref, whose
coefficients g * U^T x_ref, g = w / (w + lambda) (`inter_predict`), the
inter mode subtracts from the cluster's U^T x.  The temporal precision
w = `rdo.temporal_precision(qstep)` is derived from the header on both
sides, once per sequence.  The first frame of each GOP is intra-only
(`SequenceConfig.is_p_frame`); every P-frame predicts from the
immediately previous reconstructed frame (low-delay).

The decoder recomputes every geometry-derived quantity (clusters,
normals, graphs, bases, motion) from the shared point positions and the
`SequenceConfig` the stream header carries, so the bitstream holds only
that header, mode flags and one payload per cluster.  The graph radius
is geometry-derived too: both sides call `graph.derived_epsilon_sq` on
frame 0's voxels, once per sequence, and pass the result down to every
cluster's graph.  `cluster_laplacian` and `reference_index` are one
cluster's graph and motion steps; the GMRF study in `cli` calls them
too; the normal neighbourhood (`graph.NORMAL_K`), edge kernel
(`graph.SIGMA_SQ`), radius floor (`graph.EPSILON_SQ_FLOOR`) and motion
search region (`BOX_EXPAND`) they use are constants, not coded
parameters.
Both directions run one frame walker, `_walk`, and differ in three
pieces only: the decoder's `check_frame` hook (geometry hash, then
cluster count, before k-means), the per-cluster step (trial coding and
mode decision, or `decode_block`) and which P clusters get a reference
(all of them, or the coded flags).  `_plans` derives each cluster's
basis and reference in cluster order, at most `threads` clusters ahead
of the one being coded, and a plan is dropped once its cluster is coded,
so at most two bases, each two n x n arrays, are alive at once
(`threads` + 2 with a worker pool).
`_reconstruct` is the only reconstruction arithmetic and inverse
transform; the walker calls it once per cluster, on the kept mode.
Bit-exact only where something reads the bits: a canonical order or
sign is imposed only where a coded value depends on it (`voxelize`'s
voxel order, `eigendecompose`'s eigenvector signs and order), and bit
equality is demanded only in-process, by the per-frame mirror hash
both directions fold their derived state into.  It covers the labels
and each cluster's mode, eigenvalues, reference indices, predictor
coefficients and reconstruction exactly, and the basis U through a
fixed seeded probe p: it hashes U^T p, an O(n^2) product, instead of
the dense n x n basis.  Other BLAS settings and CPUs round the bases
differently, so the decoder checks each frame's `recon_projections`
only to within RECON_DRIFT.
"""

from __future__ import annotations

import hashlib
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bitstream, graph, motion
from .bitstream import BitstreamError, FrameRecord
from .clustering import cluster_count, kmeans_geometry
from .coding import (CHANNELS, ContextSet, EndOfStreamError, decode_block,
                     dequantize, encode_block, quantize)
from .metrics import psnr
from .pointcloud import (RawPointCloud, SequenceConfig, VoxelizedFrame,
                         bounding_box, devoxelize, rgb_to_yuv,
                         sequence_bounding_box, voxelize)
from .rdo import (INTER, INTRA, choose_mode, distortion_yuv, lambda_from_q,
                  temporal_precision)
from .transform import eigendecompose, gft_forward, gft_inverse, inter_predict

BOX_EXPAND = 3.0  # growth of a cluster's box into the motion search region
# A decoded projection on probe p may miss the stored float32 value s by
# its rounding, 2^-24 |s|, plus RECON_DRIFT * sum |p_i| when no decoded
# value drifts by more than RECON_DRIFT.  Other BLAS settings and CPUs
# move the projections by under 1e-9; a basis off by 1e-3, by units.
RECON_DRIFT = 1e-6


@dataclass(frozen=True)
class ReconstructedFrame:
    """Voxel geometry of the input frame plus decoded attributes."""

    # Voxel geometry and input colours; when decoding, the colours of
    # the supplied geometry files, which no decoded value depends on.
    frame: VoxelizedFrame
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


def geometry_hash(voxel_coords: np.ndarray) -> int:
    """64-bit hash over the canonical (sorted) voxel coordinates."""
    data = np.ascontiguousarray(voxel_coords, dtype="<i4")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def recon_projections(attributes: np.ndarray) -> np.ndarray:
    """A frame's (v, 3) reconstruction projected on two fixed probes."""
    return _probe((2, attributes.size)) @ attributes.ravel()


def _check_reconstruction(t: int, attributes: np.ndarray, stored):
    """Refuse frame t if its decoded `attributes` project farther from
    the `stored` projections than RECON_DRIFT allows."""
    probes = _probe((2, attributes.size))
    drift = np.abs(probes @ attributes.ravel() - stored)
    if not np.all(drift <= 2.0**-24 * np.abs(stored)
                  + RECON_DRIFT * np.abs(probes).sum(axis=1)):
        raise BitstreamError(f"reconstruction mismatch in frame {t}: "
                             f"projections drift by {drift.max():.3g}")


@dataclass(frozen=True)
class _ClusterPlan:
    """Geometry-derived state for one cluster (identical on both paths)."""

    members: np.ndarray
    basis: object                     # eigenbasis of the combinatorial L
    ref_index: np.ndarray = None      # reference voxel indices in frame t-1


def cluster_laplacian(pts: np.ndarray, epsilon_sq: float) -> np.ndarray:
    """Dense combinatorial Laplacian of the normal-weighted epsilon-graph
    on a cluster's (n, 3) float64 voxel coordinates."""
    normals = graph.estimate_normals(pts)
    g = graph.build_epsilon_graph(pts, normals, epsilon_sq)
    return graph.combinatorial_laplacian(g)


def reference_index(pts: np.ndarray, ref_coords: np.ndarray):
    """Index into `ref_coords` of each cluster point's temporal reference:
    the point that ICP's last matching pairs it with when it moves the
    cluster onto the reference points inside the cluster's bounding box
    expanded by BOX_EXPAND.  None if that box is empty."""
    lo, hi = bounding_box(pts, BOX_EXPAND)
    region = np.flatnonzero(np.all((ref_coords >= lo) & (ref_coords <= hi),
                                   axis=1))
    if not region.size:
        return None
    return region[motion.icp_register(ref_coords[region], pts)[2]]


def _analyze_cluster(frame: VoxelizedFrame, members: np.ndarray,
                     epsilon_sq: float, prev_coords,
                     need_inter: bool) -> _ClusterPlan:
    pts = frame.voxel_coords[members].astype(np.float64)
    # Built inside the call, the Laplacian's buffer becomes the reflectors.
    basis = eigendecompose(lambda: cluster_laplacian(pts, epsilon_sq))
    ref_index = None
    if need_inter:
        ref_index = reference_index(pts, prev_coords)
    return _ClusterPlan(members=members, basis=basis, ref_index=ref_index)


def _plans(frame, partition, epsilon_sq, prev_coords, need_inter,
           threads: int):
    """Yield every cluster's plan in cluster order, lazily, so the caller
    can drop each plan once its cluster is coded.  `need_inter[cid]`
    says whether cluster cid needs a motion-compensated reference."""
    def analyze(cid):
        return _analyze_cluster(frame, partition.members(cid), epsilon_sq,
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
    """Code one cluster intra (prediction None) or inter on `contexts`,
    which it adapts in place.  Returns (indices, payload, contexts,
    (distortion, rate)): the mean YUV MSE and the payload's bits plus
    the mode flag per voxel, the units lambda_from_q is fitted in (U is
    orthonormal, so the coefficients' error is the attributes')."""
    target = coeffs if prediction is None else coeffs - prediction
    indices = quantize(target, qstep)
    payload = encode_block(indices.ravel(), contexts)  # Y, U, V per coefficient
    cost = (distortion_yuv(target, dequantize(indices, qstep)),
            (8 * len(payload) + 1) / len(coeffs))
    return indices, payload, contexts, cost


def _probe(shape) -> np.ndarray:
    """Fixed seeded normal samples, the probes of bases and frames."""
    return np.random.default_rng(0).standard_normal(shape)


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
        self._update(basis.project(_probe(basis.n)), "<f8")
        if prediction is not None:
            self._update(plan.ref_index, "<i8")
            self._update(prediction, "<f8")
        self._update(recon, "<f8")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


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


def _walk(raw_frames, config: SequenceConfig, threads: int, code_cluster,
          check_frame=None, inter_flags=None):
    """Yield (record, stats, ReconstructedFrame, decoded points) per frame.

    `check_frame(t, frame, geometry_hash)` runs before frame t is
    clustered.  A P-frame t's clusters get a reference where
    `inter_flags[t]` is set, or all of them.  `code_cluster(t, cid,
    frame, plan, candidate, contexts)` returns (indices, prediction,
    payload, contexts): `candidate` is predicted from the cluster's
    reference (None without one), `prediction` is None for intra."""
    if (isinstance(threads, bool) or not isinstance(threads, numbers.Integral)
            or threads < 1):
        raise ValueError(f"threads={threads!r} must be an integer >= 1")
    if not raw_frames:
        raise ValueError("need at least one frame")
    for t, raw in enumerate(raw_frames):
        if raw.point_count < 1:
            raise ValueError(f"frame {t} has no points")
    w = temporal_precision(config.qstep)
    box = sequence_bounding_box(raw_frames[0])

    prev: ReconstructedFrame = None
    for t, raw in enumerate(raw_frames):
        frame = voxelize(raw, config.grid_dim, box)
        geo_hash = geometry_hash(frame.voxel_coords)
        if check_frame is not None:
            check_frame(t, frame, geo_hash)
        if t == 0:
            epsilon_sq = graph.derived_epsilon_sq(frame.voxel_coords)
        partition = kmeans_geometry(frame, config.target_cluster_size)
        is_p = config.is_p_frame(t)
        prev_coords = prev.frame.voxel_coords if is_p else None
        need_inter = (inter_flags[t] if is_p and inter_flags is not None
                      else np.full(partition.k, is_p))

        contexts = ContextSet()
        mirror = _MirrorHash(partition.labels)
        recon_attrs = np.zeros_like(frame.attributes)
        flags = np.zeros(partition.k, dtype=bool)
        payloads = []
        for cid, plan in enumerate(_plans(frame, partition, epsilon_sq,
                                          prev_coords, need_inter, threads)):
            candidate = None
            if plan.ref_index is not None:
                candidate = inter_predict(plan.basis,
                                          prev.attributes[plan.ref_index], w)
            indices, prediction, payload, contexts = code_cluster(
                t, cid, frame, plan, candidate, contexts)
            flags[cid] = prediction is not None
            recon = _reconstruct(plan, indices, config.qstep, prediction)
            recon_attrs[plan.members] = recon
            payloads.append(payload)
            mirror.add_cluster(plan, prediction, recon)

        record = FrameRecord(
            geometry_hash=geo_hash,
            recon_projections=recon_projections(recon_attrs),
            inter_flags=flags if is_p else np.zeros(0, dtype=bool),
            clusters=payloads)
        prev = ReconstructedFrame(frame=frame, attributes=recon_attrs)
        points = devoxelize(recon_attrs, frame.point_map, raw.point_count)
        yield (record, _frame_stats(t, is_p, record, raw, points, mirror),
               prev, points)


def encode_sequence(raw_frames, config: SequenceConfig,
                    threads: int = 1) -> EncodeResult:
    """Encode an ordered list of RawPointCloud frames."""
    lam = lambda_from_q(config.qstep)

    def encode_cluster(t, cid, frame, plan, candidate, contexts):
        coeffs = gft_forward(frame.attributes[plan.members], plan.basis)
        # A lone trial is always kept, so it adapts the frame's contexts
        # in place; of two, the first codes on a copy.
        kept = _trial(coeffs, None, config.qstep,
                      contexts if candidate is None else contexts.copy())
        prediction = None
        if candidate is not None:
            inter = _trial(coeffs, candidate, config.qstep, contexts)
            if choose_mode(kept[3], inter[3], lam) == INTER:
                prediction, kept = candidate, inter
        indices, payload, contexts, _ = kept
        return indices, prediction, payload, contexts

    # drop each frame's decoded points as it is yielded, not at the end
    records, stats, recon = zip(*(frame[:3] for frame in _walk(
        raw_frames, config, threads, encode_cluster)))
    return EncodeResult(data=bitstream.write_bitstream(config, records),
                        stats=list(stats), recon=list(recon))


def decode_sequence(data: bytes, geometry_frames,
                    threads: int = 1) -> DecodeResult:
    """Decode a stream given the same geometry files used at encoding.

    Each frame is checked against its record before the work it sizes:
    first the geometry hash, then the cluster count that the header's
    cluster size gives for the frame's voxels (`cluster_count`), so a
    corrupted header never sizes k-means.  The graph radius is derived
    from frame 0 after both checks pass."""
    config, records = bitstream.read_bitstream(data)
    if not records:
        raise BitstreamError("stream holds no frames")
    if len(geometry_frames) != len(records):
        raise BitstreamError(
            f"stream has {len(records)} frames but "
            f"{len(geometry_frames)} geometry frames were supplied")

    def check_frame(t, frame, geo_hash):
        if geo_hash != records[t].geometry_hash:
            raise BitstreamError(f"reference geometry mismatch in frame {t}")
        k = cluster_count(frame.voxel_count, config.target_cluster_size)
        if k != records[t].cluster_count:
            raise BitstreamError(
                f"cluster count mismatch in frame {t}: stream has "
                f"{records[t].cluster_count}, geometry gives {k}")

    def decode_cluster(t, cid, frame, plan, candidate, contexts):
        n = plan.members.shape[0]
        payload = records[t].clusters[cid]
        try:
            indices = decode_block(payload, CHANNELS * n,
                                   contexts).reshape(n, CHANNELS)
        except EndOfStreamError as exc:
            raise BitstreamError(f"frame {t} cluster {cid}: {exc}") from exc
        if (candidate is None and config.is_p_frame(t)
                and records[t].inter_flags[cid]):
            raise BitstreamError(
                f"frame {t} cluster {cid} is inter-coded but has no "
                "reference candidates")
        return indices, candidate, payload, contexts

    recon_frames, point_attrs, stats = [], [], []
    for t, (record, frame_stats, rec, points) in enumerate(_walk(
            geometry_frames, config, threads, decode_cluster, check_frame,
            [r.inter_flags for r in records])):
        _check_reconstruction(t, rec.attributes, records[t].recon_projections)
        recon_frames.append(rec)
        point_attrs.append(points)
        stats.append(frame_stats)
    return DecodeResult(recon=recon_frames, point_attributes=point_attrs,
                        stats=stats)
