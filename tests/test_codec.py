import os
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import pgft
from pgft import codec
from pgft import bitstream, graph
from pgft.bitstream import BitstreamError
from pgft.codec import decode_sequence, encode_sequence
from pgft.coding import ContextSet
from pgft.metrics import bd_br
from pgft.pointcloud import (RawPointCloud, SequenceConfig,
                             sequence_bounding_box, voxelize)
from pgft.synth import synthetic_sequence
from pgft.transform import TransformBasis, eigendecompose

CFG = dict(grid_dim=64, qstep=8.0)


def _cfg(**kw):
    merged = {**CFG, **kw}
    return SequenceConfig(**merged)


def test_gop_plan():
    frames = synthetic_sequence("wave", 16, point_count=150, seed=11)
    result = encode_sequence(frames, _cfg(gop_size=8))
    types = [s.frame_type for s in result.stats]
    assert types == (["I"] + ["P"] * 7) * 2


def test_p_frame_eigendecomposes_each_cluster_once(monkeypatch):
    """Each cluster is eigendecomposed once and coded on its coefficients:
    the encoder transforms it forward and back once, the decoder only
    back, and the predictor runs once per P cluster with a reference."""
    frames = synthetic_sequence("rigid-motion", 2, point_count=900, seed=12)

    def results_of(name):
        original, log = getattr(codec, name), []

        def logging(*args):
            log.append(original(*args))
            return log[-1]

        monkeypatch.setattr(codec, name, logging)
        return log

    bases, forward, inverse, predicted, refs = map(results_of, (
        "eigendecompose", "gft_forward", "gft_inverse", "inter_predict",
        "reference_index"))
    result = encode_sequence(frames, _cfg())
    assert result.stats[1].frame_type == "P"
    assert result.stats[1].inter_clusters > 0
    clusters = sum(s.intra_clusters + s.inter_clusters for s in result.stats)
    assert len(bases) == clusters
    assert sum(b.n for b in bases) == sum(r.frame.voxel_count
                                          for r in result.recon)
    assert len(forward) == len(inverse) == clusters
    assert len(predicted) == sum(r is not None for r in refs) > 0
    for log in (forward, inverse, predicted):
        log.clear()
    decoded = decode_sequence(result.data, frames)
    assert not forward
    assert len(inverse) == clusters
    assert len(predicted) == sum(s.inter_clusters for s in decoded.stats)


def test_contexts_copied_only_ahead_of_two_trials(monkeypatch):
    """A lone trial (I-frame clusters, P clusters without a reference)
    codes on the frame's contexts in place; a cluster with two trials
    copies them once, for the first."""
    frames = synthetic_sequence("rigid-motion", 3, point_count=900, seed=12)
    copies, refs = [], []
    original_copy, original_ref = ContextSet.copy, codec.reference_index

    def counting_copy(self):
        copies.append(1)
        return original_copy(self)

    def logging_ref(*args):
        refs.append(original_ref(*args))
        return refs[-1]

    monkeypatch.setattr(ContextSet, "copy", counting_copy)
    monkeypatch.setattr(codec, "reference_index", logging_ref)
    result = encode_sequence(frames, _cfg())
    assert [s.frame_type for s in result.stats] == ["I", "P", "P"]
    assert len(copies) == sum(r is not None for r in refs) > 0
    copies.clear()
    encode_sequence(frames, _cfg(gop_size=1))
    assert not copies
    decode_sequence(result.data, frames)
    assert not copies


def test_mode_decision_rates_are_bits_per_voxel(monkeypatch):
    """Both trials' rates are the payload's bits plus the mode flag per
    voxel of the cluster, the units lambda_from_q is fitted in."""
    frames = synthetic_sequence("rigid-motion", 2, point_count=900, seed=12)
    coded, decisions = [], []
    original_encode, original_choose = codec.encode_block, codec.choose_mode

    def logging_encode(indices, contexts):
        coded.append((len(indices) // 3, original_encode(indices, contexts)))
        return coded[-1][1]

    def logging_choose(intra, inter, lam):
        decisions.append((intra[1], inter[1], coded[-2], coded[-1]))
        return original_choose(intra, inter, lam)

    monkeypatch.setattr(codec, "encode_block", logging_encode)
    monkeypatch.setattr(codec, "choose_mode", logging_choose)
    encode_sequence(frames, _cfg())
    assert decisions
    for intra_rate, inter_rate, (n, intra), (m, inter) in decisions:
        assert n == m > 1
        assert intra_rate == (8 * len(intra) + 1) / n
        assert inter_rate == (8 * len(inter) + 1) / n


def test_at_most_two_bases_alive(monkeypatch):
    """Plans are produced and dropped one cluster at a time: when a basis
    is computed, only the previous cluster's basis may still be alive."""
    frames = synthetic_sequence("rigid-motion", 3, point_count=900, seed=12)
    config = _cfg(target_cluster_size=150)
    bases = []  # weakrefs; TransformBasis is unhashable, so no WeakSet
    peak = []
    original = codec.eigendecompose

    def tracking(lap):
        basis = original(lap)
        bases.append(weakref.ref(basis))
        peak.append(sum(ref() is not None for ref in bases))
        return basis

    monkeypatch.setattr(codec, "eigendecompose", tracking)
    result = encode_sequence(frames, config, threads=1)
    assert min(s.intra_clusters + s.inter_clusters for s in result.stats) >= 3
    assert result.stats[1].inter_clusters > 0
    assert max(peak) <= 2
    peak.clear()
    decode_sequence(result.data, frames, threads=1)
    assert len(peak) == len(bases) // 2
    assert max(peak) <= 2


def test_worker_pool_keeps_few_bases_alive(monkeypatch):
    """With a coder slower than the analysis workers, finished plans wait
    at most `threads` clusters ahead instead of piling up."""
    frames = synthetic_sequence("rigid-motion", 1, point_count=3000, seed=0)
    config = _cfg(grid_dim=128, target_cluster_size=150)
    bases = []  # weakrefs, as in test_at_most_two_bases_alive
    peak = []
    original = codec.eigendecompose
    real_coder = codec.encode_block

    def tracking(lap):
        basis = original(lap)
        bases.append(weakref.ref(basis))
        peak.append(sum(ref() is not None for ref in bases))
        return basis

    def slow(*args):
        time.sleep(0.01)
        return real_coder(*args)

    monkeypatch.setattr(codec, "eigendecompose", tracking)
    monkeypatch.setattr(codec, "encode_block", slow)
    threads = 2
    result = encode_sequence(frames, config, threads=threads)
    assert result.stats[0].intra_clusters == len(bases) == 20
    assert max(peak) <= threads + 2


def test_encoder_drops_decoded_points_before_writing(monkeypatch):
    """The encoder keeps each frame's record, stats and reconstruction
    until the stream is written, but not its decoded points (24 B per
    input point): when write_bitstream runs, at most one is alive."""
    frames = synthetic_sequence("rigid-motion", 3, point_count=600, seed=0)
    points = []  # weakrefs to devoxelize's outputs
    alive = []
    original = codec.devoxelize
    real_writer = bitstream.write_bitstream

    def tracking(*args):
        decoded = original(*args)
        points.append(weakref.ref(decoded))
        return decoded

    def writer(*args):
        alive.append(sum(ref() is not None for ref in points))
        return real_writer(*args)

    monkeypatch.setattr(codec, "devoxelize", tracking)
    monkeypatch.setattr(bitstream, "write_bitstream", writer)
    encode_sequence(frames, _cfg())
    assert len(points) == 3
    assert len(alive) == 1 and alive[0] <= 1


@pytest.mark.parametrize("field, value", [
    ("gop_size", 70_000), ("gop_size", 8.5),
    ("target_cluster_size", 1 << 32), ("grid_dim", 1 << 32)])
def test_header_field_overflow_rejected_before_coding(monkeypatch, field, value):
    def never(*args, **kwargs):
        raise AssertionError("clustering ran before the header check")

    monkeypatch.setattr(codec, "kmeans_geometry", never)
    frames = synthetic_sequence("wave", 2, point_count=200, seed=13)
    with pytest.raises(ValueError, match=field):
        encode_sequence(frames, _cfg(**{field: value}))


@pytest.mark.parametrize("cluster_size", [1, 6])
def test_wrong_cluster_count_rejected_before_clustering(monkeypatch,
                                                        cluster_size):
    """A corrupted cluster-size field gives a cluster count the record
    does not hold; the decoder says so from the voxel count alone, before
    k-means sizes its (v, k) distances by that count."""
    frames = synthetic_sequence("rigid-motion", 1, point_count=6000, seed=0)
    data = bytearray(encode_sequence(frames, _cfg(grid_dim=256)).data)
    assert struct.unpack_from("<I", data, 9) == (600,)  # target_cluster_size
    struct.pack_into("<I", data, 9, cluster_size)
    voxels = codec.voxelize(frames[0], 256,
                            sequence_bounding_box(frames[0])).voxel_count

    def never(*args, **kwargs):
        raise AssertionError("clustering ran before the cluster-count check")

    monkeypatch.setattr(codec, "kmeans_geometry", never)
    expected = -(-voxels // cluster_size)
    with pytest.raises(BitstreamError,
                       match=f"^cluster count mismatch in frame 0: stream has "
                             f"{-(-voxels // 600)}, geometry gives {expected}$"):
        decode_sequence(bytes(data), frames)


def test_cluster_size_above_limit_refused_before_any_basis(monkeypatch):
    """A header asking for clusters above MAX_CLUSTER_SIZE is refused by
    the reader, even when the frame's cluster count (here 1) agrees with
    it, so no dense eigendecomposition of that size is ever started."""
    frames = synthetic_sequence("rigid-motion", 1, point_count=400, seed=0)
    data = bytearray(encode_sequence(frames, _cfg(grid_dim=256)).data)
    assert bitstream.read_bitstream(bytes(data))[1][0].cluster_count == 1
    struct.pack_into("<I", data, 9, 2**32 - 1)  # target_cluster_size

    def never(*args, **kwargs):
        raise AssertionError("a basis was computed for a refused header")

    monkeypatch.setattr(codec, "eigendecompose", never)
    with pytest.raises(BitstreamError,
                       match="^invalid stream header: target_cluster_size="
                             "4294967295 exceeds the limit of 2048$"):
        decode_sequence(bytes(data), frames)


def _never(*args, **kwargs):
    raise AssertionError("the decoder voxelized before rejecting its input")


@pytest.mark.parametrize("threads", [0, -1, 2.5, True, "2", None])
def test_bad_threads_rejected_before_work(monkeypatch, threads):
    frames = synthetic_sequence("wave", 2, point_count=200, seed=13)
    data = encode_sequence(frames, _cfg()).data
    monkeypatch.setattr(codec, "voxelize", _never)
    with pytest.raises(ValueError, match="threads"):
        encode_sequence(frames, _cfg(), threads=threads)
    with pytest.raises(ValueError, match="threads"):
        decode_sequence(data, frames, threads=threads)


# bitstream._HEADER's fields, in order
_HEADER_FIELDS = (("magic", "version")
                  + tuple(name for name, _ in bitstream._HEADER_FIELDS)
                  + ("frame_count",))


@pytest.mark.parametrize("field, value", [
    ("target_cluster_size", 0), ("qstep", -1.0),
    ("qstep", float("nan")), ("qstep", float("inf")), ("grid_dim", 0),
    ("gop_size", 0)])
def test_invalid_header_rejected_before_voxelizing(monkeypatch, field, value):
    frames = synthetic_sequence("wave", 2, point_count=200, seed=13)
    data = bytearray(encode_sequence(frames, _cfg()).data)
    values = list(bitstream._HEADER.unpack_from(data, 0))
    values[_HEADER_FIELDS.index(field)] = value
    bitstream._HEADER.pack_into(data, 0, *values)
    monkeypatch.setattr(codec, "voxelize", _never)
    with pytest.raises(BitstreamError, match=f"invalid stream header: {field}="):
        decode_sequence(bytes(data), frames)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_projections_refused_before_voxelizing(monkeypatch, value):
    """The drift bound scales with the stored projection, so an infinite
    one would accept any reconstruction: the reader refuses the record."""
    frames = synthetic_sequence("wave", 1, point_count=200, seed=13)
    data = bytearray(encode_sequence(frames, _cfg()).data)
    record = bitstream._HEADER.size
    k, geo_hash, *_ = bitstream._FRAME_FIXED.unpack_from(data, record)
    bitstream._FRAME_FIXED.pack_into(data, record, k, geo_hash, value, value)
    monkeypatch.setattr(codec, "voxelize", _never)
    with pytest.raises(BitstreamError, match="^frame 0 stores non-finite "
                                             "reconstruction projections$"):
        decode_sequence(bytes(data), frames)


@pytest.mark.parametrize("t", [0, 1])
def test_empty_frame_named_before_voxelizing(monkeypatch, t):
    frames = synthetic_sequence("wave", 2, point_count=200, seed=13)
    data = encode_sequence(frames, _cfg()).data
    frames[t] = RawPointCloud(positions=np.zeros((0, 3)),
                              colors=np.zeros((0, 3), dtype=np.uint8))
    monkeypatch.setattr(codec, "voxelize", _never)
    with pytest.raises(ValueError, match=f"frame {t} has no points"):
        encode_sequence(frames, _cfg())
    with pytest.raises(ValueError, match=f"frame {t} has no points"):
        decode_sequence(data, frames)


def test_single_frame_is_intra_only():
    frames = synthetic_sequence("wave", 1, point_count=600, seed=0)
    result = encode_sequence(frames, _cfg())
    assert len(result.stats) == 1
    assert result.stats[0].frame_type == "I"
    assert result.stats[0].inter_clusters == 0


@pytest.mark.parametrize("threads", [1, 2])
def test_roundtrip_bit_exact_and_mirror(threads):
    """The decoder's stats equal the encoder's in every field: bits,
    mode counts, PSNR-Y/U/V and the mirror hash."""
    frames = synthetic_sequence("wave", 3, point_count=1000, seed=1)
    result = encode_sequence(frames, _cfg(), threads=threads)
    decoded = decode_sequence(result.data, frames, threads=threads)
    assert decoded.stats == result.stats
    for enc, dec in zip(result.recon, decoded.recon):
        assert np.array_equal(enc.attributes, dec.attributes)


def _mirror_digest(basis, ref_index):
    """One inter cluster's frame digest, everything but `basis` and
    `ref_index` fixed."""
    n = basis.n
    rng = np.random.default_rng(5)
    mirror = codec._MirrorHash(np.zeros(n, dtype=np.int32))
    plan = codec._ClusterPlan(members=np.arange(n), basis=basis,
                              ref_index=ref_index)
    mirror.add_cluster(plan, rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    return mirror.hexdigest()


def test_mirror_hash_catches_basis_and_reference_divergence():
    """The basis enters the mirror hash through U^T p only; that still
    tells apart every basis the canonicalization could get wrong."""
    path = np.diag([1.0, 2, 2, 1]) - np.eye(4, k=1) - np.eye(4, k=-1)
    lap = np.kron(np.eye(2), path)  # two equal paths: every eigenvalue twice
    basis = eigendecompose(lap)
    u, values = basis.basis, basis.eigenvalues
    assert values[1] - values[0] < 1e-9  # columns 0 and 1 share an eigenvalue
    ref_index = np.arange(8, dtype=np.int64) * 3

    def variant(vectors):
        return TransformBasis(basis=np.asfortranarray(vectors),
                              eigenvalues=values)

    flipped = u.copy()
    flipped[:, 5] *= -1
    swapped = u[:, [1, 0, 2, 3, 4, 5, 6, 7]]
    c, s = np.cos(0.3), np.sin(0.3)
    rotated = u.copy()
    rotated[:, 0], rotated[:, 1] = c * u[:, 0] + s * u[:, 1], c * u[:, 1] - s * u[:, 0]
    moved = ref_index.copy()
    moved[3] += 1

    digest = _mirror_digest(basis, ref_index)
    assert _mirror_digest(variant(u.copy()), ref_index.copy()) == digest
    others = [_mirror_digest(variant(flipped), ref_index),
              _mirror_digest(variant(swapped), ref_index),
              _mirror_digest(variant(rotated), ref_index),
              _mirror_digest(basis, moved)]
    assert len({digest, *others}) == 5


def test_near_lossless_at_tiny_qstep():
    frames = synthetic_sequence("wave", 4, point_count=800, seed=2)
    result = encode_sequence(frames, _cfg(qstep=1e-6))
    decoded = decode_sequence(result.data, frames)
    for rec in decoded.recon:
        err = np.abs(rec.attributes - rec.frame.attributes)
        assert np.max(err) < 1e-3


def test_decode_deterministic():
    frames = synthetic_sequence("rigid-motion", 2, point_count=900, seed=3)
    result = encode_sequence(frames, _cfg())
    a = decode_sequence(result.data, frames)
    b = decode_sequence(result.data, frames)
    for ra, rb in zip(a.recon, b.recon):
        assert np.array_equal(ra.attributes, rb.attributes)
    for pa, pb in zip(a.point_attributes, b.point_attributes):
        assert np.array_equal(pa, pb)


def test_encode_deterministic_across_threads():
    frames = synthetic_sequence("wave", 2, point_count=900, seed=4)
    a = encode_sequence(frames, _cfg(), threads=1)
    b = encode_sequence(frames, _cfg(), threads=4)
    assert a.data == b.data
    da = decode_sequence(a.data, frames, threads=1)
    db = decode_sequence(a.data, frames, threads=4)
    for ra, rb in zip(da.recon, db.recon):
        assert np.array_equal(ra.attributes, rb.attributes)


def _pool_workers():
    return {t for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor")}


@pytest.mark.parametrize("threads", [1, 2])
def test_corrupt_payload_byte_detected(threads):
    frames = synthetic_sequence("wave", 2, point_count=800, seed=5)
    result = encode_sequence(frames, _cfg())
    data = bytearray(result.data)
    data[-40] ^= 0xFF  # inside the last frame's payloads
    before = _pool_workers()
    with pytest.raises(BitstreamError):
        decode_sequence(bytes(data), frames, threads=threads)
    # the failure comes mid-frame; the plan generator's pool is shut down
    assert _pool_workers() <= before


def test_garbage_payload_names_frame_and_cluster():
    frames = synthetic_sequence("wave", 2, point_count=800, seed=5)
    config, records = bitstream.read_bitstream(encode_sequence(frames, _cfg()).data)
    records[1].clusters[0] = b"\xff" * 64
    with pytest.raises(BitstreamError,
                       match="^frame 1 cluster 0: payload longer"):
        decode_sequence(bitstream.write_bitstream(config, records), frames)


@pytest.mark.parametrize("threads", [1, 2])
def test_wrong_geometry_rejected(threads):
    frames = synthetic_sequence("wave", 2, point_count=800, seed=6)
    other = synthetic_sequence("wave", 2, point_count=800, seed=7)
    result = encode_sequence(frames, _cfg())
    before = _pool_workers()
    with pytest.raises(BitstreamError, match="geometry mismatch"):
        decode_sequence(result.data, other, threads=threads)
    assert _pool_workers() <= before


def test_inter_flag_without_reference_closes_pool(monkeypatch):
    """An inter flag on a cluster with no reference fails in the middle
    of a frame while worker threads still hold later plans."""
    frames = synthetic_sequence("rigid-motion", 2, point_count=900, seed=12)
    result = encode_sequence(frames, _cfg(target_cluster_size=150))
    assert result.stats[1].inter_clusters > 0
    real = codec._analyze_cluster

    def no_reference(frame, members, epsilon_sq, prev_coords, need_inter):
        plan = real(frame, members, epsilon_sq, prev_coords, need_inter)
        return codec._ClusterPlan(members=plan.members, basis=plan.basis)

    monkeypatch.setattr(codec, "_analyze_cluster", no_reference)
    before = _pool_workers()
    with pytest.raises(BitstreamError, match="frame 1 cluster .* no reference"):
        decode_sequence(result.data, frames, threads=2)
    assert _pool_workers() <= before


def test_frame_count_mismatch():
    frames = synthetic_sequence("wave", 2, point_count=600, seed=8)
    result = encode_sequence(frames, _cfg())
    with pytest.raises(BitstreamError, match="frames"):
        decode_sequence(result.data, frames[:1])


def test_intra_fallback_when_no_reference_candidates():
    """Frame 1 content sits far from every frame 0 point, so expanded
    reference regions are empty and all clusters fall back to intra."""
    rng = np.random.default_rng(9)
    blob_a = rng.uniform(0, 4, size=(300, 3))
    blob_b = rng.uniform(96, 100, size=(300, 3))
    far = rng.uniform([96, 0, 0], [100, 4, 4], size=(300, 3))
    colors = rng.integers(0, 256, size=(300, 3), dtype=np.uint8)
    f0 = RawPointCloud(np.vstack([blob_a, blob_b]).astype(np.float32).astype(np.float64),
                       np.vstack([colors, colors]))
    f1 = RawPointCloud(far.astype(np.float32).astype(np.float64), colors)
    result = encode_sequence([f0, f1], _cfg(qstep=16.0))
    assert result.stats[1].frame_type == "P"
    assert result.stats[1].inter_clusters == 0
    decoded = decode_sequence(result.data, [f0, f1])
    assert np.array_equal(decoded.recon[1].attributes, result.recon[1].attributes)


def test_stats_bits_match_stream_size():
    frames = synthetic_sequence("wave", 3, point_count=700, seed=10)
    result = encode_sequence(frames, _cfg())
    frame_bits = sum(s.bits for s in result.stats)
    header_bits = result.total_bits - frame_bits
    assert 0 < header_bits <= 64 * 8


def _sparse_frames():
    """Two rigid-motion frames whose point spacing at grid 256 is above
    graph.EPSILON_SQ_FLOOR."""
    return synthetic_sequence("rigid-motion", 2, point_count=900, seed=5)


def _frame0_spacing(frames, grid_dim):
    box = sequence_bounding_box(frames[0])
    return graph.spacing_epsilon_sq(
        voxelize(frames[0], grid_dim, box).voxel_coords)


def test_encoder_graphs_take_frame0_spacing(graph_radii):
    """Frame 0's point spacing, not the floor, is the radius of every
    graph the encoder builds, and re-encoding with the header's config
    gives the same stream."""
    frames = _sparse_frames()
    result = encode_sequence(frames, _cfg(grid_dim=256))
    assert graph_radii == {_frame0_spacing(frames, 256)}
    assert _frame0_spacing(frames, 256) > graph.EPSILON_SQ_FLOOR
    header, _ = bitstream.read_bitstream(result.data)
    assert encode_sequence(frames, header).data == result.data


def test_dense_lattice_resolves_to_the_floor():
    ii, jj = np.meshgrid(np.arange(40), np.arange(40), indexing="ij")
    plane = np.stack([ii.ravel(), jj.ravel(), np.zeros(1600, int)], axis=1)
    assert graph.spacing_epsilon_sq(plane) == 2.0
    assert graph.derived_epsilon_sq(plane) == graph.EPSILON_SQ_FLOOR == 50.0


def test_both_sides_derive_the_radius(monkeypatch):
    """The stream carries no radius: a decoder whose spacing rule differs
    from the encoder's builds other graphs, and frame 0's reconstruction
    projections catch it.  The rule runs only once frame 0's geometry
    hash has matched."""
    frames = _sparse_frames()
    data = encode_sequence(frames, _cfg(grid_dim=256)).data

    def derive(coords):
        raise AssertionError("derived before the geometry check")

    monkeypatch.setattr(graph, "spacing_epsilon_sq", derive)
    other = synthetic_sequence("rigid-motion", 2, point_count=900, seed=6)
    with pytest.raises(BitstreamError, match="geometry mismatch in frame 0"):
        decode_sequence(data, other)
    monkeypatch.setattr(graph, "spacing_epsilon_sq", lambda coords: 0.0)
    with pytest.raises(BitstreamError,
                       match="^reconstruction mismatch in frame 0: "):
        decode_sequence(data, frames)


def _rd_curve(frames, qs):
    """(bpip, mean PSNR-Y) of each Q's encode, the pairs bd_br takes."""
    points = sum(f.point_count for f in frames)
    curve = []
    for q in qs:
        stats = encode_sequence(frames, _cfg(grid_dim=128, qstep=q)).stats
        curve.append((sum(s.bits for s in stats) / points,
                       float(np.mean([s.psnr_y for s in stats]))))
    return curve


@pytest.mark.parametrize("kind, bound", [("rigid-motion", -5.0), ("wave", 0.0)])
def test_fitted_temporal_precision_saves_rate(monkeypatch, kind, bound):
    """RD guard on the predictor's w(Q): over a small ladder, the fitted
    model beats the unit temporal precision by a BD-rate of at least 5%
    on rigid motion and does not lose on the wave."""
    frames = synthetic_sequence(kind, 2, point_count=1500, seed=0)
    qs = (4.0, 8.0, 16.0, 32.0)
    model = _rd_curve(frames, qs)
    monkeypatch.setattr(codec, "temporal_precision", lambda q: 1.0)
    unit = _rd_curve(frames, qs)
    assert bd_br(unit, model) <= bound


def test_perturbed_decoder_basis_refused(monkeypatch):
    """A decoder whose basis of one cluster is off by 1e-3 decodes every
    payload but reconstructs that frame wrongly: its projections refuse
    the stream and name the frame."""
    frames = synthetic_sequence("rigid-motion", 2, point_count=900, seed=12)
    data = encode_sequence(frames, _cfg()).data
    first_of_frame_1 = bitstream.read_bitstream(data)[1][0].cluster_count
    real, calls = codec.eigendecompose, []

    def perturbed(lap):
        basis = real(lap)
        calls.append(None)
        if len(calls) - 1 != first_of_frame_1:
            return basis
        noise = np.random.default_rng(0).normal(scale=1e-3,
                                                size=basis.basis.shape)
        return TransformBasis(basis=basis.basis + noise,
                              eigenvalues=basis.eigenvalues)

    monkeypatch.setattr(codec, "eigendecompose", perturbed)
    with pytest.raises(BitstreamError,
                       match="^reconstruction mismatch in frame 1: "):
        decode_sequence(data, frames)


def test_projections_tolerate_drift_not_swaps():
    """A drift of half RECON_DRIFT on every value passes the check.
    Swapping two values, which sum x and sum x^2 cannot see, moves a
    projection beyond the tolerance."""
    frames = synthetic_sequence("rigid-motion", 1, point_count=900, seed=12)
    recon = encode_sequence(frames, _cfg()).recon[0].attributes
    stored = tuple(np.float32(codec.recon_projections(recon)))
    signs = np.random.default_rng(1).choice([-1.0, 1.0], size=recon.shape)
    codec._check_reconstruction(0, recon + 0.5 * codec.RECON_DRIFT * signs,
                                stored)
    swapped = recon.copy()
    i, j = np.argmin(recon), np.argmax(recon)
    swapped.flat[[i, j]] = recon.flat[[j, i]]
    with pytest.raises(BitstreamError,
                       match="^reconstruction mismatch in frame 0: "):
        codec._check_reconstruction(0, swapped, stored)


# A rigid-motion sequence at grid 256.  Its point spacing sets epsilon^2
# to 168, so every cluster graph is connected and L has no repeated
# eigenvalue; the bases still differ by rounding between BLAS thread
# counts and CPU kernels, and the decoder accepts that drift.  Each step
# saves the reconstructions it ends with next to the stream.
_CROSS_BLAS_CODEC = """
import sys
import numpy as np
from pgft.codec import decode_sequence, encode_sequence
from pgft.pointcloud import SequenceConfig
from pgft.synth import synthetic_sequence
step, frame_count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
frames = synthetic_sequence("rigid-motion", frame_count, 3000, seed=0)
if step == "encode":
    result = encode_sequence(frames, SequenceConfig(grid_dim=256, qstep=8.0))
    with open(path, "wb") as f:
        f.write(result.data)
else:
    with open(path, "rb") as f:
        result = decode_sequence(f.read(), frames)
np.save(f"{path}.{step}.npy",
        np.concatenate([r.attributes for r in result.recon]))
"""


def _run_codec(step, frame_count, path, env_vars):
    src = str(Path(pgft.__file__).resolve().parent.parent)
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _CROSS_BLAS_CODEC, step, str(frame_count),
         str(path)], capture_output=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr.decode()[-300:]


def _decode_elsewhere(tmp_path, frame_count, encode_env, decode_env):
    """Encode in one subprocess and decode in another; the decoded
    reconstructions lie within 1e-6 of the encoded ones."""
    path = tmp_path / "s.pgft"
    _run_codec("encode", frame_count, path, encode_env)
    _run_codec("decode", frame_count, path, decode_env)
    drift = np.load(f"{path}.decode.npy") - np.load(f"{path}.encode.npy")
    assert np.max(np.abs(drift)) < 1e-6


@pytest.mark.parametrize("encode_threads, decode_threads", [(1, 2), (2, 1)])
def test_decode_under_another_blas_thread_count(tmp_path, encode_threads,
                                                decode_threads):
    _decode_elsewhere(tmp_path, 1,
                      {"OPENBLAS_NUM_THREADS": str(encode_threads)},
                      {"OPENBLAS_NUM_THREADS": str(decode_threads)})


def test_decode_under_another_cpu_kernel(tmp_path):
    """1 I + 3 P frames decode under OpenBLAS's Nehalem kernels, set
    only in the decoding subprocess."""
    _decode_elsewhere(tmp_path, 4, {}, {"OPENBLAS_CORETYPE": "Nehalem"})
