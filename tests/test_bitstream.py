import dataclasses
import hashlib

import numpy as np
import pytest

from pgft import codec
from pgft.bitstream import (BitstreamError, FrameRecord, read_bitstream,
                            write_bitstream)
from pgft.clustering import kmeans_geometry
from pgft.coding import ContextSet, decode_block, encode_block
from pgft.pointcloud import SequenceConfig, sequence_bounding_box, voxelize
from pgft.synth import synthetic_sequence


def _random_frames(rng, count):
    frames = []
    for t in range(count):
        k = int(rng.integers(1, 5))
        is_p = SequenceConfig().is_p_frame(t)
        clusters = [
            bytes(rng.integers(0, 256, size=rng.integers(0, 180), dtype=np.uint8))
            for _ in range(k)]
        frames.append(FrameRecord(
            geometry_hash=int(rng.integers(0, 2**63)),
            recon_projections=tuple(rng.normal(scale=1e4, size=2)),
            inter_flags=rng.integers(0, 2, size=k).astype(bool) if is_p
            else np.zeros(0, dtype=bool),
            clusters=clusters))
    return frames


def _fixed_frames():
    return [
        FrameRecord(0x0123456789ABCDEF, (1234.5, -0.25),
                    np.zeros(0, dtype=bool),
                    [b"\x01\x02" + b"\xff" * 3, b"abcd"]),
        FrameRecord(7, (-3.0e38, 2.0**-20), np.array([True, False, True]),
                    [b"", bytes(range(200)) + b"xyz",
                     b"\x00" + b"\x80" * 130 + b"\x7f"]),
    ]


_OTHER_CONFIG = SequenceConfig(
    grid_dim=1024, target_cluster_size=300, gop_size=4, qstep=0.5)


# sha256 of the stream of _fixed_frames() under each config, recorded
# for stream version 11 (version 10's bytes but for the version byte),
# whose frame records end their fixed part with two float32
# reconstruction projections.  Any change to the layout, the
# version byte or a field's packing changes them.
@pytest.mark.parametrize("config, digest", [
    (SequenceConfig(),
     "aa503dd8d5c1196679ff49415c2101d4c07868a29435cb61913a3d2556d72807"),
    (_OTHER_CONFIG,
     "ca6c70888f3d1b213ffb8a6380dad06e339bd12f0e8f137ea154706646391d22")],
    ids=["default", "other"])
def test_golden_stream_digests(config, digest):
    data = write_bitstream(config, _fixed_frames())
    assert len(data) == 419
    assert hashlib.sha256(data).hexdigest() == digest
    parsed_config, parsed = read_bitstream(data)
    assert write_bitstream(parsed_config, parsed) == data


def _doubled(config):
    """`config` with every field set to twice its value."""
    return SequenceConfig(**{f.name: 2 * getattr(config, f.name)
                             for f in dataclasses.fields(config)})


def test_header_carries_every_field():
    """Every SequenceConfig field is coded in the stream header."""
    frames = synthetic_sequence("wave", 1, point_count=100, seed=0)
    config = _doubled(SequenceConfig(grid_dim=64))
    header, _ = read_bitstream(codec.encode_sequence(frames, config).data)
    assert header == config
    for f in dataclasses.fields(config):
        assert getattr(header, f.name) != f.default, f.name


def test_gop_decides_which_frames_carry_flags():
    """7 frames at GOP 3: frames 0, 3 and 6 are I-frames with no mode
    flags; every other frame has one flag per cluster."""
    frames = synthetic_sequence("rigid-motion", 7, point_count=300, seed=3)
    result = codec.encode_sequence(frames, SequenceConfig(
        grid_dim=64, target_cluster_size=100, gop_size=3))
    _, records = read_bitstream(result.data)
    assert [s.frame_type for s in result.stats] == list("IPPIPPI")
    for t, record in enumerate(records):
        expected = 0 if t % 3 == 0 else record.cluster_count
        assert record.cluster_count > 1
        assert record.inter_flags.shape == (expected,), t


def test_one_payload_per_cluster_on_one_context_set_per_frame():
    """The layout since version 5: each cluster's payload is one block of
    3 * |cluster| indices, and a frame's blocks are coded in cluster order
    on one context set.  Decoding them so and re-encoding each block on a
    second fresh context chain gives every payload back byte for byte."""
    frames = synthetic_sequence("rigid-motion", 3, point_count=600, seed=2)
    config = SequenceConfig(grid_dim=64, target_cluster_size=150)
    data = codec.encode_sequence(frames, config).data
    _, records = read_bitstream(data)
    box = sequence_bounding_box(frames[0])
    assert any(record.inter_flags.any() for record in records)
    for raw, record in zip(frames, records):
        partition = kmeans_geometry(voxelize(raw, config.grid_dim, box),
                                    config.target_cluster_size)
        assert record.cluster_count == partition.k > 1
        decoding, encoding = ContextSet(), ContextSet()
        for cid, payload in enumerate(record.clusters):
            assert isinstance(payload, bytes)
            count = 3 * partition.members(cid).size
            indices = decode_block(payload, count, decoding)
            assert encode_block(indices, encoding) == payload


@pytest.mark.parametrize("t, count", [(0, 2), (1, 0), (1, 2)])
def test_flags_must_match_gop_position(t, count):
    """An I-frame carries no mode flags and a P-frame one per cluster;
    the reader would misparse a record that breaks this."""
    frames = _fixed_frames()
    frames[t].inter_flags = np.ones(count, dtype=bool)
    with pytest.raises(ValueError, match=f"frame {t} has {count} mode flags"):
        write_bitstream(SequenceConfig(), frames)


def test_empty_sequence_header_only():
    data = write_bitstream(SequenceConfig(), [])
    config, frames = read_bitstream(data)
    assert frames == []
    assert config == SequenceConfig()


def test_zero_frame_stream_does_not_decode():
    data = write_bitstream(SequenceConfig(), [])
    with pytest.raises(BitstreamError, match="no frames"):
        codec.decode_sequence(data, [])


def test_single_iframe_no_mode_flags():
    clusters = [b"abc" for _ in range(2)]
    frame = FrameRecord(geometry_hash=1, recon_projections=(2.0, 3.0),
                        inter_flags=np.zeros(0, dtype=bool), clusters=clusters)
    _, frames = read_bitstream(write_bitstream(SequenceConfig(), [frame]))
    assert frames[0].cluster_count == 2
    assert frames[0].inter_flags.size == 0
    assert frames[0].clusters[0] == b"abc"
    assert frames[0].recon_projections == (2.0, 3.0)


def test_byte_identical_reserialization():
    rng = np.random.default_rng(0)
    frames = _random_frames(rng, 16)
    data = write_bitstream(SequenceConfig(), frames)
    config, parsed = read_bitstream(data)
    assert len(parsed) == 16
    again = write_bitstream(config, parsed)
    assert again == data


def test_mode_flags_roundtrip():
    rng = np.random.default_rng(1)
    frames = _random_frames(rng, 4)
    _, parsed = read_bitstream(write_bitstream(SequenceConfig(), frames))
    for orig, back in zip(frames, parsed):
        assert np.array_equal(orig.inter_flags, back.inter_flags)


def test_bad_magic():
    data = write_bitstream(SequenceConfig(), [])
    with pytest.raises(BitstreamError, match="magic"):
        read_bitstream(b"XXXX" + data[4:])


def test_version_mismatch():
    data = bytearray(write_bitstream(SequenceConfig(), []))
    data[4] = 99
    with pytest.raises(BitstreamError, match="version"):
        read_bitstream(bytes(data))


def test_previous_version_refused():
    data = bytearray(write_bitstream(SequenceConfig(), []))
    for version in range(1, 11):
        data[4] = version
        with pytest.raises(BitstreamError,
                           match=f"unsupported stream version {version}$"):
            read_bitstream(bytes(data))


def test_header_field_width_checked():
    with pytest.raises(ValueError, match="gop_size"):
        SequenceConfig(gop_size=1 << 16)


def test_grid_dim_fits_int32():
    """Voxel coordinates are int32, so a grid_dim of 2**31 or more is
    refused by the config and in a stream header."""
    with pytest.raises(ValueError, match="^grid_dim=2147483648 does not fit "
                                         "the stream header's int32 field$"):
        SequenceConfig(grid_dim=2**31)
    data = bytearray(write_bitstream(SequenceConfig(grid_dim=2**31 - 1), []))
    assert read_bitstream(bytes(data))[0].grid_dim == 2**31 - 1
    data[5:9] = (2**31).to_bytes(4, "little")  # after magic and version
    with pytest.raises(BitstreamError,
                       match="^invalid stream header: grid_dim="):
        read_bitstream(bytes(data))


def test_truncation():
    rng = np.random.default_rng(2)
    frames = _random_frames(rng, 3)
    data = write_bitstream(SequenceConfig(), frames)
    with pytest.raises(BitstreamError, match="truncated"):
        read_bitstream(data[: len(data) - 5])


def test_trailing_garbage():
    data = write_bitstream(SequenceConfig(), [])
    with pytest.raises(BitstreamError, match="trailing"):
        read_bitstream(data + b"\x00")
