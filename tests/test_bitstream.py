import dataclasses
import hashlib

import numpy as np
import pytest

from pgft import codec
from pgft.bitstream import (BitstreamError, FrameRecord, FRAME_I, FRAME_P,
                            read_bitstream, write_bitstream)
from pgft.pointcloud import SequenceConfig
from pgft.synth import synthetic_sequence


def _random_frames(rng, count):
    frames = []
    for t in range(count):
        k = int(rng.integers(1, 5))
        is_p = t % 2 == 1
        clusters = [tuple(
            bytes(rng.integers(0, 256, size=rng.integers(0, 60), dtype=np.uint8))
            for _ in range(3)) for _ in range(k)]
        frames.append(FrameRecord(
            frame_type=FRAME_P if is_p else FRAME_I,
            geometry_hash=int(rng.integers(0, 2**63)),
            recon_checksum=int(rng.integers(0, 2**63)),
            inter_flags=rng.integers(0, 2, size=k).astype(bool) if is_p
            else np.zeros(0, dtype=bool),
            clusters=clusters))
    return frames


def _fixed_frames():
    return [
        FrameRecord(FRAME_I, 0x0123456789ABCDEF, 0xFEDCBA9876543210,
                    np.zeros(0, dtype=bool),
                    [(b"\x01\x02", b"", b"\xff" * 3), (b"abc", b"d", b"")]),
        FrameRecord(FRAME_P, 7, 2**64 - 1, np.array([True, False, True]),
                    [(b"", b"", b""), (bytes(range(200)), b"x", b"yz"),
                     (b"\x00", b"\x80" * 130, b"\x7f")]),
    ]


_OTHER_CONFIG = SequenceConfig(
    grid_dim=1024, target_cluster_size=300, epsilon_sq=300.0, sigma_sq=0.25,
    normal_k=10, box_expand=2.5, gop_size=4, qstep=0.5, lambda_alpha=1.0,
    lambda_beta=2.0)


# sha256 of the stream of _fixed_frames() under each config, recorded
# before the header became a SequenceConfig: the layout is unchanged.
@pytest.mark.parametrize("config, digest", [
    (SequenceConfig(),
     "a060366ce4c7166168b7abdc68339e53a6df144b88699f4dad9f7c76e095f2af"),
    (_OTHER_CONFIG,
     "f147dbe0997be7db4ae7329c283f653abd427034ca0610379a27949aea0c780c")])
def test_golden_stream_digests(config, digest):
    data = write_bitstream(config, _fixed_frames())
    assert len(data) == 457
    assert hashlib.sha256(data).hexdigest() == digest
    parsed_config, parsed = read_bitstream(data)
    assert write_bitstream(parsed_config, parsed) == data


def _doubled(config):
    """`config` with every field set to twice its value."""
    return SequenceConfig(**{f.name: 2 * getattr(config, f.name)
                             for f in dataclasses.fields(config)})


def test_header_carries_every_field_but_lambda():
    """Every SequenceConfig field is coded in the stream header except the
    encoder-only lambda_alpha and lambda_beta, which decode to their
    defaults."""
    frames = synthetic_sequence("wave", 1, point_count=100, seed=0)
    config = _doubled(SequenceConfig(grid_dim=64))
    header, _ = read_bitstream(codec.encode_sequence(frames, config).data)
    encoder_only = {"lambda_alpha", "lambda_beta"}
    for f in dataclasses.fields(config):
        value = getattr(header, f.name, f.default)
        if f.name in encoder_only:
            assert value == f.default
        else:
            assert value == getattr(config, f.name) != f.default, f.name


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
    clusters = [(b"ab", b"", b"c") for _ in range(2)]
    frame = FrameRecord(frame_type=FRAME_I, geometry_hash=1, recon_checksum=2,
                        inter_flags=np.zeros(0, dtype=bool), clusters=clusters)
    _, frames = read_bitstream(write_bitstream(SequenceConfig(), [frame]))
    assert frames[0].cluster_count == 2
    assert frames[0].inter_flags.size == 0
    assert frames[0].clusters[0] == (b"ab", b"", b"c")


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
    data[4] = 1
    with pytest.raises(BitstreamError, match="unsupported stream version 1$"):
        read_bitstream(bytes(data))


def test_header_field_width_checked():
    config = SequenceConfig(gop_size=1 << 16)
    with pytest.raises(ValueError, match="gop_size"):
        write_bitstream(config, [])


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
