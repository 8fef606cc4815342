import dataclasses

import numpy as np
import pytest

from pgft.bitstream import (BitstreamError, ClusterRecord, FrameRecord,
                            StreamHeader, FRAME_I, FRAME_P, read_bitstream,
                            write_bitstream)


def _header(frame_count):
    return StreamHeader(grid_dim=4096, qstep=8.0, gop_size=8,
                        target_cluster_size=600, epsilon_sq=50.0,
                        sigma_sq=0.4, normal_k=15, box_expand=3.0,
                        frame_count=frame_count)


def _random_frames(rng, count):
    frames = []
    for t in range(count):
        k = int(rng.integers(1, 5))
        is_p = t % 2 == 1
        clusters = [ClusterRecord(payloads=tuple(
            bytes(rng.integers(0, 256, size=rng.integers(0, 60), dtype=np.uint8))
            for _ in range(3))) for _ in range(k)]
        frames.append(FrameRecord(
            frame_type=FRAME_P if is_p else FRAME_I,
            geometry_hash=int(rng.integers(0, 2**63)),
            recon_checksum=int(rng.integers(0, 2**63)),
            inter_flags=rng.integers(0, 2, size=k).astype(bool) if is_p
            else np.zeros(0, dtype=bool),
            clusters=clusters))
    return frames


def test_empty_sequence_header_only():
    data = write_bitstream(_header(0), [])
    header, frames = read_bitstream(data)
    assert header.frame_count == 0
    assert frames == []
    assert header.qstep == 8.0


def test_single_iframe_no_mode_flags():
    clusters = [ClusterRecord(payloads=(b"ab", b"", b"c")) for _ in range(2)]
    frame = FrameRecord(frame_type=FRAME_I, geometry_hash=1, recon_checksum=2,
                        inter_flags=np.zeros(0, dtype=bool), clusters=clusters)
    header, frames = read_bitstream(write_bitstream(_header(1), [frame]))
    assert frames[0].cluster_count == 2
    assert frames[0].inter_flags.size == 0
    assert frames[0].clusters[0].payloads == (b"ab", b"", b"c")


def test_byte_identical_reserialization():
    rng = np.random.default_rng(0)
    frames = _random_frames(rng, 16)
    data = write_bitstream(_header(16), frames)
    header, parsed = read_bitstream(data)
    again = write_bitstream(header, parsed)
    assert again == data


def test_mode_flags_roundtrip():
    rng = np.random.default_rng(1)
    frames = _random_frames(rng, 4)
    _, parsed = read_bitstream(write_bitstream(_header(4), frames))
    for orig, back in zip(frames, parsed):
        assert np.array_equal(orig.inter_flags, back.inter_flags)


def test_bad_magic():
    data = write_bitstream(_header(0), [])
    with pytest.raises(BitstreamError, match="magic"):
        read_bitstream(b"XXXX" + data[4:])


def test_version_mismatch():
    data = bytearray(write_bitstream(_header(0), []))
    data[4] = 99
    with pytest.raises(BitstreamError, match="version"):
        read_bitstream(bytes(data))


def test_previous_version_refused():
    data = bytearray(write_bitstream(_header(0), []))
    data[4] = 1
    with pytest.raises(BitstreamError, match="unsupported stream version 1$"):
        read_bitstream(bytes(data))


def test_header_field_width_checked():
    header = dataclasses.replace(_header(0), gop_size=1 << 16)
    with pytest.raises(ValueError, match="gop_size"):
        write_bitstream(header, [])


def test_truncation():
    rng = np.random.default_rng(2)
    frames = _random_frames(rng, 3)
    data = write_bitstream(_header(3), frames)
    with pytest.raises(BitstreamError, match="truncated"):
        read_bitstream(data[: len(data) - 5])


def test_trailing_garbage():
    data = write_bitstream(_header(0), [])
    with pytest.raises(BitstreamError, match="trailing"):
        read_bitstream(data + b"\x00")
