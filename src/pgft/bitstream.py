"""Bit-exact serialized representation of a coded sequence.

Geometry travels out of band (the original PLY files); the stream holds
only the header, per-frame geometry/reconstruction hashes, per-cluster
mode flags (P-frames) and the entropy-coded payloads.  The header is a
`SequenceConfig`: every field the decoder needs, in `_HEADER_FIELDS`
order, followed by the frame count; the encoder-only `lambda_alpha` and
`lambda_beta` are not coded.  All fixed-width fields are little-endian;
payload lengths use LEB128.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from .pointcloud import SequenceConfig

MAGIC = b"PGFT"
# 2: inter clusters reconstruct through the spectral predictor and the
# residual basis of L (not L + I); a version 1 stream would not decode.
VERSION = 2

FRAME_I = 0
FRAME_P = 1

# (SequenceConfig field, struct code) of each coded parameter, in stream
# order.  The header is magic, version, these fields, then the frame count.
_HEADER_FIELDS = (("grid_dim", "I"), ("qstep", "d"), ("gop_size", "H"),
                  ("target_cluster_size", "I"), ("epsilon_sq", "d"),
                  ("sigma_sq", "d"), ("normal_k", "H"), ("box_expand", "d"))
_HEADER = struct.Struct("<4sB" + "".join(code for _, code in _HEADER_FIELDS)
                        + "I")
_FRAME_FIXED = struct.Struct("<BIQQ")


class BitstreamError(Exception):
    """Malformed, truncated, or inconsistent bitstream."""


@dataclass
class FrameRecord:
    frame_type: int              # FRAME_I or FRAME_P
    geometry_hash: int
    recon_checksum: int
    inter_flags: np.ndarray      # (k,) bool; empty for I-frames
    clusters: list = field(default_factory=list)  # (Y, U, V) payload bytes

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


def _write_varint(out: bytearray, value: int):
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int):
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise BitstreamError("truncated stream (varint)")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise BitstreamError("varint too long")


def _pack_flags(flags: np.ndarray) -> bytes:
    return np.packbits(flags.astype(np.uint8)).tobytes()


def _unpack_flags(data: bytes, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
    return bits.astype(bool)


def frame_record_bytes(frame: FrameRecord) -> bytes:
    """Serialize one frame record (also the unit of per-frame rate stats)."""
    out = bytearray()
    out += _FRAME_FIXED.pack(frame.frame_type, frame.cluster_count,
                             frame.geometry_hash, frame.recon_checksum)
    if frame.frame_type == FRAME_P:
        out += _pack_flags(np.asarray(frame.inter_flags, dtype=bool))
    for payloads in frame.clusters:
        for payload in payloads:
            _write_varint(out, len(payload))
            out += payload
    return bytes(out)


def check_header(config: SequenceConfig):
    """Raise ValueError naming the first integer field of `config` that
    does not fit its fixed-width slot in the stream header."""
    for name, code in _HEADER_FIELDS:
        value, bits = getattr(config, name), 8 * struct.calcsize(code)
        if code != "d" and not (isinstance(value, numbers.Integral)
                                and 0 <= value < 1 << bits):
            raise ValueError(f"{name}={value!r} does not fit the stream "
                             f"header's uint{bits} field")


def write_bitstream(config: SequenceConfig, frames) -> bytes:
    """Serialize the header of `config` and the frame records, each
    holding its clusters in canonical cluster order."""
    check_header(config)
    out = bytearray(_HEADER.pack(
        MAGIC, VERSION, *(getattr(config, name) for name, _ in _HEADER_FIELDS),
        len(frames)))
    for frame in frames:
        out += frame_record_bytes(frame)
    return bytes(out)


def read_bitstream(data: bytes):
    """Parse a stream back into (SequenceConfig, [FrameRecord]).  The
    config carries the coded fields and the default `lambda_*`."""
    if len(data) < _HEADER.size:
        raise BitstreamError("truncated stream (header)")
    magic, version, *values, frame_count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BitstreamError("bad magic; not a PGFT stream")
    if version != VERSION:
        raise BitstreamError(f"unsupported stream version {version}")
    config = SequenceConfig(**{name: value for (name, _), value
                               in zip(_HEADER_FIELDS, values)})
    try:
        config.validate()
    except ValueError as exc:
        raise BitstreamError(f"invalid stream header: {exc}") from exc
    pos = _HEADER.size
    frames = []
    for _ in range(frame_count):
        if pos + _FRAME_FIXED.size > len(data):
            raise BitstreamError("truncated stream (frame record)")
        ftype, k, geo_hash, recon_sum = _FRAME_FIXED.unpack_from(data, pos)
        pos += _FRAME_FIXED.size
        if ftype not in (FRAME_I, FRAME_P):
            raise BitstreamError(f"unknown frame type {ftype}")
        if ftype == FRAME_P:
            nbytes = (k + 7) // 8
            if pos + nbytes > len(data):
                raise BitstreamError("truncated stream (mode flags)")
            flags = _unpack_flags(data[pos:pos + nbytes], k)
            pos += nbytes
        else:
            flags = np.zeros(0, dtype=bool)
        clusters = []
        for _ in range(k):
            payloads = []
            for _ in range(3):
                length, pos = _read_varint(data, pos)
                if pos + length > len(data):
                    raise BitstreamError("truncated stream (payload)")
                payloads.append(data[pos:pos + length])
                pos += length
            clusters.append(tuple(payloads))
        frames.append(FrameRecord(frame_type=ftype, geometry_hash=geo_hash,
                                  recon_checksum=recon_sum, inter_flags=flags,
                                  clusters=clusters))
    if pos != len(data):
        raise BitstreamError("trailing bytes after last frame")
    return config, frames
