"""Bit-exact serialized representation of a coded sequence.

Geometry travels out of band (the original PLY files); the stream holds
only the header parameters, per-frame geometry/reconstruction hashes,
per-cluster mode flags (P-frames) and the entropy-coded payloads.  All
fixed-width fields are little-endian; payload lengths use LEB128.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"PGFT"
# 2: inter clusters reconstruct through the spectral predictor and the
# residual basis of L (not L + I); a version 1 stream would not decode.
VERSION = 2

FRAME_I = 0
FRAME_P = 1

_HEADER = struct.Struct("<4sBIdHIddHdI")
# Bit width of each unsigned integer field in _HEADER.
_HEADER_UINT_BITS = {"grid_dim": 32, "gop_size": 16,
                     "target_cluster_size": 32, "normal_k": 16,
                     "frame_count": 32}
_FRAME_FIXED = struct.Struct("<BIQQ")


class BitstreamError(Exception):
    """Malformed, truncated, or inconsistent bitstream."""


@dataclass(frozen=True)
class StreamHeader:
    grid_dim: int
    qstep: float
    gop_size: int
    target_cluster_size: int
    epsilon_sq: float
    sigma_sq: float
    normal_k: int
    box_expand: float
    frame_count: int


@dataclass(frozen=True)
class ClusterRecord:
    payloads: tuple  # (bytes, bytes, bytes) for Y, U, V


@dataclass
class FrameRecord:
    frame_type: int              # FRAME_I or FRAME_P
    geometry_hash: int
    recon_checksum: int
    inter_flags: np.ndarray      # (k,) bool; empty for I-frames
    clusters: list = field(default_factory=list)

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
    for cluster in frame.clusters:
        for payload in cluster.payloads:
            _write_varint(out, len(payload))
            out += payload
    return bytes(out)


def check_header(header: StreamHeader):
    """Raise ValueError naming the first integer field of `header` that
    does not fit its fixed-width slot in the stream header."""
    for name, bits in _HEADER_UINT_BITS.items():
        value = getattr(header, name)
        if not (isinstance(value, numbers.Integral) and 0 <= value < 1 << bits):
            raise ValueError(f"{name}={value!r} does not fit the stream "
                             f"header's uint{bits} field")


def write_bitstream(header: StreamHeader, frames) -> bytes:
    """Serialize frame records, each holding its clusters in canonical
    cluster order."""
    check_header(header)
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, header.grid_dim, header.qstep,
                        header.gop_size, header.target_cluster_size,
                        header.epsilon_sq, header.sigma_sq, header.normal_k,
                        header.box_expand, header.frame_count)
    for frame in frames:
        out += frame_record_bytes(frame)
    return bytes(out)


def read_bitstream(data: bytes):
    """Parse a stream back into (StreamHeader, [FrameRecord])."""
    if len(data) < _HEADER.size:
        raise BitstreamError("truncated stream (header)")
    (magic, version, grid_dim, qstep, gop_size, target, eps_sq, sigma_sq,
     normal_k, box_expand, frame_count) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BitstreamError("bad magic; not a PGFT stream")
    if version != VERSION:
        raise BitstreamError(f"unsupported stream version {version}")
    header = StreamHeader(grid_dim=grid_dim, qstep=qstep, gop_size=gop_size,
                          target_cluster_size=target, epsilon_sq=eps_sq,
                          sigma_sq=sigma_sq, normal_k=normal_k,
                          box_expand=box_expand, frame_count=frame_count)
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
            clusters.append(ClusterRecord(payloads=tuple(payloads)))
        frames.append(FrameRecord(frame_type=ftype, geometry_hash=geo_hash,
                                  recon_checksum=recon_sum, inter_flags=flags,
                                  clusters=clusters))
    if pos != len(data):
        raise BitstreamError("trailing bytes after last frame")
    return header, frames
