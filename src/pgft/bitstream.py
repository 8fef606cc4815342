"""Bit-exact serialized representation of a coded sequence.

Geometry travels out of band (the original PLY files); the stream holds
only the header, per-frame geometry hashes and reconstruction
projections, per-cluster mode flags (P-frames) and one arithmetic-coded
payload per cluster (Y, U and V by coefficient; one context set per
frame, whose prefix and top-suffix contexts each coefficient's rank
bucket selects).  The header is magic, version, every `SequenceConfig`
field (grid_dim, target_cluster_size, gop_size, qstep) in field order,
each packed with the struct code its "header" metadata names, then the
frame count.  A frame record holds no type: frame t is a P-frame iff
`SequenceConfig.is_p_frame(t)`, and only a P-frame carries mode flags,
one per cluster.  All fixed-width fields are little-endian; payload
lengths use LEB128.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .pointcloud import SequenceConfig

MAGIC = b"PGFT"
# Version 11: each cluster's eigenbasis follows the probe rule of
# `transform._canonicalize`.  Since version 10 a frame record holds two
# float32 projections of its reconstruction, which a decoder matches
# within a drift tolerance (`codec.RECON_DRIFT`), so it decodes under any
# BLAS setting or CPU.
VERSION = 11

# (field name, struct code) of each SequenceConfig field, in order.
_HEADER_FIELDS = tuple((f.name, f.metadata["header"])
                       for f in fields(SequenceConfig))
_HEADER = struct.Struct("<4sB" + "".join(code for _, code in _HEADER_FIELDS)
                        + "I")
_FRAME_FIXED = struct.Struct("<IQ2f")


class BitstreamError(Exception):
    """Malformed, truncated, or inconsistent bitstream."""


@dataclass
class FrameRecord:
    geometry_hash: int
    recon_projections: tuple     # two floats, stored as float32
    inter_flags: np.ndarray      # (k,) bool; empty for I-frames
    clusters: list = field(default_factory=list)  # one payload (bytes) each

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


def frame_record_bytes(frame: FrameRecord) -> bytes:
    """Serialize one frame record (also the unit of per-frame rate stats)."""
    out = bytearray()
    out += _FRAME_FIXED.pack(frame.cluster_count, frame.geometry_hash,
                             *frame.recon_projections)
    out += np.packbits(np.asarray(frame.inter_flags, dtype=bool)).tobytes()
    for payload in frame.clusters:
        _write_varint(out, len(payload))
        out += payload
    return bytes(out)


def write_bitstream(config: SequenceConfig, frames) -> bytes:
    """Serialize the header of `config` and the frame records, each
    holding its clusters in canonical cluster order.  Raises ValueError
    on a record whose mode flags do not match its GOP position."""
    for t, frame in enumerate(frames):
        expected = frame.cluster_count if config.is_p_frame(t) else 0
        if len(frame.inter_flags) != expected:
            raise ValueError(f"frame {t} has {len(frame.inter_flags)} mode "
                             f"flags; its GOP position needs {expected}")
    out = bytearray(_HEADER.pack(
        MAGIC, VERSION, *(getattr(config, name) for name, _ in _HEADER_FIELDS),
        len(frames)))
    for frame in frames:
        out += frame_record_bytes(frame)
    return bytes(out)


def read_bitstream(data: bytes):
    """Parse a stream back into (SequenceConfig, [FrameRecord])."""
    if len(data) < _HEADER.size:
        raise BitstreamError("truncated stream (header)")
    magic, version, *values, frame_count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BitstreamError("bad magic; not a PGFT stream")
    if version != VERSION:
        raise BitstreamError(f"unsupported stream version {version}")
    try:
        config = SequenceConfig(**{name: value for (name, _), value
                                   in zip(_HEADER_FIELDS, values)})
    except ValueError as exc:
        raise BitstreamError(f"invalid stream header: {exc}") from exc
    pos = _HEADER.size
    frames = []
    for t in range(frame_count):
        if pos + _FRAME_FIXED.size > len(data):
            raise BitstreamError("truncated stream (frame record)")
        k, geo_hash, *projections = _FRAME_FIXED.unpack_from(data, pos)
        pos += _FRAME_FIXED.size
        if not np.all(np.isfinite(projections)):
            # codec's drift bound scales with |s|, so inf would pass it
            raise BitstreamError(f"frame {t} stores non-finite "
                                 "reconstruction projections")
        if config.is_p_frame(t):
            nbytes = (k + 7) // 8
            if pos + nbytes > len(data):
                raise BitstreamError("truncated stream (mode flags)")
            flags = np.unpackbits(np.frombuffer(data, np.uint8, nbytes, pos),
                                  count=k).astype(bool)
            pos += nbytes
        else:
            flags = np.zeros(0, dtype=bool)
        clusters = []
        for _ in range(k):
            length, pos = _read_varint(data, pos)
            if pos + length > len(data):
                raise BitstreamError("truncated stream (payload)")
            clusters.append(data[pos:pos + length])
            pos += length
        frames.append(FrameRecord(geometry_hash=geo_hash,
                                  recon_projections=tuple(projections),
                                  inter_flags=flags, clusters=clusters))
    if pos != len(data):
        raise BitstreamError("trailing bytes after last frame")
    return config, frames
