"""Uniform quantization and adaptive binary arithmetic coding.

Coefficient indices are binarized as an exponential-Golomb magnitude
(the prefix doubles as a unary length code) plus a sign bit.  Prefix
bins use adaptive per-depth contexts; suffix and sign bins are coded as
bypass (fixed half probability).  The range coder follows the classic
integer low/high scheme with underflow-bit carry.
"""

from __future__ import annotations

import numpy as np

STATE_SIZE = 32
_FULL = 1 << STATE_SIZE
_MASK = _FULL - 1
_TOP = _FULL >> 1
_SECOND = _FULL >> 2
_MIN_RANGE = (_FULL >> 2) + 2

_CONTEXT_CAP = 1 << 12     # halve counts past this total to stay adaptive
_NUM_PREFIX_CONTEXTS = 16
_MAX_MAGNITUDE_BITS = 62   # int64 indices; longer prefixes mean corruption
# A healthy decode reads at most ~STATE_SIZE bits past the payload (the
# encoder flushes minimally); anything beyond that is a truncated stream.
_PHANTOM_LIMIT = 2 * STATE_SIZE


class EndOfStreamError(Exception):
    """Raised when a decoder runs past the end of its payload."""


class _BitWriter:
    def __init__(self):
        self._bytes = bytearray()
        self._current = 0
        self._filled = 0
        self.bit_count = 0

    def write(self, bit: int):
        self._current = (self._current << 1) | bit
        self._filled += 1
        self.bit_count += 1
        if self._filled == 8:
            self._bytes.append(self._current)
            self._current = 0
            self._filled = 0

    def getvalue(self) -> bytes:
        out = bytearray(self._bytes)
        if self._filled:
            out.append(self._current << (8 - self._filled))
        return bytes(out)


class _BitReader:
    """MSB-first bit reader allowing a bounded number of phantom zero
    bits past the end (the encoder's final flush is minimal)."""

    def __init__(self, data: bytes, phantom_limit: int = _PHANTOM_LIMIT):
        self._data = data
        self._pos = 0
        self._current = 0
        self._remaining = 0
        self._phantom = 0
        self._phantom_limit = phantom_limit

    def read(self) -> int:
        if self._remaining == 0:
            if self._pos < len(self._data):
                self._current = self._data[self._pos]
                self._pos += 1
                self._remaining = 8
            else:
                self._phantom += 1
                if self._phantom > self._phantom_limit:
                    raise EndOfStreamError("unexpected end of stream")
                return 0
        self._remaining -= 1
        return (self._current >> self._remaining) & 1


class AdaptiveBit:
    """Binary probability model: counts of observed zeros and ones."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: int = 1, c1: int = 1):
        self.c0 = c0
        self.c1 = c1

    def update(self, bit: int):
        if bit:
            self.c1 += 1
        else:
            self.c0 += 1
        if self.c0 + self.c1 >= _CONTEXT_CAP:
            self.c0 = (self.c0 + 1) >> 1
            self.c1 = (self.c1 + 1) >> 1

    def copy(self) -> "AdaptiveBit":
        return AdaptiveBit(self.c0, self.c1)


_BYPASS = AdaptiveBit()  # fixed (1, 1); never updated


class ContextSet:
    """Adaptive contexts for one coefficient channel."""

    def __init__(self, prefix=None):
        self.prefix = prefix or [AdaptiveBit() for _ in range(_NUM_PREFIX_CONTEXTS)]

    def copy(self) -> "ContextSet":
        return ContextSet([c.copy() for c in self.prefix])


class _CoderBase:
    def __init__(self):
        self.low = 0
        self.high = _MASK

    def _renormalize(self):
        while ((self.low ^ self.high) & _TOP) == 0:
            self._shift()
            self.low = (self.low << 1) & _MASK
            self.high = ((self.high << 1) & _MASK) | 1
        while (self.low & ~self.high & _SECOND) != 0:
            self._underflow()
            self.low = (self.low << 1) & (_MASK >> 1)
            self.high = ((self.high << 1) & (_MASK >> 1)) | _TOP | 1

    @staticmethod
    def _split(low: int, high: int, model: AdaptiveBit) -> int:
        # First value of the "1" region; the "0" region is [low, split-1].
        span = high - low + 1
        return low + span * model.c0 // (model.c0 + model.c1)


class BinaryArithmeticEncoder(_CoderBase):
    def __init__(self, writer: _BitWriter):
        super().__init__()
        self._writer = writer
        self._pending = 0

    def encode(self, model: AdaptiveBit, bit: int):
        split = self._split(self.low, self.high, model)
        if bit:
            self.low = split
        else:
            self.high = split - 1
        self._renormalize()
        if model is not _BYPASS:
            model.update(bit)

    def encode_bypass(self, bit: int):
        self.encode(_BYPASS, bit)

    def finish(self):
        # One disambiguating bit; the decoder treats missing trailing bits
        # as zeros.
        self._writer.write(1)

    def _shift(self):
        bit = self.low >> (STATE_SIZE - 1)
        self._writer.write(bit)
        for _ in range(self._pending):
            self._writer.write(bit ^ 1)
        self._pending = 0

    def _underflow(self):
        self._pending += 1


class BinaryArithmeticDecoder(_CoderBase):
    def __init__(self, reader: _BitReader):
        super().__init__()
        self._reader = reader
        self.code = 0
        for _ in range(STATE_SIZE):
            self.code = (self.code << 1) | self._reader.read()

    def decode(self, model: AdaptiveBit) -> int:
        split = self._split(self.low, self.high, model)
        if self.code >= split:
            bit = 1
            self.low = split
        else:
            bit = 0
            self.high = split - 1
        self._renormalize()
        if model is not _BYPASS:
            model.update(bit)
        return bit

    def decode_bypass(self) -> int:
        return self.decode(_BYPASS)

    def _shift(self):
        self.code = ((self.code << 1) & _MASK) | self._reader.read()

    def _underflow(self):
        self.code = ((self.code & _TOP) | ((self.code << 1) & (_MASK >> 1))
                     | self._reader.read())


def _encode_value(enc: BinaryArithmeticEncoder, ctx: ContextSet, value: int):
    magnitude = -value if value < 0 else value
    x = magnitude + 1
    nbits = x.bit_length()
    for depth in range(nbits - 1):
        enc.encode(ctx.prefix[min(depth, _NUM_PREFIX_CONTEXTS - 1)], 0)
    enc.encode(ctx.prefix[min(nbits - 1, _NUM_PREFIX_CONTEXTS - 1)], 1)
    for i in range(nbits - 2, -1, -1):
        enc.encode_bypass((x >> i) & 1)
    if magnitude:
        enc.encode_bypass(1 if value < 0 else 0)


def _decode_value(dec: BinaryArithmeticDecoder, ctx: ContextSet) -> int:
    depth = 0
    while dec.decode(ctx.prefix[min(depth, _NUM_PREFIX_CONTEXTS - 1)]) == 0:
        depth += 1
        if depth > _MAX_MAGNITUDE_BITS:
            raise EndOfStreamError("unexpected end of stream")
    x = 1
    for _ in range(depth):
        x = (x << 1) | dec.decode_bypass()
    magnitude = x - 1
    if magnitude and dec.decode_bypass():
        return -magnitude
    return magnitude


def encode_block(indices, contexts: ContextSet) -> bytes:
    """Code one integer block into a standalone payload; contexts are
    updated in place (they persist across the blocks of a frame)."""
    values = [int(v) for v in np.asarray(indices, dtype=np.int64)]
    if not values:
        return b""
    writer = _BitWriter()
    enc = BinaryArithmeticEncoder(writer)
    for v in values:
        _encode_value(enc, contexts, v)
    enc.finish()
    return writer.getvalue()


def decode_block(payload: bytes, count: int, contexts: ContextSet) -> np.ndarray:
    """Inverse of encode_block for a known symbol count."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    dec = BinaryArithmeticDecoder(_BitReader(payload))
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        out[i] = _decode_value(dec, contexts)
    return out


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def quantize(coeffs, qstep: float) -> np.ndarray:
    """Uniform quantization, rounding half away from zero; int64 indices
    of the same shape as `coeffs`."""
    if qstep <= 0:
        raise ValueError("qstep must be positive")
    c = np.asarray(coeffs, dtype=np.float64)
    return (np.sign(c) * np.floor(np.abs(c) / qstep + 0.5)).astype(np.int64)


def dequantize(indices, qstep: float) -> np.ndarray:
    return np.asarray(indices).astype(np.float64) * qstep
