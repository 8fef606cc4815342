"""Uniform quantization and adaptive binary arithmetic coding.

Coefficient indices are binarized as an exponential-Golomb magnitude
(the prefix doubles as a unary length code) plus a sign bit.  Prefix
bins use adaptive per-depth contexts; suffix and sign bins are coded as
bypass (fixed half probability).  A context is a `[zeros, ones]` count
pair, and a bin's probability of 0 is zeros / (zeros + ones).

A block is one cluster's coefficients in the order of its
eigenvalue-ascending basis, CHANNELS indices (Y, U, V) per coefficient,
so the index at position p belongs to the coefficient of rank
i = p // CHANNELS.  A coefficient's variance falls as its graph
frequency rises, and the frequency rises with the rank, so each rank
bucket b = floor(log2(i + 1)) adapts its own prefix contexts; Y, U and
V of one coefficient share them.

The coder is two functions, `encode_block` and `decode_block`.  Each
keeps the classic integer low/high range state (with underflow-bit
carry) in local ints and runs the one binarization, `_binarize`, over
its own per-bin step: the encoder's step codes the bin it is given, the
decoder's step reads it from the payload.
"""

from __future__ import annotations

import numpy as np

STATE_SIZE = 32
_MASK = (1 << STATE_SIZE) - 1
_HALF_MASK = _MASK >> 1
_TOP = 1 << (STATE_SIZE - 1)
_SECOND = _TOP >> 1

CHANNELS = 3               # indices per coefficient in a block: Y, U, V

_CONTEXT_CAP = 1 << 12     # halve counts past this total to stay adaptive
_NUM_PREFIX_CONTEXTS = 16
_NUM_RANK_BUCKETS = 16     # ranks from 2^15 - 1 up share the last bucket
_MAX_MAGNITUDE_BITS = 62   # int64 indices; longer prefixes mean corruption
# The largest |index| the prefix can spell: index + 1 < 2^(bits + 1).
_MAX_INDEX = (1 << (_MAX_MAGNITUDE_BITS + 1)) - 2
# A healthy decode reads at most ~STATE_SIZE bits past the payload (the
# encoder flushes minimally); anything beyond that is a truncated stream.
_PHANTOM_LIMIT = 2 * STATE_SIZE


class EndOfStreamError(Exception):
    """Raised when a decoder runs past the end of its payload or stops
    short of it."""


class ContextSet:
    """Adaptive contexts of one frame, shared by all its clusters and by
    Y, U and V alike: `prefix[b][depth]` is the `[zeros, ones]` count
    pair of one prefix depth in rank bucket b."""

    def __init__(self, prefix=None):
        self.prefix = prefix or [[[1, 1] for _ in range(_NUM_PREFIX_CONTEXTS)]
                                 for _ in range(_NUM_RANK_BUCKETS)]

    def copy(self) -> "ContextSet":
        return ContextSet([[pair[:] for pair in bucket]
                           for bucket in self.prefix])

    def spans(self, count: int):
        """Yield (prefix, start, stop) over a block of `count` indices:
        the positions [start, stop) hold the ranks 2^b - 1 to 2^(b+1) - 2
        of bucket b (the last bucket also every higher rank), and
        `prefix` is that bucket's contexts."""
        for b, prefix in enumerate(self.prefix):
            start = CHANNELS * ((1 << b) - 1)
            if start >= count:
                return
            stop = (count if b == _NUM_RANK_BUCKETS - 1
                    else min(count, CHANNELS * ((2 << b) - 1)))
            yield prefix, start, stop


def _binarize(code_bin, prefix, value: int = 0) -> int:
    """Code one index as bins through `code_bin(zeros, ones, bit) -> bit`,
    which codes a bin whose probability of 0 is zeros / (zeros + ones).
    The encoder passes the index and its step returns the bit it is
    given; the decoder's step ignores `bit` and returns the bit it reads.
    Prefix contexts are updated here; bypass bins are coded as (1, 1).
    Returns the index the bins spell."""
    magnitude = -value if value < 0 else value
    x = magnitude + 1
    last = x.bit_length() - 1
    depth = 0
    while True:
        pair = prefix[min(depth, _NUM_PREFIX_CONTEXTS - 1)]
        bit = code_bin(pair[0], pair[1], depth == last)
        pair[bit] += 1
        if pair[0] + pair[1] >= _CONTEXT_CAP:
            pair[0] = (pair[0] + 1) >> 1
            pair[1] = (pair[1] + 1) >> 1
        if bit:
            break
        depth += 1
        if depth > _MAX_MAGNITUDE_BITS:
            raise EndOfStreamError("unexpected end of stream")
    coded = 1
    for i in range(depth - 1, -1, -1):
        coded = (coded << 1) | code_bin(1, 1, (x >> i) & 1)
    magnitude = coded - 1
    if magnitude and code_bin(1, 1, value < 0):
        return -magnitude
    return magnitude


def encode_block(indices, contexts: ContextSet) -> bytes:
    """Code one integer block into a standalone payload; contexts are
    updated in place (they persist across the blocks of a frame).
    Raises ValueError on an index whose magnitude exceeds `_MAX_INDEX`."""
    values = np.asarray(indices, dtype=np.int64)
    if values.size and (values.max() > _MAX_INDEX or values.min() < -_MAX_INDEX):
        raise ValueError(f"cannot code an index of magnitude above {_MAX_INDEX}")
    values = values.tolist()
    if not values:
        return b""
    bits = []
    low, high, pending = 0, _MASK, 0

    def code_bin(zeros, ones, bit):
        nonlocal low, high, pending
        split = low + (high - low + 1) * zeros // (zeros + ones)
        if bit:
            low = split
        else:
            high = split - 1
        while not (low ^ high) & _TOP:
            top = low >> (STATE_SIZE - 1)
            bits.append(top)
            if pending:
                bits.extend([top ^ 1] * pending)
                pending = 0
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
        while low & ~high & _SECOND:
            pending += 1
            low = (low << 1) & _HALF_MASK
            high = ((high << 1) & _HALF_MASK) | _TOP | 1
        return bit

    for prefix, start, stop in contexts.spans(len(values)):
        for v in values[start:stop]:
            _binarize(code_bin, prefix, v)
    bits.append(1)  # disambiguates; the decoder reads missing bits as 0
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


def decode_block(payload: bytes, count: int, contexts: ContextSet) -> np.ndarray:
    """Inverse of encode_block for a known symbol count.  A valid block
    leaves the reader at least STATE_SIZE - 8 bits past its payload's end
    (STATE_SIZE - 1 bits of lookahead past the stop bit, less up to 7 pad
    bits); a reader that stops short raises EndOfStreamError."""
    if count == 0:
        if payload:
            raise EndOfStreamError("payload longer than its block")
        return np.empty(0, dtype=np.int64)
    # Bits past the payload read as zeros; reading more than
    # _PHANTOM_LIMIT of them (bits[pos] raising IndexError) means the
    # payload was truncated.
    bits = (np.unpackbits(np.frombuffer(payload, dtype=np.uint8)).tolist()
            + [0] * _PHANTOM_LIMIT)
    low, high, pos = 0, _MASK, STATE_SIZE
    code = int("".join(map(str, bits[:STATE_SIZE])), 2)

    def code_bin(zeros, ones, _):
        nonlocal low, high, code, pos
        split = low + (high - low + 1) * zeros // (zeros + ones)
        if code >= split:
            bit = 1
            low = split
        else:
            bit = 0
            high = split - 1
        while not (low ^ high) & _TOP:
            code = ((code << 1) & _MASK) | bits[pos]
            pos += 1
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
        while low & ~high & _SECOND:
            code = (code & _TOP) | ((code << 1) & _HALF_MASK) | bits[pos]
            pos += 1
            low = (low << 1) & _HALF_MASK
            high = ((high << 1) & _HALF_MASK) | _TOP | 1
        return bit

    out = np.empty(count, dtype=np.int64)
    try:
        for prefix, start, stop in contexts.spans(count):
            for i in range(start, stop):
                out[i] = _binarize(code_bin, prefix)
    except IndexError:
        raise EndOfStreamError("unexpected end of stream") from None
    if pos < 8 * len(payload) + STATE_SIZE - 8:
        raise EndOfStreamError("payload longer than its block")
    return out


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def quantize(coeffs, qstep: float) -> np.ndarray:
    """Uniform quantization, rounding half away from zero; int64 indices
    of the same shape as `coeffs`.  Raises ValueError naming qstep when an
    index would not fit int64."""
    if qstep <= 0:
        raise ValueError("qstep must be positive")
    c = np.asarray(coeffs, dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite magnitude is refused below
        magnitude = np.floor(np.abs(c) / qstep + 0.5)
    if magnitude.max(initial=0.0) >= 2.0 ** 63:
        raise ValueError(f"qstep={qstep!r} is too small: a quantization index "
                         "would not fit int64")
    return (np.sign(c) * magnitude).astype(np.int64)


def dequantize(indices, qstep: float) -> np.ndarray:
    return np.asarray(indices).astype(np.float64) * qstep
