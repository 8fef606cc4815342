"""Uniform quantization and adaptive binary arithmetic coding.

Coefficient indices are binarized as an exponential-Golomb magnitude
(the prefix doubles as a unary length code) plus a sign bit.  Prefix
bins use adaptive per-depth contexts.  So does the top suffix bit of
each nonzero magnitude (the bin right after a prefix of d >= 1 zeros),
on a context per d: the indices of a Laplacian-like source are skewed
within each exp-Golomb class (|index| = 1 is far likelier than 2), so
that bin is far from even.  Lower suffix bins and the sign are coded as
bypass (fixed half probability).  A context is a `[zeros, ones]` count
pair, and a bin's probability of 0 is zeros / (zeros + ones); a fresh
`[1, 1]` pair codes like a bypass bin.

A block is one cluster's coefficients in the order of its
eigenvalue-ascending basis, CHANNELS indices (Y, U, V) per coefficient,
so the index at position p belongs to the coefficient of rank
i = p // CHANNELS.  A coefficient's variance falls as its graph
frequency rises, and the frequency rises with the rank, so each rank
bucket b = floor(log2(i + 1)) adapts its own prefix and suffix
contexts; Y, U and V of one coefficient share them.

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
_NUM_DEPTHS = 16           # prefix lengths from 15 up share their contexts
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
    Y, U and V alike, each a `[zeros, ones]` count pair: `prefix[b][depth]`
    codes one prefix depth in rank bucket b, and `suffix[b][min(d, 15)]`
    the top suffix bit after a prefix of length d >= 1 (`suffix[b][0]`
    is never read)."""

    def __init__(self, prefix=None, suffix=None):
        self.prefix = prefix or _fresh_pairs()
        self.suffix = suffix or _fresh_pairs()

    def copy(self) -> "ContextSet":
        prefix, suffix = ([[pair[:] for pair in bucket] for bucket in pairs]
                          for pairs in (self.prefix, self.suffix))
        return ContextSet(prefix, suffix)

    def spans(self, count: int):
        """Yield (prefix, suffix, start, stop) over a block of `count`
        indices: the positions [start, stop) hold the ranks 2^b - 1 to
        2^(b+1) - 2 of bucket b (the last bucket also every higher rank),
        and `prefix` and `suffix` are that bucket's contexts."""
        for b, (prefix, suffix) in enumerate(zip(self.prefix, self.suffix)):
            start = CHANNELS * ((1 << b) - 1)
            if start >= count:
                return
            stop = (count if b == _NUM_RANK_BUCKETS - 1
                    else min(count, CHANNELS * ((2 << b) - 1)))
            yield prefix, suffix, start, stop


def _fresh_pairs():
    return [[[1, 1] for _ in range(_NUM_DEPTHS)]
            for _ in range(_NUM_RANK_BUCKETS)]


def _count(pair, bit: int):
    """Count one coded bin on its context, halving past _CONTEXT_CAP."""
    pair[bit] += 1
    if pair[0] + pair[1] >= _CONTEXT_CAP:
        pair[0] = (pair[0] + 1) >> 1
        pair[1] = (pair[1] + 1) >> 1


def _binarize(code_bin, prefix, suffix, value: int = 0) -> int:
    """Code one index as bins through `code_bin(zeros, ones, bit) -> bit`,
    which codes a bin whose probability of 0 is zeros / (zeros + ones).
    The encoder passes the index and its step returns the bit it is
    given; the decoder's step ignores `bit` and returns the bit it reads.
    The prefix bins and the top suffix bit code on (and count on) their
    contexts; the lower suffix bits and the sign are bypass, coded as
    (1, 1).  Returns the index the bins spell."""
    magnitude = -value if value < 0 else value
    x = magnitude + 1
    last = x.bit_length() - 1
    depth = 0
    while True:
        pair = prefix[min(depth, _NUM_DEPTHS - 1)]
        bit = code_bin(pair[0], pair[1], depth == last)
        _count(pair, bit)
        if bit:
            break
        depth += 1
        if depth > _MAX_MAGNITUDE_BITS:
            raise EndOfStreamError("unexpected end of stream")
    if not depth:
        return 0
    pair = suffix[min(depth, _NUM_DEPTHS - 1)]
    bit = code_bin(pair[0], pair[1], (x >> (depth - 1)) & 1)
    _count(pair, bit)
    coded = 2 | bit
    for i in range(depth - 2, -1, -1):
        coded = (coded << 1) | code_bin(1, 1, (x >> i) & 1)
    magnitude = coded - 1
    if code_bin(1, 1, value < 0):
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

    for prefix, suffix, start, stop in contexts.spans(len(values)):
        for v in values[start:stop]:
            _binarize(code_bin, prefix, suffix, v)
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
        for prefix, suffix, start, stop in contexts.spans(count):
            for i in range(start, stop):
                out[i] = _binarize(code_bin, prefix, suffix)
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
