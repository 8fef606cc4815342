import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgft.coding import (ContextSet, EndOfStreamError, decode_block,
                         dequantize, encode_block, quantize)


def test_quantize_rounding():
    indices = quantize([23.0], 10.0)
    assert indices.dtype == np.int64 and indices[0] == 2
    assert dequantize(indices, 10.0)[0] == 20.0


def test_quantize_half_away_from_zero():
    indices = quantize([-25.0], 10.0)
    assert indices[0] == -3
    assert dequantize(indices, 10.0)[0] == -30.0
    assert quantize([25.0], 10.0)[0] == 3


def test_quantize_error_bound_random():
    rng = np.random.default_rng(0)
    x = rng.normal(size=5000) * 100
    indices = quantize(x, 4.0)
    assert np.max(np.abs(dequantize(indices, 4.0) - x)) <= 2.0


def test_quantize_block_is_per_coefficient():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(50, 3)) * 30
    indices = quantize(coeffs, 8.0)
    assert indices.shape == (50, 3) and indices.dtype == np.int64
    for c in range(3):
        assert np.array_equal(indices[:, c], quantize(coeffs[:, c], 8.0))


def test_quantize_rejects_bad_step():
    with pytest.raises(ValueError):
        quantize([1.0], 0.0)


@given(st.lists(st.integers(-10**9, 10**9), max_size=300),
       st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_quantize_dequantize_bound_property(values, qstep):
    x = np.asarray(values, dtype=np.float64)
    err = np.abs(dequantize(quantize(x, qstep), qstep) - x)
    if x.size:
        # allow a few ulps of x: x/q can land exactly on a .5 tie whose
        # away-from-zero side is marginally beyond qstep/2 in floats
        assert np.all(err <= qstep / 2 + 4.0 * np.abs(x) * np.finfo(float).eps)


@given(st.lists(st.integers(-2**40, 2**40), max_size=400))
@settings(max_examples=80, deadline=None)
def test_entropy_roundtrip_property(values):
    payload = encode_block(values, ContextSet())
    out = decode_block(payload, len(values), ContextSet())
    assert list(out) == values


def test_entropy_roundtrip_laplacian_bulk():
    rng = np.random.default_rng(1)
    # two-sided geometric, heavy on small magnitudes like real residuals
    mags = rng.geometric(0.08, size=100_000) - 1
    signs = rng.choice([-1, 1], size=100_000)
    values = (mags * signs).astype(np.int64)
    payload = encode_block(values, ContextSet())
    assert np.array_equal(decode_block(payload, len(values), ContextSet()), values)


def test_entropy_all_zero_compresses():
    payload = encode_block(np.zeros(1000, dtype=np.int64), ContextSet())
    assert len(payload) * 8 < 200
    assert np.array_equal(decode_block(payload, 1000, ContextSet()), np.zeros(1000))


def test_entropy_empty():
    assert encode_block([], ContextSet()) == b""
    assert decode_block(b"", 0, ContextSet()).size == 0


def test_entropy_truncated_stream_raises():
    rng = np.random.default_rng(2)
    values = (rng.geometric(0.05, size=100_000) - 1) * rng.choice([-1, 1], 100_000)
    payload = encode_block(values, ContextSet())
    with pytest.raises(EndOfStreamError, match="unexpected end of stream"):
        decode_block(payload[: len(payload) // 2], len(values), ContextSet())


def test_contexts_persist_across_blocks():
    rng = np.random.default_rng(3)
    blocks = [rng.integers(-50, 50, size=200) for _ in range(4)]
    enc_ctx = ContextSet()
    payloads = [encode_block(b, enc_ctx) for b in blocks]
    dec_ctx = ContextSet()
    for block, payload in zip(blocks, payloads):
        out = decode_block(payload, len(block), dec_ctx)
        assert np.array_equal(out, block)
    # adaptation across blocks should beat fresh contexts on skewed data
    skewed = [np.zeros(500, dtype=np.int64) for _ in range(6)]
    shared = ContextSet()
    adaptive_bits = sum(len(encode_block(b, shared)) for b in skewed)
    fresh_bits = sum(len(encode_block(b, ContextSet())) for b in skewed)
    assert adaptive_bits <= fresh_bits


def test_context_copy_isolated():
    ctx = ContextSet()
    encode_block(np.arange(-100, 100), ctx)
    clone = ctx.copy()
    encode_block(np.arange(200), clone)
    before = [list(pair) for pair in ctx.prefix]
    encode_block(np.arange(200), clone)
    assert ctx.prefix == before
    assert clone.prefix != before


def _golden_blocks():
    rng = np.random.default_rng(2024)
    signs = lambda n: rng.choice([-1, 1], size=n)
    blocks = [np.empty(0, dtype=np.int64), np.array([-3], dtype=np.int64),
              np.zeros(5000, dtype=np.int64)]
    for p in (0.02, 0.3, 0.9):
        blocks.append((rng.geometric(p, size=2000) - 1) * signs(2000))
    big = rng.integers(-2**40, 2**40 + 1, size=300)
    blocks.append(np.concatenate([[2**40, -2**40], big]).astype(np.int64))
    return blocks


# sha256 of each payload of _golden_blocks() coded in order with one
# shared ContextSet: the coder's bitstream, pinned byte for byte.
_GOLDEN_DIGESTS = [
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "951dcee3a7a4f3aac67ec76a2ce4469cc76df650f134bf2572bf60a65c982338",
    "5ae7e6a42304dc6e4176210b83c43024f99a0bce9a870c3b6d2c95fc8ebfb74c",
    "b451168518ce324b2ec91d647a07ce662f7ea72f25f0c1ab126c088539142ffc",
    "397ead4de529358e6d01dbff14318a9c4cf6d0f6f9f3254b20586e780c68cc66",
    "9e1f61df61c8afb2ddbb3ecf962699f45d46f955999fa70cb431c795ca5c9922",
    "50c8a09db03800ed510a2c4fdd800778bf4013c2b0db3e0e7b11e5e9cbb5d25d",
]


def test_golden_payload_digests():
    blocks = _golden_blocks()
    ctx = ContextSet()
    payloads = [encode_block(b, ctx) for b in blocks]
    assert [hashlib.sha256(p).hexdigest() for p in payloads] == _GOLDEN_DIGESTS
    dec = ContextSet()
    for block, payload in zip(blocks, payloads):
        before = dec.copy()
        assert np.array_equal(decode_block(payload, len(block), dec), block)
        if len(payload) >= 64:
            with pytest.raises(EndOfStreamError, match="unexpected end of stream"):
                decode_block(payload[: len(payload) // 2], len(block), before)


def test_corrupted_payload_raises():
    # An all-zero payload keeps choosing the "0" prefix bin, so the
    # magnitude prefix runs past its 62-bit limit.
    with pytest.raises(EndOfStreamError, match="unexpected end of stream"):
        decode_block(bytes(64), 10, ContextSet())
