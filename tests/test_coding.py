import hashlib
import re

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


@pytest.mark.parametrize("coeffs, qstep", [
    ([0.0, 3000.0], 1e-20), ([1.0], 5e-324), ([-2.0**63], 1.0)])
def test_quantize_refuses_index_beyond_int64(coeffs, qstep):
    with pytest.raises(ValueError, match=rf"^qstep={re.escape(repr(qstep))} "
                                         "is too small"):
        quantize(coeffs, qstep)


def test_quantize_keeps_largest_int64_index():
    largest = 2.0**63 - 1024  # the largest double below 2^63
    assert quantize([-largest, largest], 1.0).tolist() == [-int(largest),
                                                           int(largest)]


@pytest.mark.parametrize("value", [2**63 - 1, -(2**63 - 1), -2**63])
def test_encode_block_refuses_uncodable_index(value):
    """|index| + 1 must fit the prefix's 63 bits; the coder says so before
    it codes a bin, so the contexts of every rank bucket are left as they
    were (the bad index sits at rank 3, after ranks 0 to 2 in buckets 0
    and 1)."""
    contexts = ContextSet()
    with pytest.raises(ValueError, match="magnitude above 9223372036854775806"):
        encode_block([0] * 9 + [value], contexts)
    assert contexts.prefix == ContextSet().prefix
    assert contexts.suffix == ContextSet().suffix


def test_largest_codable_index_roundtrips():
    values = [2**63 - 2, -(2**63 - 2), 0]
    payload = encode_block(values, ContextSet())
    assert decode_block(payload, 3, ContextSet()).tolist() == values


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
    # the decoder adapts every pair as the encoder did
    assert dec_ctx.prefix == enc_ctx.prefix != ContextSet().prefix
    assert dec_ctx.suffix == enc_ctx.suffix != ContextSet().suffix
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
    before = [[[list(pair) for pair in bucket] for bucket in pairs]
              for pairs in (ctx.prefix, ctx.suffix)]
    encode_block(np.arange(200), clone)
    assert [ctx.prefix, ctx.suffix] == before
    assert clone.prefix != before[0]
    assert clone.suffix != before[1]


@pytest.mark.parametrize("ranks, touched", [(1, 1), (3, 2), (7, 3), (100, 7)])
def test_contexts_adapt_per_rank_bucket(ranks, touched):
    """The index at position p belongs to rank i = p // 3 and codes on
    the contexts of bucket floor(log2(i + 1)): a block of `ranks`
    coefficients moves the counts of buckets 0 to touched - 1 and leaves
    every other bucket's counts as they were."""
    ctx = ContextSet()
    encode_block(np.full(3 * ranks, 1000), ctx)  # prefix depths 0 to 9
    fresh = ContextSet().prefix
    assert [b for b in range(len(fresh))
            if ctx.prefix[b] != fresh[b]] == list(range(touched))


@pytest.mark.parametrize("rank, value, bucket, depth", [
    (0, 1, 0, 1), (0, -2, 0, 1), (5, 6, 2, 2), (100, -1000, 6, 9),
    (3, 2**15 - 1, 2, 15)])
def test_suffix_pair_adapts_per_bucket_and_prefix_length(rank, value, bucket,
                                                         depth):
    """A nonzero index of rank i whose magnitude + 1 has a prefix of
    length d codes its top suffix bit on suffix[floor(log2(i + 1))][d]
    alone; zeros code no suffix bin."""
    block = np.zeros(3 * (rank + 1), dtype=np.int64)
    block[3 * rank + 1] = value  # the U index of that coefficient
    ctx = ContextSet()
    payload = encode_block(block, ctx)
    fresh = ContextSet().suffix
    moved = [(b, d) for b in range(len(fresh)) for d in range(len(fresh[b]))
             if ctx.suffix[b][d] != fresh[b][d]]
    assert moved == [(bucket, depth)]
    assert sum(ctx.suffix[bucket][depth]) == 3
    assert np.array_equal(decode_block(payload, block.size, ContextSet()), block)


def test_large_indices_share_the_capped_suffix_pair():
    """Prefix lengths from 15 up share one pair: indices from 2^16 on
    (d >= 16) count on the d = 15 pair and still round-trip."""
    block = np.array([2**16, -2**20, 2**40, -(2**62)], dtype=np.int64)
    ctx = ContextSet()
    payload = encode_block(block, ctx)
    dec = ContextSet()
    assert np.array_equal(decode_block(payload, block.size, dec), block)
    assert dec.suffix == ctx.suffix
    fresh = ContextSet().suffix
    assert [sum(ctx.suffix[b][15]) - sum(fresh[b][15]) for b in (0, 1)] == [3, 1]
    ctx.suffix[0][15], ctx.suffix[1][15] = fresh[0][15], fresh[1][15]
    assert ctx.suffix == fresh


def test_payload_reads_only_its_rank_buckets():
    """A block of ranks 0 to 6 (buckets 0 to 2) codes the same payload
    whatever the counts of the higher buckets, and another payload once
    the counts of its own last bucket change."""
    values = np.random.default_rng(5).integers(-9, 10, size=3 * 7)
    plain = encode_block(values, ContextSet())
    skewed = ContextSet()
    for bucket in skewed.prefix[3:] + skewed.suffix[3:]:
        for pair in bucket:
            pair[:] = [1000, 1]
    assert encode_block(values, skewed.copy()) == plain
    skewed.prefix[2][0][:] = [1000, 1]
    payload = encode_block(values, skewed.copy())
    assert payload != plain
    assert np.array_equal(decode_block(payload, values.size, skewed), values)


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
# Recorded with adaptive top-suffix contexts (stream version 8).  The
# empty, [-3] and all-zero blocks code as they did with a bypass top
# suffix bit (versions up to 7): [-3] codes its one suffix bin on a
# fresh [1, 1] pair, which splits the range as a bypass bin does, and
# zeros have no suffix.
_GOLDEN_DIGESTS = [
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "951dcee3a7a4f3aac67ec76a2ce4469cc76df650f134bf2572bf60a65c982338",
    "e164cf5279619ef20bf3426badb278fe32ec86204d3af804b2e052da7295bcc7",
    "71db0838f52bb50db3c82525603930ac042026d9488af5a496ec9c913911dd34",
    "99673fa1ab6c35780591357193e409397cfaa17078eb3065d8a711ef87dcfb3b",
    "4ff910f0c5295087b77f5cf0dd4ec578bb984f87421675eaccf6625a5563040b",
    "3acca34f400a224e726657e168ce275671f6393f7451f332a5c60b1a8d2af2ff",
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


def test_payload_not_used_up_raises():
    # 0xff bits decode as zeros from the first few bits on, so the reader
    # stops hundreds of bits short of the payload's end.
    with pytest.raises(EndOfStreamError, match="longer than its block"):
        decode_block(b"\xff" * 64, 100, ContextSet())
    with pytest.raises(EndOfStreamError, match="longer than its block"):
        decode_block(b"\x00", 0, ContextSet())


def test_valid_block_with_extra_byte_raises():
    rng = np.random.default_rng(7)
    values = (rng.geometric(0.3, size=500) - 1) * rng.choice([-1, 1], 500)
    payload = encode_block(values, ContextSet())
    assert np.array_equal(decode_block(payload, 500, ContextSet()), values)
    with pytest.raises(EndOfStreamError):
        decode_block(payload + bytes(8), 500, ContextSet())
