import math
import warnings

import numpy as np
import pytest

from pgft.metrics import psnr
from pgft.pointcloud import MAX_CLUSTER_SIZE
from pgft.rdo import (ALPHA, BETA, INTER, INTRA, W_LOG2_MAX, W_LOG2_MIN,
                      choose_mode, distortion_from_psnr, distortion_yuv,
                      fit_lambda_model, lambda_from_q, temporal_precision)
from pgft.transform import TransformBasis, inter_predict

# frozen by direct evaluation of alpha * Q^beta via exp/log
LAMBDA_16 = math.exp(math.log(0.0624) + 1.6238 * math.log(16.0))
LAMBDA_32 = math.exp(math.log(0.0624) + 1.6238 * math.log(32.0))


def test_lambda_q1_exact():
    assert (ALPHA, BETA) == (0.0624, 1.6238)
    assert lambda_from_q(1.0) == 0.0624


def test_lambda_q16():
    value = lambda_from_q(16.0)
    assert value == pytest.approx(LAMBDA_16, abs=1e-12)
    assert value == pytest.approx(5.6292, abs=1e-3)


def test_lambda_q32():
    value = lambda_from_q(32.0)
    assert value == pytest.approx(LAMBDA_32, abs=1e-12)
    assert round(value, 2) == 17.35


def test_lambda_monotone_in_q():
    qs = [0.5, 1, 2, 4, 8, 16, 32, 64]
    values = [lambda_from_q(q) for q in qs]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_lambda_rejects_nonpositive_q():
    with pytest.raises(ValueError):
        lambda_from_q(0.0)
    with pytest.raises(ValueError):
        lambda_from_q(-2.0)


# temporal_precision(q) by hand: 32 / q rounded up to a power of two,
# clipped to [2^-4, 2^6].
_PRECISION_TABLE = {5e-324: 64.0, 1e-300: 64.0, 0.5: 64.0, 1.0: 32.0,
                    6.0: 8.0, 8.0: 4.0, 32.0: 1.0, 1e300: 0.0625,
                    1.7e308: 0.0625}


@pytest.mark.parametrize("q", sorted(_PRECISION_TABLE))
def test_temporal_precision_is_a_clipped_power_of_two(q):
    """From the smallest subnormal to near the largest double, w is an
    exact, finite, positive power of two inside the clip, equal to the
    hand-written table, computed without a warning; the predictor's
    gains under it stay in (0, 1] with the DC gain exactly 1, up to the
    largest eigenvalue a cluster's Laplacian can have (edge weights are
    at most 1, so lambda <= 2 (n - 1))."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = temporal_precision(q)
        assert w == _PRECISION_TABLE[q]
        assert type(w) is float and math.isfinite(w) and w > 0
        assert math.frexp(w)[0] == 0.5
        assert 2.0 ** W_LOG2_MIN <= w <= 2.0 ** W_LOG2_MAX
        eigenvalues = np.array([0.0, 1e-12, 0.37, 2.0, 31.5,
                                2.0 * (MAX_CLUSTER_SIZE - 1)])
        n = eigenvalues.size
        with np.errstate(all="raise"):
            identity = TransformBasis(  # Q = I: every reflector scale is 0
                reflectors=np.zeros((n, n)), tau=np.zeros(n - 1),
                vectors=np.eye(n), eigenvalues=eigenvalues)
            gains = np.diag(inter_predict(identity, np.eye(n), w))
    assert gains[0] == 1.0
    assert np.all((gains > 0) & (gains <= 1))


def test_temporal_precision_falls_as_q_grows():
    qs = [2.0 ** e for e in range(-8, 16)]
    ws = [temporal_precision(q) for q in qs]
    assert all(b <= a for a, b in zip(ws, ws[1:]))
    assert temporal_precision(16.0) == 2.0 and temporal_precision(63.9) == 1.0


@pytest.mark.parametrize("q", [0.0, -8.0, float("inf"), float("nan")])
def test_temporal_precision_rejects_bad_q(q):
    with pytest.raises(ValueError, match="quantizer step"):
        temporal_precision(q)


def test_distortion_zero():
    x = np.random.default_rng(0).normal(size=(50, 3))
    assert distortion_yuv(x, x) == 0.0


def test_distortion_channel_average():
    orig = np.zeros((1, 3))
    recon = np.array([[math.sqrt(3.0), math.sqrt(6.0), 3.0]])
    assert distortion_yuv(orig, recon) == pytest.approx(6.0)


def test_distortion_single_point():
    assert distortion_yuv(np.zeros((1, 3)),
                          np.array([[1.0, 2.0, 2.0]])) == pytest.approx(3.0)


def test_distortion_from_psnr_matches_distortion_yuv():
    """Unequal channel PSNRs give the mean of the three MSEs (1, 2, 10)."""
    orig = np.zeros((2, 3))
    recon = np.array([[1.0, 2.0, 4.0], [1.0, 0.0, 2.0]])
    psnrs = [psnr(orig[:, c], recon[:, c]) for c in range(3)]
    assert len(set(psnrs)) == 3
    assert distortion_yuv(orig, recon) == pytest.approx(13.0 / 3.0)
    assert distortion_from_psnr(*psnrs) == pytest.approx(13.0 / 3.0)


def test_distortion_length_mismatch():
    with pytest.raises(ValueError):
        distortion_yuv(np.zeros((2, 3)), np.zeros((3, 3)))


def test_choose_mode_smaller_j():
    # J_intra = 10, J_inter = 8 at lambda = 1; costs are (distortion, rate)
    intra = (4.0, 6.0)
    inter = (2.0, 6.0)
    assert choose_mode(intra, inter, 1.0) == INTER
    # and the other way around
    assert choose_mode(inter, intra, 1.0) == INTRA


def test_choose_mode_tie_goes_intra():
    assert choose_mode((5.0, 10.0), (5.0, 10.0), 2.0) == INTRA
    # equal J from different (distortion, rate): 5 + 2 * 10 == 15 + 2 * 5
    assert choose_mode((5.0, 10.0), (15.0, 5.0), 2.0) == INTRA


def test_choose_mode_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d1, d2 = rng.uniform(0, 50, 2)
        r1, r2 = rng.uniform(1, 500, 2)
        lam = rng.uniform(0.01, 20)
        scale = rng.uniform(0.1, 10)
        a = choose_mode((d1, r1), (d2, r2), lam)
        b = choose_mode((d1 * scale, r1 * scale), (d2 * scale, r2 * scale), lam)
        assert a == b


def _power_law_curve(alpha, beta, qs, r0=100.0):
    """(Q, R, D) triples whose adjacent RD slopes follow alpha*Q^beta
    exactly, with the slope attributed to the lower Q of each pair."""
    rates = [r0 / q for q in qs]
    dists = [1.0]
    for i in range(len(qs) - 1):
        lam = alpha * qs[i] ** beta
        dists.append(dists[-1] - lam * (rates[i + 1] - rates[i]))
    return list(zip(qs, rates, dists))


def test_fit_lambda_model_inverts_power_law():
    pts = _power_law_curve(0.0624, 1.6238, [1, 2, 4, 8, 16, 32])
    alpha, beta = fit_lambda_model(pts)
    assert alpha == pytest.approx(ALPHA, rel=0.01)
    assert beta == pytest.approx(BETA, rel=0.01)


def test_fit_lambda_exact_through_two_slope_points():
    # three RD points -> two (Q, lambda) pairs -> exact degenerate fit
    pts = _power_law_curve(0.1, 1.5, [2, 4, 8])
    alpha, beta = fit_lambda_model(pts)
    assert alpha == pytest.approx(0.1, rel=1e-9)
    assert beta == pytest.approx(1.5, rel=1e-9)


def test_fit_lambda_needs_three_points():
    with pytest.raises(ValueError, match=">= 3"):
        fit_lambda_model([(1, 10, 1), (2, 5, 2)])


def test_fit_lambda_non_monotone_rate():
    pts = [(1, 10.0, 1.0), (2, 12.0, 2.0), (4, 5.0, 3.0)]
    with pytest.raises(ValueError, match="strictly decrease"):
        fit_lambda_model(pts)


def test_fit_lambda_constant_distortion():
    pts = [(1, 10.0, 1.0), (2, 8.0, 1.0), (4, 5.0, 1.0)]
    with pytest.raises(ValueError, match="slope"):
        fit_lambda_model(pts)


def test_fit_lambda_rejects_falling_lambda():
    # lambda = 5 * Q^-0.5 fits exactly to beta = -0.5, which the model
    # must not take: lambda has to grow with Q.
    pts = _power_law_curve(5.0, -0.5, [1, 2, 4, 8])
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        fit_lambda_model(pts)
