import math

import numpy as np
import pytest

from pgft.metrics import bd_br, bpip, psnr
from reference import bd_rate_numeric


def test_psnr_identical_is_infinite():
    x = np.arange(10, dtype=np.float64)
    assert psnr(x, x) == math.inf


def test_psnr_full_scale_error():
    orig = np.zeros(100)
    recon = np.full(100, 255.0)
    assert psnr(orig, recon) == pytest.approx(0.0, abs=1e-12)


def test_psnr_known_mse():
    # MSE = 65.025 -> 255^2 / 65.025 = 1000 -> 30 dB
    orig = np.zeros(4)
    recon = np.full(4, math.sqrt(65.025))
    assert psnr(orig, recon) == pytest.approx(30.0, abs=1e-9)


def test_psnr_decreases_with_error_scale():
    rng = np.random.default_rng(0)
    orig = rng.uniform(0, 255, 1000)
    noise = rng.normal(size=1000)
    values = [psnr(orig, orig + s * noise) for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_psnr_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        psnr(np.empty(0), np.empty(0))
    with pytest.raises(ValueError):
        psnr(np.zeros(3), np.zeros(4))


def test_bpip():
    assert bpip(8000, 1000) == 8.0
    assert bpip(0, 123) == 0.0
    with pytest.raises(ValueError):
        bpip(100, 0)


def _curve(rates, psnrs):
    return list(zip(rates, psnrs))


def test_bd_br_identical_curves():
    curve = _curve([1, 2, 4, 8], [30, 34, 38, 42])
    assert bd_br(curve, curve) == pytest.approx(0.0, abs=1e-12)


def test_bd_br_doubled_rate():
    a = _curve([1, 2, 4, 8], [30, 34, 38, 42])
    b = _curve([2, 4, 8, 16], [30, 34, 38, 42])
    assert bd_br(a, b) == pytest.approx(100.0, abs=1e-9)


def test_bd_br_antisymmetry():
    # near-exact in the log domain, so holds to 0.5% for moderate gaps
    a = _curve([0.8, 1.7, 3.9, 8.4], [30.2, 33.8, 38.5, 41.9])
    b = _curve([0.82, 1.74, 3.95, 8.6], [30.3, 33.9, 38.4, 42.0])
    assert abs(bd_br(a, b) + bd_br(b, a)) < 0.5


def test_bd_br_matches_numeric_integration():
    rng = np.random.default_rng(1)
    for _ in range(5):
        psnrs = np.sort(rng.uniform(28, 45, size=6))
        rates_a = np.exp(np.polyval([1e-4, -0.002, 0.18, -4.0], psnrs))
        rates_b = rates_a * rng.uniform(0.6, 1.6)
        a = list(zip(rates_a, psnrs))
        b = list(zip(rates_b, psnrs))
        got = bd_br(a, b)
        want = bd_rate_numeric(a, b)
        assert got == pytest.approx(want, abs=max(0.001 * abs(want), 1e-6))


def test_bd_br_insufficient_points():
    a = _curve([1, 2, 4], [30, 34, 38])
    with pytest.raises(ValueError, match="4"):
        bd_br(a, a)


def test_bd_br_no_overlap():
    a = _curve([1, 2, 4, 8], [30, 32, 34, 36])
    b = _curve([1, 2, 4, 8], [40, 42, 44, 46])
    with pytest.raises(ValueError, match="overlap"):
        bd_br(a, b)
