"""Objective quality and rate metrics."""

from __future__ import annotations

import math

import numpy as np


def psnr(orig, recon) -> float:
    """10*log10(255^2 / MSE) for one 8-bit channel; inf when MSE is zero."""
    orig = np.asarray(orig, dtype=np.float64)
    recon = np.asarray(recon, dtype=np.float64)
    if orig.size == 0:
        raise ValueError("psnr of empty input")
    if orig.shape != recon.shape:
        raise ValueError("length mismatch")
    mse = float(np.mean((orig - recon) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def bpip(total_bits: float, input_point_count: int) -> float:
    """Bits per input (original, pre-voxelization) point."""
    if input_point_count <= 0:
        raise ValueError("input point count must be positive")
    return total_bits / input_point_count


def bd_br(curve_a, curve_b) -> float:
    """Bjontegaard delta bitrate of curve_b against curve_a, in percent.

    Each curve is a sequence of (rate, psnr) pairs, rate in bits per
    input point and psnr in dB.  Cubic fits of log-rate against PSNR are
    averaged over the overlapping PSNR interval.
    """
    rate_a, psnr_a = _curve_arrays(curve_a)
    rate_b, psnr_b = _curve_arrays(curve_b)
    if len(rate_a) < 4 or len(rate_b) < 4:
        raise ValueError("need at least 4 rate-distortion points per curve")

    log_a = np.log(rate_a)
    log_b = np.log(rate_b)
    poly_a = np.polyfit(psnr_a, log_a, 3)
    poly_b = np.polyfit(psnr_b, log_b, 3)

    lo = max(psnr_a.min(), psnr_b.min())
    hi = min(psnr_a.max(), psnr_b.max())
    if hi <= lo:
        raise ValueError("curves have no overlapping PSNR interval")

    int_a = np.polyval(np.polyint(poly_a), hi) - np.polyval(np.polyint(poly_a), lo)
    int_b = np.polyval(np.polyint(poly_b), hi) - np.polyval(np.polyint(poly_b), lo)
    avg_diff = (int_b - int_a) / (hi - lo)
    return (math.exp(avg_diff) - 1.0) * 100.0


def _curve_arrays(curve):
    rates = []
    psnrs = []
    for point in curve:
        rates.append(float(point[0]))
        psnrs.append(float(point[1]))
    rates = np.asarray(rates, dtype=np.float64)
    psnrs = np.asarray(psnrs, dtype=np.float64)
    if np.any(rates <= 0):
        raise ValueError("rates must be positive")
    order = np.argsort(psnrs)
    return rates[order], psnrs[order]
