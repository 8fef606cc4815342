"""Rate-distortion mode decision and the models trained offline on Q.

Each P-frame cluster is trial-encoded in both modes and the one with
the smaller Lagrangian cost J = D + lambda * R wins; lambda follows the
offline-trained power model lambda(Q) = ALPHA * Q^BETA.  The model is
fixed, as in the H.264/HEVC reference encoders: a refit with
`fit_lambda_model` (which `pgft rd-sweep` runs on its curve) means
editing the two constants.

The inter predictor's temporal precision w(Q) (`temporal_precision`) is
fixed the same way, with no header field: encoder and decoder both take
it from the header's qstep.  W_Q_LOG2 was chosen by coding RD ladders
(0.5 <= Q <= 128) at every w = 2^k and keeping, per Q, the w of least
J = D + lambda(Q) * bpip; to refit it, repeat that sweep on your
content (the predictor is `transform.inter_predict`).  The clip bounds
were not fitted: they keep lambda / w finite and bind only outside the
fitted range (Q < 0.5 and Q >= 1024).
"""

from __future__ import annotations

import math

import numpy as np

INTRA = "intra"
INTER = "inter"

ALPHA = 0.0624
BETA = 1.6238


def lambda_from_q(q: float) -> float:
    if q <= 0:
        raise ValueError("quality factor must be positive")
    return ALPHA * q ** BETA


# w(Q) is W_Q / Q rounded up to a power of two, clipped to
# [2^W_LOG2_MIN, 2^W_LOG2_MAX].  Only W_Q is fitted; the clip is a
# finiteness bound on lambda / w.  It binds at Q < 0.5, where the best w
# is still 2^6, and at Q >= 1024 (below ~23 dB PSNR-Y), where the best w
# is 2^-5 to 2^-6 and the clip costs 1.4-3.5% of J on rigid motion.
W_Q_LOG2 = 5        # W_Q = 32
W_LOG2_MIN = -4
W_LOG2_MAX = 6


def temporal_precision(q: float) -> float:
    """The precision w of every temporal edge of the GMRF the inter
    predictor assumes, for quantizer step q: a coarser reference is
    trusted less.  Built from exact operations only (frexp, integers,
    ldexp), so every platform derives the same w from the same q."""
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"quantizer step {q!r} must be finite and positive")
    _, e = math.frexp(q)  # 2^(e-1) <= q < 2^e
    k = min(max(W_Q_LOG2 + 1 - e, W_LOG2_MIN), W_LOG2_MAX)
    return math.ldexp(1.0, k)


def distortion_yuv(orig: np.ndarray, recon: np.ndarray) -> float:
    """Average of the three per-channel MSEs, (MSE_Y+MSE_U+MSE_V)/3."""
    orig = np.asarray(orig, dtype=np.float64)
    recon = np.asarray(recon, dtype=np.float64)
    if orig.shape != recon.shape:
        raise ValueError("length mismatch between original and reconstruction")
    return float(np.mean((orig - recon) ** 2))


def distortion_from_psnr(psnr_y: float, psnr_u: float, psnr_v: float) -> float:
    """The distortion `distortion_yuv` measures, recovered from the three
    channels' PSNRs in dB (peak 255)."""
    return sum(255.0 ** 2 / 10 ** (p / 10.0) for p in (psnr_y, psnr_u, psnr_v)) / 3.0


def choose_mode(intra, inter, lambda_: float) -> str:
    """Each mode's cost is a (distortion, rate) pair: the mean YUV MSE
    over the cluster and its exact payload bits plus the mode bit, per
    voxel of the cluster (lambda_from_q is a slope of mean MSE per bit
    per point).  Smaller J = D + lambda * R wins; ties go to intra
    (error containment)."""
    j_intra = intra[0] + lambda_ * intra[1]
    j_inter = inter[0] + lambda_ * inter[1]
    return INTER if j_inter < j_intra else INTRA


def fit_lambda_model(rd_points):
    """Recover (alpha, beta) from measured (Q, R_Q, D_Q) triples.

    The RD-curve slope between adjacent quality factors gives
    lambda_Q = -(D_next - D) / (R_next - R); a least-squares power fit
    in log-log space yields the model.  Returns (alpha, beta); a curve
    whose lambda does not grow with Q is refused.
    """
    pts = sorted((float(q), float(r), float(d)) for q, r, d in rd_points)
    qs = np.array([p[0] for p in pts])
    if len(pts) < 3 or len(np.unique(qs)) < 3:
        raise ValueError("need >= 3 points with distinct quality factors")
    rates = np.array([p[1] for p in pts])
    dists = np.array([p[2] for p in pts])

    bad = [(qs[i], qs[i + 1]) for i in range(len(pts) - 1)
           if rates[i + 1] >= rates[i]]
    if bad:
        raise ValueError(f"rate must strictly decrease with Q; offending pairs: {bad}")

    slopes = -(dists[1:] - dists[:-1]) / (rates[1:] - rates[:-1])
    if np.any(slopes <= 0):
        flat = [(qs[i], qs[i + 1]) for i in np.flatnonzero(slopes <= 0)]
        raise ValueError(f"non-positive RD slope (cannot take log); pairs: {flat}")

    # lambda is attributed to the lower Q of each adjacent pair.
    log_q = np.log(qs[:-1])
    log_l = np.log(slopes)
    beta, log_alpha = np.polyfit(log_q, log_l, 1)
    alpha, beta = float(np.exp(log_alpha)), float(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    return alpha, beta
