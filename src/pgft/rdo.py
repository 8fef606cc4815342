"""Rate-distortion mode decision and the lambda-Q model.

Each P-frame cluster is trial-encoded in both modes and the one with
the smaller Lagrangian cost J = D + lambda * R wins; lambda follows the
offline power model lambda(Q) = alpha * Q^beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INTRA = "intra"
INTER = "inter"

DEFAULT_ALPHA = 0.0624
DEFAULT_BETA = 1.6238


@dataclass(frozen=True)
class LambdaModel:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")


@dataclass(frozen=True)
class ModeCost:
    distortion: float  # mean YUV MSE over the cluster
    rate: float        # exact payload bits + mode bit

    def cost(self, lambda_: float) -> float:
        return self.distortion + lambda_ * self.rate


def lambda_from_q(q: float, model: LambdaModel = LambdaModel()) -> float:
    if q <= 0:
        raise ValueError("quality factor must be positive")
    return model.alpha * q ** model.beta


def distortion_yuv(orig: np.ndarray, recon: np.ndarray) -> float:
    """Average of the three per-channel MSEs, (MSE_Y+MSE_U+MSE_V)/3."""
    orig = np.asarray(orig, dtype=np.float64)
    recon = np.asarray(recon, dtype=np.float64)
    if orig.shape != recon.shape:
        raise ValueError("length mismatch between original and reconstruction")
    return float(np.mean((orig - recon) ** 2))


def choose_mode(intra: ModeCost, inter: ModeCost, lambda_: float) -> str:
    """Smaller J wins; ties go to intra (error containment)."""
    j_intra = intra.cost(lambda_)
    j_inter = inter.cost(lambda_)
    return INTER if j_inter < j_intra else INTRA


def fit_lambda_model(rd_points) -> LambdaModel:
    """Recover (alpha, beta) from measured (Q, R_Q, D_Q) triples.

    The RD-curve slope between adjacent quality factors gives
    lambda_Q = -(D_next - D) / (R_next - R); a least-squares power fit
    in log-log space yields the model.
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
    return LambdaModel(alpha=float(np.exp(log_alpha)), beta=float(beta))
