"""Why the low-pass temporal predictor is the right one under the
assumed field model.

Samples joint (current, reference) attribute vectors from the
spatio-temporal precision matrix whose temporal edges have precision w,
then compares the conditional-mean predictor w (L+wI)^{-1} x_ref against
plain copying, and shows that the residual transform decorrelates.  L
and L+wI share their eigenvectors, so one eigendecomposition of L gives
both the predictor (the spectral low-pass filter g = w / (w + lambda))
and the residual transform, for any w.  This demo samples w = 1; the
codec takes w from the quantizer step (`rdo.temporal_precision`, whose
constants are refitted by an RD sweep over w = 2^k).
"""

import numpy as np

from pgft.gmrf import sample_gmrf
from pgft.graph import SpatialGraph, combinatorial_laplacian
from pgft.transform import eigendecompose, inter_predict

rng = np.random.default_rng(0)
n = 24

# a random weighted graph standing in for one cluster's spatial structure
ii, jj, ww = [], [], []
for i in range(n):
    for j in range(i + 1, n):
        if rng.uniform() < 0.2:
            ii.append(i), jj.append(j), ww.append(rng.uniform(0.3, 1.0))
graph = SpatialGraph(n=n, edges_i=np.array(ii), edges_j=np.array(jj),
                     weights=np.array(ww))
lap = combinatorial_laplacian(graph)
print(f"cluster graph: {graph.edge_count} edges, "
      f"mean degree {2 * graph.edge_count / n:.1f}")

# joint model: current frame block L+wI, reference block L+wI, coupling -wI
w = 1.0
eye = np.eye(n)
joint = np.block([[lap + w * eye, -w * eye], [-w * eye, lap + w * eye]])
joint += 1e-3 * np.eye(2 * n)  # the shared-DC direction is otherwise free
samples = sample_gmrf(joint, 20_000, rng=rng)
current, reference = samples[:, :n], samples[:, n:]

# The codec's spectral form: the residual's coefficients are U^T x minus
# the predictor's coefficients g * U^T x_ref, with g = w / (w + lambda).
basis = eigendecompose(lap)
residual_coeffs = (current @ basis.basis
                   - inter_predict(basis, reference.T, w).T)
mse_pred = np.mean(residual_coeffs ** 2)  # U is orthonormal
mse_copy = np.mean((current - reference) ** 2)
improvement = (mse_copy - mse_pred) / mse_copy
print(f"\nprediction MSE:  conditional mean {mse_pred:.4f}  "
      f"vs copy {mse_copy:.4f}")
print(f"improvement: {improvement:.1%}")
assert improvement > 0.2, "the conditional mean should beat copying"

# residuals are white in the eigenbasis of L+wI, which is that of L
corr = np.corrcoef(residual_coeffs, rowvar=False)
off = np.abs(corr - np.diag(np.diag(corr)))
print(f"\nresidual coefficient correlations: max |off-diagonal| "
      f"{off.max():.4f}")
assert off.max() < 0.05, "the residual coefficients should be uncorrelated"
variances = residual_coeffs.var(axis=0)
expected = 1.0 / (w + basis.eigenvalues)
print("measured coefficient variance tracks 1/(lambda+w):")
for k in (0, n // 4, n // 2, n - 1):
    print(f"  mode {k:2d}: var {variances[k]:.4f}  "
          f"1/(lambda+w) {expected[k]:.4f}")
