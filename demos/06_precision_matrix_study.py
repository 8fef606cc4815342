"""Generalized Laplacian as a sparse stand-in for the precision matrix.

Draws aligned attribute patches from the field model on a known graph,
estimates the precision matrix from the sample covariance, and reports
how well the graph Laplacian matches it on the edge support.
"""

import numpy as np

from pgft.gmrf import compare_to_laplacian, empirical_precision, sample_gmrf
from pgft.graph import (SpatialGraph, combinatorial_laplacian,
                        generalized_laplacian)

rng = np.random.default_rng(11)
n = 30

ii, jj, ww = [], [], []
for i in range(n):
    for j in range(i + 1, n):
        if rng.uniform() < 0.1:
            ii.append(i), jj.append(j), ww.append(rng.uniform(0.2, 1.0))
graph = SpatialGraph(n=n, edges_i=np.array(ii), edges_j=np.array(jj),
                     weights=np.array(ww))
lap = generalized_laplacian(combinatorial_laplacian(graph))
print(f"ground-truth graph: {graph.edge_count} edges on {n} vertices")

for multiple in (2, 5, 10, 40):
    samples = sample_gmrf(lap, multiple * n, rng=rng)
    estimate = empirical_precision(samples)
    report = compare_to_laplacian(estimate, lap)
    print(f"K+1 = {multiple * n:4d} patches: support correlation "
          f"{report.support_correlation:.3f}, sign agreement "
          f"{report.sign_agreement:.2f}")

samples = sample_gmrf(lap, 10 * n, rng=rng)
estimate = empirical_precision(samples)
report = compare_to_laplacian(estimate, lap)
print(f"\nat the 10n operating point: the Laplacian covers "
      f"{report.sparsity_ratio:.1%} of off-diagonal pairs yet matches the "
      f"dense estimate with correlation {report.support_correlation:.3f}")
print("the graph is a sparse approximation of the statistical precision")
