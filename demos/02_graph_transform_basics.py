"""Spatial graph construction and the graph transform.

Builds the normal-weighted epsilon graph on one cluster, inspects its
spectrum, and shows energy compaction of a smooth color signal.
"""

import numpy as np

from pgft.clustering import kmeans_geometry
from pgft.graph import (build_epsilon_graph, combinatorial_laplacian,
                        estimate_normals)
from pgft.pointcloud import sequence_bounding_box, voxelize
from pgft.synth import synthetic_sequence
from pgft.transform import eigendecompose, gft_forward, gft_inverse

raw = synthetic_sequence("wave", 1, point_count=2000, seed=1)[0]
frame = voxelize(raw, grid_dim=64, box=sequence_bounding_box(raw))
partition = kmeans_geometry(frame, 600)
members = partition.members(0)
points = frame.voxel_coords[members].astype(np.float64)
print(f"cluster 0: {len(members)} voxels")

normals = estimate_normals(points)
graph = build_epsilon_graph(points, normals, epsilon_sq=50.0)
print(f"epsilon graph: {graph.edge_count} edges, "
      f"mean degree {2 * graph.edge_count / graph.n:.1f}, "
      f"weights in [{graph.weights.min():.3f}, {graph.weights.max():.3f}]")

laplacian = combinatorial_laplacian(graph)
basis = eigendecompose(laplacian)
print(f"spectrum: lambda_min={basis.eigenvalues[0]:.2e}, "
      f"lambda_2={basis.eigenvalues[1]:.3f}, "
      f"lambda_max={basis.eigenvalues[-1]:.1f}")

y = frame.attributes[members][:, 0]
coeffs = gft_forward(y, basis)
energy = np.cumsum(coeffs ** 2) / np.sum(coeffs ** 2)
k90 = int(np.searchsorted(energy, 0.90)) + 1
k99 = int(np.searchsorted(energy, 0.99)) + 1
print(f"\nluma signal: {len(y)} samples, variance {y.var():.1f}")
print(f"90% of energy in the first {k90} coefficients, "
      f"99% in the first {k99} (of {len(y)})")

back = gft_inverse(coeffs, basis)
print(f"round-trip max error: {np.max(np.abs(back - y)):.2e}")
print(f"energy conservation |f_hat|/|f|: "
      f"{np.linalg.norm(coeffs) / np.linalg.norm(y):.12f}")
