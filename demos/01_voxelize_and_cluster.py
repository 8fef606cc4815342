"""Voxelization and geometry clustering walkthrough.

Generates a synthetic colored point cloud, snaps it onto the voxel
grid, and partitions it into coding clusters the way the codec does.
"""

import numpy as np

from pgft.clustering import kmeans_geometry
from pgft.pointcloud import sequence_bounding_box, voxelize
from pgft.synth import synthetic_sequence

frames = synthetic_sequence("wave", 1, point_count=3000, seed=0)
raw = frames[0]
print(f"raw cloud: {raw.point_count} points, "
      f"bbox {raw.positions.min(axis=0).round(2)} .. "
      f"{raw.positions.max(axis=0).round(2)}")

box = sequence_bounding_box(raw)
frame = voxelize(raw, grid_dim=128, box=box)
print(f"voxelized to a 128^3 grid: {frame.voxel_count} occupied voxels")
occupancy = raw.point_count / frame.voxel_count
print(f"average {occupancy:.2f} points per occupied voxel")
print(f"attribute range (mid-centered YUV): "
      f"{frame.attributes.min():.1f} .. {frame.attributes.max():.1f}")

partition = kmeans_geometry(frame, target_cluster_size=600)
print(f"\nK-means gave {partition.k} clusters "
      f"(target mean size 600, ceil rule)")
for cid in range(partition.k):
    centroid = partition.centroids[cid].round(1)
    print(f"  cluster {cid}: {partition.cluster_sizes[cid]} voxels, "
          f"centroid {centroid}")

# the decoder reruns the same clustering from geometry alone
again = kmeans_geometry(frame, target_cluster_size=600)
print("\nre-clustering is bit-identical:",
      np.array_equal(partition.labels, again.labels))
