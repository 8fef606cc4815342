"""Attribute codec for dynamic point clouds.

Inter-frames are predicted through (L + I)^{-1} applied to motion-
corresponded reference attributes and the residual is coded in the
eigenbasis of L + I; intra-frames use the normal-weighted graph
transform.  L and L + I share their eigenvectors, so one eigenbasis per
cluster serves both modes and the predictor.  Mode selection is
Lagrangian with a fixed, offline-trained power-law lambda(Q) model.
"""

from .pointcloud import (RawPointCloud, SequenceConfig, VoxelizedFrame,
                         bounding_box, devoxelize, read_ply, rgb_to_yuv,
                         voxelize, write_ply, yuv_to_rgb)
from .clustering import ClusterPartition, kmeans_geometry
from .motion import find_correspondence, icp_register
from .graph import (SpatialGraph, build_epsilon_graph, combinatorial_laplacian,
                    estimate_normals, generalized_laplacian)
from .transform import (TransformBasis, eigendecompose, gft_forward,
                        gft_inverse, inter_predict)
from .coding import dequantize, quantize
from .bitstream import BitstreamError, read_bitstream, write_bitstream
from .rdo import (choose_mode, distortion_yuv, fit_lambda_model,
                  lambda_from_q)
from .codec import (DecodeResult, EncodeResult, FrameStats,
                    ReconstructedFrame, decode_sequence, encode_sequence)
from .metrics import bd_br, bpip, psnr
from .gmrf import (PrecisionEstimate, SimilarityReport, compare_to_laplacian,
                   empirical_precision, sample_gmrf)
from .synth import synthetic_sequence, write_synthetic_sequence

__version__ = "0.1.0"
