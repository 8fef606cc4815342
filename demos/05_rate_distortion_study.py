"""Rate-distortion sweep, BD-rate comparison, and lambda-Q refit.

Encodes the same content over a quantization ladder, compares the
inter-enabled codec against an intra-only configuration via the
Bjontegaard metric, and refits the power-law Lagrange model from the
measured curve.  The codec keeps its shipped constants `rdo.ALPHA` and
`rdo.BETA`; adopting a refit means editing them.
"""

import numpy as np

from pgft.codec import encode_sequence
from pgft.metrics import bd_br, bpip
from pgft.pointcloud import SequenceConfig
from pgft.rdo import ALPHA, BETA, distortion_from_psnr, fit_lambda_model
from pgft.synth import synthetic_sequence

frames = synthetic_sequence("rigid-motion", 4, point_count=2000, seed=3)
points = sum(f.point_count for f in frames)
ladder = (2.0, 4.0, 8.0, 16.0, 32.0)


def sweep(gop_size):
    """(bpip, mean PSNR-Y, mean PSNR-U, mean PSNR-V) per ladder step."""
    curve = []
    for qstep in ladder:
        config = SequenceConfig(grid_dim=128, qstep=qstep, gop_size=gop_size)
        result = encode_sequence(frames, config)  # its stats are the decoder's
        rate = bpip(result.total_bits, points)
        psnrs = np.mean([(s.psnr_y, s.psnr_u, s.psnr_v) for s in result.stats],
                        axis=0)
        curve.append((rate, *psnrs.tolist()))
    return curve


print("sweeping inter-enabled configuration (GOP 8)...")
inter_curve = sweep(gop_size=8)
print("sweeping intra-only configuration (GOP 1)...")
intra_curve = sweep(gop_size=1)

print("\n q     inter bpip/PSNR      intra-only bpip/PSNR")
for q, (rate_a, psnr_a, *_), (rate_b, psnr_b, *_) in zip(ladder, inter_curve,
                                                         intra_curve):
    print(f"{q:4.0f}   {rate_a:6.3f} / {psnr_a:5.2f}     "
          f"{rate_b:6.3f} / {psnr_b:5.2f}")

delta = bd_br([c[:2] for c in intra_curve], [c[:2] for c in inter_curve])
print(f"\nBD-BR of inter coding vs intra-only: {delta:+.1f}% "
      f"(negative = bitrate saved at equal quality)")

# refit the Lagrange model from the measured curve, against the Y/U/V
# distortion the mode decision uses (as `pgft rd-sweep` does)
rd_points = [(q, rate, distortion_from_psnr(*psnrs))
             for q, (rate, *psnrs) in zip(ladder, inter_curve)]
alpha, beta = fit_lambda_model(rd_points)
print(f"refit lambda-Q on this content: alpha={alpha:.4f} "
      f"beta={beta:.4f} (shipped defaults {ALPHA} / {BETA})")
