"""Acceptance suite: one test per release criterion, each printing a
pass line with its measured numbers.  Tolerances are fixed here, not
calibrated."""

import math
import time

import numpy as np

from pgft.codec import decode_sequence, encode_sequence
from pgft.coding import dequantize, quantize
from pgft.gmrf import compare_to_laplacian, empirical_precision, sample_gmrf
from pgft.graph import (build_epsilon_graph,
                        combinatorial_laplacian, estimate_normals,
                        generalized_laplacian)
from pgft.motion import find_correspondence, icp_register
from pgft.pointcloud import SequenceConfig, sequence_bounding_box, voxelize
from pgft.clustering import kmeans_geometry
from pgft.rdo import fit_lambda_model, lambda_from_q
from pgft.synth import synthetic_sequence
from pgft.transform import (_apply_q, eigendecompose, gft_forward,
                            gft_inverse)
from reference import brute_force_nearest, random_spatial_graph

# independently evaluated alpha * Q^beta (exp/log path)
LAMBDA_16 = math.exp(math.log(0.0624) + 1.6238 * math.log(16.0))
LAMBDA_32 = math.exp(math.log(0.0624) + 1.6238 * math.log(32.0))


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _random_cluster_laplacian(n, rng):
    """Random geometric cluster with random unit normals."""
    side = max(2.0, 2.0 * n ** (1.0 / 3.0))
    pts = rng.uniform(0.0, side, size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    g = build_epsilon_graph(pts, normals, epsilon_sq=9.0)
    return combinatorial_laplacian(g)


def test_criterion_01_transform_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_ortho = worst_spectral = worst_round = 0.0
    for _ in range(1000):
        n = int(rng.integers(10, 601))
        gen = generalized_laplacian(_random_cluster_laplacian(n, rng))
        basis = eigendecompose(gen)
        # The dense U = Q Z, Q applied to a copy of Z: one O(n^3)
        # product, where basis.synthesize(np.eye(n)) adds Z @ I.
        u = np.array(basis.vectors, order="F")
        _apply_q(basis.reflectors, basis.tau, u, b"N")
        eye = np.eye(n)
        worst_ortho = max(worst_ortho, np.linalg.norm(u.T @ u - eye, "fro"))
        worst_spectral = max(worst_spectral, np.linalg.norm(
            gen @ u - u * basis.eigenvalues, "fro"))
        f = rng.normal(size=n) * 100.0
        back = gft_inverse(gft_forward(f, basis), basis)
        worst_round = max(worst_round, float(np.max(np.abs(back - f))))
    elapsed = time.monotonic() - start
    assert worst_ortho < 1e-9
    assert worst_spectral < 1e-8
    assert worst_round < 1e-9
    assert elapsed < 120.0
    _report(1, f"1000 bases: ortho {worst_ortho:.2e}, spectral "
               f"{worst_spectral:.2e}, roundtrip {worst_round:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_02_predictor_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    n, count, ridge = 20, 10_000, 1e-3
    eye = np.eye(n)
    worst_rel_deg2 = math.inf
    checked_deg2 = 0
    for _ in range(50):
        p = rng.uniform(0.05, 0.35)
        lap = combinatorial_laplacian(random_spatial_graph(n, p, rng))
        lap_ref = combinatorial_laplacian(random_spatial_graph(n, p, rng))
        joint = np.block([[lap + eye, -eye], [-eye, lap_ref + eye]])
        joint += ridge * np.eye(2 * n)
        x = sample_gmrf(joint, count, rng=rng)
        xt, xr = x[:, :n], x[:, n:]
        pred = np.linalg.solve(lap + eye, xr.T).T
        mse_pred = float(np.mean((xt - pred) ** 2))
        mse_copy = float(np.mean((xt - xr) ** 2))
        edges = np.count_nonzero(np.triu(lap, 1))
        if edges >= 1:
            assert mse_pred < mse_copy
        if 2.0 * edges / n >= 2.0:
            rel = (mse_copy - mse_pred) / mse_copy
            worst_rel_deg2 = min(worst_rel_deg2, rel)
            checked_deg2 += 1
    elapsed = time.monotonic() - start
    assert checked_deg2 > 0
    assert worst_rel_deg2 >= 0.05
    assert elapsed < 300.0
    _report(2, f"50 graphs, min improvement at degree>=2: "
               f"{worst_rel_deg2:.1%} ({checked_deg2} graphs), {elapsed:.1f}s")


def test_criterion_03_ggft_decorrelation():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    gen = generalized_laplacian(
        combinatorial_laplacian(random_spatial_graph(20, 0.25, rng)))
    basis = eigendecompose(gen)
    residuals = sample_gmrf(gen, 10_000, rng=rng)
    coeffs = basis.project(residuals.T).T
    corr = np.corrcoef(coeffs, rowvar=False)
    max_off = float(np.max(np.abs(corr - np.diag(np.diag(corr)))))
    elapsed = time.monotonic() - start
    assert max_off < 0.1
    assert elapsed < 60.0
    _report(3, f"max off-diagonal coefficient correlation {max_off:.4f}, "
               f"{elapsed:.1f}s")


def test_criterion_04_lambda_q_model():
    assert lambda_from_q(1.0) == 0.0624
    # independently evaluated power law (LAMBDA_32 = 17.34808, so the
    # 17.35 display value is only reachable at 2-decimal rounding)
    assert abs(lambda_from_q(16.0) - LAMBDA_16) < 1e-3
    assert abs(lambda_from_q(32.0) - LAMBDA_32) < 1e-3
    assert abs(lambda_from_q(16.0) - 5.630) < 1e-3
    assert round(lambda_from_q(32.0), 2) == 17.35

    qs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    rates = [100.0 / q for q in qs]
    dists = [1.0]
    for i in range(len(qs) - 1):
        lam = 0.0624 * qs[i] ** 1.6238
        dists.append(dists[-1] - lam * (rates[i + 1] - rates[i]))
    alpha, beta = fit_lambda_model(list(zip(qs, rates, dists)))
    assert abs(alpha - 0.0624) / 0.0624 < 0.01
    assert abs(beta - 1.6238) / 1.6238 < 0.01
    _report(4, f"lambda(1)=0.0624 exact, lambda(16)={lambda_from_q(16.0):.4f}, "
               f"lambda(32)={lambda_from_q(32.0):.4f}, fit alpha="
               f"{alpha:.5f} beta={beta:.5f}")


def test_criterion_05_codec_roundtrip():
    frames = synthetic_sequence("wave", 4, point_count=1200, seed=5)
    config = SequenceConfig(grid_dim=64, qstep=1e-6)
    result = encode_sequence(frames, config)
    decoded = decode_sequence(result.data, frames)
    worst = 0.0
    for rec in decoded.recon:
        worst = max(worst, float(np.max(np.abs(rec.attributes
                                               - rec.frame.attributes))))
    assert worst < 1e-3

    # per-coefficient quantizer bound on real cluster coefficients
    box = sequence_bounding_box(frames[0])
    frame = voxelize(frames[0], 64, box)
    part = kmeans_geometry(frame, 600)
    members = part.members(0)
    pts = frame.voxel_coords[members].astype(np.float64)
    normals = estimate_normals(pts)
    lap = combinatorial_laplacian(build_epsilon_graph(pts, normals, 50.0))
    basis = eigendecompose(lap)
    coeffs = gft_forward(frame.attributes[members], basis)
    for qstep in (1e-6, 0.5, 8.0, 32.0):
        err = np.abs(dequantize(quantize(coeffs, qstep), qstep) - coeffs)
        assert np.max(err) <= qstep / 2

    # encoder-internal reconstruction identical to decoder output
    for enc, dec in zip(result.stats, decoded.stats):
        assert enc.mirror_hash == dec.mirror_hash
    for enc, dec in zip(result.recon, decoded.recon):
        assert np.array_equal(enc.attributes, dec.attributes)
    _report(5, f"near-lossless max voxel error {worst:.2e}; coefficient "
               f"error <= qstep/2; mirror hashes equal on 4 frames")


def test_criterion_06_inter_mode_efficacy():
    start = time.monotonic()
    static = synthetic_sequence("static", 2, point_count=2000, seed=0)
    config = SequenceConfig(grid_dim=192, qstep=8.0)
    result = encode_sequence(static, config)
    i_bits = result.stats[0].bits
    p_bits = result.stats[1].bits
    p = result.stats[1]
    inter_fraction = p.inter_clusters / (p.inter_clusters + p.intra_clusters)
    assert inter_fraction >= 0.5
    assert p_bits <= 0.30 * i_bits

    moving = synthetic_sequence("rigid-motion", 2, point_count=2000, seed=0)
    cfg_p = SequenceConfig(grid_dim=128, qstep=8.0)
    cfg_intra = SequenceConfig(grid_dim=128, qstep=8.0, gop_size=1)
    bits_p = encode_sequence(moving, cfg_p).stats[1].bits
    bits_intra_only = encode_sequence(moving, cfg_intra).stats[1].bits
    assert bits_p < bits_intra_only
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _report(6, f"static: P/I = {p_bits}/{i_bits} = {p_bits / i_bits:.2f}, "
               f"inter {inter_fraction:.0%}; rigid: {bits_p} < "
               f"{bits_intra_only} intra-only bits, {elapsed:.1f}s")


def test_criterion_07_rate_monotonicity():
    frames = synthetic_sequence("wave", 4, point_count=1500, seed=2)
    total_points = sum(f.point_count for f in frames)
    rates, psnrs = [], []
    for qstep in (2.0, 4.0, 8.0, 16.0, 32.0):
        config = SequenceConfig(grid_dim=64, qstep=qstep)
        result = encode_sequence(frames, config)
        decoded = decode_sequence(result.data, frames)
        rates.append(result.total_bits / total_points)
        psnrs.append(float(np.mean([s.psnr_y for s in decoded.stats])))
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert all(b < a for a, b in zip(psnrs, psnrs[1:]))
    _report(7, "qstep 2->32: bpip " + " > ".join(f"{r:.2f}" for r in rates)
               + "; psnr strictly decreasing")


def test_criterion_08_motion_oracle():
    rng = np.random.default_rng(88)
    target = rng.uniform(0, 50, size=(150, 3))
    source = target + np.array([4.0, -1.0, 2.5])
    _, translation, _ = icp_register(source, target)
    assert np.max(np.abs(translation - [-4.0, 1.0, -2.5])) < 1e-6

    angle = math.radians(8.0)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    source = target @ rot.T
    rotation, _, _ = icp_register(source, target)
    residual = rotation @ rot
    err = math.acos(min(1.0, (np.trace(residual) - 1.0) / 2.0))
    assert err < 1e-4

    mismatches = 0
    for i in range(100):
        n_c = int(rng.integers(5, 120))
        n_r = int(rng.integers(1, 150))
        if i % 2 == 0:  # integer grids force distance ties
            cluster = rng.integers(0, 8, size=(n_c, 3)).astype(np.float64)
            ref = rng.integers(0, 8, size=(n_r, 3)).astype(np.float64)
        else:
            cluster = rng.uniform(0, 20, size=(n_c, 3))
            ref = rng.uniform(0, 20, size=(n_r, 3))
        ref_index = find_correspondence(cluster, ref)
        if not np.array_equal(ref_index, brute_force_nearest(cluster, ref)):
            mismatches += 1
    assert mismatches == 0
    _report(8, "ICP translation/rotation within tolerance; correspondence "
               "matched brute force on 100/100 instances")


def test_criterion_09_precision_matrix_study():
    rng = np.random.default_rng(11)
    n = 20
    lap = generalized_laplacian(
        combinatorial_laplacian(random_spatial_graph(n, 0.12, rng)))
    samples = sample_gmrf(lap, 10 * n, rng=rng)
    report = compare_to_laplacian(empirical_precision(samples), lap)
    assert report.support_correlation > 0.8
    _report(9, f"support correlation {report.support_correlation:.3f} with "
               f"{10 * n} samples on {report.support_size} edges")


def test_criterion_10_determinism():
    frames = synthetic_sequence("wave", 3, point_count=1000, seed=9)
    config = SequenceConfig(grid_dim=64, qstep=8.0)
    first = encode_sequence(frames, config)
    second = encode_sequence(frames, config)
    assert first.data == second.data
    threaded = encode_sequence(frames, config, threads=4)
    assert threaded.data == first.data
    dec_1 = decode_sequence(first.data, frames, threads=1)
    dec_4 = decode_sequence(first.data, frames, threads=4)
    for a, b in zip(dec_1.recon, dec_4.recon):
        assert np.array_equal(a.attributes, b.attributes)
    for a, b in zip(dec_1.point_attributes, dec_4.point_attributes):
        assert np.array_equal(a, b)
    _report(10, "byte-identical encodes (1 and 4 threads); decode "
                "schedule-independent")
