import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from pgft.bitstream import read_bitstream, write_bitstream
from pgft.pointcloud import (MAX_CLUSTER_SIZE, RawPointCloud, SequenceConfig,
                             devoxelize, read_ply, rgb_to_yuv,
                             sequence_bounding_box, voxelize, write_ply,
                             yuv_to_rgb)


def _ascii_ply(positions, colors):
    """ASCII PLY text of vertices with x,y,z float + red,green,blue uchar
    (`write_ply` writes binary only)."""
    rows = [p + c for p, c in zip(np.asarray(positions).tolist(),
                                  np.asarray(colors).tolist())]
    return ("ply\nformat ascii 1.0\n"
            f"element vertex {len(rows)}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n" + "".join(" ".join(map(str, r)) + "\n"
                                     for r in rows))


def _voxelized(pos, col, grid_dim):
    raw = RawPointCloud(pos, col)
    return voxelize(raw, grid_dim, sequence_bounding_box(raw))


_MINIMAL_ASCII = _ascii_ply([[0, 0, 0]], [[128, 128, 128]])


def test_read_ply_minimal_ascii(tmp_path):
    path = tmp_path / "one.ply"
    path.write_text(_MINIMAL_ASCII)
    raw = read_ply(path)
    assert raw.point_count == 1
    assert np.allclose(raw.positions[0], [0, 0, 0])
    assert np.array_equal(raw.colors[0], [128, 128, 128])


def test_read_ply_missing_color(tmp_path):
    path = tmp_path / "nocolor.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n")
    with pytest.raises(ValueError, match="missing color"):
        read_ply(path)


def test_read_ply_bad_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"pyl\nformat ascii 1.0\nend_header\n")
    with pytest.raises(ValueError, match="magic"):
        read_ply(path)


def _ply_claiming(tmp_path, count, binary=True, cut=0):
    """A 3-vertex PLY whose header claims `count` vertices, with the last
    `cut` bytes of its vertex data removed."""
    path = tmp_path / "cloud.ply"
    positions, colors = np.arange(9.0).reshape(3, 3), np.full((3, 3), 7)
    if binary:
        write_ply(path, positions, colors)
    else:
        path.write_text(_ascii_ply(positions, colors))
    data = path.read_bytes().replace(b"element vertex 3\n",
                                     f"element vertex {count}\n".encode())
    path.write_bytes(data[:len(data) - cut])
    return path


@pytest.mark.parametrize("binary", [False, True])
def test_read_ply_negative_count_rejected(tmp_path, binary):
    with pytest.raises(ValueError, match="negative count -1"):
        read_ply(_ply_claiming(tmp_path, -1, binary))


@pytest.mark.parametrize("good, line", [
    ("format ascii 1.0", "format"),
    ("element vertex 1", "element vertex"),
    ("element vertex 1", "element vertex abc"),
    ("property float x", "property float")])
def test_read_ply_malformed_header_line_named(tmp_path, good, line):
    path = tmp_path / "bad_header.ply"
    path.write_text(_MINIMAL_ASCII.replace(good, line))
    with pytest.raises(ValueError, match=f"^malformed PLY header: '{line}'$"):
        read_ply(path)


@pytest.mark.parametrize("line, message", [
    pytest.param("4 5 6 7 8", r"5 of 6 values$", id="short"),
    pytest.param("", r"0 of 6 values$", id="empty"),
    pytest.param("1 1 abc 4 5 6",
                 r"could not convert string to float: b'abc'$",
                 id="non-numeric")])
def test_read_ply_short_ascii_vertex_named(tmp_path, line, message):
    path = tmp_path / "short.ply"
    path.write_text(_ascii_ply([[0, 0, 0], [1, 2, 3]],
                               [[1, 2, 3], [4, 5, 6]]).replace("1 2 3 4 5 6",
                                                               line))
    with pytest.raises(ValueError, match="^malformed PLY vertex 1: " + message):
        read_ply(path)


@pytest.mark.parametrize("count, cut", [
    pytest.param(4, 0, id="count-above-data"),
    pytest.param(3, 1, id="cut-mid-vertex")])
def test_read_ply_binary_short_data_rejected(tmp_path, count, cut):
    with pytest.raises(ValueError, match="truncated PLY vertex data"):
        read_ply(_ply_claiming(tmp_path, count, cut=cut))


def test_read_ply_huge_count_rejected_before_allocating(tmp_path):
    path = _ply_claiming(tmp_path, 10**12)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated PLY vertex data"):
            read_ply(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ply_binary_roundtrip_1000(tmp_path):
    rng = np.random.default_rng(0)
    pos = rng.uniform(-50, 50, size=(1000, 3)).astype(np.float32)
    col = rng.integers(0, 256, size=(1000, 3), dtype=np.uint8)
    path = tmp_path / "cloud.ply"
    write_ply(path, pos, col)
    raw = read_ply(path)
    assert np.array_equal(raw.positions, pos.astype(np.float64))
    assert np.array_equal(raw.colors, col)


def test_ply_ascii_roundtrip(tmp_path):
    pos = np.array([[1.5, -2.25, 3.0], [0.0, 0.5, -1.0]], dtype=np.float32)
    col = np.array([[1, 2, 3], [250, 251, 252]], dtype=np.uint8)
    path = tmp_path / "cloud_ascii.ply"
    path.write_text(_ascii_ply(pos, col))
    raw = read_ply(path)
    assert np.array_equal(raw.positions, pos.astype(np.float64))
    assert np.array_equal(raw.colors, col)


@pytest.mark.parametrize("bad, rows", [
    pytest.param(np.nan, [1], id="nan"),
    pytest.param(np.inf, [1], id="inf"),
    pytest.param(-np.inf, [1], id="-inf"),
    pytest.param(np.nan, [3, 2], id="first-of-two")])
def test_non_finite_positions_rejected(bad, rows):
    positions = np.zeros((4, 3))
    positions[rows, 2] = bad
    with pytest.raises(ValueError, match=rf"^positions must be finite: "
                                         rf"point {min(rows)} is not$"):
        RawPointCloud(positions, np.zeros((4, 3), dtype=np.uint8))


@pytest.mark.parametrize("field", [
    "grid_dim", "target_cluster_size", "gop_size", "qstep"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0, -1])
def test_config_requires_finite_positive_fields(field, value):
    with pytest.raises(ValueError, match=f"{field}=.* finite and positive"):
        SequenceConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    pytest.param("grid_dim", "7", "must be a real number", id="str"),
    pytest.param("qstep", None, "must be a real number", id="none"),
    pytest.param("gop_size", True, "must be a real number", id="bool"),
    pytest.param("qstep", np.True_, "must be a real number", id="numpy-bool"),
    pytest.param("grid_dim", 10**400,
                 "does not fit the stream header's int32 field", id="huge-int"),
    pytest.param("qstep", 10**400,
                 "does not fit the stream header's float64 field",
                 id="huge-int-in-float-slot"),
    pytest.param("qstep", -10**400, "finite and positive",
                 id="huge-negative-int"),
    pytest.param("grid_dim", 2**31,
                 "does not fit the stream header's int32 field", id="int32-max+1"),
    pytest.param("target_cluster_size", 2**32,
                 "does not fit the stream header's uint32 field",
                 id="uint32-max+1"),
    pytest.param("gop_size", 65536,
                 "does not fit the stream header's uint16 field",
                 id="uint16-max+1"),
    pytest.param("grid_dim", np.int64(2**31),
                 "does not fit the stream header's int32 field",
                 id="numpy-int64-over"),
    pytest.param("target_cluster_size", np.uint64(2**64 - 1),
                 "does not fit the stream header's uint32 field",
                 id="numpy-uint64-max"),
    pytest.param("gop_size", np.float32(8),
                 "does not fit the stream header's uint16 field",
                 id="numpy-float32-in-int-slot"),
    pytest.param("gop_size", 8.0,
                 "does not fit the stream header's uint16 field",
                 id="float-in-int-slot"),
    pytest.param("qstep", int(sys.float_info.max) + 2**970,
                 "does not fit the stream header's float64 field",
                 id="int-half-ulp-above-float-max"),
    pytest.param("target_cluster_size", MAX_CLUSTER_SIZE + 1,
                 f"exceeds the limit of {MAX_CLUSTER_SIZE}",
                 id="cluster-size-limit+1"),
    pytest.param("target_cluster_size", 2**32 - 1,
                 f"exceeds the limit of {MAX_CLUSTER_SIZE}", id="uint32-max"),
])
def test_config_rejects_wrong_types_by_name(field, value, message):
    with pytest.raises(ValueError, match=f"^{field}=.* {message}$"):
        SequenceConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("grid_dim", 2**31 - 1), ("target_cluster_size", MAX_CLUSTER_SIZE),
    ("gop_size", 65535), ("qstep", 1e308), ("qstep", sys.float_info.max),
    ("grid_dim", np.int64(7)), ("qstep", np.uint64(2**64 - 1)),
    ("qstep", np.float32(8)), ("qstep", np.float32(3e38))])
def test_config_accepts_what_its_header_slot_holds(field, value):
    config = SequenceConfig(**{field: value})
    assert getattr(config, field) is value


def test_float_slot_takes_an_int_that_rounds_to_float_max():
    """The config asks the header's packer, so an integer less than half
    an ulp above float64's maximum fits: it packs as that maximum, which
    the stream then holds.  (A hand-written `<= float max` rule refused
    it.)"""
    value = int(sys.float_info.max) + 2**970 - 1
    config = SequenceConfig(qstep=value)
    decoded, _ = read_bitstream(write_bitstream(config, []))
    assert decoded.qstep == sys.float_info.max


def test_default_config_valid():
    SequenceConfig()
    SequenceConfig(grid_dim=np.int64(7), qstep=np.float32(8))


def test_config_is_checked_whenever_it_is_built():
    """A config is frozen, and `dataclasses.replace` builds a new one,
    which is checked like any other, so no invalid config exists."""
    config = SequenceConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.qstep = -1.0
    with pytest.raises(ValueError, match="^qstep=-1.0 must be finite and "
                                         "positive$"):
        dataclasses.replace(config, qstep=-1.0)
    assert config == SequenceConfig()


BAD_COLORS = [
    pytest.param("nan", "finite", id="nan"),
    pytest.param("12.7", "integers", id="fractional"),
    pytest.param("256", r"\[0, 255\]", id="above-range"),
    pytest.param("-1", r"\[0, 255\]", id="below-range"),
]


@pytest.mark.parametrize("value, message", BAD_COLORS)
def test_bad_colors_rejected(value, message):
    colors = [[12.0, 0.0, 254.0], [1.0, 2.0, float(value)]]
    with pytest.raises(ValueError, match=message):
        RawPointCloud(np.zeros((2, 3)), colors)


@pytest.mark.parametrize("ctype", ["uchar", "float"])
@pytest.mark.parametrize("value, message", BAD_COLORS)
def test_read_ply_bad_colors_rejected(tmp_path, ctype, value, message):
    path = tmp_path / "bad_color.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"property {ctype} red\nproperty {ctype} green\n"
        f"property {ctype} blue\nend_header\n"
        f"0 0 0 12 0 254\n1 1 1 1 2 {value}\n")
    with pytest.raises(ValueError, match=message):
        read_ply(path)


def test_integral_float_colors_accepted():
    raw = RawPointCloud(np.zeros((2, 3)), [[12.0, 0.0, 254.0], [1.0, 2.0, 255.0]])
    assert raw.colors.dtype == np.uint8
    assert raw.colors.tolist() == [[12, 0, 254], [1, 2, 255]]


def test_rgb_to_yuv_gray_fixed_point():
    assert np.allclose(rgb_to_yuv([[128, 128, 128]]), [[128, 128, 128]])


def test_rgb_to_yuv_white():
    assert np.allclose(rgb_to_yuv([[255, 255, 255]]), [[255, 128, 128]])


def test_rgb_to_yuv_red_with_clamp():
    (yuv,) = rgb_to_yuv([[255, 0, 0]])
    assert yuv[0] == pytest.approx(76.245)
    assert yuv[1] == pytest.approx(84.97232)
    assert yuv[2] == 255.0  # 255.5 clamped


def test_rgb_yuv_roundtrip_random():
    rng = np.random.default_rng(123)
    rgb = rng.integers(0, 256, size=(100_000, 3))
    back = yuv_to_rgb(rgb_to_yuv(rgb))
    assert np.max(np.abs(back - rgb)) <= 0.5


def test_voxelize_single_point_warns():
    raw = RawPointCloud(np.array([[3.7, -1.2, 9.9]]),
                        np.array([[200, 100, 50]], dtype=np.uint8))
    with pytest.warns(UserWarning, match="degenerate"):
        frame = voxelize(raw, 4096, sequence_bounding_box(raw))
    assert frame.voxel_count == 1
    assert np.array_equal(frame.voxel_coords[0], [0, 0, 0])
    assert np.allclose(frame.attributes + 128.0, rgb_to_yuv(raw.colors))


def test_voxelize_clamps_far_points_to_the_grid():
    """A later frame's points far outside frame 0's box land in the
    corner voxels, not wrapped into voxel 0 by an overflowing cast."""
    raw = RawPointCloud(np.array([[1e17] * 3, [-1e17] * 3, [0.5] * 3]),
                        np.zeros((3, 3), dtype=np.uint8))
    frame = voxelize(raw, 4096, (np.zeros(3), np.ones(3)))
    coords = frame.voxel_coords[frame.point_map]
    assert coords.tolist() == [[4095] * 3, [0] * 3, [2047] * 3]


def test_voxelize_refuses_box_of_infinite_extent():
    """Finite positions whose span overflows float64 give a box of
    infinite extent, which no scale maps onto the grid."""
    raw = RawPointCloud(np.array([[1e308] * 3, [-1e308] * 3]),
                        np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="^bounding box extent inf is not "
                                         "finite$"):
        voxelize(raw, 4096, sequence_bounding_box(raw))


def test_voxelize_frame_near_float64_max():
    """A finite frame whose corners sum past float64's maximum still
    has a finite box centre, so it voxelizes."""
    raw = RawPointCloud(np.array([[1.6e308, 0.0, 0.0], [1.7e308, 1.0, 1.0]]),
                        np.zeros((2, 3), dtype=np.uint8))
    frame = voxelize(raw, 4096, sequence_bounding_box(raw))
    coords = frame.voxel_coords[frame.point_map]
    # box x: 1.65e308 -+ 1.05 * 0.05e308, mapped onto 4095 voxel widths
    assert coords[:, 0].tolist() == [97, 3997]


def test_voxelize_mean_of_two():
    # gray colors make Y equal the channel value
    pos = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [10.0, 10.0, 10.0]])
    col = np.array([[100] * 3, [200] * 3, [50] * 3], dtype=np.uint8)
    frame = _voxelized(pos, col, 8)
    shared = frame.point_map[0]
    assert frame.point_map[1] == shared
    assert frame.attributes[shared, 0] + 128.0 == pytest.approx(150.0)


def test_voxelize_geometric_accuracy():
    rng = np.random.default_rng(7)
    pos = rng.uniform(-100, 100, size=(10_000, 3))
    col = rng.integers(0, 256, size=(10_000, 3), dtype=np.uint8)
    raw = RawPointCloud(pos, col)
    lo, hi = sequence_bounding_box(raw)
    frame = voxelize(raw, 4096, (lo, hi))
    scale = (4096 - 1) / np.max(hi - lo)
    scaled = (pos - lo) * scale
    centers = frame.voxel_coords[frame.point_map] + 0.5
    dist = np.linalg.norm(scaled - centers, axis=1)
    assert np.max(dist) <= np.sqrt(3.0) / 2.0 + 1e-9


def test_voxelize_deterministic_and_order_invariant():
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 10, size=(500, 3))
    col = rng.integers(0, 256, size=(500, 3), dtype=np.uint8)
    raw = RawPointCloud(pos, col)
    box = sequence_bounding_box(raw)
    a = voxelize(raw, 64, box)
    b = voxelize(raw, 64, box)
    assert np.array_equal(a.voxel_coords, b.voxel_coords)
    assert np.array_equal(a.point_map, b.point_map)
    # Unique and in lexicographic order: the canonical voxel order that
    # kmeans_geometry takes.
    assert np.array_equal(a.voxel_coords, np.unique(a.voxel_coords, axis=0))
    x, y, z = a.voxel_coords.T
    assert np.array_equal(np.lexsort((z, y, x)), np.arange(a.voxel_count))

    perm = rng.permutation(500)
    c = voxelize(RawPointCloud(pos[perm], col[perm]), 64, box)
    assert np.array_equal(a.voxel_coords, c.voxel_coords)
    assert np.array_equal(a.point_map[perm], c.point_map)


def test_devoxelize_shared_voxel():
    pos = np.zeros((3, 3))
    pos[2, 0] = 5.0
    col = np.array([[100] * 3, [150] * 3, [200] * 3], dtype=np.uint8)
    frame = _voxelized(pos, col, 16)
    out = devoxelize(frame.attributes, frame.point_map, 3)
    assert np.allclose(out[0], out[1])
    assert out[0, 0] == pytest.approx(125.0)


def test_devoxelize_empty():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    col = np.array([[10] * 3, [20] * 3], dtype=np.uint8)
    frame = _voxelized(pos, col, 16)
    out = devoxelize(frame.attributes, np.empty(0, dtype=np.int64), 0)
    assert out.shape == (0, 3)


def test_devoxelize_bad_map():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    col = np.array([[10] * 3, [20] * 3], dtype=np.uint8)
    frame = _voxelized(pos, col, 16)
    with pytest.raises(ValueError, match="out of range"):
        devoxelize(frame.attributes, np.array([0, 99]), 2)


def test_projection_idempotence():
    """Voxel averaging is a projection: re-averaging the devoxelized
    attributes reproduces the voxel attributes exactly."""
    rng = np.random.default_rng(11)
    pos = rng.uniform(0, 4, size=(300, 3))
    col = rng.integers(0, 256, size=(300, 3), dtype=np.uint8)
    frame = _voxelized(pos, col, 8)
    per_point = devoxelize(frame.attributes, frame.point_map, 300)
    for v in range(frame.voxel_count):
        members = frame.point_map == v
        assert np.allclose(per_point[members].mean(axis=0),
                           frame.attributes[v] + 128.0)
