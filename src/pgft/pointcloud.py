"""Point cloud ingestion, color conversion, and voxel grid mapping.

Attributes are carried as full-range BT.601 YUV, stored mid-level
centered (value - 128) so that smooth surfaces produce near-zero-mean
cluster signals.  All grid mapping is a pure function of geometry and
the grid dimension, which lets the decoder rebuild it exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rdo import DEFAULT_ALPHA, DEFAULT_BETA

MID_LEVEL = 128.0

# Full-range BT.601 (Kr=0.299, Kg=0.587, Kb=0.114).
_RGB_TO_YUV = np.array([
    [0.299, 0.587, 0.114],
    [-0.168736, -0.331264, 0.5],
    [0.5, -0.418688, -0.081312],
])
_YUV_TO_RGB = np.linalg.inv(_RGB_TO_YUV)
_CHROMA_OFFSET = np.array([0.0, 128.0, 128.0])


@dataclass(frozen=True)
class RawPointCloud:
    """A single frame in source units: positions plus 8-bit RGB colors."""

    positions: np.ndarray  # (n, 3) float64
    colors: np.ndarray     # (n, 3) uint8

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        col = np.asarray(self.colors)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (n, 3)")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if col.shape != pos.shape:
            raise ValueError("positions and colors must have equal length")
        if col.dtype.kind not in "biu":
            col = col.astype(np.float64)
            if not np.all(np.isfinite(col)):
                raise ValueError("colors must be finite")
            if np.any(col != np.floor(col)):
                raise ValueError("colors must be integers")
        if col.size and (col.min() < 0 or col.max() > 255):
            raise ValueError("color channels must be in [0, 255]")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col.astype(np.uint8))

    @property
    def point_count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class VoxelizedFrame:
    """Occupied voxels of one frame on an N^3 grid.

    voxel_coords are unique and lexicographically sorted; this order is
    the canonical voxel order used throughout the codec.  attributes are
    mid-level-centered YUV means per voxel.  point_map sends each
    original point to the index of its voxel.
    """

    voxel_coords: np.ndarray  # (v, 3) int32, sorted, unique
    attributes: np.ndarray    # (v, 3) float64, YUV - 128
    grid_dim: int
    point_map: np.ndarray     # (n,) int64

    @property
    def voxel_count(self) -> int:
        return self.voxel_coords.shape[0]


@dataclass
class SequenceConfig:
    """Coding parameters shared by the encoder and decoder.

    qstep is the uniform quantization step and doubles as the quality
    factor driving the Lagrange multiplier model.
    """

    grid_dim: int = 4096
    target_cluster_size: int = 600
    epsilon_sq: float = 50.0
    sigma_sq: float = 0.4
    normal_k: int = 15
    box_expand: float = 3.0
    gop_size: int = 8
    qstep: float = 8.0
    lambda_alpha: float = DEFAULT_ALPHA
    lambda_beta: float = DEFAULT_BETA

    def validate(self):
        for name in ("grid_dim", "target_cluster_size", "epsilon_sq",
                     "sigma_sq", "normal_k", "box_expand", "gop_size",
                     "qstep", "lambda_alpha", "lambda_beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name}={value!r} must be finite and positive")
        if self.gop_size < 1:
            raise ValueError("gop_size must be >= 1")
        return self


def rgb_to_yuv(rgb) -> np.ndarray:
    """Convert 8-bit RGB to full-range YUV, clamped to [0, 255].

    Works on a single (3,) triple or an (n, 3) array.
    """
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.ndim == 1:
        return rgb_to_yuv(arr[None, :])[0]
    if arr.min(initial=0.0) < 0 or arr.max(initial=0.0) > 255:
        raise ValueError("RGB channels must be in [0, 255]")
    yuv = arr @ _RGB_TO_YUV.T + _CHROMA_OFFSET
    return np.clip(yuv, 0.0, 255.0)


def yuv_to_rgb(yuv) -> np.ndarray:
    """Inverse of rgb_to_yuv; output clamped to [0, 255] (still float)."""
    arr = np.asarray(yuv, dtype=np.float64)
    if arr.ndim == 1:
        return yuv_to_rgb(arr[None, :])[0]
    rgb = (arr - _CHROMA_OFFSET) @ _YUV_TO_RGB.T
    return np.clip(rgb, 0.0, 255.0)


def sequence_bounding_box(raw: RawPointCloud, margin: float = 0.05):
    """Axis-aligned bounding box of a frame, expanded by a relative margin.

    Computed once on the first frame of a sequence and reused for every
    frame so voxel coordinates are temporally comparable.
    """
    lo = raw.positions.min(axis=0)
    hi = raw.positions.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0 * (1.0 + margin)
    return center - half, center + half


def voxelize(raw: RawPointCloud, grid_dim: int, box=None) -> VoxelizedFrame:
    """Map points onto the integer grid and average attributes per voxel.

    One shared uniform scale maps the bounding box into [0, grid_dim-1]^3;
    points are binned by floor and clamped at the upper boundary.
    """
    if raw.point_count < 1:
        raise ValueError("cannot voxelize an empty point cloud")
    if box is None:
        box = sequence_bounding_box(raw)
    lo, hi = np.asarray(box[0], dtype=np.float64), np.asarray(box[1], dtype=np.float64)
    extent = float(np.max(hi - lo))
    if extent <= 0.0:
        warnings.warn("degenerate bounding box; all points fall in one voxel")
        coords = np.zeros((raw.point_count, 3), dtype=np.int32)
    else:
        scale = (grid_dim - 1) / extent
        coords = np.floor((raw.positions - lo) * scale).astype(np.int64)
        coords = np.clip(coords, 0, grid_dim - 1).astype(np.int32)

    # np.unique over rows sorts lexicographically -> canonical voxel order.
    voxel_coords, point_map = np.unique(coords, axis=0, return_inverse=True)
    point_map = point_map.reshape(-1).astype(np.int64)

    yuv = rgb_to_yuv(raw.colors) - MID_LEVEL
    v = voxel_coords.shape[0]
    sums = np.zeros((v, 3))
    np.add.at(sums, point_map, yuv)
    counts = np.bincount(point_map, minlength=v).astype(np.float64)
    attributes = sums / counts[:, None]

    return VoxelizedFrame(voxel_coords=voxel_coords, attributes=attributes,
                          grid_dim=grid_dim, point_map=point_map)


def devoxelize(frame: VoxelizedFrame, point_map: np.ndarray, raw_count: int) -> np.ndarray:
    """Spread decoded voxel attributes back onto the original points.

    Returns (raw_count, 3) YUV in [0, 255].
    """
    point_map = np.asarray(point_map, dtype=np.int64)
    if point_map.shape[0] != raw_count:
        raise ValueError("point_map does not cover raw_count points")
    if raw_count == 0:
        return np.empty((0, 3))
    if point_map.min() < 0 or point_map.max() >= frame.voxel_count:
        raise ValueError("point_map index out of range")
    yuv = frame.attributes[point_map] + MID_LEVEL
    return np.clip(yuv, 0.0, 255.0)


# ---------------------------------------------------------------------------
# PLY reader / writer (vertex x,y,z float + red,green,blue uchar)
# ---------------------------------------------------------------------------

_PLY_SCALARS = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _parse_ply_header(fh):
    """Returns (format, elements) where elements is a list of
    (name, count, [(prop_name, np_type), ...])."""
    magic = fh.readline().strip()
    if magic != b"ply":
        raise ValueError("not a PLY file (bad magic)")
    fmt = None
    elements = []
    while True:
        line = fh.readline()
        if not line:
            raise ValueError("malformed PLY header: missing end_header")
        tokens = line.decode("ascii", "replace").split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1] == "ascii":
                fmt = "ascii"
            elif tokens[1] == "binary_little_endian":
                fmt = "binary"
            else:
                raise ValueError(f"unsupported PLY format {tokens[1]!r}")
        elif tokens[0] == "element":
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise ValueError("malformed PLY header: property before element")
            if tokens[1] == "list":
                elements[-1][2].append((tokens[-1], "list"))
            else:
                if tokens[1] not in _PLY_SCALARS:
                    raise ValueError(f"unsupported PLY property type {tokens[1]!r}")
                elements[-1][2].append((tokens[2], _PLY_SCALARS[tokens[1]]))
        elif tokens[0] == "end_header":
            break
    if fmt is None:
        raise ValueError("malformed PLY header: no format line")
    return fmt, elements


def read_ply(path) -> RawPointCloud:
    """Read a PLY file (ASCII or binary little-endian) with colored vertices."""
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh)
        vertex = None
        for name, count, props in elements:
            if name == "vertex":
                vertex = (count, props)
                break
            # skip a preceding non-vertex element
            if any(t == "list" for _, t in props):
                raise ValueError("unsupported PLY layout: list element before vertex")
            if fmt == "ascii":
                for _ in range(count):
                    fh.readline()
            else:
                itemsize = sum(np.dtype(t).itemsize for _, t in props)
                fh.seek(count * itemsize, 1)
        if vertex is None:
            raise ValueError("malformed PLY: no vertex element")
        count, props = vertex
        names = [n for n, _ in props]
        for req in ("x", "y", "z"):
            if req not in names:
                raise ValueError("malformed PLY: missing coordinate property")
        for req in ("red", "green", "blue"):
            if req not in names:
                raise ValueError("missing color properties (red/green/blue)")
        if any(t == "list" for _, t in props):
            raise ValueError("unsupported PLY layout: list property on vertex")

        dtype = np.dtype([(n, "<" + t) for n, t in props])
        if fmt == "binary":
            data = np.frombuffer(fh.read(count * dtype.itemsize), dtype=dtype,
                                 count=count)
            if data.shape[0] != count:
                raise ValueError("truncated PLY vertex data")
        else:
            rows = []
            for _ in range(count):
                line = fh.readline()
                if not line:
                    raise ValueError("truncated PLY vertex data")
                rows.append(tuple(line.split()[: len(props)]))
            # Colours parse as float so RawPointCloud can reject any value
            # that is not an integer in [0, 255].
            data = np.array(rows, dtype=[
                (n, "<f8" if n in ("red", "green", "blue") else "<" + t)
                for n, t in props])

    positions = np.stack([data["x"], data["y"], data["z"]], axis=1).astype(np.float64)
    colors = np.stack([data["red"], data["green"], data["blue"]], axis=1)
    return RawPointCloud(positions=positions, colors=colors)


def write_ply(path, positions, colors, binary: bool = True):
    """Write vertices as x,y,z float32 + red,green,blue uchar."""
    positions = np.asarray(positions, dtype=np.float32)
    colors = np.asarray(colors, dtype=np.uint8)
    if positions.shape != colors.shape:
        raise ValueError("positions and colors must have equal shape")
    n = positions.shape[0]
    header = [
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            rec = np.empty(n, dtype=np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                                              ("r", "u1"), ("g", "u1"), ("b", "u1")]))
            rec["x"], rec["y"], rec["z"] = positions.T
            rec["r"], rec["g"], rec["b"] = colors.T
            fh.write(rec.tobytes())
        else:
            for p, c in zip(positions, colors):
                fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} "
                         f"{c[0]} {c[1]} {c[2]}\n".encode("ascii"))
