"""Point cloud ingestion, color conversion, and voxel grid mapping.

Attributes are carried as full-range BT.601 YUV, stored mid-level
centered (value - 128) so that smooth surfaces produce near-zero-mean
cluster signals.  All grid mapping is a pure function of geometry and
the grid dimension, which lets the decoder rebuild it exactly.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

MID_LEVEL = 128.0
BOX_MARGIN = 0.05  # relative growth of the sequence bounding box
# The largest target_cluster_size a config (and so a stream header) may
# ask for.  Each cluster costs one dense n x n eigendecomposition; at one
# OpenBLAS thread `eigh` took 0.07 s at the default 600 (51 MiB peak
# RSS), 2.0 s at 2048 (a 32 MiB matrix, 201 MiB) and 16.5 s at 4096
# (686 MiB).
MAX_CLUSTER_SIZE = 2048

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
        bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
        if bad.size:
            raise ValueError(f"positions must be finite: point {bad[0]} is not")
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
    point_map: np.ndarray     # (n,) int64

    @property
    def voxel_count(self) -> int:
        return self.voxel_coords.shape[0]


@dataclass(frozen=True)
class SequenceConfig:
    """Coding parameters, and the stream header.

    Every field names its struct code under the "header" metadata key
    and is written to the stream header in field order
    (`bitstream._HEADER`), so the decoder rebuilds the config from the
    stream alone.  qstep is the uniform quantization step and doubles as
    the quality factor Q of the fixed lambda-Q model (`rdo.ALPHA`,
    `rdo.BETA`).  The graph radius is no field: both sides derive it
    from frame 0's voxels (`graph.derived_epsilon_sq`).  Frame t is a
    P-frame iff `is_p_frame(t)`: every GOP opens with an I-frame.  A
    config is frozen and checked when built, so every config is valid.
    """

    # int32, the dtype of VoxelizedFrame.voxel_coords
    grid_dim: int = field(default=4096, metadata={"header": "i"})
    target_cluster_size: int = field(
        default=600, metadata={"header": "I", "max": MAX_CLUSTER_SIZE})
    gop_size: int = field(default=8, metadata={"header": "H"})
    qstep: float = field(default=8.0, metadata={"header": "d"})

    def __post_init__(self):
        """Raise ValueError naming the first field that is not a real
        number, is not finite and positive, does not fit its header slot
        (an integer slot takes only integers), or exceeds its "max"
        metadata."""
        for f in fields(self):
            value = getattr(self, f.name)
            code = f.metadata["header"]
            # bool is an Integral; math.isfinite raises on a non-number
            # and overflows on a huge int, so it sees only non-integers.
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name}={value!r} must be a real number")
            integral = isinstance(value, numbers.Integral)
            if not (value > 0 and (integral or math.isfinite(value))):
                raise ValueError(f"{f.name}={value!r} must be finite and positive")
            try:
                struct.pack("<" + code, value)
            except (struct.error, OverflowError):
                raise ValueError(f"{f.name}={value!r} does not fit the stream "
                                 f"header's {np.dtype(code).name} field") from None
            if value > f.metadata.get("max", value):
                raise ValueError(f"{f.name}={value!r} exceeds the limit of "
                                 f"{f.metadata['max']}")

    def is_p_frame(self, t: int) -> bool:
        """Whether frame t predicts from frame t - 1 (else an I-frame)."""
        return t % self.gop_size != 0


def rgb_to_yuv(rgb) -> np.ndarray:
    """Convert (n, 3) 8-bit RGB to full-range YUV, clamped to [0, 255]."""
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.min(initial=0.0) < 0 or arr.max(initial=0.0) > 255:
        raise ValueError("RGB channels must be in [0, 255]")
    yuv = arr @ _RGB_TO_YUV.T + _CHROMA_OFFSET
    return np.clip(yuv, 0.0, 255.0)


def yuv_to_rgb(yuv) -> np.ndarray:
    """Inverse of rgb_to_yuv; output clamped to [0, 255] (still float)."""
    arr = np.asarray(yuv, dtype=np.float64)
    rgb = (arr - _CHROMA_OFFSET) @ _YUV_TO_RGB.T
    return np.clip(rgb, 0.0, 255.0)


def bounding_box(points: np.ndarray, expand: float):
    """(min, max) corners of the axis-aligned bounding box of (n, 3)
    points, each side grown by a factor (1 + expand) about the centre."""
    points = np.asarray(points, dtype=np.float64)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    center = lo / 2.0 + hi / 2.0  # lo + hi may overflow
    with np.errstate(over="ignore"):  # `voxelize` refuses an infinite box
        half = (hi - lo) / 2.0 * (1.0 + expand)
    return center - half, center + half


def sequence_bounding_box(raw: RawPointCloud):
    """Bounding box of a frame, each side grown by BOX_MARGIN.

    Computed once on the first frame of a sequence and reused for every
    frame so voxel coordinates are temporally comparable.
    """
    return bounding_box(raw.positions, BOX_MARGIN)


def voxelize(raw: RawPointCloud, grid_dim: int, box) -> VoxelizedFrame:
    """Map points onto the integer grid and average attributes per voxel.

    One shared uniform scale maps the (min, max) box into [0, grid_dim-1]^3;
    points are binned by floor and clamped to the grid before the cast.
    """
    if raw.point_count < 1:
        raise ValueError("cannot voxelize an empty point cloud")
    lo, hi = np.asarray(box[0], dtype=np.float64), np.asarray(box[1], dtype=np.float64)
    extent = float(np.max(hi - lo))
    if not math.isfinite(extent):
        raise ValueError(f"bounding box extent {extent} is not finite")
    if extent <= 0.0:
        warnings.warn("degenerate bounding box; all points fall in one voxel")
        coords = np.zeros((raw.point_count, 3), dtype=np.int32)
    else:
        scale = (grid_dim - 1) / extent
        coords = np.clip(np.floor((raw.positions - lo) * scale), 0,
                         grid_dim - 1).astype(np.int32)

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
                          point_map=point_map)


def devoxelize(attributes: np.ndarray, point_map: np.ndarray,
               raw_count: int) -> np.ndarray:
    """Spread decoded (v, 3) voxel attributes back onto the original points.

    Returns (raw_count, 3) YUV in [0, 255].
    """
    point_map = np.asarray(point_map, dtype=np.int64)
    if point_map.shape[0] != raw_count:
        raise ValueError("point_map does not cover raw_count points")
    if raw_count == 0:
        return np.empty((0, 3))
    if point_map.min() < 0 or point_map.max() >= attributes.shape[0]:
        raise ValueError("point_map index out of range")
    yuv = attributes[point_map] + MID_LEVEL
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
# Fewest tokens a header line of each keyword can have.
_PLY_MIN_TOKENS = {"format": 2, "element": 3, "property": 3}


def _parse_ply_header(fh):
    """Returns (format, elements) where elements is a list of
    (name, count, [(prop_name, np_type), ...]).  A line missing a value
    raises ValueError naming the line."""
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
        malformed = f"malformed PLY header: {' '.join(tokens)!r}"
        if len(tokens) < _PLY_MIN_TOKENS.get(tokens[0], 1):
            raise ValueError(malformed)
        if tokens[0] == "format":
            if tokens[1] == "ascii":
                fmt = "ascii"
            elif tokens[1] == "binary_little_endian":
                fmt = "binary"
            else:
                raise ValueError(f"unsupported PLY format {tokens[1]!r}")
        elif tokens[0] == "element":
            try:
                count = int(tokens[2])
            except ValueError:
                raise ValueError(malformed) from None
            if count < 0:
                raise ValueError("malformed PLY header: negative count "
                                 + tokens[2])
            elements.append((tokens[1], count, []))
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
            nbytes = count * dtype.itemsize
            # Checked before reading, so a huge count allocates nothing.
            if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError("truncated PLY vertex data")
            data = np.frombuffer(fh.read(nbytes), dtype=dtype, count=count)
        else:
            rows = []
            for i in range(count):
                line = fh.readline()
                if not line:
                    raise ValueError("truncated PLY vertex data")
                values = line.split()
                if len(values) < len(props):
                    raise ValueError(f"malformed PLY vertex {i}: {len(values)} "
                                     f"of {len(props)} values")
                try:
                    rows.append(tuple(map(float, values[: len(props)])))
                except ValueError as exc:
                    raise ValueError(f"malformed PLY vertex {i}: {exc}") from None
            # Every value parses as float: RawPointCloud rejects a colour
            # that is not an integer in [0, 255].
            data = np.array(rows, dtype=[(n, "<f8") for n in names])

    positions = np.stack([data["x"], data["y"], data["z"]], axis=1).astype(np.float64)
    colors = np.stack([data["red"], data["green"], data["blue"]], axis=1)
    return RawPointCloud(positions=positions, colors=colors)


def write_ply(path, positions, colors):
    """Write binary little-endian x,y,z float32 + red,green,blue uchar."""
    positions = np.asarray(positions, dtype=np.float32)
    colors = np.asarray(colors, dtype=np.uint8)
    if positions.shape != colors.shape:
        raise ValueError("positions and colors must have equal shape")
    n = positions.shape[0]
    header = [
        "ply",
        "format binary_little_endian 1.0",
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
        rec = np.empty(n, dtype=np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                                          ("r", "u1"), ("g", "u1"), ("b", "u1")]))
        rec["x"], rec["y"], rec["z"] = positions.T
        rec["r"], rec["g"], rec["b"] = colors.T
        fh.write(rec.tobytes())
