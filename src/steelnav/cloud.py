"""Point-cloud data model, ASCII cloud file I/O, filters, RANSAC plane
detection, and rigid frame transforms.

All values are immutable after construction (arrays are frozen), so they are
safe to share between threads.  Every operation here is a pure function of
its inputs; plane detection takes an explicit seed and is deterministic.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from .errors import DomainError, ParseError, check_count, check_finite, check_positive

PathLike = Union[str, Path]


class Frame(str, Enum):
    """Coordinate frame a cloud is expressed in."""

    CAMERA = "camera"
    ROBOT_BASE = "robot_base"


def frozen_array(values, shape=None) -> np.ndarray:
    """A read-only float64 copy of ``values``, reshaped to ``shape`` if given."""
    out = np.asarray(values, dtype=np.float64)
    out = np.array(out if shape is None else out.reshape(shape))
    out.flags.writeable = False
    return out


def check_rotation(rot: np.ndarray, subject: str) -> None:
    """Raise DomainError unless the 3x3 ``rot`` is orthonormal with
    determinant +1; ``subject`` names it in the message."""
    if not np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9:
        raise DomainError(f"{subject} must be orthonormal")
    if not abs(np.linalg.det(rot) - 1.0) <= 1e-9:
        raise DomainError(f"{subject} must be right-handed (determinant +1)")


def _vec3(v, what: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.shape != (3,):
        raise DomainError(f"{what} must have exactly 3 components, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} has non-finite components")
    return arr


def _point_rows(points, what: str = "points") -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DomainError(f"{what} must be an (N, 3) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} contain non-finite coordinates")
    return arr


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered set of 3D points tagged with its coordinate frame."""

    points: np.ndarray
    frame_id: Frame = Frame.CAMERA

    def __post_init__(self):
        object.__setattr__(self, "points", frozen_array(_point_rows(self.points)))
        object.__setattr__(self, "frame_id", Frame(self.frame_id))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def with_points(self, points) -> "PointCloud":
        """New cloud in the same frame with different points."""
        return PointCloud(points=points, frame_id=self.frame_id)


@dataclass(frozen=True, eq=False)
class PlanarPatch:
    """Inlier cloud of a detected plane with its unit normal and centroid.

    ``plane_coeffs`` is (a, b, c, d) with ax + by + cz + d = 0 and (a, b, c)
    the unit normal.  A patch with zero inliers is representable (the empty
    plane-availability case); its centroid/normal are whatever the caller
    supplied and carry no meaning.
    """

    inliers: PointCloud
    normal: np.ndarray
    centroid: np.ndarray
    plane_coeffs: np.ndarray

    def __post_init__(self):
        normal = _vec3(self.normal, "normal")
        if abs(np.linalg.norm(normal) - 1.0) > 1e-9:
            raise DomainError("patch normal must be a unit vector")
        centroid = _vec3(self.centroid, "centroid")
        coeffs = np.asarray(self.plane_coeffs, dtype=np.float64).reshape(-1)
        if coeffs.shape != (4,):
            raise DomainError("plane_coeffs must have 4 components")
        if not self.inliers.is_empty:
            mean = self.inliers.points.mean(axis=0)
            if np.abs(mean - centroid).max() > 1e-9:
                raise DomainError("centroid must equal the mean of the inliers")
        object.__setattr__(self, "normal", frozen_array(normal))
        object.__setattr__(self, "centroid", frozen_array(centroid))
        object.__setattr__(self, "plane_coeffs", frozen_array(coeffs))


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation + translation between frames; applies as R @ p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise DomainError("rotation must be a 3x3 matrix")
        check_rotation(rot, "rotation matrix")
        object.__setattr__(self, "rotation", frozen_array(rot))
        object.__setattr__(self, "translation", frozen_array(_vec3(self.translation, "translation")))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(rotation=np.eye(3), translation=np.zeros(3))

    @classmethod
    def from_euler_zyx(cls, yaw: float, pitch: float, roll: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        """Build from intrinsic z-y-x Euler angles in radians."""
        check_finite("Euler angles", yaw, pitch, roll)
        cz, sz = math.cos(yaw), math.sin(yaw)
        cy, sy = math.cos(pitch), math.sin(pitch)
        cx, sx = math.cos(roll), math.sin(roll)
        rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
        return cls(rotation=rz @ ry @ rx, translation=np.asarray(translation, dtype=np.float64))

    def apply(self, points) -> np.ndarray:
        """Transform a single (3,) point or an (N, 3) array of points."""
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim == 1:
            return self.rotation @ arr + self.translation
        return arr @ self.rotation.T + self.translation


@dataclass(frozen=True)
class FilterConfig:
    """Preprocessing and plane-detection parameters.

    Pass-through ranges are inclusive [min, max] per axis, in meters.
    """

    x_range: tuple[float, float] = (-5.0, 5.0)
    y_range: tuple[float, float] = (-5.0, 5.0)
    z_range: tuple[float, float] = (-5.0, 5.0)
    voxel_leaf: float = 0.005
    ransac_threshold: float = 0.005
    ransac_iterations: int = 500
    min_inlier_count: int = 200

    def __post_init__(self):
        for name, (lo, hi) in (("x", self.x_range), ("y", self.y_range), ("z", self.z_range)):
            if not lo < hi:
                raise DomainError(f"{name}_range must satisfy min < max")
        check_positive("voxel_leaf", self.voxel_leaf)
        check_positive("ransac_threshold", self.ransac_threshold)
        check_count("ransac_iterations", self.ransac_iterations)
        check_count("min_inlier_count", self.min_inlier_count)


# ---------------------------------------------------------------------------
# Cloud file I/O (ASCII x/y/z subset)
# ---------------------------------------------------------------------------

_HEADER_KEYWORDS = {
    "VERSION", "FIELDS", "SIZE", "TYPE", "COUNT",
    "WIDTH", "HEIGHT", "VIEWPOINT", "POINTS", "DATA",
}
# Every byte of a data block that the one-call parse may take
_DATA_BYTES = b"0123456789+-.eE \n"
# Bytes of the block checked against _DATA_BYTES at a time: the check's copies stay this small
_CHECK_SLICE = 2**16


def load_cloud(path: PathLike) -> PointCloud:
    """Read an ASCII PCD file restricted to plain x y z float fields.

    The file is read once from start to end, so a pipe works as well as a
    regular file.  The data block is one bytes object read straight from the
    file, so memory holds the block, the parsed array and little more.  The
    block is parsed in one ``np.loadtxt`` call when every byte of it is a
    digit, one of ``+ - . e E``, a space or ``\\n``, and that parse is kept
    only when it has 3 columns, exactly POINTS rows and finite values.  Any other block (CR line ends, tabs,
    comments, tokens such as ``1_0`` or ``nan``, a wrong row count) goes
    through the line parser, which decides the result and is the only
    source of :class:`ParseError`.

    The cloud is tagged with the camera frame.  Raises :class:`ParseError`
    naming the offending line for malformed headers, non-numeric rows
    (digits grouped with ``_``, as in ``1_0``, included), non-ASCII bytes,
    and row counts that disagree with the POINTS field.
    Binary DATA is rejected.
    """
    path = Path(path)
    # Unbuffered, so no read-ahead is left to join to the block: the header
    # lines are read a byte at a time and the block in one piece.
    with path.open("rb", buffering=0) as fh:
        data_line_no, expected, head = _read_header(path, fh)
        block = head + fh.readall() if head else fh.readall()
    rows = _parse_block(block, expected)
    if rows is None:
        rows = _parse_rows(path, data_line_no, expected, block)
    del block  # freed before the cloud copies the rows
    return PointCloud(points=rows, frame_id=Frame.CAMERA)


def _read_header(path: Path, fh: BinaryIO) -> tuple[int, int, bytes]:
    """Validate the header; return the DATA line's number, the POINTS count
    and the bytes already read past the DATA line, which start the data block
    (empty unless the DATA line ends in a lone CR)."""
    header: dict[str, list[str]] = {}
    line_no = 0
    for chunk in fh:
        # splitlines breaks at \n, \r\n and \r, the line ends text mode reads
        lines = chunk.splitlines(keepends=True)
        for pos, raw in enumerate(lines):
            line_no += 1
            line = _text(path, line_no, raw)
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            keyword = tokens[0].upper()
            if keyword not in _HEADER_KEYWORDS:
                raise ParseError(path, line_no, f"unknown header keyword {tokens[0]!r}")
            header[keyword] = tokens[1:]
            if keyword == "POINTS":
                try:
                    if "_" in tokens[1]:  # int() would read 1_000 as 1000
                        raise ValueError
                    expected = int(tokens[1])
                except (IndexError, ValueError):
                    raise ParseError(path, line_no, "POINTS must carry an integer count")
            if keyword == "DATA":
                _validate_header(path, line_no, header)
                return line_no, expected, b"".join(lines[pos + 1:])
    raise ParseError(path, 1, "missing DATA header line")


def _text(path: Path, line_no: int, raw: bytes) -> str:
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError:
        raise ParseError(path, line_no, "non-ASCII byte in line") from None


def _parse_block(block: bytes, expected: int) -> Optional[np.ndarray]:
    """The data block as an (expected, 3) array from one ``np.loadtxt`` call,
    or None when the block is not plain space-separated decimals or does not
    parse to exactly that.  The checks copy no more than ``_CHECK_SLICE``
    bytes of the block at a time."""
    if not block or block.isspace():
        return None  # an empty block would make loadtxt warn
    if any(block[i:i + _CHECK_SLICE].translate(None, _DATA_BYTES) for i in range(0, len(block), _CHECK_SLICE)):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(block), dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (expected, 3) or not np.isfinite(rows).all():
        return None
    return rows


def _parse_rows(path: Path, data_line_no: int, expected: int, block: bytes) -> np.ndarray:
    """The data block parsed line by line, raising ParseError on the first
    bad line."""
    points: list[tuple[float, float, float]] = []
    for line_no, raw in enumerate(block.splitlines(), start=data_line_no + 1):
        line = _text(path, line_no, raw)
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(path, line_no, f"expected 3 values per point row, got {len(tokens)}")
        try:
            if "_" in line:  # float() would read 1_0 as 10.0
                raise ValueError
            xyz = (float(tokens[0]), float(tokens[1]), float(tokens[2]))
        except ValueError:
            raise ParseError(path, line_no, f"non-numeric point row: {line!r}")
        if not all(math.isfinite(v) for v in xyz):
            raise ParseError(path, line_no, "non-finite coordinate in point row")
        points.append(xyz)
        if len(points) > expected:
            raise ParseError(path, line_no, f"more point rows than POINTS {expected}")
    if len(points) != expected:
        raise ParseError(path, 0, f"POINTS {expected} but file has {len(points)} point rows")
    return np.array(points, dtype=np.float64).reshape(len(points), 3)


def _validate_header(path: Path, line_no: int, header: dict[str, list[str]]) -> None:
    for required in ("FIELDS", "POINTS", "DATA"):
        if required not in header:
            raise ParseError(path, line_no, f"header is missing {required}")
    if [f.lower() for f in header["FIELDS"]] != ["x", "y", "z"]:
        raise ParseError(path, line_no, f"FIELDS must be 'x y z', got {' '.join(header['FIELDS'])!r}")
    if "TYPE" in header and any(t.upper() != "F" for t in header["TYPE"]):
        raise ParseError(path, line_no, "TYPE must be float ('F') for every field")
    data = [t.lower() for t in header["DATA"]]
    if data != ["ascii"]:
        raise ParseError(path, line_no, f"only ascii DATA is supported, got {' '.join(header['DATA'])!r}")


def save_cloud(path: PathLike, cloud: PointCloud) -> None:
    """Write a cloud as ASCII PCD.

    Coordinates are printed with ``repr`` so a re-load reproduces the exact
    float values, making generated files byte-stable and lossless.
    """
    n = len(cloud)
    lines = [
        "# steel-surface point cloud, ascii x/y/z",
        "VERSION 0.7",
        "FIELDS x y z",
        "SIZE 8 8 8",
        "TYPE F F F",
        "COUNT 1 1 1",
        f"WIDTH {n}",
        "HEIGHT 1",
        f"POINTS {n}",
        "DATA ascii",
    ]
    with Path(path).open("w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
        # rows stream out one by one: no list of row strings in memory
        fh.writelines(f"{x!r} {y!r} {z!r}\n" for x, y, z in zip(*cloud.points.T.tolist()))


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def passthrough(cloud: PointCloud, cfg: FilterConfig) -> PointCloud:
    """Keep exactly the points whose coordinates fall inside the per-axis
    [min, max] ranges, preserving order.  A cloud that keeps every point is
    returned as it is: it is immutable, so a copy would add nothing."""
    if cloud.is_empty:
        return cloud
    pts = cloud.points
    mask = np.ones(len(cloud), dtype=bool)
    for axis, (lo, hi) in enumerate((cfg.x_range, cfg.y_range, cfg.z_range)):
        mask &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
    if mask.all():
        return cloud
    return cloud.with_points(pts[mask])


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Collapse every occupied voxel of edge ``leaf`` to the centroid of its
    members.

    Output points are ordered by voxel index (lexicographic), which makes the
    result independent of input point order.  A leaf so small that a voxel
    index falls outside int64 is rejected.

    ``np.lexsort`` over the three index columns orders the voxels, and
    ``np.bincount`` sums each axis over a voxel's members in input order,
    so every centroid has the bits of a point-by-point sum in input order.
    """
    check_positive("voxel leaf size", leaf)
    if cloud.is_empty:
        return cloud
    # floor(p / leaf) grows with p, so the extreme coordinates give the extreme indices.
    with np.errstate(over="ignore"):  # an infinite index fails the range check
        lo, hi = np.floor(np.array([cloud.points.min(), cloud.points.max()]) / leaf)
    if not (lo >= -2.0**63 and hi < 2.0**63):
        raise DomainError(f"voxel leaf {leaf:g} m is too small for this cloud: voxel indices overflow int64")
    pts = cloud.points
    keys = np.floor(pts / leaf).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    ordered = keys[order]
    starts = np.ones(len(pts), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(pts), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    counts = np.bincount(inverse).astype(np.float64)
    sums = np.column_stack([np.bincount(inverse, weights=pts[:, axis]) for axis in range(3)])
    return cloud.with_points(sums / counts[:, None])


# ---------------------------------------------------------------------------
# Plane detection
# ---------------------------------------------------------------------------

# Probability that RANSAC draws at least one triple of inliers before it stops
RANSAC_CONFIDENCE = 0.999


def ransac_plane(cloud: PointCloud, cfg: FilterConfig, seed: int) -> Optional[PlanarPatch]:
    """Detect the single largest plane by seeded RANSAC.

    Three-point hypotheses are drawn in blocks of m = min(32, max(1, 2^18 //
    n)) rows from one ``rng.integers`` call, so that scoring a block with one
    ``pts @ normals.T`` keeps that matrix near 2^18 elements.  Rows that
    repeat an index or span no plane are dropped but count as drawn.  The
    block's first best hypothesis replaces the best so far only when it has
    strictly more points within ``cfg.ransac_threshold``.

    After each improvement the draws needed fall to Fischler and Bolles'
    N = ceil(log(1 - p) / log(1 - w^3)), with p = ``RANSAC_CONFIDENCE`` and w
    the best inlier share so far; ``cfg.ransac_iterations`` caps N, and no
    block draws past it.  Drawing stops once N triples have been drawn.

    The winner is refined by a least-squares refit over its inliers,
    iterated with membership reselection until the inlier set is stable.
    Returns ``None`` when the cloud has fewer than 3 points or the best
    inlier count falls below ``cfg.min_inlier_count``; a missing plane is a
    decision, not an error.  Identical (cloud, cfg, seed) always produce an
    identical patch.  A ``seed`` that is not an integer of at least 0 raises
    :class:`DomainError`.
    """
    check_count("seed", seed, 0)
    n = len(cloud)
    if n < 3:
        return None
    pts = cloud.points
    rng = np.random.default_rng(seed)
    threshold = cfg.ransac_threshold
    block = min(32, max(1, 2**18 // n))

    best_count = -1
    best_normal: Optional[np.ndarray] = None
    best_d = 0.0
    drawn, needed = 0, cfg.ransac_iterations
    while drawn < needed:
        m = min(block, needed - drawn)
        drawn += m
        idx = rng.integers(n, size=(m, 3))
        idx = idx[(idx[:, 0] != idx[:, 1]) & (idx[:, 1] != idx[:, 2]) & (idx[:, 0] != idx[:, 2])]
        p0 = pts[idx[:, 0]]
        u, v = (pts[idx[:, 1]] - p0).T, (pts[idx[:, 2]] - p0).T
        # np.cross's products and differences, without its broadcasting set-up
        cross = np.column_stack((u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]))
        norms = np.linalg.norm(cross, axis=1)
        keep = norms >= 1e-12
        if not keep.any():
            continue
        normals = cross[keep] / norms[keep, None]
        offsets = -np.einsum("ij,ij->i", normals, p0[keep])
        counts = _inlier_counts(pts, normals, offsets, threshold)
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count = int(counts[top])
            best_normal = normals[top]
            best_d = float(offsets[top])
            needed = _draws_needed(best_count / n, cfg.ransac_iterations)

    if best_normal is None or best_count < max(3, cfg.min_inlier_count):
        return None

    members = np.abs(pts @ best_normal + best_d) <= threshold
    normal, d = best_normal, best_d
    for _ in range(10):
        if members.sum() < 3:
            return None
        normal, d = _least_squares_plane(pts[members])
        new_members = np.abs(pts @ normal + d) <= threshold
        if np.array_equal(new_members, members):
            break
        members = new_members

    if int(members.sum()) < max(3, cfg.min_inlier_count):
        return None

    inliers = pts[members]
    mean = inliers.mean(axis=0)
    normal, d = _orient_toward_origin(normal, d, mean)
    return PlanarPatch(
        inliers=cloud.with_points(inliers),
        normal=normal,
        centroid=mean,
        plane_coeffs=np.array([normal[0], normal[1], normal[2], d]),
    )


def _inlier_counts(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray, threshold: float) -> np.ndarray:
    """Points within ``threshold`` of each plane ``normals[j] @ p + offsets[j] = 0``.

    The distances are one (n, m) matrix, updated in place and freed on return.
    """
    dist = pts @ normals.T
    dist += offsets
    np.abs(dist, out=dist)
    return np.count_nonzero(dist <= threshold, axis=0)


def _draws_needed(share: float, cap: int) -> int:
    """Draws after which a triple of inliers has been drawn with probability
    ``RANSAC_CONFIDENCE`` when ``share`` of the points are inliers (Fischler
    and Bolles 1981), at most ``cap``."""
    hit = share**3
    if hit >= 1.0:
        return 0
    if hit <= 0.0:
        return cap
    return min(cap, math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / math.log1p(-hit)))


def _least_squares_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Total least-squares plane through a point set: unit normal and offset."""
    mean = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - mean, full_matrices=False)
    normal = vt[2]
    normal = normal / np.linalg.norm(normal)
    return normal, -float(normal @ mean)


def _orient_toward_origin(normal: np.ndarray, d: float, patch_centroid: np.ndarray) -> tuple[np.ndarray, float]:
    """Flip the normal so it points from the patch toward the sensor origin.

    A plane through the origin is ambiguous; it gets a canonical sign (first
    non-negligible component positive) so results stay deterministic.
    """
    toward_origin = -float(normal @ patch_centroid)
    if abs(toward_origin) > 1e-12:
        if toward_origin < 0:
            return -normal, -d
        return normal, d
    for component in normal:
        if abs(component) > 1e-12:
            if component < 0:
                return -normal, -d
            return normal, d
    return normal, d
