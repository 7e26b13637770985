"""Point-cloud data model, ASCII cloud file I/O, filters, RANSAC plane
detection, and rigid frame transforms.

All values are immutable after construction (arrays are frozen), so they are
safe to share between threads.  Every operation here is a pure function of
its inputs; plane detection takes an explicit seed and is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ParseError

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
    if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9:
        raise DomainError(f"{subject} must be orthonormal")
    if abs(np.linalg.det(rot) - 1.0) > 1e-9:
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
        if self.voxel_leaf <= 0:
            raise DomainError("voxel_leaf must be positive")
        if self.ransac_threshold <= 0:
            raise DomainError("ransac_threshold must be positive")
        if self.ransac_iterations < 1:
            raise DomainError("ransac_iterations must be at least 1")
        if self.min_inlier_count < 1:
            raise DomainError("min_inlier_count must be at least 1")


# ---------------------------------------------------------------------------
# Cloud file I/O (ASCII x/y/z subset)
# ---------------------------------------------------------------------------

_HEADER_KEYWORDS = {
    "VERSION", "FIELDS", "SIZE", "TYPE", "COUNT",
    "WIDTH", "HEIGHT", "VIEWPOINT", "POINTS", "DATA",
}


def load_cloud(path: PathLike) -> PointCloud:
    """Read an ASCII PCD file restricted to plain x y z float fields.

    The cloud is tagged with the camera frame.  Raises :class:`ParseError`
    naming the offending line for malformed headers, non-numeric rows,
    non-ASCII bytes, and row counts that disagree with the POINTS field.
    Binary DATA is rejected.
    """
    path = Path(path)
    header: dict[str, list[str]] = {}
    points: list[tuple[float, float, float]] = []
    expected: Optional[int] = None
    in_data = False

    with path.open("rb") as fh:
        # splitlines breaks at \n, \r\n and \r, the line ends text mode reads
        lines = (raw for chunk in fh for raw in chunk.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("ascii").strip()
            except UnicodeDecodeError:
                raise ParseError(path, line_no, "non-ASCII byte in line") from None
            if not line or line.startswith("#"):
                continue
            if not in_data:
                tokens = line.split()
                keyword = tokens[0].upper()
                if keyword not in _HEADER_KEYWORDS:
                    raise ParseError(path, line_no, f"unknown header keyword {tokens[0]!r}")
                header[keyword] = tokens[1:]
                if keyword == "POINTS":
                    try:
                        expected = int(tokens[1])
                    except (IndexError, ValueError):
                        raise ParseError(path, line_no, "POINTS must carry an integer count")
                if keyword == "DATA":
                    _validate_header(path, line_no, header)
                    in_data = True
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(path, line_no, f"expected 3 values per point row, got {len(tokens)}")
            try:
                xyz = (float(tokens[0]), float(tokens[1]), float(tokens[2]))
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric point row: {line!r}")
            if not all(math.isfinite(v) for v in xyz):
                raise ParseError(path, line_no, "non-finite coordinate in point row")
            points.append(xyz)
            if expected is not None and len(points) > expected:
                raise ParseError(path, line_no, f"more point rows than POINTS {expected}")

    if not in_data:
        raise ParseError(path, 1, "missing DATA header line")
    if expected is not None and len(points) != expected:
        raise ParseError(path, 0, f"POINTS {expected} but file has {len(points)} point rows")
    return PointCloud(points=np.array(points, dtype=np.float64).reshape(len(points), 3), frame_id=Frame.CAMERA)


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
    for x, y, z in cloud.points:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def passthrough(cloud: PointCloud, cfg: FilterConfig) -> PointCloud:
    """Keep exactly the points whose coordinates fall inside the per-axis
    [min, max] ranges, preserving order."""
    if cloud.is_empty:
        return cloud
    pts = cloud.points
    mask = np.ones(len(cloud), dtype=bool)
    for axis, (lo, hi) in enumerate((cfg.x_range, cfg.y_range, cfg.z_range)):
        mask &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
    return cloud.with_points(pts[mask])


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Collapse every occupied voxel of edge ``leaf`` to the centroid of its
    members.

    Output points are ordered by voxel index (lexicographic), which makes the
    result independent of input point order.  A leaf so small that a voxel
    index falls outside int64 is rejected.
    """
    if not leaf > 0:
        raise DomainError("voxel leaf size must be positive")
    if cloud.is_empty:
        return cloud
    # floor(p / leaf) grows with p, so the extreme coordinates give the extreme indices.
    with np.errstate(over="ignore"):  # an infinite index fails the range check
        lo, hi = np.floor(np.array([cloud.points.min(), cloud.points.max()]) / leaf)
    if not (lo >= -2.0**63 and hi < 2.0**63):
        raise DomainError(f"voxel leaf {leaf:g} m is too small for this cloud: voxel indices overflow int64")
    keys = np.floor(cloud.points / leaf).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3), dtype=np.float64)
    np.add.at(sums, inverse, cloud.points)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return cloud.with_points(sums / counts[:, None])


# ---------------------------------------------------------------------------
# Plane detection
# ---------------------------------------------------------------------------


def ransac_plane(cloud: PointCloud, cfg: FilterConfig, seed: int) -> Optional[PlanarPatch]:
    """Detect the single largest plane by seeded RANSAC.

    Three-point hypotheses are sampled for ``cfg.ransac_iterations`` rounds;
    the hypothesis with the most points within ``cfg.ransac_threshold`` wins
    and is refined by a least-squares refit over its inliers, iterated with
    membership reselection until the inlier set is stable.  Returns ``None``
    when the cloud has fewer than 3 points or the best inlier count falls
    below ``cfg.min_inlier_count``; a missing plane is a decision, not an
    error.  Identical (cloud, cfg, seed) always produce an identical patch.
    """
    n = len(cloud)
    if n < 3:
        return None
    pts = cloud.points
    rng = np.random.default_rng(seed)
    threshold = cfg.ransac_threshold

    best_count = -1
    best_normal: Optional[np.ndarray] = None
    best_d = 0.0
    for _ in range(cfg.ransac_iterations):
        idx = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = pts[idx]
        cross = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(cross)
        if norm < 1e-12:
            continue
        normal = cross / norm
        d = -float(normal @ p0)
        count = int((np.abs(pts @ normal + d) <= threshold).sum())
        if count > best_count:
            best_count = count
            best_normal = normal
            best_d = d

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
