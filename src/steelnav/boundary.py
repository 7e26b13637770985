"""Non-convex boundary estimation for a planar patch.

The patch is sliced into thin windows along each coordinate axis in turn;
within every window the two mutually farthest points are kept as boundary
anchors.  Sweeping all three axes traces the patch rim without assuming
convexity.  Per-axis extremal points are kept as well, so the estimate always
contains the outermost point along every axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PlanarPatch, PointCloud, frozen_array
from .errors import DomainError


@dataclass(frozen=True, eq=False)
class BoundaryEstimate:
    """Boundary anchors of a patch plus the slab width that produced them."""

    points: np.ndarray
    slice_width: float
    source_patch: PlanarPatch

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DomainError("boundary points must form an (M, 3) array")
        object.__setattr__(self, "points", frozen_array(pts))
        if self.slice_width <= 0:
            raise DomainError("slice_width must be positive")

    def __len__(self) -> int:
        return self.points.shape[0]


def estimate_boundary(patch: PlanarPatch, slice_width: float = 0.02) -> BoundaryEstimate:
    """Estimate the non-convex boundary of ``patch``.

    Every point lands in exactly one window per axis: index
    ``floor((c - c_min) / slice_width + 0.5)``, i.e. half-open windows of the
    given width centred on a grid anchored at the axis minimum.  Per window
    the exact farthest pair (O(k^2) over window members) joins the boundary;
    a single-point window contributes its point.  Duplicates across axes and
    windows are kept once, in first-seen order (axis-major, window-minor).
    """
    if slice_width <= 0:
        raise DomainError("slice_width must be positive")
    cloud: PointCloud = patch.inliers
    if cloud.is_empty:
        raise DomainError("cannot estimate the boundary of an empty patch")
    pts = cloud.points

    selected: list[np.ndarray] = []
    seen: set[tuple[float, float, float]] = set()

    def _keep(p: np.ndarray) -> None:
        key = (float(p[0]), float(p[1]), float(p[2]))
        if key not in seen:
            seen.add(key)
            selected.append(p)

    for axis in range(3):
        coords = pts[:, axis]
        c_min = float(coords.min())
        idx = np.floor((coords - c_min) / slice_width + 0.5).astype(np.int64)
        for slab in np.unique(idx):
            members = pts[idx == slab]
            if len(members) == 1:
                _keep(members[0])
                continue
            a, b = _farthest_pair(members)
            _keep(a)
            _keep(b)

    # The farthest pair of an extreme window can still miss the axis-extreme
    # point itself, so pin the global min/max point of every axis explicitly.
    for axis in range(3):
        for value in (float(pts[:, axis].min()), float(pts[:, axis].max())):
            candidates = pts[pts[:, axis] == value]
            order = np.lexsort((candidates[:, 2], candidates[:, 1], candidates[:, 0]))
            _keep(candidates[order[0]])

    return BoundaryEstimate(points=np.array(selected), slice_width=slice_width, source_patch=patch)


def _farthest_pair(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact farthest pair of a small point set.

    Ties on squared distance are broken toward the lexicographically smallest
    (sorted) index pair, so the result does not depend on accidental ordering
    upstream.
    """
    k = len(points)
    diffs = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    best = (-1.0, (0, 0))
    for i in range(k):
        for j in range(i + 1, k):
            dist = d2[i, j]
            if dist > best[0] + 1e-18 or (abs(dist - best[0]) <= 1e-18 and (i, j) < best[1]):
                best = (dist, (i, j))
    i, j = best[1]
    return points[i], points[j]


def directed_hausdorff(from_points: np.ndarray, to_points: np.ndarray) -> float:
    """max over ``from_points`` of the distance to the nearest ``to_point``."""
    a = np.asarray(from_points, dtype=np.float64)
    b = np.asarray(to_points, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise DomainError("directed Hausdorff distance needs non-empty point sets")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(d.min(axis=1).max())


def max_pairwise_distance(points: np.ndarray) -> float:
    """Largest pairwise distance in a point set (diagnostic helper)."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 2:
        return 0.0
    a, b = _farthest_pair(pts)
    return float(math.sqrt(((a - b) ** 2).sum()))
