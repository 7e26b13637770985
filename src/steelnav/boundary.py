"""Non-convex boundary estimation for a planar patch.

The patch is sliced into thin windows along each coordinate axis in turn;
within every window the two mutually farthest points are kept as boundary
anchors.  Sweeping all three axes traces the patch rim without assuming
convexity.  The rim is exactly the union of those pairs: an axis's extreme
point joins it only as an end of its window's farthest pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PlanarPatch, PointCloud, frozen_array
from .errors import DomainError

DEFAULT_SLICE_WIDTH = 0.02  # meters


@dataclass(frozen=True, eq=False)
class BoundaryEstimate:
    """Boundary anchors of a patch."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DomainError("boundary points must form an (M, 3) array")
        object.__setattr__(self, "points", frozen_array(pts))

    def __len__(self) -> int:
        return self.points.shape[0]


def estimate_boundary(patch: PlanarPatch, slice_width: float = DEFAULT_SLICE_WIDTH) -> BoundaryEstimate:
    """Estimate the non-convex boundary of ``patch``.

    Every point lands in exactly one window per axis: index
    ``floor((c - c_min) / slice_width + 0.5)``, i.e. half-open windows of the
    given width centred on a grid anchored at the axis minimum.  One stable
    sort per axis yields the windows in ascending order, each holding its
    members in input order.  Per window the exact farthest pair joins the
    boundary: the first maximum in lexicographic index order.  A window of k
    members is first pruned in O(k) to the points far enough from its mean
    to end a farthest pair; the m survivors are then compared pairwise in
    O(m^2) time and O(k) memory.  The prune never drops an end of a farthest
    pair, so the pair is the one a full scan finds.  On a plate-like window m
    is a few dozen at most; on a round one m stays close to k.  A
    single-point window contributes its point.
    Equal rows across axes and windows (``-0.0`` equals ``0.0``) are kept
    once, in first-seen order (axis-major, window-minor).
    """
    if slice_width <= 0:
        raise DomainError("slice_width must be positive")
    cloud: PointCloud = patch.inliers
    if cloud.is_empty:
        raise DomainError("cannot estimate the boundary of an empty patch")
    pts = cloud.points

    rows: list[np.ndarray] = []
    for axis in range(3):
        coords = pts[:, axis]
        idx = np.floor((coords - coords.min()) / slice_width + 0.5).astype(np.int64)
        order = np.argsort(idx, kind="stable")
        starts = np.flatnonzero(np.diff(idx[order])) + 1
        for members in np.split(pts[order], starts):
            rows.extend(_farthest_pair(members))

    rim = np.array(rows)
    first = np.unique(rim, axis=0, return_index=True)[1]
    return BoundaryEstimate(points=rim[np.sort(first)])


def _farthest_pair(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact farthest pair of a point set, as two rows of ``points``.

    Only the rows that :func:`_diameter_candidates` keeps are scanned, in
    their original order.  Each is compared with every later one in one
    vectorised step, and a row's first maximum replaces the best only when
    strictly larger.  Pairs are thus visited in lexicographic index order and
    the result is the first maximum in that order: ties on squared distance go
    to the smallest ``(i, j)``, so the result does not depend on accidental
    ordering upstream.  The prune keeps both ends of every farthest pair and
    the scan computes each kept pair's distance as an unpruned scan would, so
    the result is the same.  Cost: O(k) for the prune, then O(m^2) time and
    O(k) memory for the m kept rows.
    """
    keep = _diameter_candidates(points)
    kept = points[keep]
    best, best_i, best_j = -1.0, 0, 0
    for i in range(len(kept) - 1):
        diff = kept[i] - kept[i + 1:]
        d2 = np.einsum("jk,jk->j", diff, diff)
        j = int(d2.argmax())
        if d2[j] > best:
            best, best_i, best_j = d2[j], i, i + 1 + j
    return points[keep[best_i]], points[keep[best_j]]


def _diameter_candidates(points: np.ndarray) -> np.ndarray:
    """Ascending indices of the points that can end a farthest pair.

    ``R`` is the largest distance from the mean ``c``, and the distance from
    the point that attains it to the point farthest from that one is a lower
    bound ``L`` on the diameter ``D``, as any pair distance is.  The ends
    ``p, q`` of a farthest pair satisfy ``D <= |p - c| + |q - c|``, so both
    lie at ``|p - c| >= D - R >= L - R`` (Preparata & Shamos, *Computational
    Geometry*, ch. 4).  The computed distances carry a relative error of a
    few ulp, plus an absolute one below 1e-161 where squares underflow; the
    margin taken off ``L - R`` is far larger than both, so it can only keep
    more points.  A bound that is not finite keeps every point.  O(k) time
    and memory.
    """
    diff = points - points.mean(axis=0)
    r = np.sqrt(np.einsum("jk,jk->j", diff, diff))
    reach = float(r.max())
    diff = points - points[int(r.argmax())]
    lower = float(np.sqrt(np.einsum("jk,jk->j", diff, diff).max()))
    cut = lower - reach - (1e-9 * (lower + reach) + 1e-150)
    if not np.isfinite(cut):
        return np.arange(len(points))
    return np.flatnonzero(r >= cut)


def directed_hausdorff(from_points: np.ndarray, to_points: np.ndarray) -> float:
    """max over ``from_points`` of the distance to the nearest ``to_point``."""
    a = np.asarray(from_points, dtype=np.float64)
    b = np.asarray(to_points, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise DomainError("directed Hausdorff distance needs non-empty point sets")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(d.min(axis=1).max())
