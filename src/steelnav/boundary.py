"""Non-convex boundary estimation for a planar patch.

The patch is sliced into thin windows along each coordinate axis in turn;
within every window the two mutually farthest points are kept as boundary
anchors.  Sweeping all three axes traces the patch rim without assuming
convexity.  The rim is exactly the union of those pairs: an axis's extreme
point joins it only as an end of its window's farthest pair.

All windows of all three axes go through a few flat array passes, in chunks of
bounded memory; each window's pair is bit for bit a row-by-row scan's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PlanarPatch, PointCloud
from .errors import DomainError, check_points, check_positive

DEFAULT_SLICE_WIDTH = 0.02  # meters


@dataclass(frozen=True, eq=False)
class BoundaryEstimate:
    """Boundary anchors of a patch."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", check_points("boundary points", self.points))

    def __len__(self) -> int:
        return self.points.shape[0]


def estimate_boundary(patch: PlanarPatch, slice_width: float = DEFAULT_SLICE_WIDTH) -> BoundaryEstimate:
    """Estimate the non-convex boundary of ``patch``.

    Every point lands in exactly one window per axis: index
    ``floor((c - c_min) / slice_width + 0.5)``, i.e. half-open windows of the
    given width centred on a grid anchored at the axis minimum.  One stable
    sort per axis yields the windows in ascending order, each holding its
    members in input order, and the three sorted copies are stacked.  Per
    window the exact farthest pair joins the boundary (:func:`_farthest_pairs`);
    a single-point window contributes its point.  Cost: the sorts, an O(n)
    prune, then O(sum m^2) work over the m rows each window keeps.  The pair
    equals a row scan's because the prune keeps both ends of every farthest
    pair and each kept pair's distance has the row scan's bits.  Equal rows
    across axes and windows (``-0.0`` equals ``0.0``) are kept once, in
    first-seen order (axis-major, window-minor).
    """
    check_positive("slice_width", slice_width)
    cloud: PointCloud = patch.inliers
    if cloud.is_empty:
        raise DomainError("cannot estimate the boundary of an empty patch")
    pts = cloud.points
    n = len(pts)

    orders, starts = [], []
    for axis in range(3):
        coords = pts[:, axis]
        idx = np.floor((coords - coords.min()) / slice_width + 0.5).astype(np.int64)
        orders.append(np.argsort(idx, kind="stable"))
        starts += [[axis * n], np.flatnonzero(np.diff(idx[orders[-1]])) + 1 + axis * n]
    stacked = pts[np.concatenate(orders)]
    first, second = _farthest_pairs(stacked, np.concatenate(starts))

    return BoundaryEstimate(points=_first_seen(stacked[np.column_stack((first, second)).ravel()]))


def _first_seen(rows: np.ndarray) -> np.ndarray:
    """``rows`` without repeats, each kept where it first occurs.

    One stable ``np.lexsort`` by (x, y, z) puts equal rows next to each
    other in input order; a row equal to the one before it in that order
    is dropped.  Comparisons are ``==``, so ``-0.0`` and ``0.0`` tie.
    """
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    ordered = rows[order]
    repeat = (ordered[1:] == ordered[:-1]).all(axis=1)
    return rows[np.sort(order[np.concatenate(([True], ~repeat))])]


_PAIR_CHUNK = 2**14  # pairs compared per step: bounds the pair pass's memory


def _farthest_pairs(points: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact farthest pair of each window of ``points``, as two row indices.

    Window ``w`` runs from ``starts[w]`` to the next start or the end.  The
    rows :func:`_window_candidates` keeps are paired ``i < j`` row-major, i.e.
    in lexicographic index order, and each pair's squared distance is the same
    ``einsum`` over ``points[i] - points[j]`` a row scan computes.  So the
    first pair attaining a window's maximum is the row scan's: ties go to the
    smallest ``(i, j)``.  Pairs go in chunks of whole rows, about
    ``_PAIR_CHUNK`` each, and a later chunk replaces a window's best only when
    strictly farther; memory is O(n + chunk).  A window that keeps one row
    returns it twice.
    """
    kept = np.flatnonzero(_window_candidates(points, starts))
    rows = points[kept]
    begin = np.searchsorted(kept, starts)  # each window's first kept row
    m = np.diff(np.append(begin, len(kept)))
    window = np.repeat(np.arange(len(starts)), m)
    later = np.repeat(begin + m, m) - np.arange(len(kept)) - 1  # its window's kept rows after each one
    ends = np.cumsum(later)
    best = np.full(len(starts), -1.0)
    first, second = begin.copy(), begin.copy()
    r0 = done = 0
    while done < ends[-1]:  # whole rows; a row with more pairs than a chunk goes alone
        r1 = max(np.searchsorted(ends, done + _PAIR_CHUNK, "right"), np.searchsorted(ends, done, "right") + 1)
        count = later[r0:r1]
        i = np.repeat(np.arange(r0, r1), count)
        j = i + 1 + np.arange(len(i)) - np.repeat(ends[r0:r1] - count - done, count)
        d = rows[i] - rows[j]
        w = np.repeat(window[r0:r1], count)
        seg = np.flatnonzero(np.diff(w, prepend=-1))
        top, at = _first_max(np.einsum("jk,jk->j", d, d), seg)
        better = top > best[w[seg]]
        win, at = w[seg][better], at[better]
        best[win], first[win], second[win] = top[better], i[at], j[at]
        r0, done = r1, ends[r1 - 1]
    return kept[first], kept[second]


def _window_candidates(points: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mask of the rows that can end their window's farthest pair.

    Per window, ``R`` is the largest distance from the mean ``c``, and the
    distance from the first point attaining it to the point farthest from that
    one is a lower bound ``L`` on the diameter ``D``.  The ends ``p, q`` of a
    farthest pair satisfy ``D <= |p - c| + |q - c|`` for any centre ``c``, so
    both lie at ``|p - c| >= D - R >= L - R`` (Preparata & Shamos,
    *Computational Geometry*, ch. 4), however ``c`` is rounded.  The computed
    distances carry a relative error of a few ulp, plus an absolute one below
    1e-161 where squares underflow; the margin taken off ``L - R`` is far
    larger than both, so it can only keep more points.  A window whose bound
    is not finite keeps every point.  O(n) time and memory.
    """
    count = np.diff(np.append(starts, len(points)))
    mean = np.add.reduceat(points, starts, axis=0) / count[:, None]
    diff = points - np.repeat(mean, count, axis=0)
    r = np.sqrt(np.einsum("jk,jk->j", diff, diff))
    reach, far = _first_max(r, starts)
    diff = points - np.repeat(points[far], count, axis=0)
    lower = np.sqrt(np.maximum.reduceat(np.einsum("jk,jk->j", diff, diff), starts))
    with np.errstate(invalid="ignore"):  # inf - inf where squares overflow: keep the window whole
        cut = lower - reach - (1e-9 * (lower + reach) + 1e-150)
    cut[~np.isfinite(cut)] = -np.inf
    return r >= np.repeat(cut, count)


def _first_max(values: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per run of ``values`` from each of ``starts``: its maximum and where it first occurs."""
    top = np.maximum.reduceat(values, starts)
    hit = values == np.repeat(top, np.diff(np.append(starts, len(values))))
    return top, np.minimum.reduceat(np.where(hit, np.arange(len(values)), len(values)), starts)


def directed_hausdorff(from_points: np.ndarray, to_points: np.ndarray) -> float:
    """max over ``from_points`` of the distance to the nearest ``to_point``."""
    a = check_points("from_points", from_points)
    b = check_points("to_points", to_points)
    if len(a) == 0 or len(b) == 0:
        raise DomainError("directed Hausdorff distance needs non-empty point sets")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(d.min(axis=1).max())
