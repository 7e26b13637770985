"""Foot-rectangle placeability on a planar patch.

Given the estimated boundary of a patch, try to place the robot's
rectangular foot flat near the patch centroid.  Candidate rectangles hang
off the boundary points nearest the centroid and extend inward; the landing
pose sits a quarter foot length further inward.  A candidate is accepted
when all corners and edge midpoints of the rectangle at that pose pass an
interior test against the local boundary distance, so the verdict is about
the rectangle the pose describes.  The first accepted candidate yields the
landing pose.  The anchors and each probe's boundary neighbours are the
nearest points by one rule: distance, then (x, y, z), then input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateAnchorError, DomainError, check_count, check_finite, check_positive
from .errors import check_array, check_points, check_rotation


@dataclass(frozen=True)
class FootGeometry:
    """Foot rectangle dimensions and placeability test parameters.

    ``width`` spans the foot side-to-side and ``length`` front-to-back, in
    meters.  ``candidate_count`` boundary anchors are tried.  Each probe
    point is judged against the mean centroid-distance of its
    ``neighbor_count`` nearest boundary points, with relative slack
    ``tolerance``.
    """

    width: float = 0.10
    length: float = 0.15
    tolerance: float = 0.02
    candidate_count: int = 5
    neighbor_count: int = 3

    def __post_init__(self):
        check_positive("foot width and length", self.width, self.length)
        check_finite("foot width and length", self.width, self.length)
        check_positive("tolerance", self.tolerance)
        check_count("candidate_count", self.candidate_count)
        check_count("neighbor_count", self.neighbor_count)


@dataclass(frozen=True, eq=False)
class CandidateRectangle:
    """One candidate foot placement: frame, corners, edge midpoints.

    Frame columns are (outward axis from the patch center toward the anchor,
    lateral axis, patch normal), right-handed and orthonormal.  The four
    corners run cyclically around the rectangle; midpoints pair consecutive
    corners.  Corners and midpoints together are the 8 probe points, which
    :func:`check_placeability` tests a quarter foot length further inward.
    """

    frame: np.ndarray
    corners: np.ndarray
    midpoints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", check_rotation("candidate frame", self.frame))
        object.__setattr__(self, "corners", check_array("corners", self.corners, (4, 3)))
        object.__setattr__(self, "midpoints", check_array("midpoints", self.midpoints, (4, 3)))

    @property
    def probes(self) -> np.ndarray:
        """All 8 interior-test points: corners then midpoints."""
        return np.vstack([self.corners, self.midpoints])


@dataclass(frozen=True, eq=False)
class FootPose:
    """A placed foot: position and a right-handed orientation frame.

    ``orientation`` columns match the accepted candidate's frame.
    """

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", check_array("position", self.position, (3,)))
        object.__setattr__(self, "orientation", check_rotation("orientation", self.orientation))


@dataclass(frozen=True, eq=False)
class PlacementReport:
    """Outcome of the placeability check.

    ``pose`` is present exactly when ``placeable``.  ``candidates_tried``
    counts anchors examined; ``accepted_anchor`` is the winning anchor.
    """

    placeable: bool
    pose: Optional[FootPose]
    candidates_tried: int
    accepted_anchor: Optional[np.ndarray]

    def __post_init__(self):
        if self.placeable != (self.pose is not None):
            raise DomainError("pose must be present exactly when placeable")
        if not self.placeable and self.accepted_anchor is not None:
            raise DomainError("a rejected report cannot name an accepted anchor")


def closest_points(points: np.ndarray, query, count: int) -> np.ndarray:
    """The ``count`` points nearest ``query``, ascending by distance.

    Exact distance ties fall back to lexicographic point order so the
    selection never depends on input ordering.  Points and query must be
    finite.
    """
    pts = check_points("points", points)
    check_count("count", count)
    if len(pts) < count:
        raise DomainError(f"point set has {len(pts)} points, need {count}")
    rim, d = _sorted_rim(pts, check_array("query", query, (3,)))
    return rim[_nearest(d, count)]


def build_candidate(anchor, center, normal, geometry: FootGeometry) -> CandidateRectangle:
    """Construct the candidate rectangle hanging off one boundary anchor.

    The outward axis runs from ``center`` toward ``anchor`` (projected into
    the plane so the frame stays orthonormal on noisy patches); the anchor
    sits at the midpoint of the rectangle's outer edge and the body extends
    inward by the foot length.  Raises :class:`DegenerateAnchorError` when
    the anchor is too close to the center to define a direction, and
    :class:`DomainError` for a non-finite input or a zero normal.
    """
    frame, probes = _frame_and_probes(
        check_array("anchor", anchor, (3,)), check_array("center", center, (3,)), _normal(normal), geometry)
    return CandidateRectangle(frame=frame, corners=probes[:4], midpoints=probes[4:])


def _normal(normal) -> np.ndarray:
    """``normal`` as a finite (3,) array whose norm, as
    :func:`_frame_and_probes` takes it, is not 0."""
    n = check_array("normal", normal, (3,))
    if not np.linalg.norm(n) > 0:
        raise DomainError("normal must be non-zero")
    return n


def _frame_and_probes(anchor: np.ndarray, center: np.ndarray, normal: np.ndarray, geometry: FootGeometry):
    """The frame of the candidate at ``anchor`` and its 8 probes, corners then
    midpoints, as plain (3, 3) and (8, 3) arrays.

    The lateral axis is ``e_z x e_x`` written out component by component, as
    ``np.cross`` computes it.
    """
    e_z = normal / np.linalg.norm(normal)
    delta = anchor - center
    if np.linalg.norm(delta) < 1e-9:
        raise DegenerateAnchorError("candidate anchor coincides with the patch center")
    in_plane = delta - (delta @ e_z) * e_z
    norm = np.linalg.norm(in_plane)
    if norm < 1e-9:
        raise DegenerateAnchorError("candidate anchor sits on the normal through the patch center")
    e_x = in_plane / norm
    (x0, x1, x2), (z0, z1, z2) = e_x.tolist(), e_z.tolist()
    e_y = np.array([z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0])
    frame = np.column_stack([e_x, e_y, e_z])

    side = 0.5 * geometry.width * e_y
    back = geometry.length * e_x
    with np.errstate(over="ignore", invalid="ignore"):  # a huge foot's probes overflow, and then do not fit
        r1 = anchor + side
        r2 = anchor - side
        corners = np.array([r1, r2, r2 - back, r1 - back])
        return frame, np.concatenate([corners, 0.5 * (corners + corners[[1, 2, 3, 0]])])


def probe_passes(probes, center, boundary_points: np.ndarray, geometry: FootGeometry) -> np.ndarray:
    """Interior test for each of n probe points, as an (n,) bool array.

    ``d_r`` is a probe's distance to the patch center; ``d_q`` is the mean
    center-distance of the ``neighbor_count`` boundary points nearest the
    probe, chosen as :func:`closest_points` chooses them.  A probe passes
    when it sits closer than that local boundary distance, or overshoots it
    by a relative margin under ``tolerance``.  All probes are judged in one
    pass: the boundary is sorted lexicographically once, so a stable sort of
    each probe's distances breaks exact ties in (x, y, z) order.
    """
    p = check_points("probes", probes)
    c = check_array("center", center, (3,))
    rim = check_points("boundary_points", boundary_points)
    if len(rim) < geometry.neighbor_count:
        raise DomainError(f"boundary has {len(rim)} points, need {geometry.neighbor_count}")
    return _judge(p, c, *_sorted_rim(rim, c), geometry)


def _sorted_rim(points: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``points`` in (x, y, z) order, equal rows keeping their
    order, and the distance of each from ``center``."""
    rim = points[np.lexsort((points[:, 2], points[:, 1], points[:, 0]))]
    return rim, np.linalg.norm(rim - center, axis=1)


def _nearest(distances: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` smallest ``distances`` along the last axis, ascending; ties keep index order."""
    return np.argsort(distances, axis=-1, kind="stable")[..., :count]


def _min_rim(geometry: FootGeometry) -> int:
    """The fewest boundary points :func:`check_placeability` places on."""
    return max(geometry.candidate_count, geometry.neighbor_count)


def _judge(probes: np.ndarray, center: np.ndarray, rim: np.ndarray, reach: np.ndarray, geometry: FootGeometry) -> np.ndarray:
    """:func:`probe_passes` on an (n, 3) ``probes`` array and a ``rim`` already
    in (x, y, z) order, whose rows lie ``reach`` from ``center``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # an overflowed probe fails
        d = np.linalg.norm(rim - probes[:, None, :], axis=2)
        d_q = reach[_nearest(d, geometry.neighbor_count)].mean(axis=1)
        d_r = np.linalg.norm(probes - center, axis=1)
        return (d_r < d_q) | ((d_r > 0) & ((d_r - d_q) / d_r < geometry.tolerance))


def check_placeability(boundary_points, center, normal, geometry: FootGeometry = FootGeometry()) -> PlacementReport:
    """Decide whether the foot rectangle fits inside the boundary.

    The ``candidate_count`` boundary points nearest the patch center are
    tried in ascending-distance order.  Each candidate's pose takes the
    candidate frame as orientation, positioned at the probe centroid pulled
    a quarter length further inward along the outward axis.  The 8 probes
    are moved inward by the same quarter length, so they are the corners and
    edge midpoints of the rectangle at that pose; the first candidate whose
    moved probes all pass the interior test wins.  Anchors that leave the
    outward direction undefined are skipped.  Raises a domain error when the
    boundary is too small for the configured counts; returns a rejected
    report when no candidate fits, which is a decision rather than an error.
    Non-finite inputs and a zero normal are domain errors too.

    The boundary is sorted once per call and only the winner becomes a
    validated :class:`FootPose`; every anchor, verdict and pose has the bits
    of :func:`closest_points`, :func:`build_candidate` and
    :func:`probe_passes`.
    """
    pts = check_points("boundary_points", boundary_points)
    if len(pts) < _min_rim(geometry):
        raise DomainError(f"boundary has {len(pts)} points, need at least {_min_rim(geometry)}")

    c = check_array("center", center, (3,))
    n = _normal(normal)
    rim, reach = _sorted_rim(pts, c)
    anchors = rim[_nearest(reach, geometry.candidate_count)]
    with np.errstate(over="ignore"):  # a huge foot's probes may overflow as they move inward
        for tried, anchor in enumerate(anchors, start=1):
            try:
                frame, probes = _frame_and_probes(anchor, c, n, geometry)
            except DegenerateAnchorError:
                continue
            inward = 0.25 * geometry.length * frame[:, 0]
            if _judge(probes - inward, c, rim, reach, geometry).all():
                pose = FootPose(position=probes.mean(axis=0) - inward, orientation=frame)
                return PlacementReport(placeable=True, pose=pose, candidates_tried=tried, accepted_anchor=anchor)
    return PlacementReport(placeable=False, pose=None, candidates_tried=len(anchors), accepted_anchor=None)
