"""Transformation switching: decide between mobile driving and inch-worm
stepping from one camera cloud.

Three Boolean signals feed the decision: a plane was detected, the foot
rectangle fits on it, and the plane sits at the robot's base height.  The
robot stays in the mobile transformation exactly when all three hold;
otherwise it reconfigures into the inch-worm transformation and steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .boundary import DEFAULT_SLICE_WIDTH, estimate_boundary
from .cloud import FilterConfig, PlanarPatch, PointCloud, RigidTransform, passthrough, ransac_plane, voxel_downsample
from .errors import DomainError, check_array, check_finite, check_positive
from .footprint import FootGeometry, FootPose, _min_rim, check_placeability


class Transformation(str, Enum):
    """Locomotion mode the robot should configure into."""

    MOBILE = "Mobile"
    INCH_WORM = "InchWorm"


@dataclass(frozen=True)
class HeightConfig:
    """Base-height comparison parameters.

    ``base_height`` is the z coordinate, in the robot base frame, at which a
    surface counts as level with the robot's own standing plane;
    ``tolerance`` is the half-width of the equality band.  ``camera_to_base``
    maps camera-frame points into the robot base frame.
    """

    base_height: float = 0.0
    tolerance: float = 0.01
    camera_to_base: RigidTransform = RigidTransform.identity()

    def __post_init__(self):
        check_finite("base height", self.base_height)
        check_positive("height tolerance", self.tolerance)


@dataclass(frozen=True, eq=False)
class StageDiagnostics:
    """Counters from the executed pipeline stages.

    ``accepted_candidate`` is the 1-based index of the anchor whose
    rectangle passed, or None when no candidate was accepted (or the stage
    never ran).  ``height_delta`` is meters above the base height, None when
    the height stage was skipped.
    """

    inlier_count: int
    boundary_count: int
    accepted_candidate: Optional[int]
    height_delta: Optional[float]


@dataclass(frozen=True, eq=False)
class SwitchDecision:
    """Result of one switching evaluation.

    ``ok`` is the conjunction of the three signals; ``transformation`` is
    Mobile exactly when ``ok``.  ``pose`` is present exactly when the foot
    fits (``area_ok``), regardless of the overall verdict.
    """

    plane_ok: bool
    area_ok: bool
    height_ok: bool
    ok: bool
    transformation: Transformation
    pose: Optional[FootPose]
    diagnostics: StageDiagnostics

    def __post_init__(self):
        if self.ok != (self.plane_ok and self.area_ok and self.height_ok):
            raise DomainError("overall verdict must equal the conjunction of its signals")
        expected = Transformation.MOBILE if self.ok else Transformation.INCH_WORM
        if self.transformation != expected:
            raise DomainError("transformation must follow the overall verdict")
        if self.area_ok != (self.pose is not None):
            raise DomainError("pose must be present exactly when the foot fits")


def plane_availability(patch: Optional[PlanarPatch]) -> bool:
    """True when a plane was detected and has at least one inlier."""
    return patch is not None and not patch.inliers.is_empty


def height_availability(centroid_camera, cfg: HeightConfig) -> tuple[bool, float]:
    """Compare the patch centroid's base-frame height against the base height.

    Returns the verdict and the signed height difference in meters.
    """
    in_base = cfg.camera_to_base.apply(check_array("centroid", centroid_camera, (3,)))
    delta = float(in_base[2] - cfg.base_height)
    return abs(delta) <= cfg.tolerance, delta


def switching_function(plane_ok: bool, area_ok: bool, height_ok: bool) -> tuple[bool, Transformation]:
    """Conjunction of the three signals and the transformation it selects."""
    ok = bool(plane_ok) and bool(area_ok) and bool(height_ok)
    return ok, (Transformation.MOBILE if ok else Transformation.INCH_WORM)


def decide(
    cloud: PointCloud,
    filter_cfg: FilterConfig = FilterConfig(),
    slice_width: float = DEFAULT_SLICE_WIDTH,
    foot: FootGeometry = FootGeometry(),
    height_cfg: HeightConfig = HeightConfig(),
    seed: int = 0,
) -> SwitchDecision:
    """Run the full cloud-to-decision pipeline.

    Pass-through filter, voxel downsample, plane detection, boundary
    estimation, foot placeability, height comparison, then the switching
    conjunction.  A stage that cannot run keeps its defaults (false signal,
    no pose, zero counts): every stage after a failed plane detection, and
    placement on a boundary too small for the foot's counts.  Deterministic
    for identical (cloud, configs, seed).
    """
    filtered = passthrough(cloud, filter_cfg)
    reduced = voxel_downsample(filtered, filter_cfg.voxel_leaf)
    patch = ransac_plane(reduced, filter_cfg, seed)

    plane_ok = plane_availability(patch)
    area_ok = height_ok = False
    pose = accepted = delta = None
    inlier_count = boundary_count = 0
    if plane_ok:
        inlier_count = len(patch.inliers)
        rim = estimate_boundary(patch, slice_width)
        boundary_count = len(rim)
        if boundary_count >= _min_rim(foot):
            report = check_placeability(rim.points, patch.centroid, patch.normal, foot)
            area_ok, pose = report.placeable, report.pose
            accepted = report.candidates_tried if area_ok else None
        height_ok, delta = height_availability(patch.centroid, height_cfg)

    ok, transformation = switching_function(plane_ok, area_ok, height_ok)
    return SwitchDecision(
        plane_ok=plane_ok, area_ok=area_ok, height_ok=height_ok, ok=ok, transformation=transformation, pose=pose,
        diagnostics=StageDiagnostics(inlier_count, boundary_count, accepted, delta),
    )


def decision_to_dict(decision: SwitchDecision) -> dict:
    """Wire form of a decision with the documented fixed key names."""
    pose = None
    if decision.pose is not None:
        pose = {
            "position": [float(v) for v in decision.pose.position],
            "orientation": [[float(v) for v in row] for row in decision.pose.orientation],
        }
    return {
        "s_pa": decision.plane_ok,
        "s_am": decision.area_ok,
        "s_hc": decision.height_ok,
        "s": decision.ok,
        "transformation": decision.transformation.value,
        "pose": pose,
        "diagnostics": {
            "inlier_count": decision.diagnostics.inlier_count,
            "boundary_count": decision.diagnostics.boundary_count,
            "accepted_candidate": decision.diagnostics.accepted_candidate,
            "height_delta_m": decision.diagnostics.height_delta,
        },
    }


def decision_to_json(decision: SwitchDecision) -> str:
    """Serialize a decision to its canonical JSON text (stable key order)."""
    return json.dumps(decision_to_dict(decision), indent=2, sort_keys=False)
