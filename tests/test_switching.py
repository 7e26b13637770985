"""Tests for the mobile / inch-worm switching decision."""

import itertools
import json
import math

import numpy as np
import pytest

from steelnav.cloud import FilterConfig, PlanarPatch, PointCloud, RigidTransform
from steelnav.errors import DomainError
from steelnav.footprint import FootGeometry, FootPose
from steelnav.switching import (
    HeightConfig,
    StageDiagnostics,
    SwitchDecision,
    Transformation,
    decide,
    decision_to_dict,
    decision_to_json,
    height_availability,
    plane_availability,
    switching_function,
)
from steelnav.synth import CloudShape, SyntheticCloudSpec, generate_cloud


def square_cloud(z: float = 0.0) -> PointCloud:
    pose = RigidTransform.from_euler_zyx(0.0, 0.0, 0.0, translation=(0.0, 0.0, z))
    spec = SyntheticCloudSpec(shape=CloudShape.RECTANGLE, size_x=0.30, size_y=0.30, pitch=0.01, pose=pose)
    return generate_cloud(spec, seed=0)


def small_filter() -> FilterConfig:
    return FilterConfig(min_inlier_count=50)


# -- switching_function ------------------------------------------------------


def test_switching_truth_table():
    for pa, am, hc in itertools.product([False, True], repeat=3):
        ok, transformation = switching_function(pa, am, hc)
        assert ok == (pa and am and hc)
        expected = Transformation.MOBILE if ok else Transformation.INCH_WORM
        assert transformation is expected


def test_transformation_wire_values():
    assert Transformation.MOBILE.value == "Mobile"
    assert Transformation.INCH_WORM.value == "InchWorm"


# -- plane_availability ------------------------------------------------------


def test_plane_availability_none_is_false():
    assert plane_availability(None) is False


def test_plane_availability_patch_is_true():
    pts = np.column_stack([np.tile(np.arange(4) * 0.01, 4), np.repeat(np.arange(4) * 0.01, 4), np.zeros(16)])
    patch = PlanarPatch(
        inliers=PointCloud(pts),
        normal=np.array([0.0, 0.0, 1.0]),
        centroid=pts.mean(axis=0),
        plane_coeffs=(0.0, 0.0, 1.0, 0.0),
    )
    assert plane_availability(patch) is True


# -- height_availability -----------------------------------------------------


def test_height_exact_match():
    ok, delta = height_availability((0.2, -0.1, 0.0), HeightConfig())
    assert ok is True
    assert delta == 0.0


def test_height_out_of_band():
    ok, delta = height_availability((0.0, 0.0, -0.07), HeightConfig())
    assert ok is False
    assert delta == pytest.approx(-0.07)


def test_height_band_is_inclusive():
    cfg = HeightConfig(tolerance=0.01)
    ok_hi, delta_hi = height_availability((0.0, 0.0, 0.01), cfg)
    ok_lo, delta_lo = height_availability((0.0, 0.0, -0.01), cfg)
    assert ok_hi is True and delta_hi == pytest.approx(0.01)
    assert ok_lo is True and delta_lo == pytest.approx(-0.01)
    ok_over, _ = height_availability((0.0, 0.0, 0.0100001), cfg)
    assert ok_over is False


def test_height_uses_camera_to_base_transform():
    lift = RigidTransform.from_euler_zyx(0.0, 0.0, 0.0, translation=(0.0, 0.0, 0.5))
    cfg = HeightConfig(camera_to_base=lift)
    ok, delta = height_availability((0.0, 0.0, -0.5), cfg)
    assert ok is True
    assert delta == pytest.approx(0.0)


def test_height_nonzero_base_height():
    cfg = HeightConfig(base_height=0.3, tolerance=0.01)
    ok, delta = height_availability((0.0, 0.0, 0.3), cfg)
    assert ok is True and delta == pytest.approx(0.0)
    ok2, delta2 = height_availability((0.0, 0.0, 0.0), cfg)
    assert ok2 is False and delta2 == pytest.approx(-0.3)


def test_height_config_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        HeightConfig(tolerance=0.0)
    with pytest.raises(DomainError):
        HeightConfig(tolerance=-0.01)


# -- SwitchDecision consistency guards ---------------------------------------


def _diag():
    return StageDiagnostics(inlier_count=0, boundary_count=0, accepted_candidate=None, height_delta=None)


def test_decision_rejects_wrong_conjunction():
    with pytest.raises(DomainError):
        SwitchDecision(
            plane_ok=True, area_ok=True, height_ok=True, ok=False,
            transformation=Transformation.INCH_WORM, pose=None, diagnostics=_diag(),
        )


def test_decision_rejects_wrong_transformation():
    with pytest.raises(DomainError):
        SwitchDecision(
            plane_ok=False, area_ok=False, height_ok=False, ok=False,
            transformation=Transformation.MOBILE, pose=None, diagnostics=_diag(),
        )


def test_decision_rejects_pose_without_area():
    pose = FootPose(position=np.zeros(3), orientation=np.eye(3))
    with pytest.raises(DomainError):
        SwitchDecision(
            plane_ok=True, area_ok=False, height_ok=True, ok=False,
            transformation=Transformation.INCH_WORM, pose=pose, diagnostics=_diag(),
        )


# -- decide ------------------------------------------------------------------


def test_decide_no_plane_short_circuits():
    rng = np.random.default_rng(3)
    scatter = PointCloud(rng.uniform(-1.0, 1.0, size=(40, 3)))
    decision = decide(scatter, FilterConfig())
    assert decision.plane_ok is False
    assert decision.area_ok is False
    assert decision.height_ok is False
    assert decision.ok is False
    assert decision.transformation is Transformation.INCH_WORM
    assert decision.pose is None
    assert decision.diagnostics.inlier_count == 0
    assert decision.diagnostics.boundary_count == 0
    assert decision.diagnostics.accepted_candidate is None
    assert decision.diagnostics.height_delta is None


def test_decide_level_square_goes_mobile():
    decision = decide(square_cloud(), small_filter())
    assert (decision.plane_ok, decision.area_ok, decision.height_ok) == (True, True, True)
    assert decision.ok is True
    assert decision.transformation is Transformation.MOBILE
    assert decision.pose is not None
    assert decision.diagnostics.inlier_count > 0
    assert decision.diagnostics.boundary_count > 0
    assert decision.diagnostics.accepted_candidate is not None
    assert decision.diagnostics.accepted_candidate >= 1
    assert decision.diagnostics.height_delta == pytest.approx(0.0, abs=1e-6)


def test_decide_lowered_square_keeps_pose_but_steps():
    decision = decide(square_cloud(z=-0.07), small_filter())
    assert decision.plane_ok is True
    assert decision.area_ok is True
    assert decision.height_ok is False
    assert decision.ok is False
    assert decision.transformation is Transformation.INCH_WORM
    assert decision.pose is not None
    assert decision.diagnostics.height_delta == pytest.approx(-0.07, abs=1e-3)


def test_decide_narrow_strip_rejects_foot():
    spec = SyntheticCloudSpec(shape=CloudShape.STRIP, size_x=0.40, size_y=0.05, pitch=0.01)
    decision = decide(generate_cloud(spec, seed=0), small_filter())
    assert decision.plane_ok is True
    assert decision.area_ok is False
    assert decision.ok is False
    assert decision.transformation is Transformation.INCH_WORM
    assert decision.pose is None
    assert decision.diagnostics.accepted_candidate is None


def test_decide_skips_placement_exactly_when_the_rim_is_too_small():
    placed = decide(square_cloud(), small_filter())
    rim = placed.diagnostics.boundary_count
    for foot in (FootGeometry(candidate_count=rim + 1), FootGeometry(neighbor_count=rim + 1)):
        decision = decide(square_cloud(), small_filter(), foot=foot)
        assert (decision.plane_ok, decision.area_ok, decision.height_ok) == (True, False, True)
        assert decision.pose is None and decision.transformation is Transformation.INCH_WORM
        assert decision.diagnostics.boundary_count == rim
        assert decision.diagnostics.accepted_candidate is None
        assert decision.diagnostics.height_delta == placed.diagnostics.height_delta
    # a rim of exactly the needed size is placed on
    decision = decide(square_cloud(), small_filter(), foot=FootGeometry(candidate_count=rim))
    assert decision_to_json(decision) == decision_to_json(placed)


def test_decide_is_deterministic():
    cloud = square_cloud()
    a = decision_to_json(decide(cloud, small_filter(), seed=7))
    b = decision_to_json(decide(cloud, small_filter(), seed=7))
    assert a == b


# -- wire format -------------------------------------------------------------


def test_decision_dict_key_names():
    decision = decide(square_cloud(), small_filter())
    wire = decision_to_dict(decision)
    assert list(wire.keys()) == ["s_pa", "s_am", "s_hc", "s", "transformation", "pose", "diagnostics"]
    assert list(wire["diagnostics"].keys()) == [
        "inlier_count", "boundary_count", "accepted_candidate", "height_delta_m",
    ]
    assert wire["transformation"] == "Mobile"
    assert set(wire["pose"].keys()) == {"position", "orientation"}
    assert len(wire["pose"]["position"]) == 3
    orientation = np.asarray(wire["pose"]["orientation"], dtype=np.float64)
    assert orientation.shape == (3, 3)
    np.testing.assert_allclose(orientation, np.asarray(decision.pose.orientation), atol=1e-12)


def test_decision_dict_null_pose_when_rejected():
    spec = SyntheticCloudSpec(shape=CloudShape.STRIP, size_x=0.40, size_y=0.05, pitch=0.01)
    wire = decision_to_dict(decide(generate_cloud(spec, seed=0), small_filter()))
    assert wire["pose"] is None
    assert wire["s_am"] is False
    assert wire["transformation"] == "InchWorm"


def test_decision_json_round_trip_preserves_order():
    decision = decide(square_cloud(), small_filter())
    text = decision_to_json(decision)
    parsed = json.loads(text)
    assert parsed == decision_to_dict(decision)
    assert text.index('"s_pa"') < text.index('"s_am"') < text.index('"s_hc"') < text.index('"s"')


# The area stage on noisy frames (1 cm pitch, 1 mm noise, 10 % outliers,
# default configuration).  The probes test the rectangle the pose describes,
# a quarter foot length inward of the one hung flush with the boundary point
# nearest the centroid, and judge each probe only by its distance from the
# centroid, never by whether steel lies under it.


def noisy_frame(shape: CloudShape, seed: int, **dims) -> PointCloud:
    spec = SyntheticCloudSpec(shape=shape, pitch=0.01, noise_sigma=0.001, outlier_fraction=0.10, **dims)
    return generate_cloud(spec, seed=seed)


def test_noisy_level_l_holds_the_foot():
    # 0.20 m arms hold the 0.10 x 0.15 m foot
    assert decide(noisy_frame(CloudShape.L_SHAPE, 16, size_x=0.40, size_y=0.40)).area_ok


def test_noisy_strip_holds_the_foot():
    assert decide(noisy_frame(CloudShape.STRIP, 12, size_x=0.46, size_y=0.30)).area_ok


def test_noisy_level_l_near_its_corner_holds_the_foot():
    # read "does not fit" while the rim pinned the z-extreme inliers: a noise
    # point mid-plate became the first anchor
    assert decide(noisy_frame(CloudShape.L_SHAPE, 35, size_x=0.40, size_y=0.40)).area_ok


@pytest.mark.xfail(strict=True, reason="probes over the hole are judged by their distance from the centroid")
def test_thin_ring_rejects_the_foot():
    # the 6 cm rim around a 0.38 m hole cannot hold the 0.10 x 0.15 m foot
    assert not decide(noisy_frame(CloudShape.RECTANGLE_WITH_HOLE, 0, size_x=0.50, size_y=0.50,
                                  hole_size=0.38)).area_ok


# The level shapes of the decide-small benchmark, turned through 24 yaws of
# 15 degrees and drawn at seeds 1-3.  "Fits" shapes hold the foot; "narrow"
# shapes are too small for it whichever way it is turned.
SWEEP_FITS = {
    CloudShape.RECTANGLE: dict(size_x=0.32, size_y=0.32),
    CloudShape.STRIP: dict(size_x=0.46, size_y=0.30),
    CloudShape.L_SHAPE: dict(size_x=0.40, size_y=0.40),
    CloudShape.RECTANGLE_WITH_HOLE: dict(size_x=0.36, size_y=0.36, hole_size=0.10),
    CloudShape.CIRCLE: dict(size_x=0.38, size_y=0.38),
}
SWEEP_NARROW = {
    CloudShape.RECTANGLE: dict(size_x=1.20, size_y=0.07),
    CloudShape.STRIP: dict(size_x=1.40, size_y=0.06),
    CloudShape.L_SHAPE: dict(size_x=1.20, size_y=0.08),
    CloudShape.RECTANGLE_WITH_HOLE: dict(size_x=1.20, size_y=0.08, hole_size=0.04),
    CloudShape.CIRCLE: dict(size_x=0.12, size_y=0.12),
}
SWEEP_YAWS = range(24)
SWEEP_SEEDS = (1, 2, 3)


def yawed_frame(shape: CloudShape, dims: dict, step: int, seed: int) -> PointCloud:
    pose = RigidTransform.from_euler_zyx(step * math.pi / 12, 0.0, 0.0)
    return noisy_frame(shape, seed, pose=pose, **dims)


@pytest.mark.parametrize("shape, fits", [(s, True) for s in SWEEP_FITS] + [(s, False) for s in SWEEP_NARROW],
                         ids=[f"{s.value}-fits" for s in SWEEP_FITS] + [f"{s.value}-narrow" for s in SWEEP_NARROW])
def test_area_verdict_over_yaws(shape, fits):
    dims = (SWEEP_FITS if fits else SWEEP_NARROW)[shape]
    wrong = [
        (step, seed) for step in SWEEP_YAWS for seed in SWEEP_SEEDS
        if decide(yawed_frame(shape, dims, step, seed)).area_ok is not fits
    ]
    assert wrong == []

