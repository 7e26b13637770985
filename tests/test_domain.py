"""Library calls outside their domain raise DomainError, never numpy's own
error or a silently wrong result."""

import math

import numpy as np
import pytest

from steelnav.actuate import JumpPlanConfig, MagnetArrayState, MagnetPlant, plan_jump_trajectory, simulate_magnet
from steelnav.actuate import trajectory_to_csv
from steelnav.boundary import BoundaryEstimate, directed_hausdorff, estimate_boundary
from steelnav.cloud import FilterConfig, PlanarPatch, PointCloud, RigidTransform
from steelnav.drive import Pose2D, simulate_track, trace_to_csv
from steelnav.errors import DomainError
from steelnav.footprint import CandidateRectangle, FootGeometry, FootPose, build_candidate, check_placeability
from steelnav.footprint import closest_points, probe_passes
from steelnav.pid import PIDGains, PIDState, pid_step
from steelnav.switching import HeightConfig, decide, decision_to_json, height_availability
from steelnav.synth import SyntheticCloudSpec, generate_cloud

NAN = math.nan
GAINS = dict(kp=1.0, ki=0.0, kd=0.0, out_limit=1.0, int_limit=1.0)
WAYPOINTS = (Pose2D(0.5, 0.0, 0.0),)
SPEC = SyntheticCloudSpec(noise_sigma=0.001)
# Each seeded call and the bytes of its result; simulate_track checks its
# seed with the noise off too.
SEEDED = {
    "decide": lambda seed: decision_to_json(decide(generate_cloud(SPEC), seed=seed)).encode(),
    "generate_cloud": lambda seed: generate_cloud(SPEC, seed=seed).points.tobytes(),
    "simulate_track": lambda seed: trace_to_csv(simulate_track(WAYPOINTS, noise_seed=seed)).encode(),
}


@pytest.mark.parametrize("caller", sorted(SEEDED))
@pytest.mark.parametrize("seed", [-1, 1.5, "1", None, np.int64(-3)])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_domain_error(caller, seed):
    with pytest.raises(DomainError, match="seed"):
        SEEDED[caller](seed)


@pytest.mark.parametrize("caller", sorted(SEEDED))
def test_a_numpy_integer_seed_reads_as_the_same_int(caller):
    assert SEEDED[caller](np.uint32(7)) == SEEDED[caller](7)


def _flat_patch():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return PlanarPatch(PointCloud(pts), [0.0, 0.0, 1.0], pts.mean(axis=0), [0.0, 0.0, 1.0, 0.0])


# Each of these once passed its guard: `x <= 0` and `x < 0` are false for NaN.
OUT_OF_DOMAIN = {
    "foot-width-nan": lambda: FootGeometry(width=NAN),
    "foot-length-nan": lambda: FootGeometry(length=NAN),
    "foot-width-inf": lambda: FootGeometry(width=math.inf),
    "foot-length-inf": lambda: FootGeometry(length=math.inf),
    "foot-tolerance-nan": lambda: FootGeometry(tolerance=NAN),
    "height-tolerance-nan": lambda: HeightConfig(tolerance=NAN),
    "height-base-nan": lambda: HeightConfig(base_height=NAN),
    "height-base-inf": lambda: HeightConfig(base_height=-math.inf),
    "filter-threshold-nan": lambda: FilterConfig(ransac_threshold=NAN),
    "filter-leaf-nan": lambda: FilterConfig(voxel_leaf=NAN),
    "rotation-nan": lambda: RigidTransform(np.full((3, 3), NAN), np.zeros(3)),
    "slice-width-nan": lambda: estimate_boundary(_flat_patch(), NAN),
    "plant-time-constant-nan": lambda: MagnetPlant(time_constant=NAN),
    "plant-speed-gain-nan": lambda: MagnetPlant(speed_gain=NAN),
    "plant-time-constant-inf": lambda: MagnetPlant(time_constant=math.inf),
    "plant-speed-gain-inf": lambda: MagnetPlant(speed_gain=math.inf),
    "plant-disturbance-inf": lambda: MagnetPlant(disturbance=math.inf),
    "plant-disturbance-nan": lambda: MagnetPlant(disturbance=NAN),
    "pid-kp-nan": lambda: PIDGains(**{**GAINS, "kp": NAN}),
    "pid-out-limit-nan": lambda: PIDGains(**{**GAINS, "out_limit": NAN}),
    "pid-int-limit-nan": lambda: PIDGains(**{**GAINS, "int_limit": NAN}),
    "pid-step-dt-nan": lambda: pid_step(0.1, PIDGains(**GAINS), NAN, PIDState()),
    "gap-left-nan": lambda: MagnetArrayState(gap_left=NAN),
    "gap-right-inf": lambda: MagnetArrayState(gap_right=math.inf),
    "magnet-initial-gap-inf": lambda: simulate_magnet(math.inf, 3, 1),
    "magnet-setpoint-inf": lambda: simulate_magnet(3, 3, math.inf),
    "jump-joints-nan": lambda: JumpPlanConfig(np.full(6, NAN), np.zeros(6), np.array([[-1.0, 1.0]] * 6)),
    "magnet-trim-gain-nan": lambda: simulate_magnet(3, 3, 1, trim_gain=NAN),
    "magnet-trim-gain-inf": lambda: simulate_magnet(3, 3, 1, trim_gain=math.inf),
    "track-v-ref-nan": lambda: simulate_track(WAYPOINTS, v_ref=NAN),
    "track-accept-radius-nan": lambda: simulate_track(WAYPOINTS, accept_radius=NAN),
}


@pytest.mark.parametrize("call", OUT_OF_DOMAIN.values(), ids=OUT_OF_DOMAIN.keys())
def test_nan_and_needless_infinities_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


PLAN = JumpPlanConfig(np.zeros(6), np.zeros(6), np.array([[-1.0, 1.0]] * 6))
# Each count entry point, called with one count
COUNTED = {
    "ransac_iterations": lambda n: FilterConfig(ransac_iterations=n),
    "min_inlier_count": lambda n: FilterConfig(min_inlier_count=n),
    "candidate_count": lambda n: FootGeometry(candidate_count=n),
    "neighbor_count": lambda n: FootGeometry(neighbor_count=n),
    "closest_points": lambda n: closest_points(np.eye(3), np.zeros(3), n),
    "plan_jump_trajectory": lambda n: plan_jump_trajectory(np.zeros(6), None, PLAN, steps=n),
}


@pytest.mark.parametrize("count", [2.5, "3", None])
@pytest.mark.parametrize("entry", sorted(COUNTED))
def test_a_count_that_is_not_an_integer_is_a_domain_error(entry, count):
    with pytest.raises(DomainError, match="must be an integer"):
        COUNTED[entry](count)


def test_numpy_integer_counts_decide_like_plain_ints():
    def decision(count):
        foot, cfg = FootGeometry(candidate_count=count(5)), FilterConfig(ransac_iterations=count(500))
        return decision_to_json(decide(generate_cloud(SPEC), filter_cfg=cfg, foot=foot, seed=1))

    assert decision(np.int64) == decision(int)


LIMITS = np.array([[-1.0, 1.0]] * 6)
RING = np.array([[math.cos(a), math.sin(a), 0.0] for a in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)])
UP, ORIGIN = np.array([0.0, 0.0, 1.0]), np.zeros(3)
TRIANGLE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
JOINTS, PROBES = np.zeros(6), RING[:2] / 2


def _patch(normal=UP, centroid=TRIANGLE.mean(axis=0), plane_coeffs=(0.0, 0.0, 1.0, 0.0)):
    return PlanarPatch(PointCloud(TRIANGLE), normal, centroid, plane_coeffs)


# Each array a dataclass stores or an entry point takes: the name its
# DomainError gives, a well-formed value, and the call with that value
# in its place and every other argument well formed.
ARRAY_SITES = {
    "PointCloud.points": ("points", TRIANGLE, PointCloud),
    "PlanarPatch.normal": ("normal", UP, lambda v: _patch(normal=v)),
    "PlanarPatch.centroid": ("centroid", TRIANGLE.mean(axis=0), lambda v: _patch(centroid=v)),
    "PlanarPatch.plane_coeffs": ("plane_coeffs", np.array([0.0, 0.0, 1.0, 0.0]), lambda v: _patch(plane_coeffs=v)),
    "RigidTransform.rotation": ("rotation matrix", np.eye(3), lambda v: RigidTransform(v, ORIGIN)),
    "RigidTransform.translation": ("translation", ORIGIN, lambda v: RigidTransform(np.eye(3), v)),
    "BoundaryEstimate.points": ("boundary points", RING, BoundaryEstimate),
    "CandidateRectangle.frame": ("candidate frame", np.eye(3), lambda v: CandidateRectangle(v, RING[:4], RING[4:8])),
    "CandidateRectangle.corners": ("corners", RING[:4], lambda v: CandidateRectangle(np.eye(3), v, RING[4:8])),
    "CandidateRectangle.midpoints": ("midpoints", RING[4:8], lambda v: CandidateRectangle(np.eye(3), RING[:4], v)),
    "FootPose.position": ("position", ORIGIN, lambda v: FootPose(v, np.eye(3))),
    "FootPose.orientation": ("orientation", np.eye(3), lambda v: FootPose(ORIGIN, v)),
    "JumpPlanConfig.convenient_joints": ("convenient_joints", JOINTS, lambda v: JumpPlanConfig(v, JOINTS, LIMITS)),
    "JumpPlanConfig.target_joints": ("target_joints", JOINTS, lambda v: JumpPlanConfig(JOINTS, v, LIMITS)),
    "JumpPlanConfig.joint_limits": ("joint_limits", LIMITS, lambda v: JumpPlanConfig(JOINTS, JOINTS, v)),
    "plan_jump_trajectory": ("from_joints", JOINTS, lambda v: plan_jump_trajectory(v, None, PLAN, 3)),
    "trajectory_to_csv": ("trajectory", np.zeros((3, 6)), trajectory_to_csv),
    "height_availability": ("centroid", ORIGIN, lambda v: height_availability(v, HeightConfig())),
    "directed_hausdorff.from": ("from_points", RING, lambda v: directed_hausdorff(v, RING)),
    "directed_hausdorff.to": ("to_points", RING, lambda v: directed_hausdorff(RING, v)),
    "closest_points.points": ("points", RING, lambda v: closest_points(v, ORIGIN, 3)),
    "closest_points.query": ("query", ORIGIN, lambda v: closest_points(RING, v, 3)),
    "build_candidate.anchor": ("anchor", RING[0], lambda v: build_candidate(v, ORIGIN, UP, FootGeometry())),
    "build_candidate.center": ("center", ORIGIN, lambda v: build_candidate(RING[0], v, UP, FootGeometry())),
    "build_candidate.normal": ("normal", UP, lambda v: build_candidate(RING[0], ORIGIN, v, FootGeometry())),
    "probe_passes.probes": ("probes", PROBES, lambda v: probe_passes(v, ORIGIN, RING, FootGeometry())),
    "probe_passes.center": ("center", ORIGIN, lambda v: probe_passes(PROBES, v, RING, FootGeometry())),
    "probe_passes.boundary_points": ("boundary_points", RING, lambda v: probe_passes(PROBES, ORIGIN, v, FootGeometry())),
    "check_placeability.boundary_points": ("boundary_points", RING, lambda v: check_placeability(v, ORIGIN, UP)),
    "check_placeability.center": ("center", ORIGIN, lambda v: check_placeability(RING, v, UP)),
    "check_placeability.normal": ("normal", UP, lambda v: check_placeability(RING, ORIGIN, v)),
}


def _with_nan(good):
    bad = np.array(good, dtype=float)
    bad.flat[-1] = NAN
    return bad


# Each way an array can be malformed, made from a well-formed one: one
# column short, wrapped in an extra axis (a (1, 3) vector, say), a NaN entry.
MALFORMED = {
    "short": lambda good: np.asarray(good)[..., :-1],
    "nested": lambda good: np.asarray(good)[None],
    "nan": _with_nan,
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("site", sorted(ARRAY_SITES))
def test_a_malformed_array_is_a_domain_error_naming_it(site, kind):
    what, good, call = ARRAY_SITES[site]
    call(good)
    with pytest.raises(DomainError, match=f"^{what} must"):
        call(MALFORMED[kind](good))
