"""Library calls outside their domain raise DomainError, never numpy's own
error or a silently wrong result."""

import math

import numpy as np
import pytest

from steelnav.actuate import JumpPlanConfig, MagnetArrayState, MagnetPlant, plan_jump_trajectory, simulate_magnet
from steelnav.boundary import estimate_boundary
from steelnav.cloud import FilterConfig, PlanarPatch, PointCloud, RigidTransform
from steelnav.drive import Pose2D, simulate_track, trace_to_csv
from steelnav.errors import DomainError
from steelnav.footprint import FootGeometry, closest_points
from steelnav.pid import PIDGains, PIDState, pid_step
from steelnav.switching import HeightConfig, decide, decision_to_json
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
    "plant-disturbance-inf": lambda: MagnetPlant(disturbance=math.inf),
    "plant-disturbance-nan": lambda: MagnetPlant(disturbance=NAN),
    "pid-kp-nan": lambda: PIDGains(**{**GAINS, "kp": NAN}),
    "pid-out-limit-nan": lambda: PIDGains(**{**GAINS, "out_limit": NAN}),
    "pid-int-limit-nan": lambda: PIDGains(**{**GAINS, "int_limit": NAN}),
    "pid-step-dt-nan": lambda: pid_step(0.1, PIDGains(**GAINS), NAN, PIDState()),
    "gap-left-nan": lambda: MagnetArrayState(gap_left=NAN),
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
