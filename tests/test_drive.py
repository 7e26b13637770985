"""Tests for the body-frame tracking error, two-loop controller, and the
path-tracking simulator."""

import math
from pathlib import Path

import numpy as np
import pytest

from steelnav.drive import (
    TRACE_HEADER,
    DriveGains,
    Pose2D,
    TraceRow,
    TrackingError,
    error_rate,
    simulate_track,
    trace_to_csv,
    tracking_error,
    wrap_angle,
)
from steelnav.errors import DomainError
from steelnav.pid import PIDGains, PIDState, pid_step


# -- wrap_angle --------------------------------------------------------------


def test_wrap_angle_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(1.0) == pytest.approx(1.0)
    assert wrap_angle(-1.0) == pytest.approx(-1.0)


def test_wrap_angle_boundary_maps_to_positive_pi():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)


def test_wrap_angle_periodicity():
    for k in (-3, -2, -1, 1, 2, 3):
        assert wrap_angle(0.4 + k * 2 * math.pi) == pytest.approx(0.4, abs=1e-12)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)


def test_wrap_angle_range_is_half_open():
    rng = np.random.default_rng(11)
    for a in rng.uniform(-50.0, 50.0, size=500):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi


# -- Pose2D / TrackingError --------------------------------------------------


def test_pose_wraps_heading_on_construction():
    p = Pose2D(1.0, 2.0, 3 * math.pi)
    assert p.phi == pytest.approx(math.pi)


def test_pose_rejects_non_finite():
    with pytest.raises(DomainError):
        Pose2D(float("nan"), 0.0, 0.0)
    with pytest.raises(DomainError):
        Pose2D(0.0, float("inf"), 0.0)


def test_tracking_error_distance():
    e = TrackingError(3.0, 4.0, 0.1)
    assert e.distance == pytest.approx(5.0)


# -- tracking_error ----------------------------------------------------------


def test_tracking_error_quarter_turn_example():
    # robot at the origin facing +y, target one meter down +x: the target
    # sits to the robot's right (negative lateral), a quarter turn behind
    e = tracking_error(Pose2D(0.0, 0.0, math.pi / 2), Pose2D(1.0, 0.0, 0.0))
    assert e.e1 == pytest.approx(0.0, abs=1e-12)
    assert e.e2 == pytest.approx(-1.0)
    assert e.e3 == pytest.approx(-math.pi / 2)


def test_tracking_error_zero_heading_is_plain_difference():
    e = tracking_error(Pose2D(1.0, -2.0, 0.0), Pose2D(3.0, 1.0, 0.0))
    assert (e.e1, e.e2, e.e3) == (pytest.approx(2.0), pytest.approx(3.0), pytest.approx(0.0))


def test_tracking_error_vanishes_on_identical_poses():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = Pose2D(*rng.uniform(-10, 10, size=2), float(rng.uniform(-math.pi, math.pi)))
        e = tracking_error(p, p)
        assert e.e1 == 0.0 and e.e2 == 0.0 and e.e3 == 0.0


def test_tracking_error_invariant_under_common_rigid_motion():
    rng = np.random.default_rng(17)
    for _ in range(200):
        cur = Pose2D(*rng.uniform(-5, 5, size=2), float(rng.uniform(-3, 3)))
        tgt = Pose2D(*rng.uniform(-5, 5, size=2), float(rng.uniform(-3, 3)))
        psi = float(rng.uniform(-3, 3))
        ox, oy = rng.uniform(-5, 5, size=2)
        c, s = math.cos(psi), math.sin(psi)

        def moved(p):
            return Pose2D(c * p.x - s * p.y + ox, s * p.x + c * p.y + oy, p.phi + psi)

        a = tracking_error(cur, tgt)
        b = tracking_error(moved(cur), moved(tgt))
        assert b.e1 == pytest.approx(a.e1, abs=1e-9)
        assert b.e2 == pytest.approx(a.e2, abs=1e-9)
        assert b.e3 == pytest.approx(a.e3, abs=1e-9)


# -- error_rate --------------------------------------------------------------


def _advance(pose: Pose2D, v: float, omega: float, h: float) -> Pose2D:
    """Exact unicycle propagation under constant speed and turn rate."""
    if abs(omega) < 1e-15:
        return Pose2D(pose.x + v * math.cos(pose.phi) * h, pose.y + v * math.sin(pose.phi) * h, pose.phi)
    return Pose2D(
        pose.x + v / omega * (math.sin(pose.phi + omega * h) - math.sin(pose.phi)),
        pose.y - v / omega * (math.cos(pose.phi + omega * h) - math.cos(pose.phi)),
        pose.phi + omega * h,
    )


def test_error_rate_equilibrium_is_zero():
    e = TrackingError(0.0, 0.0, 0.0)
    r = error_rate(e, v_c=0.15, omega_c=0.3, v_r=0.15, omega_r=0.3)
    assert r.e1 == pytest.approx(0.0, abs=1e-15)
    assert r.e2 == pytest.approx(0.0, abs=1e-15)
    assert r.e3 == pytest.approx(0.0, abs=1e-15)


def test_error_rate_matches_central_difference():
    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(50):
        cur = Pose2D(*rng.uniform(-2, 2, size=2), float(rng.uniform(-2, 2)))
        tgt = Pose2D(*rng.uniform(-2, 2, size=2), float(rng.uniform(-2, 2)))
        v_c, omega_c = float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.8, 0.8))
        v_r, omega_r = float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.8, 0.8))

        plus = tracking_error(_advance(cur, v_c, omega_c, h), _advance(tgt, v_r, omega_r, h))
        minus = tracking_error(_advance(cur, v_c, omega_c, -h), _advance(tgt, v_r, omega_r, -h))
        numeric = (
            (plus.e1 - minus.e1) / (2 * h),
            (plus.e2 - minus.e2) / (2 * h),
            wrap_angle(plus.e3 - minus.e3) / (2 * h),
        )
        analytic = error_rate(tracking_error(cur, tgt), v_c, omega_c, v_r, omega_r)
        assert numeric[0] == pytest.approx(analytic.e1, abs=1e-6)
        assert numeric[1] == pytest.approx(analytic.e2, abs=1e-6)
        assert numeric[2] == pytest.approx(analytic.e3, abs=1e-6)


# -- the two-loop controller, as simulate_track runs it ----------------------


def test_mixed_pid_zero_error_zero_command():
    gains = DriveGains()
    for loop in (gains.position, gains.heading):
        out, _ = pid_step(0.0, loop, 0.02, PIDState())
        assert out == 0.0
    # a waypoint dead ahead never asks for a turn
    result = simulate_track([Pose2D(1.0, 0.0, 0.0)])
    assert result.rows and all(row.omega == 0.0 for row in result.rows)


def test_mixed_pid_first_step_heading_is_pure_p():
    gains = DriveGains()
    first = simulate_track([Pose2D(1.0, 0.3, 0.0)], gains=gains).rows[0]
    assert first.omega == pytest.approx(gains.heading.kp * math.atan2(0.3, 1.0))


def test_mixed_pid_saturates_speed():
    gains = DriveGains()
    rows = simulate_track([Pose2D(5.0, 0.0, 0.0)], gains=gains, v_ref=1.0, horizon=1.0).rows
    assert rows[0].v == gains.position.out_limit
    assert max(row.v for row in rows) == gains.position.out_limit


def test_mixed_pid_honors_external_speed_cap():
    rows = simulate_track([Pose2D(5.0, 0.0, 0.0)], v_ref=0.1, horizon=1.0).rows
    assert rows[0].v == 0.1
    assert max(row.v for row in rows) == 0.1


# -- simulate_track ----------------------------------------------------------


def test_simulate_validates_arguments():
    wp = [Pose2D(1.0, 0.0, 0.0)]
    with pytest.raises(DomainError):
        simulate_track([])
    with pytest.raises(DomainError):
        simulate_track(wp, dt=0.0)
    with pytest.raises(DomainError):
        simulate_track(wp, dt=0.2)
    with pytest.raises(DomainError):
        simulate_track(wp, horizon=0.0)
    with pytest.raises(DomainError):
        simulate_track(wp, accept_radius=0.0)
    with pytest.raises(DomainError):
        simulate_track(wp, v_ref=0.0)


def test_simulate_waypoint_at_start_accepts_immediately():
    result = simulate_track([Pose2D(0.0, 0.0, 0.0)])
    assert result.converged is True
    assert result.waypoints_reached == 1
    assert result.rows == ()
    assert result.duration == 0.0


def test_simulate_straight_line_converges():
    result = simulate_track([Pose2D(2.0, 0.0, 0.0)])
    assert result.converged is True
    assert result.waypoints_reached == 1
    assert math.hypot(result.final_pose.x - 2.0, result.final_pose.y) <= 0.03 + 1e-12
    assert abs(result.rows[-1].error.e3) < math.radians(5.0)
    assert 0 < len(result.rows) < 1500


def test_simulate_l_path_converges_and_respects_limits():
    gains = DriveGains()
    result = simulate_track([Pose2D(2.0, 0.0, 0.0), Pose2D(2.0, 2.0, math.pi / 2)])
    assert result.converged is True
    assert result.waypoints_reached == 2
    for row in result.rows:
        assert abs(row.v) <= gains.position.out_limit + 1e-12
        assert abs(row.omega) <= gains.heading.out_limit + 1e-12
        assert abs(row.position_integral) <= gains.position.int_limit + 1e-12
        assert abs(row.heading_integral) <= gains.heading.int_limit + 1e-12


def test_simulate_waypoint_indices_are_nondecreasing():
    result = simulate_track([Pose2D(1.0, 0.0, 0.0), Pose2D(1.0, 1.0, 0.0)])
    indices = [row.waypoint_index for row in result.rows]
    assert indices[0] == 0
    assert all(a <= b for a, b in zip(indices, indices[1:]))
    assert max(indices) <= 1


def test_simulate_short_horizon_reports_non_convergence():
    result = simulate_track([Pose2D(2.0, 0.0, 0.0)], horizon=0.5)
    assert result.converged is False
    assert result.waypoints_reached == 0
    assert len(result.rows) == 25
    assert result.duration == pytest.approx(0.5)


def test_simulate_speed_never_exceeds_reference_cap():
    result = simulate_track([Pose2D(2.0, 0.0, 0.0)], v_ref=0.1)
    assert all(row.v <= 0.1 + 1e-12 for row in result.rows)


def test_simulate_is_deterministic():
    a = simulate_track([Pose2D(1.5, 0.5, 0.0)])
    b = simulate_track([Pose2D(1.5, 0.5, 0.0)])
    assert trace_to_csv(a) == trace_to_csv(b)


def test_simulate_noise_reproducible_by_seed():
    wp = [Pose2D(1.0, 0.0, 0.0)]
    a = simulate_track(wp, noise_sigma=0.01, noise_seed=4)
    b = simulate_track(wp, noise_sigma=0.01, noise_seed=4)
    c = simulate_track(wp, noise_sigma=0.01, noise_seed=5)
    assert trace_to_csv(a) == trace_to_csv(b)
    assert trace_to_csv(a) != trace_to_csv(c)


@pytest.mark.parametrize("sigma", [-0.5, -1e-12, float("nan")])
def test_simulate_rejects_negative_noise_sigma(sigma):
    with pytest.raises(DomainError, match="noise_sigma must be non-negative"):
        simulate_track([Pose2D(1.0, 0.0, 0.0)], noise_sigma=sigma)


@pytest.mark.parametrize("seed, message", [
    (1, "pose components must be finite"),
    (2, "pose components must be finite"),
    (3, "pose components must be finite"),
    (4, "pose components must be finite"),
    (5, "tracking error components must be finite"),
])
def test_simulate_overflowing_noise_raises_the_first_failed_check(seed, message):
    # Each step checks the measured pose (before its heading is wrapped), then
    # the tracking error: the seed decides which check an overflow trips first.
    with pytest.raises(DomainError) as info:
        simulate_track([Pose2D(1.0, 0.0, 0.0)], noise_sigma=1e308, noise_seed=seed)
    assert str(info.value) == message


def test_simulate_zero_noise_sigma_is_noise_free():
    wp = [Pose2D(1.0, 0.5, 0.0)]
    assert trace_to_csv(simulate_track(wp, noise_sigma=0.0, noise_seed=9)) == trace_to_csv(simulate_track(wp))


# -- trace CSV ---------------------------------------------------------------


def test_trace_header_and_field_count():
    result = simulate_track([Pose2D(0.5, 0.0, 0.0)])
    lines = trace_to_csv(result).splitlines()
    assert lines[0] == TRACE_HEADER
    assert TRACE_HEADER == "t,x,y,phi,e1,e2,e3,v,omega,waypoint_index"
    assert len(lines) == len(result.rows) + 1
    for line in lines[1:]:
        assert len(line.split(",")) == 10


def test_trace_header_is_the_row_schema_and_the_readme_columns():
    assert TRACE_HEADER == ",".join(TraceRow._fields[:10])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    line = next(line for line in readme.splitlines() if line.startswith("`track_trace.csv` columns:"))
    assert line.split("`")[3] == TRACE_HEADER


def test_trace_values_round_trip_at_nine_digits():
    result = simulate_track([Pose2D(0.5, 0.3, 0.0)])
    line = trace_to_csv(result).splitlines()[3]
    fields = line.split(",")
    row = result.rows[2]
    expected = [row.t, row.pose.x, row.pose.y, row.pose.phi,
                row.error.e1, row.error.e2, row.error.e3, row.v, row.omega]
    for text, value in zip(fields[:9], expected):
        assert float(text) == pytest.approx(value, rel=1e-8, abs=1e-12)
    assert fields[9] == str(row.waypoint_index)


def test_drive_gains_defaults():
    gains = DriveGains()
    assert gains.position == PIDGains(kp=0.8, ki=0.05, kd=0.1, out_limit=0.2, int_limit=0.5)
    assert gains.heading == PIDGains(kp=2.0, ki=0.0, kd=0.2, out_limit=1.0, int_limit=0.5)
