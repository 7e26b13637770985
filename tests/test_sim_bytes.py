"""Identity of the simulators and their CSV writers against plain reference
versions: the two-loop drive step and the magnet gap step as functions over
``PIDState`` values, measurement noise drawn one step at a time, drive rows
holding ``Pose2D`` and ``TrackingError`` objects, the magnet state rebuilt
with ``dataclasses.replace``, and rows formatted value by value with
f-strings.  The simulators must match every field of every trace row and of
the final state, not only the CSV text."""

import math
import struct
from dataclasses import dataclass, replace

import numpy as np
import pytest

from steelnav.actuate import (
    DEFAULT_MAGNET_GAINS,
    MAGNET_TRACE_HEADER,
    MagnetArrayState,
    MagnetMode,
    MagnetPlant,
    _plant_side,
    magnet_trace_to_csv,
    simulate_magnet,
    trajectory_to_csv,
)
from steelnav.drive import (
    TRACE_HEADER,
    DriveGains,
    Pose2D,
    TrackingError,
    _reference_poses,
    simulate_track,
    trace_to_csv,
    tracking_error,
    wrap_angle,
)
from steelnav.errors import DomainError
from steelnav.pid import PIDGains, PIDState, pid_step


def reference_drive_step(e, heading_error, gains, dt, position, heading, v_limit):
    """One step of the two-loop controller: speed from the distance, turn rate
    from the bearing error, the speed capped at ``v_limit``."""
    v, position = pid_step(e.distance, gains.position, dt, position)
    omega, heading = pid_step(heading_error, gains.heading, dt, heading)
    return min(v, v_limit), omega, position, heading


@dataclass(frozen=True)
class NestedRow:
    """One drive step with the true pose and the tracking error as objects;
    ``flat`` lists its values in the order of ``TraceRow``'s fields."""

    t: float
    pose: Pose2D
    error: TrackingError
    v: float
    omega: float
    waypoint_index: int
    position_integral: float
    heading_integral: float

    def flat(self) -> tuple:
        return (self.t, self.pose.x, self.pose.y, self.pose.phi, self.error.e1, self.error.e2, self.error.e3,
                self.v, self.omega, self.waypoint_index, self.position_integral, self.heading_integral)


def reference_track(waypoints, noise_sigma, noise_seed, start=Pose2D(0.0, 0.0, 0.0), gains=DriveGains(), dt=0.02,
                    v_ref=0.2, horizon=60.0, accept_radius=0.03):
    """simulate_track's loop with one three-value noise draw per step."""
    references = _reference_poses(start, waypoints)
    rng = np.random.default_rng(noise_seed)
    pose, rows, wp_index, t = start, [], 0, 0.0
    position = heading = PIDState()
    for _ in range(int(round(horizon / dt))):
        while wp_index < len(references) and math.hypot(
                references[wp_index].x - pose.x, references[wp_index].y - pose.y) <= accept_radius:
            wp_index += 1
        if wp_index == len(references):
            break
        target = references[wp_index]
        measured = pose
        if noise_sigma > 0:
            jitter = rng.normal(0.0, noise_sigma, size=3).tolist()
            measured = Pose2D(pose.x + jitter[0], pose.y + jitter[1], pose.phi + jitter[2])
        e = tracking_error(measured, target)
        bearing = math.atan2(target.y - measured.y, target.x - measured.x)
        heading_error = wrap_angle(bearing - measured.phi)
        v, omega, position, heading = reference_drive_step(e, heading_error, gains, dt, position, heading, v_ref)
        rows.append(NestedRow(
            t=t, pose=pose, error=e, v=v, omega=omega, waypoint_index=wp_index,
            position_integral=position.integral, heading_integral=heading.integral,
        ))
        pose = Pose2D(
            x=pose.x + v * math.cos(pose.phi) * dt,
            y=pose.y + v * math.sin(pose.phi) * dt,
            phi=pose.phi + omega * dt,
        )
        t += dt
    return rows, pose, wp_index, t


def reference_trace_csv(rows) -> str:
    lines = [TRACE_HEADER]
    for row in rows:
        values = (row.t, row.pose.x, row.pose.y, row.pose.phi, row.error.e1, row.error.e2, row.error.e3,
                  row.v, row.omega)
        lines.append(",".join(f"{v:.9g}" for v in values) + f",{row.waypoint_index}")
    return "\n".join(lines) + "\n"


def reference_magnet_step(state, setpoint, gains, plant, dt, trim_gain):
    """One gap control step; the rebuilt state checks the gaps and the command."""
    if setpoint < 0:
        raise DomainError("gap setpoint cannot be negative")
    command, controller = pid_step(setpoint - state.mean_gap, gains, dt, state.controller)
    trim = trim_gain * (state.gap_left - state.gap_right)
    gap_l, rate_l = _plant_side(state.gap_left, state.rate_left, max(-1.0, min(1.0, command - trim)), plant, dt)
    gap_r, rate_r = _plant_side(state.gap_right, state.rate_right, max(-1.0, min(1.0, command + trim)), plant, dt)
    return replace(state, gap_left=gap_l, gap_right=gap_r, rate_left=rate_l, rate_right=rate_r,
                   command=command, controller=controller)


def reference_magnet(left, right, setpoint, plant, gains=DEFAULT_MAGNET_GAINS, dt=0.005, duration=2.0,
                     trim_gain=0.5, tolerance=0.05):
    """simulate_magnet's loop over whole states: (rows, every state from the
    initial one to the final one, settle time)."""
    mode = MagnetMode.TOUCHED if setpoint == 0.0 else MagnetMode.UNTOUCHED
    states = [MagnetArrayState(mode=mode, gap_left=left, gap_right=right)]
    rows, t = [], 0.0
    for _ in range(int(round(duration / dt))):
        state = reference_magnet_step(states[-1], setpoint, gains, plant, dt, trim_gain)
        states.append(state)
        t += dt
        rows.append((t, state.gap_left, state.gap_right, state.command))
    inside = [abs(gl - setpoint) < tolerance and abs(gr - setpoint) < tolerance for _, gl, gr, _ in rows]
    settle_time = next((rows[i][0] for i in range(len(rows)) if all(inside[i:])), None)
    return rows, states, settle_time


def reference_magnet_csv(rows) -> str:
    lines = [MAGNET_TRACE_HEADER]
    for t, gl, gr, u in rows:
        lines.append(",".join(f"{v:.9g}" for v in (t, gl, gr, u)))
    return "\n".join(lines) + "\n"


def reference_trajectory_csv(path) -> str:
    return "\n".join(",".join(f"{v:.9g}" for v in row) for row in np.asarray(path, dtype=np.float64)) + "\n"


ROUTE = (Pose2D(0.7, 0.2, 0.0), Pose2D(1.1, 0.8, 0.0), Pose2D(0.5, 1.2, 0.0))


def assert_same_rows(got, want):
    """Row by row, every field bit for bit: a float's repr round-trips, and a
    numpy scalar where a Python float belongs shows as ``np.float64(...)``.
    A nested drive row is compared through its flat values, and its pose and
    error objects with the ones that the flat row builds."""
    assert len(got) == len(want)
    for step, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, NestedRow):
            assert (step, repr(a.pose), repr(a.error)) == (step, repr(b.pose), repr(b.error))
            b = b.flat()
        assert (step, repr(tuple(a))) == (step, repr(b))


def assert_track_matches_reference(waypoints, sigma, seed, **kwargs):
    result = simulate_track(waypoints, noise_sigma=sigma, noise_seed=seed, **kwargs)
    rows, final_pose, reached, duration = reference_track(waypoints, sigma, seed, **kwargs)
    assert len(rows) > 256  # longer than one noise block
    assert_same_rows(result.rows, rows)
    assert trace_to_csv(result) == reference_trace_csv(rows)
    assert repr((result.final_pose, result.waypoints_reached, result.duration)) == repr((final_pose, reached, duration))
    assert result.converged == (reached == len(waypoints))
    return result


@pytest.mark.parametrize("waypoints, sigma, seed", [
    ((Pose2D(2.0, 0.0, 0.0),), 0.002, 0),
    ((Pose2D(2.0, 0.0, 0.0),), 0.002, 1),
    (ROUTE, 0.002, 7),
    (ROUTE, 0.01, 2024),
    (ROUTE, 0.0, 3),
])
def test_track_trace_matches_per_step_noise_reference(waypoints, sigma, seed):
    assert_track_matches_reference(waypoints, sigma, seed)


def test_track_matches_reference_through_saturation_and_anti_windup():
    gains = DriveGains(heading=PIDGains(kp=2.0, ki=0.6, kd=0.2, out_limit=1.0, int_limit=0.1))
    behind = (Pose2D(-1.0, 0.3, 0.0), Pose2D(-0.2, 1.0, 0.0))
    rows = assert_track_matches_reference(behind, 0.002, 5, gains=gains).rows
    limit = gains.position.out_limit
    held = [b for a, b in zip(rows, rows[1:]) if b.v == limit and b.position_integral == a.position_integral]
    assert held  # the speed loop saturated and stopped integrating
    assert any(abs(row.omega) == gains.heading.out_limit for row in rows)
    assert any(abs(row.heading_integral) == gains.heading.int_limit for row in rows)


def test_track_matches_reference_with_v_ref_below_speed_limit():
    rows = assert_track_matches_reference(ROUTE, 0.002, 9, v_ref=0.1).rows
    assert max(row.v for row in rows) == 0.1 < DriveGains().position.out_limit


def test_track_matches_reference_across_the_heading_wrap():
    start = Pose2D(0.0, 0.0, 3.1)
    rows = assert_track_matches_reference((Pose2D(-1.0, -0.5, 0.0),), 0.05, 4, start=start).rows
    # the true heading turns through pi: it jumps from near +pi to near -pi
    assert any(a.pose.phi > 3.0 and b.pose.phi < -3.0 for a, b in zip(rows, rows[1:]))


def test_track_with_its_only_waypoint_already_accepted_takes_no_step():
    start = Pose2D(0.5, -0.2, 2.0)
    waypoints = (Pose2D(0.52, -0.2, 0.0),)  # 2 cm away, inside accept_radius
    result = simulate_track(waypoints, start=start, noise_sigma=0.01, noise_seed=1)
    assert reference_track(waypoints, 0.01, 1, start=start) == ([], start, 1, 0.0)
    assert result.rows == ()
    assert repr(result.final_pose) == repr(start)
    assert (result.converged, result.waypoints_reached, result.duration) == (True, 1, 0.0)
    assert trace_to_csv(result) == TRACE_HEADER + "\n"


def assert_magnet_matches_reference(left, right, setpoint, plant, **kwargs):
    trace = simulate_magnet(left, right, setpoint, plant=plant, **kwargs)
    rows, states, settle_time = reference_magnet(left, right, setpoint, plant, **kwargs)
    assert_same_rows(trace.rows, rows)
    assert magnet_trace_to_csv(trace) == reference_magnet_csv(rows)
    # the final state carries the gap rates and the controller memory as well
    assert repr(trace.final_state) == repr(states[-1])
    assert trace.final_state == states[-1]
    assert trace.settle_time == settle_time
    return states


@pytest.mark.parametrize("left, right, setpoint, disturbance", [
    (3.0, 2.2, 1.0, 0.04),
    (0.4, 1.7, 0.0, -0.03),
])
def test_magnet_trace_matches_replace_reference(left, right, setpoint, disturbance):
    assert_magnet_matches_reference(left, right, setpoint, MagnetPlant(disturbance=disturbance))


def test_magnet_matches_reference_through_saturation_and_contact():
    gains = PIDGains(kp=3.0, ki=2.0, kd=0.05, out_limit=1.0, int_limit=0.02)
    states = assert_magnet_matches_reference(2.5, 0.3, 0.0, MagnetPlant(disturbance=-0.02), gains=gains)
    held = [b for a, b in zip(states, states[1:])
            if abs(b.command) == gains.out_limit and b.controller.integral == a.controller.integral]
    assert held  # the command saturated and the integral stopped
    assert any(abs(s.controller.integral) == gains.int_limit for s in states)
    assert any(s.gap_right == 0.0 and s.gap_left > 0.0 for s in states)  # one side reached contact first


def test_magnet_short_run_matches_reference():
    assert_magnet_matches_reference(1.0, 1.0, 0.0, MagnetPlant(), duration=0.001)  # zero steps
    assert_magnet_matches_reference(1.0, 1.2, 0.0, MagnetPlant(), duration=0.005)  # one step


def test_magnet_command_range_check_fails_at_the_reference_step():
    gains = replace(DEFAULT_MAGNET_GAINS, out_limit=1.5)
    plant, dt = MagnetPlant(disturbance=6.0), 0.005

    def fails(simulate, steps):
        try:
            simulate(1.0, 1.0, 1.0, plant=plant, gains=gains, dt=dt, duration=steps * dt)
        except DomainError as exc:
            assert str(exc) == "motor command must lie in [-1, 1]"
            return True
        return False

    first = next(k for k in range(1, 400) if fails(reference_magnet, k))
    assert first > 1
    assert not fails(simulate_magnet, first - 1)
    assert fails(simulate_magnet, first)


def test_trajectory_csv_matches_reference():
    path = np.random.default_rng(5).uniform(-np.pi, np.pi, size=(37, 6))
    path[3, :] = [0.0, -0.0, 5e-324, 1e300, -1e-300, 1.0 / 3.0]
    assert trajectory_to_csv(path) == reference_trajectory_csv(path)
    assert trajectory_to_csv(np.zeros((0, 6))) == reference_trajectory_csv(np.zeros((0, 6)))


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
    0.1, 1e16, 123456789.5, 1e-5, 9.9999999995e-5,
]


def test_percent_format_equals_format_spec():
    rng = np.random.default_rng(11)
    patterns = rng.integers(0, 2**64, size=20_000, dtype=np.uint64)
    values = SPECIAL_FLOATS + [struct.unpack("<d", struct.pack("<Q", int(b)))[0] for b in patterns]
    for v in values:
        assert "%.9g" % v == format(v, ".9g")
        assert "%.9g" % v == format(np.float64(v), ".9g")
