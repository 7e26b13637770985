"""Byte-identity of the simulators and their CSV writers against plain
reference versions: measurement noise drawn one step at a time, the magnet
state rebuilt with ``dataclasses.replace``, and rows formatted value by
value with f-strings."""

import math
import struct
from dataclasses import replace

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
    DriveState,
    Pose2D,
    TraceRow,
    _reference_poses,
    mixed_pid_step,
    simulate_track,
    trace_to_csv,
    tracking_error,
    wrap_angle,
)
from steelnav.pid import pid_step


def reference_track(waypoints, noise_sigma, noise_seed, dt=0.02, v_ref=0.2, horizon=60.0, accept_radius=0.03):
    """simulate_track's loop with one three-value noise draw per step."""
    start, gains = Pose2D(0.0, 0.0, 0.0), DriveGains()
    references = _reference_poses(start, waypoints)
    rng = np.random.default_rng(noise_seed)
    pose, state, rows, wp_index, t = start, DriveState(), [], 0, 0.0
    for _ in range(int(round(horizon / dt))):
        while wp_index < len(references) and math.hypot(
                references[wp_index].x - pose.x, references[wp_index].y - pose.y) <= accept_radius:
            wp_index += 1
        if wp_index == len(references):
            break
        target = references[wp_index]
        measured = pose
        if noise_sigma > 0:
            jitter = rng.normal(0.0, noise_sigma, size=3)
            measured = Pose2D(pose.x + jitter[0], pose.y + jitter[1], pose.phi + jitter[2])
        e = tracking_error(measured, target)
        bearing = math.atan2(target.y - measured.y, target.x - measured.x)
        heading_error = wrap_angle(bearing - measured.phi)
        command, state = mixed_pid_step(e, heading_error, gains, dt, state, v_limit=v_ref)
        rows.append(TraceRow(
            t=t, pose=pose, error=e, v=command.v, omega=command.omega, waypoint_index=wp_index,
            position_integral=state.position.integral, heading_integral=state.heading.integral,
        ))
        pose = Pose2D(
            x=pose.x + command.v * math.cos(pose.phi) * dt,
            y=pose.y + command.v * math.sin(pose.phi) * dt,
            phi=pose.phi + command.omega * dt,
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


def reference_magnet_rows(left, right, setpoint, plant, dt=0.005, duration=2.0, trim_gain=0.5):
    """simulate_magnet's loop with the state rebuilt by dataclasses.replace."""
    mode = MagnetMode.TOUCHED if setpoint == 0.0 else MagnetMode.UNTOUCHED
    state = MagnetArrayState(mode=mode, gap_left=left, gap_right=right)
    rows, t = [], 0.0
    for _ in range(int(round(duration / dt))):
        command, controller = pid_step(setpoint - state.mean_gap, DEFAULT_MAGNET_GAINS, dt, state.controller)
        trim = trim_gain * (state.gap_left - state.gap_right)
        gap_l, rate_l = _plant_side(state.gap_left, state.rate_left, max(-1.0, min(1.0, command - trim)), plant, dt)
        gap_r, rate_r = _plant_side(state.gap_right, state.rate_right, max(-1.0, min(1.0, command + trim)), plant, dt)
        state = replace(state, gap_left=gap_l, gap_right=gap_r, rate_left=rate_l, rate_right=rate_r,
                        command=command, controller=controller)
        t += dt
        rows.append((t, state.gap_left, state.gap_right, state.command))
    return rows


def reference_magnet_csv(rows) -> str:
    lines = [MAGNET_TRACE_HEADER]
    for t, gl, gr, u in rows:
        lines.append(",".join(f"{v:.9g}" for v in (t, gl, gr, u)))
    return "\n".join(lines) + "\n"


def reference_trajectory_csv(path) -> str:
    return "\n".join(",".join(f"{v:.9g}" for v in row) for row in np.asarray(path, dtype=np.float64)) + "\n"


ROUTE = (Pose2D(0.7, 0.2, 0.0), Pose2D(1.1, 0.8, 0.0), Pose2D(0.5, 1.2, 0.0))


@pytest.mark.parametrize("waypoints, sigma, seed", [
    ((Pose2D(2.0, 0.0, 0.0),), 0.002, 0),
    ((Pose2D(2.0, 0.0, 0.0),), 0.002, 1),
    (ROUTE, 0.002, 7),
    (ROUTE, 0.01, 2024),
    (ROUTE, 0.0, 3),
])
def test_track_trace_matches_per_step_noise_reference(waypoints, sigma, seed):
    result = simulate_track(waypoints, noise_sigma=sigma, noise_seed=seed)
    rows, final_pose, reached, duration = reference_track(waypoints, sigma, seed)
    assert len(rows) > 256  # longer than one noise block
    assert trace_to_csv(result) == reference_trace_csv(rows)
    assert reference_trace_csv(result.rows) == trace_to_csv(result)
    assert (result.final_pose, result.waypoints_reached, result.duration) == (final_pose, reached, duration)


@pytest.mark.parametrize("left, right, setpoint, disturbance", [
    (3.0, 2.2, 1.0, 0.04),
    (0.4, 1.7, 0.0, -0.03),
])
def test_magnet_trace_matches_replace_reference(left, right, setpoint, disturbance):
    plant = MagnetPlant(disturbance=disturbance)
    trace = simulate_magnet(left, right, setpoint, plant=plant)
    rows = reference_magnet_rows(left, right, setpoint, plant)
    assert list(trace.rows) == rows
    assert magnet_trace_to_csv(trace) == reference_magnet_csv(rows)


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
