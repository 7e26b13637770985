"""Tests for magnet gap control, the jump state machine, and jump
trajectories."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from steelnav.actuate import (
    CANONICAL_JUMP_SEQUENCE,
    DEFAULT_JOINT_LIMITS,
    DEFAULT_MAGNET_GAINS,
    MAGNET_TRACE_HEADER,
    SETTLE_TOLERANCE_MM,
    TOUCHED_GAP_MM,
    UNTOUCHED_GAP_MM,
    WHEELED_PHASES,
    InchwormPhase,
    InchwormState,
    JumpEvent,
    JumpPlanConfig,
    MagnetArrayState,
    MagnetMode,
    MagnetPlant,
    initial_jump_state,
    inchworm_step,
    jump_trace_to_jsonl,
    magnet_trace_to_csv,
    plan_jump_trajectory,
    run_jump_sequence,
    simulate_magnet,
    trajectory_to_csv,
)
from steelnav.errors import DomainError, TrajectoryError, TransitionError


# -- magnet array state ------------------------------------------------------


def test_mode_setpoints():
    assert TOUCHED_GAP_MM == 0.0
    assert UNTOUCHED_GAP_MM == 1.0


def test_magnet_state_validation():
    with pytest.raises(DomainError):
        MagnetArrayState(gap_left=-0.1)
    with pytest.raises(DomainError):
        MagnetArrayState(gap_right=-0.1)
    with pytest.raises(DomainError):
        MagnetArrayState(command=1.5)


def test_magnet_plant_validation():
    with pytest.raises(DomainError):
        MagnetPlant(time_constant=0.0)
    with pytest.raises(DomainError):
        MagnetPlant(speed_gain=-1.0)


# -- gap control loop --------------------------------------------------------


def test_magnet_step_validation():
    with pytest.raises(DomainError, match="dt must be positive"):
        simulate_magnet(1.0, 1.0, UNTOUCHED_GAP_MM, dt=0.0)
    with pytest.raises(DomainError, match="gap setpoint must be non-negative"):
        simulate_magnet(1.0, 1.0, -0.5)


def test_magnet_step_holds_equilibrium():
    trace = simulate_magnet(1.0, 1.0, UNTOUCHED_GAP_MM, duration=0.1)
    assert all(row[1:] == (1.0, 1.0, 0.0) for row in trace.rows)
    final = trace.final_state
    assert (final.gap_left, final.gap_right, final.command) == (1.0, 1.0, 0.0)
    assert (final.rate_left, final.rate_right) == (0.0, 0.0)
    assert trace.settle_time == trace.rows[0][0]


def test_magnet_negative_setpoint_rejected_without_steps():
    # duration < dt / 2 rounds to a run of zero steps
    with pytest.raises(DomainError, match="gap setpoint must be non-negative"):
        simulate_magnet(1.0, 1.0, -0.5, duration=0.001)


def test_magnet_command_outside_unit_range_raises():
    gains = replace(DEFAULT_MAGNET_GAINS, out_limit=1.5)
    with pytest.raises(DomainError, match=r"motor command must lie in \[-1, 1\]"):
        simulate_magnet(1.0, 1.0, TOUCHED_GAP_MM, gains=gains)


def test_magnet_touch_from_rolling_clearance_settles():
    trace = simulate_magnet(1.0, 1.0, TOUCHED_GAP_MM)
    assert trace.settled
    assert trace.settle_time <= 0.5
    assert trace.final_state.gap_left < SETTLE_TOLERANCE_MM
    assert trace.final_state.gap_right < SETTLE_TOLERANCE_MM
    assert all(row[1] >= 0.0 and row[2] >= 0.0 for row in trace.rows)


def test_magnet_release_to_rolling_clearance_settles():
    trace = simulate_magnet(0.0, 0.0, UNTOUCHED_GAP_MM)
    assert trace.settled
    assert trace.settle_time <= 2.0
    assert abs(trace.final_state.gap_left - 1.0) < SETTLE_TOLERANCE_MM
    assert abs(trace.final_state.gap_right - 1.0) < SETTLE_TOLERANCE_MM


def test_magnet_asymmetric_start_levels_out():
    trace = simulate_magnet(4.0, 2.0, UNTOUCHED_GAP_MM)
    assert trace.settled
    assert trace.settle_time <= 2.0
    assert abs(trace.final_state.gap_left - trace.final_state.gap_right) < 0.01


def test_magnet_mirrored_start_gives_mirrored_trace():
    a = simulate_magnet(4.0, 2.0, UNTOUCHED_GAP_MM)
    b = simulate_magnet(2.0, 4.0, UNTOUCHED_GAP_MM)
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra[0] == rb[0]
        assert ra[1] == rb[2]
        assert ra[2] == rb[1]
        assert ra[3] == rb[3]


def test_magnet_contact_clamp_sticks_at_zero():
    trace = simulate_magnet(0.2, 0.2, TOUCHED_GAP_MM, duration=1.0)
    gaps = [row[1] for row in trace.rows] + [row[2] for row in trace.rows]
    assert min(gaps) == 0.0
    assert all(g >= 0.0 for g in gaps)
    assert trace.final_state.gap_left == 0.0


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_magnet_simulation_rejects_non_positive_dt(dt):
    with pytest.raises(DomainError, match="dt must be positive"):
        simulate_magnet(1.0, 1.0, TOUCHED_GAP_MM, dt=dt)


def test_magnet_settle_time_is_a_suffix_property():
    trace = simulate_magnet(1.0, 1.0, TOUCHED_GAP_MM)
    assert trace.settle_time is not None
    crossed = False
    for t, gl, gr, _ in trace.rows:
        inside = abs(gl - trace.setpoint) < SETTLE_TOLERANCE_MM and abs(gr - trace.setpoint) < SETTLE_TOLERANCE_MM
        if t >= trace.settle_time:
            assert inside
            crossed = True
    assert crossed


def test_magnet_simulation_deterministic():
    a = magnet_trace_to_csv(simulate_magnet(1.0, 1.0, TOUCHED_GAP_MM))
    b = magnet_trace_to_csv(simulate_magnet(1.0, 1.0, TOUCHED_GAP_MM))
    assert a == b


def test_magnet_csv_shape():
    trace = simulate_magnet(1.0, 1.0, TOUCHED_GAP_MM, duration=0.1)
    lines = magnet_trace_to_csv(trace).splitlines()
    assert lines[0] == MAGNET_TRACE_HEADER
    assert MAGNET_TRACE_HEADER == "t,gap_left_mm,gap_right_mm,command"
    assert len(lines) == len(trace.rows) + 1
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_magnet_command_stays_in_unit_range():
    trace = simulate_magnet(5.0, 5.0, TOUCHED_GAP_MM)
    assert all(-1.0 <= row[3] <= 1.0 for row in trace.rows)


# -- jump state machine ------------------------------------------------------


EXPECTED_PHASES = (
    InchwormPhase.BASE_FOOT_TOUCHED,
    InchwormPhase.AT_CONVENIENT_POSE,
    InchwormPhase.FOOT1_ON_TARGET,
    InchwormPhase.MAGNETS_SWAPPED,
    InchwormPhase.FOOT2_ON_TARGET,
    InchwormPhase.MOBILE_REFORMED,
)

EXPECTED_MODES = (
    (MagnetMode.UNTOUCHED, MagnetMode.TOUCHED),
    (MagnetMode.UNTOUCHED, MagnetMode.TOUCHED),
    (MagnetMode.UNTOUCHED, MagnetMode.TOUCHED),
    (MagnetMode.TOUCHED, MagnetMode.UNTOUCHED),
    (MagnetMode.TOUCHED, MagnetMode.TOUCHED),
    (MagnetMode.UNTOUCHED, MagnetMode.UNTOUCHED),
)


def states_along_canonical_path():
    state = initial_jump_state()
    states = [state]
    for event in CANONICAL_JUMP_SEQUENCE:
        state = inchworm_step(state, event)
        states.append(state)
    return states


def test_initial_state_is_wheeled_and_released():
    state = initial_jump_state()
    assert state.phase is InchwormPhase.MOBILE_CONFIG
    assert state.magnet1.mode is MagnetMode.UNTOUCHED
    assert state.magnet2.mode is MagnetMode.UNTOUCHED


def test_canonical_sequence_phases_and_magnet_modes():
    states = states_along_canonical_path()
    assert len(states) == 7
    for state, phase, modes in zip(states[1:], EXPECTED_PHASES, EXPECTED_MODES):
        assert state.phase is phase
        assert (state.magnet1.mode, state.magnet2.mode) == modes


def test_each_phase_accepts_exactly_one_event():
    for state in states_along_canonical_path():
        accepted = []
        for event in JumpEvent:
            try:
                inchworm_step(state, event)
            except TransitionError:
                continue
            accepted.append(event)
        if state.phase is InchwormPhase.MOBILE_REFORMED:
            assert accepted == []
        else:
            assert len(accepted) == 1


def test_rejected_event_leaves_state_unchanged():
    state = initial_jump_state()
    with pytest.raises(TransitionError):
        inchworm_step(state, JumpEvent.REFORM)
    assert state.phase is InchwormPhase.MOBILE_CONFIG
    assert state.magnet1.mode is MagnetMode.UNTOUCHED
    assert state.magnet2.mode is MagnetMode.UNTOUCHED


def test_every_reachable_state_keeps_one_magnet_touched():
    frontier = [initial_jump_state()]
    seen_phases = set()
    for _ in range(10):
        next_frontier = []
        for state in frontier:
            seen_phases.add(state.phase)
            assert state.phase in WHEELED_PHASES or (
                state.magnet1.mode is MagnetMode.TOUCHED or state.magnet2.mode is MagnetMode.TOUCHED
            )
            for event in JumpEvent:
                try:
                    next_frontier.append(inchworm_step(state, event))
                except TransitionError:
                    pass
        frontier = next_frontier
    assert seen_phases == set(InchwormPhase)


def test_unsafe_state_cannot_be_constructed():
    with pytest.raises(DomainError):
        InchwormState(
            phase=InchwormPhase.FOOT1_ON_TARGET,
            magnet1=MagnetArrayState(mode=MagnetMode.UNTOUCHED),
            magnet2=MagnetArrayState(mode=MagnetMode.UNTOUCHED),
        )


def test_run_jump_sequence_records_rejections():
    script = list(CANONICAL_JUMP_SEQUENCE)
    script.insert(2, JumpEvent.REFORM)
    final, rows = run_jump_sequence(initial_jump_state(), script)
    assert final.phase is InchwormPhase.MOBILE_REFORMED
    assert [row["accepted"] for row in rows] == [True, True, False, True, True, True, True]
    assert [row["step"] for row in rows] == list(range(1, 8))
    assert rows[2]["phase"] == InchwormPhase.AT_CONVENIENT_POSE.value


def test_jump_trace_jsonl_round_trips():
    _, rows = run_jump_sequence(initial_jump_state(), CANONICAL_JUMP_SEQUENCE)
    text = jump_trace_to_jsonl(rows)
    lines = text.splitlines()
    assert len(lines) == 6
    parsed = [json.loads(line) for line in lines]
    assert parsed == rows
    assert set(parsed[0]) == {"step", "phase", "event", "magnet1_mode", "magnet2_mode", "accepted"}


# -- jump trajectory ---------------------------------------------------------


def make_plan(convenient=None, target=None, limits=None):
    return JumpPlanConfig(
        convenient_joints=np.zeros(6) if convenient is None else convenient,
        target_joints=np.full(6, 0.5) if target is None else target,
        joint_limits=DEFAULT_JOINT_LIMITS if limits is None else limits,
    )


def test_plan_config_validates_limits():
    bad = np.array([[0.0, 1.0]] * 5 + [[1.0, 1.0]])
    with pytest.raises(DomainError):
        make_plan(limits=bad)


def test_trajectory_row_count_and_endpoints():
    start = np.full(6, -0.4)
    plan = make_plan()
    path = plan_jump_trajectory(start, None, plan, steps=10)
    assert path.shape == (19, 6)
    np.testing.assert_array_equal(path[0], start)
    np.testing.assert_array_equal(path[9], np.asarray(plan.convenient_joints))
    np.testing.assert_array_equal(path[-1], np.asarray(plan.target_joints))


def test_trajectory_constant_when_everything_coincides():
    joints = np.full(6, 0.25)
    plan = make_plan(convenient=joints, target=joints)
    path = plan_jump_trajectory(joints, None, plan, steps=5)
    assert path.shape == (9, 6)
    np.testing.assert_allclose(path, np.tile(joints, (9, 1)), atol=0)


def test_trajectory_legs_are_evenly_spaced():
    start = np.zeros(6)
    plan = make_plan(convenient=np.full(6, 0.3), target=np.full(6, -0.6))
    steps = 7
    path = plan_jump_trajectory(start, None, plan, steps=steps)
    leg1 = np.diff(path[:steps], axis=0)
    leg2 = np.diff(path[steps - 1:], axis=0)
    np.testing.assert_allclose(leg1, np.tile(leg1[0], (steps - 1, 1)), atol=1e-12)
    np.testing.assert_allclose(leg2, np.tile(leg2[0], (steps - 1, 1)), atol=1e-12)


def test_trajectory_validates_steps_and_joints():
    plan = make_plan()
    with pytest.raises(DomainError):
        plan_jump_trajectory(np.zeros(6), None, plan, steps=1)
    with pytest.raises(DomainError):
        plan_jump_trajectory([0, 0, 0, math.nan, 0, 0], None, plan, steps=5)


def test_trajectory_limit_violation_names_row_and_joint():
    limits = np.array([[-1.0, 1.0]] * 6)
    plan = make_plan(target=np.array([0.0, 0.0, 0.0, 1.5, 0.0, 0.0]), limits=limits)
    with pytest.raises(TrajectoryError) as exc:
        plan_jump_trajectory(np.zeros(6), None, plan, steps=4)
    message = str(exc.value)
    assert "joint 3" in message
    assert "1.5" in message


def test_trajectory_boundary_value_is_inside():
    limits = np.array([[-1.0, 1.0]] * 6)
    plan = make_plan(target=np.full(6, 1.0), limits=limits)
    path = plan_jump_trajectory(np.zeros(6), None, plan, steps=4)
    assert path[-1, 0] == 1.0


def test_trajectory_csv_is_bare_rows():
    plan = make_plan()
    path = plan_jump_trajectory(np.zeros(6), None, plan, steps=3)
    text = trajectory_to_csv(path)
    lines = text.splitlines()
    assert len(lines) == 5
    assert all(len(line.split(",")) == 6 for line in lines)
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    np.testing.assert_allclose(parsed, path, atol=1e-8)


def test_trajectory_csv_rejects_bad_shape():
    with pytest.raises(DomainError):
        trajectory_to_csv(np.zeros((4, 5)))
