"""Inch-worm actuation: magnet-array gap control, the jump state machine,
and joint-space jump trajectories.

Each foot carries a switchable magnet array observed by two distance
sensors.  A PID loop drives the sensed gap to the mode target (0 mm when
adhering, 1 mm when rolling) through a simulated screw-drive plant.  The
jump itself is sequenced by an event-driven state machine whose transitions
keep at least one foot magnetically attached whenever the robot is not in a
wheeled configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .cloud import frozen_array
from .errors import DomainError, TransitionError, TrajectoryError
from .errors import check_count, check_finite, check_non_negative, check_positive
from .footprint import FootPose
from .pid import PIDGains, PIDState, _pid, step_count

TOUCHED_GAP_MM = 0.0
UNTOUCHED_GAP_MM = 1.0
SETTLE_TOLERANCE_MM = 0.05

DEFAULT_MAGNET_GAINS = PIDGains(kp=2.0, ki=0.5, kd=0.05, out_limit=1.0, int_limit=1.0)


class MagnetMode(str, Enum):
    """Commanded magnet-array mode: adhering or rolling clearance."""

    TOUCHED = "Touched"
    UNTOUCHED = "Untouched"


@dataclass(frozen=True, slots=True)
class MagnetArrayState:
    """One foot's magnet array: commanded mode, sensed gaps, drive state.

    Gaps are millimeters from the two side-mounted distance sensors;
    ``command`` is the last normalized motor command.  The gap rates and the
    PID memory ride along so a control step is a pure function of this
    state.
    """

    mode: MagnetMode = MagnetMode.UNTOUCHED
    gap_left: float = UNTOUCHED_GAP_MM
    gap_right: float = UNTOUCHED_GAP_MM
    command: float = 0.0
    rate_left: float = 0.0
    rate_right: float = 0.0
    controller: PIDState = field(default_factory=PIDState)

    def __post_init__(self):
        check_non_negative("magnet gaps", self.gap_left, self.gap_right)
        _check_command(self.command)


@dataclass(frozen=True)
class MagnetPlant:
    """Screw-drive gap dynamics: first-order lag from command to gap rate.

    A unit command asks for ``speed_gain`` mm/s of gap rate, reached with
    time constant ``time_constant``.  ``disturbance`` is a constant gap
    drift in mm/s.  The gap is clamped at mechanical contact (0 mm).
    """

    time_constant: float = 0.1
    speed_gain: float = 5.0
    disturbance: float = 0.0

    def __post_init__(self):
        check_positive("plant time constant", self.time_constant)
        check_positive("plant speed gain", self.speed_gain)
        check_finite("plant disturbance", self.disturbance)


def _check_command(command: float) -> None:
    if not -1.0 <= command <= 1.0:
        raise DomainError("motor command must lie in [-1, 1]")


def _clamp_unit(value: float) -> float:
    value = value if value < 1.0 else 1.0
    return value if value > -1.0 else -1.0


def _plant_side(gap: float, rate: float, command: float, plant: MagnetPlant, dt: float) -> tuple[float, float]:
    target_rate = plant.speed_gain * command
    rate = rate + (dt / plant.time_constant) * (target_rate - rate)
    gap = gap + rate * dt + plant.disturbance * dt
    if gap < 0.0:
        gap = 0.0
        if rate < 0.0:
            rate = 0.0
    return gap, rate


@dataclass(frozen=True)
class MagnetTrace:
    """Closed-loop gap simulation record.

    ``rows`` are (t, gap_left, gap_right, command) per step after the step
    applies.  ``settle_time`` is the earliest time from which both gaps stay
    within the settle tolerance of the setpoint for the rest of the run,
    None when they never do.
    """

    rows: tuple[tuple[float, float, float, float], ...]
    final_state: MagnetArrayState
    setpoint: float
    settle_time: Optional[float]

    @property
    def settled(self) -> bool:
        return self.settle_time is not None


@dataclass(frozen=True)
class MagnetSimConfig:
    """Magnet gap-control simulation setup, one field per argument of
    :func:`simulate_magnet`; its keyword defaults are read from here."""

    gains: PIDGains = DEFAULT_MAGNET_GAINS
    plant: MagnetPlant = MagnetPlant()
    trim_gain: float = 0.5
    dt: float = 0.005
    duration: float = 2.0
    setpoint: float = UNTOUCHED_GAP_MM
    initial_left: float = 3.0
    initial_right: float = 3.0


def simulate_magnet(
    initial_left: float,
    initial_right: float,
    setpoint: float,
    gains: PIDGains = MagnetSimConfig.gains,
    plant: MagnetPlant = MagnetSimConfig.plant,
    dt: float = MagnetSimConfig.dt,
    duration: float = MagnetSimConfig.duration,
    trim_gain: float = MagnetSimConfig.trim_gain,
) -> MagnetTrace:
    """Run the gap loop from given initial gaps for ``duration`` seconds.

    Each step, the PID acts on the mean-gap error and issues a symmetric
    command; a proportional trim on the left/right gap difference keeps the
    two sides level.  The plant integrates one explicit-Euler step per side;
    a side reaching contact sticks there with its closing rate absorbed.  A
    PID output outside [-1, 1] raises :class:`DomainError` at its step.
    """
    check_positive("dt", dt)
    check_positive("duration", duration)
    check_finite("trim gain", trim_gain)
    mode = MagnetMode.TOUCHED if setpoint == TOUCHED_GAP_MM else MagnetMode.UNTOUCHED
    state = MagnetArrayState(mode=mode, gap_left=initial_left, gap_right=initial_right)
    steps = step_count(duration, dt, "duration")
    check_non_negative("gap setpoint", setpoint)

    # The loop runs on plain floats; the plant keeps the gaps at or above
    # contact, so only the command needs checking on the way.
    gap_l, gap_r, rate_l, rate_r = state.gap_left, state.gap_right, state.rate_left, state.rate_right
    command, integral, prev_error = state.command, state.controller.integral, state.controller.prev_error
    rows = []
    t = 0.0
    for _ in range(steps):
        error = setpoint - 0.5 * (gap_l + gap_r)
        command, integral = _pid(error, gains, dt, integral, prev_error)
        prev_error = error
        _check_command(command)
        trim = trim_gain * (gap_l - gap_r)
        gap_l, rate_l = _plant_side(gap_l, rate_l, _clamp_unit(command - trim), plant, dt)
        gap_r, rate_r = _plant_side(gap_r, rate_r, _clamp_unit(command + trim), plant, dt)
        t += dt
        rows.append((t, gap_l, gap_r, command))
    state = MagnetArrayState(mode, gap_l, gap_r, command, rate_l, rate_r, PIDState(integral, prev_error))

    settle_time: Optional[float] = None
    for row in reversed(rows):
        if abs(row[1] - setpoint) < SETTLE_TOLERANCE_MM and abs(row[2] - setpoint) < SETTLE_TOLERANCE_MM:
            settle_time = row[0]
        else:
            break
    return MagnetTrace(rows=tuple(rows), final_state=state, setpoint=setpoint, settle_time=settle_time)


MAGNET_TRACE_HEADER = "t,gap_left_mm,gap_right_mm,command"


def magnet_trace_to_csv(trace: MagnetTrace) -> str:
    """Render a gap simulation as CSV text, 9 significant digits."""
    lines = [MAGNET_TRACE_HEADER]
    lines.extend("%.9g,%.9g,%.9g,%.9g" % row for row in trace.rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Jump state machine
# ---------------------------------------------------------------------------


class InchwormPhase(str, Enum):
    """Phases of one inch-worm jump, in traversal order."""

    MOBILE_CONFIG = "MobileConfig"
    BASE_FOOT_TOUCHED = "BaseFootTouched"
    AT_CONVENIENT_POSE = "AtConvenientPose"
    FOOT1_ON_TARGET = "Foot1OnTarget"
    MAGNETS_SWAPPED = "MagnetsSwapped"
    FOOT2_ON_TARGET = "Foot2OnTarget"
    MOBILE_REFORMED = "MobileReformed"


class JumpEvent(str, Enum):
    """Events that advance the jump state machine."""

    LOWER_BASE_MAGNET = "LowerBaseMagnet"
    REACH_CONVENIENT_POSE = "ReachConvenientPose"
    FOOT1_CONTACT = "Foot1Contact"
    SWAP_MAGNETS = "SwapMagnets"
    FOOT2_CONTACT = "Foot2Contact"
    REFORM = "Reform"


WHEELED_PHASES = frozenset({InchwormPhase.MOBILE_CONFIG, InchwormPhase.MOBILE_REFORMED})

# phase -> (event, next phase, foot-1 mode after, foot-2 mode after);
# None keeps the current mode.
_TRANSITIONS: dict[InchwormPhase, tuple[JumpEvent, InchwormPhase, Optional[MagnetMode], Optional[MagnetMode]]] = {
    InchwormPhase.MOBILE_CONFIG: (
        JumpEvent.LOWER_BASE_MAGNET, InchwormPhase.BASE_FOOT_TOUCHED, None, MagnetMode.TOUCHED),
    InchwormPhase.BASE_FOOT_TOUCHED: (
        JumpEvent.REACH_CONVENIENT_POSE, InchwormPhase.AT_CONVENIENT_POSE, None, None),
    InchwormPhase.AT_CONVENIENT_POSE: (
        JumpEvent.FOOT1_CONTACT, InchwormPhase.FOOT1_ON_TARGET, None, None),
    InchwormPhase.FOOT1_ON_TARGET: (
        JumpEvent.SWAP_MAGNETS, InchwormPhase.MAGNETS_SWAPPED, MagnetMode.TOUCHED, MagnetMode.UNTOUCHED),
    InchwormPhase.MAGNETS_SWAPPED: (
        JumpEvent.FOOT2_CONTACT, InchwormPhase.FOOT2_ON_TARGET, None, MagnetMode.TOUCHED),
    InchwormPhase.FOOT2_ON_TARGET: (
        JumpEvent.REFORM, InchwormPhase.MOBILE_REFORMED, MagnetMode.UNTOUCHED, MagnetMode.UNTOUCHED),
}


@dataclass(frozen=True)
class InchwormState:
    """Jump progress: current phase and both magnet arrays.

    Constructing a state that has both magnets Untouched outside the two
    wheeled phases is rejected; that configuration has nothing holding the
    robot to the structure.
    """

    phase: InchwormPhase
    magnet1: MagnetArrayState
    magnet2: MagnetArrayState

    def __post_init__(self):
        if self.phase not in WHEELED_PHASES:
            if self.magnet1.mode is not MagnetMode.TOUCHED and self.magnet2.mode is not MagnetMode.TOUCHED:
                raise DomainError(f"phase {self.phase.value} requires at least one Touched magnet")


def initial_jump_state() -> InchwormState:
    """Jump start: wheeled configuration, both magnets at rolling clearance."""
    return InchwormState(
        phase=InchwormPhase.MOBILE_CONFIG,
        magnet1=MagnetArrayState(mode=MagnetMode.UNTOUCHED),
        magnet2=MagnetArrayState(mode=MagnetMode.UNTOUCHED),
    )


def inchworm_step(state: InchwormState, event: JumpEvent) -> InchwormState:
    """Apply one event.

    Each phase accepts exactly one event; anything else raises
    :class:`TransitionError` and leaves the state untouched.  The terminal
    phase accepts no events.
    """
    entry = _TRANSITIONS.get(state.phase)
    if entry is None or entry[0] is not event:
        raise TransitionError(f"event {event.value} is not legal in phase {state.phase.value}")
    _, next_phase, mode1, mode2 = entry
    magnet1 = state.magnet1 if mode1 is None else replace(state.magnet1, mode=mode1)
    magnet2 = state.magnet2 if mode2 is None else replace(state.magnet2, mode=mode2)
    return replace(state, phase=next_phase, magnet1=magnet1, magnet2=magnet2)


# The one event each phase accepts, in traversal order: a full jump.
CANONICAL_JUMP_SEQUENCE = tuple(event for event, *_ in _TRANSITIONS.values())


def run_jump_sequence(state: InchwormState, events: Sequence[JumpEvent]) -> tuple[InchwormState, list[dict]]:
    """Apply an event script, recording one trace row per event.

    A rejected event is recorded with ``accepted`` false and does not change
    the state; the script continues.  Rows carry the phase and magnet modes
    after the event applied.
    """
    rows: list[dict] = []
    for step, event in enumerate(events, start=1):
        accepted = True
        try:
            state = inchworm_step(state, event)
        except TransitionError:
            accepted = False
        rows.append({
            "step": step,
            "phase": state.phase.value,
            "event": event.value,
            "magnet1_mode": state.magnet1.mode.value,
            "magnet2_mode": state.magnet2.mode.value,
            "accepted": accepted,
        })
    return state, rows


def jump_trace_to_jsonl(rows: Sequence[dict]) -> str:
    """Serialize jump trace rows as JSON lines."""
    return "".join(json.dumps(row) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Jump trajectory
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JumpPlanConfig:
    """Configured arm poses for the jump trajectory.

    The jump always passes through a pre-chosen convenient arm pose before
    heading to the pose-specific target joints; both vectors come from
    configuration, as do the per-joint limits (radians, (6, 2) low/high).
    """

    convenient_joints: np.ndarray
    target_joints: np.ndarray
    joint_limits: np.ndarray

    def __post_init__(self):
        for name, shape in (("convenient_joints", 6), ("target_joints", 6), ("joint_limits", (6, 2))):
            object.__setattr__(self, name, frozen_array(getattr(self, name), shape))
        check_finite("joint angles", *self.convenient_joints, *self.target_joints)
        if not (self.joint_limits[:, 0] < self.joint_limits[:, 1]).all():
            raise DomainError("joint limits must satisfy low < high per joint")


DEFAULT_JOINT_LIMITS = np.array([[-np.pi, np.pi]] * 6)


def plan_jump_trajectory(
    from_joints,
    to_pose: Optional[FootPose],
    plan: JumpPlanConfig,
    steps: int,
) -> np.ndarray:
    """Piecewise-linear joint trajectory: start, convenient pose, target.

    Each leg holds ``steps`` evenly spaced joint vectors with exact
    endpoints; the shared convenient-pose row appears once, so the result
    has ``2 * steps - 1`` rows.  ``to_pose`` names the landing the
    configured target joints realize; the joint values themselves come from
    the plan.  Any row outside the joint limits raises
    :class:`TrajectoryError`.
    """
    check_count("steps", steps, 2)
    start = np.asarray(from_joints, dtype=np.float64).reshape(6)
    check_finite("joint angles", *start)

    leg1 = np.linspace(start, plan.convenient_joints, steps)
    leg2 = np.linspace(plan.convenient_joints, plan.target_joints, steps)
    path = np.vstack([leg1, leg2[1:]])

    low = plan.joint_limits[:, 0] - 1e-12
    high = plan.joint_limits[:, 1] + 1e-12
    bad = np.nonzero((path < low) | (path > high))
    if bad[0].size:
        row, joint = int(bad[0][0]), int(bad[1][0])
        raise TrajectoryError(
            f"trajectory row {row} puts joint {joint} at {path[row, joint]:.6f} rad, "
            f"outside [{plan.joint_limits[joint, 0]:.6f}, {plan.joint_limits[joint, 1]:.6f}]"
        )
    return path


_JOINTS_ROW = ",".join(["%.9g"] * 6)


def trajectory_to_csv(path: np.ndarray) -> str:
    """Render a joint trajectory as bare CSV rows of 6 angles."""
    arr = np.asarray(path, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise DomainError("trajectory must be an (N, 6) array")
    return "\n".join(_JOINTS_ROW % tuple(row) for row in arr.tolist()) + "\n"
