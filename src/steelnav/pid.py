"""Single-loop PID with output saturation and anti-windup.

Used by both the path-tracking controller and the magnet gap controller,
whose simulators also share the step cap defined here.
Controller memory is an explicit value passed in and returned, never hidden
state, so closed loops stay reproducible and safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, check_non_negative, check_positive

# Most control steps one simulator run may take: a longer horizon or duration
# is rejected before the loop starts instead of running without end.
MAX_SIM_STEPS = 1_000_000


@dataclass(frozen=True)
class PIDGains:
    """Gains for one PID loop.

    ``out_limit`` saturates the output symmetrically; ``int_limit`` clamps the
    error integral (anti-windup).
    """

    kp: float
    ki: float
    kd: float
    out_limit: float
    int_limit: float

    def __post_init__(self):
        check_non_negative("PID gains", self.kp, self.ki, self.kd)
        check_positive("output saturation limit", self.out_limit)
        check_positive("integrator clamp", self.int_limit)


@dataclass(frozen=True, slots=True)
class PIDState:
    """Memory of one PID loop: error integral and previous error."""

    integral: float = 0.0
    prev_error: Optional[float] = None


def pid_step(error: float, gains: PIDGains, dt: float, state: PIDState) -> tuple[float, PIDState]:
    """Advance one PID loop by a step of ``dt`` seconds.

    Returns the saturated output and the updated controller state.  The
    integral is clamped to ``int_limit`` and, additionally, is not advanced
    while the output is saturated in the same direction as the error
    (conditional integration), so a long saturated transient does not wind up
    the integrator.
    """
    check_positive("dt", dt)
    out, integral = _pid(error, gains, dt, state.integral, state.prev_error)
    return out, PIDState(integral, error)


def _pid(error: float, gains: PIDGains, dt: float, integral: float,
         prev_error: Optional[float]) -> tuple[float, float]:
    """The control law of :func:`pid_step` on plain floats, for the simulator
    loops: returns the output and the new integral; ``dt`` is not checked."""
    derivative = 0.0 if prev_error is None else (error - prev_error) / dt

    limit = gains.int_limit
    advanced = integral + error * dt
    if advanced > limit:
        advanced = limit
    elif advanced < -limit:
        advanced = -limit

    raw = gains.kp * error + gains.ki * advanced + gains.kd * derivative
    limit = gains.out_limit
    out = limit if raw > limit else -limit if raw < -limit else raw

    if raw != out and raw * error > 0:  # saturated in the error's direction
        return out, integral
    return out, advanced


def step_count(span: float, dt: float, name: str) -> int:
    """Number of ``dt`` steps in ``span`` seconds.

    A ratio above ``MAX_SIM_STEPS``, or one that is not a number, raises
    :class:`DomainError` naming ``name``.
    """
    ratio = span / dt
    if not ratio <= MAX_SIM_STEPS:
        raise DomainError(f"{name} / dt asks for more than {MAX_SIM_STEPS} steps")
    return int(round(ratio))
