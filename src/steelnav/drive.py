"""Mobile-transformation driving: body-frame tracking error, a two-loop PID
path controller, and a kinematic closed-loop simulator.

The controller splits into a position loop (distance to the active waypoint
drives linear speed) and a heading loop (bearing-to-waypoint error drives
turn rate); each output is saturated by its loop's limit, and the speed is
further capped by the reference speed.  The simulator integrates unicycle
kinematics with explicit Euler and produces a step-by-step trace for
convergence checks and CSV export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cloud import _check_seed
from .errors import DomainError
from .pid import PIDGains, _pid, step_count

TAU = 2.0 * math.pi
# Measurement noise is drawn this many steps at a time; the stream is the same
# as one draw of three values per step.
_NOISE_BLOCK = 256


def wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(angle, TAU)
    if wrapped <= -math.pi:
        wrapped += TAU
    return wrapped


@dataclass(frozen=True, slots=True)
class Pose2D:
    """Planar pose: position in meters, heading in radians.

    The heading is wrapped into (-pi, pi] on construction.
    """

    x: float
    y: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _checked_heading(self.x, self.y, self.phi))


def _checked_heading(x: float, y: float, phi: float) -> float:
    """A pose's heading, wrapped once all three components are known finite."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(phi)):
        raise DomainError("pose components must be finite")
    return wrap_angle(phi)


@dataclass(frozen=True, slots=True)
class TrackingError:
    """Body-frame tracking error: forward, lateral, heading."""

    e1: float
    e2: float
    e3: float

    def __post_init__(self):
        _check_error(self.e1, self.e2, self.e3)

    @property
    def distance(self) -> float:
        """Euclidean position error."""
        return math.hypot(self.e1, self.e2)


def _check_error(e1: float, e2: float, e3: float) -> None:
    if not (math.isfinite(e1) and math.isfinite(e2) and math.isfinite(e3)):
        raise DomainError("tracking error components must be finite")


@dataclass(frozen=True)
class DriveGains:
    """Per-loop PID gains of the path controller.

    The position loop's output saturation is the linear speed limit, the
    heading loop's is the turn-rate limit.
    """

    position: PIDGains = PIDGains(kp=0.8, ki=0.05, kd=0.1, out_limit=0.2, int_limit=0.5)
    heading: PIDGains = PIDGains(kp=2.0, ki=0.0, kd=0.2, out_limit=1.0, int_limit=0.5)


def tracking_error(current: Pose2D, target: Pose2D) -> TrackingError:
    """World-frame pose difference rotated into the robot body frame.

    Forward/lateral components come from rotating (dx, dy) by the current
    heading; the heading component is the wrapped heading difference.
    """
    return TrackingError(*_tracking_error(current.x, current.y, current.phi, target.x, target.y, target.phi))


def _tracking_error(x: float, y: float, phi: float, tx: float, ty: float, tphi: float) -> tuple[float, float, float]:
    """The formula of :func:`tracking_error` on plain floats, for the simulator
    loop; the result is not checked finite."""
    dx, dy = tx - x, ty - y
    c, s = math.cos(phi), math.sin(phi)
    return c * dx + s * dy, -s * dx + c * dy, wrap_angle(tphi - phi)


def error_rate(e: TrackingError, v_c: float, omega_c: float, v_r: float, omega_r: float) -> TrackingError:
    """Instantaneous rate of change of the body-frame tracking error.

    ``v_c``/``omega_c`` are the robot's current linear and angular speed,
    ``v_r``/``omega_r`` the reference's.  Validation helper for closed-loop
    analysis; the controller itself never consumes it.
    """
    return TrackingError(
        e1=omega_c * e.e2 - v_c + v_r * math.cos(e.e3),
        e2=-omega_c * e.e1 + v_r * math.sin(e.e3),
        e3=omega_r - omega_c,
    )


class TraceRow(NamedTuple):
    """One simulator step: true pose, error, and command before integration.

    The first ten fields are the CSV columns in order; the two integrator
    fields expose controller internals for anti-windup checks.  ``pose`` and
    ``error`` build a new object on each access.
    """

    t: float
    x: float
    y: float
    phi: float
    e1: float
    e2: float
    e3: float
    v: float
    omega: float
    waypoint_index: int
    position_integral: float
    heading_integral: float

    @property
    def pose(self) -> Pose2D:
        return Pose2D(self.x, self.y, self.phi)

    @property
    def error(self) -> TrackingError:
        return TrackingError(self.e1, self.e2, self.e3)


@dataclass(frozen=True)
class TrackResult:
    """Full simulation outcome.

    ``converged`` is true when every waypoint was accepted before the time
    horizon ran out.  ``rows`` hold one entry per integration step.
    """

    rows: tuple[TraceRow, ...]
    converged: bool
    final_pose: Pose2D
    waypoints_reached: int
    duration: float


@dataclass(frozen=True)
class DriveSimConfig:
    """Path-tracking simulation setup, one field per argument of
    :func:`simulate_track` but the noise seed; its keyword defaults are read
    from here."""

    gains: DriveGains = DriveGains()
    dt: float = 0.02
    v_ref: float = 0.2
    horizon: float = 60.0
    accept_radius: float = 0.03
    noise_sigma: float = 0.0
    start: Pose2D = Pose2D(0.0, 0.0, 0.0)
    waypoints: tuple[Pose2D, ...] = (Pose2D(2.0, 0.0, 0.0),)


def simulate_track(
    waypoints: Sequence[Pose2D],
    start: Pose2D = DriveSimConfig.start,
    gains: DriveGains = DriveSimConfig.gains,
    dt: float = DriveSimConfig.dt,
    v_ref: float = DriveSimConfig.v_ref,
    horizon: float = DriveSimConfig.horizon,
    accept_radius: float = DriveSimConfig.accept_radius,
    noise_sigma: float = DriveSimConfig.noise_sigma,
    noise_seed: int = 0,
) -> TrackResult:
    """Drive the simulated robot through the waypoints.

    Unicycle kinematics integrated with explicit Euler at step ``dt``; a
    waypoint is accepted when the robot comes within ``accept_radius`` of
    it.  The reference heading of each waypoint is the bearing of its
    approach segment.  ``v_ref`` caps the commanded speed.  ``noise_sigma``
    (non-negative) adds Gaussian position/heading measurement noise; the
    default 0 turns it off.  Running out of horizon is reported through
    ``converged``, not an exception.  A ``noise_seed`` that is not an integer
    of at least 0 raises :class:`DomainError`, the noise on or off.
    """
    if len(waypoints) < 1:
        raise DomainError("at least one waypoint is required")
    if not 0 < dt <= 0.1:
        raise DomainError("dt must lie in (0, 0.1]")
    if not horizon > 0:
        raise DomainError("horizon must be positive")
    if not accept_radius > 0:
        raise DomainError("accept_radius must be positive")
    if not v_ref > 0:
        raise DomainError("v_ref must be positive")
    if not noise_sigma >= 0:
        raise DomainError("noise_sigma must be non-negative")
    _check_seed(noise_seed)

    targets = [(ref.x, ref.y, ref.phi) for ref in _reference_poses(start, waypoints)]
    max_steps = step_count(horizon, dt, "horizon")
    rng = np.random.default_rng(noise_seed)
    noise = _noise_stream(rng, noise_sigma) if noise_sigma > 0 else None

    pos_gains, head_gains = gains.position, gains.heading
    # Both loops' memory as plain floats: the trace keeps only the integrals.
    pos_integral = head_integral = 0.0
    pos_prev = head_prev = None

    # True and measured pose as plain floats, checked in the order that Pose2D checks them.
    x, y, phi = start.x, start.y, start.phi
    rows: list[TraceRow] = []
    wp_index = 0
    t = 0.0

    for _ in range(max_steps):
        while wp_index < len(targets):
            tx, ty, tphi = targets[wp_index]
            if math.hypot(tx - x, ty - y) > accept_radius:
                break
            wp_index += 1
        else:
            break  # every waypoint accepted

        mx, my, mphi = x, y, phi
        if noise is not None:
            jx, jy, jphi = next(noise)
            mx, my = x + jx, y + jy
            mphi = _checked_heading(mx, my, phi + jphi)
        e1, e2, e3 = _tracking_error(mx, my, mphi, tx, ty, tphi)
        _check_error(e1, e2, e3)
        distance = math.hypot(e1, e2)
        heading_error = wrap_angle(math.atan2(ty - my, tx - mx) - mphi)
        v, pos_integral = _pid(distance, pos_gains, dt, pos_integral, pos_prev)
        omega, head_integral = _pid(heading_error, head_gains, dt, head_integral, head_prev)
        pos_prev, head_prev = distance, heading_error
        if v > v_ref:
            v = v_ref

        rows.append(TraceRow(t, x, y, phi, e1, e2, e3, v, omega, wp_index, pos_integral, head_integral))

        x, y = x + v * math.cos(phi) * dt, y + v * math.sin(phi) * dt
        phi = _checked_heading(x, y, phi + omega * dt)
        t += dt

    return TrackResult(
        rows=tuple(rows), converged=wp_index == len(targets), final_pose=Pose2D(x, y, phi),
        waypoints_reached=wp_index, duration=t,
    )


def _noise_stream(rng: np.random.Generator, sigma: float):
    """Endless (x, y, phi) measurement noise, drawn in blocks of steps."""
    while True:
        yield from rng.normal(0.0, sigma, size=(_NOISE_BLOCK, 3)).tolist()


def _reference_poses(start: Pose2D, waypoints: Sequence[Pose2D]) -> list[Pose2D]:
    """Waypoints with their heading replaced by the approach-segment bearing.

    A degenerate segment (waypoint on top of its predecessor) keeps the
    waypoint's own stated heading.
    """
    refs: list[Pose2D] = []
    prev_x, prev_y = start.x, start.y
    for wp in waypoints:
        dx, dy = wp.x - prev_x, wp.y - prev_y
        if math.hypot(dx, dy) > 1e-12:
            refs.append(Pose2D(wp.x, wp.y, math.atan2(dy, dx)))
        else:
            refs.append(wp)
        prev_x, prev_y = wp.x, wp.y
    return refs


TRACE_HEADER = ",".join(TraceRow._fields[:10])
# '%.9g' % v is format(v, '.9g') for every float, inf and nan included.
_TRACE_ROW = ",".join(["%.9g"] * 9) + ",%d"


def trace_to_csv(result: TrackResult) -> str:
    """Render a simulation trace as CSV text, 9 significant digits."""
    lines = [TRACE_HEADER]
    lines += [_TRACE_ROW % row[:10] for row in result.rows]
    return "\n".join(lines) + "\n"
