import math

import numpy as np
import pytest

from steelnav.errors import DomainError
from steelnav.pid import MAX_SIM_STEPS, PIDGains, PIDState, pid_step, step_count


GAINS = PIDGains(kp=2.0, ki=0.5, kd=0.05, out_limit=1.0, int_limit=1.0)


def test_zero_error_zero_state_gives_zero_output():
    out, state = pid_step(0.0, GAINS, 0.01, PIDState())
    assert out == 0.0
    assert state.integral == 0.0
    assert state.prev_error == 0.0


def test_proportional_term_alone():
    gains = PIDGains(kp=3.0, ki=0.0, kd=0.0, out_limit=100.0, int_limit=1.0)
    out, _ = pid_step(0.25, gains, 0.01, PIDState())
    assert out == pytest.approx(3.0 * 0.25)


def test_integral_accumulates_over_steps():
    gains = PIDGains(kp=0.0, ki=1.0, kd=0.0, out_limit=100.0, int_limit=100.0)
    state = PIDState()
    out = 0.0
    for _ in range(10):
        out, state = pid_step(0.5, gains, 0.1, state)
    # integral = 10 steps * 0.5 * 0.1
    assert state.integral == pytest.approx(0.5)
    assert out == pytest.approx(0.5)


def test_derivative_uses_previous_error():
    gains = PIDGains(kp=0.0, ki=0.0, kd=2.0, out_limit=100.0, int_limit=1.0)
    _, state = pid_step(1.0, gains, 0.1, PIDState())
    out, _ = pid_step(1.5, gains, 0.1, state)
    assert out == pytest.approx(2.0 * (1.5 - 1.0) / 0.1)


def test_first_step_has_no_derivative_kick():
    gains = PIDGains(kp=0.0, ki=0.0, kd=10.0, out_limit=100.0, int_limit=1.0)
    out, _ = pid_step(5.0, gains, 0.001, PIDState())
    assert out == 0.0


def test_output_saturates_symmetrically():
    out_hi, _ = pid_step(100.0, GAINS, 0.01, PIDState())
    out_lo, _ = pid_step(-100.0, GAINS, 0.01, PIDState())
    assert out_hi == 1.0
    assert out_lo == -1.0


def test_integral_clamped_to_limit():
    gains = PIDGains(kp=0.0, ki=1.0, kd=0.0, out_limit=100.0, int_limit=0.2)
    state = PIDState()
    for _ in range(1000):
        _, state = pid_step(1.0, gains, 0.1, state)
    assert state.integral == pytest.approx(0.2)


def test_conditional_integration_freezes_integral_while_saturated():
    # output saturated in the error's direction: the integral must not grow
    state = PIDState()
    for _ in range(50):
        out, state = pid_step(10.0, GAINS, 0.1, state)
        assert out == 1.0
    assert state.integral == pytest.approx(0.0)


def test_integration_resumes_once_error_unwinds():
    state = PIDState(integral=0.0, prev_error=0.1)
    out, new_state = pid_step(0.1, GAINS, 0.1, state)
    assert abs(out) < GAINS.out_limit
    assert new_state.integral == pytest.approx(0.01)


def test_saturated_against_error_still_integrates():
    # large negative history pushes output to -1 while error is positive;
    # unwinding integration must be allowed
    gains = PIDGains(kp=0.0, ki=1.0, kd=0.0, out_limit=0.5, int_limit=10.0)
    state = PIDState(integral=-5.0, prev_error=0.0)
    _, new_state = pid_step(1.0, gains, 0.1, state)
    assert new_state.integral == pytest.approx(-4.9)


def test_non_positive_dt_rejected():
    with pytest.raises(DomainError):
        pid_step(0.0, GAINS, 0.0, PIDState())
    with pytest.raises(DomainError):
        pid_step(0.0, GAINS, -0.1, PIDState())


def test_gain_validation():
    with pytest.raises(DomainError):
        PIDGains(kp=-1.0, ki=0.0, kd=0.0, out_limit=1.0, int_limit=1.0)
    with pytest.raises(DomainError):
        PIDGains(kp=1.0, ki=0.0, kd=0.0, out_limit=0.0, int_limit=1.0)
    with pytest.raises(DomainError):
        PIDGains(kp=1.0, ki=0.0, kd=0.0, out_limit=1.0, int_limit=-2.0)


def test_closed_loop_first_order_plant_converges():
    # plant: value' = out; PID must regulate value to the setpoint
    gains = PIDGains(kp=4.0, ki=4.0, kd=0.0, out_limit=5.0, int_limit=2.0)
    value, state, dt = 0.0, PIDState(), 0.01
    for _ in range(2000):
        out, state = pid_step(1.0 - value, gains, dt, state)
        value += out * dt
    assert math.isclose(value, 1.0, abs_tol=1e-3)


def reference_pid_step(error, gains, dt, state):
    """pid_step written with a clamp helper, as a reference."""
    def clamp(value, limit):
        if value > limit:
            return limit
        if value < -limit:
            return -limit
        return value

    derivative = 0.0 if state.prev_error is None else (error - state.prev_error) / dt
    integral = clamp(state.integral + error * dt, gains.int_limit)
    raw = gains.kp * error + gains.ki * integral + gains.kd * derivative
    out = clamp(raw, gains.out_limit)
    if raw != out and raw * error > 0:
        integral = state.integral
    return out, PIDState(integral=integral, prev_error=error)


def test_pid_step_matches_clamp_reference():
    rng = np.random.default_rng(3)
    gains = PIDGains(kp=2.0, ki=3.0, kd=0.1, out_limit=1.0, int_limit=0.5)
    state = ref = PIDState()
    # errors on and around both limits as well as random ones
    errors = [1.0, -1.0, 0.5, -0.5, 0.0, -0.0] + list(rng.normal(0.0, 1.0, 2000))
    for error in errors:
        out, state = pid_step(error, gains, 0.01, state)
        ref_out, ref = reference_pid_step(error, gains, 0.01, ref)
        assert (out, state) == (ref_out, ref)


def test_step_count_caps_the_run():
    assert step_count(60.0, 0.02, "horizon") == 3000
    assert step_count(MAX_SIM_STEPS * 0.5, 0.5, "horizon") == MAX_SIM_STEPS
    for span in (MAX_SIM_STEPS * 0.5 + 1.0, 1e308, math.inf, math.nan):
        with pytest.raises(DomainError, match=f"more than {MAX_SIM_STEPS} steps"):
            step_count(span, 0.5, "horizon")
