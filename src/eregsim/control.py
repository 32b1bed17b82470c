"""Electronic-regulator controller stack.

Each regulator is a cascade: a primary pressure loop computes a valve
angle setpoint from the downstream pressure error (plus a model-based
feedforward term and time-ramped gains), and a secondary position loop
drives the motor command to reach that angle. Each part is built with its
fixed sample period and computes its discrete coefficients once; the
engine owns the clock and says when a primary tick is due.
"""

import math
from typing import NamedTuple

from .errors import ControllerError
from .fluids import FULL_TRAVEL

# Time constant of the PID derivative's measurement filter, in sample periods.
DERIVATIVE_FILTER_PERIODS = 4.0

# Closed-loop controller variants; see EregController.
CONTROLLER_VARIANTS = ("ff+dyn", "pid", "ff")


def _require_finite(**values: float) -> None:
    """Raise ControllerError naming the first non-finite value. The step methods
    call this only when the sum of their inputs is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ControllerError(f"non-finite controller input: {name}={value}")


def clamp(x: float, lo: float, hi: float) -> float:
    """min(max(x, lo), hi) without the builtins' call cost: x itself unless a
    bound is strictly beyond it, so a signed zero keeps its sign."""
    x = lo if lo > x else x
    return hi if hi < x else x


class PidGains(NamedTuple):
    kp: float
    ki: float
    kd: float

    def validate(self) -> None:
        if self.kp < 0.0 or self.ki < 0.0 or self.kd < 0.0:
            raise ControllerError("PID gains must be nonnegative")


class FeedforwardParams(NamedTuple):
    """Constants for the model-based feedforward terms.

    Tank regulators use gamma * min(1, setpoint / supply_pressure) + theta_zero.
    Injector regulators invert the liquid valve law at the nominal flow:
    nominal_flow * sqrt(density / available_drop) / alpha + theta_zero.
    """

    gamma: float = 0.0  # degrees, tank variant
    nominal_flow: float = 0.0  # m3/s, injector variant
    fluid_density: float = 0.0  # kg/m3, injector variant
    alpha: float = 0.0  # m2 per degree, shared with the valve model
    theta_zero: float = 0.0  # degrees
    min_drop: float = 1.0e4  # Pa, floor below which the valve goes fully open


class ControllerSettings(NamedTuple):
    """One regulator as the scenario configures it."""

    primary_gains: PidGains  # degrees per Pa, Pa*s, Pa/s
    secondary_gains: PidGains
    ramp_time: float  # s
    feedforward: FeedforwardParams
    integral_limits: tuple[float, float]  # degrees
    secondary_integral_limits: tuple[float, float]
    locked_angle: float | None  # fixed valve angle, bypasses the loops


class ActuatorSettings(NamedTuple):
    time_constant: float  # s
    rate_max: float  # degrees/s
    backlash: float  # degrees of lost motion
    encoder_counts_per_degree: float  # 0 disables quantization


def ff_tank(ff: FeedforwardParams, tank_setpoint: float, supply_pressure: float) -> float:
    """Tank-regulator feedforward angle, clamped to the valve travel. A supply
    read at or below 0 (noise on an empty supply) takes the ratio's limit, 1."""
    ratio = min(1.0, tank_setpoint / supply_pressure) if supply_pressure > 0.0 else 1.0
    angle = ff.gamma * ratio + ff.theta_zero
    return clamp(angle, 0.0, FULL_TRAVEL)


def ff_injector(ff: FeedforwardParams, injector_setpoint: float, tank_pressure: float) -> float:
    """Injector-regulator feedforward angle.

    When the available drop tank_pressure - setpoint falls below the
    configured floor the formula diverges; the physically correct limit is
    a fully open valve, which is returned instead of an error.
    """
    drop = tank_pressure - injector_setpoint
    if drop <= ff.min_drop:
        return FULL_TRAVEL
    angle = ff.nominal_flow * math.sqrt(ff.fluid_density / drop) / ff.alpha + ff.theta_zero
    return clamp(angle, 0.0, FULL_TRAVEL)


class PidController:
    """Discrete PID: rectangular integration, derivative on the measurement.

    The integral state accumulates the integral term directly in output
    units (ki * e * dt per step), which keeps gain ramping bumpless and
    makes the integral limits meaningful as output authority. The
    derivative acts on a first-order filtered measurement (time constant
    DERIVATIVE_FILTER_PERIODS sample periods) so setpoint steps produce
    no impulse and sensor noise is not amplified. Anti-windup is
    conditional: the integrator is frozen whenever the output is saturated
    in the same direction as the error pushes. step() multiplies all three
    gains by scale, which is how a caller schedules them.
    """

    def __init__(
        self,
        gains: PidGains,
        output_limits: tuple[float, float],
        integral_limits: tuple[float, float],
        dt: float,
    ):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        gains.validate()
        self._kp, self._ki, self._kd = gains
        self.output_limits = output_limits
        self.integral_limits = integral_limits
        self.dt = dt
        self._filter_gain = dt / (DERIVATIVE_FILTER_PERIODS * dt + dt)
        self.integral = 0.0
        self._filtered_measurement: float | None = None

    def step(self, setpoint: float, measurement: float, scale: float = 1.0) -> float:
        if not math.isfinite(setpoint + measurement):
            _require_finite(setpoint=setpoint, measurement=measurement)
        dt = self.dt
        kp, ki, kd = self._kp * scale, self._ki * scale, self._kd * scale
        error = setpoint - measurement

        # Derivative on the low-pass filtered measurement, negated so that a
        # rising measurement opposes the output (no setpoint kick).
        previous_filtered = self._filtered_measurement
        if previous_filtered is None:
            previous_filtered = measurement
        filtered = previous_filtered + self._filter_gain * (measurement - previous_filtered)
        self._filtered_measurement = filtered
        derivative = -(filtered - previous_filtered) / dt

        integral = self.integral
        lo_i, hi_i = self.integral_limits
        candidate = integral + ki * error * dt
        candidate = lo_i if lo_i > candidate else candidate
        candidate = hi_i if hi_i < candidate else candidate
        lo, hi = self.output_limits
        output = kp * error + candidate + kd * derivative
        if (output > hi and error > 0.0) or (output < lo and error < 0.0):
            # Saturated in the direction the error is pushing: keep the old
            # integral instead of winding it further.
            candidate = integral
            output = kp * error + candidate + kd * derivative
        self.integral = candidate
        output = lo if lo > output else output
        output = hi if hi < output else output
        if not math.isfinite(output):
            _require_finite(output=output)
        return output


class Actuator:
    """Lumped motor + gearbox + valve stem.

    The shaft rate relaxes toward command * rate_max with a first-order
    time constant; the angle integrates the rate and stops hard at the
    travel limits (rate zeroed). Optional backlash models lost motion
    between the motor shaft (where the encoder sits) and the ball valve.
    step() leaves the encoder reading of the new shaft angle, quantized to
    encoder_counts_per_degree when that is above 0, in measured_angle
    (0.0 before the first step).
    """

    def __init__(self, settings: ActuatorSettings, dt: float):
        if settings.time_constant <= 0.0 or settings.rate_max <= 0.0:
            raise ValueError("actuator time constant and rate limit must be positive")
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        self.dt = dt
        # Exact zero-order-hold discretization of the rate lag and its
        # integral: no step-size error for a command held across the step.
        self._decay = math.exp(-dt / settings.time_constant)
        self.time_constant = settings.time_constant
        self.rate_max = settings.rate_max
        self.angle = 0.0  # motor-side angle, degrees
        self.valve_angle = 0.0  # downstream of any backlash
        self.rate = 0.0
        self.backlash = settings.backlash
        self.encoder_counts_per_degree = settings.encoder_counts_per_degree
        self.measured_angle = 0.0  # encoder reading, set by step

    def step(self, command: float) -> None:
        if not math.isfinite(command):
            _require_finite(command=command)
        command = -1.0 if -1.0 > command else command
        command = 1.0 if 1.0 < command else command
        target_rate = command * self.rate_max
        decay = self._decay
        rate = self.rate
        angle = self.angle + (
            target_rate * self.dt + (rate - target_rate) * self.time_constant * (1.0 - decay)
        )
        rate = target_rate + (rate - target_rate) * decay
        if angle <= 0.0:
            angle = rate = 0.0
        elif angle >= FULL_TRAVEL:
            angle = FULL_TRAVEL
            rate = 0.0
        self.angle = angle
        self.rate = rate
        per_degree = self.encoder_counts_per_degree
        self.measured_angle = (
            math.floor(angle * per_degree) / per_degree if per_degree > 0.0 else angle
        )
        # Lost motion: the valve only moves once the motor takes up the lash.
        valve_angle = self.valve_angle
        slack = angle - self.backlash
        valve_angle = slack if slack > valve_angle else valve_angle
        self.valve_angle = angle if angle < valve_angle else valve_angle


class EregController:
    """One regulator: primary pressure loop cascaded into a motor loop.

    kind selects the feedforward formula ("tank" or "injector"). Each call
    to step() is one secondary tick and recomputes the motor command; a
    call with primary set also refreshes the angle setpoint u1 first.
    Feedforward and PID output are summed and the sum is clamped to the
    valve travel; the primary anti-windup saturates against that same
    clamp so the integrator cannot wind while the valve is pinned.

    variant is one of CONTROLLER_VARIANTS: "ff+dyn" runs the feedforward
    with the primary gains scaled by the ramp min(1, t/ramp_time), "pid"
    the feedback alone at scale 1, and "ff" the feedforward alone at
    scale 0.
    """

    def __init__(
        self,
        kind: str,
        settings: ControllerSettings,
        actuator: Actuator,
        primary_period: float,
        secondary_period: float,
        variant: str,
    ):
        if kind not in ("tank", "injector"):
            raise ValueError(f"unknown regulator kind {kind!r}")
        if variant not in CONTROLLER_VARIANTS:
            raise ValueError(f"unknown controller variant {variant!r}")
        self.feedforward = None if variant == "pid" else settings.feedforward
        self._ff_angle = ff_tank if kind == "tank" else ff_injector
        self.ramp_time = settings.ramp_time if variant == "ff+dyn" else None
        self.gain_scale = 0.0 if variant == "ff" else 1.0  # when there is no ramp
        self.actuator = actuator
        self.primary = PidController(
            settings.primary_gains, (0.0, FULL_TRAVEL), settings.integral_limits, primary_period
        )
        self.secondary = PidController(
            settings.secondary_gains, (-1.0, 1.0), settings.secondary_integral_limits,
            secondary_period,
        )
        self.u1 = 0.0  # valve angle setpoint, degrees
        self.u2 = 0.0  # motor command
        self.last_feedforward = 0.0

    def step(
        self,
        downstream_pressure: float,
        upstream_pressure: float,
        setpoint: float,
        t: float,
        primary: bool,
    ) -> float:
        """Advance the cascade one secondary tick; returns the motor command."""
        if not math.isfinite(downstream_pressure + upstream_pressure + setpoint):
            _require_finite(downstream_pressure=downstream_pressure,
                            upstream_pressure=upstream_pressure, setpoint=setpoint)
        if primary:
            ff_angle = 0.0
            if self.feedforward is not None:
                ff_angle = self._ff_angle(self.feedforward, setpoint, upstream_pressure)
            scale = self.gain_scale if self.ramp_time is None else t / self.ramp_time
            scale = scale if scale < 1.0 else 1.0  # gain_scale is 0 or 1
            # Saturate the PID against the travel limits shifted by the
            # feedforward so the summed command clamps exactly at [0, 90].
            self.primary.output_limits = (-ff_angle, FULL_TRAVEL - ff_angle)
            pid_out = self.primary.step(setpoint, downstream_pressure, scale)
            self.u1 = clamp(ff_angle + pid_out, 0.0, FULL_TRAVEL)
            self.last_feedforward = ff_angle
        self.u2 = self.secondary.step(self.u1, self.actuator.measured_angle)
        return self.u2
