"""Independent reference formulas the tests check the package against.

None of these is called by the simulator: each restates a textbook law,
a closed-form steady state or a plain loop so a test can compare the
package's own arithmetic (line loss coefficients, mock injector sizing,
paired setpoints, logged setpoints, the Cv grid fit, the chamber
back-pressure root-find, the PID and actuator updates, the CSV writer
and reader) with it, or build the calibration logs a fit reads;
audited_run steps a run under the plant invariant audit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eregsim import engine
from eregsim.calibration import THETA_GRID_STEP, CvFit
from eregsim.control import DERIVATIVE_FILTER_PERIODS, ActuatorSettings, PidGains
from eregsim.errors import DegenerateFitError, EregSimError, ModelError
from eregsim.fluids import CHOKED_PRESSURE_RATIO, FULL_TRAVEL, chamber_state
from eregsim.scenario import EREG_NAMES, ScenarioConfig, setpoints_at
from eregsim.telemetry import EREG_FIELDS, SCALAR_FIELDS, TelemetryFrame, csv_header


def orifice_mass_flow(cd: float, area: float, rho: float, dp: float) -> float:
    """Incompressible orifice law mdot = Cd * A * sqrt(2 * rho * dp)."""
    if not 0.0 < cd <= 1.0:
        raise ValueError(f"discharge coefficient {cd} outside (0, 1]")
    if area <= 0.0:
        raise ValueError("orifice area must be positive")
    if rho <= 0.0:
        raise ValueError("density must be positive")
    if dp <= 0.0:
        return 0.0
    return cd * area * math.sqrt(2.0 * rho * dp)


def darcy_weisbach_dp(
    friction_factor: float, length: float, diameter: float, rho: float, velocity: float
) -> float:
    """Friction loss f * (L/D) * rho * v^2 / 2 along a straight line."""
    if friction_factor <= 0.0 or length <= 0.0 or diameter <= 0.0 or rho <= 0.0:
        raise ValueError("line parameters must be positive")
    if velocity < 0.0:
        raise ValueError("velocity must be nonnegative")
    return friction_factor * (length / diameter) * rho * velocity**2 / 2.0


def valve_cv(alpha: float, theta_zero: float, theta: float) -> float:
    """Piecewise-linear flow coefficient max(0, alpha * (theta - theta_zero))."""
    return max(0.0, alpha * (theta - theta_zero))


def valve_liquid_flow(alpha: float, theta_zero: float, theta: float, dp: float,
                      rho: float) -> float:
    """Volumetric liquid flow Cv * sqrt(dp / rho) through a valve; 0 for dp <= 0."""
    return valve_cv(alpha, theta_zero, theta) * math.sqrt(dp / rho) if dp > 0.0 else 0.0


def valve_gas_flow(k: float, alpha: float, theta_zero: float, theta: float, p_up: float,
                   p_down: float) -> float:
    """Gas mass flow k * Cv * p_up: choked up to the critical pressure ratio,
    fading linearly to 0 at ratio 1."""
    if p_up <= 0.0:
        return 0.0
    ratio = p_down / p_up
    critical = CHOKED_PRESSURE_RATIO
    fade = 1.0 if ratio <= critical else 0.0 if ratio >= 1.0 else (1.0 - ratio) / (1.0 - critical)
    return k * valve_cv(alpha, theta_zero, theta) * p_up * fade


def tank_feedforward_angle(gamma: float, theta_zero: float, setpoint: float,
                           supply: float) -> float:
    """Tank-valve feedforward gamma * min(1, setpoint / supply) + theta_zero,
    within the valve travel."""
    return min(max(gamma * min(1.0, setpoint / supply) + theta_zero, 0.0), FULL_TRAVEL)


def cv_fit_objective(samples: list[tuple[float, float]], alpha: float, theta_zero: float) -> float:
    """Sum of squared residuals of Cv_i against max(0, alpha*(theta_i - theta_zero))."""
    total = 0.0
    for theta, cv in samples:
        predicted = max(0.0, alpha * (theta - theta_zero))
        total += (cv - predicted) ** 2
    return total


def grid_cv_fit(samples: list[tuple[float, float]]) -> CvFit:
    """The Cv fit as a plain grid loop: every breakpoint's least-squares
    slope and objective from a full pass over the samples, the first
    strictly smallest objective winning. fit_cv_curve must equal it."""
    if len(samples) < 3:
        raise DegenerateFitError("need at least 3 samples to fit the Cv curve")
    thetas = np.array([s[0] for s in samples], dtype=float)
    cvs = np.array([s[1] for s in samples], dtype=float)
    if np.ptp(thetas) == 0.0:
        raise DegenerateFitError("all samples at one angle: Cv slope unidentifiable")
    best = None
    with np.errstate(over="ignore", invalid="ignore"):
        for theta_zero in np.arange(0.0, FULL_TRAVEL, THETA_GRID_STEP):
            x = thetas - theta_zero
            active = x > 0.0
            denom = float(np.sum(x[active] ** 2))
            if denom > 0.0:
                alpha = float(np.sum(cvs[active] * x[active])) / denom
            else:
                alpha = 0.0
            alpha = max(alpha, 0.0)
            predicted = np.where(active, alpha * x, 0.0)
            objective = float(np.sum((cvs - predicted) ** 2))
            if best is None or objective < best[0]:
                best = (objective, theta_zero, alpha)
    objective, theta_zero, alpha = best
    if alpha <= 0.0:
        raise DegenerateFitError("no positive slope found: samples carry no flow")
    return CvFit(alpha, float(theta_zero), math.sqrt(objective / len(samples)), len(samples))


def emit_telemetry_reference(frames: list[TelemetryFrame], destination) -> None:
    """The telemetry CSV through csv.writer, one f"{v:.9g}" per value read
    by field name in header order, not through values();
    telemetry.emit_telemetry must write the same bytes."""
    with open(destination, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header())
        for frame in frames:
            row = [frame.time_s]
            for name in EREG_NAMES:
                row += (getattr(getattr(frame, name), f) for f in EREG_FIELDS)
            row += (getattr(frame, f) for f in SCALAR_FIELDS)
            writer.writerow([*(f"{v:.9g}" for v in row), ";".join(frame.events)])


def read_telemetry_reference(path) -> list[TelemetryFrame]:
    """The telemetry CSV through one csv.reader loop, float() per cell and
    from_values per row; for every file telemetry.read_telemetry accepts,
    it must give the same frames to the bit. The reader sets no cell size
    limit, so neither does this loop."""
    path = Path(path)
    frames = []
    limit = csv.field_size_limit(1 << 30)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != csv_header():
                raise EregSimError(f"unexpected telemetry header in {path}")
            try:
                for row in reader:
                    frames.append(TelemetryFrame.from_values(
                        [*map(float, row[:-1])],
                        row[-1].split(";") if row[-1] else (),
                    ))
            except (csv.Error, IndexError, ValueError) as exc:
                raise EregSimError(
                    f"malformed telemetry row in {path} at line {reader.line_num}: {exc}"
                ) from exc
    finally:
        csv.field_size_limit(limit)
    return frames


def scheduled_setpoints_check(frames: list[TelemetryFrame], config: ScenarioConfig) -> float:
    """Worst mismatch (bar) between logged and scheduled setpoints."""
    worst = 0.0
    for frame in frames:
        scheduled = setpoints_at(config.schedule, frame.time_s)
        for name, setpoint in zip(EREG_NAMES, scheduled):
            logged = getattr(frame, name).setpoint_bar
            worst = max(worst, abs(logged - setpoint / 1e5))
    return worst


@dataclass(frozen=True)
class OperatingPoint:
    mdot_ox: float
    mdot_fuel: float
    chamber_pressure: float
    thrust: float
    ox_inj_pressure: float
    fuel_inj_pressure: float


def steady_operating_point(config: ScenarioConfig, thrust_fraction: float = 1.0) -> OperatingPoint:
    """Closed-form steady state at a thrust fraction of the nominal point."""
    mdot_ox = thrust_fraction * config.nominal_mdot["ox"]
    mdot_fuel = thrust_fraction * config.nominal_mdot["fuel"]
    total = mdot_ox + mdot_fuel
    if config.chamber is None:
        pc, thrust = config.ambient_pressure, 0.0
    else:
        pc, thrust = chamber_state(total, config.chamber, config.ambient_pressure)
    return OperatingPoint(
        mdot_ox,
        mdot_fuel,
        pc,
        thrust,
        config.injectors["ox"].inlet_pressure(mdot_ox, config.tanks["ox"].liquid_density, pc),
        config.injectors["fuel"].inlet_pressure(mdot_fuel, config.tanks["fuel"].liquid_density, pc),
    )


def back_pressure_reference(plant, p_tank, v_liquid) -> tuple[float, float]:
    """The chamber back-pressure root-find as a loop over a list of the open
    branches of the tanks that hold liquid; returns (pc, warm start after).

    Reads the plant's per-angle constants and warm start and changes
    nothing; engine._Plant._back_pressure must equal it bit for bit.
    """
    lo = plant._ambient
    gain = plant._gain
    if gain is None:
        return lo, plant._pc_guess
    branches = [
        (p, c[0], c[1]) for p, v, c in zip(p_tank, v_liquid, plant._branch)
        if v > 0.0 and c[2] is not None
    ]
    if not branches:
        return lo, plant._pc_guess
    total = 0.0
    hi = lo
    for p_t, beta, _ in branches:
        drop = p_t - lo
        if drop > 0.0:
            total += beta * math.sqrt(drop)
        if p_t > hi:
            hi = p_t
    if lo - gain * total >= 0.0:
        return lo, plant._pc_guess
    pc = min(max(plant._pc_guess, lo), hi)
    for _ in range(engine.ROOT_MAX_ITERATIONS):
        total = 0.0
        slope = 1.0
        for p_t, beta, gain_beta in branches:
            drop = p_t - pc
            if drop > 0.0:
                root = math.sqrt(drop)
                total += beta * root
                slope += gain_beta / (2.0 * root)
        f = pc - gain * total
        if abs(f) < engine.ROOT_TOLERANCE_PA:
            break
        if f > 0.0:
            hi = pc
        else:
            lo = pc
        step = pc - f / slope
        pc = step if lo < step < hi else 0.5 * (lo + hi)
    else:
        if math.isnan(f) or hi > math.nextafter(lo, math.inf):
            raise ModelError("chamber pressure root-find did not converge")
    return pc, pc


@dataclass
class PidState:
    integral: float = 0.0
    filtered_measurement: float | None = None


def pid_step_reference(state: PidState, gains: PidGains, output_limits, integral_limits,
                       dt: float, setpoint: float, measurement: float, scale: float) -> float:
    """One PidController.step: rectangular integral clamped to its limits,
    derivative on the filtered measurement, integral held while the output
    saturates the way the error pushes, output clamped."""
    kp, ki, kd = gains.kp * scale, gains.ki * scale, gains.kd * scale
    error = setpoint - measurement
    if state.filtered_measurement is None:
        state.filtered_measurement = measurement
    previous = state.filtered_measurement
    filter_gain = dt / (DERIVATIVE_FILTER_PERIODS * dt + dt)
    state.filtered_measurement += filter_gain * (measurement - previous)
    derivative = -(state.filtered_measurement - previous) / dt
    candidate = min(max(state.integral + ki * error * dt, integral_limits[0]), integral_limits[1])
    lo, hi = output_limits
    output = kp * error + candidate + kd * derivative
    if (output > hi and error > 0.0) or (output < lo and error < 0.0):
        candidate = state.integral
        output = kp * error + candidate + kd * derivative
    state.integral = candidate
    return min(max(output, lo), hi)


@dataclass
class ActuatorState:
    angle: float = 0.0
    valve_angle: float = 0.0
    rate: float = 0.0
    command: float = 0.0


def actuator_step_reference(state: ActuatorState, settings: ActuatorSettings, dt: float,
                            command: float) -> None:
    """One Actuator.step: the rate relaxes exactly (zero-order hold) toward
    the clamped command times rate_max, the angle integrates it and stops at
    the travel limits, and the valve follows through the backlash."""
    decay = math.exp(-dt / settings.time_constant)
    state.command = min(max(command, -1.0), 1.0)
    target_rate = state.command * settings.rate_max
    state.angle += target_rate * dt + (state.rate - target_rate) * settings.time_constant * (
        1.0 - decay
    )
    state.rate = target_rate + (state.rate - target_rate) * decay
    if state.angle <= 0.0:
        state.angle = 0.0
        state.rate = 0.0
    elif state.angle >= FULL_TRAVEL:
        state.angle = FULL_TRAVEL
        state.rate = 0.0
    state.valve_angle = min(max(state.valve_angle, state.angle - settings.backlash), state.angle)


def audited_run(config: ScenarioConfig) -> tuple[list[TelemetryFrame], engine.RunAudit]:
    """The frames of a run stepped one physics step at a time, and the
    RunAudit of its plant recorded at the start and after every step."""
    run = engine.Run(config)
    audit = engine.RunAudit()
    audit.record(run.plant)
    while not run.done:
        run.advance(1)
        audit.record(run.plant)
    return run.frames(), audit
