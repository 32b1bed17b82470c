"""Independent reference formulas the tests check the package against.

None of these is called by the simulator: each restates a textbook law or
a closed-form steady state so a test can compare the package's own
arithmetic (line loss coefficients, mock injector sizing, paired
setpoints, logged setpoints, the Cv grid fit) with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eregsim.calibration import THETA_GRID_STEP, CvFit
from eregsim.errors import DegenerateFitError
from eregsim.fluids import FULL_TRAVEL, chamber_state
from eregsim.scenario import EREG_NAMES, ScenarioConfig, setpoints_at
from eregsim.telemetry import TelemetryFrame


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


def scheduled_setpoints_check(frames: list[TelemetryFrame], config: ScenarioConfig) -> float:
    """Worst mismatch (bar) between logged and scheduled setpoints."""
    worst = 0.0
    for frame in frames:
        scheduled = setpoints_at(config.schedule, frame.time_s)
        for name, setpoint in zip(EREG_NAMES, scheduled):
            logged = frame.ereg(name).setpoint_bar
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
