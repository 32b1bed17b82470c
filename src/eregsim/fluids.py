"""Physical models of the pressure-fed feed system.

Valve flow laws, isothermal tank thermodynamics, feed line losses,
injector orifices and a lumped thrust chamber. All quantities are SI
(Pa, kg, m3, K, s); valve angles are degrees.

The valve flow coefficient is carried in SI flow-factor form,

    Q = Cv * sqrt(dp / rho)        [m3/s]

which gives Cv units of m2 (an effective area); scenario files give the
slope of that curve in the same units (alpha_si_per_deg).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ModelError

AMBIENT_PRESSURE = 101325.0  # Pa
R_NITROGEN = 296.8  # J/(kg K)
DEFAULT_TEMPERATURE = 293.0  # K, isothermal gas assumption

# Downstream/upstream pressure ratio below which a gas valve is treated as
# choked. Above it the flow is faded linearly to zero at ratio 1 so the
# model cannot push gas against an equal or higher downstream pressure.
CHOKED_PRESSURE_RATIO = 0.528


# ---------------------------------------------------------------------------
# State containers


@dataclass(frozen=True)
class GasTankState:
    """A fixed- or variable-volume lump of ideal gas.

    pressure, volume, gas_mass and temperature are always consistent with
    p * V = m * R * T; `pressure` is recomputed from the other three on
    every update rather than integrated separately.
    """

    pressure: float  # Pa
    volume: float  # m3
    gas_mass: float  # kg
    temperature: float  # K
    specific_gas_constant: float = R_NITROGEN  # J/(kg K)
    depleted: bool = False

    @classmethod
    def from_pressure(
        cls,
        pressure: float,
        volume: float,
        temperature: float = DEFAULT_TEMPERATURE,
        specific_gas_constant: float = R_NITROGEN,
    ) -> "GasTankState":
        mass = pressure * volume / (specific_gas_constant * temperature)
        return cls(pressure, volume, mass, temperature, specific_gas_constant)

    def gas_law_residual(self) -> float:
        """Relative residual of p*V - m*R*T (0 for a consistent state)."""
        pv = self.pressure * self.volume
        if pv == 0.0:
            return 0.0
        return abs(pv - self.gas_mass * self.specific_gas_constant * self.temperature) / pv

    def validate(self, ambient: float = AMBIENT_PRESSURE) -> None:
        for name in ("pressure", "volume", "gas_mass", "temperature"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ModelError(f"gas tank {name} must be finite and positive, got {value}")
        if self.pressure < ambient:
            raise ModelError(
                f"gas tank pressure {self.pressure:.0f} Pa below ambient {ambient:.0f} Pa"
            )
        if self.gas_law_residual() > 1e-9:
            raise ModelError("gas tank state violates the ideal gas law")


@dataclass(frozen=True)
class PropellantTankState:
    """Liquid inventory plus the ullage gas above it.

    The ullage volume is always total_volume - liquid_volume; pushing
    liquid out grows the ullage by the same rate.
    """

    total_volume: float  # m3
    liquid_volume: float  # m3
    liquid_density: float  # kg/m3
    ullage: GasTankState
    depleted: bool = False

    @property
    def ullage_fraction(self) -> float:
        return 1.0 - self.liquid_volume / self.total_volume

    @property
    def pressure(self) -> float:
        return self.ullage.pressure

    def validate(self) -> None:
        if not 0.0 <= self.liquid_volume <= self.total_volume:
            raise ModelError(
                f"liquid volume {self.liquid_volume} outside [0, {self.total_volume}]"
            )
        if self.liquid_density <= 0.0:
            raise ModelError("liquid density must be positive")
        expected_ullage = self.total_volume - self.liquid_volume
        if abs(self.ullage.volume - expected_ullage) > 1e-12 * max(self.total_volume, 1.0):
            raise ModelError("ullage volume inconsistent with liquid volume")
        self.ullage.validate()


@dataclass(frozen=True)
class ValveModel:
    """Motorized ball valve with a piecewise-linear flow coefficient.

    Cv(theta) = max(0, alpha * (theta - theta_zero)), zero through the
    dead band below theta_zero and linear up to the 90 degree hard stop.
    """

    alpha: float  # m2 per degree
    theta_zero: float  # degrees
    rated_pressure: float  # Pa
    choked_constant: float = 0.0  # kg/s per (Pa * m2), gas valves only
    theta_max: float = 90.0  # degrees, full throw of the ball valve


@dataclass(frozen=True)
class LineModel:
    """Straight feed line with a fixed Darcy friction factor."""

    friction_factor: float
    length: float  # m
    diameter: float  # m

    @property
    def flow_area(self) -> float:
        return math.pi * self.diameter**2 / 4.0

    @property
    def loss_coefficient(self) -> float:
        """c such that dp = c * rho * Q^2 for volumetric flow Q."""
        return self.friction_factor * self.length / (2.0 * self.diameter * self.flow_area**2)


@dataclass(frozen=True)
class ChamberModel:
    """Lumped thrust chamber: Pc = mdot * cstar / At, F = Cf * Pc * At."""

    throat_area: float  # m2
    characteristic_velocity: float  # m/s
    thrust_coefficient: float


# ---------------------------------------------------------------------------
# Flow laws


def cv_of_angle(valve: ValveModel, theta: float) -> float:
    """Flow coefficient at valve angle theta. Exact piecewise-linear, no smoothing."""
    if not 0.0 <= theta <= valve.theta_max:
        raise ValueError(f"valve angle {theta} outside [0, {valve.theta_max}] degrees")
    return max(0.0, valve.alpha * (theta - valve.theta_zero))


def choked_gas_mass_flow(valve: ValveModel, theta: float, p_up: float) -> float:
    """Choked gas mass flow k * Cv(theta) * p_up.

    Valid when the downstream/upstream ratio is below CHOKED_PRESSURE_RATIO;
    use gas_valve_mass_flow for the faded near-equalized regime.
    """
    return valve.choked_constant * cv_of_angle(valve, theta) * p_up


def choked_flow_fade(pressure_ratio: float) -> float:
    """Fraction of the choked flow still passing at ratio p_down/p_up.

    1 below the critical ratio, linear to 0 at ratio 1, 0 for adverse drops.
    """
    if pressure_ratio <= CHOKED_PRESSURE_RATIO:
        return 1.0
    if pressure_ratio >= 1.0:
        return 0.0
    return (1.0 - pressure_ratio) / (1.0 - CHOKED_PRESSURE_RATIO)


def gas_valve_mass_flow(valve: ValveModel, theta: float, p_up: float, p_down: float) -> float:
    """Gas mass flow including the near-equalized fade; zero for adverse drops."""
    if p_up <= 0.0:
        return 0.0
    return choked_gas_mass_flow(valve, theta, p_up) * choked_flow_fade(p_down / p_up)


def liquid_volumetric_flow(valve: ValveModel, theta: float, dp: float, rho: float) -> float:
    """Volumetric flow Cv(theta) * sqrt(dp / rho); zero for dp <= 0 (check valves)."""
    if rho <= 0.0:
        raise ValueError("liquid density must be positive")
    if dp <= 0.0:
        return 0.0
    return cv_of_angle(valve, theta) * math.sqrt(dp / rho)


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


# ---------------------------------------------------------------------------
# Tank updates


def step_gas_tank(
    state: GasTankState,
    mdot_in: float,
    mdot_out: float,
    dvolume_dt: float,
    dt: float,
    isentropic_exponent: float | None = None,
) -> GasTankState:
    """Advance a gas lump by dt with constant in/out flows and volume rate.

    Isothermal by default (temperature held, pressure from the gas law).
    With isentropic_exponent set, pressure follows p ~ (m/V)^gamma and the
    temperature is recomputed to keep the gas law exact (adiabatic supply
    stress-test mode). Mass is clamped at zero and flagged as depleted.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    new_volume = state.volume + dvolume_dt * dt
    if new_volume <= 0.0:
        raise ModelError(f"gas volume driven nonpositive ({new_volume})")
    new_mass = state.gas_mass + (mdot_in - mdot_out) * dt
    depleted = state.depleted
    if new_mass <= 0.0:
        new_mass = 0.0
        depleted = True

    if new_mass == 0.0:
        pressure = 0.0
        temperature = state.temperature
    elif isentropic_exponent is None:
        temperature = state.temperature
        pressure = new_mass * state.specific_gas_constant * temperature / new_volume
    else:
        density_ratio = (new_mass / new_volume) / (state.gas_mass / state.volume)
        pressure = state.pressure * density_ratio**isentropic_exponent
        temperature = pressure * new_volume / (new_mass * state.specific_gas_constant)

    return replace(
        state,
        pressure=pressure,
        volume=new_volume,
        gas_mass=new_mass,
        temperature=temperature,
        depleted=depleted,
    )


def step_propellant_tank(
    state: PropellantTankState,
    pressurant_mdot_in: float,
    liquid_vdot_out: float,
    dt: float,
) -> PropellantTankState:
    """Drain liquid and grow the ullage by the same volume rate.

    The outflow is capped at the remaining liquid; hitting empty flags the
    tank as depleted but the simulation may continue (pressures decay).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    available_rate = state.liquid_volume / dt
    vdot = min(liquid_vdot_out, available_rate)
    new_liquid = state.liquid_volume - vdot * dt
    depleted = state.depleted
    if new_liquid <= 0.0:
        new_liquid = 0.0
        depleted = True
    ullage = step_gas_tank(state.ullage, pressurant_mdot_in, 0.0, vdot, dt)
    return replace(
        state,
        liquid_volume=new_liquid,
        ullage=ullage,
        depleted=depleted,
    )


# ---------------------------------------------------------------------------
# Chamber and feed branch


def chamber_state(
    mdot_total: float, chamber: ChamberModel, ambient: float
) -> tuple[float, float]:
    """Chamber pressure and thrust at total propellant flow mdot_total.

    Both are linear in the flow; the reported pressure is floored at the
    ambient pressure (an unlit chamber reads atmospheric).
    """
    if mdot_total < 0.0:
        raise ValueError("mass flow must be nonnegative")
    pc_raw = mdot_total * chamber.characteristic_velocity / chamber.throat_area
    thrust = chamber.thrust_coefficient * pc_raw * chamber.throat_area
    return max(pc_raw, ambient), thrust


def branch_flow(
    p_tank: float,
    p_back: float,
    rho: float,
    cv: float,
    line_coeff: float,
    orifice_coeff: float,
) -> tuple[float, float]:
    """Quasi-steady flow through line + valve + injector orifice in series.

    Each element obeys dp = c * rho * Q^2 with c the element coefficient
    (line: from LineModel.loss_coefficient; valve: 1/Cv^2; orifice:
    1/(2 (Cd A)^2)). Returns (Q, p_injector) where p_injector is the node
    between valve and injector orifice. Zero flow when the valve is shut
    or the drop is adverse.
    """
    if cv <= 0.0:
        return 0.0, p_back
    dp = p_tank - p_back
    if dp <= 0.0:
        return 0.0, p_tank
    total_coeff = line_coeff + 1.0 / cv**2 + orifice_coeff
    q = math.sqrt(dp / (rho * total_coeff))
    p_injector = p_back + rho * q**2 * orifice_coeff
    return q, p_injector
