"""Physical models of the pressure-fed feed system.

Valve flow laws, the ideal-gas state record, feed line losses, injector
orifices and a lumped thrust chamber. All quantities are SI
(Pa, kg, m3, K, s); valve angles are degrees.

The valve flow coefficient is carried in SI flow-factor form,

    Q = Cv * sqrt(dp / rho)        [m3/s]

which gives Cv units of m2 (an effective area); scenario files give the
slope of that curve in the same units (alpha_si_per_deg).
"""

import math
from typing import NamedTuple

AMBIENT_PRESSURE = 101325.0  # Pa
R_NITROGEN = 296.8  # J/(kg K)
DEFAULT_TEMPERATURE = 293.0  # K, isothermal gas assumption
FULL_TRAVEL = 90.0  # degrees, ball-valve hard stops at 0 and FULL_TRAVEL

# Downstream/upstream pressure ratio below which a gas valve is treated as
# choked. Above it the flow is faded linearly to zero at ratio 1 so the
# model cannot push gas against an equal or higher downstream pressure.
CHOKED_PRESSURE_RATIO = 0.528


# ---------------------------------------------------------------------------
# State containers


class GasTankState(NamedTuple):
    """Ideal gas, p * V = m * R * T, that the program never builds: only
    test_patch_engine_wraps_imported_names_and_unpatch_restores in
    perfbench/tests/test_perfbench.py traces it, until ROADMAP item 3."""

    pressure: float  # Pa
    volume: float  # m3
    gas_mass: float  # kg
    temperature: float  # K
    specific_gas_constant: float = R_NITROGEN  # J/(kg K)

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


class ValveModel(NamedTuple):
    """Motorized ball valve with a piecewise-linear flow coefficient.

    Cv(theta) = max(0, alpha * (theta - theta_zero)), zero through the
    dead band below theta_zero and linear up to the FULL_TRAVEL hard stop.
    """

    alpha: float  # m2 per degree
    theta_zero: float  # degrees
    rated_pressure: float  # Pa
    choked_constant: float = 0.0  # kg/s per (Pa * m2), gas valves only


class LineModel(NamedTuple):
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


class ChamberModel(NamedTuple):
    """Lumped thrust chamber: Pc = mdot * cstar / At, F = Cf * Pc * At."""

    throat_area: float  # m2
    characteristic_velocity: float  # m/s
    thrust_coefficient: float


# ---------------------------------------------------------------------------
# Flow laws


def cv_of_angle(valve: ValveModel, theta: float) -> float:
    """Flow coefficient at valve angle theta. Exact piecewise-linear, no smoothing."""
    if not 0.0 <= theta <= FULL_TRAVEL:
        raise ValueError(f"valve angle {theta} outside [0, {FULL_TRAVEL}] degrees")
    return max(0.0, valve.alpha * (theta - valve.theta_zero))


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
    """Gas mass flow k * Cv(theta) * p_up, choked below CHOKED_PRESSURE_RATIO
    and faded to zero near equalization; zero for adverse drops."""
    if p_up <= 0.0:
        return 0.0
    return (
        valve.choked_constant * cv_of_angle(valve, theta) * p_up * choked_flow_fade(p_down / p_up)
    )


def liquid_volumetric_flow(valve: ValveModel, theta: float, dp: float, rho: float) -> float:
    """Volumetric flow Cv(theta) * sqrt(dp / rho); zero for dp <= 0 (check valves)."""
    if rho <= 0.0:
        raise ValueError("liquid density must be positive")
    if dp <= 0.0:
        return 0.0
    return cv_of_angle(valve, theta) * math.sqrt(dp / rho)


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
    if cv <= 0.0 or cv**2 == 0.0:  # shut, or so nearly shut that Cv^2 underflows
        return 0.0, p_back
    dp = p_tank - p_back
    if dp <= 0.0:
        return 0.0, p_tank
    total_coeff = line_coeff + 1.0 / cv**2 + orifice_coeff
    q = math.sqrt(dp / (rho * total_coeff))
    p_injector = p_back + rho * q**2 * orifice_coeff
    return q, p_injector
