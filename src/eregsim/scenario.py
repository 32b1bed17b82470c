"""Declarative run descriptions: throttle profiles, plant constants and
configuration loading/validation.

Scenario files are YAML with pressures in bar, times in seconds and
angles in degrees; everything is converted to SI at load. A
schema_version field is mandatory. See docs/scenario_schema.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path

import yaml

from .control import DROP_REFERENCES, FeedforwardParams, PidGains
from .errors import ConfigError, InfeasibleThrottleError, UndefinedRatioError
from .fluids import (
    AMBIENT_PRESSURE,
    ChamberModel,
    LineModel,
    ValveModel,
    branch_flow,
    chamber_state,
    cv_of_angle,
)
from .units import CV_US_GPM_TO_SI, bar_to_pa

SCHEMA_VERSION = 1

EREG_NAMES = ("ox_tank", "fuel_tank", "ox_inj", "fuel_inj")
TANK_EREGS = ("ox_tank", "fuel_tank")
INJECTOR_EREGS = ("ox_inj", "fuel_inj")
MODES = ("waterflow", "coldflow", "staticfire")
VARIANTS = ("ff+dyn", "pid", "ff", "oracle")

# Convergence tolerance for the chamber-pressure fixed point used when
# pairing injector setpoints to an OF target.
PC_ITERATION_TOLERANCE = 10.0  # Pa


# ---------------------------------------------------------------------------
# Setpoint profiles


@dataclass(frozen=True)
class ProfileSegment:
    target_pressure: float  # Pa
    hold_duration: float  # s
    ramp_rate: float  # Pa/s


@dataclass(frozen=True)
class ThrottleProfile:
    """Piecewise ramp-then-hold setpoint trajectory.

    Starts at start_pressure, ramps to each segment target at that
    segment's rate, holds for its duration, and holds the final target for
    the remainder of the run. Continuous in time by construction.
    """

    start_pressure: float  # Pa
    segments: tuple[ProfileSegment, ...]

    def validate(self, ambient: float = AMBIENT_PRESSURE) -> None:
        if self.start_pressure <= ambient:
            raise ConfigError("profile start pressure must exceed ambient")
        if not self.segments:
            raise ConfigError("profile needs at least one segment")
        for seg in self.segments:
            if seg.target_pressure <= ambient:
                raise ConfigError("profile target pressure must exceed ambient")
            if seg.hold_duration < 0.0:
                raise ConfigError("hold duration must be nonnegative")
            if seg.ramp_rate <= 0.0:
                raise ConfigError("ramp rate must be positive")

    def max_pressure(self) -> float:
        return max(self.start_pressure, *(s.target_pressure for s in self.segments))

    def value(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("time must be nonnegative")
        level = self.start_pressure
        clock = 0.0
        for seg in self.segments:
            ramp_time = abs(seg.target_pressure - level) / seg.ramp_rate
            if t < clock + ramp_time:
                direction = 1.0 if seg.target_pressure >= level else -1.0
                return level + direction * seg.ramp_rate * (t - clock)
            clock += ramp_time
            level = seg.target_pressure
            if t < clock + seg.hold_duration:
                return level
            clock += seg.hold_duration
        return level  # final target held for the remainder

    def hold_intervals(self) -> list[tuple[float, float, float]]:
        """(start, end, pressure) of each hold; the last end is math.inf."""
        intervals = []
        level = self.start_pressure
        clock = 0.0
        for seg in self.segments:
            clock += abs(seg.target_pressure - level) / seg.ramp_rate
            level = seg.target_pressure
            intervals.append((clock, clock + seg.hold_duration, level))
            clock += seg.hold_duration
        if intervals:
            start, _, level = intervals[-1]
            intervals[-1] = (start, math.inf, level)
        return intervals


@dataclass(frozen=True)
class Setpoints:
    ox_tank: float
    fuel_tank: float
    ox_inj: float
    fuel_inj: float

    def for_ereg(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class SetpointSchedule:
    """Constant tank setpoints plus one throttle profile per injector."""

    ox_tank: float  # Pa
    fuel_tank: float  # Pa
    ox_inj: ThrottleProfile
    fuel_inj: ThrottleProfile


def setpoints_at(schedule: SetpointSchedule, t: float) -> Setpoints:
    """Scheduled setpoints for all four regulators at time t."""
    return Setpoints(
        ox_tank=schedule.ox_tank,
        fuel_tank=schedule.fuel_tank,
        ox_inj=schedule.ox_inj.value(t),
        fuel_inj=schedule.fuel_inj.value(t),
    )


# ---------------------------------------------------------------------------
# Operating-point helpers


def of_ratio(mdot_ox: float, mdot_fuel: float) -> float:
    """Oxidizer-to-fuel mass flow ratio."""
    if mdot_fuel <= 0.0:
        raise UndefinedRatioError("OF ratio undefined at zero fuel flow")
    return mdot_ox / mdot_fuel


@dataclass(frozen=True)
class InjectorOrifice:
    cd: float
    area: float  # m2

    @property
    def coeff(self) -> float:
        """c such that dp = c * rho * Q^2 for volumetric flow Q."""
        return 1.0 / (2.0 * (self.cd * self.area) ** 2)


def size_mock_injector(
    target_mdot: float, rho: float, upstream: float, downstream: float, cd: float
) -> float:
    """Orifice area passing target_mdot from upstream to downstream pressure."""
    if not 0.0 < cd <= 1.0:
        raise ConfigError(f"discharge coefficient {cd} outside (0, 1]")
    dp = upstream - downstream
    if dp <= 0.0:
        raise InfeasibleThrottleError("mock injector sizing needs a positive pressure drop")
    if target_mdot <= 0.0 or rho <= 0.0:
        raise ConfigError("target flow and density must be positive")
    return target_mdot / (cd * math.sqrt(2.0 * rho * dp))


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class TankSettings:
    total_volume: float  # m3
    initial_ullage_fraction: float
    liquid_density: float  # kg/m3
    initial_pressure: float  # Pa


@dataclass(frozen=True)
class ActuatorSettings:
    time_constant: float = 0.020  # s
    rate_max: float = 180.0  # degrees/s
    backlash: float = 0.0  # degrees
    encoder_counts_per_degree: float = 0.0  # 0 disables quantization


@dataclass(frozen=True)
class ControllerSettings:
    primary_gains: PidGains  # degrees per Pa, Pa*s, Pa/s
    secondary_gains: PidGains
    ramp_time: float  # s
    feedforward: FeedforwardParams
    integral_limits: tuple[float, float] = (-45.0, 45.0)
    secondary_integral_limits: tuple[float, float] = (-0.5, 0.5)
    locked_angle: float | None = None  # fixed valve angle, bypasses the loops


@dataclass(frozen=True)
class MetricsSettings:
    startup_window: float = 1.0  # s excluded from error metrics
    early_window: float = 2.0  # s over which oscillation amplitude is taken
    settle_threshold: float = 0.5e5  # Pa
    exclude_after_depletion: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    mode: str
    duration: float
    dt_phys: float
    dt_secondary: float
    dt_primary: float
    ambient_pressure: float
    gas_constant: float
    gas_temperature: float
    supply_volume: float
    supply_pressure: float
    tanks: dict[str, TankSettings]  # keys: ox, fuel
    lines: dict[str, LineModel]
    valves: dict[str, ValveModel]  # keys: EREG_NAMES
    injectors: dict[str, InjectorOrifice]
    chamber: ChamberModel | None
    nominal_mdot: dict[str, float]
    schedule: SetpointSchedule
    controllers: dict[str, ControllerSettings]
    actuators: dict[str, ActuatorSettings]
    variant: str = "ff+dyn"
    noise_sigma: float = 0.0  # Pa, per pressure sensor
    noise_seed: int = 0
    adiabatic_supply: bool = False
    ullage_collapse_coeff: float = 0.0  # 1/s mass-sink on the ullages
    abort_pressure_factor: float = 1.10
    telemetry_decimation: int = 1
    metrics: MetricsSettings = field(default_factory=MetricsSettings)
    target_of: float | None = None

    def tank_setpoint(self, side: str) -> float:
        return self.schedule.ox_tank if side == "ox" else self.schedule.fuel_tank

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dc_replace(self, **kwargs)


def paired_setpoints_for_of(
    target_of: float, thrust_fraction: float, config: ScenarioConfig
) -> tuple[float, float]:
    """Injector setpoints that hit the OF target at a thrust fraction.

    Inverts the injector orifice law at the mass flows implied by the
    fraction of the nominal operating point, with the chamber backpressure
    solved by fixed-point iteration (converged below 10 Pa). Raises if a
    required setpoint exceeds what the tank pressure can drive.
    """
    if not 0.0 < thrust_fraction <= 1.0:
        raise InfeasibleThrottleError(f"thrust fraction {thrust_fraction} outside (0, 1]")
    if target_of <= 0.0:
        raise ConfigError("target OF must be positive")
    mdot_total = thrust_fraction * (config.nominal_mdot["ox"] + config.nominal_mdot["fuel"])
    mdot_ox = mdot_total * target_of / (1.0 + target_of)
    mdot_fuel = mdot_total / (1.0 + target_of)

    pc = config.ambient_pressure
    for _ in range(100):
        if config.chamber is None:
            pc_new = config.ambient_pressure
        else:
            pc_new, _ = chamber_state(mdot_total, config.chamber)
        if abs(pc_new - pc) < PC_ITERATION_TOLERANCE:
            pc = pc_new
            break
        pc = pc_new

    setpoints = {}
    for side, mdot in (("ox", mdot_ox), ("fuel", mdot_fuel)):
        orifice = config.injectors[side]
        rho = config.tanks[side].liquid_density
        dp = (mdot / (orifice.cd * orifice.area)) ** 2 / (2.0 * rho)
        required = pc + dp
        margin = config.controllers[side + "_inj"].feedforward.min_drop
        if required > config.tank_setpoint(side) - margin:
            raise InfeasibleThrottleError(
                f"{side} injector setpoint {required / 1e5:.2f} bar exceeds tank "
                f"setpoint {config.tank_setpoint(side) / 1e5:.2f} bar minus margin"
            )
        setpoints[side] = required
    return setpoints["ox"], setpoints["fuel"]


@dataclass(frozen=True)
class OperatingPoint:
    mdot_ox: float
    mdot_fuel: float
    chamber_pressure: float
    thrust: float
    ox_inj_pressure: float
    fuel_inj_pressure: float

    @property
    def of(self) -> float:
        return of_ratio(self.mdot_ox, self.mdot_fuel)


def steady_operating_point(config: ScenarioConfig, thrust_fraction: float = 1.0) -> OperatingPoint:
    """Closed-form steady state at a thrust fraction of the nominal point."""
    mdot_ox = thrust_fraction * config.nominal_mdot["ox"]
    mdot_fuel = thrust_fraction * config.nominal_mdot["fuel"]
    total = mdot_ox + mdot_fuel
    if config.chamber is None:
        pc, thrust = config.ambient_pressure, 0.0
    else:
        pc, thrust = chamber_state(total, config.chamber)
    pressures = {}
    for side, mdot in (("ox", mdot_ox), ("fuel", mdot_fuel)):
        orifice = config.injectors[side]
        rho = config.tanks[side].liquid_density
        pressures[side] = pc + (mdot / (orifice.cd * orifice.area)) ** 2 / (2.0 * rho)
    return OperatingPoint(mdot_ox, mdot_fuel, pc, thrust, pressures["ox"], pressures["fuel"])


def steady_branch_flow(config: ScenarioConfig, side: str, valve_angle: float, p_back: float) -> float:
    """Steady liquid volumetric flow through one branch at a fixed angle."""
    valve = config.valves[side + "_inj"]
    cv = cv_of_angle(valve, valve_angle)
    q, _ = branch_flow(
        config.tank_setpoint(side),
        p_back,
        config.tanks[side].liquid_density,
        cv,
        config.lines[side].loss_coefficient,
        config.injectors[side].coeff,
    )
    return q


# ---------------------------------------------------------------------------
# Validation


def validate_config(config: ScenarioConfig) -> None:
    if config.mode not in MODES:
        raise ConfigError(f"unknown mode {config.mode!r}")
    if config.variant not in VARIANTS:
        raise ConfigError(f"unknown controller variant {config.variant!r}")
    if config.mode == "staticfire" and config.chamber is None:
        raise ConfigError("staticfire mode requires a chamber model")
    if config.mode != "staticfire" and config.chamber is not None:
        raise ConfigError(f"{config.mode} mode must not define a chamber")
    if config.duration <= 0.0:
        raise ConfigError("duration must be positive")

    # Tick periods must nest evenly or the loop loses determinism.
    for name, fast, slow in (
        ("dt_secondary/dt_phys", config.dt_phys, config.dt_secondary),
        ("dt_primary/dt_secondary", config.dt_secondary, config.dt_primary),
    ):
        if fast <= 0.0 or slow <= 0.0:
            raise ConfigError("tick periods must be positive")
        ratio = slow / fast
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(f"tick periods must divide evenly: {name} = {ratio}")

    for name in EREG_NAMES:
        if name not in config.valves:
            raise ConfigError(f"missing valve model for {name}")
        config.valves[name].validate()
        if name not in config.controllers:
            raise ConfigError(f"missing controller settings for {name}")
        settings = config.controllers[name]
        theta_max = config.valves[name].theta_max
        if settings.locked_angle is not None and not 0.0 <= settings.locked_angle <= theta_max:
            raise ConfigError(
                f"{name} locked_angle_deg {settings.locked_angle} outside [0, {theta_max:g}]"
            )
        if settings.feedforward.drop_reference not in DROP_REFERENCES:
            raise ConfigError(
                f"{name} feedforward drop_reference {settings.feedforward.drop_reference!r} "
                f"not one of {', '.join(DROP_REFERENCES)}"
            )

    # Pressure ratings: the supply feeds the tank valves, the propellant
    # tanks feed the injector valves.
    for name in TANK_EREGS:
        if config.supply_pressure > config.valves[name].rated_pressure:
            raise ConfigError(
                f"supply pressure {config.supply_pressure / 1e5:.0f} bar exceeds "
                f"{name} valve rating {config.valves[name].rated_pressure / 1e5:.0f} bar"
            )
    for side in ("ox", "fuel"):
        valve = config.valves[side + "_inj"]
        if config.tank_setpoint(side) > valve.rated_pressure:
            raise ConfigError(
                f"{side} tank setpoint {config.tank_setpoint(side) / 1e5:.0f} bar exceeds "
                f"injector valve rating {valve.rated_pressure / 1e5:.0f} bar"
            )
        if config.valves[side + "_tank"].choked_constant <= 0.0:
            raise ConfigError(f"{side}_tank valve needs a positive choked constant")

    for side in ("ox", "fuel"):
        tank = config.tanks[side]
        if not 0.0 < tank.initial_ullage_fraction < 1.0:
            raise ConfigError("initial ullage fraction must be in (0, 1)")
        if tank.initial_pressure <= config.ambient_pressure:
            raise ConfigError("tank initial pressure must exceed ambient")
        if tank.total_volume <= 0.0 or tank.liquid_density <= 0.0:
            raise ConfigError("tank volume and density must be positive")

    if config.supply_pressure <= config.ambient_pressure or config.supply_volume <= 0.0:
        raise ConfigError("supply must be pressurized and have positive volume")
    if config.chamber is not None:
        config.chamber.validate()

    for side in ("ox", "fuel"):
        profile = getattr(config.schedule, side + "_inj")
        profile.validate(config.ambient_pressure)
        controller = config.controllers[side + "_inj"]
        if controller.locked_angle is None:
            headroom = config.tank_setpoint(side) - controller.feedforward.min_drop
            if profile.max_pressure() > headroom:
                raise InfeasibleThrottleError(
                    f"{side} injector profile peaks at {profile.max_pressure() / 1e5:.2f} bar, "
                    f"above the feasible {headroom / 1e5:.2f} bar"
                )

    if config.telemetry_decimation < 1:
        raise ConfigError("telemetry decimation must be >= 1")
    if config.noise_sigma < 0.0:
        raise ConfigError("sensor noise sigma must be nonnegative")


# ---------------------------------------------------------------------------
# YAML loading

_REQUIRED = object()


def _section(data: dict, key: str, default=_REQUIRED):
    if key not in data:
        if default is _REQUIRED:
            raise ConfigError(f"missing required scenario key {key!r}")
        return default
    return data[key]


def _parse_profile(raw: dict, label: str) -> ThrottleProfile:
    try:
        start = bar_to_pa(float(raw["start_bar"]))
        segments = tuple(
            ProfileSegment(
                target_pressure=bar_to_pa(float(seg["target_bar"])),
                hold_duration=float(seg.get("hold_s", 0.0)),
                ramp_rate=bar_to_pa(float(seg.get("ramp_rate_bar_s", 2.0))),
            )
            for seg in raw["segments"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {label} profile: {exc}") from exc
    return ThrottleProfile(start, segments)


def _parse_valve(raw: dict, name: str) -> ValveModel:
    alpha = raw.get("alpha_si_per_deg")
    if alpha is None:
        if "alpha_us_gpm_per_deg" not in raw:
            raise ConfigError(f"valve {name} needs alpha_si_per_deg or alpha_us_gpm_per_deg")
        alpha = float(raw["alpha_us_gpm_per_deg"]) * CV_US_GPM_TO_SI
    return ValveModel(
        alpha=float(alpha),
        theta_zero=float(raw.get("theta_zero_deg", 0.0)),
        rated_pressure=bar_to_pa(float(raw["rated_pressure_bar"])),
        choked_constant=float(raw.get("choked_constant", 0.0)),
    )


def _parse_gains(raw: dict, pressure_loop: bool) -> PidGains:
    # Primary gains are written in degrees per bar in scenario files.
    scale = 1.0 / bar_to_pa(1.0) if pressure_loop else 1.0
    return PidGains(
        kp=float(raw.get("kp", 0.0)) * scale,
        ki=float(raw.get("ki", 0.0)) * scale,
        kd=float(raw.get("kd", 0.0)) * scale,
    )


def scenario_from_dict(data: dict, name: str = "scenario") -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario file must contain a mapping")
    version = _section(data, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")

    mode = _section(data, "mode")
    timing = _section(data, "timing")
    ambient = bar_to_pa(float(data.get("ambient_pressure_bar", AMBIENT_PRESSURE / 1e5)))
    pressurant = data.get("pressurant", {})
    gas_constant = float(pressurant.get("specific_gas_constant", 296.8))
    gas_temperature = float(pressurant.get("temperature_k", 293.0))

    supply = _section(data, "supply")
    supply_volume = float(supply["volume_m3"])
    supply_pressure = bar_to_pa(float(supply["initial_pressure_bar"]))

    tanks = {}
    for side in ("ox", "fuel"):
        raw = _section(_section(data, "tanks"), side)
        tanks[side] = TankSettings(
            total_volume=float(raw["total_volume_m3"]),
            initial_ullage_fraction=float(raw["initial_ullage_fraction"]),
            liquid_density=float(raw["liquid_density_kg_m3"]),
            initial_pressure=bar_to_pa(float(raw["initial_pressure_bar"])),
        )

    lines = {}
    for side in ("ox", "fuel"):
        raw = _section(_section(data, "lines"), side)
        lines[side] = LineModel(
            friction_factor=float(raw["friction_factor"]),
            length=float(raw["length_m"]),
            diameter=float(raw["diameter_m"]),
        )

    valves = {}
    for name_ in EREG_NAMES:
        valves[name_] = _parse_valve(_section(_section(data, "valves"), name_), name_)

    chamber = None
    if data.get("chamber") is not None:
        raw = data["chamber"]
        chamber = ChamberModel(
            throat_area=float(raw["throat_area_m2"]),
            characteristic_velocity=float(raw["characteristic_velocity_m_s"]),
            thrust_coefficient=float(raw["thrust_coefficient"]),
            ambient_pressure=ambient,
        )

    nominal = _section(data, "nominal_flows")
    nominal_mdot = {"ox": float(nominal["ox_kg_s"]), "fuel": float(nominal["fuel_kg_s"])}

    setpoints_raw = _section(data, "setpoints")
    tank_bar = _section(setpoints_raw, "tank_bar")
    tank_setpoints = {
        "ox": bar_to_pa(float(tank_bar["ox"])),
        "fuel": bar_to_pa(float(tank_bar["fuel"])),
    }

    injector_raw = _section(data, "injector")
    injector_kind = injector_raw.get("kind", "hotfire")
    injectors = {}
    if injector_kind == "hotfire":
        for side in ("ox", "fuel"):
            raw = _section(injector_raw, side)
            injectors[side] = InjectorOrifice(cd=float(raw["cd"]), area=float(raw["area_m2"]))
    elif injector_kind == "mock":
        # Mock elements are sized at load so nominal pressures give nominal
        # flows when discharging to atmosphere.
        cd = float(injector_raw.get("cd", 0.7))
        for side in ("ox", "fuel"):
            upstream_bar = injector_raw.get("upstream_bar")
            upstream = (
                bar_to_pa(float(upstream_bar)) if upstream_bar is not None else tank_setpoints[side]
            )
            area = size_mock_injector(
                target_mdot=nominal_mdot[side],
                rho=tanks[side].liquid_density,
                upstream=upstream,
                downstream=ambient,
                cd=cd,
            )
            injectors[side] = InjectorOrifice(cd=cd, area=area)
    else:
        raise ConfigError(f"unknown injector kind {injector_kind!r}")

    # Controllers: per-regulator sections merged over shared defaults.
    controllers_raw = _section(data, "controllers")
    defaults = controllers_raw.get("defaults", {})
    actuators_raw = data.get("actuators", {})
    shared_actuator = ActuatorSettings(
        time_constant=float(actuators_raw.get("time_constant_s", 0.020)),
        rate_max=float(actuators_raw.get("rate_max_deg_s", 180.0)),
        backlash=float(actuators_raw.get("backlash_deg", 0.0)),
        encoder_counts_per_degree=float(actuators_raw.get("encoder_counts_per_degree", 0.0)),
    )

    controllers: dict[str, ControllerSettings] = {}
    actuators: dict[str, ActuatorSettings] = {}
    gamma_auto: list[str] = []
    for name_ in EREG_NAMES:
        raw = dict(defaults)
        raw.update(controllers_raw.get(name_, {}))
        side = name_.split("_")[0]
        kind = "tank" if name_ in TANK_EREGS else "injector"
        valve = valves[name_]
        ff_raw = raw.get("feedforward", {})
        locked = raw.get("locked_angle_deg")
        rho = tanks[side].liquid_density
        nominal_flow = float(ff_raw.get("nominal_flow_m3_s", nominal_mdot[side] / rho))
        gamma = ff_raw.get("gamma_deg", "auto")
        if kind == "tank" and gamma == "auto":
            gamma_auto.append(name_)
            gamma = 0.0  # resolved after the schedule is known
        ff = FeedforwardParams(
            gamma=float(gamma) if kind == "tank" else 0.0,
            nominal_flow=nominal_flow if kind == "injector" else 0.0,
            fluid_density=rho if kind == "injector" else 0.0,
            alpha=valve.alpha,
            theta_zero=valve.theta_zero,
            min_drop=bar_to_pa(float(ff_raw.get("min_drop_bar", 0.1))),
            drop_reference=ff_raw.get("drop_reference", "injector_setpoint"),
        )
        primary = _parse_gains(raw.get("primary", {}), pressure_loop=True)
        secondary = _parse_gains(raw.get("secondary", {"kp": 0.5, "ki": 1.0, "kd": 0.01}), False)
        controllers[name_] = ControllerSettings(
            primary_gains=primary,
            secondary_gains=secondary,
            ramp_time=float(raw.get("ramp_time_s", 4.0)),
            feedforward=ff,
            integral_limits=tuple(raw.get("integral_limits_deg", (-45.0, 45.0))),
            secondary_integral_limits=tuple(raw.get("secondary_integral_limits", (-0.5, 0.5))),
            locked_angle=float(locked) if locked is not None else None,
        )
        actuators[name_] = shared_actuator

    # Throttle: either thrust fractions paired to an OF target, or explicit
    # per-injector pressure profiles.
    throttle = _section(setpoints_raw, "throttle")
    throttle_kind = throttle.get("kind", "thrust_fraction")
    target_of = None
    half_config = ScenarioConfig(
        name=name,
        mode=mode,
        duration=float(_section(data, "duration_s")),
        dt_phys=float(timing["dt_phys_s"]),
        dt_secondary=float(timing["dt_secondary_s"]),
        dt_primary=float(timing["dt_primary_s"]),
        ambient_pressure=ambient,
        gas_constant=gas_constant,
        gas_temperature=gas_temperature,
        supply_volume=supply_volume,
        supply_pressure=supply_pressure,
        tanks=tanks,
        lines=lines,
        valves=valves,
        injectors=injectors,
        chamber=chamber,
        nominal_mdot=nominal_mdot,
        schedule=SetpointSchedule(
            tank_setpoints["ox"],
            tank_setpoints["fuel"],
            ThrottleProfile(tank_setpoints["ox"], (ProfileSegment(tank_setpoints["ox"], 0.0, 1.0),)),
            ThrottleProfile(tank_setpoints["fuel"], (ProfileSegment(tank_setpoints["fuel"], 0.0, 1.0),)),
        ),
        controllers=controllers,
        actuators=actuators,
    )

    if throttle_kind == "thrust_fraction":
        target_of = float(throttle.get("target_of", nominal_mdot["ox"] / nominal_mdot["fuel"]))
        start_ox, start_fuel = paired_setpoints_for_of(
            target_of, float(throttle["start_fraction"]), half_config
        )
        segs_ox, segs_fuel = [], []
        for seg in throttle["segments"]:
            s_ox, s_fuel = paired_setpoints_for_of(
                target_of, float(seg["target_fraction"]), half_config
            )
            rate = bar_to_pa(float(seg.get("ramp_rate_bar_s", 2.0)))
            hold = float(seg.get("hold_s", 0.0))
            segs_ox.append(ProfileSegment(s_ox, hold, rate))
            segs_fuel.append(ProfileSegment(s_fuel, hold, rate))
        ox_profile = ThrottleProfile(start_ox, tuple(segs_ox))
        fuel_profile = ThrottleProfile(start_fuel, tuple(segs_fuel))
    elif throttle_kind == "pressure":
        ox_profile = _parse_profile(_section(throttle, "ox"), "ox")
        fuel_profile = _parse_profile(_section(throttle, "fuel"), "fuel")
    else:
        raise ConfigError(f"unknown throttle kind {throttle_kind!r}")

    schedule = SetpointSchedule(
        tank_setpoints["ox"], tank_setpoints["fuel"], ox_profile, fuel_profile
    )

    sensors = data.get("sensors", {})
    options = data.get("options", {})
    metrics_raw = data.get("metrics", {})
    metrics = MetricsSettings(
        startup_window=float(metrics_raw.get("startup_window_s", 1.0)),
        early_window=float(metrics_raw.get("early_window_s", 2.0)),
        settle_threshold=bar_to_pa(float(metrics_raw.get("settle_threshold_bar", 0.5))),
        exclude_after_depletion=bool(metrics_raw.get("exclude_after_depletion", True)),
    )

    config = half_config.replace(
        schedule=schedule,
        variant=data.get("variant", "ff+dyn"),
        noise_sigma=bar_to_pa(float(sensors.get("noise_sigma_bar", 0.0))),
        noise_seed=int(sensors.get("seed", 0)),
        adiabatic_supply=bool(options.get("adiabatic_supply", False)),
        ullage_collapse_coeff=float(options.get("ullage_collapse_coeff", 0.0)),
        abort_pressure_factor=float(options.get("abort_pressure_factor", 1.10)),
        telemetry_decimation=int(data.get("telemetry", {}).get("decimation", 1)),
        metrics=metrics,
        target_of=target_of,
    )

    validate_config(config)

    # Resolve gamma = auto now that the config is valid (a locked angle is
    # within the valve travel) and the schedule, and with it the liquid
    # demand, is fixed: gamma maps a pressure ratio of one to the angle
    # that supplies the ullage exactly at the reference outflow. The
    # reference is the throttle start fraction, where the ullage is
    # smallest and feedforward accuracy matters most; the PID absorbs the
    # deficit later in the burn when the plant is far less sensitive.
    demand_scale = (
        float(throttle["start_fraction"]) if throttle_kind == "thrust_fraction" else 1.0
    )
    for name_ in gamma_auto:
        side = name_.split("_")[0]
        controller = config.controllers[side + "_inj"]
        if controller.locked_angle is not None:
            back = config.ambient_pressure
            q_nominal = steady_branch_flow(config, side, controller.locked_angle, back)
        else:
            q_nominal = demand_scale * nominal_mdot[side] / tanks[side].liquid_density
        valve = valves[name_]
        gamma = q_nominal / (gas_constant * gas_temperature * valve.choked_constant * valve.alpha)
        old = config.controllers[name_]
        config.controllers[name_] = dc_replace(
            old, feedforward=dc_replace(old.feedforward, gamma=gamma)
        )
    return config


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse scenario file {path}: {exc}") from exc
    return scenario_from_dict(data, name=path.stem)
