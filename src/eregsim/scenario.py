"""Declarative run descriptions: throttle profiles, plant constants and
configuration loading.

Scenario files are YAML with pressures in bar, times in seconds and
angles in degrees; everything is converted to SI at load. A
schema_version field is mandatory. Loading is a single pass: each key is
read in one place, checked there for what the file alone can get wrong,
and a key that nothing reads is rejected. The rules on the built values
belong to ScenarioConfig, which checks itself on construction and on
replace(). See docs/scenario_schema.md.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import NamedTuple

import yaml

from .control import (
    CONTROLLER_VARIANTS,
    ActuatorSettings,
    ControllerSettings,
    FeedforwardParams,
    PidGains,
)
from .errors import ConfigError, InfeasibleThrottleError
from .fluids import (
    AMBIENT_PRESSURE,
    DEFAULT_TEMPERATURE,
    FULL_TRAVEL,
    R_NITROGEN,
    ChamberModel,
    LineModel,
    ValveModel,
    branch_flow,
    chamber_state,
    cv_of_angle,
)

SCHEMA_VERSION = 1

SIDES = ("ox", "fuel")
EREG_NAMES = ("ox_tank", "fuel_tank", "ox_inj", "fuel_inj")
VARIANTS = CONTROLLER_VARIANTS + ("oracle",)

# Classical RK4 is stable on a decay m' = -c m while c * dt is at most -z for z
# the real root of 1 + z/2 + z^2/6 + z^3/24 (Hairer & Wanner, Solving ODEs II).
RK4_STABILITY_LIMIT = 2.785293563405282

# The longest run in the repo takes 30,000 physics steps. At some 30 us a
# step and 1.5 KB a frame, 1e7 steps take about 5 min and, at one frame per
# ten steps, about 1.5 GB of telemetry; a longer run is a typo, not a test.
MAX_STEPS = 10**7

# libyaml's parser where PyYAML was built with it: the same constructor and
# resolver as the pure-Python SafeLoader, so the same data, several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# ---------------------------------------------------------------------------
# Setpoint profiles


class ProfileSegment(NamedTuple):
    target_pressure: float  # Pa
    hold_duration: float  # s
    ramp_rate: float  # Pa/s


class ThrottleProfile(NamedTuple):
    """Piecewise ramp-then-hold setpoint trajectory.

    Starts at start_pressure, ramps to each segment target at that
    segment's rate, holds for its duration, and holds the final target for
    the remainder of the run. Continuous in time by construction.
    """

    start_pressure: float  # Pa
    segments: tuple[ProfileSegment, ...]

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


class SetpointSchedule(NamedTuple):
    """Constant tank setpoints plus one throttle profile per injector."""

    ox_tank: float  # Pa
    fuel_tank: float  # Pa
    ox_inj: ThrottleProfile
    fuel_inj: ThrottleProfile
    # setpoints.throttle.kind: "pressure" profiles are the file's own,
    # "thrust_fraction" ones are paired from fractions at load.
    throttle_kind: str = "thrust_fraction"


def setpoints_at(schedule: SetpointSchedule, t: float) -> tuple[float, float, float, float]:
    """Scheduled setpoints of the four regulators at time t, in EREG_NAMES order."""
    ox_inj, fuel_inj = schedule.ox_inj.value(t), schedule.fuel_inj.value(t)
    return schedule.ox_tank, schedule.fuel_tank, ox_inj, fuel_inj


# ---------------------------------------------------------------------------
# Operating-point helpers


class InjectorOrifice(NamedTuple):
    cd: float
    area: float  # m2

    @property
    def coeff(self) -> float:
        """c such that dp = c * rho * Q^2 for volumetric flow Q."""
        return 1.0 / (2.0 * (self.cd * self.area) ** 2)

    def inlet_pressure(self, mdot: float, rho: float, downstream: float) -> float:
        """Pressure upstream of the orifice that passes mdot into downstream."""
        return downstream + (mdot / (self.cd * self.area)) ** 2 / (2.0 * rho)


def size_mock_injector(
    target_mdot: float, rho: float, upstream: float, downstream: float, cd: float
) -> float:
    """Orifice area passing target_mdot from upstream to downstream pressure."""
    if not 0.0 < cd <= 1.0:
        raise ConfigError(f"discharge coefficient {cd} outside (0, 1]")
    dp = upstream - downstream
    if dp <= 0.0:
        raise InfeasibleThrottleError(f"mock injector sizing needs a positive pressure drop, got "
                                      f"{upstream / 1e5:g} bar to {downstream / 1e5:g} bar")
    if target_mdot <= 0.0 or rho <= 0.0:
        raise ConfigError("target flow and density must be positive")
    flux = cd * math.sqrt(2.0 * rho * dp)  # kg/(s m2)
    area = target_mdot / flux if flux > 0.0 else math.inf
    if not 0.0 < area < math.inf:
        raise ConfigError(f"mock injector area {area} m2 out of range (cd {cd}, drop {dp} Pa)")
    return area


# ---------------------------------------------------------------------------
# Scenario configuration


class TankSettings(NamedTuple):
    total_volume: float  # m3
    initial_ullage_fraction: float
    liquid_density: float  # kg/m3
    initial_pressure: float  # Pa


class MetricsSettings(NamedTuple):
    startup_window: float  # s excluded from error metrics
    early_window: float  # s over which oscillation amplitude is taken
    settle_threshold: float  # Pa


@dataclass(frozen=True)
class ScenarioConfig:
    """A run's plant, controllers and clock in SI units.

    Every instance, loaded or made by replace(), has passed the one check
    in __post_init__. The reader holds only what a file can get wrong on
    its own: missing, unknown and mistyped keys and single-key bounds.
    """

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
    actuator: ActuatorSettings  # shared by the four regulators
    variant: str  # one of VARIANTS
    noise_sigma: float  # Pa, per pressure sensor
    noise_seed: int
    ullage_collapse_coeff: float  # 1/s mass-sink on the ullages
    abort_pressure_factor: float
    metrics: MetricsSettings

    def __post_init__(self):
        """The rules on the stored values: a ConfigError names the YAML key and
        prints the value in that key's units."""
        for key, dt in (("dt_phys_s", self.dt_phys), ("dt_secondary_s", self.dt_secondary),
                        ("dt_primary_s", self.dt_primary)):
            checked_number(dt, f"timing.{key}", above=0.0)
        step_grid(self.duration, self.dt_phys, self.dt_secondary, self.dt_primary)
        ambient_bar = checked_number(self.ambient_pressure / 1e5, "ambient_pressure_bar",
                                     above=0.0)
        supply_bar = checked_number(self.supply_pressure / 1e5, "supply.initial_pressure_bar",
                                    above=ambient_bar)
        # Paired setpoints are derived at load: the chamber pressure (>= ambient) plus a drop.
        paired = self.schedule.throttle_kind != "pressure"
        bound = {"at_least" if paired else "above": ambient_bar}
        for side in SIDES:
            checked_number(self.tanks[side].initial_pressure / 1e5,
                           f"tanks.{side}.initial_pressure_bar", above=ambient_bar)
            profile = getattr(self.schedule, side + "_inj")
            key = f"paired {side} injector profile" if paired else f"setpoints.throttle.{side}"
            checked_number(profile.start_pressure / 1e5, f"{key}.start_bar", **bound)
            for i, segment in enumerate(profile.segments):
                checked_number(segment.target_pressure / 1e5, f"{key}.segments[{i}].target_bar",
                               **bound)
        for reg in EREG_NAMES:
            # The supply feeds the tank valves; each tank feeds its injector
            # valve, at the tank's start pressure and later at its setpoint.
            side, kind = reg.split("_")
            upstream = self.supply_pressure if kind == "tank" else max(
                self.tank_setpoint(side), self.tanks[side].initial_pressure)
            checked_number(self.valves[reg].rated_pressure / 1e5,
                           f"valves.{reg}.rated_pressure_bar", at_least=upstream / 1e5)
        for side in SIDES:
            settings = self.controllers[side + "_inj"]
            peak = getattr(self.schedule, side + "_inj").max_pressure()
            headroom = self.tank_setpoint(side) - settings.feedforward.min_drop
            if settings.locked_angle is None and peak > headroom:
                raise InfeasibleThrottleError(f"{side} injector profile peaks at {peak / 1e5:.2f} "
                                              f"bar, above the feasible {headroom / 1e5:.2f} bar")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {', '.join(VARIANTS)}, got {self.variant!r}")
        checked_number(self.noise_sigma / 1e5, "sensors.noise_sigma_bar", at_least=0.0,
                       at_most=supply_bar)
        if (isinstance(self.noise_seed, bool) or not isinstance(self.noise_seed, int)
                or self.noise_seed < 0):
            raise ConfigError(f"sensors.seed must be an integer >= 0, got {self.noise_seed!r}")
        checked_number(self.ullage_collapse_coeff, "options.ullage_collapse_coeff", at_least=0.0,
                       at_most=RK4_STABILITY_LIMIT / self.dt_phys)
        checked_number(self.abort_pressure_factor, "options.abort_pressure_factor", above=0.0)
        plant_start(self)

    def tank_setpoint(self, side: str) -> float:
        return self.schedule.ox_tank if side == "ox" else self.schedule.fuel_tank

    def replace(self, **kwargs) -> "ScenarioConfig":
        """This config with the given fields changed, checked as a loaded one is."""
        return dc_replace(self, **kwargs)


def paired_setpoints_for_of(
    target_of: float,
    thrust_fraction: float,
    nominal_mdot: dict[str, float],
    tanks: dict[str, TankSettings],
    injectors: dict[str, InjectorOrifice],
    chamber: ChamberModel | None,
    ambient: float,
) -> tuple[float, float]:
    """Injector setpoints that hit the OF target at a thrust fraction.

    Inverts the injector orifice law at the mass flows implied by the
    fraction of the nominal operating point, against the chamber pressure
    those flows give (ambient without a chamber). Whether the tanks can
    drive these setpoints is a ScenarioConfig rule.
    """
    if not 0.0 < thrust_fraction <= 1.0:
        raise InfeasibleThrottleError(f"thrust fraction {thrust_fraction} outside (0, 1]")
    if target_of <= 0.0:
        raise ConfigError("target OF must be positive")
    mdot_total = thrust_fraction * (nominal_mdot["ox"] + nominal_mdot["fuel"])
    mdot_ox = mdot_total * target_of / (1.0 + target_of)
    mdot_fuel = mdot_total / (1.0 + target_of)
    pc = ambient if chamber is None else chamber_state(mdot_total, chamber, ambient)[0]
    return (
        injectors["ox"].inlet_pressure(mdot_ox, tanks["ox"].liquid_density, pc),
        injectors["fuel"].inlet_pressure(mdot_fuel, tanks["fuel"].liquid_density, pc),
    )


# ---------------------------------------------------------------------------
# YAML loading

_REQUIRED = object()

_BOUNDS = (
    ("above", operator.gt),
    ("at least", operator.ge),
    ("below", operator.lt),
    ("at most", operator.le),
)


def checked_number(value, key: str, *, above=None, at_least=None, below=None,
                   at_most=None) -> float:
    """value as a finite float within the given bounds; errors name it key.

    Strings count because PyYAML reads 1e-3 as one.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    for (text, holds), bound in zip(_BOUNDS, (above, at_least, below, at_most)):
        if bound is not None and not holds(number, bound):
            raise ConfigError(f"{key} must be {text} {bound:g}, got {value!r}")
    return number


def _in_range(path: str, what: str, derive):
    """derive(), a plant constant (or a tuple of them) built from the keys at
    path, if it is finite."""
    try:
        value = derive()
    except ArithmeticError:
        value = math.inf
    if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
        raise ConfigError(f"{path}: {what} out of floating-point range")
    return value


def step_grid(duration: float, dt_phys: float, dt_secondary: float,
              dt_primary: float) -> tuple[int, int, int]:
    """The run's physics steps and the steps per secondary and per primary tick.

    Tick periods must nest evenly or the loop loses determinism, and the
    run must take at least one and at most MAX_STEPS steps: a ConfigError
    naming the timing keys or duration_s.
    """
    for label, fast, slow in (
        ("dt_secondary_s/dt_phys_s", dt_phys, dt_secondary),
        ("dt_primary_s/dt_secondary_s", dt_secondary, dt_primary),
    ):
        ratio = slow / fast
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(f"tick periods must divide evenly: timing.{label} = {ratio}")
    steps = duration / dt_phys
    if not math.isfinite(steps) or not 1 <= round(steps) <= MAX_STEPS:
        raise ConfigError(f"duration_s = {duration} must span at least one and at most "
                          f"{MAX_STEPS} physics steps of timing.dt_phys_s = {dt_phys}")
    return round(steps), round(dt_secondary / dt_phys), round(dt_primary / dt_phys)


def plant_start(config: ScenarioConfig) -> tuple[float, float, list, list, list]:
    """The start state from p V = m R T: R * T, the supply gas mass, and the
    liquid volumes, ullage volumes and ullage gas masses indexed like SIDES.

    A gas mass or a liquid volume below the normal floats (a zero ullage
    gives 0) has lost the digits the model needs: a ConfigError naming
    supply or tanks.<side>.
    """
    rt = config.gas_constant * config.gas_temperature
    tanks = [config.tanks[side] for side in SIDES]
    liquid = [t.total_volume * (1.0 - t.initial_ullage_fraction) for t in tanks]
    for side, volume in zip(SIDES, liquid):
        if volume < sys.float_info.min:
            raise ConfigError(f"tanks.{side}: initial liquid volume {volume:.3g} m3 is below "
                              f"the normal floats")
    ullage = [t.total_volume - v for t, v in zip(tanks, liquid)]
    masses = []
    paths = ("supply", *(f"tanks.{side}" for side in SIDES))
    pressures = (config.supply_pressure, *(t.initial_pressure for t in tanks))
    for path, pressure, volume in zip(paths, pressures, (config.supply_volume, *ullage)):
        mass = _in_range(path, "initial gas mass", lambda: pressure * volume / rt)
        if mass < sys.float_info.min:
            raise ConfigError(f"{path}: initial gas mass {mass:.3g} kg is below the normal floats")
        masses.append(mass)
    return rt, masses[0], liquid, ullage, masses[1:]


class _Section:
    """One mapping of a scenario file, read key by key.

    Each reader checks the value it returns and names the full key path
    when the value is missing or bad. A missing or null key takes the
    reader's default; a section given `defaults` (a regulator under
    controllers.defaults) first falls back to that section. check_unread
    rejects the keys nothing read, here and in every section read from here.
    """

    def __init__(self, data, path: str, defaults: _Section | None = None):
        if not isinstance(data, dict):
            raise ConfigError(
                f"{path or 'scenario file'} must be a mapping, got {type(data).__name__}"
            )
        self._data = data
        self._path = path
        self._defaults = defaults
        self._read: set = set()
        self._sections: dict[str, _Section | None] = {}

    def _key(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def lookup(self, key: str, default):
        """(value, key path); the value comes from here, the defaults section or default."""
        self._read.add(key)
        value = self._data.get(key)
        if self._defaults is not None:
            inherited = self._defaults.lookup(key, default)  # marks the key read there too
            if value is None:
                return inherited
        if value is not None:
            return value, self._key(key)
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {self._key(key)}")
        return default, self._key(key)

    def number(self, key: str, default=_REQUIRED, **bounds) -> float:
        value, path = self.lookup(key, default)
        return value if value is default else checked_number(value, path, **bounds)

    def choice(self, key: str, options: tuple, default=_REQUIRED):
        value, path = self.lookup(key, default)
        if value not in options:
            raise ConfigError(
                f"{path} must be one of {', '.join(map(str, options))}, got {value!r}"
            )
        return value

    def limits(self, key: str, default: tuple[float, float]) -> tuple[float, float]:
        """A [lo, hi] pair with lo <= hi."""
        value, path = self.lookup(key, default)
        if value is default:
            return value
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{path} must be a [lo, hi] pair, got {value!r}")
        lo, hi = (checked_number(v, f"{path}[{i}]") for i, v in enumerate(value))
        if lo > hi:
            raise ConfigError(f"{path} must have lo <= hi, got {value!r}")
        return lo, hi

    def section(self, key: str, default=_REQUIRED, defaults: _Section | None = None):
        """The mapping under key; None when the default is None and it is not given."""
        if self._defaults is not None and self._data.get(key) is None:
            self._read.add(key)
            return self._defaults.section(key, default)  # one section for every regulator
        if key not in self._sections:
            value, path = self.lookup(key, default)
            self._sections[key] = None if value is None else _Section(value, path, defaults)
        return self._sections[key]

    def sections(self, key: str) -> list[_Section]:
        """The non-empty list of mappings under key."""
        value, path = self.lookup(key, _REQUIRED)
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list, got {value!r}")
        items = []
        for i, item in enumerate(value):
            items.append(_Section(item, f"{path}[{i}]"))
            self._sections[f"{key}[{i}]"] = items[-1]
        return items

    def check_unread(self) -> None:
        unread = [self._key(str(k)) for k in self._data if k not in self._read]
        if unread:
            raise ConfigError(f"unknown scenario key{'s' if len(unread) > 1 else ''}: "
                              f"{', '.join(unread)}")
        for section in self._sections.values():
            if section is not None:
                section.check_unread()


def scenario_from_dict(data: dict) -> ScenarioConfig:
    root = _Section(data, "")
    root.choice("schema_version", (SCHEMA_VERSION,))
    ambient = root.number("ambient_pressure_bar", AMBIENT_PRESSURE / 1e5, above=0.0) * 1e5
    pressurant = root.section("pressurant", {})
    gas_constant = pressurant.number("specific_gas_constant", R_NITROGEN, above=0.0)
    gas_temperature = pressurant.number("temperature_k", DEFAULT_TEMPERATURE, above=0.0)

    tanks, lines = {}, {}
    for side in SIDES:
        tank = root.section("tanks").section(side)
        tanks[side] = TankSettings(
            total_volume=tank.number("total_volume_m3", above=0.0),
            initial_ullage_fraction=tank.number("initial_ullage_fraction", above=0.0, below=1.0),
            liquid_density=tank.number("liquid_density_kg_m3", above=0.0),
            initial_pressure=tank.number("initial_pressure_bar") * 1e5,
        )
        line = root.section("lines").section(side)
        lines[side] = LineModel(
            friction_factor=line.number("friction_factor", above=0.0),
            length=line.number("length_m", at_least=0.0),
            diameter=line.number("diameter_m", above=0.0),
        )
        _in_range(f"lines.{side}", "loss coefficient", lambda: lines[side].loss_coefficient)

    chamber = None
    raw_chamber = root.section("chamber", None)
    if raw_chamber is not None:
        chamber = ChamberModel(
            throat_area=raw_chamber.number("throat_area_m2", above=0.0),
            characteristic_velocity=raw_chamber.number("characteristic_velocity_m_s", above=0.0),
            thrust_coefficient=raw_chamber.number("thrust_coefficient", above=0.0),
        )
        _in_range("chamber", "c*/At", lambda: chamber.characteristic_velocity / chamber.throat_area)

    nominal = root.section("nominal_flows")
    nominal_mdot = {side: nominal.number(f"{side}_kg_s", above=0.0) for side in SIDES}

    setpoints = root.section("setpoints")
    tank_bar = setpoints.section("tank_bar")
    tank_setpoints = {side: tank_bar.number(side, above=0.0) * 1e5 for side in SIDES}

    injector = root.section("injector")
    injectors = {}
    if injector.choice("kind", ("hotfire", "mock"), "hotfire") == "hotfire":
        for side in SIDES:
            orifice = injector.section(side)
            injectors[side] = InjectorOrifice(
                cd=orifice.number("cd", above=0.0, at_most=1.0),
                area=orifice.number("area_m2", above=0.0),
            )
    else:
        # Mock elements are sized at load so nominal pressures give nominal
        # flows when discharging to atmosphere.
        cd = injector.number("cd", 0.7, above=0.0, at_most=1.0)
        upstream_bar = injector.number("upstream_bar", None)
        for side in SIDES:
            upstream = upstream_bar * 1e5 if upstream_bar is not None else tank_setpoints[side]
            area = size_mock_injector(
                target_mdot=nominal_mdot[side],
                rho=tanks[side].liquid_density,
                upstream=upstream,
                downstream=ambient,
                cd=cd,
            )
            injectors[side] = InjectorOrifice(cd=cd, area=area)
    for side in SIDES:
        _in_range(f"injector.{side}", "orifice coefficient", lambda: injectors[side].coeff)

    valves = {}
    for reg in EREG_NAMES:
        valve = root.section("valves").section(reg)
        gas = reg.endswith("_tank")  # the choked flow law of a gas valve needs k
        valves[reg] = ValveModel(
            alpha=valve.number("alpha_si_per_deg", above=0.0),
            theta_zero=valve.number("theta_zero_deg", 0.0, at_least=0.0, below=FULL_TRAVEL),
            rated_pressure=valve.number("rated_pressure_bar") * 1e5,
            choked_constant=valve.number("choked_constant", above=0.0) if gas else 0.0,
        )
        _in_range(f"valves.{reg}", "Cv^2", lambda: cv_of_angle(valves[reg], FULL_TRAVEL) ** 2)

    raw_actuators = root.section("actuators", {})
    actuator = ActuatorSettings(
        time_constant=raw_actuators.number("time_constant_s", 0.020, above=0.0),
        rate_max=raw_actuators.number("rate_max_deg_s", 180.0, above=0.0),
        backlash=raw_actuators.number("backlash_deg", 0.0, at_least=0.0),
        encoder_counts_per_degree=raw_actuators.number(
            "encoder_counts_per_degree", 0.0, at_least=0.0
        ),
    )

    # Throttle: either thrust fractions paired to an OF target, or explicit
    # per-injector pressure profiles.
    throttle = setpoints.section("throttle")
    profiles = {}
    throttle_kind = throttle.choice("kind", ("thrust_fraction", "pressure"), "thrust_fraction")
    if throttle_kind == "pressure":
        demand_scale = 1.0
        for side in SIDES:
            raw = throttle.section(side)
            start = raw.number("start_bar") * 1e5
            segments = tuple(
                ProfileSegment(
                    target_pressure=seg.number("target_bar") * 1e5,
                    hold_duration=seg.number("hold_s", 0.0, at_least=0.0),
                    ramp_rate=seg.number("ramp_rate_bar_s", 2.0, above=0.0) * 1e5,
                )
                for seg in raw.sections("segments")
            )
            profiles[side] = ThrottleProfile(start, segments)
    else:
        target_of = throttle.number(
            "target_of", nominal_mdot["ox"] / nominal_mdot["fuel"], above=0.0
        )

        def paired(fraction: float) -> tuple[float, float]:
            return _in_range("setpoints.throttle", "paired injector setpoints", lambda: (
                paired_setpoints_for_of(target_of, fraction, nominal_mdot, tanks, injectors,
                                        chamber, ambient)
            ))

        demand_scale = throttle.number("start_fraction", above=0.0, at_most=1.0)
        starts = paired(demand_scale)
        segments = []
        for seg in throttle.sections("segments"):
            targets = paired(seg.number("target_fraction", above=0.0, at_most=1.0))
            rate = seg.number("ramp_rate_bar_s", 2.0, above=0.0) * 1e5
            hold = seg.number("hold_s", 0.0, at_least=0.0)
            segments.append([ProfileSegment(target, hold, rate) for target in targets])
        for i, side in enumerate(SIDES):
            profiles[side] = ThrottleProfile(starts[i], tuple(pair[i] for pair in segments))

    # Regulators read their own section merged over controllers.defaults.
    # Injectors come first: gamma_deg: auto on a tank regulator depends on
    # whether the injector on its side is locked.
    raw_controllers = root.section("controllers")
    defaults = raw_controllers.section("defaults", {})
    controllers = {}
    for reg in reversed(EREG_NAMES):
        raw = raw_controllers.section(reg, {}, defaults=defaults)
        side, kind = reg.split("_")
        valve = valves[reg]
        rho = tanks[side].liquid_density
        raw_ff = raw.section("feedforward", {})
        if kind == "tank":
            gamma, path = raw_ff.lookup("gamma_deg", "auto")
            if gamma != "auto":
                gamma = checked_number(gamma, path)
            else:
                # gamma maps a pressure ratio of one to the angle that
                # supplies the ullage exactly at the reference outflow: the
                # locked injector's steady flow to ambient, or the nominal
                # flow at the throttle start fraction, where the ullage is
                # smallest and feedforward accuracy matters most; the PID
                # absorbs the deficit later in the burn when the plant is
                # far less sensitive.
                locked = controllers[side + "_inj"].locked_angle
                if locked is not None:
                    q_nominal, _ = branch_flow(
                        tank_setpoints[side],
                        ambient,
                        rho,
                        cv_of_angle(valves[side + "_inj"], locked),
                        lines[side].loss_coefficient,
                        injectors[side].coeff,
                    )
                else:
                    q_nominal = demand_scale * nominal_mdot[side] / rho
                gamma = _in_range(f"controllers.{reg}", "auto gamma_deg", lambda: q_nominal / (
                    gas_constant * gas_temperature * valve.choked_constant * valve.alpha
                ))
            feedforward = FeedforwardParams(
                gamma=gamma, alpha=valve.alpha, theta_zero=valve.theta_zero
            )
        else:
            feedforward = FeedforwardParams(
                nominal_flow=raw_ff.number(
                    "nominal_flow_m3_s", nominal_mdot[side] / rho, above=0.0
                ),
                fluid_density=rho,
                alpha=valve.alpha,
                theta_zero=valve.theta_zero,
                min_drop=raw_ff.number("min_drop_bar", 0.1, at_least=0.0) * 1e5,
            )
        # Primary gains are written in degrees per bar in scenario files.
        primary = raw.section("primary", {})
        scale = 1.0 / 1e5
        secondary = raw.section("secondary", {"kp": 0.5, "ki": 1.0, "kd": 0.01})
        controllers[reg] = ControllerSettings(
            primary_gains=PidGains(
                *(primary.number(k, 0.0, at_least=0.0) * scale for k in ("kp", "ki", "kd"))
            ),
            secondary_gains=PidGains(
                *(secondary.number(k, 0.0, at_least=0.0) for k in ("kp", "ki", "kd"))
            ),
            ramp_time=raw.number("ramp_time_s", 4.0, above=0.0),
            feedforward=feedforward,
            integral_limits=raw.limits("integral_limits_deg", (-45.0, 45.0)),
            secondary_integral_limits=raw.limits("secondary_integral_limits", (-0.5, 0.5)),
            locked_angle=raw.number("locked_angle_deg", None, at_least=0.0, at_most=FULL_TRAVEL),
        )

    timing = root.section("timing")
    supply = root.section("supply")
    sensors = root.section("sensors", {})
    options = root.section("options", {})
    metrics = root.section("metrics", {})
    config = ScenarioConfig(
        duration=root.number("duration_s"),
        dt_phys=timing.number("dt_phys_s"),
        dt_secondary=timing.number("dt_secondary_s"),
        dt_primary=timing.number("dt_primary_s"),
        ambient_pressure=ambient,
        gas_constant=gas_constant,
        gas_temperature=gas_temperature,
        supply_volume=supply.number("volume_m3", above=0.0),
        supply_pressure=supply.number("initial_pressure_bar") * 1e5,
        tanks=tanks,
        lines=lines,
        valves=valves,
        injectors=injectors,
        chamber=chamber,
        nominal_mdot=nominal_mdot,
        schedule=SetpointSchedule(
            tank_setpoints["ox"], tank_setpoints["fuel"], profiles["ox"], profiles["fuel"],
            throttle_kind,
        ),
        controllers={reg: controllers[reg] for reg in EREG_NAMES},
        actuator=actuator,
        variant=root.lookup("variant", "ff+dyn")[0],
        noise_sigma=sensors.number("noise_sigma_bar", 0.0) * 1e5,
        noise_seed=sensors.lookup("seed", 0)[0],
        ullage_collapse_coeff=options.number("ullage_collapse_coeff", 0.0),
        abort_pressure_factor=options.number("abort_pressure_factor", 1.10),
        metrics=MetricsSettings(
            startup_window=metrics.number("startup_window_s", 1.0, at_least=0.0),
            early_window=metrics.number("early_window_s", 2.0, at_least=0.0),
            settle_threshold=metrics.number("settle_threshold_bar", 0.5, at_least=0.0) * 1e5,
        ),
    )
    root.check_unread()
    return config


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse scenario file {path}: {exc}") from exc
    return scenario_from_dict(data)
