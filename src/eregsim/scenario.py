"""Declarative run descriptions: throttle profiles, plant constants and
configuration loading.

Scenario files are YAML with pressures in bar, times in seconds and
angles in degrees; everything is converted to SI at load. A schema_version
field is mandatory. Loading is a single pass that reads and checks each key
once and rejects a key nothing reads. ScenarioConfig holds every field it
stores, each record to its key table, and the rules across keys, on
construction and on replace(). See docs/scenario_schema.md.
"""

import functools
import math
import operator
import sys
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


class _ScenarioFields(NamedTuple):
    """ScenarioConfig's fields: a typing.NamedTuple may not define the
    __new__ that checks them."""

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
    schedule: SetpointSchedule
    controllers: dict[str, ControllerSettings]
    actuator: ActuatorSettings  # shared by the four regulators
    variant: str  # one of VARIANTS
    noise_sigma: float  # Pa, per pressure sensor
    noise_seed: int
    ullage_collapse_coeff: float  # 1/s mass-sink on the ullages
    abort_pressure_factor: float
    metrics: MetricsSettings


class ScenarioConfig(_ScenarioFields):
    """A run's plant, controllers and clock in SI units.

    Every instance has passed the one check in __new__: a direct call,
    replace(), _replace(), _make(), copy, deepcopy and pickle all build
    through __new__, which holds each record to its key table, as the
    reader does, and keeps the rules across keys.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        """The config of these fields if it keeps the rules on the stored
        values: else a ConfigError that names the YAML key and prints the
        value in that key's units."""
        self = super().__new__(cls, *args, **kwargs)
        bar = functools.partial(stored_number, factor=1e5)  # a pressure in Pa, named per bar
        for k, v in {"timing.dt_phys_s": self.dt_phys, "timing.dt_secondary_s": self.dt_secondary,
                     "timing.dt_primary_s": self.dt_primary, "supply.volume_m3": self.supply_volume,
                     "pressurant.specific_gas_constant": self.gas_constant,
                     "pressurant.temperature_k": self.gas_temperature}.items():
            stored_number(v, k, above=0.0)
        step_grid(stored_number(self.duration, "duration_s"), self.dt_phys, self.dt_secondary,
                  self.dt_primary)
        ambient_bar = bar(self.ambient_pressure, "ambient_pressure_bar", above=0.0)
        supply_bar = bar(self.supply_pressure, "supply.initial_pressure_bar", above=ambient_bar)
        for side in SIDES:
            tank = held(self.tanks[side], _TANK, f"tanks.{side}")
            held(self.lines[side], _LINE, f"lines.{side}")
            held(self.injectors[side], _ORIFICE, f"injector.{side}")
            bar(tank.initial_pressure, f"tanks.{side}.initial_pressure_bar", above=ambient_bar)
            # One rule on the schedule, whichever kind of throttle the file wrote.
            bar(self.tank_setpoint(side), f"setpoints.tank_bar.{side}", above=ambient_bar)
            profile, key = getattr(self.schedule, side + "_inj"), f"setpoints.throttle.{side}"
            bar(profile.start_pressure, f"{key}.start_bar", above=ambient_bar)
            for i, segment in enumerate(profile.segments):
                bar(segment.target_pressure, f"{key}.segments[{i}].target_bar", above=ambient_bar)
                bar(segment.ramp_rate, f"{key}.segments[{i}].ramp_rate_bar_s", above=0.0)
                stored_number(segment.hold_duration, f"{key}.segments[{i}].hold_s", at_least=0.0)
        if self.chamber is not None:
            held(self.chamber, _CHAMBER, "chamber")
        held(self.actuator, _ACTUATORS, "actuators")
        for reg in EREG_NAMES:
            # The supply feeds the tank valves; each tank feeds its injector
            # valve, at the tank's start pressure and later at its setpoint.
            side, kind = reg.split("_")
            valve, key = self.valves[reg], f"valves.{reg}"
            held(valve, _GAS_VALVE if kind == "tank" else _LIQUID_VALVE, key)
            upstream = self.supply_pressure if kind == "tank" else max(
                self.tank_setpoint(side), self.tanks[side].initial_pressure)
            bar(valve.rated_pressure, f"{key}.rated_pressure_bar", at_least=upstream / 1e5)
            settings, key = self.controllers[reg], f"controllers.{reg}"
            stored_number(settings.ramp_time, f"{key}.ramp_time_s", above=0.0)
            checked_limits(settings.integral_limits, f"{key}.integral_limits_deg", stored_number)
            checked_limits(settings.secondary_integral_limits, f"{key}.secondary_integral_limits",
                           stored_number)
            if settings.locked_angle is not None:
                stored_number(settings.locked_angle, f"{key}.locked_angle_deg", at_least=0.0,
                              at_most=FULL_TRAVEL)
            held(settings.primary_gains, _PRIMARY, f"{key}.primary")
            held(settings.secondary_gains, _SECONDARY, f"{key}.secondary")
            if kind == "tank":
                stored_number(settings.feedforward.gamma, f"{key}.feedforward.gamma_deg")
                continue
            ff = settings.feedforward
            stored_number(ff.nominal_flow, f"{key}.feedforward.nominal_flow_m3_s", above=0.0)
            bar(ff.min_drop, f"{key}.feedforward.min_drop_bar", at_least=0.0)
            peak = getattr(self.schedule, reg).max_pressure()
            headroom = self.tank_setpoint(side) - ff.min_drop
            if settings.locked_angle is None and peak > headroom:
                raise InfeasibleThrottleError(f"{side} injector profile peaks at {peak / 1e5:.2f} "
                                              f"bar, above the feasible {headroom / 1e5:.2f} bar")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {', '.join(VARIANTS)}, got {self.variant!r}")
        bar(self.noise_sigma, "sensors.noise_sigma_bar", at_least=0.0, at_most=supply_bar)
        if (isinstance(self.noise_seed, bool) or not isinstance(self.noise_seed, int)
                or self.noise_seed < 0):
            raise ConfigError(f"sensors.seed must be an integer >= 0, got {self.noise_seed!r}")
        stored_number(self.ullage_collapse_coeff, "options.ullage_collapse_coeff", at_least=0.0,
                      at_most=RK4_STABILITY_LIMIT / self.dt_phys)
        stored_number(self.abort_pressure_factor, "options.abort_pressure_factor", above=0.0)
        held(self.metrics, _METRICS, "metrics")
        plant_start(self)
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through it
        return cls(*iterable)

    def __reduce__(self):  # copy and every pickle protocol build through __new__
        return type(self), tuple(self)

    def tank_setpoint(self, side: str) -> float:
        return self.schedule.ox_tank if side == "ox" else self.schedule.fuel_tank

    def replace(self, **kwargs) -> "ScenarioConfig":
        """This config with the given fields changed, held to the config's own rules."""
        unknown = kwargs.keys() - self._fields
        if unknown:
            raise TypeError(f"ScenarioConfig has no field {', '.join(sorted(unknown))}")
        return self._replace(**kwargs)


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
    except OverflowError:  # an int past the largest float
        number = math.inf
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    for (text, holds), bound in zip(_BOUNDS, (above, at_least, below, at_most)):
        if bound is not None and not holds(number, bound):
            raise ConfigError(f"{key} must be {text} {bound:g}, got {value!r}")
    return number


def stored_number(value, key: str, factor: float = 1.0, **bounds) -> float:
    """value / factor, a stored value in its YAML key's units, checked like
    checked_number; but a config keeps numbers, so a string is refused."""
    if isinstance(value, str):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if factor != 1.0:  # a float first: 10**400 / 1e5 overflows
        value = checked_number(value, key) / factor
    return checked_number(value, key, **bounds)


def checked_limits(value, key: str, number=checked_number) -> tuple[float, float]:
    """value as a [lo, hi] pair checked by number, with lo <= hi; errors name it key."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{key} must be a [lo, hi] pair, got {value!r}")
    lo, hi = (number(v, f"{key}[{i}]") for i, v in enumerate(value))
    if lo > hi:
        raise ConfigError(f"{key} must have lo <= hi, got {value!r}")
    return lo, hi


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


# Each record read from one section of a scenario file, as (type, derived plant constant
# or None, keys in field order): the constant is a name and a function of the record, and
# a key is (YAML key, factor to SI, default, bounds in its units). See held().
_TANK = (TankSettings, None, (
    ("total_volume_m3", 1.0, _REQUIRED, {"above": 0.0}),
    ("initial_ullage_fraction", 1.0, _REQUIRED, {"above": 0.0, "below": 1.0}),
    ("liquid_density_kg_m3", 1.0, _REQUIRED, {"above": 0.0}),
    ("initial_pressure_bar", 1e5, _REQUIRED, {}),  # above ambient: a rule across keys
))
_LINE = (LineModel, ("loss coefficient", operator.attrgetter("loss_coefficient")), (
    ("friction_factor", 1.0, _REQUIRED, {"above": 0.0}),
    ("length_m", 1.0, _REQUIRED, {"at_least": 0.0}),
    ("diameter_m", 1.0, _REQUIRED, {"above": 0.0}),
))
_CHAMBER = (ChamberModel, ("c*/At", lambda c: c.characteristic_velocity / c.throat_area), (
    ("throat_area_m2", 1.0, _REQUIRED, {"above": 0.0}),
    ("characteristic_velocity_m_s", 1.0, _REQUIRED, {"above": 0.0}),
    ("thrust_coefficient", 1.0, _REQUIRED, {"above": 0.0}),
))
_ORIFICE = (InjectorOrifice, ("orifice coefficient", operator.attrgetter("coeff")), (
    ("cd", 1.0, _REQUIRED, {"above": 0.0, "at_most": 1.0}),
    ("area_m2", 1.0, _REQUIRED, {"above": 0.0}),
))
_GAS_VALVE = (ValveModel, ("Cv^2", lambda valve: cv_of_angle(valve, FULL_TRAVEL) ** 2), (
    ("alpha_si_per_deg", 1.0, _REQUIRED, {"above": 0.0}),
    ("theta_zero_deg", 1.0, 0.0, {"at_least": 0.0, "below": FULL_TRAVEL}),
    ("rated_pressure_bar", 1e5, _REQUIRED, {}),  # at least the upstream: a rule across keys
    ("choked_constant", 1.0, _REQUIRED, {"above": 0.0}),  # the gas valve's choked flow law
))
_LIQUID_VALVE = (*_GAS_VALVE[:2], _GAS_VALVE[2][:3])  # reads no choked_constant
_ACTUATORS = (ActuatorSettings, None, (
    ("time_constant_s", 1.0, 0.020, {"above": 0.0}),
    ("rate_max_deg_s", 1.0, 180.0, {"above": 0.0}),
    ("backlash_deg", 1.0, 0.0, {"at_least": 0.0}),
    ("encoder_counts_per_degree", 1.0, 0.0, {"at_least": 0.0}),
))
# Primary gains are written in degrees per bar in scenario files, and stored per Pa.
_PRIMARY = (PidGains, None, tuple((k, 1.0 / 1e5, 0.0, {"at_least": 0.0}) for k in PidGains._fields))
_SECONDARY = (PidGains, None, tuple((k, 1.0, 0.0, {"at_least": 0.0}) for k in PidGains._fields))
_METRICS = (MetricsSettings, None, (
    ("startup_window_s", 1.0, 1.0, {"at_least": 0.0}),
    ("early_window_s", 1.0, 2.0, {"at_least": 0.0}),
    ("settle_threshold_bar", 1e5, 0.5, {"at_least": 0.0}),
))


def held(record, table: tuple, path: str):
    """record if it is of the table's type, each field keeps the table's bounds in its
    YAML key's units and the derived constant is finite; else a ConfigError naming the key."""
    build, derived, keys = table
    if not isinstance(record, build):
        raise ConfigError(f"{path} must be a record of type {build.__name__}, got {record!r}")
    for value, (key, factor, _, bounds) in zip(record, keys):
        stored_number(value, f"{path}.{key}", factor, **bounds)
    if derived is not None:
        _in_range(path, derived[0], lambda: derived[1](record))
    return record


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

    def __init__(self, data, path: str, defaults: "_Section | None" = None):
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

    def record(self, table: tuple):
        """The table's record of this section's keys, each read once within its bounds."""
        build, derived, keys = table
        record = build(*(self.number(key, default, **bounds) * factor
                         for key, factor, default, bounds in keys))
        if derived is not None:
            _in_range(self._path, derived[0], lambda: derived[1](record))
        return record

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
        return value if value is default else checked_limits(value, path)

    def section(self, key: str, default=_REQUIRED, defaults: "_Section | None" = None):
        """The mapping under key; None when the default is None and it is not given."""
        if self._defaults is not None and self._data.get(key) is None:
            self._read.add(key)
            return self._defaults.section(key, default)  # one section for every regulator
        if key not in self._sections:
            value, path = self.lookup(key, default)
            self._sections[key] = None if value is None else _Section(value, path, defaults)
        return self._sections[key]

    def sections(self, key: str) -> "list[_Section]":
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

    tanks = {side: root.section("tanks").section(side).record(_TANK) for side in SIDES}
    lines = {side: root.section("lines").section(side).record(_LINE) for side in SIDES}
    raw_chamber = root.section("chamber", None)
    chamber = None if raw_chamber is None else raw_chamber.record(_CHAMBER)

    nominal = root.section("nominal_flows")
    nominal_mdot = {side: nominal.number(f"{side}_kg_s", above=0.0) for side in SIDES}

    setpoints = root.section("setpoints")
    tank_bar = setpoints.section("tank_bar")
    tank_setpoints = {side: tank_bar.number(side, above=0.0) * 1e5 for side in SIDES}

    injector = root.section("injector")
    if injector.choice("kind", ("hotfire", "mock"), "hotfire") == "hotfire":
        injectors = {side: injector.section(side).record(_ORIFICE) for side in SIDES}
    else:
        injectors = {}
        # Mock elements are sized at load so nominal pressures give nominal
        # flows when discharging to atmosphere, so the key that sets the
        # upstream pressure must put it above ambient.
        cd = injector.number("cd", 0.7, above=0.0, at_most=1.0)
        upstream_bar = injector.number("upstream_bar", None, above=ambient / 1e5)
        for side in SIDES:
            upstream = (upstream_bar if upstream_bar is not None
                        else tank_bar.number(side, above=ambient / 1e5)) * 1e5
            area = size_mock_injector(
                target_mdot=nominal_mdot[side],
                rho=tanks[side].liquid_density,
                upstream=upstream,
                downstream=ambient,
                cd=cd,
            )
            injectors[side] = held(InjectorOrifice(cd, area), _ORIFICE, f"injector.{side}")

    valves = {reg: root.section("valves").section(reg).record(
        _GAS_VALVE if reg.endswith("_tank") else _LIQUID_VALVE) for reg in EREG_NAMES}
    actuator = root.section("actuators", {}).record(_ACTUATORS)

    # Throttle: either thrust fractions paired to an OF target, or explicit
    # per-injector pressure profiles.
    throttle = setpoints.section("throttle")
    profiles = {}
    if throttle.choice("kind", ("thrust_fraction", "pressure"), "thrust_fraction") == "pressure":
        demand_scale = 1.0
        for side in SIDES:
            raw = throttle.section(side)
            start = raw.number("start_bar") * 1e5
            segments = tuple(
                ProfileSegment(
                    target_pressure=seg.number("target_bar") * 1e5,
                    hold_duration=seg.number("hold_s", 0.0),
                    ramp_rate=seg.number("ramp_rate_bar_s", 2.0) * 1e5,
                )
                for seg in raw.sections("segments")
            )
            profiles[side] = ThrottleProfile(start, segments)
    else:
        target_of = throttle.number(
            "target_of", nominal_mdot["ox"] / nominal_mdot["fuel"], above=0.0
        )

        def paired(section: _Section, key: str) -> tuple[float, tuple[float, float]]:
            """The fraction at key and its injector setpoints, which must be above ambient."""
            fraction, path = section.number(key, above=0.0, at_most=1.0), section._key(key)
            setpoints = _in_range(path, "paired injector setpoints", lambda: (
                paired_setpoints_for_of(target_of, fraction, nominal_mdot, tanks, injectors,
                                        chamber, ambient)
            ))
            if min(setpoints) <= ambient:
                raise ConfigError(f"{path} = {fraction!r} pairs to an injector setpoint at the "
                                  f"ambient pressure")
            return fraction, setpoints

        demand_scale, starts = paired(throttle, "start_fraction")
        segments = []
        for seg in throttle.sections("segments"):
            targets = paired(seg, "target_fraction")[1]
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
        secondary = raw.section("secondary", {"kp": 0.5, "ki": 1.0, "kd": 0.01})
        controllers[reg] = ControllerSettings(
            primary_gains=raw.section("primary", {}).record(_PRIMARY),
            secondary_gains=secondary.record(_SECONDARY),
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
    config = ScenarioConfig(
        duration=root.number("duration_s"),
        dt_phys=timing.number("dt_phys_s"),
        dt_secondary=timing.number("dt_secondary_s"),
        dt_primary=timing.number("dt_primary_s"),
        ambient_pressure=ambient,
        gas_constant=gas_constant,
        gas_temperature=gas_temperature,
        supply_volume=supply.number("volume_m3"),
        supply_pressure=supply.number("initial_pressure_bar") * 1e5,
        tanks=tanks,
        lines=lines,
        valves=valves,
        injectors=injectors,
        chamber=chamber,
        schedule=SetpointSchedule(
            tank_setpoints["ox"], tank_setpoints["fuel"], profiles["ox"], profiles["fuel"]
        ),
        controllers={reg: controllers[reg] for reg in EREG_NAMES},
        actuator=actuator,
        variant=root.lookup("variant", "ff+dyn")[0],
        noise_sigma=sensors.number("noise_sigma_bar", 0.0) * 1e5,
        noise_seed=sensors.lookup("seed", 0)[0],
        ullage_collapse_coeff=options.number("ullage_collapse_coeff", 0.0),
        abort_pressure_factor=options.number("abort_pressure_factor", 1.10),
        metrics=root.section("metrics", {}).record(_METRICS),
    )
    root.check_unread()
    return config


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = yaml.load(path.read_bytes(), Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse scenario file {path}: {exc}") from exc
    return scenario_from_dict(data)
