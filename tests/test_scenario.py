import copy
import math
import random
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from eregsim.calibration import CvFit
from eregsim.control import ActuatorSettings, ControllerSettings, FeedforwardParams, PidGains
from eregsim.engine import NetworkFlows, run_scenario
from eregsim.errors import ConfigError, InfeasibleThrottleError
from eregsim.fluids import (
    ChamberModel, GasTankState, LineModel, ValveModel, branch_flow, cv_of_angle,
)
from eregsim.scenario import (
    RK4_STABILITY_LIMIT,
    InjectorOrifice,
    MetricsSettings,
    ProfileSegment,
    SetpointSchedule,
    TankSettings,
    ThrottleProfile,
    load_scenario,
    paired_setpoints_for_of,
    scenario_from_dict,
    setpoints_at,
    size_mock_injector,
)
from eregsim.telemetry import EregMetrics
from tests import probe_scenarios
from tests.conftest import DROP, SCENARIO_DIR, load_yaml, set_key, small_scenario_dict
from tests.oracles import audited_run, orifice_mass_flow, steady_operating_point

BAR = 1e5


def paired(config, target_of, fraction):
    return paired_setpoints_for_of(
        target_of, fraction, config.nominal_mdot, config.tanks, config.injectors,
        config.chamber, config.ambient_pressure,
    )


def three_segment_profile():
    # hold p1, ramp to p2 and hold, ramp down to p3 (held to end)
    return ThrottleProfile(
        start_pressure=24 * BAR,
        segments=(
            ProfileSegment(24 * BAR, 2.0, 2 * BAR),
            ProfileSegment(34 * BAR, 3.0, 2.5 * BAR),
            ProfileSegment(22 * BAR, 0.0, 5 * BAR),
        ),
    )


class TestThrottleProfile:
    def test_initial_condition(self):
        assert three_segment_profile().value(0.0) == 24 * BAR

    def test_terminal_hold(self):
        profile = three_segment_profile()
        for t in (20.0, 100.0, 1e4):
            assert profile.value(t) == 22 * BAR

    def test_hold_midpoints_hit_hold_pressures(self):
        profile = three_segment_profile()
        # hand-walked timeline: hold [0, 2]; ramp 4 s to 34 bar; hold [6, 9];
        # ramp 2.4 s down to 22 bar (from 9 to 11.4), held afterwards.
        assert profile.value(1.0) == 24 * BAR
        assert profile.value(7.5) == 34 * BAR
        assert profile.value(15.0) == 22 * BAR

    def test_hold_intervals(self):
        intervals = three_segment_profile().hold_intervals()
        assert intervals[0] == (0.0, 2.0, 24 * BAR)
        assert intervals[1][0] == pytest.approx(6.0)
        assert intervals[1][1] == pytest.approx(9.0)
        assert intervals[2][0] == pytest.approx(11.4)
        assert intervals[2][1] == math.inf

    def test_continuity_and_max_slope(self):
        profile = three_segment_profile()
        ts = [k * 0.001 for k in range(14000)]
        values = [profile.value(t) for t in ts]
        max_slope = max(abs(b - a) / 0.001 for a, b in zip(values, values[1:]))
        assert max_slope <= 5 * BAR + 1e-6  # steepest configured ramp
        assert max_slope == pytest.approx(5 * BAR, rel=1e-6)  # and it is reached

    def test_validation(self):
        """Profiles are checked at load."""
        for key, start, segments in (
            ("start_bar", 0.5, [{"target_bar": 24.0, "hold_s": 1.0}]),
            ("segments[0].hold_s", 24.0, [{"target_bar": 24.0, "hold_s": -1.0}]),
            ("segments", 24.0, []),
        ):
            profile = {"start_bar": start, "segments": segments}
            data = small_scenario_dict()
            data["setpoints"]["throttle"]["ox"] = profile
            with pytest.raises(ConfigError, match=re.escape(f"setpoints.throttle.ox.{key} ")):
                scenario_from_dict(data)


class TestSetpointsAt:
    def test_tank_setpoints_constant(self):
        schedule = SetpointSchedule(
            42 * BAR, 41 * BAR, three_segment_profile(), three_segment_profile()
        )
        for t in (0.0, 3.3, 8.0, 50.0):
            ox_tank, fuel_tank, ox_inj, _ = setpoints_at(schedule, t)  # EREG_NAMES order
            assert ox_tank == 42 * BAR
            assert fuel_tank == 41 * BAR
            assert ox_inj == three_segment_profile().value(t)


class TestPairedSetpoints:
    def test_nominal_closure(self, baseline_config):
        op = steady_operating_point(baseline_config, 1.0)
        assert op.mdot_ox + op.mdot_fuel == pytest.approx(1.63, abs=1e-9)
        assert op.chamber_pressure == pytest.approx(24e5, abs=1e3)
        assert op.thrust == pytest.approx(3000.0, abs=1.0)

    def test_paired_setpoints_round_trip_of(self, baseline_config):
        """Solving the plant's steady flows at the paired setpoints must give
        back the OF target within 1e-6 (same model both directions)."""
        target_of = 1.14 / 0.49
        for fraction in (1.0, 0.85, 0.7, 0.3):
            s_ox, s_fuel = paired(baseline_config, target_of, fraction)
            # independent fixed point: flows from the orifice law at the
            # setpoints, chamber pressure from the flows
            chamber = baseline_config.chamber

            def flows_at(pc):
                out = {}
                for side, s in (("ox", s_ox), ("fuel", s_fuel)):
                    orifice = baseline_config.injectors[side]
                    rho = baseline_config.tanks[side].liquid_density
                    out[side] = orifice_mass_flow(orifice.cd, orifice.area, rho, s - pc)
                return out

            # bisection on pc = (cstar/At) * total_mdot(pc), monotone in pc
            lo, hi = baseline_config.ambient_pressure, max(s_ox, s_fuel)
            for _ in range(200):
                pc = 0.5 * (lo + hi)
                mdots = flows_at(pc)
                implied = (
                    (mdots["ox"] + mdots["fuel"])
                    * chamber.characteristic_velocity / chamber.throat_area
                )
                if implied > pc:
                    lo = pc
                else:
                    hi = pc
            mdots = flows_at(0.5 * (lo + hi))
            assert mdots["ox"] / mdots["fuel"] == pytest.approx(target_of, rel=1e-6)

    def test_seventy_percent_thrust(self, baseline_config):
        s_ox, s_fuel = paired(baseline_config, 1.14 / 0.49, 0.70)
        op = steady_operating_point(baseline_config, 0.70)
        assert op.thrust == pytest.approx(2100.0, abs=1.0)
        assert s_ox == pytest.approx(op.ox_inj_pressure, rel=1e-9)

    def test_symmetry_with_equal_constants(self, baseline_config):
        cfg = baseline_config
        sym = cfg.replace(
            injectors={"ox": cfg.injectors["ox"], "fuel": cfg.injectors["ox"]},
            tanks={"ox": cfg.tanks["ox"], "fuel": cfg.tanks["ox"]},
            nominal_mdot={"ox": 1.0, "fuel": 1.0},
        )
        s_ox, s_fuel = paired(sym, 1.0, 0.8)
        assert s_ox == pytest.approx(s_fuel, rel=1e-12)

    def test_infeasible_throttle_fails_loudly(self):
        data = load_yaml(SCENARIO_DIR / "staticfire_baseline.yaml")
        data["setpoints"]["tank_bar"] = {"ox": 30.0, "fuel": 30.0}
        with pytest.raises(InfeasibleThrottleError, match="ox injector profile"):
            scenario_from_dict(data)

    def test_fraction_domain(self, baseline_config):
        with pytest.raises(InfeasibleThrottleError):
            paired(baseline_config, 2.3, 0.0)
        with pytest.raises(InfeasibleThrottleError):
            paired(baseline_config, 2.3, 1.2)


class TestSizeMockInjector:
    def test_linear_in_target(self):
        a1 = size_mock_injector(1.14, 1141.0, 42e5, 101325.0, 0.7)
        a2 = size_mock_injector(2.28, 1141.0, 42e5, 101325.0, 0.7)
        assert a2 == pytest.approx(2.0 * a1, rel=1e-12)

    def test_hand_evaluated_point(self):
        area = size_mock_injector(1.14, 1141.0, 101325.0 + 41e5, 101325.0, 0.7)
        assert area == pytest.approx(1.6837e-5, rel=1e-3)

    def test_round_trip_through_orifice_law(self):
        up, down, rho, cd, mdot = 42e5, 101325.0, 1141.0, 0.7, 1.14
        area = size_mock_injector(mdot, rho, up, down, cd)
        assert orifice_mass_flow(cd, area, rho, up - down) == pytest.approx(mdot, rel=1e-12)

    def test_infeasible_drop(self):
        with pytest.raises(InfeasibleThrottleError):
            size_mock_injector(1.14, 1141.0, 1e5, 2e5, 0.7)


class TestConfigValidation:
    def test_all_shipped_scenarios_load(self):
        with_chamber = [path.stem for path in sorted(SCENARIO_DIR.glob("*.yaml"))
                        if load_scenario(path).chamber is not None]
        assert with_chamber == ["staticfire_baseline", "staticfire_nominal_hold"]

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
    def test_libyaml_builds_what_the_pure_parser_builds(self, path):
        pure = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        assert load_scenario(path) == scenario_from_dict(pure)

    def test_schema_version_required(self):
        data = small_scenario_dict()
        del data["schema_version"]
        with pytest.raises(ConfigError):
            scenario_from_dict(data)
        data["schema_version"] = 99
        with pytest.raises(ConfigError):
            scenario_from_dict(data)

    def test_supply_over_gas_valve_rating_rejected(self):
        data = small_scenario_dict()
        data["supply"]["initial_pressure_bar"] = 420.0
        with pytest.raises(ConfigError):
            scenario_from_dict(data)

    def test_tank_setpoint_over_injector_rating_rejected(self):
        data = small_scenario_dict()
        data["setpoints"]["tank_bar"] = {"ox": 80.0, "fuel": 42.0}
        data["tanks"]["ox"]["initial_pressure_bar"] = 80.0
        with pytest.raises(ConfigError):
            scenario_from_dict(data)

    def test_tank_start_pressure_over_injector_rating_rejected(self):
        # Else the run would abort at t = 0, on its first step.
        data = small_scenario_dict()
        data["tanks"]["fuel"]["initial_pressure_bar"] = 80.0
        with pytest.raises(ConfigError, match=r"^valves\.fuel_inj\.rated_pressure_bar must be at "
                                              r"least 80, got 78\.0$"):
            scenario_from_dict(data)
        data["tanks"]["fuel"]["initial_pressure_bar"] = 78.0
        assert scenario_from_dict(data).tanks["fuel"].initial_pressure == 78e5

    def test_non_divisible_tick_periods_rejected(self):
        data = small_scenario_dict()
        data["timing"] = {"dt_phys_s": 0.001, "dt_secondary_s": 0.001, "dt_primary_s": 0.0105}
        with pytest.raises(ConfigError):
            scenario_from_dict(data)

    def test_ullage_fraction_bounds(self):
        for bad in (0.0, 1.0, 1.5):
            data = small_scenario_dict()
            data["tanks"]["ox"]["initial_ullage_fraction"] = bad
            with pytest.raises(ConfigError):
                scenario_from_dict(data)

    def test_infeasible_profile_rejected_at_load(self):
        data = small_scenario_dict()
        # active injector controller with a profile above the tank setpoint
        data["controllers"]["ox_inj"] = {"primary": {"kp": 0.5, "ki": 8.0, "kd": 0.01}}
        data["setpoints"]["throttle"]["ox"] = {
            "start_bar": 41.0,
            "segments": [{"target_bar": 43.0, "hold_s": 1.0}],
        }
        with pytest.raises(InfeasibleThrottleError):
            scenario_from_dict(data)

    @pytest.mark.parametrize("name", ["ox_tank", "fuel_inj"])
    @pytest.mark.parametrize("angle", [120.0, -5.0, math.nan])
    def test_locked_angle_outside_valve_travel_rejected(self, name, angle):
        data = small_scenario_dict()
        data["controllers"][name] = {"locked_angle_deg": angle}
        with pytest.raises(ConfigError, match="locked_angle_deg"):
            scenario_from_dict(data)

    def test_unknown_drop_reference_rejected(self):
        data = small_scenario_dict()
        data["controllers"]["ox_inj"] = {
            "primary": {"kp": 0.5, "ki": 8.0, "kd": 0.01},
            "feedforward": {"drop_reference": "injector_setpoint"},
        }
        key = "controllers.ox_inj.feedforward.drop_reference"
        with pytest.raises(ConfigError, match=re.escape(f"unknown scenario key: {key}")):
            scenario_from_dict(data)

    def test_telemetry_section_rejected(self):
        # A frame is written every primary tick; there is no frame-rate key.
        data = small_scenario_dict(telemetry={"decimation": 1})
        with pytest.raises(ConfigError, match="^unknown scenario key: telemetry$"):
            scenario_from_dict(data)

    def test_replace_sets_no_frame_rate(self):
        config = scenario_from_dict(small_scenario_dict())
        with pytest.raises(TypeError, match="telemetry_decimation"):
            config.replace(telemetry_decimation=1)

    def test_controller_defaults_are_shared_and_checked(self):
        data = small_scenario_dict()
        data["controllers"]["defaults"] = {
            "feedforward": {"gamma_deg": 70.0, "min_drop_bar": 0.2},  # tank key, injector key
            "ramp_time_s": 3.0,
        }
        data["controllers"]["ox_inj"]["ramp_time_s"] = 5.0
        config = scenario_from_dict(data)
        assert config.controllers["fuel_tank"].feedforward.gamma == 70.0
        assert config.controllers["fuel_inj"].feedforward.min_drop == pytest.approx(0.2 * BAR)
        assert config.controllers["ox_tank"].ramp_time == 3.0
        assert config.controllers["ox_inj"].ramp_time == 5.0
        data["controllers"]["defaults"]["feedforward"]["gama_deg"] = 70.0
        with pytest.raises(ConfigError, match="controllers.defaults.feedforward.gama_deg"):
            scenario_from_dict(data)

    def test_unknown_variant_rejected(self):
        data = small_scenario_dict()
        data["variant"] = "bang-bang"
        with pytest.raises(ConfigError):
            scenario_from_dict(data)

    def test_nominal_hold_twins_differ_only_in_chamber(self):
        hot = load_yaml(SCENARIO_DIR / "staticfire_nominal_hold.yaml")
        cold = load_yaml(SCENARIO_DIR / "coldflow_nominal_hold.yaml")
        assert hot.pop("chamber") is not None and cold.pop("chamber") is None
        assert hot == cold


class TestGammaAuto:
    def test_blowdown_gamma_matches_locked_drain_demand(self, blowdown_config):
        """gamma = Q_drain / (R T k alpha) for the locked-drain scenario."""
        cfg = blowdown_config
        q, _ = branch_flow(
            cfg.tank_setpoint("ox"), cfg.ambient_pressure, cfg.tanks["ox"].liquid_density,
            cv_of_angle(cfg.valves["ox_inj"], 90.0), cfg.lines["ox"].loss_coefficient,
            cfg.injectors["ox"].coeff,
        )
        valve = cfg.valves["ox_tank"]
        expected = q / (cfg.gas_constant * cfg.gas_temperature * valve.choked_constant * valve.alpha)
        assert cfg.controllers["ox_tank"].feedforward.gamma == pytest.approx(expected, rel=1e-12)


# Malformed inputs that escaped as raw Python exceptions, failed only
# mid-run, or were silently accepted before the loader checked every key:
# (edits to the small scenario, key path the error must name).
PROBES = {
    "missing_supply_volume": ({"supply.volume_m3": DROP}, "supply.volume_m3"),
    "missing_dt_phys": ({"timing.dt_phys_s": DROP}, "timing.dt_phys_s"),
    "nan_duration": ({"duration_s": math.nan}, "duration_s"),
    # The bounds against ambient (the tanks start at 42 bar, the throttle at
    # 30), and mock injectors sized for a drop from a 42 bar setpoint.
    "zero_ambient": ({"ambient_pressure_bar": 0}, "ambient_pressure_bar must be above 0"),
    # Checked as read, before the mock injector areas, the paired setpoints
    # and gamma_deg: auto are derived from it, and printed as written.
    "ambient=-1e300": ({"ambient_pressure_bar": -1e300},
                       "ambient_pressure_bar must be above 0, got -1e+300"),
    "mock_injector_ambient=-1e300": ({"injector": {"kind": "mock"}, "ambient_pressure_bar": -1e300},
                                     "ambient_pressure_bar must be above 0, got -1e+300"),
    "ambient_above_tank_start": ({"ambient_pressure_bar": 50.0},
                                 "tanks.ox.initial_pressure_bar must be above 50"),
    "ambient_above_throttle": ({"ambient_pressure_bar": 35.0},
                               "setpoints.throttle.ox.start_bar must be above 35"),
    "mock_injector_below_ambient": ({"injector": {"kind": "mock"}, "ambient_pressure_bar": 45.0},
                                    "positive pressure drop, got 42 bar to 45 bar"),
    "zero_line_diameter": ({"lines.ox.diameter_m": 0}, "lines.ox.diameter_m"),
    "zero_injector_area": ({"injector.ox.area_m2": 0}, "injector.ox.area_m2"),
    "negative_temperature": ({"pressurant.temperature_k": -10}, "pressurant.temperature_k"),
    "negative_friction": ({"lines.fuel.friction_factor": -0.02}, "lines.fuel.friction_factor"),
    "cd_above_one": ({"injector.fuel.cd": 5}, "injector.fuel.cd"),
    "misspelt_top_level_key": ({"sensrs": {"noise_sigma_bar": 0.02}}, "sensrs"),
    "fractional_seed": ({"sensors": {"noise_sigma_bar": 0.02, "seed": 1.7}}, "sensors.seed"),
    "negative_rate_max_active": (
        {"controllers.ox_tank": {"primary": {"kp": 4.0}}, "actuators": {"rate_max_deg_s": -1}},
        "actuators.rate_max_deg_s",
    ),
    "string_dt_phys": ({"timing.dt_phys_s": "fast"}, "timing.dt_phys_s"),
    "scalar_integral_limits": (
        {"controllers.ox_tank.integral_limits_deg": 25.0}, "controllers.ox_tank.integral_limits_deg"
    ),
    "tanks_as_list": ({"tanks": [{"total_volume_m3": 0.02}]}, "tanks"),
    "nan_tank_volume": ({"tanks.fuel.total_volume_m3": math.nan}, "tanks.fuel.total_volume_m3"),
    "negative_kp": ({"controllers.ox_tank.primary": {"kp": -0.5}}, "controllers.ox_tank.primary.kp"),
    "zero_ramp_time": ({"controllers.defaults": {"ramp_time_s": 0}}, "controllers.defaults.ramp_time_s"),
    "injector_choked_constant": (
        {"valves.ox_inj.choked_constant": 0.0}, "valves.ox_inj.choked_constant"
    ),
    "tiny_gas_constant": ({"pressurant.specific_gas_constant": 5e-324}, "controllers.fuel_tank"),
    "tiny_temperature": ({"pressurant.temperature_k": 5e-324}, "controllers.fuel_tank"),
    "huge_valve_slope": ({"valves.ox_inj.alpha_si_per_deg": 1e200}, "valves.ox_inj"),
    # Paired setpoints whose orifice inversion overflows.
    "huge_nominal_flow_thrust_fraction": (
        {
            "setpoints.throttle": {
                "target_of": 1.0, "start_fraction": 1.0, "segments": [{"target_fraction": 0.5}]
            },
            "nominal_flows.ox_kg_s": 1e200,
        },
        "setpoints.throttle",
    ),
    # Initial gas masses p * V / (R * T) that overflow once gamma_deg is given.
    "tiny_gas_constant_explicit_gamma": (
        {
            "pressurant.specific_gas_constant": 5e-324,
            **{
                f"controllers.{reg}": {"locked_angle_deg": 0.0, "feedforward": {"gamma_deg": 50.0}}
                for reg in ("ox_tank", "fuel_tank")
            },
        },
        "supply",
    ),
    "huge_supply_volume": ({"supply.volume_m3": 1e305}, "supply"),
    # Initial gas masses that underflow below the normal floats (the supply's
    # ran with a gas-law residual of 1.3e-3 before the loader rejected it).
    "supply.volume_m3=5e-324": ({"supply.volume_m3": 5e-324}, "supply"),
    **{
        f"tanks.{side}.initial_pressure_bar={bar!r}": (
            {"ambient_pressure_bar": ambient, f"tanks.{side}.initial_pressure_bar": bar},
            f"tanks.{side}",
        )
        for side in ("ox", "fuel")
        for ambient, bar in ((1e-310, 1e-307), (5e-324, 1e-310))
    },
}
# Finite values whose derived plant constants over- or underflow, per side:
# (key, values, section the error names): the initial ullage volume rounds
# to 0 or its gas mass overflows, the line and orifice coefficients leave
# float range, and gamma_deg:
# auto divides by a product that rounds to 0 (as in the tiny_* entries
# above; huge_valve_slope overflows a valve's full-travel Cv^2).
PROBES.update({
    f"{key.format(side)}={value!r}": ({key.format(side): value}, named.format(side))
    for key, values, named in (
        ("tanks.{}.initial_ullage_fraction", (5e-324, 1e-300, 1e-17), "tanks.{}"),
        ("tanks.{}.total_volume_m3", (5e-324, 1e305), "tanks.{}"),
        ("lines.{}.diameter_m", (5e-324, 1e-300, 1e300), "lines.{}"),
        ("injector.{}.cd", (5e-324, 1e-300), "injector.{}"),
        ("injector.{}.area_m2", (5e-324, 1e-300, 1e300), "injector.{}"),
        ("valves.{}_tank.choked_constant", (5e-324,), "controllers.{}_tank"),
    )
    for side in ("ox", "fuel")
    for value in values
})
# A chamber gain c*/At that overflows, and collapse coefficients past the
# RK4 stability limit at the small scenario's 0.01 s step.
PROBES.update({
    "chamber.throat_area_m2=5e-324": (
        {"chamber": {"throat_area_m2": 5e-324, "thrust_coefficient": 1.15,
                     "characteristic_velocity_m_s": 1600.0}},
        "chamber",
    ),
    **{
        f"options.ullage_collapse_coeff={value!r}": (
            {"options": {"ullage_collapse_coeff": value}}, "options.ullage_collapse_coeff"
        )
        for value in (1e200, math.nextafter(RK4_STABILITY_LIMIT / 0.01, math.inf))
    },
    # Switches for modes the model no longer has: unknown keys, not ignored.
    "options.adiabatic_supply": ({"options": {"adiabatic_supply": True}},
                                 "options.adiabatic_supply"),
    "metrics.exclude_after_depletion": ({"metrics": {"exclude_after_depletion": False}},
                                        "metrics.exclude_after_depletion"),
    # The chamber section alone says whether a scenario has one.
    "mode": ({"mode": "coldflow"}, "mode"),
    # Less than one 0.01 s physics step, a run with no frames; and a step
    # count duration / dt_phys that overflows to inf.
    "duration_s=0.004": ({"duration_s": 0.004}, "duration_s"),
    "duration_s=1e300": (
        {"duration_s": 1e300,
         "timing": {"dt_phys_s": 1e-10, "dt_secondary_s": 1e-10, "dt_primary_s": 1e-10}},
        "duration_s",
    ),
    # Finite step counts past MAX_STEPS, runs that would never end (both
    # loaded before the cap).
    "past_step_cap:duration_s=1e300": ({"duration_s": 1e300}, "duration_s"),
    "past_step_cap:timing.dt_phys_s=1e-17": ({"timing.dt_phys_s": 1e-17}, "duration_s"),
    # A start liquid volume 5e-324 * 0.5 that rounds to 0 (the high pressure
    # keeps the ullage gas mass above the normal floats).
    "tanks.ox.liquid_rounds_to_0": (
        {"tanks.ox.total_volume_m3": 5e-324, "tanks.ox.initial_ullage_fraction": 0.5,
         "tanks.ox.initial_pressure_bar": 1e16, "valves.ox_inj.rated_pressure_bar": 2e16},
        "tanks.ox",
    ),
    # Sensor noise above the supply's 310 bar start pressure, the highest
    # pressure any sensor sees; at 1e302 bar a blowdown run's controller input went NaN.
    **{
        f"sensors.noise_sigma_bar={value!r}": (
            {"sensors": {"noise_sigma_bar": value}}, "sensors.noise_sigma_bar"
        )
        for value in (1e302, math.nextafter(310.0, math.inf))
    },
})


@pytest.mark.parametrize("edits, key", PROBES.values(), ids=PROBES.keys())
def test_malformed_scenario_rejected_at_load(edits, key):
    data = small_scenario_dict()
    for path, value in edits.items():
        set_key(data, path, value)
    with pytest.raises(ConfigError, match=re.escape(key)):
        scenario_from_dict(data)


@pytest.mark.parametrize("value", [-1e300, 0, math.nan])
@pytest.mark.parametrize("stem", ["coldflow_mock_injector", "waterflow_blowdown"])
def test_bad_ambient_is_named_in_the_mock_injector_scenarios(stem, value):
    # Both derive mock injector areas from ambient; -1e300 was reported as
    # "mock injector area 0.0 m2 out of range".
    data = load_yaml(SCENARIO_DIR / f"{stem}.yaml")
    data["ambient_pressure_bar"] = value
    with pytest.raises(ConfigError,
                       match=f"^ambient_pressure_bar must be .*, got {re.escape(repr(value))}$"):
        scenario_from_dict(data)


# Configs changed after loading past a rule the loader holds. Before the
# config checked itself, each ran: noise above the supply pressure failed
# mid-run on a non-finite controller input, a physics step of 0 raised a
# raw ZeroDivisionError, a negative seed a raw numpy ValueError once noise
# was on, and a supply or a tank start above a valve rating, or a negative
# abort factor, gave one frame and an over-pressure abort: (changes to the
# loaded blowdown, key path the error must name).
REPLACE_BYPASSES = {
    "noise_sigma=1e308": (lambda config: {"noise_sigma": 1e308}, "sensors.noise_sigma_bar"),
    "supply_pressure=5e7": (lambda config: {"supply_pressure": 5e7},
                            "valves.ox_tank.rated_pressure_bar"),
    "abort_pressure_factor=-1": (lambda config: {"abort_pressure_factor": -1},
                                 "options.abort_pressure_factor"),
    "ox_tank_starts_at_500_bar": (
        lambda config: {"tanks": {**config.tanks, "ox": config.tanks["ox"]._replace(
            initial_pressure=500e5)}},
        "valves.ox_inj.rated_pressure_bar",
    ),
    "noise_seed=-1": (lambda config: {"noise_seed": -1}, "sensors.seed"),
    "dt_phys=0": (lambda config: {"dt_phys": 0}, "timing.dt_phys_s"),
    # An ambient of 0 or below, or above the 42 bar tank start, ran clean;
    # nan was named under the supply it is compared with.
    "ambient_pressure=0": (lambda config: {"ambient_pressure": 0}, "ambient_pressure_bar must"),
    "ambient_pressure=-1": (lambda config: {"ambient_pressure": -1}, "ambient_pressure_bar must"),
    "ambient_pressure=nan": (lambda config: {"ambient_pressure": math.nan},
                             "ambient_pressure_bar must"),
    "ambient_pressure=50e5": (lambda config: {"ambient_pressure": 50e5},
                              "tanks.ox.initial_pressure_bar must be above 50"),
    # A pressure-kind throttle profile starting below ambient or ramping to it.
    "ox_throttle_start_below_ambient": (
        lambda config: {"schedule": config.schedule._replace(ox_inj=ThrottleProfile(
            0.5e5, config.schedule.ox_inj.segments))},
        "setpoints.throttle.ox.start_bar must be above 1.01325",
    ),
    "fuel_throttle_target_at_ambient": (
        lambda config: {"schedule": config.schedule._replace(fuel_inj=ThrottleProfile(
            config.schedule.fuel_inj.start_pressure,
            (ProfileSegment(config.ambient_pressure, 0.0, 10e5),)))},
        "setpoints.throttle.fuel.segments[0].target_bar must be above 1.01325",
    ),
    # A hand-built schedule is paired (the default throttle_kind); one that
    # starts below ambient ran all 1,250 frames of the blowdown.
    "hand_built_schedule_below_ambient": (
        lambda config: {"schedule": SetpointSchedule(
            config.schedule.ox_tank, config.schedule.fuel_tank,
            *[ThrottleProfile(0.5e5, config.schedule.ox_inj.segments)] * 2)},
        "paired ox injector profile.start_bar must be at least 1.01325",
    ),
}


@pytest.mark.parametrize("changes, key", REPLACE_BYPASSES.values(), ids=REPLACE_BYPASSES.keys())
def test_replace_rejects_what_the_loader_rejects(blowdown_config, changes, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        blowdown_config.replace(**changes(blowdown_config))


def test_paired_setpoints_may_equal_ambient(blowdown_config):
    # A paired setpoint is the chamber pressure plus an orifice drop, so a
    # vanishing thrust fraction pairs to ambient itself; a file can load one.
    ambient = ThrottleProfile(blowdown_config.ambient_pressure,
                              (ProfileSegment(blowdown_config.ambient_pressure, 0.0, 1e5),))
    schedule = SetpointSchedule(blowdown_config.schedule.ox_tank,
                                blowdown_config.schedule.fuel_tank, ambient, ambient)
    assert blowdown_config.replace(schedule=schedule).schedule.throttle_kind == "thrust_fraction"
    with pytest.raises(ConfigError, match=re.escape("start_bar must be above 1.01325")):
        blowdown_config.replace(schedule=schedule._replace(throttle_kind="pressure"))


_REPLACE_GRID = probe_scenarios.replace_inputs()


@pytest.mark.parametrize("field, value", _REPLACE_GRID,
                         ids=[probe_scenarios.replace_id(*i) for i in _REPLACE_GRID])
def test_replaced_field_runs_or_is_rejected_at_replace(field, value):
    """Every input of the probe script's replace() arm: a ConfigError from
    replace() itself, or a 0.2 s run (to its end or to the over-pressure
    abort) that keeps the gas law."""
    assert probe_scenarios.probe_replace(field, value) in probe_scenarios.REPLACE_OUTCOMES


def test_collapse_coefficient_just_inside_the_rk4_limit_runs():
    coeff = math.nextafter(RK4_STABILITY_LIMIT / 0.01, 0.0)
    config = scenario_from_dict(small_scenario_dict(
        duration_s=0.2, options={"ullage_collapse_coeff": coeff}
    ))
    assert config.ullage_collapse_coeff == coeff
    frames, audit = audited_run(config)
    assert len(frames) == 20
    assert audit.max_gas_law_residual < 1e-9
    # All valves are shut: the sink takes gas from the ullages only.
    assert frames[-1].supply_pressure_bar == frames[0].supply_pressure_bar


# Extreme single-key inputs from tests/probe_scenarios.py: the ones that once
# loaded and then failed mid-run (the chamber root-find gave up at 60
# iterations, or a collapse coefficient past the RK4 limit made a pressure
# NaN), plus a fixed sample of the rest of the grid.
PROBE_FAILURES = {
    *((stem, f"tanks.{side}.liquid_density_kg_m3", value)
      for stem in ("staticfire_baseline", "staticfire_nominal_hold")
      for side in ("ox", "fuel") for value in (1e200, 1e300)),
    *(("staticfire_nominal_hold", "chamber.throat_area_m2", value)
      for value in (5e-324, 1e-300, 1e-200, 1e-17)),
    *(("staticfire_nominal_hold", "chamber.characteristic_velocity_m_s", value)
      for value in (1e200, 1e300)),
    *((stem, "options.ullage_collapse_coeff", value)
      for stem in probe_scenarios.SHIPPED for value in (1e200, 1e300)),
}
_PROBE_GRID = probe_scenarios.probe_inputs()
_PROBE_FAILED = [i for i in _PROBE_GRID if (i[0], ".".join(map(str, i[1])), i[2]) in PROBE_FAILURES]
PROBE_SAMPLE = _PROBE_FAILED + random.Random(0).sample(
    [i for i in _PROBE_GRID if i not in _PROBE_FAILED], 60
)


def test_probe_failures_are_all_in_the_grid():
    assert len(_PROBE_FAILED) == len(PROBE_FAILURES) == 24


@pytest.mark.parametrize("stem, path, value", PROBE_SAMPLE,
                         ids=[probe_scenarios.probe_id(*i) for i in PROBE_SAMPLE])
def test_extreme_input_runs_or_is_rejected_at_load(stem, path, value):
    """A ConfigError at load, or a 0.2 s run (to its end or to the over-pressure
    abort) that keeps the gas law."""
    assert probe_scenarios.probe(stem, path, value) in probe_scenarios.OUTCOMES


@pytest.mark.parametrize("name", ["waterflow_blowdown", "staticfire_baseline"])
def test_valve_slope_whose_cv_squared_underflows_passes_no_flow(name):
    # Cv^2 = (1e-200 * (angle - theta_zero))^2 rounds to 0: the valve is shut.
    # The blowdown locks the valve open and evaluates it at load (gamma_deg:
    # auto); the static fire's injector controller opens it during the run.
    data = load_yaml(SCENARIO_DIR / f"{name}.yaml")
    data["duration_s"] = 0.5
    data["valves"]["ox_inj"]["alpha_si_per_deg"] = 1e-200
    frames = run_scenario(scenario_from_dict(data))
    assert len(frames) == 50
    assert max(f.ox_inj.valve_angle_deg for f in frames) > 80.0
    assert all(f.mdot_ox_kg_s == 0.0 for f in frames)
    assert frames[-1].mdot_fuel_kg_s > 0.0


def _key_paths(node, prefix=()):
    """Every dict key and list index path in a scenario dict."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _node(data, path):
    for key in path:
        data = data[key]
    return data


FUZZ_BASE = small_scenario_dict(duration_s=0.2)
FUZZ_PATHS = list(_key_paths(FUZZ_BASE))
FUZZ_MAPPINGS = [()] + [p for p in FUZZ_PATHS if isinstance(_node(FUZZ_BASE, p), dict)]
_DROP_KEY, _ADD_KEY = "drop", "add unknown key"
MUTATIONS = st.one_of(
    st.tuples(st.just(_DROP_KEY), st.sampled_from(FUZZ_PATHS)),
    st.tuples(st.sampled_from([math.nan, math.inf, -math.inf, 0, -1.5, "x"]), st.sampled_from(FUZZ_PATHS)),
    st.tuples(st.just(_ADD_KEY), st.sampled_from(FUZZ_MAPPINGS)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_scenario_runs_or_is_rejected(mutations):
    """A mutated scenario either raises ConfigError at load or finishes a
    0.2 s run with the gas bookkeeping intact."""
    data = copy.deepcopy(FUZZ_BASE)
    for change, path in mutations:
        try:
            parent = _node(data, path[:-1]) if path else data
            if change == _ADD_KEY:
                _node(data, path)["zz_unknown"] = 1.0
            elif change == _DROP_KEY:
                del parent[path[-1]]
            else:
                parent[path[-1]] = change
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced the path
    try:
        config = scenario_from_dict(data)
    except ConfigError:
        return
    frames, audit = audited_run(config)
    assert len(frames) == 20  # one per 0.01 s primary tick: the run was not cut short
    assert audit.max_gas_law_residual < 1e-9
    assert audit.max_mass_drift < 1e-6


SCHEMA_DOC = Path(__file__).resolve().parent.parent / "docs" / "scenario_schema.md"
# The doc spells out the ox side and ox regulators; fuel takes the same keys.
_DOC_ALIASES = {"fuel": "ox", "fuel_tank": "ox_tank", "fuel_inj": "ox_inj"}


def _doc_blocks() -> list[dict]:
    return [yaml.safe_load(b) for b in re.findall(r"```yaml\n(.*?)```", SCHEMA_DOC.read_text(), re.S)]


def _documented_form(path) -> str:
    return ".".join("[]" if isinstance(k, int) else _DOC_ALIASES.get(k, k) for k in path)


class TestSchemaDoc:
    def test_doc_examples_load(self):
        """The first block is a complete scenario; each later block replaces
        the top-level sections it names. Unknown keys are rejected, so every
        key the doc shows is one the loader reads."""
        example, *variants = _doc_blocks()
        scenario_from_dict(example)
        assert variants
        for variant in variants:
            scenario_from_dict({**example, **variant})

    def test_doc_shows_every_shipped_key(self):
        documented = {_documented_form(p) for block in _doc_blocks() for p in _key_paths(block)}
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            used = {_documented_form(p) for p in _key_paths(load_yaml(path))}
            assert used <= documented, (path.name, sorted(used - documented))


VALUE_RECORDS = (PidGains, FeedforwardParams, ControllerSettings, ActuatorSettings, ValveModel,
                 LineModel, ChamberModel, GasTankState, ProfileSegment, ThrottleProfile,
                 SetpointSchedule, InjectorOrifice, TankSettings, MetricsSettings, CvFit,
                 EregMetrics, NetworkFlows)


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_value_records_are_immutable(record):
    value = record._make([1.0] * len(record._fields))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 2.0)
    with pytest.raises(AttributeError):
        value.extra = 2.0
