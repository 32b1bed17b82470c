import math
from dataclasses import replace

import pytest

from eregsim.errors import ConfigError, InfeasibleThrottleError, UndefinedRatioError
from eregsim.fluids import orifice_mass_flow
from eregsim.scenario import (
    ProfileSegment,
    SetpointSchedule,
    ThrottleProfile,
    load_scenario,
    of_ratio,
    paired_setpoints_for_of,
    scenario_from_dict,
    setpoints_at,
    size_mock_injector,
    steady_operating_point,
)
from tests.conftest import SCENARIO_DIR, small_scenario_dict

BAR = 1e5


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
        with pytest.raises(ConfigError):
            ThrottleProfile(0.5 * BAR, (ProfileSegment(24 * BAR, 1.0, BAR),)).validate()
        with pytest.raises(ConfigError):
            ThrottleProfile(24 * BAR, (ProfileSegment(24 * BAR, -1.0, BAR),)).validate()
        with pytest.raises(ConfigError):
            ThrottleProfile(24 * BAR, ()).validate()


class TestSetpointsAt:
    def test_tank_setpoints_constant(self):
        schedule = SetpointSchedule(
            42 * BAR, 41 * BAR, three_segment_profile(), three_segment_profile()
        )
        for t in (0.0, 3.3, 8.0, 50.0):
            sp = setpoints_at(schedule, t)
            assert sp.ox_tank == 42 * BAR
            assert sp.fuel_tank == 41 * BAR
            assert sp.ox_inj == three_segment_profile().value(t)


class TestOfRatio:
    def test_equal_flows(self):
        assert of_ratio(0.8, 0.8) == 1.0

    def test_nominal_point(self):
        assert of_ratio(1.14, 0.49) == pytest.approx(2.327, abs=5e-4)

    def test_zero_ox(self):
        assert of_ratio(0.0, 0.49) == 0.0

    def test_zero_fuel_is_undefined_signal(self):
        with pytest.raises(UndefinedRatioError):
            of_ratio(1.14, 0.0)


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
            s_ox, s_fuel = paired_setpoints_for_of(target_of, fraction, baseline_config)
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
        s_ox, s_fuel = paired_setpoints_for_of(1.14 / 0.49, 0.70, baseline_config)
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
        s_ox, s_fuel = paired_setpoints_for_of(1.0, 0.8, sym)
        assert s_ox == pytest.approx(s_fuel, rel=1e-12)

    def test_infeasible_throttle_fails_loudly(self, baseline_config):
        schedule = replace(baseline_config.schedule, ox_tank=30e5, fuel_tank=30e5)
        starved = baseline_config.replace(schedule=schedule)
        with pytest.raises(InfeasibleThrottleError):
            paired_setpoints_for_of(1.14 / 0.49, 1.0, starved)

    def test_fraction_domain(self, baseline_config):
        with pytest.raises(InfeasibleThrottleError):
            paired_setpoints_for_of(2.3, 0.0, baseline_config)
        with pytest.raises(InfeasibleThrottleError):
            paired_setpoints_for_of(2.3, 1.2, baseline_config)


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
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            config = load_scenario(path)
            assert config.mode in ("waterflow", "coldflow", "staticfire")

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

    def test_mode_chamber_pairing(self):
        data = small_scenario_dict()
        data["mode"] = "staticfire"  # chamber is None in the small scenario
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
            "feedforward": {"drop_reference": "tank_setpiont"},
        }
        with pytest.raises(ConfigError, match="drop_reference"):
            scenario_from_dict(data)
        data["controllers"]["ox_inj"]["feedforward"]["drop_reference"] = "tank_setpoint"
        scenario_from_dict(data)

    def test_unknown_variant_rejected(self):
        data = small_scenario_dict()
        data["variant"] = "bang-bang"
        with pytest.raises(ConfigError):
            scenario_from_dict(data)

    def test_nominal_hold_twins_differ_only_in_mode_and_chamber(self):
        from tests.conftest import load_yaml

        hot = load_yaml(SCENARIO_DIR / "staticfire_nominal_hold.yaml")
        cold = load_yaml(SCENARIO_DIR / "coldflow_nominal_hold.yaml")
        assert hot.pop("mode") == "staticfire" and cold.pop("mode") == "coldflow"
        assert hot.pop("chamber") is not None and cold.pop("chamber") is None
        assert hot == cold


class TestGammaAuto:
    def test_blowdown_gamma_matches_locked_drain_demand(self, blowdown_config):
        """gamma = Q_drain / (R T k alpha) for the locked-drain scenario."""
        from eregsim.scenario import steady_branch_flow

        cfg = blowdown_config
        q = steady_branch_flow(cfg, "ox", 90.0, cfg.ambient_pressure)
        valve = cfg.valves["ox_tank"]
        expected = q / (cfg.gas_constant * cfg.gas_temperature * valve.choked_constant * valve.alpha)
        assert cfg.controllers["ox_tank"].feedforward.gamma == pytest.approx(expected, rel=1e-12)
