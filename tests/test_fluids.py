import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eregsim.engine import RunAudit, _Plant
from eregsim.errors import ModelError
from eregsim.fluids import (
    AMBIENT_PRESSURE,
    FULL_TRAVEL,
    ChamberModel,
    LineModel,
    ValveModel,
    branch_flow,
    chamber_state,
    cv_of_angle,
    gas_valve_mass_flow,
    liquid_volumetric_flow,
)
from eregsim.scenario import EREG_NAMES, SIDES, load_scenario, scenario_from_dict
from tests.conftest import (
    SCENARIO_DIR,
    build_small_scenario,
    load_yaml,
    set_key,
    small_scenario_dict,
)
from tests.oracles import back_pressure_reference, darcy_weisbach_dp, orifice_mass_flow

VALVE = ValveModel(alpha=0.5, theta_zero=10.0, rated_pressure=415e5, choked_constant=1.0)


class TestCvOfAngle:
    def test_boundary_of_dead_band(self):
        assert cv_of_angle(VALVE, 10.0) == 0.0

    def test_below_dead_band(self):
        assert cv_of_angle(VALVE, 5.0) == 0.0

    def test_hand_evaluated_point(self):
        assert cv_of_angle(VALVE, 30.0) == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("theta", [-1.0, 90.5, 200.0])
    def test_domain_error(self, theta):
        with pytest.raises(ValueError):
            cv_of_angle(VALVE, theta)

    @given(st.floats(0.0, 90.0), st.floats(0.0, 90.0))
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert cv_of_angle(VALVE, lo) <= cv_of_angle(VALVE, hi)

    @given(st.floats(0.0, 10.0))
    def test_zero_through_dead_band(self, theta):
        assert cv_of_angle(VALVE, theta) == 0.0


class TestChokedGasFlow:
    """Gas valve flow into vacuum (p_down = 0), where the fade is 1."""

    def test_closed_valve_flows_nothing(self):
        assert gas_valve_mass_flow(VALVE, 10.0, 3.1e7, 0.0) == 0.0
        assert gas_valve_mass_flow(VALVE, 0.0, 3.1e7, 0.0) == 0.0

    @given(st.floats(1e4, 4e7), st.floats(10.0, 90.0))
    def test_linear_in_upstream_pressure(self, p, theta):
        assert gas_valve_mass_flow(VALVE, theta, 2.0 * p, 0.0) == pytest.approx(
            2.0 * gas_valve_mass_flow(VALVE, theta, p, 0.0), rel=1e-12
        )

    def test_hand_evaluated_point(self):
        # Cv = 2.0 at theta = 14 deg for this valve; k * Cv * p = k0 * 4e7.
        k0 = 1.6774194e-3
        valve = ValveModel(alpha=0.5, theta_zero=10.0, rated_pressure=415e5, choked_constant=k0)
        assert gas_valve_mass_flow(valve, 14.0, 2.0e7, 0.0) == pytest.approx(4.0e7 * k0, rel=1e-12)

    def test_fade_blocks_equalized_flow(self):
        assert gas_valve_mass_flow(VALVE, 30.0, 1e6, 1e6) == 0.0
        assert gas_valve_mass_flow(VALVE, 30.0, 1e6, 2e6) == 0.0
        choked = gas_valve_mass_flow(VALVE, 30.0, 1e6, 0.5e6)
        assert choked == gas_valve_mass_flow(VALVE, 30.0, 1e6, 0.0)
        faded = gas_valve_mass_flow(VALVE, 30.0, 1e6, 0.8e6)
        assert 0.0 < faded < choked


class TestLiquidValveFlow:
    def test_zero_head(self):
        assert liquid_volumetric_flow(VALVE, 30.0, 0.0, 1141.0) == 0.0

    def test_reverse_flow_blocked(self):
        assert liquid_volumetric_flow(VALVE, 30.0, -5e5, 1141.0) == 0.0

    @given(st.floats(1e3, 5e6), st.floats(11.0, 90.0))
    def test_square_root_law(self, dp, theta):
        q1 = liquid_volumetric_flow(VALVE, theta, dp, 1141.0)
        q4 = liquid_volumetric_flow(VALVE, theta, 4.0 * dp, 1141.0)
        assert q4 == pytest.approx(2.0 * q1, rel=1e-12)

    def test_hand_evaluated_point(self):
        valve = ValveModel(alpha=4.0e-6, theta_zero=10.0, rated_pressure=78e5)
        q = liquid_volumetric_flow(valve, 20.0, 7.0e5, 1141.0)
        assert q == pytest.approx(9.9076e-4, rel=1e-4)
        assert q * 1141.0 == pytest.approx(1.13, rel=1e-2)


class TestOrificeFlow:
    def test_zero_drop(self):
        assert orifice_mass_flow(0.7, 2.0e-5, 1141.0, 0.0) == 0.0

    def test_linear_in_area(self):
        full = orifice_mass_flow(0.7, 2.0e-5, 1141.0, 1.8e6)
        half = orifice_mass_flow(0.7, 1.0e-5, 1141.0, 1.8e6)
        assert full == pytest.approx(2.0 * half, rel=1e-12)

    def test_hand_evaluated_point(self):
        assert orifice_mass_flow(0.7, 2.0e-5, 1141.0, 1.8e6) == pytest.approx(0.89727, rel=1e-4)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            orifice_mass_flow(1.2, 2.0e-5, 1141.0, 1e5)
        with pytest.raises(ValueError):
            orifice_mass_flow(0.7, -1e-5, 1141.0, 1e5)


class TestDarcyWeisbach:
    def test_zero_velocity(self):
        assert darcy_weisbach_dp(0.02, 2.0, 0.0127, 1141.0, 0.0) == 0.0

    def test_quadratic_in_velocity(self):
        one = darcy_weisbach_dp(0.02, 2.0, 0.0127, 1141.0, 2.0)
        two = darcy_weisbach_dp(0.02, 2.0, 0.0127, 1141.0, 4.0)
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_hand_evaluated_point(self):
        dp = darcy_weisbach_dp(0.02, 2.0, 0.0127, 1141.0, 4.0)
        assert dp == pytest.approx(2.87496e4, rel=1e-4)

    def test_line_model_coefficient_matches_law(self):
        line = LineModel(friction_factor=0.02, length=2.0, diameter=0.0127)
        q = 9.9e-4
        v = q / line.flow_area
        direct = darcy_weisbach_dp(0.02, 2.0, 0.0127, 1141.0, v)
        assert line.loss_coefficient * 1141.0 * q**2 == pytest.approx(direct, rel=1e-12)


SHUT = {"ox_tank": 0.0, "fuel_tank": 0.0, "ox_inj": 0.0, "fuel_inj": 0.0}


def make_plant(angles: dict, *keys) -> _Plant:
    """Plant of the small scenario with (key path, value) overrides, the named
    valves at angles and the others shut."""
    data = small_scenario_dict()
    for path, value in keys:
        set_key(data, path, value)
    plant = _Plant(scenario_from_dict(data))
    plant.set_angles([{**SHUT, **angles}[name] for name in EREG_NAMES])
    return plant


class TestPlantStep:
    def test_shut_valves_leave_state_unchanged(self):
        plant = make_plant({})
        supply, ullage = plant.supply_pressure, list(plant.ullage_pressure)
        assert plant.step(0.01) == []
        assert plant.supply_pressure == supply
        assert plant.ullage_pressure == ullage

    def test_supply_mass_clamped_and_conserved(self):
        plant = make_plant({"ox_tank": 90.0, "fuel_tank": 90.0}, ("supply.volume_m3", 0.0005))
        audit = RunAudit()
        audit.record(plant)
        assert plant.step(1.0) == ["supply_gas_depleted"]
        audit.record(plant)
        assert plant.supply_mass == 0.0
        assert plant.supply_pressure == 0.0
        assert audit.max_mass_drift == 0.0
        assert audit.max_gas_law_residual < 1e-9

    @pytest.mark.parametrize("litres", (0.5, 0.55, 0.6, 0.65))
    @pytest.mark.parametrize("angle", range(27, 82, 3))
    def test_overdrawn_supply_gives_exactly_what_it_holds(self, litres, angle):
        # One step asks for more gas than the bottle holds: it ends at exactly 0.
        plant = make_plant({"ox_tank": 90.0, "fuel_tank": float(angle)},
                           ("supply.volume_m3", litres / 1000))
        audit = RunAudit()
        audit.record(plant)
        assert plant.step(1.0) == ["supply_gas_depleted"]
        audit.record(plant)
        assert plant.supply_mass == 0.0
        assert audit.max_mass_drift < 1e-15


def drain_ox_dry(plant: _Plant, dt: float = 0.01) -> tuple[list[str], int]:
    """Step until the first event; returns it and the number of steps."""
    events, steps = [], 0
    while not events and steps < 1000:
        events = plant.step(dt)
        steps += 1
    return events, steps


class TestGasTankStep:
    """The plant's gas lumps: the supply bottle and the two ullages."""

    def test_boyle_volume_doubling_halves_pressure(self):
        # Half the tank is ullage; draining it dry with no pressurant
        # doubles the ullage volume at constant mass and temperature.
        plant = make_plant(
            {"ox_inj": 60.0},
            ("tanks.ox.total_volume_m3", 0.002),
            ("tanks.ox.initial_ullage_fraction", 0.5),
        )
        p0, v0 = plant.ullage_pressure[0], plant.ullage_volume[0]
        assert drain_ox_dry(plant)[0] == ["ox_liquid_depleted"]
        assert plant.ullage_volume[0] == pytest.approx(2.0 * v0, rel=1e-12)
        assert plant.ullage_pressure[0] == pytest.approx(p0 / 2.0, rel=1e-12)

    def test_gas_law_holds_after_random_walk(self):
        plant = make_plant({}, ("supply.volume_m3", 0.002))
        audit = RunAudit()
        for i in range(200):
            # EREG_NAMES order: ox_tank, fuel_tank, ox_inj, fuel_inj
            plant.set_angles([30.0 * (i % 3), 20.0 * ((i + 1) % 4), 15.0 * (i % 5), 45.0 * (i % 2)])
            plant.step(0.01)
            audit.record(plant)
            assert audit.max_gas_law_residual < 1e-9


class TestPropellantTankStep:
    """The plant's liquid volumes and the ullages above them."""

    def test_outflow_without_pressurant_drops_ullage_pressure(self):
        plant = make_plant({"ox_inj": 60.0})
        p0, v0, liquid0 = plant.ullage_pressure[0], plant.ullage_volume[0], plant.liquid_volume[0]
        for _ in range(10):
            assert plant.step(0.01) == []
        drained = liquid0 - plant.liquid_volume[0]
        assert drained > 0.0
        assert plant.ullage_pressure[0] < p0
        assert plant.ullage_volume[0] == pytest.approx(v0 + drained, rel=1e-12)
        assert plant.ullage_pressure[0] * plant.ullage_volume[0] == pytest.approx(p0 * v0)

    def test_ullage_volume_tracks_liquid(self):
        # Pressurant in and liquid out on both sides.
        plant = make_plant({"ox_tank": 60.0, "fuel_tank": 60.0, "ox_inj": 60.0, "fuel_inj": 60.0})
        total = [u + v for u, v in zip(plant.ullage_volume, plant.liquid_volume)]
        for _ in range(100):
            plant.step(0.01)
            for i in (0, 1):
                assert plant.ullage_volume[i] == pytest.approx(
                    total[i] - plant.liquid_volume[i], rel=1e-12
                )

    def test_depletion_flag_and_clamp(self):
        plant = make_plant({"ox_inj": 60.0}, ("tanks.ox.total_volume_m3", 0.002))
        events, steps = drain_ox_dry(plant)
        assert events == ["ox_liquid_depleted"]
        assert 150 < steps < 190
        assert plant.liquid_volume[1] > 0.0
        assert plant.liquid_volume[0] == 0.0
        # The last step drained only what was left: the ullage fills the tank.
        assert plant.ullage_volume[0] == pytest.approx(0.002, rel=1e-12)
        assert plant.step(0.01) == []  # the event is raised once

    @pytest.mark.parametrize("ullage, dt", [(0.994, 0.2), (0.997, 0.1)])
    def test_step_that_drains_the_last_liquid_ends_at_zero(self, ullage, dt):
        plant = make_plant({"ox_inj": 60.0}, ("tanks.ox.initial_ullage_fraction", ullage))
        assert plant.step(dt) == ["ox_liquid_depleted"]
        assert plant.liquid_volume[0] == 0.0


class TestChamber:
    CHAMBER = ChamberModel(
        throat_area=1.0866667e-3, characteristic_velocity=1600.0, thrust_coefficient=1.1503067
    )

    def test_zero_flow_reads_ambient_no_thrust(self):
        pc, thrust = chamber_state(0.0, self.CHAMBER, AMBIENT_PRESSURE)
        assert pc == AMBIENT_PRESSURE
        assert thrust == 0.0

    def test_calibrated_nominal_point(self):
        pc, thrust = chamber_state(1.63, self.CHAMBER, AMBIENT_PRESSURE)
        assert pc == pytest.approx(24e5, rel=1e-4)
        assert thrust == pytest.approx(3000.0, rel=1e-4)

    def test_linearity(self):
        pc_full, f_full = chamber_state(1.63, self.CHAMBER, AMBIENT_PRESSURE)
        pc_half, f_half = chamber_state(0.815, self.CHAMBER, AMBIENT_PRESSURE)
        assert pc_half == pytest.approx(pc_full / 2.0, rel=1e-12)
        assert f_half == pytest.approx(f_full / 2.0, rel=1e-12)


class TestBlowdownOracle:
    def test_forward_euler_matches_production_integrator(self):
        """Supply blowing down through a fixed gas valve into a closed tank:
        brute-force forward Euler at dt = 1e-5 vs the engine's RK4 at
        dt = 1e-3, within 0.5 percent in final supply pressure."""
        angle = 25.0
        controllers = {
            "ox_tank": {"locked_angle_deg": angle},
            "fuel_tank": {"locked_angle_deg": 0.0},
            "ox_inj": {"locked_angle_deg": 0.0},
            "fuel_inj": {"locked_angle_deg": 0.0},
        }
        config = build_small_scenario(
            controllers=controllers,
            supply={"volume_m3": 0.004, "initial_pressure_bar": 310.0},
            duration_s=3.0,
            timing={"dt_phys_s": 0.001, "dt_secondary_s": 0.001, "dt_primary_s": 0.01},
        )
        plant = _Plant(config)
        plant.set_angles([angle, 0.0, 0.0, 0.0])  # EREG_NAMES order: ox_tank open
        for _ in range(3000):
            plant.step(0.001)
        production_final = plant.supply_pressure

        # Independent fine-step integration of the same physical laws.
        rt = 296.8 * 293.0
        valve = config.valves["ox_tank"]
        cv = valve.alpha * (angle - valve.theta_zero)
        k = valve.choked_constant
        v_sup, v_ull = 0.004, config.tanks["ox"].total_volume * 0.3
        m_sup = 310e5 * v_sup / rt
        m_ull = 42e5 * v_ull / rt
        dt = 1e-5
        for _ in range(300_000):
            p_sup = m_sup * rt / v_sup
            p_ull = m_ull * rt / v_ull
            ratio = p_ull / p_sup
            if ratio <= 0.528:
                fade = 1.0
            elif ratio >= 1.0:
                fade = 0.0
            else:
                fade = (1.0 - ratio) / (1.0 - 0.528)
            mdot = k * cv * p_sup * fade
            m_sup -= mdot * dt
            m_ull += mdot * dt
        euler_final = m_sup * rt / v_sup

        assert production_final == pytest.approx(euler_final, rel=5e-3)


@functools.cache
def shipped_config(name: str):
    return load_scenario(SCENARIO_DIR / f"{name}.yaml")


# A valve angle: a hard stop, the valve's own dead-band edge, or anywhere.
ANGLE = st.one_of(st.sampled_from((0.0, "theta_zero", FULL_TRAVEL)), st.floats(0.0, FULL_TRAVEL))
PRESSURE = st.one_of(st.just(0.0), st.floats(0.0, 400e5))


def valve_angles(valves, drawn) -> list[float]:
    """The drawn ANGLEs with "theta_zero" read off each valve."""
    return [v.theta_zero if a == "theta_zero" else a for v, a in zip(valves, drawn)]


@st.composite
def supply_and_tank_pressures(draw):
    """(p_sup, (p_ox, p_fuel)); a tank pressure is often near the supply's,
    where the gas valves fade out."""
    p_sup = draw(PRESSURE)
    tank = st.one_of(PRESSURE, st.floats(0.5, 1.05).map(lambda ratio: ratio * p_sup))
    return p_sup, (draw(tank), draw(tank))


class TestNetworkMatchesFluidLaws:
    """_Plant._network and snapshot() restate the fluids flow laws for speed;
    the laws are their reference, bit for bit, at the back pressure of the
    open branches."""

    @pytest.mark.parametrize("name", ["waterflow_blowdown", "staticfire_baseline"])
    @settings(max_examples=300, deadline=None)
    @given(
        angles=st.lists(ANGLE, min_size=4, max_size=4),
        pressures=supply_and_tank_pressures(),
        wet=st.tuples(st.booleans(), st.booleans()),
    )
    def test_each_side_equals_the_fluids_laws(self, name, angles, pressures, wet):
        p_sup, p_tank = pressures
        config = shipped_config(name)
        plant = _Plant(config)
        angles = valve_angles(plant.valves, angles)
        plant.set_angles(angles)
        warm_start = plant._pc_guess
        liquid = [1.0 if w else 0.0 for w in wet]
        *flows, back = plant._network(p_sup, *p_tank, *liquid)
        plant._pc_guess = warm_start  # each solve below starts from the same guess
        assert back.hex() == plant._back_pressure(*p_tank, *liquid).hex()
        plant._pc_guess = warm_start
        plant.supply_pressure, plant.ullage_pressure, plant.liquid_volume = p_sup, p_tank, liquid
        snapshot = plant.snapshot()
        for i, side in enumerate(SIDES):
            gas = gas_valve_mass_flow(plant.valves[i], angles[i], p_sup, p_tank[i])
            # A dry tank passes no liquid, like a shut valve.
            cv = cv_of_angle(plant.valves[2 + i], angles[2 + i]) if wet[i] else 0.0
            q, p_injector = branch_flow(
                p_tank[i], back, config.tanks[side].liquid_density, cv,
                config.lines[side].loss_coefficient, config.injectors[side].coeff,
            )
            assert [flows[i].hex(), flows[2 + i].hex()] == [gas.hex(), q.hex()]
            got = (snapshot.mdot_gas[i], snapshot.q_liquid[i], snapshot.p_injector[i])
            assert [x.hex() for x in got] == [x.hex() for x in (gas, q, p_injector)]

    @pytest.mark.parametrize("angle", [-1e-9, FULL_TRAVEL + 1e-9])
    @pytest.mark.parametrize("valve", range(4), ids=EREG_NAMES)
    def test_set_angles_rejects_an_angle_off_the_travel(self, valve, angle):
        plant = _Plant(shipped_config("staticfire_baseline"))
        angles = [30.0] * 4
        angles[valve] = angle
        with pytest.raises(ValueError, match="outside"):
            plant.set_angles(angles)


@functools.cache
def dense_ox_config():
    """The baseline with ox at rho = 1e200, where the root-find's bracket
    closes to adjacent floats before the residual is below tolerance."""
    data = load_yaml(SCENARIO_DIR / "staticfire_baseline.yaml")
    data["tanks"]["ox"]["liquid_density_kg_m3"] = 1e200
    return scenario_from_dict(data)


# A tank pressure: anywhere, at the shipped setpoint, or just above ambient
# where the chamber stays at ambient (weak flow).
TANK_PRESSURE = st.one_of(
    st.floats(0.0, 400e5), st.just(42e5), st.floats(AMBIENT_PRESSURE, AMBIENT_PRESSURE + 2e3)
)


class TestBackPressureMatchesLoop:
    """_Plant._back_pressure unrolls the two branches; the list-based loop in
    tests/oracles.py is its reference, bit for bit, warm start included."""

    @pytest.mark.parametrize("dense", [False, True], ids=["baseline", "ox_rho_1e200"])
    @settings(max_examples=300, deadline=None)
    @given(
        angles=st.tuples(ANGLE, ANGLE),
        p_tank=st.tuples(TANK_PRESSURE, TANK_PRESSURE),
        wet=st.tuples(st.booleans(), st.booleans()),
        guess=st.one_of(st.just(AMBIENT_PRESSURE), st.floats(0.0, 60e5)),
    )
    @example(angles=(60.0, 60.0), p_tank=(42e5, 42e5), wet=(True, True), guess=AMBIENT_PRESSURE)
    @example(angles=(60.0, 0.0), p_tank=(42e5, 42e5), wet=(True, True), guess=20e5)
    @example(angles=(60.0, 60.0), p_tank=(42e5, 42e5), wet=(False, True), guess=20e5)
    @example(angles=(0.0, 0.0), p_tank=(42e5, 42e5), wet=(True, True), guess=20e5)
    @example(angles=(60.0, 60.0), p_tank=(1.02e5, 1.02e5), wet=(True, True), guess=20e5)
    def test_same_root_and_warm_start(self, dense, angles, p_tank, wet, guess):
        plant = _Plant(dense_ox_config() if dense else shipped_config("staticfire_baseline"))
        plant.set_angles([0.0, 0.0, *valve_angles(plant.valves[2:], angles)])
        liquid = [1.0 if w else 0.0 for w in wet]
        plant._pc_guess = guess
        try:
            pc, warm_start = back_pressure_reference(plant, p_tank, liquid)
        except ModelError:
            with pytest.raises(ModelError):
                plant._back_pressure(*p_tank, *liquid)
            return
        assert plant._back_pressure(*p_tank, *liquid).hex() == pc.hex()
        assert plant._pc_guess.hex() == warm_start.hex()

    @settings(max_examples=200, deadline=None)
    @given(first=st.lists(ANGLE, min_size=4, max_size=4),
           second=st.lists(ANGLE, min_size=4, max_size=4))
    def test_set_angles_skips_only_unchanged_valves(self, first, second):
        config = shipped_config("staticfire_baseline")
        moved, fresh = _Plant(config), _Plant(config)
        moved.set_angles(valve_angles(moved.valves, first))
        moved.set_angles(valve_angles(moved.valves, second))
        fresh.set_angles(valve_angles(moved.valves, second))
        assert repr((moved._kcv, moved._branch)) == repr((fresh._kcv, fresh._branch))
