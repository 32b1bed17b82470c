import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eregsim.control import (
    Actuator,
    ActuatorSettings,
    ControllerSettings,
    EregController,
    FeedforwardParams,
    PidController,
    PidGains,
    clamp,
    ff_injector,
    ff_tank,
)
from eregsim.errors import ControllerError
from eregsim.fluids import ValveModel
from tests.oracles import ActuatorState, PidState, actuator_step_reference, pid_step_reference

GAS_VALVE = ValveModel(alpha=9.375e-8, theta_zero=10.0, rated_pressure=415e5,
                       choked_constant=1.6774194e-3)
LIQ_VALVE = ValveModel(alpha=4.0e-6, theta_zero=10.0, rated_pressure=78e5)


def make_pid(kp=1.0, ki=0.0, kd=0.0, out=(-100.0, 100.0), integral=(-50.0, 50.0), dt=0.01):
    return PidController(PidGains(kp, ki, kd), out, integral, dt)


class TestPid:
    def test_zero_error_zero_output(self):
        pid = make_pid(kp=2.0, ki=1.0, kd=0.5)
        for _ in range(20):
            assert pid.step(5.0, 5.0) == 0.0

    def test_pure_proportional(self):
        pid = make_pid(kp=3.0)
        assert pid.step(2.0, 0.0) == pytest.approx(6.0, rel=1e-12)

    def test_rectangular_integration(self):
        n, dt, e = 250, 0.01, 1.3
        pid = make_pid(kp=0.0, ki=0.7, dt=dt)
        out = 0.0
        for _ in range(n):
            out = pid.step(e, 0.0)
        assert out == pytest.approx(0.7 * e * n * dt, rel=1e-12)

    def test_non_finite_input_is_fatal(self):
        pid = make_pid()
        with pytest.raises(ControllerError):
            pid.step(math.nan, 0.0)
        with pytest.raises(ControllerError):
            pid.step(0.0, math.inf)

    def test_anti_windup_freezes_integral_when_saturated(self):
        pid = make_pid(kp=1.0, ki=10.0, out=(-1.0, 1.0))
        previous = pid.integral
        for _ in range(50):
            pid.step(100.0, 0.0)  # output pinned at +1, error positive
            assert pid.integral <= previous + 1e-15
            previous = pid.integral

    def test_integral_respects_limits(self):
        pid = make_pid(kp=0.0, ki=10.0, out=(-1e9, 1e9), integral=(-0.5, 0.5))
        for _ in range(1000):
            pid.step(10.0, 0.0)
        assert pid.integral == pytest.approx(0.5)

    def test_setpoint_step_causes_no_derivative_kick(self):
        pid = make_pid(kp=0.0, ki=0.0, kd=100.0)
        pid.step(0.0, 3.0)
        out = pid.step(1000.0, 3.0)  # setpoint jumps, measurement still
        assert out == 0.0

    def test_derivative_opposes_rising_measurement(self):
        pid = make_pid(kp=0.0, ki=0.0, kd=1.0)
        pid.step(0.0, 0.0)
        out = pid.step(0.0, 1.0)
        assert out < 0.0

    def test_sample_period_checked_at_build(self):
        for dt in (0.0, -0.01, math.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                make_pid(dt=dt)


class TestDynamicGains:
    """The ff+dyn primary gains scale by min(1, t/T), T = 2 s in make_ereg."""

    PRIMARY = PidGains(4.0e-5, 6.0e-5, 0.0)  # degrees per Pa, per Pa*s
    FULL = 4.0 + 0.06  # kp*e + ki*e*dt_primary for a 1 bar error

    def feedback(self, t):
        """Primary PID output of a fresh ff+dyn regulator 1 bar low at time t."""
        ctrl = make_ereg(primary=self.PRIMARY)
        ctrl.step(41e5, 310e5, 42e5, t, True)
        return ctrl.u1 - ctrl.last_feedforward

    def test_zero_at_start(self):
        assert self.feedback(0.0) == 0.0

    def test_saturates_at_base(self):
        for t in (2.0, 5.0, 100.0):
            assert self.feedback(t) == pytest.approx(self.FULL, rel=1e-12)

    def test_half_at_half_ramp(self):
        assert self.feedback(1.0) == pytest.approx(0.5 * self.FULL, rel=1e-12)

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_exactly_linear_on_ramp(self, a, b):
        assert self.feedback(a) * b == pytest.approx(self.feedback(b) * a, abs=1e-9)


class TestFeedforwardTank:
    FF = FeedforwardParams(gamma=60.0, alpha=GAS_VALVE.alpha, theta_zero=10.0)

    def test_saturated_ratio(self):
        assert ff_tank(self.FF, 42e5, 42e5) == 70.0
        assert ff_tank(self.FF, 50e5, 42e5) == 70.0

    def test_half_ratio(self):
        assert ff_tank(self.FF, 21e5, 42e5) == pytest.approx(40.0, rel=1e-12)

    def test_hand_evaluated_point(self):
        assert ff_tank(self.FF, 42e5, 310e5) == pytest.approx(18.129032258, rel=1e-9)

    @given(st.floats(1e5, 5e7), st.floats(1e5, 5e7), st.floats(0.5, 20.0))
    def test_scale_invariance(self, s, p, scale):
        assert ff_tank(self.FF, s * scale, p * scale) == pytest.approx(
            ff_tank(self.FF, s, p), rel=1e-9
        )

    def test_clamped_to_travel(self):
        wide = FeedforwardParams(gamma=200.0, theta_zero=10.0)
        assert ff_tank(wide, 42e5, 42e5) == 90.0

    @pytest.mark.parametrize("supply", [0.0, -0.05e5], ids=["zero", "negative"])
    def test_empty_supply_reading_takes_the_ratio_limit(self, supply):
        # min(1, s/p) tends to 1 as p falls to 0; a noisy sensor reads below 0.
        assert ff_tank(self.FF, 42e5, supply) == ff_tank(self.FF, 42e5, 42e5) == 70.0


class TestFeedforwardInjector:
    FF = FeedforwardParams(
        nominal_flow=1.0e-3, fluid_density=1141.0, alpha=4.0e-6, theta_zero=10.0, min_drop=1e4
    )

    def test_large_drop_approaches_dead_band(self):
        assert ff_injector(self.FF, 1e5, 1e9) == pytest.approx(10.0, abs=0.5)

    def test_singular_branch_goes_fully_open(self):
        assert ff_injector(self.FF, 42e5, 42e5) == 90.0
        assert ff_injector(self.FF, 41.95e5, 42e5) == 90.0  # drop below the floor

    def test_hand_evaluated_point(self):
        assert ff_injector(self.FF, 35e5, 42e5) == pytest.approx(20.0933, rel=1e-4)


def make_actuator(time_constant=0.020, rate_max=180.0, backlash=0.0, encoder_counts_per_degree=0.0,
                  dt=0.001):
    return Actuator(
        ActuatorSettings(time_constant, rate_max, backlash, encoder_counts_per_degree), dt
    )


class TestActuator:
    def test_no_command_from_rest(self):
        act = make_actuator(time_constant=0.02, rate_max=180.0)
        for _ in range(100):
            act.step(0.0)
        assert act.angle == 0.0

    def test_full_command_reaches_and_holds_stop(self):
        act = make_actuator(time_constant=0.02, rate_max=180.0)
        for _ in range(2000):
            act.step(1.0)
        assert act.angle == 90.0
        assert act.rate == 0.0

    def test_first_order_closed_form(self):
        # theta(t) = rate_max * (t - tau * (1 - exp(-t/tau))) from rest.
        tau, rate_max, t_end = 0.02, 180.0, 0.1
        closed = rate_max * (t_end - tau * (1.0 - math.exp(-t_end / tau)))
        assert closed == pytest.approx(14.4243, abs=1e-3)

        fine = make_actuator(time_constant=tau, rate_max=rate_max, dt=1e-5)
        for _ in range(10_000):
            fine.step(1.0)
        assert fine.angle == pytest.approx(closed, abs=0.01)

        production = make_actuator(time_constant=tau, rate_max=rate_max, dt=1e-3)
        for _ in range(100):
            production.step(1.0)
        assert production.angle == pytest.approx(closed, rel=5e-3)

    def test_command_clamped(self):
        # A command beyond [-1, 1] moves the shaft as the bound itself does,
        # and as the reference does with the command as given.
        shaft = ActuatorSettings(0.020, 180.0, 0.0, 0.0)
        act, bound, state = Actuator(shaft, 0.001), Actuator(shaft, 0.001), ActuatorState()
        for command in (7.0, 7.0, -7.0):
            act.step(command)
            bound.step(math.copysign(1.0, command))
            actuator_step_reference(state, shaft, 0.001, command)
            got = [(a.angle, a.valve_angle, a.rate) for a in (act, bound)]
            assert got == [(state.angle, state.valve_angle, state.rate)] * 2
            assert act.rate != 0.0

    def test_backlash_lost_motion(self):
        act = make_actuator(backlash=1.0)
        for _ in range(200):
            act.step(1.0)
        assert act.valve_angle == pytest.approx(act.angle - 1.0, rel=1e-9)
        # Reversing: the valve holds until the motor crosses the lash band.
        peak = max(act.angle, 0.0)
        held = act.valve_angle
        while act.angle > peak - 0.5:
            act.step(-1.0)
            peak = max(peak, act.angle)
            held = max(held, act.valve_angle)
        assert act.valve_angle == held  # motor moved 0.5 deg, valve did not
        while act.angle > peak - 2.0:
            act.step(-1.0)
        assert act.valve_angle == pytest.approx(act.angle, rel=1e-9)  # lash taken up

    def test_sample_period_checked_at_build(self):
        for dt in (0.0, -0.001, math.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                make_actuator(dt=dt)

    def test_encoder_quantization(self):
        act = make_actuator(encoder_counts_per_degree=10.0)
        assert act.measured_angle == 0.0  # no reading before the first step
        act.angle = 12.3456
        act.step(0.0)  # at rest with no command the shaft holds its angle
        assert act.angle == 12.3456
        assert act.measured_angle == pytest.approx(12.3)



def span(lo, hi):
    """An ordered pair of floats drawn from [lo, hi]."""
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted).map(tuple)


GAIN = st.one_of(st.just(0.0), st.floats(0.0, 50.0))


class TestStepsMatchReference:
    """The step methods keep the arithmetic order of the plain formulas in
    tests/oracles.py, bit for bit, over several steps."""

    @settings(max_examples=200, deadline=None)
    @given(
        gains=st.builds(PidGains, GAIN, GAIN, GAIN),
        scale=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
        integral_limits=span(-60.0, 60.0),
        dt=st.floats(1e-4, 0.1),
        # Per step: setpoint, measurement and the feedforward angle that
        # shifts the output limits, as on a primary tick.
        steps=st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
                                 st.floats(0.0, 90.0)), min_size=1, max_size=12),
    )
    def test_pid_step(self, gains, scale, integral_limits, dt, steps):
        pid = PidController(gains, (0.0, 90.0), integral_limits, dt)
        state = PidState()
        for setpoint, measurement, ff in steps:
            pid.output_limits = (-ff, 90.0 - ff)
            output = pid.step(setpoint, measurement, scale)
            expected = pid_step_reference(state, gains, pid.output_limits, integral_limits, dt,
                                          setpoint, measurement, scale)
            assert output.hex() == expected.hex()
            assert (pid.integral.hex(), pid._filtered_measurement.hex()) == (
                state.integral.hex(), state.filtered_measurement.hex()
            )

    @settings(max_examples=200, deadline=None)
    @given(
        actuator=st.builds(
            ActuatorSettings,
            time_constant=st.floats(1e-3, 1.0),
            rate_max=st.floats(1.0, 2000.0),
            backlash=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
            encoder_counts_per_degree=st.one_of(st.just(0.0), st.floats(0.5, 100.0)),
        ),
        dt=st.floats(1e-4, 0.05),
        commands=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30),
    )
    def test_actuator_step(self, actuator, dt, commands):
        act = Actuator(actuator, dt)
        assert act.measured_angle.hex() == (0.0).hex()
        state = ActuatorState()
        for command in commands:
            act.step(command)
            actuator_step_reference(state, actuator, dt, command)
            got = (act.angle, act.valve_angle, act.rate)
            assert [x.hex() for x in got] == [
                x.hex() for x in (state.angle, state.valve_angle, state.rate)
            ]
            counts = actuator.encoder_counts_per_degree
            reading = math.floor(state.angle * counts) / counts if counts > 0.0 else state.angle
            assert act.measured_angle.hex() == reading.hex()


def controller_settings(ff, primary):
    return ControllerSettings(
        primary_gains=primary,
        secondary_gains=PidGains(0.5, 1.0, 0.01),
        ramp_time=2.0,
        feedforward=ff,
        integral_limits=(-45.0, 45.0),
        secondary_integral_limits=(-0.5, 0.5),
        locked_angle=None,
    )


def make_ereg(kind="tank", variant="ff+dyn", primary=PidGains(4.0e-5, 6.0e-5, 0.0)):
    valve = GAS_VALVE if kind == "tank" else LIQ_VALVE
    ff = FeedforwardParams(
        gamma=73.0,
        nominal_flow=1.0e-3,
        fluid_density=1141.0,
        alpha=valve.alpha,
        theta_zero=valve.theta_zero,
        min_drop=1e4,
    )
    return EregController(
        kind=kind,
        settings=controller_settings(ff, primary),
        actuator=make_actuator(),
        primary_period=0.01,
        secondary_period=0.001,
        variant=variant,
    )


class TestEregController:
    def test_feedforward_only_traces_formula_exactly(self):
        ctrl = make_ereg(primary=PidGains(0.0, 0.0, 0.0))
        t = 0.0
        for k in range(500):
            p_sup = 310e5 - 2e7 * t
            ctrl.step(41.5e5, p_sup, 42e5, t, k % 10 == 0)
            if k % 10 == 0:
                expected = ff_tank(ctrl.feedforward, 42e5, p_sup)
                assert ctrl.u1 == expected
            t += 0.001

    def test_zero_error_fresh_state_gives_feedforward(self):
        ctrl = make_ereg()
        ctrl.step(42e5, 310e5, 42e5, 0.0, True)
        assert ctrl.u1 == pytest.approx(ff_tank(ctrl.feedforward, 42e5, 310e5), rel=1e-12)

    @given(
        st.floats(1e4, 5e7), st.floats(1e5, 5e7), st.floats(1e4, 9e6),
        st.floats(0.0, 20.0),
    )
    def test_outputs_always_in_range(self, downstream, upstream, setpoint, t):
        ctrl = make_ereg(primary=PidGains(1e-3, 1e-3, 1e-5))
        for k in range(3):
            u2 = ctrl.step(downstream, upstream, setpoint, t, k == 0)
        assert 0.0 <= ctrl.u1 <= 90.0
        assert abs(u2) <= 1.0

    def test_deterministic_twins(self):
        a, b = make_ereg(), make_ereg()
        inputs = [
            (41e5 + 1e3 * k, 310e5 - 1e4 * k, 42e5, 0.001 * k, k % 10 == 0) for k in range(1000)
        ]
        for (d, u, s, t, primary) in inputs:
            ua = a.step(d, u, s, t, primary)
            ub = b.step(d, u, s, t, primary)
            assert ua == ub
            a.actuator.step(ua)
            b.actuator.step(ub)
            assert a.actuator.angle == b.actuator.angle

    def test_primary_refresh_period(self):
        ctrl = make_ereg()
        ctrl.step(40e5, 310e5, 42e5, 0.0, True)
        u1_first = ctrl.u1
        # Secondary ticks between primary refreshes must not change u1.
        for k in range(1, 10):
            ctrl.step(30e5, 310e5, 42e5, 0.001 * k, False)
            assert ctrl.u1 == u1_first
        ctrl.step(30e5, 310e5, 42e5, 0.010, True)
        assert ctrl.u1 != u1_first

    def test_variants_select_feedforward_and_ramp(self):
        # 1 bar below the setpoint at t = 1 s, halfway up the 2 s gain ramp.
        primary = PidGains(4.0e-5, 0.0, 0.0)  # 4 degrees for the 1 bar error
        ff_angle = ff_tank(make_ereg().feedforward, 42e5, 310e5)
        expected = {"ff+dyn": ff_angle + 2.0, "pid": 4.0, "ff": ff_angle}
        for variant, u1 in expected.items():
            ctrl = make_ereg(variant=variant, primary=primary)
            ctrl.step(41e5, 310e5, 42e5, 1.0, True)
            assert ctrl.u1 == pytest.approx(u1, rel=1e-12), variant
        with pytest.raises(ValueError, match="bogus"):
            make_ereg(variant="bogus")


INF = math.inf


class TestFiniteInputs:
    """Each step method tests the sum of its inputs once and names the first
    non-finite input only when that sum is not finite."""

    CASES = {
        # (inputs in argument order, the input the error must name)
        "nan_last": ((1.0, 2.0, math.nan), "setpoint=nan"),
        "opposite_infinities": ((INF, -INF, 1.0), "downstream_pressure=inf"),
        "nan_after_inf": ((1.0, -INF, math.nan), "upstream_pressure=-inf"),
    }

    @pytest.mark.parametrize("inputs, named", CASES.values(), ids=CASES.keys())
    def test_ereg_names_the_first_non_finite_input(self, inputs, named):
        with pytest.raises(ControllerError, match=f"non-finite controller input: {named}$"):
            make_ereg().step(*inputs, 0.0, True)

    @pytest.mark.parametrize("inputs, named", [
        ((1.0, math.nan), "measurement=nan"),
        ((INF, -INF), "setpoint=inf"),
        ((-INF, INF), "setpoint=-inf"),
    ])
    def test_pid_names_the_first_non_finite_input(self, inputs, named):
        with pytest.raises(ControllerError, match=f"non-finite controller input: {named}$"):
            make_pid().step(*inputs)

    @pytest.mark.parametrize("command", [math.nan, INF, -INF])
    def test_actuator_names_the_command(self, command):
        with pytest.raises(ControllerError, match=f"command={command}$"):
            make_actuator().step(command)

    def test_finite_inputs_whose_sum_overflows_pass(self):
        big = 1.7e308  # any two of these sum to inf
        assert math.isinf(big + big)
        assert make_pid().step(big, big) == 0.0
        ctrl = make_ereg()
        ctrl.step(big, big, big, 0.0, True)
        assert math.isfinite(ctrl.u1) and math.isfinite(ctrl.u2)


SIGNED = st.one_of(st.floats(allow_nan=True), st.sampled_from((0.0, -0.0, INF, -INF)))


class TestClamp:
    @given(SIGNED, SIGNED, SIGNED)
    def test_same_operand_as_min_max(self, x, lo, hi):
        assert repr(clamp(x, lo, hi)) == repr(min(max(x, lo), hi))

    def test_negative_zero_valve_setpoint_keeps_its_sign(self):
        # ff+dyn at t = 0 (PID scale 0) with a -0.0 feedforward and a -0.0
        # integral: every term of ff + PID is -0.0, and so is their sum.
        ff = FeedforwardParams(gamma=-0.0, theta_zero=-0.0)
        ctrl = EregController("tank", controller_settings(ff, PidGains(1.0, 1.0, 1.0)),
                              make_actuator(), 0.01, 0.001, "ff+dyn")
        ctrl.primary.integral = -0.0
        ctrl.step(43e5, 310e5, 42e5, 0.0, True)
        assert math.copysign(1.0, ctrl.last_feedforward) == -1.0
        assert math.copysign(1.0, ctrl.u1) == -1.0
