import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from eregsim import calibration
from eregsim.calibration import (
    THETA_GRID_STEP,
    FlowSample,
    choked_samples,
    cv_from_sample,
    fit_choked_constant,
    fit_cv_curve,
    fit_gamma,
    gas_samples_from_telemetry,
    liquid_samples_from_telemetry,
    steady_records,
    write_fit_result,
)
from eregsim.control import ff_tank, FeedforwardParams
from eregsim.engine import run_scenario
from eregsim.errors import DegenerateFitError, EregSimError
from eregsim.fluids import FULL_TRAVEL, ValveModel, cv_of_angle, liquid_volumetric_flow
from eregsim.telemetry import EVENT_ABORT, EVENT_LIQUID_DEPLETED, EVENT_SUPPLY_DEPLETED
from tests.oracles import cv_fit_objective, grid_cv_fit


def synthetic_cv_samples(alpha, theta_zero, angles, noise=0.0, rng=None):
    valve = ValveModel(alpha=alpha, theta_zero=theta_zero, rated_pressure=1e7)
    samples = []
    for theta in angles:
        cv = cv_of_angle(valve, theta)
        if noise and rng is not None:
            cv += rng.normal(0.0, noise)
        samples.append((theta, cv))
    return samples


class TestCvFromSample:
    def test_round_trips_generating_cv(self):
        valve = ValveModel(alpha=4.0e-6, theta_zero=10.0, rated_pressure=78e5)
        theta, dp, rho = 27.0, 6.4e5, 1141.0
        q = liquid_volumetric_flow(valve, theta, dp, rho)
        sample = FlowSample(theta, 42e5, 42e5 - dp, q, rho, "liquid")
        assert cv_from_sample(sample) == pytest.approx(cv_of_angle(valve, theta), rel=1e-12)

    def test_zero_flow_zero_cv(self):
        sample = FlowSample(5.0, 42e5, 40e5, 0.0, 1141.0, "liquid")
        assert cv_from_sample(sample) == 0.0

    def test_hand_evaluated_inverse(self):
        sample = FlowSample(20.0, 42e5, 35e5, 9.9076e-4, 1141.0, "liquid")
        assert cv_from_sample(sample) == pytest.approx(4.0e-5, rel=1e-4)

    def test_nonpositive_drop_rejected(self):
        sample = FlowSample(20.0, 35e5, 42e5, 1e-3, 1141.0, "liquid")
        with pytest.raises(ValueError):
            cv_from_sample(sample)

    def test_gas_inversion_needs_constant(self):
        sample = FlowSample(20.0, 310e5, 42e5, 0.05, 0.0, "gas")
        with pytest.raises(ValueError):
            cv_from_sample(sample)
        k = 1.6774194e-3
        assert cv_from_sample(sample, k) == pytest.approx(0.05 / (k * 310e5), rel=1e-12)

    @pytest.mark.parametrize(
        "sample, k",
        [
            (FlowSample(30.0, 1e-290, 0.0, 1.0, 1e300, "liquid"), 0.0),  # dp / rho underflows
            (FlowSample(30.0, 1e-4, 0.0, 0.05, 0.0, "gas"), 5e-324),  # k * p_up underflows
        ],
        ids=["liquid", "gas"],
    )
    def test_divisor_underflowing_to_zero_is_rejected(self, sample, k):
        with pytest.raises(ValueError):
            cv_from_sample(sample, k)

    @pytest.mark.parametrize("density", [0.0, -1141.0])
    def test_liquid_density_not_above_zero_is_malformed(self, density):
        sample = FlowSample(20.0, 42e5, 35e5, 1e-3, density, "liquid")
        with pytest.raises(EregSimError, match="density"):
            cv_from_sample(sample)

    def test_finite_fields_whose_sum_overflows_validate(self):
        FlowSample(30.0, 1e308, 1e308, 1.0, 1141.0, "liquid").validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["upstream_pressure", "downstream_pressure", "flow", "fluid_density"]
    )
    def test_non_finite_field_is_named(self, field, value):
        fields = dict(valve_angle=30.0, upstream_pressure=42e5, downstream_pressure=35e5,
                      flow=1e-3, fluid_density=1141.0, phase="liquid")
        fields[field] = value
        with pytest.raises(EregSimError, match=f"^non-finite sample field {field}$"):
            FlowSample(**fields).validate()


class TestFitCvCurve:
    def test_noiseless_recovery(self):
        angles = np.linspace(0.0, 90.0, 40)
        samples = synthetic_cv_samples(3.7e-6, 12.34, angles)
        fit = fit_cv_curve(samples)
        assert fit.alpha == pytest.approx(3.7e-6, rel=0.01)
        assert fit.theta_zero == pytest.approx(12.34, abs=0.1)
        assert fit.sample_count == 40

    def test_on_grid_breakpoint_is_exact(self):
        samples = synthetic_cv_samples(5.0e-6, 15.0, np.linspace(5.0, 88.0, 25))
        fit = fit_cv_curve(samples)
        assert fit.alpha == pytest.approx(5.0e-6, rel=1e-9)
        assert fit.theta_zero == pytest.approx(15.0, abs=1e-9)
        assert fit.residual_rms <= 1e-12

    def test_dead_band_zeros_do_not_bias_alpha(self):
        rng = np.random.default_rng(7)
        angles = list(np.linspace(20.0, 90.0, 30))
        noisy = synthetic_cv_samples(4.0e-6, 15.0, angles, noise=2e-6, rng=rng)
        with_zeros = noisy + [(t, 0.0) for t in np.linspace(0.0, 14.9, 15)]
        assert fit_cv_curve(noisy + [(5.0, 0.0), (10.0, 0.0), (14.0, 0.0)]).alpha == pytest.approx(
            fit_cv_curve(with_zeros).alpha, rel=1e-6
        )

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFitError):
            fit_cv_curve([(30.0, 1e-5), (30.0, 1.1e-5), (30.0, 0.9e-5)])
        with pytest.raises(DegenerateFitError):
            fit_cv_curve([(30.0, 1e-5), (40.0, 2e-5)])
        with pytest.raises(DegenerateFitError):
            fit_cv_curve([(10.0, 0.0), (40.0, 0.0), (70.0, 0.0)])

    def test_noise_monte_carlo_residual_tracks_sigma(self):
        sigma = 1.0e-5
        angles = np.linspace(0.0, 90.0, 100)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            samples = synthetic_cv_samples(4.0e-6, 12.0, angles, noise=sigma, rng=rng)
            fit = fit_cv_curve(samples)
            assert sigma / 1.5 <= fit.residual_rms <= sigma * 1.5

    def test_grid_optimality_beats_true_parameters(self):
        angles = np.linspace(0.0, 90.0, 60)
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            samples = synthetic_cv_samples(4.0e-6, 12.0, angles, noise=5e-6, rng=rng)
            fit = fit_cv_curve(samples)
            assert cv_fit_objective(samples, fit.alpha, fit.theta_zero) <= cv_fit_objective(
                samples, 4.0e-6, 12.0
            ) + 1e-30


def fit_or_degenerate(fit, samples):
    try:
        return fit(samples)
    except DegenerateFitError:
        return DegenerateFitError


@st.composite
def cv_sweeps(draw):
    """(theta, Cv) logs of a valve curve: 3-2,000 samples, angles on the
    breakpoint grid, off it, in a few repeated values or in a narrow
    cluster, dead-band zeros, Cv scales 1e-8 to 1e2 and 0-10 % noise."""
    n = draw(st.integers(3, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["grid", "uniform", "linspace", "repeated", "cluster"]))
    if layout == "grid":
        angles = rng.choice(np.append(np.arange(0.0, FULL_TRAVEL, THETA_GRID_STEP), FULL_TRAVEL), n)
    elif layout == "uniform":
        angles = rng.uniform(0.0, FULL_TRAVEL, n)
    elif layout == "linspace":
        angles = np.linspace(0.0, FULL_TRAVEL, n)
    elif layout == "repeated":
        angles = rng.choice(rng.uniform(0.0, FULL_TRAVEL, draw(st.integers(2, 6))), n)
    else:
        low = draw(st.floats(0.0, FULL_TRAVEL - 0.5))
        angles = rng.uniform(low, low + 0.5, n)
    scale = 10.0 ** draw(st.floats(-8.0, 2.0))
    open_cv = scale * np.maximum(angles - draw(st.floats(0.0, 80.0)), 0.0) / FULL_TRAVEL
    noise = draw(st.floats(0.0, 0.1))
    if draw(st.booleans()):  # relative noise keeps the dead band at exactly 0
        cvs = open_cv * (1.0 + noise * rng.standard_normal(n))
    else:
        cvs = open_cv + noise * scale * rng.standard_normal(n)
    return list(zip(angles.tolist(), cvs.tolist()))


class TestFitCvCurveMatchesGridLoop:
    """fit_cv_curve screens the breakpoints in closed form; its result must
    be the plain grid loop's (tests.oracles.grid_cv_fit) to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(cv_sweeps())
    def test_equals_the_grid_loop(self, samples):
        assert fit_or_degenerate(fit_cv_curve, samples) == fit_or_degenerate(grid_cv_fit, samples)

    def test_tie_goes_to_the_smallest_breakpoint(self):
        # One open sample: every breakpoint below it fits it exactly.
        samples = [(0.0, 0.0), (0.0, 0.0), (89.95, 2.0e-5)]
        fit = fit_cv_curve(samples)
        assert fit == grid_cv_fit(samples)
        assert fit.theta_zero == 0.0 and fit.residual_rms == 0.0

    def test_overflowing_cv_matches_the_grid_loop(self):
        # Squared residuals overflow at every breakpoint: the first one wins.
        samples = synthetic_cv_samples(1e200, 10.0, np.linspace(0.0, 90.0, 50), noise=1e200,
                                       rng=np.random.default_rng(0))
        fit = fit_cv_curve(samples)
        assert repr(fit) == repr(grid_cv_fit(samples))
        assert fit.theta_zero == 0.0 and fit.residual_rms == float("inf")

    def test_full_pass_only_for_the_best_breakpoints(self, monkeypatch):
        passes = []
        full_pass = calibration._breakpoint_fit
        monkeypatch.setattr(calibration, "_breakpoint_fit",
                            lambda *args: passes.append(args[2]) or full_pass(*args))
        rng = np.random.default_rng(3)
        angles = np.linspace(0.0, 90.0, 1000)
        samples = synthetic_cv_samples(4.0e-6, 12.34, angles, noise=4e-7, rng=rng)
        fit = fit_cv_curve(samples)
        assert 1 <= len(passes) <= 3
        assert fit.theta_zero in passes
        assert fit == grid_cv_fit(samples)

    def test_all_zero_cv_is_degenerate_without_a_full_pass(self, monkeypatch):
        passes = []
        full_pass = calibration._breakpoint_fit
        monkeypatch.setattr(calibration, "_breakpoint_fit",
                            lambda *args: passes.append(args[2]) or full_pass(*args))
        samples = [(float(theta), 0.0) for theta in np.linspace(0.0, 90.0, 1000)]
        with pytest.raises(DegenerateFitError, match="no positive slope found"):
            fit_cv_curve(samples)
        assert passes == []
        with pytest.raises(DegenerateFitError, match="no positive slope found"):
            grid_cv_fit(samples)


class TestFitGamma:
    def test_exact_on_ff_generated_records(self):
        ff = FeedforwardParams(gamma=73.059, theta_zero=10.0)
        records = []
        for p_sup in np.linspace(310e5, 60e5, 40):
            angle = ff_tank(ff, 42e5, float(p_sup))
            records.append((angle, 42e5, float(p_sup)))
        assert fit_gamma(records, 10.0) == pytest.approx(73.059, rel=1e-9)

    def test_single_ratio_is_degenerate(self):
        records = [(20.0, 42e5, 310e5)] * 10
        with pytest.raises(DegenerateFitError):
            fit_gamma(records, 10.0)

    # Ratios s / p with p = 1, so each is its s. Distinct means distinct once
    # rounded to 12 decimals: 4e-13 either side of 0.5 rounds to 0.5, two
    # ratios 8e-13 apart round alike, and 2e-13 across a half unit do not.
    @pytest.mark.parametrize("order", ["low_first", "high_first"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize(
        "low, high, distinct",
        [
            (0.5 - 4e-13, 0.5 + 4e-13, False),
            (0.5000000000006, 0.5000000000014, False),
            (0.5000000000004, 0.5000000000006, True),
            (0.5, 0.500000000001, True),
        ],
    )
    def test_ratios_are_distinct_at_the_12th_decimal(self, low, high, distinct, position, order):
        assert (len({round(low, 12), round(high, 12)}) == 2) == distinct  # the set rule
        extremes = [(15.0, low, 1.0), (25.0, high, 1.0)]
        if order == "high_first":
            extremes.reverse()
        bulk = [(20.0, (low + high) / 2, 1.0)] * 10
        cut = {"first": 0, "middle": 5, "last": 10}[position]
        records = bulk[:cut] + extremes + bulk[cut:]
        if distinct:
            assert math.isfinite(fit_gamma(records, 10.0))
        else:
            with pytest.raises(DegenerateFitError, match="distinct pressure ratios"):
                fit_gamma(records, 10.0)

    def test_closed_loop_recovery_within_five_percent(self, blowdown_config):
        """Simulate with feedback on, fit from the telemetry, compare to the
        plant-consistent gamma the config was built with."""
        config = blowdown_config.replace(variant="ff+dyn")
        frames = run_scenario(config)
        records = steady_records(frames, "ox_tank")
        assert len(records) > 100
        fitted = fit_gamma(records, config.valves["ox_tank"].theta_zero)
        expected = config.controllers["ox_tank"].feedforward.gamma
        assert fitted == pytest.approx(expected, rel=0.05)


class TestFitChokedConstant:
    def make_samples(self, k, alpha, theta_zero, angles, pressures):
        samples = []
        for theta, p in zip(angles, pressures):
            cv = max(0.0, alpha * (theta - theta_zero))
            samples.append(FlowSample(theta, p, 0.3 * p, k * cv * p, 0.0, "gas"))
        return samples

    def test_exact_on_synthetic_data(self):
        k = 1.6774194e-3
        samples = self.make_samples(k, 9.375e-8, 10.0, [15, 25, 40, 60], [310e5, 250e5, 180e5, 90e5])
        assert fit_choked_constant(samples, 9.375e-8, 10.0) == pytest.approx(k, rel=1e-12)

    def test_closed_valve_samples_contribute_nothing(self):
        k = 1.6774194e-3
        base = self.make_samples(k, 9.375e-8, 10.0, [15, 25], [310e5, 250e5])
        padded = base + self.make_samples(k, 9.375e-8, 10.0, [5.0, 8.0], [310e5, 200e5])
        assert fit_choked_constant(padded, 9.375e-8, 10.0) == pytest.approx(
            fit_choked_constant(base, 9.375e-8, 10.0), rel=1e-12
        )

    def test_unchoked_samples_filtered_out(self):
        k = 1.6774194e-3
        base = self.make_samples(k, 9.375e-8, 10.0, [15, 25], [310e5, 250e5])
        bogus = [
            FlowSample(40.0, 100e5, 90e5, 99.0, 0.0, "gas"),  # ratio 0.9
            FlowSample(40.0, 100e5, 10e5, 99.0, 1141.0, "liquid"),
        ]
        assert choked_samples(bogus + base) == base
        assert fit_choked_constant(base + bogus, 9.375e-8, 10.0) == pytest.approx(
            fit_choked_constant(base, 9.375e-8, 10.0), rel=1e-12
        )

    def test_no_choked_samples_degenerate(self):
        bogus = [FlowSample(40.0, 100e5, 90e5, 1.0, 0.0, "gas")]
        with pytest.raises(DegenerateFitError):
            fit_choked_constant(bogus, 9.375e-8, 10.0)

    @pytest.mark.parametrize(
        "bad, fault",
        [
            (FlowSample(95.0, 100e5, 10e5, 1.0, 0.0, "gas"), "valve angle 95.0 outside [0, 90]"),
            (FlowSample(40.0, 100e5, 10e5, 1.0, 0.0, "steam"), "unknown phase 'steam'"),
            (FlowSample(40.0, 100e5, 10e5, math.nan, 0.0, "gas"), "non-finite sample field flow"),
        ],
        ids=["angle_95", "steam", "nan_flow"],
    )
    def test_every_sample_is_checked(self, bad, fault):
        k = 1.6774194e-3
        samples = self.make_samples(k, 9.375e-8, 10.0, [15, 25, 40, 60], [310e5, 250e5, 180e5, 90e5])
        with pytest.raises(EregSimError, match=f"^{re.escape(fault)}$"):
            choked_samples(samples + [bad])
        with pytest.raises(EregSimError, match=f"^{re.escape(fault)}$"):
            fit_choked_constant(samples + [bad], 9.375e-8, 10.0)


class TestTelemetryAdapters:
    # The baseline's fuel tank runs dry at t = 14.03 s with its injector valve
    # open: the samples from then on carry no flow, and fitted with the rest
    # they read alpha = 0.265x the valve's and theta_zero = 0.
    @pytest.mark.parametrize("side", ["ox", "fuel"])
    def test_liquid_samples_recover_valve_curve(self, baseline_config, baseline_run, side):
        frames, _ = baseline_run
        rho = baseline_config.tanks[side].liquid_density
        raw = liquid_samples_from_telemetry(frames, side, rho)
        pairs = []
        for s in raw:
            try:
                pairs.append((s.valve_angle, cv_from_sample(s)))
            except ValueError:
                continue
        fit = fit_cv_curve(pairs)
        # the telemetry-implied Cv lumps the feed line with the valve, so the
        # recovered slope sits below the configured one but in its vicinity
        valve = baseline_config.valves[side + "_inj"]
        assert 0.6 * valve.alpha < fit.alpha < 1.05 * valve.alpha
        assert fit.theta_zero == pytest.approx(valve.theta_zero, abs=1.5)

    @pytest.mark.parametrize("side", ["ox", "fuel"])
    @pytest.mark.parametrize("event", EVENT_LIQUID_DEPLETED)
    def test_liquid_samples_stop_at_the_first_liquid_depletion(self, baseline_run, side,
                                                               event):
        # Either side's depletion cuts both sides, as it cuts the metrics.
        frames = [f._replace(events=(event,) if k >= 40 else ())
                  for k, f in enumerate(baseline_run[0][:100])]
        samples = liquid_samples_from_telemetry(frames, side, 1000.0)
        assert samples == liquid_samples_from_telemetry(frames[:40], side, 1000.0)
        assert len(samples) == 40

    @pytest.mark.parametrize("event", [EVENT_SUPPLY_DEPLETED, EVENT_ABORT])
    def test_other_events_keep_the_liquid_samples(self, baseline_run, event):
        frames = [f._replace(events=(event,) if k >= 40 else ())
                  for k, f in enumerate(baseline_run[0][:100])]
        assert len(liquid_samples_from_telemetry(frames, "ox", 1000.0)) == 100

    def test_gas_adapters_keep_the_frames_after_a_liquid_depletion(self, baseline_run):
        # The tank loops keep regulating gas once a tank runs dry.
        frames = baseline_run[0]
        cut = next(k for k, f in enumerate(frames) if set(f.events) & set(EVENT_LIQUID_DEPLETED))
        assert 0 < cut < len(frames)
        assert len(gas_samples_from_telemetry(frames, "ox")) == len(frames)
        assert len(steady_records(frames, "ox_tank")) > len(steady_records(frames[:cut],
                                                                           "ox_tank"))

    def test_gas_samples_fit_choked_constant(self, blowdown_frames, blowdown_config):
        # both tank valves are active, so fit on the summed flow with the
        # summed-Cv convention checked against the configured constant; the
        # blowdown run keeps both valves at equal angles by symmetry
        samples = gas_samples_from_telemetry(blowdown_frames, "ox")
        valve = blowdown_config.valves["ox_tank"]
        fitted = fit_choked_constant(samples, valve.alpha, valve.theta_zero)
        # flows of two identical valves lumped into one: expect about 2k
        assert fitted == pytest.approx(2.0 * valve.choked_constant, rel=0.02)

    @pytest.mark.parametrize("density", [0.0, -1141.0, math.nan])
    def test_liquid_density_not_above_zero_is_rejected(self, baseline_run, density):
        with pytest.raises(EregSimError, match=f"^liquid density {density} is not above 0$"):
            liquid_samples_from_telemetry(baseline_run[0], "ox", density)

    @pytest.mark.parametrize("adapter", [
        lambda frames, side: liquid_samples_from_telemetry(frames, side, 1141.0),
        gas_samples_from_telemetry,
        lambda frames, name: steady_records(frames, name + "_tank"),
    ], ids=["liquid", "gas", "steady"])
    def test_unknown_side_or_regulator_is_rejected(self, baseline_run, adapter):
        with pytest.raises(EregSimError, match="'lox"):
            adapter(baseline_run[0], "lox")

    def test_unknown_regulator_name_is_rejected(self, baseline_run):
        with pytest.raises(EregSimError, match="^unknown regulator 'ox', not one of ox_tank, "):
            steady_records(baseline_run[0], "ox")

    def test_write_fit_result_round_trips(self, tmp_path):
        path = tmp_path / "fit.yaml"
        write_fit_result(path, "cv_curve", {"alpha_si_per_deg": 4e-6, "theta_zero_deg": 10.0,
                                            "residual_rms": 1e-7, "sample_count": 40})
        data = yaml.safe_load(path.read_text())
        assert data["fit"] == "cv_curve"
        assert data["alpha_si_per_deg"] == pytest.approx(4e-6)
        assert data["sample_count"] == 40
