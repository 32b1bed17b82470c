"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers when its assertions hold. Run with `pytest -s
tests/test_acceptance.py` to see the lines."""

import time

import numpy as np
import pytest

from eregsim.calibration import fit_choked_constant, fit_cv_curve, fit_gamma, FlowSample
from eregsim.control import FeedforwardParams, ff_tank
from eregsim.engine import run_scenario
from eregsim.fluids import ValveModel, cv_of_angle
from eregsim.telemetry import regulation_metrics
from tests.oracles import audited_run, steady_operating_point


def hold_window(config, which):
    """(t0, t1) of a hold in the baseline ox injector profile: 'max' for the
    full-thrust hold, 'final' for the terminal hold. Measured over the
    second half of the hold so the transient at the ramp end has settled."""
    intervals = config.schedule.ox_inj.hold_intervals()
    if which == "max":
        start, end, _ = max(intervals, key=lambda iv: iv[2])
    else:
        start, end, _ = intervals[-1]
    end = min(end, config.duration - 1.0)
    return start + 0.5 * (end - start), end


def window_mean(frames, selector, t0, t1):
    values = [selector(f) for f in frames if t0 <= f.time_s <= t1]
    assert values, f"no frames in window [{t0}, {t1}]"
    return sum(values) / len(values)


class TestAcceptance:
    def test_1_nominal_operating_point_closure(self, baseline_config):
        start = time.monotonic()
        op = steady_operating_point(baseline_config, 1.0)
        of = op.mdot_ox / op.mdot_fuel
        elapsed = time.monotonic() - start
        assert op.chamber_pressure == pytest.approx(24e5, abs=0.1e5)
        assert op.thrust == pytest.approx(3000.0, abs=10.0)
        assert of == pytest.approx(2.33, abs=0.01)
        assert elapsed < 1.0
        print(
            f"\nACCEPTANCE 1 PASS: Pc={op.chamber_pressure / 1e5:.3f} bar, "
            f"F={op.thrust:.1f} N, OF={of:.4f} ({elapsed * 1e3:.0f} ms)"
        )

    def test_2_static_fire_regulation(self, baseline_config, baseline_run):
        frames, elapsed = baseline_run
        metrics = regulation_metrics(frames, baseline_config)
        for name in ("ox_tank", "fuel_tank"):
            assert metrics[name].max_abs_error <= 0.5
        for name in ("ox_inj", "fuel_inj"):
            assert metrics[name].max_abs_error <= 1.0
        assert elapsed < 30.0
        print(
            f"\nACCEPTANCE 2 PASS: tank max err "
            f"{metrics['ox_tank'].max_abs_error:.3f}/{metrics['fuel_tank'].max_abs_error:.3f} bar "
            f"(<= 0.5), injector "
            f"{metrics['ox_inj'].max_abs_error:.3f}/{metrics['fuel_inj'].max_abs_error:.3f} bar "
            f"(<= 1.0), run {elapsed:.1f} s"
        )

    def test_3_throttle_reproduction(self, baseline_config, baseline_run):
        frames, _ = baseline_run
        full = hold_window(baseline_config, "max")
        final = hold_window(baseline_config, "final")
        thrust_full = window_mean(frames, lambda f: f.thrust_n, *full)
        thrust_low = window_mean(frames, lambda f: f.thrust_n, *final)
        of_full = window_mean(frames, lambda f: f.of_ratio, *full)
        of_low = window_mean(frames, lambda f: f.of_ratio, *final)
        assert thrust_full == pytest.approx(3000.0, rel=0.05)
        assert thrust_low == pytest.approx(2100.0, rel=0.05)
        assert of_full == pytest.approx(2.3, abs=0.1)
        assert of_low == pytest.approx(2.3, abs=0.1)
        print(
            f"\nACCEPTANCE 3 PASS: thrust {thrust_full:.0f} N at full and {thrust_low:.0f} N "
            f"throttled (targets 3000/2100 +-5%), OF {of_full:.3f}/{of_low:.3f} (2.3 +- 0.1)"
        )

    def test_4_ablation_pid_only_oscillates(self, baseline_config, baseline_run):
        frames, _ = baseline_run
        ffdyn = regulation_metrics(frames, baseline_config)
        pid_frames = run_scenario(baseline_config.replace(variant="pid"))
        pid = regulation_metrics(pid_frames, baseline_config)
        ratios = {}
        for name in ("ox_tank", "fuel_tank"):
            ratios[name] = (
                pid[name].peak_oscillation_amplitude / ffdyn[name].peak_oscillation_amplitude
            )
            assert ratios[name] >= 3.0
        print(
            f"\nACCEPTANCE 4 PASS: early-window tank oscillation pid-only "
            f"{pid['ox_tank'].peak_oscillation_amplitude:.2f}/"
            f"{pid['fuel_tank'].peak_oscillation_amplitude:.2f} bar vs ff+dynamic "
            f"{ffdyn['ox_tank'].peak_oscillation_amplitude:.2f}/"
            f"{ffdyn['fuel_tank'].peak_oscillation_amplitude:.2f} bar "
            f"(ratios {ratios['ox_tank']:.1f}x/{ratios['fuel_tank']:.1f}x >= 3x; reference "
            f"hardware showed >7 bar with its own tuning, reported but not gated)"
        )

    def test_5_feedforward_only_drift(self, blowdown_config, blowdown_frames):
        frames = blowdown_frames
        assert frames[-1].supply_pressure_bar < 60.0  # a full usable blowdown from 310 bar
        for name in ("ox_tank", "fuel_tank"):
            setpoint = getattr(frames[0], name).setpoint_bar
            errors = [
                (f.time_s, (getattr(f, name).pressure_bar - setpoint) / setpoint) for f in frames
            ]
            worst = max(abs(e) for _, e in errors)
            assert worst <= 0.15  # within +-15 percent throughout

            post = [(t, e) for t, e in errors if t >= 1.0]
            third = len(post) // 3
            means = [
                sum(abs(e) for _, e in post[i * third:(i + 1) * third]) / third
                for i in range(3)
            ]
            # drift grows into the blowdown tail and never rings: the error
            # is one-signed after startup and the final third exceeds the
            # middle third
            assert means[2] >= means[1]
            signs = [e for _, e in post]
            crossings = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
            assert crossings == 0
        print(
            f"\nACCEPTANCE 5 PASS: ff-only blowdown 310 -> "
            f"{frames[-1].supply_pressure_bar:.0f} bar, worst error {100 * worst:.1f}% "
            f"(<= 15%), |err| thirds {means[0]*100:.2f}/{means[1]*100:.2f}/{means[2]*100:.2f}% "
            f"(monotone tail growth, no oscillation)"
        )

    def test_6_cold_flow_amplification(self, nominal_hold_runs):
        def mean_total(frames, t0, t1):
            vals = [f.mdot_ox_kg_s + f.mdot_fuel_kg_s for f in frames if t0 <= f.time_s <= t1]
            return sum(vals) / len(vals)

        _, hot_frames = nominal_hold_runs["hot"]
        _, cold_frames = nominal_hold_runs["cold"]
        hot = mean_total(hot_frames, 4.0, 6.0)
        cold = mean_total(cold_frames, 4.0, 6.0)
        ratio = cold / hot
        assert cold > hot
        assert 1.3 <= ratio <= 2.3
        print(
            f"\nACCEPTANCE 6 PASS: removing chamber backpressure raises total flow "
            f"{hot:.3f} -> {cold:.3f} kg/s, factor {ratio:.3f} (band [1.3, 2.3]; "
            f"reference value about 1.8x)"
        )

    def test_7_calibration_recovery(self):
        start = time.monotonic()

        # Cv curve: synthetic off-grid parameters recovered within 1% / 0.1 deg
        true_alpha, true_theta = 3.7e-6, 12.34
        valve = ValveModel(alpha=true_alpha, theta_zero=true_theta, rated_pressure=1e7)
        samples = [(float(t), cv_of_angle(valve, float(t))) for t in np.linspace(0, 90, 40)]
        fit = fit_cv_curve(samples)
        assert fit.alpha == pytest.approx(true_alpha, rel=0.01)
        assert fit.theta_zero == pytest.approx(true_theta, abs=0.1)

        # gamma: noiseless records invert exactly
        ff = FeedforwardParams(gamma=73.059, theta_zero=10.0)
        records = [
            (ff_tank(ff, 42e5, float(p)), 42e5, float(p))
            for p in np.linspace(310e5, 60e5, 50)
        ]
        gamma = fit_gamma(records, 10.0)
        assert gamma == pytest.approx(73.059, rel=1e-9)

        # choked constant: noiseless samples invert exactly
        k_true = 1.6774194e-3
        gas = [
            FlowSample(theta, p, 0.3 * p, k_true * 9.375e-8 * (theta - 10.0) * p, 0.0, "gas")
            for theta, p in ((15.0, 310e5), (25.0, 250e5), (40.0, 180e5), (60.0, 90e5))
        ]
        k = fit_choked_constant(gas, 9.375e-8, 10.0)
        assert k == pytest.approx(k_true, rel=1e-9)

        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        print(
            f"\nACCEPTANCE 7 PASS: Cv fit alpha err "
            f"{abs(fit.alpha / true_alpha - 1) * 100:.3f}% / theta0 err "
            f"{abs(fit.theta_zero - true_theta):.3f} deg; gamma and k exact to 1e-9 "
            f"({elapsed:.2f} s)"
        )

    def test_8_conservation_and_determinism(self, baseline_config, baseline_run):
        start = time.monotonic()
        frames_first, base_elapsed = baseline_run

        # instrumented rerun: per-step invariants plus bit-identical output
        frames_second, audit = audited_run(baseline_config)
        assert frames_second == frames_first
        assert audit.max_gas_law_residual < 1e-9
        assert audit.max_mass_drift < 1e-6

        # integrator convergence: halving dt_phys moves final tank pressures
        # by less than 0.1 percent
        half = baseline_config.replace(dt_phys=baseline_config.dt_phys / 2.0)
        frames_half = run_scenario(half)
        drifts = []
        for name in ("ox_tank", "fuel_tank"):
            a = getattr(frames_first[-1], name).pressure_bar
            b = getattr(frames_half[-1], name).pressure_bar
            drifts.append(abs(a - b) / a)
            assert drifts[-1] < 1e-3
        supply_drift = abs(
            frames_first[-1].supply_pressure_bar - frames_half[-1].supply_pressure_bar
        ) / frames_first[-1].supply_pressure_bar
        assert supply_drift < 1e-3

        elapsed = time.monotonic() - start + base_elapsed
        assert elapsed < 60.0
        print(
            f"\nACCEPTANCE 8 PASS: mass drift {audit.max_mass_drift:.2e} (<1e-6), "
            f"gas-law residual {audit.max_gas_law_residual:.2e} (<1e-9), reruns bit-identical, "
            f"dt-halving drift {max(drifts + [supply_drift]):.2e} (<1e-3) ({elapsed:.1f} s)"
        )
