"""The benchmark's workloads: seeded inputs, one op, and the op's output check.

Each workload turns the benchmark seed into input files, loads them at
set-up, and then runs the same op again and again. The package is only
reached through the calls listed in ``API``, so a traced run can wrap
each of them in a span (see ``bind``).

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

import checks

SENSOR_NOISE_BAR = 0.02  # inside the 0.01-0.05 bar perturbation range of the roadmap

# The package functions the benchmark calls, by module (= layer).
API = {
    "load_scenario": "scenario",
    "run_scenario": "engine",
    "emit_telemetry": "telemetry",
    "read_telemetry": "telemetry",
    "regulation_metrics": "telemetry",
    "liquid_samples_from_telemetry": "calibration",
    "gas_samples_from_telemetry": "calibration",
    "cv_from_sample": "calibration",
    "fit_cv_curve": "calibration",
    "steady_records": "calibration",
    "fit_gamma": "calibration",
    "fit_choked_constant": "calibration",
}


def bind(modules: dict, tracer=None) -> SimpleNamespace:
    """The API functions from freshly imported modules, each in a span if traced."""
    calls = {}
    for name, layer in API.items():
        fn = getattr(modules[layer], name)
        calls[name] = tracer.wrap(layer, name, fn) if tracer is not None else fn
    return SimpleNamespace(**calls)


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Scenario runs: load -> run -> CSV -> read back -> regulation metrics


@dataclass
class RunOutput:
    frames: list
    read_back: list
    metrics: object
    csv_bytes: int

    def same_as(self, other: "RunOutput") -> bool:
        return self.frames == other.frames and self.read_back == other.read_back

    @property
    def rows_read(self) -> int:
        return len(self.read_back)


class RunWorkload:
    """One shipped scenario with seeded sensor noise; an op is `eregsim run` + `metrics`."""

    def __init__(self, name: str, scenario_file: str, variant: str, bounds):
        self.name = name
        self.scenario_file = scenario_file
        self.variant = variant
        self.bounds = bounds  # checks.* function for the paper's bounds

    def make_inputs(self, root: Path, seed: int) -> bytes:
        """The shipped scenario with the workload's variant and seeded sensor noise."""
        data = yaml.safe_load((root / "scenarios" / self.scenario_file).read_text())
        data["sensors"] = {"noise_sigma_bar": SENSOR_NOISE_BAR, "seed": seed}
        data["variant"] = self.variant
        return yaml.safe_dump(data, sort_keys=False).encode()

    def setup(self, calls, modules, root: Path, out_dir: Path, seed: int):
        """Write the seeded scenario and load it; returns (op state, input digest)."""
        scenario = self.make_inputs(root, seed)
        (out_dir / "scenario.yaml").write_bytes(scenario)
        config = calls.load_scenario(out_dir / "scenario.yaml")
        state = SimpleNamespace(config=config, csv=out_dir / "run.csv", seed=seed)
        return state, digest(scenario)

    def op(self, calls, state) -> RunOutput:
        frames = calls.run_scenario(state.config)
        calls.emit_telemetry(frames, state.csv)
        back = calls.read_telemetry(state.csv)
        metrics = calls.regulation_metrics(back, state.config)
        return RunOutput(frames, back, metrics, state.csv.stat().st_size)

    def sim_seconds(self, state, out: RunOutput) -> float:
        return state.config.duration

    def check(self, state, out: RunOutput, reference) -> str | None:
        """Reason the op's output is wrong, or None."""
        reason = checks.check_against_reference(
            checks.frames_to_array(out.frames),
            checks.event_onsets(out.frames),
            reference,
            state.seed,
        )
        if reason is None and len(out.read_back) != len(out.frames):
            reason = f"read back {len(out.read_back)} of {len(out.frames)} frames"
        return reason or self.bounds(out.frames, out.metrics, state.config)


# ---------------------------------------------------------------------------
# Calibration from telemetry logs


LIQUID_ROWS = 1000  # injector-valve sweep, 0 -> 90 degrees
GAS_ROWS = 1000  # tank-valve sweep, 0 -> 90 degrees
STEADY_ROWS = 1500  # steady tank regulation through a blowdown
LOG_DT = 0.01  # s between rows, the primary telemetry rate
FLOW_NOISE = 1e-3  # relative flow-meter noise on the sweeps


@dataclass(frozen=True)
class Truth:
    liquid_alpha: float
    liquid_theta_zero: float
    gas_alpha: float
    gas_theta_zero: float
    choked_constant: float
    gamma: float
    density: float


@dataclass
class CalibrationOutput:
    liquid: object  # CvFit
    gas: object  # CvFit
    gamma: float
    choked_constant: float
    samples: int
    rows_read: int
    csv_bytes: int

    def same_as(self, other: "CalibrationOutput") -> bool:
        return (self.liquid, self.gas, self.gamma, self.choked_constant) == (
            other.liquid, other.gas, other.gamma, other.choked_constant
        )


class CalibrateWorkload:
    """Seeded synthetic telemetry logs; an op reads them and runs every fit.

    The logs are built from the package's flow laws and tank feedforward
    for the ox side of the baseline feed system, with valve and
    feedforward parameters drawn from the seed. The Cv sweeps carry
    sensor and flow-meter noise. The gamma / k log carries noise only on
    the regulated tank pressure, which the fits use just to select
    steady, choked rows: gamma and k are exact inverses of the model, so
    they are held to acceptance test 7's 1e-9, and each fit gets the
    other fits' true parameters, as that test does.
    """

    name = "calibrate_fits"
    files = ("liquid_sweep.csv", "gas_sweep.csv", "steady.csv")

    def draw_truth(self, config, seed: int) -> Truth:
        rng = np.random.default_rng([seed, 1])
        inj, tank = config.valves["ox_inj"], config.valves["ox_tank"]
        return Truth(
            liquid_alpha=inj.alpha * rng.uniform(0.8, 1.2),
            liquid_theta_zero=rng.uniform(6.0, 14.0),
            gas_alpha=tank.alpha * rng.uniform(0.8, 1.2),
            gas_theta_zero=rng.uniform(6.0, 14.0),
            choked_constant=tank.choked_constant * rng.uniform(0.9, 1.1),
            gamma=config.controllers["ox_tank"].feedforward.gamma * rng.uniform(0.9, 1.1),
            density=config.tanks["ox"].liquid_density,
        )

    def make_logs(self, modules, config, truth: Truth, seed: int) -> dict[str, list]:
        fluids, control, telemetry = modules["fluids"], modules["control"], modules["telemetry"]
        rng = np.random.default_rng([seed, 2])
        sigma = SENSOR_NOISE_BAR * 1e5
        setpoint = config.tank_setpoint("ox")
        rated = config.valves["ox_tank"].rated_pressure
        idle = telemetry.EregFrame(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

        def frame(t, ox_tank, ox_inj, supply, mdot_ox, mdot_gas):
            return telemetry.TelemetryFrame(
                t, ox_tank, idle, ox_inj, idle, supply / 1e5, mdot_ox, 0.0, mdot_gas, 0.0, 0.0, 0.0
            )

        def reg(set_pa, p_pa, angle):
            return telemetry.EregFrame(set_pa / 1e5, p_pa / 1e5, angle, 0.0, angle, 0.0)

        # Liquid sweep of the injector valve at a fixed 42 -> 30 bar drop.
        valve = fluids.ValveModel(truth.liquid_alpha, truth.liquid_theta_zero, rated)
        p_up, p_down = setpoint, 30e5
        liquid = []
        for i in range(LIQUID_ROWS):
            theta = 90.0 * i / (LIQUID_ROWS - 1)
            q = fluids.liquid_volumetric_flow(valve, theta, p_up - p_down, truth.density)
            noise = rng.standard_normal(3)
            liquid.append(frame(
                i * LOG_DT,
                reg(setpoint, p_up + sigma * noise[0], 0.0),
                reg(p_down, p_down + sigma * noise[1], theta),
                config.supply_pressure,
                q * truth.density * (1.0 + FLOW_NOISE * noise[2]),
                0.0,
            ))

        # Choked gas sweep of the tank valve while the supply falls 300 -> 200 bar.
        gas_valve = fluids.ValveModel(
            truth.gas_alpha, truth.gas_theta_zero, rated, truth.choked_constant
        )
        gas = []
        for i in range(GAS_ROWS):
            theta = 90.0 * i / (GAS_ROWS - 1)
            p_sup = 300e5 - 100e5 * i / (GAS_ROWS - 1)
            mdot = fluids.gas_valve_mass_flow(gas_valve, theta, p_sup, setpoint)
            noise = rng.standard_normal(3)
            gas.append(frame(
                i * LOG_DT,
                reg(setpoint, setpoint + sigma * noise[0], theta),
                idle,
                p_sup + sigma * noise[1],
                0.0,
                mdot * (1.0 + FLOW_NOISE * noise[2]),
            ))

        # Steady regulation on the feedforward alone through a 310 -> 110 bar
        # blowdown while the setpoint ramps 30 -> 50 bar. The pressure ratio
        # stays below the choked limit. At a fixed setpoint the feedforward
        # flow is constant, and so would be its CSV rounding error; the ramp
        # lets rounding average out in the fits.
        ff = control.FeedforwardParams(gamma=truth.gamma, theta_zero=truth.gas_theta_zero)
        steady = []
        for i in range(STEADY_ROWS):
            s = i / (STEADY_ROWS - 1)
            p_sup, p_set = 310e5 - 200e5 * s, 30e5 + 20e5 * s
            theta = control.ff_tank(ff, p_set, p_sup)
            steady.append(frame(
                i * LOG_DT,
                reg(p_set, p_set + sigma * rng.standard_normal(), theta),
                idle,
                p_sup,
                0.0,
                fluids.gas_valve_mass_flow(gas_valve, theta, p_sup, p_set),
            ))
        return dict(zip(self.files, (liquid, gas, steady)))

    def setup(self, calls, modules, root: Path, out_dir: Path, seed: int):
        """Generate and write the seeded logs; returns (op state, input digest)."""
        config = calls.load_scenario(root / "scenarios" / "staticfire_baseline.yaml")
        truth = self.draw_truth(config, seed)
        paths = []
        for name, frames in self.make_logs(modules, config, truth, seed).items():
            calls.emit_telemetry(frames, out_dir / name)
            paths.append(out_dir / name)
        state = SimpleNamespace(truth=truth, paths=paths, seed=seed)
        return state, digest(*(p.read_bytes() for p in paths))

    def op(self, calls, state) -> CalibrationOutput:
        truth = state.truth
        liquid_log, gas_log, steady_log = (calls.read_telemetry(p) for p in state.paths)
        liquid = calls.liquid_samples_from_telemetry(liquid_log, "ox", truth.density)
        gas = calls.gas_samples_from_telemetry(gas_log, "ox")
        choked = calls.gas_samples_from_telemetry(steady_log, "ox")
        liquid_fit = calls.fit_cv_curve([(s.valve_angle, calls.cv_from_sample(s)) for s in liquid])
        gas_fit = calls.fit_cv_curve(
            [(s.valve_angle, calls.cv_from_sample(s, truth.choked_constant)) for s in gas]
        )
        records = calls.steady_records(steady_log, "ox_tank")
        gamma = calls.fit_gamma(records, truth.gas_theta_zero)
        k = calls.fit_choked_constant(choked, truth.gas_alpha, truth.gas_theta_zero)
        return CalibrationOutput(
            liquid_fit, gas_fit, gamma, k,
            samples=len(liquid) + len(gas) + len(choked),
            rows_read=len(liquid_log) + len(gas_log) + len(steady_log),
            csv_bytes=sum(p.stat().st_size for p in state.paths),
        )

    def sim_seconds(self, state, out: CalibrationOutput) -> float:
        return LOG_DT * out.rows_read  # seconds of telemetry the fits cover

    def check(self, state, out: CalibrationOutput, reference) -> str | None:
        t = state.truth
        return checks.check_recovery(
            {
                "liquid alpha": (out.liquid.alpha, t.liquid_alpha, "rel", 0.01),
                "liquid theta_zero": (out.liquid.theta_zero, t.liquid_theta_zero, "abs", 0.1),
                "gas alpha": (out.gas.alpha, t.gas_alpha, "rel", 0.01),
                "gas theta_zero": (out.gas.theta_zero, t.gas_theta_zero, "abs", 0.1),
                "gamma": (out.gamma, t.gamma, "rel", 1e-9),
                "choked constant": (out.choked_constant, t.choked_constant, "rel", 1e-9),
            }
        )


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload("staticfire_throttle", "staticfire_baseline.yaml", "ff+dyn",
                    checks.staticfire_bounds),
        RunWorkload("waterflow_blowdown", "waterflow_blowdown.yaml", "ff",
                    checks.blowdown_bounds),
        CalibrateWorkload(),
    )
}
