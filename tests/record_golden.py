"""Record the golden telemetry that tests/test_golden.py compares against.

Each case is one short run: every shipped scenario under every controller
variant (duration capped at CAP_S), plus the small test scenario with the
ullage-collapse sink, which no shipped scenario turns on, and with a
bottle that the first physics step empties, the one case that reaches
the supply clamp. A second file holds noisy cases: the baseline static
fire and the blowdown under every variant with 0.02 bar sensor noise,
seed 0, which pin the order in which the sensors draw their noise. Each
file holds, per case, every numeric telemetry field of every frame and
the frame at which each event first appears.

Re-record only when a change is meant to alter the telemetry, naming the
file to write (golden, noise) or none for both. Before it writes a file,
it prints per case how the new run compares with the one on file:
bit-identical, moved (with the largest relative difference) or new, and
names each case on file that it no longer records as dropped.

    PYTHONPATH=src python -m tests.record_golden [golden] [noise]

The hashes mode writes no file. It is the identity check between two
source trees: diff its outputs. It runs longer cases (hash_cases) and
prints, per case, the frame count and four SHA-256 digests: of the repr
of the run's frames, of the CSV bytes emit_telemetry writes, of the repr
of the frames read_telemetry reads back from them, and of the repr of
regulation_metrics on those. Then, per seed of fit_cases, the CSV digest
of three calibration logs and the .hex() values of every fit made from
them:

    PYTHONPATH=src python -m tests.record_golden hashes > hashes.txt
"""

from __future__ import annotations

import copy
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from eregsim.calibration import (
    cv_from_sample, fit_choked_constant, fit_cv_curve, fit_gamma, gas_samples_from_telemetry,
    liquid_samples_from_telemetry, steady_records,
)
from eregsim.engine import run_scenario
from eregsim.scenario import VARIANTS, load_scenario, scenario_from_dict
from eregsim.telemetry import (
    EregFrame, TelemetryFrame, emit_telemetry, read_telemetry, regulation_metrics,
)
from tests import oracles
from tests.conftest import SCENARIO_DIR, build_small_scenario, load_yaml

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden.npz"
NOISE_PATH = GOLDEN_PATH.with_name("golden_noise.npz")
CAP_S = 2.0
NOISE_SIGMA_BAR = 0.02

SHIPPED = (
    "staticfire_baseline",
    "staticfire_nominal_hold",
    "coldflow_nominal_hold",
    "coldflow_mock_injector",
    "waterflow_blowdown",
)
NOISY = ("staticfire_baseline", "waterflow_blowdown")

# Small scenario with gas and liquid moving on both sides, so the collapse
# sink acts on every ullage state; both tanks run dry within the run.
_DRAIN = dict(
    supply={"volume_m3": 0.004, "initial_pressure_bar": 310.0},
    tanks={
        side: {
            "total_volume_m3": 0.002,
            "initial_ullage_fraction": 0.3,
            "liquid_density_kg_m3": 998.0,
            "initial_pressure_bar": 42.0,
        }
        for side in ("ox", "fuel")
    },
    controllers={
        "ox_tank": {"locked_angle_deg": 30.0},
        "fuel_tank": {"locked_angle_deg": 20.0},
        "ox_inj": {"locked_angle_deg": 40.0},
        "fuel_inj": {"locked_angle_deg": 35.0},
    },
)
SMALL = {
    "small_collapse": dict(options={"ullage_collapse_coeff": 0.05}, **_DRAIN),
    # A 4 mL bottle: the first step asks for more gas than it holds.
    "small_supply_dry": {
        **_DRAIN,
        "supply": {"volume_m3": 4e-6, "initial_pressure_bar": 310.0},
        "controllers": {**_DRAIN["controllers"], "ox_tank": {"locked_angle_deg": 90.0}},
    },
}


def case_names() -> list[str]:
    names = [f"{stem}.{variant}" for stem in SHIPPED for variant in VARIANTS]
    return names + list(SMALL)


def noise_case_names() -> list[str]:
    return [f"{stem}.{variant}" for stem in NOISY for variant in VARIANTS]


def case_config(name: str, noisy: bool = False):
    if name in SMALL:
        return build_small_scenario(**SMALL[name])
    stem, variant = name.rsplit(".", 1)
    config = load_scenario(SCENARIO_DIR / f"{stem}.yaml")
    config = config.replace(variant=variant, duration=min(config.duration, CAP_S))
    if noisy:
        config = config.replace(noise_sigma=NOISE_SIGMA_BAR * 1e5, noise_seed=0)
    return config


def frames_to_fields(frames) -> np.ndarray:
    """Every numeric telemetry field, one row per frame, in CSV column order."""
    return np.array([f[:-1] for f in frames], dtype=np.float64)


def event_onsets(frames) -> list[str]:
    """"<frame index>:<event>" for the first frame each event appears in."""
    seen, onsets = set(), []
    for i, f in enumerate(frames):
        for event in f.events:
            if event not in seen:
                seen.add(event)
                onsets.append(f"{i}:{event}")
    return onsets


def run_case(name: str, noisy: bool = False) -> tuple[np.ndarray, list[str]]:
    frames = run_scenario(case_config(name, noisy))
    return frames_to_fields(frames), event_onsets(frames)


def hash_cases():
    """(name, config) of every run case: each shipped scenario under each
    variant at full length, noise-free and noisy; then the baseline with
    both injector valves rated at the 42 bar tank pressure, noisy, under
    four abort factors and two variants, whose over-pressure aborts fall on
    and between primary ticks."""
    for stem in SHIPPED:
        shipped = load_scenario(SCENARIO_DIR / f"{stem}.yaml")
        for variant in VARIANTS:
            config = shipped.replace(variant=variant)
            yield f"{stem}.{variant}", config
            yield f"{stem}.{variant}.noise", config.replace(
                noise_sigma=NOISE_SIGMA_BAR * 1e5, noise_seed=0
            )
    data = load_yaml(SCENARIO_DIR / "staticfire_baseline.yaml")
    data["sensors"] = {"noise_sigma_bar": NOISE_SIGMA_BAR, "seed": 0}
    for name in ("ox_inj", "fuel_inj"):
        data["valves"][name]["rated_pressure_bar"] = 42.0
    for factor in (1.0, 1.001, 1.003, 1.006):
        for variant in ("ff+dyn", "pid"):
            case = copy.deepcopy(data)
            case["options"]["abort_pressure_factor"] = factor
            yield f"abort.{factor}.{variant}", scenario_from_dict(case).replace(variant=variant)


# Calibration logs: rows of each sweep and of the steady log, s between rows.
FIT_SEEDS = range(10)
SWEEP_ROWS, STEADY_ROWS, LOG_DT = 1000, 1500, 0.01
FLOW_NOISE = 1e-3  # relative flow-meter noise on the sweeps


def calibration_logs(config, seed: int) -> tuple[dict, list[list[TelemetryFrame]]]:
    """(true parameters, [liquid sweep, gas sweep, steady log]) for the ox side
    of config, the valve and feedforward parameters drawn from the seed and
    the flows from the oracle laws. The sweeps carry sensor and flow-meter
    noise; the steady log, a feedforward-only blowdown under a setpoint ramp,
    carries noise only on the tank pressure, which selects its steady rows.
    For a seed, they are the logs perfbench's calibrate_fits workload reads."""
    rng = np.random.default_rng([seed, 1])
    inj, tank = config.valves["ox_inj"], config.valves["ox_tank"]
    truth = dict(
        liquid_alpha=inj.alpha * rng.uniform(0.8, 1.2), liquid_theta_zero=rng.uniform(6.0, 14.0),
        gas_alpha=tank.alpha * rng.uniform(0.8, 1.2), gas_theta_zero=rng.uniform(6.0, 14.0),
        k=tank.choked_constant * rng.uniform(0.9, 1.1),
        gamma=config.controllers["ox_tank"].feedforward.gamma * rng.uniform(0.9, 1.1),
        density=config.tanks["ox"].liquid_density,
    )
    rng = np.random.default_rng([seed, 2])
    sigma = NOISE_SIGMA_BAR * 1e5
    setpoint = config.tank_setpoint("ox")
    idle = EregFrame(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def frame(i, ox_tank, ox_inj, supply, mdot_ox, mdot_gas):
        return TelemetryFrame(i * LOG_DT, ox_tank, idle, ox_inj, idle, supply / 1e5, mdot_ox,
                              0.0, mdot_gas, 0.0, 0.0, 0.0)

    def reg(set_pa, p_pa, angle):
        return EregFrame(set_pa / 1e5, p_pa / 1e5, angle, 0.0, angle, 0.0)

    gas_valve = (truth["k"], truth["gas_alpha"], truth["gas_theta_zero"])
    liquid, gas, steady = [], [], []
    for i in range(SWEEP_ROWS):  # injector valve at a fixed 42 -> 30 bar drop
        theta = 90.0 * i / (SWEEP_ROWS - 1)
        q = oracles.valve_liquid_flow(truth["liquid_alpha"], truth["liquid_theta_zero"], theta,
                                      setpoint - 30e5, truth["density"])
        noise = rng.standard_normal(3)
        liquid.append(frame(i, reg(setpoint, setpoint + sigma * noise[0], 0.0),
                            reg(30e5, 30e5 + sigma * noise[1], theta), config.supply_pressure,
                            q * truth["density"] * (1.0 + FLOW_NOISE * noise[2]), 0.0))
    for i in range(SWEEP_ROWS):  # tank valve, choked, as the supply falls 300 -> 200 bar
        theta = 90.0 * i / (SWEEP_ROWS - 1)
        p_sup = 300e5 - 100e5 * i / (SWEEP_ROWS - 1)
        mdot = oracles.valve_gas_flow(*gas_valve, theta, p_sup, setpoint)
        noise = rng.standard_normal(3)
        gas.append(frame(i, reg(setpoint, setpoint + sigma * noise[0], theta), idle,
                         p_sup + sigma * noise[1], 0.0, mdot * (1.0 + FLOW_NOISE * noise[2])))
    for i in range(STEADY_ROWS):  # 310 -> 110 bar blowdown, setpoint 30 -> 50 bar
        s = i / (STEADY_ROWS - 1)
        p_sup, p_set = 310e5 - 200e5 * s, 30e5 + 20e5 * s
        theta = oracles.tank_feedforward_angle(truth["gamma"], truth["gas_theta_zero"], p_set,
                                               p_sup)
        steady.append(frame(i, reg(p_set, p_set + sigma * rng.standard_normal(), theta), idle,
                            p_sup, 0.0, oracles.valve_gas_flow(*gas_valve, theta, p_sup, p_set)))
    return truth, [liquid, gas, steady]


def fit_cases(directory: Path):
    """(name, rows read, CSV digest, fit values) per seed of FIT_SEEDS: each
    calibration log written by emit_telemetry and read back, then the liquid
    and gas Cv fits, gamma and the choked constant, each fit given the other
    fits' true parameters."""
    config = load_scenario(SCENARIO_DIR / "staticfire_baseline.yaml")
    path = directory / "log.csv"
    for seed in FIT_SEEDS:
        truth, logs = calibration_logs(config, seed)
        csv_digest, read_back = hashlib.sha256(), []
        for log in logs:
            emit_telemetry(log, path)
            csv_digest.update(path.read_bytes())
            read_back.append(read_telemetry(path))
        liquid_log, gas_log, steady_log = read_back
        liquid = liquid_samples_from_telemetry(liquid_log, "ox", truth["density"])
        gas = gas_samples_from_telemetry(gas_log, "ox")
        fits = (
            fit_cv_curve([(s.valve_angle, cv_from_sample(s)) for s in liquid]),
            fit_cv_curve([(s.valve_angle, cv_from_sample(s, truth["k"])) for s in gas]),
            (fit_gamma(steady_records(steady_log, "ox_tank"), truth["gas_theta_zero"]),),
            (fit_choked_constant(gas_samples_from_telemetry(steady_log, "ox"),
                                 truth["gas_alpha"], truth["gas_theta_zero"]),),
        )
        values = [v.hex() if isinstance(v, float) else str(v) for fit in fits for v in fit]
        rows = len(liquid_log) + len(gas_log) + len(steady_log)
        yield f"fit.seed{seed}", rows, csv_digest.hexdigest(), values


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def print_hashes() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        for name, config in hash_cases():
            frames = run_scenario(config)
            emit_telemetry(frames, path)
            back = read_telemetry(path)
            digests = (sha256(repr(frames)), sha256(path.read_bytes()), sha256(repr(back)),
                       sha256(repr(regulation_metrics(back, config))))
            print(name, len(frames), *digests, flush=True)
        for name, rows, digest, values in fit_cases(Path(tmp)):
            print(name, rows, digest, *values, flush=True)


# file to write: (path, case names, noisy)
RECORDINGS = {
    "golden": (GOLDEN_PATH, case_names, False),
    "noise": (NOISE_PATH, noise_case_names, True),
}


def compare(old: dict, name: str, fields: np.ndarray, onsets: list[str]) -> str:
    """How a new recording of a case compares with the one in old."""
    if name not in old:
        return "new"
    ref = old[name]
    events = "" if onsets == list(old[name + ".events"]) else ", event onsets moved"
    if ref.shape != fields.shape:
        return f"moved, {len(ref)} -> {len(fields)} frames{events}"
    if np.array_equal(fields.view(np.int64), ref.view(np.int64)) and not events:
        return "bit-identical"
    scale = np.maximum(np.abs(ref), np.abs(fields))
    diff = np.divide(np.abs(fields - ref), scale, out=np.zeros_like(ref), where=scale > 0.0)
    return f"moved, max relative difference {diff.max():.3g}{events}"


def main(which: list[str]) -> None:
    for key in which or RECORDINGS:
        path, names, noisy = RECORDINGS[key]
        old = dict(np.load(path)) if path.exists() else {}
        arrays = {}
        for name in names():
            fields, onsets = run_case(name, noisy)
            print(f"{name}: {compare(old, name, fields, onsets)}", flush=True)
            arrays[name] = fields
            arrays[name + ".events"] = np.array(onsets, dtype=str)
        for name in sorted(old.keys() - arrays.keys()):
            if not name.endswith(".events"):
                print(f"{name}: dropped", flush=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **arrays)
        print(f"wrote {len(names())} cases to {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    if sys.argv[1:] == ["hashes"]:
        print_hashes()
    else:
        main(sys.argv[1:])
