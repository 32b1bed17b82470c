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

The hashes mode writes no file. It runs longer cases (hash_cases) and
prints, per case, the frame count and the SHA-256 of the repr of its
frames, so that two source trees can be compared bit for bit by diffing
its output:

    PYTHONPATH=src python -m tests.record_golden hashes > hashes.txt
"""

from __future__ import annotations

import copy
import hashlib
import sys
from pathlib import Path

import numpy as np

from eregsim.engine import run_scenario
from eregsim.scenario import VARIANTS, load_scenario, scenario_from_dict
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
    return np.array([f.values() for f in frames], dtype=np.float64)


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
    """(name, config) of every frame-hash case: each shipped scenario under
    each variant at full length, noise-free and noisy; then the baseline
    with both injector valves rated at the 42 bar tank pressure, noisy, under
    four abort factors, two variants and two decimations, whose over-pressure
    aborts fall on and between primary ticks."""
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
            for decimation in (1, 7):
                case = copy.deepcopy(data)
                case["options"]["abort_pressure_factor"] = factor
                case["telemetry"] = {"decimation": decimation}
                yield (f"abort.{factor}.{variant}.decimation{decimation}",
                       scenario_from_dict(case).replace(variant=variant))


def print_hashes() -> None:
    for name, config in hash_cases():
        frames = run_scenario(config)
        digest = hashlib.sha256(repr(frames).encode()).hexdigest()
        print(f"{name} {len(frames)} {digest}", flush=True)


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
