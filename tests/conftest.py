from __future__ import annotations

import time
from pathlib import Path

import pytest
import yaml

from eregsim.engine import run_scenario
from eregsim.scenario import load_scenario, scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def baseline_config():
    return load_scenario(SCENARIO_DIR / "staticfire_baseline.yaml")


@pytest.fixture(scope="session")
def baseline_run(baseline_config):
    """(frames, wall seconds) for the baseline static fire."""
    start = time.monotonic()
    frames = run_scenario(baseline_config)
    return frames, time.monotonic() - start


@pytest.fixture(scope="session")
def blowdown_config():
    return load_scenario(SCENARIO_DIR / "waterflow_blowdown.yaml")


@pytest.fixture(scope="session")
def blowdown_frames(blowdown_config):
    return run_scenario(blowdown_config)


@pytest.fixture(scope="session")
def nominal_hold_runs():
    """Static-fire and cold-flow twins at identical setpoints."""
    hot_cfg = load_scenario(SCENARIO_DIR / "staticfire_nominal_hold.yaml")
    cold_cfg = load_scenario(SCENARIO_DIR / "coldflow_nominal_hold.yaml")
    return {
        "hot": (hot_cfg, run_scenario(hot_cfg)),
        "cold": (cold_cfg, run_scenario(cold_cfg)),
    }


def small_scenario_dict(**overrides) -> dict:
    """A cheap, fast scenario for unit tests: all valves locked shut,
    coarse ticks, no chamber. Overrides are merged shallowly."""
    data = {
        "schema_version": 1,
        "duration_s": 2.0,
        "timing": {"dt_phys_s": 0.01, "dt_secondary_s": 0.01, "dt_primary_s": 0.01},
        "ambient_pressure_bar": 1.01325,
        "pressurant": {"specific_gas_constant": 296.8, "temperature_k": 293.0},
        "supply": {"volume_m3": 0.02, "initial_pressure_bar": 310.0},
        "tanks": {
            side: {
                "total_volume_m3": 0.02,
                "initial_ullage_fraction": 0.3,
                "liquid_density_kg_m3": 998.0,
                "initial_pressure_bar": 42.0,
            }
            for side in ("ox", "fuel")
        },
        "lines": {
            side: {"friction_factor": 0.02, "length_m": 2.0, "diameter_m": 0.0127}
            for side in ("ox", "fuel")
        },
        "chamber": None,
        "nominal_flows": {"ox_kg_s": 1.0, "fuel_kg_s": 1.0},
        "injector": {
            "kind": "hotfire",
            "ox": {"cd": 0.7, "area_m2": 2.0e-5},
            "fuel": {"cd": 0.7, "area_m2": 2.0e-5},
        },
        "valves": {
            name: {
                "alpha_si_per_deg": 9.375e-8 if name.endswith("tank") else 4.0e-6,
                "theta_zero_deg": 10.0,
                "rated_pressure_bar": 415.0 if name.endswith("tank") else 78.0,
                **({"choked_constant": 1.6774194e-3} if name.endswith("tank") else {}),
            }
            for name in ("ox_tank", "fuel_tank", "ox_inj", "fuel_inj")
        },
        "controllers": {
            name: {"locked_angle_deg": 0.0}
            for name in ("ox_tank", "fuel_tank", "ox_inj", "fuel_inj")
        },
        "setpoints": {
            "tank_bar": {"ox": 42.0, "fuel": 42.0},
            "throttle": {
                "kind": "pressure",
                "ox": {"start_bar": 30.0, "segments": [{"target_bar": 30.0, "hold_s": 0.0}]},
                "fuel": {"start_bar": 30.0, "segments": [{"target_bar": 30.0, "hold_s": 0.0}]},
            },
        },
    }
    data.update(overrides)
    return data


DROP = object()  # set_key value that deletes the key


def set_key(data: dict, path: str, value) -> dict:
    """Set the key at a dotted path such as "lines.ox.diameter_m"; returns data."""
    *parents, leaf = path.split(".")
    node = data
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[leaf]
    else:
        node[leaf] = value
    return data


def build_small_scenario(**overrides):
    return scenario_from_dict(small_scenario_dict(**overrides))


@pytest.fixture
def small_config():
    return build_small_scenario()


def load_yaml(path: Path) -> dict:
    return yaml.safe_load(path.read_text())


def nominal_mdot(stem: str) -> dict[str, float]:
    """The nominal_flows of a shipped scenario in kg/s by side. The loader
    reads them and the built config keeps none of them."""
    flows = load_yaml(SCENARIO_DIR / f"{stem}.yaml")["nominal_flows"]
    return {"ox": flows["ox_kg_s"], "fuel": flows["fuel_kg_s"]}
