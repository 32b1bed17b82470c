"""The pure parts of tests.run_cost: the scenarios it runs, the order of
each round and the frame comparison that stops it."""

import math

from eregsim.engine import run_scenario
from eregsim.scenario import scenario_from_dict
from tests.conftest import small_scenario_dict
from tests.run_cost import SENSOR_NOISE_BAR, WORKLOADS, first_difference, round_order, scenario_data


def test_scenarios_are_perfbench_run_workloads():
    assert WORKLOADS == (("staticfire_baseline", "ff+dyn"), ("waterflow_blowdown", "ff"))
    data = scenario_data("waterflow_blowdown", "ff+dyn", 7)
    assert data["sensors"] == {"noise_sigma_bar": SENSOR_NOISE_BAR, "seed": 7}
    assert data["variant"] == "ff+dyn"
    config = scenario_from_dict(data)
    assert (config.noise_sigma, config.noise_seed) == (SENSOR_NOISE_BAR * 1e5, 7)


def test_rounds_alternate_which_tree_runs_first():
    assert [round_order(r) for r in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_first_difference_finds_the_first_frame_that_differs():
    frames = run_scenario(scenario_from_dict(small_scenario_dict(duration_s=0.05)))
    assert first_difference({"parent": frames, "change": list(frames)}) is None
    moved = [*frames[:2], frames[2]._replace(thrust_n=math.nextafter(0.0, 1.0)), *frames[3:]]
    assert first_difference({"parent": frames, "change": moved}) == "frame 2 (t = 0.02 s)"
    assert first_difference({"parent": frames, "change": frames[:-1]}) == "5 frames against 4"
