"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def test_self_time_of_hand_built_span_tree():
    # engine [0, 10] holds fluids [1, 3] and control [4, 8]; control holds fluids [5, 6].
    names = ["engine.run", "fluids.flow", "control.tick"]
    summary = spans.summarize(
        names,
        name_id=[0, 1, 2, 1],
        parent=[-1, 0, 0, 2],
        start=[0.0, 1.0, 4.0, 5.0],
        end=[10.0, 3.0, 8.0, 6.0],
    )
    assert summary["engine.run"] == (1, 10.0, 4.0)
    assert summary["fluids.flow"] == (2, 3.0, 3.0)
    assert summary["control.tick"] == (1, 4.0, 3.0)
    assert spans.layer_self_time(summary, "engine") == 4.0
    assert spans.layer_self_time(summary, "control") == 3.0
    assert spans.layer_calls(summary, "fluids") == 2
    # Self times partition the root span.
    assert sum(own for _, _, own in summary.values()) == 10.0


def test_yardstick_scaling():
    nominal = yardstick.NOMINAL_S
    assert yardstick.scale(1.0, [nominal, nominal]) == pytest.approx(1.0)
    # Half speed: every time doubles, the scaled time stays.
    assert yardstick.scale(2.0, [2 * nominal, 2 * nominal]) == pytest.approx(1.0)
    # Mean speed over the item: half the time at full speed, half at half speed.
    assert yardstick.scale(1.5, [nominal, 2 * nominal]) == pytest.approx(1.125)
    assert yardstick.loop(50) == yardstick.loop(50)  # fixed work


def test_sampler_takes_slices_only_while_started():
    sampler = yardstick.Sampler()
    sampler.start()
    yardstick.loop(20_000)  # well over one interval
    slices = list(sampler.stop())
    assert slices and all(t > 0.0 for t in slices)
    yardstick.loop(5_000)
    assert sampler.slices == slices


def test_tracer_records_parents_and_clears():
    tracer = spans.Tracer()
    inner = tracer.wrap("fluids", "inner", lambda x: x + 1)
    outer = tracer.wrap("engine", "outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert list(tracer.parent) == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["fluids.inner"][0] == 2
    assert summary["engine.outer"][2] <= summary["engine.outer"][1]
    tracer.clear()
    assert outer(1) == 3  # wrappers keep writing into the cleared buffers
    assert tracer.summary()["engine.outer"][0] == 1


def test_patch_engine_wraps_imported_names_and_unpatch_restores():
    modules = run.fresh_import()
    engine, control, fluids = modules["engine"], modules["control"], modules["fluids"]
    originals = (engine.chamber_state, control.EregController.__dict__["step"],
                 fluids.GasTankState.__dict__["from_pressure"])
    tracer = spans.Tracer()
    tracer.patch_engine(engine)
    try:
        assert engine.chamber_state.__wrapped__ is originals[0]
        assert control.EregController.step.__wrapped__ is originals[1]
        state = fluids.GasTankState.from_pressure(1e5, 1.0, 293.0, 296.8)
        assert state.pressure == 1e5
        assert "fluids.GasTankState.from_pressure" in tracer.summary()
        assert engine.EREG_NAMES == modules["scenario"].EREG_NAMES  # constants untouched
    finally:
        tracer.unpatch()
    assert (engine.chamber_state, control.EregController.__dict__["step"],
            fluids.GasTankState.__dict__["from_pressure"]) == originals


@pytest.mark.parametrize("name", ["staticfire_throttle", "waterflow_blowdown"])
def test_run_inputs_depend_only_on_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workload.make_inputs(ROOT, 5)
    assert workload.make_inputs(ROOT, 5) == first
    assert workload.make_inputs(ROOT, 6) != first


def test_calibration_inputs_depend_only_on_seed(tmp_path):
    modules = run.fresh_import()
    calls = workloads.bind(modules)
    workload = workloads.WORKLOADS["calibrate_fits"]
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        out = tmp_path / str(i)
        out.mkdir()
        state, digest = workload.setup(calls, modules, ROOT, out, seed)
        digests.append(digest)
        if i == 0:
            assert workload.check(state, workload.op(calls, state), None) is None
    assert digests[0] == digests[1] != digests[2]


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference("staticfire_throttle")


def test_reference_output_passes(reference):
    fields, onsets = reference["seeds"][0]
    assert checks.check_against_reference(fields.copy(), onsets, reference, 0) is None
    # Reordered arithmetic moves the last bits only; that stays accepted.
    assert checks.check_against_reference(fields * (1 + 1e-14), onsets, reference, 0) is None


def test_check_rejects_field_perturbed_by_1e9_relative(reference):
    fields, onsets = reference["seeds"][0]
    perturbed = fields.copy()
    perturbed[700, 2] *= 1 + 1e-9  # ox tank pressure, mid-burn
    reason = checks.check_against_reference(perturbed, onsets, reference, 0)
    assert reason is not None and "frame 700 column 2" in reason


def test_check_rejects_dropped_event(reference):
    fields, onsets = reference["seeds"][0]
    assert onsets, "the baseline burn ends on a depletion event"
    reason = checks.check_against_reference(fields, onsets[:-1], reference, 0)
    assert reason is not None and "events" in reason
    # Seeds outside the stored set are still held to the final event list.
    assert checks.check_against_reference(fields, onsets[:-1], reference, 99) is not None


def test_check_rejects_missing_frame(reference):
    fields, onsets = reference["seeds"][0]
    assert checks.check_against_reference(fields[:-1], onsets, reference, 99) is not None


def test_recovery_tolerances():
    assert checks.check_recovery({"a": (1.0 + 5e-10, 1.0, "rel", 1e-9)}) is None
    assert checks.check_recovery({"a": (1.0 + 2e-9, 1.0, "rel", 1e-9)}) is not None
    assert checks.check_recovery({"t": (12.3, 12.45, "abs", 0.1)}) is not None


def test_fails_without_sources(tmp_path):
    """Outside a source tree the benchmark exits nonzero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "staticfire_throttle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_frames_to_array_column_order():
    modules = run.fresh_import()
    header = modules["telemetry"].csv_header()
    columns = ["time_s"] + [f"{e}_{f}" for e in checks.EREGS for f in checks.EREG_FIELDS]
    columns += list(checks.SCALAR_FIELDS)
    assert columns == header[:-1]  # the CSV's last column is the event list
    assert checks.frames_to_array([]).shape == (0, len(columns))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrate_fits",
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
