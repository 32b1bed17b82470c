"""What importing eregsim builds: no dataclass, which execs generated
methods on every import, and no record annotation left for typing to
compile into a ForwardRef, as `from __future__ import annotations` would;
and the summary of tests.import_cost."""

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import pytest

import eregsim
from tests.import_cost import report, summarise

MODULES = [importlib.import_module(f"eregsim.{m.name}")
           for m in pkgutil.iter_modules(eregsim.__path__)]
CLASSES = {f"{cls.__module__}.{cls.__qualname__}": cls for module in MODULES
           for cls in vars(module).values()
           if inspect.isclass(cls) and cls.__module__ == module.__name__}


def test_every_module_is_searched():
    assert {m.__name__.rpartition(".")[2] for m in MODULES} == {
        "calibration", "cli", "control", "engine", "errors", "fluids", "scenario", "telemetry"}
    assert "eregsim.scenario.ScenarioConfig" in CLASSES


@pytest.mark.parametrize("cls", CLASSES.values(), ids=CLASSES.keys())
def test_no_class_is_a_dataclass(cls):
    assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", CLASSES.values(), ids=CLASSES.keys())
def test_record_annotations_are_evaluated(cls):
    annotations = vars(cls).get("__annotations__", {})
    assert not [name for name, value in annotations.items()
                if isinstance(value, (str, typing.ForwardRef))]


def test_config_fields_keep_their_types():
    fields = typing.get_type_hints(eregsim.ScenarioConfig)
    assert list(fields) == list(eregsim.ScenarioConfig._fields)
    assert fields["chamber"] == eregsim.ChamberModel | None
    assert fields["noise_seed"] is int


def test_summarise_canned_rounds():
    times = {"parent": [0.030, 0.032, 0.029, 0.031, 0.035],
             "change": [0.027, 0.033, 0.026, 0.028, 0.025]}
    summary = summarise(times)
    # Exclusive quartiles of 29, 30, 31, 32, 35 ms and of 25, 26, 27, 28, 33 ms.
    assert summary["parent"] == pytest.approx({"median": 0.031, "q1": 0.0295, "q3": 0.0335})
    assert summary["change"] == pytest.approx({"median": 0.027, "q1": 0.0255, "q3": 0.0305})
    assert summary["change_over_parent"] == pytest.approx(27 / 31)
    assert summary["rounds"] == 5
    assert summary["change_won"] == 4  # round 2 read 33 ms against 32 ms
    assert report(summary) == [
        "parent median 31.00 ms, IQR 29.50-33.50 ms",
        "change median 27.00 ms, IQR 25.50-30.50 ms",
        "change/parent x0.871; the change was faster in 4/5 rounds",
    ]
