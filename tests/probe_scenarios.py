"""Probe the rule that a scenario, loaded or replace()d, runs or is rejected.

Every numeric key of the shipped scenarios is set, one key at a time, to
each value in EXTREMES, and the scenario is loaded and run for PROBE_S
seconds. Each input ends one of four ways:

- rejected: a ConfigError at load;
- clean: a run that reaches PROBE_S and keeps the gas law p V = m R T
  within GAS_LAW_TOLERANCE at every step (RunAudit);
- aborted: the same, but the run ends early at the over-pressure abort,
  the run's own reaction to a pressure above a valve's rating;
- failing: any other exception at load, an error during the run or a
  broken gas law.

The duration key is left out: every probe runs for PROBE_S. The timing
keys are probed too; scenario.MAX_STEPS rejects a physics step so short
that the run would never end.

EXTREMES holds 10**400 too, an int that a YAML file can hold and a
float cannot.

A second arm changes a built config instead of a file: each entry in
REPLACED, on the small test scenario loaded for PROBE_S, is set through
ScenarioConfig.replace to each value in EXTREMES, to 0, -1 and nan, and
to a number given as text. The entries are config fields and, by dotted
path, the setpoint schedule's tank setpoints, profile starts and one
segment's target, ramp rate and hold, and record fields in the config's
dicts, its actuator and its metrics (a tank's volume and ullage, a line,
an injector orifice, a valve's Cv law and k, an injector regulator's
limits and feedforward, the actuator's backlash and encoder, the metrics
windows and threshold). Such an input must be rejected by replace()
itself with a ConfigError, or run clean or aborted as above.

tests/test_scenario.py runs a sample of the first arm and all of the
second. Both arms (about 3,300 inputs) take some 10-20 s and print each
failing input, then one line of counts per arm:

    PYTHONPATH=src python -m tests.probe_scenarios

It last printed "2912 inputs: 1356 rejected at load, 1490 clean, 66
aborted, 0 failing" and "418 replace() inputs: 267 rejected at replace,
147 clean, 4 aborted, 0 failing".

With --messages it runs no scenario and prints each input that either
arm rejects at load or at replace(), with the error message, one a line,
so that two trees' rejections can be diffed.
"""

from __future__ import annotations

import argparse
import copy
import functools
import math
import sys
from collections import Counter

from eregsim.engine import EVENT_ABORT
from eregsim.errors import ConfigError
from eregsim.scenario import scenario_from_dict
from tests.conftest import SCENARIO_DIR, load_yaml, small_scenario_dict
from tests.oracles import audited_run
from tests.record_golden import SHIPPED

EXTREMES = (5e-324, 1e-300, 1e-200, 1e-17, 1e200, 1e300, 10**400)
SKIPPED = ("duration_s",)
PROBE_S = 0.2
GAS_LAW_TOLERANCE = 1e-9
REJECTED, CLEAN, ABORTED = "rejected at load", "clean", "aborted"
OUTCOMES = (REJECTED, CLEAN, ABORTED)
# The ScenarioConfig fields whose rules the config's own check holds, and
# by dotted path the schedule's entries (each tank setpoint, each injector
# profile's start, and the target, ramp rate and hold of one segment) and
# record fields in the dict fields, the actuator and the metrics: a tank's
# volume and ullage, a line, an injector orifice, a valve's Cv law and k,
# an injector regulator's limit pairs and feedforward, the actuator's
# backlash and encoder, and the three metrics settings.
REPLACED = ("duration", "dt_phys", "dt_secondary", "dt_primary", "ambient_pressure",
            "supply_pressure", "noise_sigma", "noise_seed", "abort_pressure_factor",
            "ullage_collapse_coeff", "schedule.ox_tank", "schedule.fuel_tank",
            "schedule.ox_inj.start_pressure", "schedule.fuel_inj.start_pressure",
            "schedule.ox_inj.segments.0.target_pressure", "schedule.ox_inj.segments.0.ramp_rate",
            "schedule.ox_inj.segments.0.hold_duration", "valves.ox_inj.alpha",
            "valves.ox_inj.theta_zero", "valves.ox_tank.choked_constant",
            "controllers.ox_inj.integral_limits.0", "controllers.ox_inj.integral_limits.1",
            "controllers.ox_inj.secondary_integral_limits.0",
            "controllers.ox_inj.secondary_integral_limits.1",
            "controllers.ox_inj.feedforward.nominal_flow",
            "controllers.ox_inj.feedforward.min_drop", "actuator.backlash",
            "actuator.encoder_counts_per_degree", "tanks.ox.total_volume",
            "tanks.ox.initial_ullage_fraction", "lines.ox.friction_factor", "lines.ox.length",
            "lines.ox.diameter", "injectors.ox.cd", "injectors.ox.area",
            "metrics.startup_window", "metrics.early_window", "metrics.settle_threshold")
# The text is a number the reader would parse; a config keeps numbers.
REPLACED_VALUES = (*EXTREMES, 0, -1, math.nan, "0.2")
REJECTED_AT_REPLACE = "rejected at replace"
REPLACE_OUTCOMES = (REJECTED_AT_REPLACE, CLEAN, ABORTED)


@functools.cache
def shipped(stem: str) -> dict:
    return load_yaml(SCENARIO_DIR / f"{stem}.yaml")


def numeric_paths(node, prefix: tuple = ()):
    """Key and list-index paths of every number (not bool) under node."""
    if not isinstance(node, (dict, list)):
        return
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + (key,)
        else:
            yield from numeric_paths(value, prefix + (key,))


def probe_inputs() -> list[tuple[str, tuple, float]]:
    """(scenario stem, key path, value) of every probe, in a fixed order."""
    return [
        (stem, path, value)
        for stem in SHIPPED
        for path in numeric_paths(shipped(stem))
        if path[0] not in SKIPPED
        for value in EXTREMES
    ]


def shown(value) -> str:
    """repr(value), but an int past the largest float as a power of ten."""
    if isinstance(value, int) and value > sys.float_info.max:
        return f"10**{math.log10(value):.0f}"
    return repr(value)


def probe_id(stem: str, path: tuple, value: float) -> str:
    return f"{stem}:{'.'.join(map(str, path))}={shown(value)}"


def loaded(stem: str, path: tuple, value: float):
    """The shipped scenario with the key at path set to value, loaded to
    run for PROBE_S."""
    data = copy.deepcopy(shipped(stem))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    data["duration_s"] = PROBE_S
    return scenario_from_dict(data)


def probe(stem: str, path: tuple, value: float) -> str:
    """One of OUTCOMES, or what went wrong."""
    try:
        config = loaded(stem, path, value)
    except ConfigError:
        return REJECTED
    except Exception as exc:  # a probe records every escape as a failure
        return f"raw {type(exc).__name__} at load: {exc}"
    return run_outcome(config)


def replace_inputs() -> list[tuple[str, float]]:
    """(field, value) of every replace() probe, in a fixed order."""
    return [(field, value) for field in REPLACED for value in REPLACED_VALUES]


def replace_id(field: str, value: float) -> str:
    return f"replace({field}={shown(value)})"


def replaced(node, path: list[str], value):
    """node, a NamedTuple, a tuple or a dict, with the entry at path set to value."""
    if not path:
        return value
    key, *rest = path
    if isinstance(node, dict):
        return {**node, key: replaced(node[key], rest, value)}
    if key.isdigit():
        i = int(key)
        return (*node[:i], replaced(node[i], rest, value), *node[i + 1:])
    return node._replace(**{key: replaced(getattr(node, key), rest, value)})


def replaced_config(field: str, value: float):
    """The small test scenario, loaded for PROBE_S, with field replaced by value."""
    config = scenario_from_dict(small_scenario_dict(duration_s=PROBE_S))
    key, *path = field.split(".")
    return config.replace(**{key: replaced(getattr(config, key), path, value)})


def probe_replace(field: str, value: float) -> str:
    """One of REPLACE_OUTCOMES, or what went wrong."""
    try:
        config = replaced_config(field, value)
    except ConfigError:
        return REJECTED_AT_REPLACE
    except Exception as exc:
        return f"raw {type(exc).__name__} at replace: {exc}"
    return run_outcome(config)


def run_outcome(config) -> str:
    """CLEAN or ABORTED for a run that keeps the gas law, or what went wrong."""
    try:
        frames, audit = audited_run(config)
    except Exception as exc:
        return f"mid-run {type(exc).__name__}: {exc}"
    if not audit.max_gas_law_residual < GAS_LAW_TOLERANCE:
        return f"gas-law residual {audit.max_gas_law_residual:.3g}"
    return ABORTED if EVENT_ABORT in frames[-1].events else CLEAN


def tally(label: str, inputs: list, probe_one, name_one, outcomes: tuple) -> None:
    """Print each failing input, then one line of counts."""
    counts = Counter()
    for args in inputs:
        outcome = probe_one(*args)
        if outcome not in outcomes:
            print(f"{name_one(*args)}: {outcome}")
            outcome = "failing"
        counts[outcome] += 1
    print(f"{len(inputs)} {label}: "
          + ", ".join(f"{counts[name]} {name}" for name in (*outcomes, "failing")))


def messages(inputs: list, build, name_one) -> None:
    """Print each input that build rejects, with its message: a ConfigError's
    as it is, any other error's after its type, as a failing input."""
    for args in inputs:
        try:
            build(*args)
        except ConfigError as exc:
            print(f"{name_one(*args)}: {exc}")
        except Exception as exc:  # a probe records every escape as a failure
            print(f"{name_one(*args)}: raw {type(exc).__name__}: {exc}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", action="store_true",
                        help="print each rejected input with its message instead of the tallies")
    if parser.parse_args().messages:
        messages(probe_inputs(), loaded, probe_id)
        messages(replace_inputs(), replaced_config, replace_id)
        return
    tally("inputs", probe_inputs(), probe, probe_id, OUTCOMES)
    tally("replace() inputs", replace_inputs(), probe_replace, replace_id, REPLACE_OUTCOMES)


if __name__ == "__main__":
    main()
