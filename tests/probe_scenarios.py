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

A second arm changes a built config instead of a file: each field in
REPLACED, on the small test scenario loaded for PROBE_S, is set through
ScenarioConfig.replace to each value in EXTREMES and to 0, -1 and nan.
Such an input must be rejected by replace() itself with a ConfigError,
or run clean or aborted as above.

tests/test_scenario.py runs a sample of the first arm and all of the
second. Both arms (about 2,600 inputs) take some 10-20 s and print each
failing input, then one line of counts per arm:

    PYTHONPATH=src python -m tests.probe_scenarios

It last printed "2496 inputs: 925 rejected at load, 1505 clean, 66
aborted, 0 failing" and "90 replace() inputs: 68 rejected at replace, 18
clean, 4 aborted, 0 failing".
"""

from __future__ import annotations

import copy
import functools
import math
from collections import Counter

from eregsim.engine import EVENT_ABORT
from eregsim.errors import ConfigError
from eregsim.scenario import scenario_from_dict
from tests.conftest import SCENARIO_DIR, load_yaml, small_scenario_dict
from tests.oracles import audited_run
from tests.record_golden import SHIPPED

EXTREMES = (5e-324, 1e-300, 1e-200, 1e-17, 1e200, 1e300)
SKIPPED = ("duration_s",)
PROBE_S = 0.2
GAS_LAW_TOLERANCE = 1e-9
REJECTED, CLEAN, ABORTED = "rejected at load", "clean", "aborted"
OUTCOMES = (REJECTED, CLEAN, ABORTED)
# The ScenarioConfig fields whose rules the config's own check holds.
REPLACED = ("duration", "dt_phys", "dt_secondary", "dt_primary", "ambient_pressure",
            "supply_pressure", "noise_sigma", "noise_seed", "abort_pressure_factor",
            "ullage_collapse_coeff")
REPLACED_VALUES = (*EXTREMES, 0, -1, math.nan)
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


def probe_id(stem: str, path: tuple, value: float) -> str:
    return f"{stem}:{'.'.join(map(str, path))}={value!r}"


def probe(stem: str, path: tuple, value: float) -> str:
    """One of OUTCOMES, or what went wrong."""
    data = copy.deepcopy(shipped(stem))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    data["duration_s"] = PROBE_S
    try:
        config = scenario_from_dict(data)
    except ConfigError:
        return REJECTED
    except Exception as exc:  # a probe records every escape as a failure
        return f"raw {type(exc).__name__} at load: {exc}"
    return run_outcome(config)


def replace_inputs() -> list[tuple[str, float]]:
    """(field, value) of every replace() probe, in a fixed order."""
    return [(field, value) for field in REPLACED for value in REPLACED_VALUES]


def replace_id(field: str, value: float) -> str:
    return f"replace({field}={value!r})"


def probe_replace(field: str, value: float) -> str:
    """One of REPLACE_OUTCOMES, or what went wrong."""
    config = scenario_from_dict(small_scenario_dict(duration_s=PROBE_S))
    try:
        config = config.replace(**{field: value})
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


def main() -> None:
    tally("inputs", probe_inputs(), probe, probe_id, OUTCOMES)
    tally("replace() inputs", replace_inputs(), probe_replace, replace_id, REPLACE_OUTCOMES)


if __name__ == "__main__":
    main()
