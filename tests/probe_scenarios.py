"""Probe the rule that a scenario either runs or is rejected at load.

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
that the run would never end. tests/test_scenario.py runs a sample of
the inputs; the full grid (about 2,500 inputs) takes some 20 s and
prints the counts and each failing input:

    PYTHONPATH=src python -m tests.probe_scenarios

It last printed "2496 inputs: 925 rejected at load, 1505 clean, 66
aborted, 0 failing".
"""

from __future__ import annotations

import copy
import functools
from collections import Counter

from eregsim.engine import EVENT_ABORT, RunAudit, run_scenario
from eregsim.errors import ConfigError
from eregsim.scenario import scenario_from_dict
from tests.conftest import SCENARIO_DIR, load_yaml
from tests.record_golden import SHIPPED

EXTREMES = (5e-324, 1e-300, 1e-200, 1e-17, 1e200, 1e300)
SKIPPED = ("duration_s",)
PROBE_S = 0.2
GAS_LAW_TOLERANCE = 1e-9
REJECTED, CLEAN, ABORTED = "rejected at load", "clean", "aborted"
OUTCOMES = (REJECTED, CLEAN, ABORTED)


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
    audit = RunAudit()
    try:
        frames = run_scenario(config, audit=audit)
    except Exception as exc:
        return f"mid-run {type(exc).__name__}: {exc}"
    if not audit.max_gas_law_residual < GAS_LAW_TOLERANCE:
        return f"gas-law residual {audit.max_gas_law_residual:.3g}"
    return ABORTED if EVENT_ABORT in frames[-1].events else CLEAN


def main() -> None:
    inputs = probe_inputs()
    counts = Counter()
    for stem, path, value in inputs:
        outcome = probe(stem, path, value)
        if outcome not in OUTCOMES:
            print(f"{probe_id(stem, path, value)}: {outcome}")
            outcome = "failing"
        counts[outcome] += 1
    print(f"{len(inputs)} inputs: "
          + ", ".join(f"{counts[name]} {name}" for name in (*OUTCOMES, "failing")))


if __name__ == "__main__":
    main()
