"""Output checks applied to every op.

Run workloads are compared with a reference recorded by
``record_reference.py``: the frame count and the final event list for
every seed, and for the seeds stored in the reference every telemetry
field within REL_TOL relative and the frame at which each event first
appears. They must also meet the paper's regulation bounds.
Calibration fits must recover the parameters their logs were made from.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# The telemetry layout as recorded with the reference. It is spelled out
# here rather than read from eregsim.telemetry so a change there cannot
# silently change what the check compares.
EREGS = ("ox_tank", "fuel_tank", "ox_inj", "fuel_inj")
EREG_FIELDS = ("setpoint_bar", "pressure_bar", "valve_angle_deg", "feedforward_deg", "u1_deg", "u2")
SCALAR_FIELDS = (
    "supply_pressure_bar",
    "mdot_ox_kg_s",
    "mdot_fuel_kg_s",
    "mdot_gas_kg_s",
    "chamber_pressure_bar",
    "thrust_n",
    "of_ratio",
)


def frames_to_array(frames) -> np.ndarray:
    """Every numeric telemetry field, one row per frame, in CSV column order."""
    rows = []
    for f in frames:
        row = [f.time_s]
        for name in EREGS:
            sub = getattr(f, name)
            row.extend(getattr(sub, k) for k in EREG_FIELDS)
        row.extend(getattr(f, k) for k in SCALAR_FIELDS)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), 1 + 6 * len(EREGS) + len(SCALAR_FIELDS))


def event_onsets(frames) -> list[list]:
    """[frame index, event] for the first frame each event appears in."""
    seen, onsets = set(), []
    for i, f in enumerate(frames):
        for event in f.events:
            if event not in seen:
                seen.add(event)
                onsets.append([i, event])
    return onsets


def load_reference(workload: str) -> dict | None:
    """{"frame_count", "final_events", "seeds": {seed: (fields, onsets)}} or None."""
    meta_path = REFERENCE_DIR / f"{workload}.json"
    if not meta_path.exists():
        return None
    meta = json.loads(meta_path.read_text())
    with np.load(REFERENCE_DIR / f"{workload}.npz") as data:
        seeds = {
            int(seed): (data[f"fields_s{seed}"], onsets)
            for seed, onsets in meta["onsets"].items()
        }
    return {"frame_count": meta["frame_count"], "final_events": meta["final_events"], "seeds": seeds}


def compare_fields(fields: np.ndarray, ref: np.ndarray, chunk: int = 100) -> str | None:
    """First field off the reference by more than REL_TOL relative, or None.

    Compared a chunk of frames at a time so the check's temporaries stay
    small: the benchmark reports peak memory, and only some seeds have a
    reference to compare with.
    """
    if fields.shape != ref.shape:
        return f"telemetry shape {fields.shape} != reference {ref.shape}"
    for first in range(0, len(fields), chunk):
        a, b = fields[first:first + chunk], ref[first:first + chunk]
        bad = np.argwhere(~(np.abs(a - b) <= REL_TOL * np.maximum(np.abs(a), np.abs(b))))
        if len(bad):
            row, col = bad[0]
            return (
                f"telemetry off the reference by more than {REL_TOL:g} relative, first at "
                f"frame {first + row} column {col}: {a[row, col]!r} != {b[row, col]!r}"
            )
    return None


def check_against_reference(fields: np.ndarray, onsets: list, reference: dict, seed: int) -> str | None:
    if len(fields) != reference["frame_count"]:
        return f"{len(fields)} frames, reference has {reference['frame_count']}"
    final = [event for _, event in onsets]
    if final != reference["final_events"]:
        return f"events {final} != reference {reference['final_events']}"
    if seed in reference["seeds"]:
        ref_fields, ref_onsets = reference["seeds"][seed]
        if onsets != ref_onsets:
            return f"event onsets {onsets} != reference {ref_onsets}"
        return compare_fields(fields, ref_fields)
    return None


# ---------------------------------------------------------------------------
# The paper's bounds (acceptance tests 2, 3 and 5)


def _hold_window(config, which: str) -> tuple[float, float]:
    intervals = config.schedule.ox_inj.hold_intervals()
    if which == "max":
        start, end, _ = max(intervals, key=lambda iv: iv[2])
    else:
        start, end, _ = intervals[-1]
    end = min(end, config.duration - 1.0)
    return start + 0.5 * (end - start), end


def _window_mean(frames, attr: str, window) -> float:
    values = [getattr(f, attr) for f in frames if window[0] <= f.time_s <= window[1]]
    return sum(values) / len(values) if values else math.nan


def staticfire_bounds(frames, metrics, config) -> str | None:
    """Tank <= 0.5 bar, injector <= 1 bar, thrust 3000/2100 N +-5 %, OF 2.3 +- 0.1."""
    for name in EREGS:
        limit = 0.5 if name.endswith("_tank") else 1.0
        if not metrics[name].max_abs_error <= limit:
            return f"{name} max error {metrics[name].max_abs_error:.3f} bar > {limit}"
    for which, thrust_target in (("max", 3000.0), ("final", 2100.0)):
        window = _hold_window(config, which)
        thrust = _window_mean(frames, "thrust_n", window)
        of = _window_mean(frames, "of_ratio", window)
        if not abs(thrust / thrust_target - 1.0) <= 0.05:
            return f"{which}-hold thrust {thrust:.1f} N not within 5 % of {thrust_target}"
        if not abs(of - 2.3) <= 0.1:
            return f"{which}-hold OF {of:.3f} not within 0.1 of 2.3"
    return None


def blowdown_bounds(frames, metrics, config) -> str | None:
    """Feedforward-only tank error <= 15 % throughout; supply ends below 60 bar."""
    for name in ("ox_tank", "fuel_tank"):
        setpoint = getattr(frames[0], name).setpoint_bar
        worst = max(abs(getattr(f, name).pressure_bar / setpoint - 1.0) for f in frames)
        if not worst <= 0.15:
            return f"{name} feedforward-only error {100 * worst:.1f} % > 15 %"
    if not frames[-1].supply_pressure_bar < 60.0:
        return f"supply ends at {frames[-1].supply_pressure_bar:.1f} bar, not below 60"
    return None


def check_recovery(fits: dict) -> str | None:
    """fits: {label: (fitted, true, "rel" | "abs", tolerance)}."""
    for label, (fitted, true, kind, tol) in fits.items():
        err = abs(fitted / true - 1.0) if kind == "rel" else abs(fitted - true)
        if not err <= tol:
            return f"{label} fitted {fitted!r}, true {true!r}: {kind} error {err:.3g} > {tol:g}"
    return None
