"""Structured per-tick output, CSV emission and regulation metrics.

Telemetry values use operator-facing units (bar, degrees, N, kg/s); the
CSV column order is fixed and documented in docs/telemetry_schema.md.
Floats are written at 9 significant digits and round-trip losslessly at
that precision through read_telemetry, in the bytes csv.writer writes:
CRLF rows, never quoted, since no value or event name needs quoting.
read_telemetry accepts what csv.reader and float() read, and builds each
frame in C without a per-row TelemetryFrame method call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import EregSimError
from .scenario import EREG_NAMES, ScenarioConfig

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
# Numeric cells in a row: time, one block of EREG_FIELDS per regulator, SCALAR_FIELDS.
_WIDTH = 1 + len(EREG_FIELDS) * len(EREG_NAMES) + len(SCALAR_FIELDS)
# One data row: the numeric fields of values(), then the events cell.
_ROW_FORMAT = "%.9g," * _WIDTH + "%s\r\n"
# Not in an event name: the reader splits the cell on ";", csv quotes the rest.
_EVENT_UNSAFE = frozenset(',;"\r\n')
# Run event names, the one vocabulary of the engine, the CSV and the metrics.
EVENT_ABORT = "abort_overpressure"
EVENT_SUPPLY_DEPLETED = "supply_gas_depleted"
EVENT_LIQUID_DEPLETED = ("ox_liquid_depleted", "fuel_liquid_depleted")  # indexed like SIDES


class EregFrame(NamedTuple):
    setpoint_bar: float
    pressure_bar: float
    valve_angle_deg: float
    feedforward_deg: float
    u1_deg: float
    u2: float


class TelemetryFrame(NamedTuple):
    """One telemetry row: an immutable named tuple in CSV column order, the
    four regulator blocks nested in EREG_NAMES order, the events last."""

    time_s: float
    ox_tank: EregFrame
    fuel_tank: EregFrame
    ox_inj: EregFrame
    fuel_inj: EregFrame
    supply_pressure_bar: float
    mdot_ox_kg_s: float
    mdot_fuel_kg_s: float
    mdot_gas_kg_s: float
    chamber_pressure_bar: float
    thrust_n: float
    of_ratio: float  # 0.0 while the fuel flow is zero
    events: tuple[str, ...] = ()

    def ereg(self, name: str) -> EregFrame:
        return getattr(self, name)

    def values(self) -> list[float]:
        """The numeric fields in CSV column order."""
        t, a, b, c, d, *rest = self
        return [t, *a, *b, *c, *d, *rest[:7]]

    @classmethod
    def from_values(cls, values: list[float], events) -> TelemetryFrame:
        """The frame whose values() are values; a list not 32 long, or a nan
        or inf value, is a ValueError (naming its CSV column)."""
        _check_values(values)
        return _frame(values, tuple(events))


def _check_values(values: list[float]) -> None:
    """A ValueError unless values are 32 finite numbers; names a nan or inf
    value's CSV column."""
    if len(values) != _WIDTH:
        raise ValueError(f"{len(values)} numeric columns, not {_WIDTH}")
    if not math.isfinite(sum(values)):
        for column, value in zip(csv_header(), values):
            if not math.isfinite(value):
                raise ValueError(f"column {column} is {value}")


_new = tuple.__new__


def _frame(v: list[float], events: tuple[str, ...]) -> TelemetryFrame:
    """The frame of 32 values in CSV column order, built in C and unchecked:
    callers check values with _check_values first."""
    return _new(TelemetryFrame, (v[0], _new(EregFrame, v[1:7]), _new(EregFrame, v[7:13]),
                                 _new(EregFrame, v[13:19]), _new(EregFrame, v[19:25]),
                                 v[25], v[26], v[27], v[28], v[29], v[30], v[31], events))


def csv_header() -> list[str]:
    columns = ["time_s"]
    for name in EREG_NAMES:
        columns.extend(f"{name}_{f}" for f in EREG_FIELDS)
    columns.extend(SCALAR_FIELDS)
    columns.append("events")
    return columns


def emit_telemetry(frames: list[TelemetryFrame], destination: str | Path) -> None:
    """Write frames as CSV with the fixed documented column order; an event
    name holding , ; " CR or LF would not read back and is an EregSimError."""
    unsafe = [e for frame in frames for e in frame.events if not _EVENT_UNSAFE.isdisjoint(e)]
    if unsafe:
        raise EregSimError(f"event name {unsafe[0]!r} holds one of , ; \" CR LF")
    destination = Path(destination)
    try:
        with destination.open("w", newline="") as fh:
            csv.writer(fh).writerow(csv_header())
            fh.writelines(_ROW_FORMAT % (*frame.values(), ";".join(frame.events))
                          for frame in frames)
    except OSError as exc:
        raise EregSimError(f"cannot write telemetry to {destination}: {exc}") from exc


def read_telemetry(path: str | Path) -> list[TelemetryFrame]:
    """The frames of a telemetry CSV; a row that csv.reader and float() do
    not read as 32 finite numbers and an events cell is an EregSimError
    naming the file and the line."""
    path = Path(path)
    frames: list[TelemetryFrame] = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            # csv rejects a cell over its field size limit (csv.Error), a
            # missing field fails to index or convert (IndexError, ValueError),
            # _check_values rejects a row of the wrong width and nan and inf.
            try:
                if next(reader, None) != csv_header():
                    raise EregSimError(f"unexpected telemetry header in {path}")
                for row in reader:
                    values = [*map(float, row[:-1])]
                    events = row[-1]
                    _check_values(values)
                    frames.append(_frame(values, tuple(events.split(";")) if events else ()))
            except (csv.Error, IndexError, ValueError) as exc:
                raise EregSimError(
                    f"malformed telemetry row in {path} at line {reader.line_num}: {exc}"
                ) from exc
    except OSError as exc:
        raise EregSimError(f"cannot read telemetry from {path}: {exc}") from exc
    return frames


# ---------------------------------------------------------------------------
# Regulation metrics


@dataclass(frozen=True)
class EregMetrics:
    max_abs_error: float  # bar
    rms_error: float  # bar
    settle_time: float  # s (inf if the error never stays settled)
    overshoot: float  # bar beyond the steady error
    peak_oscillation_amplitude: float  # bar peak-to-peak in the early window


def _first_depletion_time(frames: list[TelemetryFrame]) -> float:
    for frame in frames:
        if any(e in EVENT_LIQUID_DEPLETED for e in frame.events):
            return frame.time_s
    return math.inf


def regulation_metrics(frames: list[TelemetryFrame],
                       config: ScenarioConfig) -> dict[str, EregMetrics]:
    """Per-regulator tracking metrics against the scheduled setpoints, by name.

    The startup transient window is excluded from error statistics; the
    oscillation amplitude is the max peak-to-peak error within the early
    window measured from t = 0. Frames after the first liquid depletion
    are excluded (the end-of-burn transient is a plant event, not a
    regulation failure).
    """
    if not frames:
        raise EregSimError("regulation metrics need at least one frame")
    settings = config.metrics
    cutoff = _first_depletion_time(frames)

    per_ereg = {}
    for name in EREG_NAMES:
        errors_bar = []
        times = []
        early = []
        for frame in frames:
            sub = frame.ereg(name)
            err = sub.pressure_bar - sub.setpoint_bar
            if frame.time_s <= settings.early_window:
                early.append(err)
            if frame.time_s < settings.startup_window or frame.time_s >= cutoff:
                continue
            errors_bar.append(err)
            times.append(frame.time_s)

        if errors_bar:
            max_abs = max(abs(e) for e in errors_bar)
            rms = math.sqrt(sum(e * e for e in errors_bar) / len(errors_bar))
            threshold_bar = settings.settle_threshold / 1e5
            settle = 0.0
            for t, e in zip(times, errors_bar):
                if abs(e) > threshold_bar:
                    settle = math.inf
                elif settle == math.inf:
                    settle = t
            # Steady error is the mean over the final tenth of the window;
            # overshoot is peak exceedance beyond it, so a constant offset
            # reads as zero overshoot.
            tail = max(1, len(errors_bar) // 10)
            steady = sum(errors_bar[-tail:]) / tail
            overshoot = max(0.0, max(errors_bar) - max(0.0, steady))
        else:
            max_abs = rms = overshoot = 0.0
            settle = 0.0
        oscillation = (max(early) - min(early)) if early else 0.0
        per_ereg[name] = EregMetrics(
            max_abs_error=max_abs,
            rms_error=rms,
            settle_time=settle,
            overshoot=overshoot,
            peak_oscillation_amplitude=oscillation,
        )
    return per_ereg
