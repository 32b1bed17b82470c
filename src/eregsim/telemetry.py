"""Structured per-tick output, CSV emission and regulation metrics.

Telemetry values use operator-facing units (bar, degrees, N, kg/s); the
CSV column order is fixed and documented in docs/telemetry_schema.md.
Floats are written at 9 significant digits and round-trip losslessly at
that precision through read_telemetry, in the bytes csv.writer writes:
CRLF rows, never quoted, since no value or event name needs quoting.
read_telemetry reads files in that form only: numpy's C reader parses
about 64 kB of rows per call, and any other line is an error naming it.
The reader, the engine and from_values build their frames through
_frames: in C, a batch at a time.
"""

from __future__ import annotations

import math
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import EregSimError
from .scenario import EREG_NAMES, ScenarioConfig

# Not in an event name: the reader splits the cell on ";", csv quotes the rest.
_EVENT_UNSAFE = frozenset(',;"\r\n')
# read_telemetry: the readlines size hint of one block, and the bytes its
# numeric cells may hold (%.9g's, nan and inf too), on which numpy gives
# float()'s bits.
_BLOCK_CHARS = 1 << 16
_NUMBER_BYTES = b"0123456789+-.eainf,"
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

    def values(self) -> list[float]:
        """The numeric fields in CSV column order."""
        t, a, b, c, d, *rest = self
        return [t, *a, *b, *c, *d, *rest[:7]]

    @classmethod
    def from_values(cls, values: list[float], events) -> TelemetryFrame:
        """The frame whose values() are values; a list not 32 long, or a nan
        or inf value, is a ValueError (naming its CSV column)."""
        _check_values(values)
        return _frames([*zip(values)], [tuple(events)])[0]


# The CSV columns, named once by the frame records: time, one block of
# EREG_FIELDS per regulator, SCALAR_FIELDS, then the events cell.
EREG_FIELDS = EregFrame._fields
SCALAR_FIELDS = TelemetryFrame._fields[1 + len(EREG_NAMES):-1]
_WIDTH = 1 + len(EREG_FIELDS) * len(EREG_NAMES) + len(SCALAR_FIELDS)
# One data row: the numeric fields of values(), then the events cell.
_ROW_FORMAT = "%.9g," * _WIDTH + "%s\r\n"


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


def _frames(columns, events) -> list[TelemetryFrame]:
    """The frames of 32 value columns in CSV column order, each a sequence
    over the frames, and of their events tuples; built in C, a frame at a
    time, and unchecked: callers check the values first."""
    eregs = [map(_new, repeat(EregFrame), zip(*columns[i:i + 6])) for i in range(1, 25, 6)]
    return [*map(_new, repeat(TelemetryFrame), zip(columns[0], *eregs, *columns[25:], events))]


def csv_header() -> list[str]:
    columns = ["time_s"]
    for name in EREG_NAMES:
        columns.extend(f"{name}_{f}" for f in EREG_FIELDS)
    columns.extend(SCALAR_FIELDS)
    columns.append("events")
    return columns


# The header line as emit_telemetry writes it.
_HEADER_LINE = ",".join(csv_header()) + "\r\n"


def emit_telemetry(frames: list[TelemetryFrame], destination: str | Path) -> None:
    """Write frames as CSV with the fixed documented column order; an event
    name holding , ; " CR or LF would not read back and is an EregSimError."""
    unsafe = [e for frame in frames for e in frame.events if not _EVENT_UNSAFE.isdisjoint(e)]
    if unsafe:
        raise EregSimError(f"event name {unsafe[0]!r} holds one of , ; \" CR LF")
    destination = Path(destination)
    try:
        with destination.open("w", newline="") as fh:
            fh.write(_HEADER_LINE)
            fh.writelines(_ROW_FORMAT % (*frame.values(), ";".join(frame.events))
                          for frame in frames)
    except OSError as exc:
        raise EregSimError(f"cannot write telemetry to {destination}: {exc}") from exc


def read_telemetry(path: str | Path) -> list[TelemetryFrame]:
    """The frames of a telemetry CSV in the form emit_telemetry writes: the
    header line, then CRLF rows of 32 finite numbers and an events cell.
    Any other header, or any other line, is an EregSimError naming the file
    and the first line that differs."""
    path = Path(path)
    try:
        # Bytes that do not decode read as surrogates, which _parse rejects.
        with path.open(newline="", errors="surrogateescape") as fh:
            if fh.readline() != _HEADER_LINE:
                raise EregSimError(f"unexpected telemetry header in {path}")
            frames: list[TelemetryFrame] = []
            line = 2
            while lines := fh.readlines(_BLOCK_CHARS):
                try:
                    frames += _parse(lines)
                except ValueError:
                    for k, one in enumerate(lines):
                        try:
                            frames += _parse([one])
                        except ValueError as exc:
                            raise EregSimError(f"malformed telemetry row in {path} at line "
                                               f"{line + k}: {exc}") from None
                line += len(lines)
    except OSError as exc:
        raise EregSimError(f"cannot read telemetry from {path}: {exc}") from exc
    return frames


def _parse(lines: list[str]) -> list[TelemetryFrame]:
    """The frames of data rows, parsed by one numpy call; a ValueError names
    the first fault found. numpy gives float()'s bits for a cell of
    _NUMBER_BYTES, but strips characters float() rejects around a number.
    So a row must be 32 such cells, an events cell with no quote (csv would
    unquote it), then CRLF."""
    n = len(lines)
    text = "".join(lines)
    # readlines ends a line at each CR, LF or CRLF: n of each is n CRLF lines.
    if text.count("\r") != n or text.count("\n") != n:
        raise ValueError("row does not end in CRLF")
    if '"' in text:
        raise ValueError('row holds a quote (")')
    if not text.isascii():
        text.encode()  # raises on the surrogates of bytes that did not decode
    cells = [line.rpartition(",") for line in lines]
    numbers = [c[0] for c in cells]
    # loadtxt would skip an empty line, and warn if all were.
    if "" in numbers:
        raise ValueError(f"0 numeric columns, not {_WIDTH}")
    joined = ",".join(numbers)
    if joined.encode().translate(None, _NUMBER_BYTES):
        token = next(t for t in joined.split(",") if t.encode().translate(None, _NUMBER_BYTES))
        raise ValueError(f"cell {token!r} holds a character %.9g does not write")
    # loadtxt raises on a row whose cell count differs from the first row's:
    # the shape checks 32 cells a line.
    try:
        rows = np.loadtxt(numbers, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        # numpy names a cell by its row in this call and its column from 1.
        for tokens in (line.split(",") for line in numbers):
            if len(tokens) != _WIDTH:
                raise ValueError(f"{len(tokens)} numeric columns, not {_WIDTH}") from None
            for column, token in zip(csv_header(), tokens):
                try:
                    float(token)
                except ValueError:
                    raise ValueError(f"column {column} holds {token!r}, not a number") from None
        raise
    if rows.shape != (n, _WIDTH) or not np.isfinite(rows).all():
        for values in rows.tolist():
            _check_values(values)
    return _frames(rows.T.tolist(), [tuple(e.split(";")) if (e := c[2][:-2]) else ()
                                      for c in cells])


# ---------------------------------------------------------------------------
# Regulation metrics


class EregMetrics(NamedTuple):
    max_abs_error: float  # bar
    rms_error: float  # bar
    settle_time: float  # s (inf if the error never stays settled)
    overshoot: float  # bar beyond the steady error
    peak_oscillation_amplitude: float  # bar peak-to-peak in the early window


def liquid_depletion_time(frames: list[TelemetryFrame]) -> float:
    """The time of the first frame with a liquid depletion, else inf: the
    metrics and the liquid calibration samples drop the frames from then on."""
    for frame in frames:
        if any(e in EVENT_LIQUID_DEPLETED for e in frame.events):
            return frame.time_s
    return math.inf


def regulation_metrics(frames: list[TelemetryFrame],
                       config: ScenarioConfig) -> dict[str, EregMetrics]:
    """Per-regulator tracking metrics against the scheduled setpoints, by name.

    The startup transient window is excluded from error statistics; the
    oscillation amplitude is the max peak-to-peak error within the early
    window measured from t = 0. Frames from the first liquid depletion on
    are excluded (liquid_depletion_time).
    """
    if not frames:
        raise EregSimError("regulation metrics need at least one frame")
    settings = config.metrics
    cutoff = liquid_depletion_time(frames)

    per_ereg = {}
    for name in EREG_NAMES:
        errors_bar = []
        times = []
        early = []
        for frame in frames:
            sub = getattr(frame, name)
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
