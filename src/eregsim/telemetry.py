"""Structured per-tick output, CSV emission and regulation metrics.

Telemetry values use operator-facing units (bar, degrees, N, kg/s); the
CSV column order is fixed and documented in docs/telemetry_schema.md.
Floats are written at 9 significant digits and round-trip losslessly at
that precision through read_telemetry, in the bytes csv.writer writes:
CRLF rows, never quoted, since no value or event name needs quoting.
read_telemetry reads files in that form only: numpy's C reader parses
about 64 kB of rows per call, and any other line is an error naming it.
A frame is one flat tuple named by the CSV columns: its 32 values, then
its events. The reader and the engine build their frames through
_frames, in C, a batch at a time, and the metrics and the calibration
adapters read them by column.
"""

import math
from collections import namedtuple
from itertools import compress, repeat
from operator import attrgetter, not_, sub
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
_LIQUID_DEPLETED = frozenset(EVENT_LIQUID_DEPLETED)


class EregFrame(NamedTuple):
    setpoint_bar: float
    pressure_bar: float
    valve_angle_deg: float
    feedforward_deg: float
    u1_deg: float
    u2: float


# The CSV columns: time, one block of EREG_FIELDS per regulator in EREG_NAMES
# order, SCALAR_FIELDS, then the events cell.
EREG_FIELDS = EregFrame._fields
SCALAR_FIELDS = ("supply_pressure_bar", "mdot_ox_kg_s", "mdot_fuel_kg_s", "mdot_gas_kg_s",
                 "chamber_pressure_bar", "thrust_n", "of_ratio")  # of_ratio 0.0 while no fuel flows
_WIDTH = 1 + len(EREG_FIELDS) * len(EREG_NAMES) + len(SCALAR_FIELDS)
_new = tuple.__new__


def _block(j: int) -> property:
    """Regulator j's block of a frame, read as an EregFrame."""
    start = 1 + len(EREG_FIELDS) * j
    return property(lambda frame: _new(EregFrame, frame[start:start + len(EREG_FIELDS)]))


class TelemetryFrame(namedtuple("TelemetryFrame", [
        "time_s", *(f"{name}_{f}" for name in EREG_NAMES for f in EREG_FIELDS),
        *SCALAR_FIELDS, "events"])):
    """One telemetry row: an immutable flat tuple of its 32 values in CSV
    column order, named by their columns, then the events tuple. It is
    built from the time, the four regulator blocks in EREG_NAMES order, the
    scalars and the events; ox_tank ... fuel_inj read the blocks back."""

    __slots__ = ()

    def __new__(cls, time_s, ox_tank, fuel_tank, ox_inj, fuel_inj, supply_pressure_bar,
                mdot_ox_kg_s, mdot_fuel_kg_s, mdot_gas_kg_s, chamber_pressure_bar, thrust_n,
                of_ratio, events=()):
        frame = _new(cls, (time_s, *ox_tank, *fuel_tank, *ox_inj, *fuel_inj, supply_pressure_bar,
                           mdot_ox_kg_s, mdot_fuel_kg_s, mdot_gas_kg_s, chamber_pressure_bar,
                           thrust_n, of_ratio, events))
        if len(frame) != _WIDTH + 1:
            raise TypeError(f"regulator blocks of {len(EREG_FIELDS)} values expected")
        return frame

    ox_tank, fuel_tank, ox_inj, fuel_inj = map(_block, range(len(EREG_NAMES)))

    def __repr__(self) -> str:
        return _REPR % self

    def __reduce__(self):  # copy and pickle: __new__ takes blocks, not the 33 fields
        return self._make, (tuple(self),)


# The repr of the frame as nested blocks, as its constructor takes it.
_REPR = "TelemetryFrame(%s)" % ", ".join([
    "time_s=%r",
    *(f"{name}=EregFrame({', '.join(f'{f}=%r' for f in EREG_FIELDS)})" for name in EREG_NAMES),
    *(f"{f}=%r" for f in SCALAR_FIELDS), "events=%r"])
# One data row: the 32 numeric fields, then the events cell.
_ROW_FORMAT = "%.9g," * _WIDTH + "%s\r\n"


def _check_values(values: list[float]) -> None:
    """A ValueError unless values are 32 finite numbers; names a nan or inf
    value's CSV column."""
    if len(values) != _WIDTH:
        raise ValueError(f"{len(values)} numeric columns, not {_WIDTH}")
    if not math.isfinite(sum(values)):
        for column, value in zip(TelemetryFrame._fields, values):
            if not math.isfinite(value):
                raise ValueError(f"column {column} is {value}")


def _frames(rows) -> list[TelemetryFrame]:
    """The frames of rows, each its 32 values in CSV column order, then its
    events tuple; built in C, unchecked: callers check the values first."""
    return [*map(_new, repeat(TelemetryFrame), rows)]


def csv_header() -> list[str]:
    return [*TelemetryFrame._fields]


# The header line as emit_telemetry writes it.
_HEADER_LINE = ",".join(TelemetryFrame._fields) + "\r\n"


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
            fh.writelines(_ROW_FORMAT % (*frame[:_WIDTH], ";".join(frame[_WIDTH]))
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
    # readlines ends a line at each CR, LF or CRLF, and only there: n CRLFs
    # are n CRLF lines.
    if text.count("\r\n") != n:
        raise ValueError("row does not end in CRLF")
    if '"' in text:
        raise ValueError('row holds a quote (")')
    if not text.isascii():
        text.encode()  # raises on the surrogates of bytes that did not decode
    numbers, _, ends = zip(*map(str.rpartition, lines, repeat(",")))
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
            for column, token in zip(TelemetryFrame._fields, tokens):
                try:
                    float(token)
                except ValueError:
                    raise ValueError(f"column {column} holds {token!r}, not a number") from None
        raise
    if rows.shape != (n, _WIDTH) or not np.isfinite(rows).all():
        for values in rows.tolist():
            _check_values(values)
    return _frames(zip(*rows.T.tolist(), [tuple(e.split(";")) if (e := end[:-2]) else ()
                                          for end in ends]))


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
    events = map(attrgetter("events"), frames)
    first = next(compress(frames, map(not_, map(_LIQUID_DEPLETED.isdisjoint, events))), None)
    return math.inf if first is None else first.time_s


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

    times = [*map(attrgetter("time_s"), frames)]
    in_early = [t <= settings.early_window for t in times]
    kept = [not (t < settings.startup_window or t >= cutoff) for t in times]
    kept_times = [*compress(times, kept)]
    per_ereg = {}
    for name in EREG_NAMES:
        errors = [*map(sub, map(attrgetter(f"{name}_pressure_bar"), frames),
                       map(attrgetter(f"{name}_setpoint_bar"), frames))]
        errors_bar = [*compress(errors, kept)]
        early = [*compress(errors, in_early)]

        if errors_bar:
            max_abs = max(abs(e) for e in errors_bar)
            rms = math.sqrt(sum(e * e for e in errors_bar) / len(errors_bar))
            threshold_bar = settings.settle_threshold / 1e5
            settle = 0.0
            for t, e in zip(kept_times, errors_bar):
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
