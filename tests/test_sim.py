import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eregsim import calibration, control, engine, fluids, scenario, telemetry
from eregsim.engine import EVENT_ABORT, run_scenario
from eregsim.errors import ConfigError, EregSimError, ModelError
from eregsim.scenario import EREG_NAMES
from eregsim.telemetry import (
    EVENT_LIQUID_DEPLETED,
    EVENT_SUPPLY_DEPLETED,
    EregFrame,
    TelemetryFrame,
    csv_header,
    emit_telemetry,
    read_telemetry,
    regulation_metrics,
)
from tests.conftest import SCENARIO_DIR, build_small_scenario, load_yaml
from tests.oracles import (
    audited_run,
    emit_telemetry_reference,
    read_telemetry_reference,
    scheduled_setpoints_check,
)


def flat_ereg(setpoint=30.0, pressure=30.0):
    return EregFrame(setpoint, pressure, 20.0, 15.0, 20.0, 0.1)


def make_frame(t, ereg_overrides=None, events=()):
    eregs = {name: flat_ereg() for name in EREG_NAMES}
    eregs.update(ereg_overrides or {})
    return TelemetryFrame(
        time_s=t,
        ox_tank=eregs["ox_tank"],
        fuel_tank=eregs["fuel_tank"],
        ox_inj=eregs["ox_inj"],
        fuel_inj=eregs["fuel_inj"],
        supply_pressure_bar=300.0,
        mdot_ox_kg_s=1.14,
        mdot_fuel_kg_s=0.49,
        mdot_gas_kg_s=0.1,
        chamber_pressure_bar=24.0,
        thrust_n=3000.0,
        of_ratio=2.33,
        events=tuple(events),
    )


class TestRunScenarioBasics:
    def test_no_flow_fixed_point(self, small_config):
        """All valves locked shut: every pressure is exactly static."""
        frames = run_scenario(small_config)
        first, last = frames[0], frames[-1]
        assert last.supply_pressure_bar == first.supply_pressure_bar
        for name in ("ox_tank", "fuel_tank"):
            assert getattr(last, name).pressure_bar == getattr(first, name).pressure_bar
        assert last.mdot_ox_kg_s == 0.0
        assert last.events == ()

    def test_frame_count_matches_duration_and_rate(self):
        config = build_small_scenario(duration_s=14.0)
        frames = run_scenario(config)
        assert len(frames) == 1400  # 14 s at 100 Hz primary rate

    def test_time_strictly_increasing(self, baseline_run):
        frames, _ = baseline_run
        assert all(b.time_s > a.time_s for a, b in zip(frames, frames[1:]))

    def test_determinism_bit_identical(self, small_config):
        config = build_small_scenario(duration_s=3.0)
        assert run_scenario(config) == run_scenario(config)

    def test_noise_is_seeded_and_deterministic(self):
        noisy = {"sensors": {"noise_sigma_bar": 0.05, "seed": 12}}
        a = run_scenario(build_small_scenario(**noisy))
        b = run_scenario(build_small_scenario(**noisy))
        assert a == b
        c = run_scenario(build_small_scenario(sensors={"noise_sigma_bar": 0.05, "seed": 13}))
        assert a != c

    def test_depletion_events_latch_once(self, baseline_run):
        frames, _ = baseline_run
        seen = False
        for frame in frames:
            flagged = "fuel_liquid_depleted" in frame.events
            if seen:
                assert flagged  # never un-set
            seen = seen or flagged
        assert seen

    def test_baseline_depletes_fuel_near_fourteen_seconds(self, baseline_run):
        frames, _ = baseline_run
        t_dep = next(
            f.time_s for f in frames if "fuel_liquid_depleted" in f.events
        )
        assert 13.5 <= t_dep <= 14.5

    def test_abort_on_overpressure(self):
        # tank pressure (42 bar) already above factor * injector rating
        config = build_small_scenario(options={"abort_pressure_factor": 0.5})
        frames = run_scenario(config)
        assert EVENT_ABORT in frames[-1].events
        assert frames[-1].time_s < 1.0  # terminated immediately

    def test_logged_setpoints_match_schedule(self, baseline_config, baseline_run):
        frames, _ = baseline_run
        assert scheduled_setpoints_check(frames, baseline_config) < 1e-9

    def test_unknown_variant_is_rejected(self):
        config = build_small_scenario(duration_s=1.0)
        with pytest.raises(ConfigError, match="bogus"):
            config.replace(variant="bogus")


class TestFramePerPrimaryTick:
    """A run writes one frame per primary tick, step 0 included, and, not
    aborting, on no other step."""

    @pytest.mark.parametrize("variant", scenario.VARIANTS)
    def test_frames_fall_on_the_primary_ticks(self, baseline_config, variant):
        config = baseline_config.replace(duration=0.3, variant=variant)
        frames = run_scenario(config)
        per_tick = round(config.dt_primary / config.dt_phys)
        assert per_tick > 1
        ticks = range(round(config.duration / config.dt_primary))
        assert [f.time_s for f in frames] == [k * per_tick * config.dt_phys for k in ticks]

    @pytest.mark.parametrize("variant", scenario.VARIANTS)
    def test_first_frame_reads_the_start_state(self, baseline_config, variant):
        # Step 0 is a primary tick: its frame logs the setpoints at t = 0 and
        # the sensors at the start pressures.
        config = baseline_config.replace(duration=0.1, variant=variant)
        first = run_scenario(config)[0]
        assert first.time_s == 0.0
        assert first.supply_pressure_bar == config.supply_pressure / 1e5
        for name, setpoint in zip(EREG_NAMES, scenario.setpoints_at(config.schedule, 0.0)):
            assert getattr(first, name).setpoint_bar == setpoint / 1e5
        for side in ("ox", "fuel"):
            pressure = config.tanks[side].initial_pressure
            assert getattr(first, side + "_tank").pressure_bar == pressure / 1e5

    def test_first_frame_draws_the_supply_noise_first(self, baseline_config):
        config = baseline_config.replace(duration=0.1, noise_sigma=2e3, noise_seed=3)
        first = run_scenario(config)[0]
        draws = np.random.default_rng(3).standard_normal(3)
        assert first.supply_pressure_bar == (config.supply_pressure + 2e3 * draws[0]) / 1e5
        for i, side in enumerate(("ox", "fuel")):
            pressure = config.tanks[side].initial_pressure + 2e3 * draws[1 + i]
            assert getattr(first, side + "_tank").pressure_bar == pressure / 1e5


# A config changed after loading is held to the step grid a loaded one is:
# replace() rejects 1e303 steps that would never end, and 2.5 steps per 1 ms
# secondary tick, which the engine would round to 2 and so miss every primary
# tick (25 steps) that falls between secondary ticks.
@pytest.mark.parametrize("changes, key", [
    ({"duration": 1e300}, "duration_s"),
    ({"duration": 0.2, "dt_phys": 0.0004}, "timing.dt_secondary_s/dt_phys_s"),
], ids=["past_step_cap", "split_secondary_tick"])
def test_replaced_timing_is_checked_at_run(baseline_config, changes, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        baseline_config.replace(**changes)


def test_replaced_step_is_checked_against_the_collapse_bound():
    """278 /s loads inside RK4's stability limit at 0.01 s; at 0.02 s it is past
    it, where the ullage pressure would blow up instead of decaying."""
    config = build_small_scenario(options={"ullage_collapse_coeff": 278.0})
    with pytest.raises(ConfigError, match=re.escape("options.ullage_collapse_coeff")):
        config.replace(dt_phys=0.02, dt_secondary=0.02, dt_primary=0.02)


class TestOracleMode:
    def test_oracle_floor_is_below_controller_error(self, baseline_config, baseline_run):
        """With valve angles forced to the exact steady-flow solution each
        primary tick, the remaining error is the plant's own per-tick drift.
        That floor must sit well below the closed-loop error in the steady
        portion of the burn, showing the reported metrics are dominated by
        the controller and not the plant."""
        frames, _ = baseline_run
        oracle_frames = run_scenario(baseline_config.replace(variant="oracle"))

        def rms(frame_list, name, t0=5.0, t1=13.0):
            errors = [
                getattr(f, name).pressure_bar - getattr(f, name).setpoint_bar
                for f in frame_list
                if t0 <= f.time_s <= t1
            ]
            return math.sqrt(sum(e * e for e in errors) / len(errors))

        for name in EREG_NAMES:
            assert rms(oracle_frames, name) < 0.6 * rms(frames, name)


class TestRegulationMetrics:
    CONFIG = build_small_scenario()

    def test_perfect_tracking_all_zero(self):
        frames = [make_frame(0.01 * k) for k in range(500)]
        metrics = regulation_metrics(frames, self.CONFIG)
        for name in EREG_NAMES:
            m = metrics[name]
            assert m.max_abs_error == 0.0
            assert m.rms_error == 0.0
            assert m.overshoot == 0.0
            assert m.settle_time == 0.0
            assert m.peak_oscillation_amplitude == 0.0

    def test_constant_offset(self):
        frames = [
            make_frame(0.01 * k, {"ox_tank": flat_ereg(setpoint=30.0, pressure=31.0)})
            for k in range(500)
        ]
        m = regulation_metrics(frames, self.CONFIG)["ox_tank"]
        assert m.max_abs_error == pytest.approx(1.0)
        assert m.rms_error == pytest.approx(1.0)
        assert m.overshoot == pytest.approx(0.0)

    def test_sinusoid_peak_to_peak(self):
        amplitude = 0.8
        frames = [
            make_frame(
                0.01 * k,
                {"ox_tank": flat_ereg(30.0, 30.0 + amplitude * math.sin(2 * math.pi * 5 * 0.01 * k))},
            )
            for k in range(500)
        ]
        m = regulation_metrics(frames, self.CONFIG)["ox_tank"]
        assert m.peak_oscillation_amplitude == pytest.approx(2 * amplitude, rel=1e-2)

    def test_post_depletion_frames_excluded(self):
        frames = [make_frame(0.01 * k) for k in range(300)]
        frames += [
            make_frame(0.01 * k, {"ox_inj": flat_ereg(30.0, 5.0)}, events=("fuel_liquid_depleted",))
            for k in range(300, 400)
        ]
        m = regulation_metrics(frames, self.CONFIG)["ox_inj"]
        assert m.max_abs_error == 0.0  # the collapse after depletion is not regulation error

    def test_empty_frames_rejected(self):
        with pytest.raises(EregSimError):
            regulation_metrics([], self.CONFIG)


class TestLiquidDepletionTime:
    """The time from which the metrics and the liquid calibration samples
    drop frames: the first frame with either side's liquid depletion."""

    def test_no_events_is_inf(self):
        assert telemetry.liquid_depletion_time([make_frame(0.01 * k) for k in range(5)]) == math.inf

    @pytest.mark.parametrize("event", EVENT_LIQUID_DEPLETED)
    def test_first_frame_with_a_liquid_depletion(self, event):
        frames = [make_frame(0.01 * k, events=(event,) if k >= 3 else ()) for k in range(6)]
        assert telemetry.liquid_depletion_time(frames) == 0.03

    @pytest.mark.parametrize("event", [EVENT_SUPPLY_DEPLETED, EVENT_ABORT])
    def test_other_events_do_not_count(self, event):
        frames = [make_frame(0.01 * k, events=(event,) if k >= 3 else ()) for k in range(6)]
        assert telemetry.liquid_depletion_time(frames) == math.inf


# A telemetry value: any float, one at the edges of the format (signed zeros,
# subnormals, the largest magnitudes, nan and inf), or one with 9 or 17
# significant digits.
CSV_VALUE = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 5e-324, -2.2e-310, 1e308, -1e308, math.nan, math.inf, -math.inf)),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: float(f"{v:.9g}")),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: float(f"{v:.17g}")),
)


@st.composite
def direct_frames(draw, finite=False):
    """A TelemetryFrame built field by field, not through from_values, with
    0-4 events from the run event vocabulary; finite leaves out nan and inf."""
    value = CSV_VALUE.filter(math.isfinite) if finite else CSV_VALUE
    values = draw(st.lists(value, min_size=32, max_size=32))
    events = draw(st.lists(
        st.sampled_from((EVENT_ABORT, EVENT_SUPPLY_DEPLETED, *EVENT_LIQUID_DEPLETED)),
        max_size=4,
    ))
    eregs = (EregFrame(*values[i:i + 6]) for i in range(1, 25, 6))
    return TelemetryFrame(values[0], *eregs, *values[25:], events=tuple(events))


class TestTelemetryCsv:
    @pytest.fixture(scope="class")
    def csv_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("emit")

    @settings(max_examples=200, deadline=None)
    @given(frames=st.lists(direct_frames(), max_size=4))
    def test_emit_writes_the_csv_writer_bytes(self, csv_dir, frames):
        emit_telemetry(frames, csv_dir / "got.csv")
        emit_telemetry_reference(frames, csv_dir / "want.csv")
        assert (csv_dir / "got.csv").read_bytes() == (csv_dir / "want.csv").read_bytes()

    def test_emit_writes_the_baseline_run_as_csv_writer_does(self, baseline_run, tmp_path):
        frames, _ = baseline_run
        emit_telemetry(frames, tmp_path / "got.csv")
        emit_telemetry_reference(frames, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("char", list(',;"\r\n'), ids=["comma", "semicolon", "quote",
                                                           "cr", "lf"])
    def test_event_name_that_cannot_read_back_is_rejected(self, tmp_path, char):
        event = f"valve{char}stuck"
        path = tmp_path / "run.csv"
        with pytest.raises(EregSimError, match=re.escape(repr(event))):
            emit_telemetry([make_frame(0.0), make_frame(0.01, events=(event,))], path)
        assert not path.exists()

    def test_empty_frame_list_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_telemetry([], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == csv_header()

    def test_single_frame_round_trip(self, tmp_path):
        frame = make_frame(1.23456789, events=("fuel_liquid_depleted", "abort_overpressure"))
        path = tmp_path / "one.csv"
        emit_telemetry([frame], path)
        back = read_telemetry(path)
        assert len(back) == 1
        got = back[0]
        assert got.time_s == pytest.approx(frame.time_s, rel=1e-9)
        assert got.events == frame.events
        for name in EREG_NAMES:
            for field in ("setpoint_bar", "pressure_bar", "valve_angle_deg", "u2"):
                assert getattr(getattr(got, name), field) == pytest.approx(
                    getattr(getattr(frame, name), field), rel=1e-9
                )

    def test_full_run_round_trip_at_nine_digits(self, baseline_run, tmp_path):
        frames, _ = baseline_run
        path = tmp_path / "run.csv"
        emit_telemetry(frames, path)
        back = read_telemetry(path)
        assert len(back) == len(frames)
        for a, b in zip(frames[::100], back[::100]):
            assert b.thrust_n == pytest.approx(a.thrust_n, rel=1e-8)
            assert b.ox_tank.pressure_bar == pytest.approx(a.ox_tank.pressure_bar, rel=1e-8)

    def test_row_count_matches_frames(self, tmp_path):
        config = build_small_scenario(duration_s=14.0)
        frames = run_scenario(config)
        path = tmp_path / "rows.csv"
        emit_telemetry(frames, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + 1400

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: row[:-5],
            lambda row: row[:3] + ["abc"] + row[4:],
            lambda row: row + ["1.0"],
            lambda row: row[:3] + ["1.0"] + row[3:],
        ],
        ids=["short_row", "non_numeric_field", "extra_field", "extra_field_inside"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, edit):
        path = tmp_path / "bad.csv"
        emit_telemetry([make_frame(0.0), make_frame(0.01, events=("abort_overpressure",))], path)
        header, first, second = path.read_text().splitlines()
        rows = [header, first, ",".join(edit(second.split(",")))]
        path.write_bytes("".join(row + "\r\n" for row in rows).encode())
        with pytest.raises(EregSimError, match=re.escape(f"{path} at line 3")):
            read_telemetry(path)

    def test_non_finite_frame_rejected(self):
        values = make_frame(0.0).values()
        values[csv_header().index("ox_tank_pressure_bar")] = math.nan
        with pytest.raises(ValueError, match="^column ox_tank_pressure_bar is nan$"):
            TelemetryFrame.from_values(values, ())

    def test_run_refuses_non_finite_frame(self, baseline_config, monkeypatch):
        monkeypatch.setattr(engine, "chamber_state", lambda *args: (math.nan, math.nan))
        with pytest.raises(
            EregSimError, match="^non-finite telemetry at t=0.0: column chamber_pressure_bar is nan$"
        ):
            run_scenario(baseline_config.replace(duration=0.1))


def read_outcome(reader, path):
    """The frames reader gives for path, each as the .hex() of its values and
    its events, or the message of the EregSimError it raises."""
    try:
        return [([v.hex() for v in f.values()], f.events) for f in reader(path)]
    except EregSimError as exc:
        return str(exc)


def rows_file(path, rows: int, line: int, edit):
    """A telemetry file of rows frames whose line `line` (the header is line
    1) is edit of its cells."""
    emit_telemetry([make_frame(0.01 * k, events=("abort_overpressure",) * (k % 3 == 0))
                    for k in range(rows)], path)
    edit_line(path, line, edit)


def uniform_rows(path, rows: int):
    """A telemetry file of rows frames whose rows all have one length (times
    1000 s on, each row with an event)."""
    emit_telemetry([make_frame(1000.0 + k, events=("abort_overpressure",))
                    for k in range(rows)], path)


def edit_line(path, line: int, edit):
    """Make line `line` of a telemetry file edit of its cells."""
    lines = path.read_bytes().decode().split("\r\n")
    lines[line - 1] = edit(lines[line - 1].split(","))
    path.write_bytes("\r\n".join(lines).encode())


def cell(index: int, text: str):
    """The edit that makes cell index read text; {} in text is the old cell."""
    return lambda cells: ",".join(cells[:index] + [text.format(cells[index])]
                                  + cells[index + 1:])


# A cell token for the reader to read or reject: the characters %.9g writes,
# and what float() reads but numpy does not (_, Unicode spaces and digits)
# or numpy strips but float() rejects (\x1c-\x1f).
NUMBER_TOKENS = st.one_of(
    st.text(st.sampled_from([*"0123456789+-.eainf_\x1c\x1d\x1e\x1f \t\x0b\x0c\u00a0\u2003\u3000",
                             *"\u0660\u0661\u0966\uff11"]),
            max_size=8),
    st.sampled_from(["nan", "-nan", "inf", "+inf", "-Infinity", "1e999", "-1e400", "1e-400"]),
)


def calibration_logs(folder) -> list:
    """Three seeded logs shaped like a calibration session's, 0.01 s apart:
    a liquid and a gas valve sweep of 1,000 rows and a 1,500-row blowdown,
    with sensor and flow noise and the idle regulators logging zeros."""
    rng = np.random.default_rng(100)
    idle = EregFrame(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    paths = []
    for name, rows in (("liquid_sweep", 1000), ("gas_sweep", 1000), ("steady", 1500)):
        share = np.linspace(0.0, 1.0, rows).tolist()
        noise = rng.standard_normal((rows, 3)).tolist()
        frames = [TelemetryFrame(0.01 * i, EregFrame(42.0, 42.0 + 0.02 * a, 90.0 * x, 0.0,
                                                     90.0 * x, 0.0),
                                 idle, idle, idle, 310.0 - 200.0 * x, 1.1e-3 * x * (1.0 + 1e-3 * b),
                                 0.0, 0.0125 * x * (1.0 + 1e-3 * c), 0.0, 0.0, 0.0)
                  for i, (x, (a, b, c)) in enumerate(zip(share, noise))]
        paths.append(folder / f"{name}.csv")
        emit_telemetry(frames, paths[-1])
    return paths


def holds(token: str) -> str:
    return f"cell {token!r} holds a character %.9g does not write"


QUOTE = 'row holds a quote (")'
# Rows that are not in the bytes emit_telemetry writes, many of which the
# csv.reader loop the reader once fell back to read: (edit of a uniform_rows
# row, the reason the error gives).
REJECTED_ROWS = {
    "quoted_number": (cell(3, '"{}"'), QUOTE),
    "quoted_event": (cell(32, '"{}"'), QUOTE),
    "event_quoted_across_lines": (cell(32, '"split\r\nevent"'), QUOTE),
    "open_quote": (cell(32, '"{}'), QUOTE),
    "inner_quote": (cell(32, 'a"b'), QUOTE),
    "spaces": (cell(3, " {}\t"), holds(" 20\t")),
    "underscore": (cell(3, "1_0"), holds("1_0")),
    "arabic_indic_digits": (cell(3, "\u0661\u0660"), holds("\u0661\u0660")),
    "non_numeric": (cell(3, "abc"), holds("abc")),
    "hash_in_cell": (cell(3, "4#2"), holds("4#2")),
    "hash_line": (cell(0, "#0"), holds("#0")),
    "cell_over_131072_chars": (cell(3, "x" * 200_000), holds("x" * 200_000)),
    "number_over_131072_digits": (cell(3, "9" * 200_000),
                                  "column ox_tank_valve_angle_deg is inf"),
    "two_dots": (cell(3, "1..2"), "column ox_tank_valve_angle_deg holds '1..2', not a number"),
    "empty_cell": (cell(3, ""), "column ox_tank_valve_angle_deg holds '', not a number"),
    "blank_line": (lambda cells: "", "0 numeric columns, not 32"),
    "whitespace_line": (lambda cells: "   ", "0 numeric columns, not 32"),
    "short_row": (lambda cells: ",".join(cells[:-5]), "27 numeric columns, not 32"),
    "long_row": (lambda cells: ",".join(cells[:3] + ["1.0"] + cells[3:]),
                 "33 numeric columns, not 32"),
    "nan": (cell(3, "nan"), "column ox_tank_valve_angle_deg is nan"),
    "minus_inf": (cell(3, "-inf"), "column ox_tank_valve_angle_deg is -inf"),
    "overflow": (cell(3, "1e999"), "column ox_tank_valve_angle_deg is inf"),
}


# Where a row is edited in a file of B + 5 uniform rows, B the rows of a
# block: the second row of the first block, the first row of the second.
WHERE = {"first_block": lambda b: 3, "second_block": lambda b: b + 2}


class TestReadTelemetry:
    """read_telemetry reads the bytes emit_telemetry writes, in one numpy
    call per block, to the bits of the reference csv.reader loop (which
    builds each frame through from_values); any other line is an error
    naming it, in the first block or a later one."""

    @pytest.fixture(scope="class")
    def csv_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader")

    @pytest.fixture(scope="class")
    def block_rows(self, csv_dir):
        """B, the rows of one block of a uniform_rows file."""
        path = csv_dir / "long.csv"
        uniform_rows(path, 3000)
        with path.open(newline="") as fh:
            fh.readline()
            rows = len(fh.readlines(telemetry._BLOCK_CHARS))
        assert 100 < rows < 3000
        return rows

    @settings(max_examples=50, deadline=None)
    @given(frames=st.lists(direct_frames(finite=True), min_size=1, max_size=3))
    def test_emitted_files_read_as_the_oracle_reads_them(self, csv_dir, frames):
        path = csv_dir / "frames.csv"
        emit_telemetry(frames, path)
        got = read_outcome(read_telemetry, path)
        assert got == read_outcome(read_telemetry_reference, path)
        assert got == [([float(f"{v:.9g}").hex() for v in f.values()], f.events)
                       for f in frames]

    @pytest.mark.parametrize("log", ["baseline_run", "blowdown_frames", "liquid_sweep",
                                     "gas_sweep", "steady"])
    def test_logs_read_as_the_oracle_reads_them(self, request, csv_dir, log):
        path = csv_dir / f"{log}.csv"
        if log in ("baseline_run", "blowdown_frames"):
            frames = request.getfixturevalue(log)
            emit_telemetry(frames[0] if log == "baseline_run" else frames, path)
        elif not path.exists():
            calibration_logs(csv_dir)
        got = read_outcome(read_telemetry, path)
        assert isinstance(got, list) and len(got) >= 1000
        assert got == read_outcome(read_telemetry_reference, path)

    @pytest.mark.parametrize("count", [lambda b: 0, lambda b: 1, lambda b: b - 1, lambda b: b,
                                       lambda b: b + 1, lambda b: 2 * b + 1],
                             ids=["0", "1", "B-1", "B", "B+1", "2B+1"])
    def test_rows_at_a_block_boundary_read_as_the_oracle(self, tmp_path, block_rows, count):
        path = tmp_path / "rows.csv"
        uniform_rows(path, count(block_rows))
        got = read_outcome(read_telemetry, path)
        assert len(got) == count(block_rows)
        assert got == read_outcome(read_telemetry_reference, path)

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("edit", [
        lambda cells: ",".join(["1e308", "1e308", *cells[2:]]),
        cell(32, "x\0y"),
        cell(32, "x" * 200_000),
    ], ids=["sum_overflows", "nul_in_event", "event_over_131072_chars"])
    def test_emitted_variants_read_as_the_oracle(self, tmp_path, block_rows, where, edit):
        path = tmp_path / "variant.csv"
        uniform_rows(path, block_rows + 5)
        edit_line(path, WHERE[where](block_rows), edit)
        got = read_outcome(read_telemetry, path)
        assert isinstance(got, list) and len(got) == block_rows + 5
        assert got == read_outcome(read_telemetry_reference, path)

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("edit, reason", REJECTED_ROWS.values(), ids=REJECTED_ROWS.keys())
    def test_other_rows_are_rejected_at_their_line(self, tmp_path, block_rows, where, edit,
                                                   reason):
        path = tmp_path / "bad.csv"
        line = WHERE[where](block_rows)
        uniform_rows(path, block_rows + 5)
        edit_line(path, line, edit)
        got = read_outcome(read_telemetry, path)
        prefix = f"malformed telemetry row in {path} at line {line}: "
        assert got == prefix + reason

    @pytest.mark.parametrize("where", [*WHERE, "last_line"])
    @pytest.mark.parametrize("ending", ["\n", "\r", ""], ids=["lf", "cr", "none"])
    def test_other_line_ending_is_rejected_at_its_line(self, tmp_path, block_rows, where,
                                                       ending):
        path = tmp_path / "ending.csv"
        uniform_rows(path, block_rows + 5)
        lines = path.read_bytes().split(b"\r\n")[:-1]  # the header and the rows
        line = len(lines) if where == "last_line" else WHERE[where](block_rows)
        path.write_bytes(b"".join(text + (ending.encode() if i == line - 1 else b"\r\n")
                                  for i, text in enumerate(lines)))
        got = read_outcome(read_telemetry, path)
        prefix = f"malformed telemetry row in {path} at line {line}: "
        assert isinstance(got, str) and got.startswith(prefix)
        # A row with no ending runs into the next one, if there is one.
        if ending or where == "last_line":
            assert got == prefix + "row does not end in CRLF"

    @pytest.mark.parametrize("column", [3, 32], ids=["number", "event"])
    def test_bytes_that_do_not_decode_are_rejected_at_their_line(self, tmp_path, column):
        path = tmp_path / "bytes.csv"
        rows_file(path, 400, 300, cell(column, "~"))
        path.write_bytes(path.read_bytes().replace(b"~", b"\xff"))
        got = read_outcome(read_telemetry, path)
        assert isinstance(got, str) and f"{path} at line 300: " in got

    @pytest.mark.parametrize("content, detail", [
        ("", "unexpected telemetry header"),
        (",".join(csv_header()) + "\r\n", []),
        (",".join(csv_header()) + "\n", "unexpected telemetry header"),
        (",".join(csv_header()).replace("time_s", "t_s") + "\r\n", "unexpected telemetry header"),
        (",".join(csv_header()) + "x" * 200_000 + "\r\n", "unexpected telemetry header"),
    ], ids=["empty", "header_only", "lf_header", "wrong_header", "long_header"])
    def test_header_cases(self, tmp_path, content, detail):
        path = tmp_path / "head.csv"
        path.write_text(content, newline="")
        got = read_outcome(read_telemetry, path)
        assert got == detail if detail == [] else got == f"{detail} in {path}"

    @pytest.mark.parametrize("edit", [lambda cells: ",".join(cells + ["1.0"]),
                                      lambda cells: ",".join(cells[1:])],
                             ids=["one_cell_more", "one_cell_fewer"])
    def test_every_row_of_another_width_is_rejected_at_line_2(self, tmp_path, edit):
        path = tmp_path / "width.csv"
        uniform_rows(path, 20)
        header, *rows = path.read_bytes().decode().split("\r\n")
        path.write_bytes("\r\n".join([header, *(edit(row.split(",")) for row in rows[:-1]), ""])
                         .encode())
        got = read_outcome(read_telemetry, path)
        assert isinstance(got, str) and f"{path} at line 2: " in got

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("blank", ["\r\n", "\r\n\r\n"], ids=["one", "two"])
    def test_blank_lines_alone_are_rejected_without_a_warning(self, tmp_path, blank):
        path = tmp_path / "blank.csv"
        emit_telemetry([], path)
        path.write_bytes(path.read_bytes() + blank.encode())
        assert read_outcome(read_telemetry, path) == (
            f"malformed telemetry row in {path} at line 2: 0 numeric columns, not 32")

    @settings(max_examples=150, deadline=None)
    @given(line=st.sampled_from([3, 300]), column=st.integers(0, 31), token=NUMBER_TOKENS)
    def test_any_token_reads_as_the_oracle_or_names_its_line(self, csv_dir, line, column,
                                                              token):
        path = csv_dir / "token.csv"
        rows_file(path, 400, line, cell(column, token))
        got = read_outcome(read_telemetry, path)
        if isinstance(got, list):
            assert got == read_outcome(read_telemetry_reference, path)
        else:
            assert got.startswith(f"malformed telemetry row in {path} at line {line}: ")


class TestModeComparison:
    def test_coldflow_flows_exceed_staticfire_at_identical_setpoints(self, nominal_hold_runs):
        def mean_total(frames, t0, t1):
            vals = [f.mdot_ox_kg_s + f.mdot_fuel_kg_s for f in frames if t0 <= f.time_s <= t1]
            return sum(vals) / len(vals)

        _, hot_frames = nominal_hold_runs["hot"]
        _, cold_frames = nominal_hold_runs["cold"]
        assert mean_total(cold_frames, 4.0, 6.0) > mean_total(hot_frames, 4.0, 6.0)


class TestOptions:
    def test_ullage_collapse_coefficient_bleeds_pressure(self):
        # all valves shut: with the collapse sink active the ullage decays
        leak = run_scenario(build_small_scenario(options={"ullage_collapse_coeff": 0.05}))
        assert leak[-1].ox_tank.pressure_bar < leak[0].ox_tank.pressure_bar
        assert leak[-1].supply_pressure_bar == leak[0].supply_pressure_bar  # nothing left it

    def test_supply_pressure_monotone_during_blowdown(self, blowdown_frames):
        pressures = [f.supply_pressure_bar for f in blowdown_frames]
        assert all(b <= a + 1e-12 for a, b in zip(pressures, pressures[1:]))

    def test_noisy_reading_of_an_empty_supply_runs_to_the_end(self):
        # A small bottle empties within 5 s; sensor noise then reads it below 0 bar.
        data = load_yaml(SCENARIO_DIR / "waterflow_blowdown.yaml")
        data.update(duration_s=5, sensors={"noise_sigma_bar": 0.05, "seed": 0})
        data["supply"]["volume_m3"] = 0.0002
        data["options"]["ullage_collapse_coeff"] = 2.0
        frames = run_scenario(scenario.scenario_from_dict(data))
        assert len(frames) == 500
        assert min(f.supply_pressure_bar for f in frames) < 0.0


class TestRk4Order:
    def test_tank_pressure_error_shrinks_sixteenfold_per_step_halving(self):
        """Classical RK4 is fourth order: halving dt shrinks the change
        between successive runs about 2**4 = 16x (Hairer, Norsett & Wanner,
        Solving ODEs I, 1993). All valves are locked and there is no chamber,
        so the root-find tolerance adds nothing; the collapse sink keeps the
        differences above the rounding floor."""
        data = load_yaml(SCENARIO_DIR / "waterflow_blowdown.yaml")
        for name, angle in zip(EREG_NAMES, (40.0, 35.0, 60.0, 55.0)):
            data["controllers"][name] = {"locked_angle_deg": angle}
        data.update(duration_s=1.7, options={"ullage_collapse_coeff": 5.0})
        pressures = []
        for dt in (0.008, 0.004, 0.002, 0.001):
            data["timing"] = {"dt_phys_s": dt, "dt_secondary_s": dt, "dt_primary_s": 0.016}
            frame = run_scenario(scenario.scenario_from_dict(data))[100]
            assert frame.time_s == pytest.approx(1.6)
            pressures.append([frame.ox_tank.pressure_bar, frame.fuel_tank.pressure_bar])
        for side in (0, 1):
            diffs = [abs(b[side] - a[side]) for a, b in zip(pressures, pressures[1:])]
            for coarse, fine in zip(diffs, diffs[1:]):
                assert 12.0 <= coarse / fine <= 20.0


class TestAudit:
    def test_audit_collects_invariants(self):
        config = build_small_scenario(
            duration_s=3.0,
            controllers={
                "ox_tank": {"locked_angle_deg": 25.0},
                "fuel_tank": {"locked_angle_deg": 20.0},
                "ox_inj": {"locked_angle_deg": 0.0},
                "fuel_inj": {"locked_angle_deg": 0.0},
            },
        )
        _, audit = audited_run(config)
        assert audit.initial_gas_mass > 0.0
        assert audit.max_gas_law_residual < 1e-9
        assert audit.max_mass_drift < 1e-6


class TestChamberRootFind:
    ANGLES = (0.0, 0.0, 60.0, 60.0)  # EREG_NAMES order: both injector valves open

    def test_converged_back_pressure_closes_the_chamber_balance(self, baseline_config):
        plant = engine._Plant(baseline_config)
        plant.set_angles(self.ANGLES)
        flows = plant.snapshot()
        # chamber_state(total mdot) reproduces the solved back pressure
        assert flows.chamber_pressure > baseline_config.ambient_pressure
        assert abs(flows.chamber_pressure - plant._pc_guess) < engine.ROOT_TOLERANCE_PA

    def test_unconverged_solve_raises(self, baseline_config, monkeypatch):
        monkeypatch.setattr(engine, "ROOT_MAX_ITERATIONS", 1)
        plant = engine._Plant(baseline_config)
        plant.set_angles(self.ANGLES)
        with pytest.raises(ModelError, match="did not converge"):
            plant.snapshot()

    def test_bracket_of_adjacent_floats_counts_as_converged(self):
        # rho = 1e200 makes the branch term sqrt(rho / c) some 1e100 times the
        # baseline's: a 0.5 Pa residual would need a chamber pressure finer
        # than the float spacing, so the bracket closes first.
        data = load_yaml(SCENARIO_DIR / "staticfire_baseline.yaml")
        data["duration_s"] = 0.2
        data["tanks"]["ox"]["liquid_density_kg_m3"] = 1e200
        frames, audit = audited_run(scenario.scenario_from_dict(data))
        assert len(frames) == 20 and EVENT_ABORT not in frames[-1].events
        assert audit.max_gas_law_residual < 1e-9

    def test_warm_start_moves_the_guess_as_the_snapshot_does(self, baseline_config):
        full, warm = engine._Plant(baseline_config), engine._Plant(baseline_config)
        for _ in range(3):
            full.set_angles(self.ANGLES)
            warm.set_angles(self.ANGLES)
            full.snapshot()
            warm.warm_start()
            assert full._pc_guess > baseline_config.ambient_pressure
            assert warm._pc_guess.hex() == full._pc_guess.hex()
            full.step(baseline_config.dt_phys)
            warm.step(baseline_config.dt_phys)


def aborting_between_ticks_config():
    """Injector valves rated at the tank pressure: the noisy ff+dyn run
    aborts at t = 0.077 s, between primary ticks."""
    data = load_yaml(SCENARIO_DIR / "staticfire_baseline.yaml")
    data["duration_s"] = 0.2
    data["sensors"] = {"noise_sigma_bar": 0.02, "seed": 0}
    data["options"]["abort_pressure_factor"] = 1.0
    for name in ("ox_inj", "fuel_inj"):
        data["valves"][name]["rated_pressure_bar"] = 42.0
    return scenario.scenario_from_dict(data).replace(variant="ff+dyn")


class TestSnapshotOnlyWhereRead:
    """The full snapshot solve runs on primary ticks and on an abort between
    them; with a chamber every other step runs only its root-find
    (warm_start), without one nothing."""

    @staticmethod
    def plant_calls(config, monkeypatch) -> list[str]:
        calls = []
        for name in ("snapshot", "warm_start"):
            method = getattr(engine._Plant, name)
            monkeypatch.setattr(engine._Plant, name,
                                lambda plant, m=method, n=name: calls.append(n) or m(plant))
        run_scenario(config)
        return calls

    def test_snapshot_once_per_primary_tick_warm_start_otherwise(self, baseline_config,
                                                                 monkeypatch):
        config = baseline_config.replace(duration=0.5)
        calls = self.plant_calls(config, monkeypatch)
        steps_per_primary = round(config.dt_primary / config.dt_phys)
        assert steps_per_primary > 1
        ticks = round(config.duration / config.dt_primary)
        assert calls == (["snapshot"] + ["warm_start"] * (steps_per_primary - 1)) * ticks

    def test_no_warm_start_without_a_chamber(self, blowdown_config, monkeypatch):
        assert blowdown_config.chamber is None
        config = blowdown_config.replace(duration=0.5)
        calls = self.plant_calls(config, monkeypatch)
        assert calls == ["snapshot"] * round(config.duration / config.dt_primary)

    def test_abort_between_primary_ticks_matches_a_snapshot_every_step(self, monkeypatch):
        config = aborting_between_ticks_config()
        frames = run_scenario(config)
        assert len(frames) == 9 and frames[-1].events == (EVENT_ABORT,)
        step = round(frames[-1].time_s / config.dt_phys)
        assert step == 77 and step % round(config.dt_primary / config.dt_phys) != 0
        # A snapshot on every step is the work each step did before; the abort
        # frame carries the flows of its own step, not those of the last tick.
        snapshots = []
        monkeypatch.setattr(engine._Plant, "warm_start",
                            lambda plant: snapshots.append(plant.snapshot()))
        assert repr(run_scenario(config)) == repr(frames)
        last = snapshots[-1]
        assert (frames[-1].mdot_ox_kg_s, frames[-1].chamber_pressure_bar) == (
            last.mdot_liquid[0], last.chamber_pressure / 1e5
        )


class TestRunObject:
    """A Run stepped in pieces, or deep-copied mid-run, gives the frames of
    one whole run."""

    @pytest.fixture(scope="class")
    def noisy_config(self, baseline_config):
        return baseline_config.replace(duration=2.0, noise_sigma=0.02e5, noise_seed=5)

    @staticmethod
    def csv_bytes(frames, path) -> bytes:
        emit_telemetry(frames, path)
        return path.read_bytes()

    @pytest.mark.parametrize("case", ("noisy", "oracle", "abort"))
    def test_chunked_advance_gives_the_bytes_of_one_advance(self, case, noisy_config,
                                                             tmp_path):
        config = {"noisy": lambda: noisy_config,
                  "oracle": lambda: noisy_config.replace(duration=0.5, variant="oracle"),
                  "abort": aborting_between_ticks_config}[case]()
        whole = engine.Run(config)
        whole.advance(whole.n_steps)
        run = engine.Run(config)
        for n in (1, 7, 10):
            run.advance(n)
        assert run.step == 18 and not run.done
        run.advance(run.n_steps - run.step)
        assert run.done and run.step == whole.step
        assert self.csv_bytes(run.frames(), tmp_path / "chunked.csv") == self.csv_bytes(
            whole.frames(), tmp_path / "whole.csv")
        if case == "abort":
            assert whole.step == 77 < whole.n_steps
            assert run.frames()[-1].events == (EVENT_ABORT,)

    def test_deep_copy_mid_run_continues_as_the_original(self, noisy_config):
        run = engine.Run(noisy_config)
        run.advance(333)
        twin = copy.deepcopy(run)
        assert twin.rng is not run.rng and twin.plant is not run.plant
        assert twin.rng.bit_generator.state == run.rng.bit_generator.state
        twin.advance(twin.n_steps)  # the copy first: the original must not move
        assert run.step == 333 and len(run.frames()) == 34
        run.advance(run.n_steps)
        assert repr(twin.frames()) == repr(run.frames()) == repr(run_scenario(noisy_config))

    def test_advance_after_done_changes_nothing(self, noisy_config):
        run = engine.Run(noisy_config.replace(duration=0.2))
        run.advance(0)
        run.advance(-5)
        assert (run.step, run.done, run.frames()) == (0, False, [])
        run.advance(run.n_steps + 50)
        assert run.done and run.step == run.n_steps
        state = copy.deepcopy(run)
        run.advance(10)
        assert (run.step, repr(run.frames())) == (state.step, repr(state.frames()))
        assert run.plant.ullage_mass == state.plant.ullage_mass
        assert run.rng.bit_generator.state == state.rng.bit_generator.state


class TestBenchmarkFacingNames:
    """What perfbench/ reaches in the package. Its tests are not collected by
    this suite, so a renamed or removed name would otherwise show up only when
    the benchmark runs."""

    API = {
        scenario: ("load_scenario",),
        engine: ("run_scenario",),
        telemetry: ("emit_telemetry", "read_telemetry", "regulation_metrics"),
        calibration: (
            "liquid_samples_from_telemetry", "gas_samples_from_telemetry", "cv_from_sample",
            "fit_cv_curve", "steady_records", "fit_gamma", "fit_choked_constant",
        ),
    }

    def test_called_functions_exist(self):
        for module, names in self.API.items():
            for name in names:
                assert callable(getattr(module, name)), f"{module.__name__}.{name}"
        assert calibration.THETA_GRID_STEP > 0.0

    def test_valve_and_flow_laws(self):
        valve = fluids.ValveModel(9.375e-8, 10.0, 415e5, 1.6774194e-3)
        assert (valve.alpha, valve.theta_zero, valve.rated_pressure, valve.choked_constant) == (
            9.375e-8, 10.0, 415e5, 1.6774194e-3
        )
        assert fluids.gas_valve_mass_flow(valve, 30.0, 300e5, 42e5) > 0.0
        assert fluids.liquid_volumetric_flow(valve, 30.0, 12e5, 1141.0) > 0.0

    def test_feedforward_and_fits_return_floats(self):
        ff = control.FeedforwardParams(gamma=73.0, theta_zero=10.0)
        records = [(control.ff_tank(ff, 42e5, p), 42e5, p) for p in (310e5, 200e5, 90e5)]
        assert isinstance(calibration.fit_gamma(records, 10.0), float)
        samples = [
            calibration.FlowSample(theta, p, 0.3 * p, 1e-3 * p * (theta - 10.0), 0.0, "gas")
            for theta, p in ((20.0, 310e5), (40.0, 200e5))
        ]
        assert isinstance(calibration.fit_choked_constant(samples, 1.0, 10.0), float)

    def test_loaded_config_fields(self, baseline_config):
        config = baseline_config
        assert config.controllers["ox_tank"].feedforward.gamma > 0.0
        for name in ("ox_inj", "ox_tank"):
            valve = config.valves[name]
            assert valve.alpha > 0.0 and valve.rated_pressure > 0.0
        assert config.valves["ox_tank"].choked_constant > 0.0
        assert config.tanks["ox"].liquid_density > 0.0
        assert config.supply_pressure > config.tank_setpoint("ox") > 0.0
        assert config.duration > 0.0
        start, end, pressure = config.schedule.ox_inj.hold_intervals()[0]
        assert 0.0 <= start < end and pressure > 0.0

    def test_positional_frame_round_trips(self, tmp_path):
        # perfbench builds its calibration logs positionally like this, and
        # compares what it reads back with ==.
        idle = telemetry.EregFrame(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        busy = telemetry.EregFrame(42.0, 41.75, 30.5, 0.0, 30.5, 0.0)
        frame = telemetry.TelemetryFrame(0.25, busy, idle, busy, idle, 300.0, 1.125, 0.0,
                                         0.0625, 0.0, 0.0, 0.0)
        path = tmp_path / "log.csv"
        telemetry.emit_telemetry([frame, frame], path)
        assert telemetry.read_telemetry(path) == [frame, frame]

    def test_records_are_immutable(self):
        sample = calibration.FlowSample(20.0, 310e5, 42e5, 0.05, 0.0, "gas")
        for record, field in ((flat_ereg(), "pressure_bar"), (make_frame(0.0), "time_s"),
                              (make_frame(0.0), "events"), (sample, "flow")):
            with pytest.raises(AttributeError):
                setattr(record, field, 1.0)

    def test_positional_frame_defaults_to_no_events(self):
        frame = telemetry.TelemetryFrame(0.5, *[flat_ereg()] * 4, *[1.0] * 7)
        assert frame.events == ()
        assert frame.values() == [0.5, *[30.0, 30.0, 20.0, 15.0, 20.0, 0.1] * 4, *[1.0] * 7]

    def test_every_baseline_frame_rebuilds_from_its_values(self, baseline_run):
        frames, _ = baseline_run
        rebuilt = [TelemetryFrame.from_values(f.values(), f.events) for f in frames]
        assert rebuilt == frames

    def test_keyword_flow_sample_equals_positional(self):
        # The telemetry adapters build FlowSamples by keyword, perfbench and
        # the tests positionally.
        keyword = calibration.FlowSample(
            valve_angle=30.5, upstream_pressure=42e5, downstream_pressure=30e5,
            flow=1e-3, fluid_density=1141.0, phase="liquid",
        )
        assert keyword == calibration.FlowSample(30.5, 42e5, 30e5, 1e-3, 1141.0, "liquid")

    def test_metrics_by_name(self):
        frames = [make_frame(0.01 * k) for k in range(200)]
        metrics = telemetry.regulation_metrics(frames, build_small_scenario())
        for name in EREG_NAMES:
            assert isinstance(metrics[name].max_abs_error, float)

    def test_engine_imports_traced_by_name(self):
        state = engine.GasTankState.from_pressure(1e5, 1.0, 293.0, 296.8)
        assert state.pressure == 1e5
        assert state.gas_law_residual() < 1e-12
        assert engine.chamber_state is fluids.chamber_state
        # perfbench counts scenario.setpoints_calls, control.ereg_ticks and
        # control.actuator_steps through these names; a dropped import reads 0.
        assert engine.setpoints_at is scenario.setpoints_at
        assert engine.EregController is control.EregController
        assert engine.Actuator is control.Actuator
