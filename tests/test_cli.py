import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eregsim

from eregsim.cli import EXIT_ABORT, EXIT_ERROR, EXIT_OK, main
from eregsim.engine import run_scenario
from eregsim.fluids import CHOKED_PRESSURE_RATIO
from eregsim.scenario import EREG_NAMES, load_scenario, size_mock_injector
from eregsim.telemetry import emit_telemetry, read_telemetry
from tests.conftest import DROP, SCENARIO_DIR, set_key, small_scenario_dict

BASELINE = str(SCENARIO_DIR / "staticfire_baseline.yaml")
BLOWDOWN = str(SCENARIO_DIR / "waterflow_blowdown.yaml")


@pytest.fixture(scope="module")
def baseline_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "baseline.csv"
    code = main(["run", "--scenario", BASELINE, "--out", str(out)])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def blowdown_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "blowdown.csv"
    assert main(["run", "--scenario", BLOWDOWN, "--out", str(out)]) == EXIT_OK
    return out


def with_columns(src, dst, first_row, **values):
    """Copy the telemetry CSV src to dst, setting the named columns to the
    given text in every data row from first_row on; returns dst."""
    header, *rows = src.read_text().splitlines()
    index = {header.split(",").index(column): text for column, text in values.items()}
    lines = [header]
    for n, row in enumerate(rows):
        cells = row.split(",")
        if n >= first_row:
            for i, text in index.items():
                cells[i] = text
        lines.append(",".join(cells))
    dst.write_bytes("".join(line + "\r\n" for line in lines).encode())
    return dst


def write_scenario(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


class TestRun:
    def test_run_writes_telemetry(self, baseline_csv):
        frames = read_telemetry(baseline_csv)
        assert len(frames) == 1500

    def test_controller_override_changes_output(self, tmp_path):
        data = small_scenario_dict(duration_s=1.0)
        data["controllers"]["ox_tank"] = {
            "primary": {"kp": 4.0, "ki": 6.0, "kd": 0.1},
            "feedforward": {"gamma_deg": 70.0},
        }
        scenario = write_scenario(tmp_path, data)
        out_ff = tmp_path / "ff.csv"
        out_pid = tmp_path / "pid.csv"
        assert main(["run", "--scenario", str(scenario), "--out", str(out_ff),
                     "--controller", "ff"]) == EXIT_OK
        assert main(["run", "--scenario", str(scenario), "--out", str(out_pid),
                     "--controller", "pid"]) == EXIT_OK
        assert out_ff.read_text() != out_pid.read_text()

    def test_invalid_scenario_exits_nonzero_with_json_error(self, tmp_path, capsys):
        data = small_scenario_dict()
        del data["schema_version"]
        scenario = write_scenario(tmp_path, data)
        code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "schema_version" in payload["message"]

    def test_negative_seed_exits_2_with_one_json_line(self, tmp_path, capsys):
        data = small_scenario_dict(duration_s=0.1, sensors={"noise_sigma_bar": 0.02})
        scenario = write_scenario(tmp_path, data)
        out = tmp_path / "x.csv"
        code = main(["run", "--scenario", str(scenario), "--out", str(out), "--seed", "-1"])
        assert code == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert "--seed" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario_text, out, error, message",
        [
            (None, "x.csv", "ConfigError", "cannot read scenario file"),
            ("supply: [unclosed\n", "x.csv", "ConfigError", "cannot parse scenario file"),
            ("supply:\n    volume_m3: 1\n  initial_pressure_bar: 2\n", "x.csv", "ConfigError",
             "cannot parse scenario file"),
            (yaml.safe_dump(small_scenario_dict(duration_s=0.1)), "absent/x.csv",
             "EregSimError", "cannot write telemetry"),
        ],
        ids=["missing_file", "unparsable_yaml", "bad_indent", "missing_out_dir"],
    )
    def test_unreadable_scenario_or_unwritable_out_exits_2_with_one_json_line(
            self, tmp_path, capsys, scenario_text, out, error, message):
        scenario = tmp_path / "scenario.yaml"
        if scenario_text is not None:
            scenario.write_text(scenario_text)
        code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / out)])
        assert code == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == error
        assert payload["message"].startswith(message)

    def test_seed_flag_sets_the_sensor_noise_seed(self, tmp_path):
        data = yaml.safe_load(Path(BLOWDOWN).read_text())
        data["duration_s"] = 2.0
        data["sensors"]["noise_sigma_bar"] = 0.02
        scenario = write_scenario(tmp_path, data)
        outs = {seed: tmp_path / f"seed{seed}.csv" for seed in ("7", "8")}
        for seed, out in outs.items():
            assert main(["run", "--scenario", str(scenario), "--out", str(out),
                         "--seed", seed]) == EXIT_OK
        direct = tmp_path / "direct.csv"
        emit_telemetry(run_scenario(load_scenario(scenario).replace(noise_seed=7)), direct)
        assert outs["7"].read_bytes() == direct.read_bytes()
        assert outs["8"].read_bytes() != direct.read_bytes()

    def test_abort_run_exits_with_abort_code(self, tmp_path, capsys):
        data = small_scenario_dict(options={"abort_pressure_factor": 0.5})
        scenario = write_scenario(tmp_path, data)
        out = tmp_path / "abort.csv"
        code = main(["run", "--scenario", str(scenario), "--out", str(out)])
        assert code == EXIT_ABORT
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "abort"
        frames = read_telemetry(out)  # telemetry still written for analysis
        assert "abort_overpressure" in frames[-1].events


class TestRejectedScenarioProcess:
    """A scenario rejected at load, seen from outside: `eregsim run` in its own
    process prints exactly one JSON line on stderr and exits 2."""

    @pytest.mark.parametrize(
        "path, value",
        [
            ("controllers.ox_tank", {"locked_angle_deg": 120.0}),
            ("controllers.ox_tank", {"feedforward": {"drop_reference": "injector_setpiont"}}),
            ("supply.volume_m3", DROP),
            ("duration_s", math.nan),
            ("lines.ox.diameter_m", 0.0),
            ("sensrs", {"seed": 3}),
            ("supply.volume_m3", [1]),
        ],
        ids=["locked_angle", "drop_reference", "missing_key", "nan", "zero_diameter",
             "unknown_key", "list_for_number"],
    )
    def test_one_json_line_and_exit_2(self, tmp_path, path, value):
        data = set_key(small_scenario_dict(duration_s=0.1), path, value)
        scenario = write_scenario(tmp_path, data)
        src = str(Path(eregsim.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "eregsim.cli", "run", "--scenario", str(scenario),
             "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_ERROR
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert path in payload["message"]
        assert not (tmp_path / "x.csv").exists()


class TestParseErrorProcess:
    def test_missing_out_flag_prints_one_json_line_and_exits_2(self, tmp_path):
        scenario = write_scenario(tmp_path, small_scenario_dict(duration_s=0.1))
        src = str(Path(eregsim.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "eregsim.cli", "run", "--scenario", str(scenario)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_ERROR
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0]) == {
            "error": "ConfigError",
            "message": "eregsim run: the following arguments are required: --out",
        }
        assert proc.stdout == ""


# A row of an emitted file as the csv.reader loop the reader once fell back
# to read it, and read_telemetry now rejects.
CSV_LOOP_ROWS = {
    "lf_ending": lambda row: row + "\n",
    "cr_ending": lambda row: row + "\r",
    "quoted_number": lambda row: '"' + row.replace(",", '",', 1) + "\r\n",
    "padded_number": lambda row: " " + row + "\r\n",
    "underscore": lambda row: "1_" + row + "\r\n",
    "arabic_indic_digit": lambda row: "\u0661" + row + "\r\n",
    "quoted_event": lambda row: row + '""\r\n',
}


class TestMetrics:
    def test_metrics_table(self, baseline_csv, capsys):
        code = main(["metrics", "--telemetry", str(baseline_csv), "--scenario", BASELINE])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "ox_tank" in out and "fuel_inj" in out

    def test_metrics_json(self, baseline_csv, capsys):
        code = main(["metrics", "--telemetry", str(baseline_csv), "--scenario", BASELINE, "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ox_tank"]["max_abs_error"] < 0.5
        assert payload["ox_inj"]["max_abs_error"] < 1.0

    def test_metrics_json_is_strict_json(self, blowdown_csv, capsys):
        # No blowdown regulator settles, so every settle time is infinite.
        code = main(["metrics", "--telemetry", str(blowdown_csv), "--scenario", BLOWDOWN, "--json"])
        assert code == EXIT_OK

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert [payload[name]["settle_time"] for name in payload] == [None] * 4


    def test_malformed_telemetry_exits_2_with_one_json_line(self, baseline_csv, tmp_path, capsys):
        header, first, second = baseline_csv.read_text().splitlines()[:3]
        column = header.split(",").index("ox_inj_pressure_bar")
        cells = second.split(",")
        cells[column] = "nan"
        bad_files = {
            "short": ([header, first, second.rsplit(",", 4)[0]], "{} at line 3"),
            "nan": ([header, first, ",".join(cells)],
                    "{} at line 3: column ox_inj_pressure_bar is nan"),
            "header": ([header.replace("time_s", "t_s", 1), first],
                       "unexpected telemetry header in {}"),
        }
        for name, (rows, detail) in bad_files.items():
            bad = tmp_path / f"{name}.csv"
            bad.write_bytes("".join(row + "\r\n" for row in rows).encode())
            code = main(["metrics", "--telemetry", str(bad), "--scenario", BASELINE])
            assert code == EXIT_ERROR, name
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            payload = json.loads(lines[0])
            assert payload["error"] == "EregSimError"
            assert detail.format(bad) in payload["message"]


    def test_cell_over_131072_characters_exits_2_with_one_json_line(self, baseline_csv,
                                                                    tmp_path, capsys):
        header, first, second = baseline_csv.read_text().splitlines()[:3]
        cells = second.split(",")
        cells[header.split(",").index("ox_inj_pressure_bar")] = "9" * 200_000
        bad = tmp_path / "wide.csv"
        bad.write_bytes("".join(row + "\r\n" for row in [header, first, ",".join(cells)]).encode())
        code = main(["metrics", "--telemetry", str(bad), "--scenario", BASELINE])
        assert code == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "EregSimError"
        assert f"{bad} at line 3: column ox_inj_pressure_bar is inf" in payload["message"]

    @pytest.mark.parametrize("command", ["metrics", "calibrate"])
    @pytest.mark.parametrize("edit", CSV_LOOP_ROWS.values(), ids=CSV_LOOP_ROWS.keys())
    def test_row_the_csv_loop_read_exits_2_with_one_json_line(self, blowdown_csv, tmp_path,
                                                              capsys, command, edit):
        lines = blowdown_csv.read_bytes().decode().split("\r\n")[:-1]
        bad = tmp_path / "variant.csv"
        bad.write_bytes("".join(edit(line) if n == 600 else line + "\r\n"
                                for n, line in enumerate(lines, 1)).encode())
        argv = (["metrics", "--scenario", BLOWDOWN, "--telemetry", str(bad)]
                if command == "metrics" else
                ["calibrate", "choked", "--data", str(bad), "--out", str(tmp_path / "k.yaml"),
                 "--side", "ox", "--alpha", "9.375e-8", "--theta-zero", "10.0"])
        assert main(argv) == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "EregSimError"
        assert f"malformed telemetry row in {bad} at line 600: " in payload["message"]
        assert not (tmp_path / "k.yaml").exists()


class TestCompare:
    def test_compare_prints_side_by_side(self, tmp_path, capsys):
        data = small_scenario_dict(duration_s=1.0)
        scenario = write_scenario(tmp_path, data)
        code = main(["compare", "--scenario", str(scenario), "--variants", "ff", "ff+dyn"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "variant ff\n" in out and "variant ff+dyn\n" in out
        assert out.count("max|e| bar") == 2

    def test_same_variant_twice_prints_identical_blocks(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, small_scenario_dict(duration_s=2.0))
        code = main(["compare", "--scenario", str(scenario), "--variants", "ff+dyn", "ff+dyn"])
        assert code == EXIT_OK
        _, first, second = capsys.readouterr().out.split("variant ff+dyn\n")
        assert first == second and "max|e| bar" in first

    def test_oracle_prints_its_block(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, small_scenario_dict(duration_s=2.0))
        code = main(["compare", "--scenario", str(scenario), "--variants", "ff", "oracle"])
        assert code == EXIT_OK
        _, ff, oracle = re.split(r"variant (?:ff|oracle)\n", capsys.readouterr().out)
        for block in (ff, oracle):
            assert [line.split()[0] for line in block.splitlines()[1:]] == list(EREG_NAMES)

    def test_failed_variant_prints_run_failed_and_exits_2(self, tmp_path, capsys, monkeypatch):
        import eregsim.cli as cli_module

        real_run = cli_module.run_scenario

        def flaky(cfg):
            if cfg.variant == "pid":
                raise eregsim.EregSimError("injected failure")
            return real_run(cfg)

        monkeypatch.setattr(cli_module, "run_scenario", flaky)
        scenario = write_scenario(tmp_path, small_scenario_dict(duration_s=1.0))
        code = main(["compare", "--scenario", str(scenario), "--variants", "pid", "ff"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert "variant pid\nrun failed: injected failure\nvariant ff\n" in captured.out
        assert json.loads(captured.err)["message"] == "variants failed: pid"


class TestCalibrate:
    def test_calibrate_cv_liquid(self, baseline_csv, tmp_path, capsys):
        out = tmp_path / "cv.yaml"
        code = main([
            "calibrate", "cv", "--data", str(baseline_csv), "--out", str(out),
            "--side", "ox", "--phase", "liquid", "--density", "1141.0",
        ])
        assert code == EXIT_OK
        fit = yaml.safe_load(out.read_text())
        assert fit["fit"] == "cv_curve"
        assert 2.0e-6 < fit["alpha_si_per_deg"] < 6.0e-6
        assert 8.0 < fit["theta_zero_deg"] < 12.0

    def test_calibrate_cv_requires_density(self, baseline_csv, tmp_path, capsys):
        code = main([
            "calibrate", "cv", "--data", str(baseline_csv), "--out", str(tmp_path / "x.yaml"),
        ])
        assert code == EXIT_ERROR

    def test_calibrate_gamma(self, blowdown_csv, tmp_path):
        out = tmp_path / "gamma.yaml"
        code = main([
            "calibrate", "gamma", "--data", str(blowdown_csv), "--out", str(out),
            "--side", "ox", "--theta-zero", "10.0",
        ])
        assert code == EXIT_OK
        fit = yaml.safe_load(out.read_text())
        assert fit["fit"] == "gamma"
        assert 70.0 < fit["gamma_deg"] < 90.0

    def test_calibrate_choked(self, blowdown_csv, tmp_path):
        out = tmp_path / "k.yaml"
        code = main([
            "calibrate", "choked", "--data", str(blowdown_csv), "--out", str(out),
            "--side", "ox", "--alpha", "9.375e-8", "--theta-zero", "10.0",
        ])
        assert code == EXIT_OK
        fit = yaml.safe_load(out.read_text())
        # blowdown telemetry lumps both (identical) tank valves: expect ~2k
        assert fit["choked_constant"] == pytest.approx(2 * 1.6774194e-3, rel=0.05)
        # The report covers the rows the fit used: the choked ones only.
        rows = read_telemetry(blowdown_csv)
        choked = [
            f for f in rows if f.ox_tank.pressure_bar / f.supply_pressure_bar < CHOKED_PRESSURE_RATIO
        ]
        assert 0 < fit["sample_count"] == len(choked) < len(rows)
        assert fit["residual_rms"] < 1e-6


    def test_gas_cv_skips_rows_without_supply_pressure(self, blowdown_csv, tmp_path):
        # A 0 bar supply with gas still logged flowing has no choked-flow Cv.
        log = with_columns(blowdown_csv, tmp_path / "no_supply.csv", 1000, supply_pressure_bar="0")
        out = tmp_path / "cv.yaml"
        code = main([
            "calibrate", "cv", "--data", str(log), "--out", str(out),
            "--side", "ox", "--phase", "gas", "--choked-constant", "1.6774194e-3",
        ])
        assert code == EXIT_OK
        rows = read_telemetry(log)
        usable = [f for f in rows if f.supply_pressure_bar > 0.0 or f.mdot_gas_kg_s == 0.0]
        assert yaml.safe_load(out.read_text())["sample_count"] == len(usable) < len(rows)

    def test_depleted_supply_rows_are_not_choked(self, blowdown_csv, tmp_path):
        # A run that empties the supply logs 0 bar and no gas flow from then on.
        log = with_columns(blowdown_csv, tmp_path / "depleted.csv", 1000,
                           supply_pressure_bar="0", mdot_gas_kg_s="0")
        out = tmp_path / "k.yaml"
        code = main([
            "calibrate", "choked", "--data", str(log), "--out", str(out),
            "--side", "ox", "--alpha", "9.375e-8", "--theta-zero", "10.0",
        ])
        assert code == EXIT_OK
        rows = read_telemetry(log)
        choked = [
            f for f in rows
            if f.supply_pressure_bar > 0.0
            and f.ox_tank.pressure_bar / f.supply_pressure_bar < CHOKED_PRESSURE_RATIO
        ]
        assert yaml.safe_load(out.read_text())["sample_count"] == len(choked) > 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["choked", "--alpha", "9.375e-8", "--theta-zero", "10.0"],
            ["cv", "--phase", "gas", "--choked-constant", "1.6774194e-3"],
        ],
        ids=["choked", "cv_gas"],
    )
    def test_valve_angle_outside_travel_exits_2_with_one_json_line(self, blowdown_csv, tmp_path,
                                                                   capsys, flags):
        log = with_columns(blowdown_csv, tmp_path / "angle.csv", 1000, ox_tank_valve_angle_deg="95")
        out = tmp_path / "fit.yaml"
        code = main(["calibrate", flags[0], "--data", str(log), "--out", str(out), *flags[1:]])
        assert code == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "EregSimError"
        assert "valve angle 95.0 outside [0, 90]" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("constant", ["1e-320", "1e-300"])
    def test_non_finite_fit_exits_2_and_writes_nothing(self, blowdown_csv, tmp_path, capsys,
                                                      constant):
        out = tmp_path / "cv.yaml"
        code = main([
            "calibrate", "cv", "--data", str(blowdown_csv), "--out", str(out),
            "--phase", "gas", "--choked-constant", constant,
        ])
        assert code == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "EregSimError"
        assert "is not finite" in payload["message"]
        assert not out.exists()

    def test_cv_from_underflowing_supply_exits_2_with_one_json_line(self, blowdown_csv, tmp_path):
        # k * p_up underflows to 0 on every row: no row carries Cv information.
        log = with_columns(blowdown_csv, tmp_path / "faint.csv", 0, supply_pressure_bar="1e-9")
        out = tmp_path / "cv.yaml"
        src = str(Path(eregsim.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "eregsim.cli", "calibrate", "cv", "--data", str(log),
             "--out", str(out), "--phase", "gas", "--choked-constant", "5e-324"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_ERROR
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "DegenerateFitError"
        assert not out.exists()

    def test_unwritable_fit_file_exits_2_with_one_json_line(self, blowdown_csv, tmp_path, capsys):
        code = main([
            "calibrate", "gamma", "--data", str(blowdown_csv),
            "--out", str(tmp_path / "missing" / "gamma.yaml"), "--theta-zero", "10.0",
        ])
        assert code == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "EregSimError"
        assert "cannot write fit result" in payload["message"]


class TestNumericFlags:
    """A bad number on the command line: one JSON line naming the flag, exit 2."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["calibrate", "cv", "--density", "0"], "--density"),
            (["calibrate", "cv", "--density", "nan"], "--density"),
            (["calibrate", "cv", "--phase", "gas", "--choked-constant", "inf"],
             "--choked-constant"),
            (["calibrate", "choked", "--alpha", "0", "--theta-zero", "10"], "--alpha"),
            (["calibrate", "gamma", "--theta-zero", "nan"], "--theta-zero"),
            (["calibrate", "gamma", "--theta-zero", "90"], "--theta-zero"),
            (["size-injector", "--target-mdot", "nan"], "--target-mdot"),
            (["size-injector", "--target-mdot", "1.14", "--upstream-bar", "inf"],
             "--upstream-bar"),
            (["size-injector", "--target-mdot", "1.14", "--downstream-bar=-50"],
             "--downstream-bar"),
            (["size-injector", "--target-mdot", "1.14", "--upstream-bar=-5"], "--upstream-bar"),
        ],
        ids=["density_zero", "density_nan", "choked_constant_inf", "alpha_zero",
             "theta_zero_nan", "theta_zero_90", "target_mdot_nan", "upstream_bar_inf",
             "downstream_bar_negative", "upstream_bar_negative"],
    )
    def test_one_json_line_naming_the_flag(self, blowdown_csv, tmp_path, capsys, argv, flag):
        if argv[0] == "calibrate":
            argv = argv + ["--data", str(blowdown_csv), "--out", str(tmp_path / "fit.yaml")]
        else:
            argv = argv + ["--scenario", BASELINE]
        assert main(argv) == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(flag + " must be")
        assert not (tmp_path / "fit.yaml").exists()


class TestSizeInjector:
    def test_size_injector_prints_area(self, capsys):
        code = main([
            "size-injector", "--scenario", BASELINE, "--target-mdot", "1.14",
            "--side", "ox", "--cd", "0.7",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "mock injector area" in out
        area = float(out.split(":")[1].split("m2")[0])
        assert area == pytest.approx(1.684e-5, rel=0.01)  # 42 bar to ambient

    def test_zero_downstream_pressure_is_used(self, capsys):
        code = main([
            "size-injector", "--scenario", BASELINE, "--target-mdot", "1.14",
            "--side", "ox", "--cd", "0.7", "--downstream-bar", "0",
        ])
        assert code == EXIT_OK
        config = load_scenario(BASELINE)
        expected = size_mock_injector(
            target_mdot=1.14,
            rho=config.tanks["ox"].liquid_density,
            upstream=config.tank_setpoint("ox"),
            downstream=0.0,
            cd=0.7,
        )
        assert capsys.readouterr().out.strip() == f"ox mock injector area: {expected:.6e} m2"

    def test_zero_upstream_pressure_exits_2_with_one_json_line(self, capsys):
        code = main([
            "size-injector", "--scenario", BASELINE, "--target-mdot", "1.14",
            "--side", "ox", "--upstream-bar", "0",
        ])
        assert code == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InfeasibleThrottleError"


# ---------------------------------------------------------------------------
# Fuzz over the numeric flags


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Small logs for the fuzz: the first 2 s of the baseline static fire, the
    same with NaN pressures from 1.2 s on, and with the supply depleted (0 bar,
    no gas flow) from 1.5 s on. Every fit succeeds on the first and the last."""
    root = tmp_path_factory.mktemp("fuzz")
    frames = run_scenario(load_scenario(BASELINE).replace(duration=2.0))
    good = root / "good.csv"
    emit_telemetry(frames, good)
    with_columns(good, root / "nan.csv", 120, ox_tank_pressure_bar="nan")
    with_columns(good, root / "zero_supply.csv", 150, supply_pressure_bar="0", mdot_gas_kg_s="0")
    (root / "out").mkdir()
    return root


LOGS = ("good.csv", "nan.csv", "zero_supply.csv", "missing.csv")
OUTS = ("out/fit.yaml", "missing/fit.yaml")
NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, -5e-324, 1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-9, 100.0),  # in range for most flags, so that fits run
)


NOT_NUMBERS = st.sampled_from(["abc", "", "1e", "0x10", "1,5"])
# Most argv parse; the rest carry one fault argparse itself reports.
FAULTS = st.sampled_from([None] * 4 + ["text", "drop", "choice", "unknown"])


@st.composite
def cli_argv(draw):
    """argv for calibrate cv|gamma|choked or size-injector with drawn numbers.

    Log and fit paths are names relative to fuzz_dir; the values use the
    --flag=value form so that negative numbers parse as values. Some argv
    carry a parse fault: text for a number, a required flag left out, a bad
    --side or --phase choice, or an unknown flag.
    """
    command = draw(st.sampled_from(["cv", "gamma", "choked", "size-injector"]))
    if command == "size-injector":
        argv = ["size-injector", "--scenario", BASELINE, f"--target-mdot={draw(NUMBERS)!r}"]
        flags = ("target-mdot", "upstream-bar", "downstream-bar", "cd")
        required = ("--scenario", "--target-mdot")
        optional = flags[1:]
    else:
        argv = ["calibrate", command, "--data", draw(st.sampled_from(LOGS)),
                "--out", draw(st.sampled_from(OUTS)),
                "--phase", draw(st.sampled_from(["liquid", "gas"]))]
        flags = optional = ("density", "choked-constant", "alpha", "theta-zero")
        required = ("--data", "--out")
    for flag in optional:
        value = draw(st.none() | NUMBERS)
        if value is not None:
            argv.append(f"--{flag}={value!r}")
    fault = draw(FAULTS)
    if fault == "text":
        argv.append(f"--{draw(st.sampled_from(flags))}={draw(NOT_NUMBERS)}")
    elif fault == "drop":
        flag = draw(st.sampled_from(required))
        i = next(i for i, a in enumerate(argv) if a.split("=")[0] == flag)
        del argv[i:i + (1 if "=" in argv[i] else 2)]
    elif fault == "choice":
        argv.append(draw(st.sampled_from(["--side=up", "--phase=solid"])))
    elif fault == "unknown":
        argv.append("--frobnicate")
    return argv


def calibrate(kind, log, *flags):
    return ["calibrate", kind, "--data", log, "--out", "out/fit.yaml", *flags]


class TestCliFuzz:
    """Any numeric flag value, existing or missing paths and argv argparse
    rejects: exit 0, 2 or 3; a failure prints exactly one JSON line on
    stderr (a Python warning or a usage block would print more) and writes
    no fit file; a success writes only finite numbers."""

    @given(argv=cli_argv())
    @example(argv=calibrate("cv", "nan.csv", "--phase", "gas", "--choked-constant=1e-3"))
    @example(argv=calibrate("choked", "nan.csv", "--alpha=1e-7"))
    @example(argv=calibrate("choked", "zero_supply.csv", "--alpha=1e-7", "--theta-zero=10"))
    @example(argv=calibrate("gamma", "zero_supply.csv", "--theta-zero=10"))
    @example(argv=calibrate("cv", "good.csv", "--density=1141"))
    @example(argv=calibrate("cv", "zero_supply.csv", "--phase", "gas", "--choked-constant=1e-3"))
    @example(argv=calibrate("cv", "good.csv", "--phase", "gas", "--choked-constant=1e-320"))
    @example(argv=calibrate("cv", "good.csv", "--phase", "gas", "--choked-constant=1e-300"))
    @example(argv=["size-injector", "--scenario", BASELINE, "--target-mdot=1.0", "--cd=5e-324"])
    @example(argv=calibrate("cv", "good.csv", "--density=abc"))
    @example(argv=["calibrate", "cv", "--out", "out/fit.yaml", "--density=1141"])
    @example(argv=["size-injector", "--target-mdot=1.0"])
    @example(argv=["size-injector", "--scenario", BASELINE])
    @example(argv=calibrate("gamma", "good.csv", "--side=up"))
    @example(argv=calibrate("cv", "good.csv", "--phase=solid"))
    @example(argv=calibrate("gamma", "good.csv", "--frobnicate"))
    @settings(max_examples=200, deadline=None)
    def test_exit_code_stderr_and_written_numbers(self, fuzz_dir, argv):
        argv = [str(fuzz_dir / a) if a in LOGS + OUTS else a for a in argv]
        fit = fuzz_dir / "out" / "fit.yaml"
        fit.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_ERROR, EXIT_ABORT)
        assert [str(w.message) for w in caught] == []
        if code != EXIT_OK:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, err.getvalue()
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not fit.exists()
        elif argv[0] == "size-injector":
            assert math.isfinite(float(out.getvalue().split(":")[1].split("m2")[0]))
        else:
            written = yaml.safe_load(Path(argv[argv.index("--out") + 1]).read_text())
            numbers = [v for k, v in written.items() if k != "fit"]
            assert numbers and all(math.isfinite(v) for v in numbers), written
