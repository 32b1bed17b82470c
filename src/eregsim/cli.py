"""Command-line interface.

Subcommands: run, metrics, compare, calibrate (cv|gamma|choked),
size-injector. Exit code 0 on success; nonzero on a parse or validation failure
or an over-pressure abort, with a machine-readable JSON error line on stderr.
"""

import argparse
import json
import math
import sys

from . import calibration
from .engine import run_scenario
from .errors import ConfigError, EregSimError
from .fluids import FULL_TRAVEL
from .scenario import EREG_NAMES, VARIANTS, checked_number, load_scenario, size_mock_injector
from .telemetry import EVENT_ABORT, emit_telemetry, read_telemetry, regulation_metrics

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_ABORT = 3


def _fail(code: str, message: str, status: int = EXIT_ERROR) -> int:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)
    return status


class _Parser(argparse.ArgumentParser):
    """Parse errors raise ConfigError, as the flag type functions do: one JSON line."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _number(flag: str, **bounds):
    return lambda text: checked_number(text, flag, **bounds)


def _seed(text: str) -> int:
    if not text.isdecimal():  # digits only, so never negative
        raise ConfigError(f"--seed must be a nonnegative integer, got {text}")
    return int(text)


def _metrics_lines(metrics) -> list[str]:
    lines = [
        f"{'ereg':<10} {'max|e| bar':>11} {'rms bar':>9} {'settle s':>9} "
        f"{'overshoot bar':>14} {'early p2p bar':>14}"
    ]
    for name in EREG_NAMES:
        m = metrics[name]
        lines.append(
            f"{name:<10} {m.max_abs_error:>11.3f} {m.rms_error:>9.3f} {m.settle_time:>9.2f} "
            f"{m.overshoot:>14.3f} {m.peak_oscillation_amplitude:>14.3f}"
        )
    return lines


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    changes = {"variant": args.controller, "noise_seed": args.seed}
    changes = {field: value for field, value in changes.items() if value is not None}
    if changes:
        config = config.replace(**changes)
    frames = run_scenario(config)
    emit_telemetry(frames, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    if EVENT_ABORT in frames[-1].events:
        return _fail("abort", "run ended in over-pressure abort", EXIT_ABORT)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    config = load_scenario(args.scenario)
    frames = read_telemetry(args.telemetry)
    metrics = regulation_metrics(frames, config)
    if args.json:
        # JSON has no infinity: a regulator that never settles gets null.
        payload = {
            name: {k: v if math.isfinite(v) else None for k, v in metrics[name]._asdict().items()}
            for name in EREG_NAMES
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print("\n".join(_metrics_lines(metrics)))
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = load_scenario(args.scenario)
    failed = []
    for variant in args.variants:
        print(f"variant {variant}")
        run_config = config.replace(variant=variant)
        try:
            metrics = regulation_metrics(run_scenario(run_config), run_config)
        except EregSimError as exc:
            print(f"run failed: {exc}")
            failed.append(variant)
        else:
            print("\n".join(_metrics_lines(metrics)))
    if failed:
        return _fail("compare", f"variants failed: {', '.join(failed)}")
    return EXIT_OK


def _rms(residuals: list[float]) -> float:
    return (sum(r * r for r in residuals) / len(residuals)) ** 0.5


def _cmd_calibrate(args) -> int:
    frames = read_telemetry(args.data)
    if args.kind == "cv":
        if args.phase == "liquid":
            if args.density is None:
                return _fail("calibrate", "liquid Cv calibration needs --density")
            raw = calibration.liquid_samples_from_telemetry(frames, args.side, args.density)
        else:
            if args.choked_constant is None:
                return _fail("calibrate", "gas Cv calibration needs --choked-constant")
            raw = calibration.gas_samples_from_telemetry(frames, args.side)
        pairs = []
        for s in raw:
            try:
                pairs.append((s.valve_angle, calibration.cv_from_sample(s, args.choked_constant)))
            except ValueError:
                continue  # no pressure drop or no upstream pressure: no Cv information
        fit = calibration.fit_cv_curve(pairs)
        kind, parameters = "cv_curve", {
            "alpha_si_per_deg": fit.alpha,
            "theta_zero_deg": fit.theta_zero,
            "residual_rms": fit.residual_rms,
            "sample_count": fit.sample_count,
        }
    elif args.kind == "gamma":
        records = calibration.steady_records(frames, args.side + "_tank")
        gamma = calibration.fit_gamma(records, args.theta_zero)
        residuals = [
            angle - args.theta_zero - gamma * min(1.0, s / p) for angle, s, p in records
        ]
        kind, parameters = "gamma", {
            "gamma_deg": gamma,
            "residual_rms": _rms(residuals),
            "sample_count": len(records),
        }
    else:  # choked
        if args.alpha is None:
            return _fail("calibrate", "choked-constant calibration needs --alpha")
        samples = calibration.choked_samples(
            calibration.gas_samples_from_telemetry(frames, args.side)
        )
        k = calibration.fit_choked_constant(samples, args.alpha, args.theta_zero)
        residuals = [
            s.flow - k * max(0.0, args.alpha * (s.valve_angle - args.theta_zero)) * s.upstream_pressure
            for s in samples
        ]
        kind, parameters = "choked_constant", {
            "choked_constant": k,
            "residual_rms": _rms(residuals),
            "sample_count": len(samples),
        }
    calibration.write_fit_result(args.out, kind, parameters)
    print(f"wrote fit result to {args.out}")
    return EXIT_OK


def _cmd_size_injector(args) -> int:
    config = load_scenario(args.scenario)
    upstream, downstream = config.tank_setpoint(args.side), config.ambient_pressure
    if args.upstream_bar is not None:
        upstream = args.upstream_bar * 1e5
    if args.downstream_bar is not None:
        downstream = args.downstream_bar * 1e5
    area = size_mock_injector(
        target_mdot=args.target_mdot,
        rho=config.tanks[args.side].liquid_density,
        upstream=upstream,
        downstream=downstream,
        cd=args.cd,
    )
    print(f"{args.side} mock injector area: {area:.6e} m2")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eregsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write telemetry CSV")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--controller", choices=VARIANTS)
    p_run.add_argument("--seed", type=_seed)
    p_run.set_defaults(func=_cmd_run)

    p_metrics = sub.add_parser("metrics", help="regulation metrics from a telemetry CSV")
    p_metrics.add_argument("--telemetry", required=True)
    p_metrics.add_argument("--scenario", required=True)
    p_metrics.add_argument("--json", action="store_true")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_compare = sub.add_parser("compare", help="run controller variants side by side")
    p_compare.add_argument("--scenario", required=True)
    p_compare.add_argument("--variants", nargs="+", required=True,
                           choices=VARIANTS)
    p_compare.set_defaults(func=_cmd_compare)

    p_cal = sub.add_parser("calibrate", help="fit model parameters from telemetry")
    p_cal.add_argument("kind", choices=["cv", "gamma", "choked"])
    p_cal.add_argument("--data", required=True)
    p_cal.add_argument("--out", required=True)
    p_cal.add_argument("--side", choices=["ox", "fuel"], default="ox")
    p_cal.add_argument("--phase", choices=["liquid", "gas"], default="liquid")
    for flag in ("--density", "--choked-constant", "--alpha"):
        p_cal.add_argument(flag, type=_number(flag, above=0.0))
    p_cal.add_argument("--theta-zero", default=0.0,
                       type=_number("--theta-zero", at_least=0.0, below=FULL_TRAVEL))
    p_cal.set_defaults(func=_cmd_calibrate)

    p_size = sub.add_parser("size-injector", help="size a mock injector orifice")
    p_size.add_argument("--scenario", required=True)
    p_size.add_argument("--target-mdot", type=_number("--target-mdot", above=0.0), required=True)
    p_size.add_argument("--side", choices=["ox", "fuel"], default="ox")
    for flag in ("--upstream-bar", "--downstream-bar"):
        p_size.add_argument(flag, type=_number(flag, at_least=0.0))
    p_size.add_argument("--cd", type=_number("--cd"), default=0.7)
    p_size.set_defaults(func=_cmd_size_injector)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except EregSimError as exc:
        return _fail(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
