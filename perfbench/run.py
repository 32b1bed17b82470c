"""eregsim benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload staticfire_throttle --seed 0 --seconds 20 --trace 0

Run from the root of a source tree that holds ``src/eregsim`` and
``scenarios/``. The benchmark imports the package from ``src`` and
works in a single process: no threads, one op at a time.

1. Set-up: a fresh import of ``eregsim`` (numpy and PyYAML are already
   loaded) plus building the workload's inputs from the seed. It is
   repeated SETUP_REPS times over the run and reported as the median.
2. One warm-up op, checked but not timed.
3. Ops back to back until ``--seconds`` have passed; each op is timed
   whole and its output checked.

While a set-up or op runs, a slice of a fixed reference loop
(``yardstick.py``) runs every 10 ms, and the item's own time is
reported in yardstick-seconds: scaled by the host speed the slices saw
during it. This takes out the host's own slowdowns, which on a shared
host last whole runs. Wall times stay in the details.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` every second op runs with spans around the calls between
layers and the last line reports the per-layer metrics of the fastest
traced op. Results, with the environment they were measured in, go to
``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import spans
import workloads
import yardstick

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPS = 15
MIN_OPS = 3  # per timed kind (untraced, traced)
LAYERS = ("scenario", "engine", "fluids", "control", "telemetry", "calibration")


def fresh_import() -> dict:
    """Import eregsim from scratch; returns {layer: module}."""
    for name in [m for m in sys.modules if m == "eregsim" or m.startswith("eregsim.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"eregsim.{layer}") for layer in LAYERS}


def source_identity() -> dict:
    """Git commit if the tree is a checkout, and a digest of src/ either way."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    ident = {"git_sha": None, "src_sha256": h.hexdigest()}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                ident["git_sha"] = ref_path.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        ident["git_sha"] = line.split()[0]
        else:
            ident["git_sha"] = ref
    return ident


def environment() -> dict:
    env = source_identity()
    env.update(
        python=platform.python_version(),
        numpy=np.__version__,
        nproc=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        platform=platform.platform(),
        machine=platform.machine(),
    )
    return env


class Clock:
    """Times items in yardstick-seconds, sampling host speed during each (see yardstick.py)."""

    def __init__(self) -> None:
        self.sampler = yardstick.Sampler()
        self.slices: list[float] = []  # every slice time of the run
        yardstick.timed()  # warm-up

    def time(self, fn, sample: bool = True):
        """fn's result, its wall seconds less the slices, and its yardstick-seconds.

        Traced ops are not sampled, so that no slice runs inside a span;
        they, and items too short for a slice, are scaled by a burst of
        slices right after them.
        """
        start = perf_counter()
        if sample:
            self.sampler.start()
        try:
            result = fn()
        finally:
            slices = self.sampler.stop() if sample else []
        own = perf_counter() - start - sum(slices)
        speed = slices or [yardstick.timed() for _ in range(10)]
        self.slices += speed
        return result, own, yardstick.scale(own, speed)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def layer_metrics(summary, out, grid_size: int) -> dict[str, float]:
    """Per-layer metrics of one traced op from its span summary."""

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    steps = calls("fluids.step_gas_tank")  # one supply update per physics step
    engine_self = spans.layer_self_time(summary, "engine")
    return {
        "engine.self_s": engine_self,
        "engine.us_per_step": 1e6 * engine_self / steps if steps else 0.0,
        "engine.steps": steps,
        "engine.network_solves_per_step": calls("fluids.gas_valve_mass_flow") / 2 / steps if steps else 0.0,
        "fluids.calls": spans.layer_calls(summary, "fluids"),
        "fluids.self_s": spans.layer_self_time(summary, "fluids"),
        "fluids.chamber_solves": calls("fluids.chamber_state"),
        "control.ereg_ticks": calls("control.EregController.step"),
        "control.actuator_steps": calls("control.Actuator.step"),
        "control.self_s": spans.layer_self_time(summary, "control"),
        "scenario.setpoints_calls": calls("scenario.setpoints_at"),
        "scenario.self_s": spans.layer_self_time(summary, "scenario"),
        "telemetry.frames": out.rows_read,
        "telemetry.emit_s": total("telemetry.emit_telemetry"),
        "telemetry.csv_bytes": out.csv_bytes,
        "telemetry.read_s": total("telemetry.read_telemetry"),
        "telemetry.metrics_s": total("telemetry.regulation_metrics"),
        "calibration.fit_cv_s": total("calibration.fit_cv_curve"),
        "calibration.fit_gamma_s": total("calibration.fit_gamma"),
        "calibration.fit_choked_s": total("calibration.fit_choked_constant"),
        "calibration.samples": getattr(out, "samples", 0),
        "calibration.grid_candidates": calls("calibration.fit_cv_curve") * grid_size,
    }


UNITS = {
    "op_s_p50": "s",
    "sim_rtf": "x",
    "fit_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "engine.us_per_step": "us",
    "engine.network_solves_per_step": "solves/step",
    "telemetry.csv_bytes": "bytes",
    "trace.overhead_share": "share",
    "ops_failed_share": "share",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eregsim" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"perfbench: no src/eregsim and scenarios/ under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    out_dir = OUT_ROOT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)

    reference = None
    if isinstance(workload, workloads.RunWorkload):
        reference = checks.load_reference(workload.name)
        if reference is None:
            print(f"perfbench: no reference for {workload.name}; run record_reference.py",
                  file=sys.stderr)
            return 2

    # -- set-up ------------------------------------------------------------
    tracer = spans.Tracer() if trace else None
    clock = Clock()
    setup_times, setup_wall, load_times, digests = [], [], [], set()

    def set_up():
        gc.collect()
        if tracer is not None:
            tracer.clear()

        def build():
            modules = fresh_import()
            calls = workloads.bind(modules, tracer)
            return (modules, *workload.setup(calls, modules, ROOT, out_dir, args.seed))

        (modules, state, digest), wall, scaled = clock.time(build, sample=tracer is None)
        setup_times.append(scaled)
        setup_wall.append(wall)
        digests.add(digest)
        if tracer is not None:
            load_times.append(tracer.summary().get("scenario.load_scenario", (0, 0.0, 0.0))[1])
        return modules, state

    # The ops use the first set-up. The other repetitions only measure and
    # are spread over the run; their modules are dropped and their input
    # files are byte-identical rewrites.
    modules, state = set_up()
    plain = workloads.bind(modules)
    traced = workloads.bind(modules, tracer) if trace else None
    grid_size = len(np.arange(0.0, 90.0, modules["calibration"].THETA_GRID_STEP))

    # -- ops ---------------------------------------------------------------
    failures: list[str] = []
    attempted = 0
    baseline = None  # the warm-up op's output; every later op must equal it

    def run_op(with_spans: bool):
        nonlocal attempted, baseline
        attempted += 1
        gc.collect()
        if with_spans:
            tracer.clear()
            tracer.patch_engine(modules["engine"])

        def op():
            try:
                return workload.op(traced if with_spans else plain, state), None
            except Exception as exc:  # an op that raises counts as failed; keep measuring
                return None, f"{type(exc).__name__}: {exc}"

        (out, error), wall, scaled = clock.time(op, sample=not with_spans)
        if with_spans:
            tracer.unpatch()
        reason = error or workload.check(state, out, reference)
        if reason is None:
            if baseline is None:
                baseline = out
            elif not out.same_as(baseline):
                kind = "traced" if with_spans else "untraced"
                reason = f"{kind} op output differs bit-wise from the warm-up op"
        if reason is not None:
            failures.append(reason)
        return out, wall, scaled

    run_op(False)  # warm-up
    kinds = (False, True) if trace else (False,)
    times = {kind: [] for kind in kinds}  # yardstick-seconds per op
    walls = {kind: [] for kind in kinds}  # wall seconds per op
    per_op_layers, best_spans, sample = [], {}, None  # sample: the last op output
    begin = perf_counter()
    deadline = begin + args.seconds
    i = 0
    while perf_counter() < deadline or min(len(t) for t in times.values()) < MIN_OPS:
        if perf_counter() >= begin + len(setup_times) * args.seconds / SETUP_REPS:
            set_up()
        with_spans = kinds[i % len(kinds)]
        i += 1
        out, wall, scaled = run_op(with_spans)
        times[with_spans].append(scaled)
        walls[with_spans].append(wall)
        if out is not None:
            sample = out
            if with_spans:
                if all(wall < other for other, _ in per_op_layers):
                    best_spans = tracer.arrays()
                per_op_layers.append((wall, layer_metrics(tracer.summary(), out, grid_size)))

    while len(setup_times) < SETUP_REPS:
        set_up()

    # -- report ------------------------------------------------------------
    # Times are medians in yardstick-seconds (see yardstick.py and README.md).
    op_times = times[False]
    op_s = statistics.median(op_times)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "environment": environment(),
        "input_sha256": sorted(digests),  # one digest: every set-up built the same inputs
        "setup_reps": len(setup_times),
        "setup_s_quartiles": quartiles(setup_times),
        "setup_wall_s_quartiles": quartiles(setup_wall),
        "ops_timed": len(op_times),
        "op_s_quartiles": quartiles(op_times),
        "op_wall_s_quartiles": quartiles(walls[False]),
        "op_wall_s_min": min(walls[False]),
        "yardstick_slices": len(clock.slices),
        "yardstick_slice_s_quartiles": quartiles(clock.slices),
        "failures": failures[:10],
    }
    if trace:
        details.update(traced_ops=len(times[True]), traced_op_s_quartiles=quartiles(times[True]))
        metrics = dict(min(per_op_layers, key=lambda op: op[0])[1]) if per_op_layers else {}
        metrics["scenario.load_s"] = statistics.median(load_times)
        metrics["trace.overhead_share"] = statistics.median(times[True]) / op_s - 1.0
        metrics["ops_failed_share"] = len(failures) / attempted
        np.savez(out_dir / "spans.npz", names=np.array(tracer.names), **best_spans)
    else:
        metrics = {
            "op_s_p50": op_s,
            "sim_rtf": workload.sim_seconds(state, sample) / op_s if sample else 0.0,
            "fit_rows_per_s": sample.rows_read / op_s if sample else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    (out_dir / f"result_seed{args.seed}_trace{int(trace)}.json").write_text(
        json.dumps({"details": details,
                    "op_s": {"untraced": op_times, "traced": times.get(True, [])},
                    "op_wall_s": {"untraced": walls[False], "traced": walls.get(True, [])},
                    **result}, indent=1)
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
