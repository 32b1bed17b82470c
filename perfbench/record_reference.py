"""Record the reference output the run workloads are checked against.

    python3 perfbench/record_reference.py

For each run workload and each seed in SEEDS this runs one op and
stores every telemetry field (``reference/<workload>.npz``) plus the
frame count, the final event list and the frame each event first
appears in (``reference/<workload>.json``). Record it only at a commit
whose output is accepted as correct; later commits must match it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import checks
import run
import workloads

SEEDS = (0, 1, 2)


def record(name: str, out_dir: Path) -> None:
    workload = workloads.WORKLOADS[name]
    modules = run.fresh_import()
    calls = workloads.bind(modules)
    fields, onsets = {}, {}
    for seed in SEEDS:
        state, _ = workload.setup(calls, modules, run.ROOT, out_dir, seed)
        out = workload.op(calls, state)
        reason = workload.bounds(out.frames, out.metrics, state.config)
        if reason is not None:
            raise SystemExit(f"{name} seed {seed} misses the paper's bounds: {reason}")
        fields[f"fields_s{seed}"] = checks.frames_to_array(out.frames)
        onsets[str(seed)] = checks.event_onsets(out.frames)
    counts = {len(f) for f in fields.values()}
    finals = {tuple(event for _, event in o) for o in onsets.values()}
    if len(counts) != 1 or len(finals) != 1:
        raise SystemExit(f"{name}: frame count or events differ between seeds: {counts} {finals}")
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(checks.REFERENCE_DIR / f"{name}.npz", **fields)
    meta = {
        "frame_count": counts.pop(),
        "final_events": list(finals.pop()),
        "onsets": onsets,
        "environment": run.environment(),
    }
    (checks.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(meta, indent=1) + "\n")
    print(f"{name}: {meta['frame_count']} frames, events {meta['final_events']}")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    out_dir = run.OUT_ROOT / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        if isinstance(workload, workloads.RunWorkload):
            record(name, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
