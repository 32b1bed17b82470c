"""Alternating parent/change pairs of perfbench runs, written as BENCH_<pr>.json.

Runs ``python3 perfbench/run.py --workload <w> --seed <s> --seconds <t>
--trace 0`` in two source trees, a parent and a change, pair after pair:
odd pairs run the parent first, even pairs the change first. Each run
has PYTHONDONTWRITEBYTECODE=1, so both trees compile their source on
every set-up as the benchmark's own runs do; a tree that already holds a
``__pycache__`` under ``src/`` is refused. After each run the tool reads
``.perfbench_out/<w>/result_seed<s>_trace0.json`` from that tree.

The output holds, per workload, the number of pairs, per end-to-end
metric of BENCHMARK.json the median and quartiles of each side, the
change/parent ratio of the medians, the pairs the change read better,
whether the difference is resolved, and every run's result record in pair
order. A metric is resolved when the change read better in at least 9 of
10 pairs and its median is better than the parent's by more than the
parent's interquartile range; each workload's summary line says which
metrics are:

    python -m tests.bench_pairs PARENT_TREE CHANGE_TREE --workloads calibrate_fits \\
        --pairs 10 --seed 1 --seconds 10 --claim "..." --out BENCH_34.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(records: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """One workload's entry: pairs, per-metric medians and the records.

    records maps "parent" and "change" to their result records in pair
    order; end_to_end is BENCHMARK.json's list of metrics, each with its
    name and whether higher or lower is better.
    """
    pairs = len(records["parent"])
    medians = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in records[side]] for side in SIDES}
        sign = 1.0 if metric["better"] == "higher" else -1.0
        stats = {side: quartiles(values[side]) for side in SIDES}
        better = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
        medians[name] = {
            **stats,
            "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "change_better_pairs": better,
            "resolved": 10 * better >= 9 * pairs
            and gap > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return {"pairs": pairs, "medians": medians, "records": records}


def summary_line(workload: str, entry: dict) -> str:
    """One workload's pairs: per metric the ratio, the pairs read better and
    whether the difference is resolved."""
    return f"{workload}, {entry['pairs']} pairs: " + "; ".join(
        f"{name} x{m['change_over_parent']:.4f} better {m['change_better_pairs']}/"
        f"{entry['pairs']} {'resolved' if m['resolved'] else 'unresolved'}"
        for name, m in entry["medians"].items())


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; its result record."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, check=True,
        stdout=subprocess.DEVNULL,
    )
    out = tree / ".perfbench_out" / workload / f"result_seed{seed}_trace0.json"
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--claim", default=None, help="the claim the pairs test, if any")
    parser.add_argument("--note", default="", help="appended to the description: host, trees")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if any((tree / "src").rglob("__pycache__")):
            parser.error(f"{tree}/src holds a __pycache__; set-up would not compile the source")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    for workload in args.workloads:
        records = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                records[side].append(run_once(trees[side], workload, args.seed, args.seconds))
            print(f"{workload} pair {pair + 1}/{args.pairs}: " + "; ".join(
                f"{side} " + " ".join(f"{name}={m['value']:.4g}" for name, m in
                                      records[side][-1]["metrics"].items())
                for side in SIDES), file=sys.stderr)
        workloads[workload] = summarise(records, end_to_end)
        print(summary_line(workload, workloads[workload]), file=sys.stderr)

    description = (
        f"Alternating parent/change pairs of `python3 perfbench/run.py --workload <w> "
        f"--seed {args.seed} --seconds {args.seconds:g} --trace 0`, run by "
        f"`python -m tests.bench_pairs` with PYTHONDONTWRITEBYTECODE=1 (no __pycache__ in "
        f"either tree); odd pairs run the parent first, even pairs the change first. "
        f"`records` holds each run's result_seed{args.seed}_trace0.json in pair order; "
        f"`medians` the median and quartiles of each end-to-end metric per side, the "
        f"change/parent ratio of the medians, the number of pairs the change read better, "
        f"and `resolved`: better in at least 9 of 10 pairs with the median better by more "
        f"than the parent's interquartile range."
    )
    payload = {
        "description": f"{description} {args.note}".strip(),
        "claim": args.claim,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
