"""Alternating in-process runs of a parent and a change tree's eregsim.

Loads ``TREE/src/eregsim`` of both trees side by side in one process,
under the package names ``eregsim_parent`` and ``eregsim_change``, and
times ``run_scenario`` on the scenarios of perfbench's two run workloads
(``perfbench/workloads.py``): the baseline static fire with the ff+dyn
variant and the water-flow blowdown with the ff variant, each with
SENSOR_NOISE_BAR of seeded sensor noise. After WARMUP uncounted rounds,
ROUNDS rounds are counted: odd rounds run the parent first, even rounds
the change first. A run whose frames differ from the other tree's in any
bit (their reprs differ) stops the tool before it reports anything, so a
timing is only ever quoted for the same output.

It prints, per scenario, each tree's median and quartiles in ms, the
change/parent ratio of the medians and the rounds the change ran faster,
as tests.import_cost does for imports:

    python -m tests.run_cost PARENT_TREE CHANGE_TREE [--rounds 15] [--seed 1]
"""

import argparse
import gc
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import yaml

from tests.bench_pairs import ROOT, SIDES
from tests.import_cost import report, summarise

SENSOR_NOISE_BAR = 0.02  # as perfbench/workloads.py
WORKLOADS = (("staticfire_baseline", "ff+dyn"), ("waterflow_blowdown", "ff"))
WARMUP = 1
ROUNDS = 15


def scenario_data(stem: str, variant: str, seed: int) -> dict:
    """The shipped scenario stem as perfbench's run workload writes it."""
    data = yaml.safe_load((ROOT / "scenarios" / f"{stem}.yaml").read_text())
    data["sensors"] = {"noise_sigma_bar": SENSOR_NOISE_BAR, "seed": seed}
    data["variant"] = variant
    return data


def round_order(round_: int) -> tuple[str, ...]:
    """The sides in the order round round_ (from 0) runs them."""
    return SIDES if round_ % 2 == 0 else SIDES[::-1]


def first_difference(frames: dict[str, list]) -> str | None:
    """Where the parent's and the change's frames first differ, or None."""
    parent, change = frames["parent"], frames["change"]
    if len(parent) != len(change):
        return f"{len(parent)} frames against {len(change)}"
    for i, (p, c) in enumerate(zip(parent, change)):
        if repr(p) != repr(c):
            return f"frame {i} (t = {p.time_s} s)"
    return None


def load_tree(src: Path, name: str):
    """src/eregsim imported as the package name, with its engine and scenario."""
    spec = importlib.util.spec_from_file_location(
        name, src / "eregsim" / "__init__.py", submodule_search_locations=[str(src / "eregsim")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.engine"), importlib.import_module(f"{name}.scenario")


def timed_run(engine, config) -> tuple[float, list]:
    """Seconds of one run_scenario(config), and its frames."""
    gc.collect()
    start = time.perf_counter()
    frames = engine.run_scenario(config)
    return time.perf_counter() - start, frames


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        src = tree.resolve() / "src"
        if not (src / "eregsim" / "__init__.py").is_file():
            parser.error(f"{src} holds no eregsim package")
        trees[side] = load_tree(src, f"eregsim_{side}")

    lines = []
    for stem, variant in WORKLOADS:
        data = scenario_data(stem, variant, args.seed)
        configs = {side: scenario.scenario_from_dict(data) for side, (_, scenario) in trees.items()}
        times = {side: [] for side in SIDES}
        for round_ in range(WARMUP + args.rounds):
            frames = {}
            for side in round_order(round_):
                seconds, frames[side] = timed_run(trees[side][0], configs[side])
                if round_ >= WARMUP:
                    times[side].append(seconds)
            difference = first_difference(frames)
            if difference is not None:
                print(f"{stem} ({variant}): the trees' frames differ at {difference}; "
                      f"no timing is reported", file=sys.stderr)
                return 1
        lines += [f"{stem} ({variant}), seed {args.seed}, {args.rounds} rounds:",
                  *(f"  {line}" for line in report(summarise(times)))]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
