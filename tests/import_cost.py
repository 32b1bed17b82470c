"""Alternating fresh imports of a parent and a change tree's src/eregsim.

Imports every module of ``TREE/src/eregsim`` anew, in one
process, round after round: odd rounds import the parent first, even
rounds the change first. Before each import the tool drops every eregsim
module from ``sys.modules``, so each one compiles and runs its source
again; numpy, PyYAML and the standard library stay loaded after the
WARMUP uncounted rounds, and the ROUNDS after them are counted.
Bytecode must not be written, or later rounds would read it: run the
tool under ``python -B`` (or with
PYTHONDONTWRITEBYTECODE=1), and, as tests.bench_pairs does, it refuses
a tree whose ``src/`` already holds a ``__pycache__``.

It prints each tree's median and quartiles in ms, the change/parent
ratio of the medians and the rounds the change imported faster:

    python -B -m tests.import_cost PARENT_TREE CHANGE_TREE
"""

import argparse
import gc
import importlib
import pkgutil
import sys
import time
from pathlib import Path

from tests.bench_pairs import SIDES, quartiles

WARMUP = 2
ROUNDS = 60


def summarise(times: dict[str, list[float]]) -> dict:
    """Quartiles of each side's import seconds, the change/parent ratio of
    the medians and the rounds the change won; times maps "parent" and
    "change" to their seconds in round order."""
    stats = {side: quartiles(times[side]) for side in SIDES}
    return {
        **stats,
        "rounds": len(times["parent"]),
        "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
        "change_won": sum(c < p for p, c in zip(times["parent"], times["change"])),
    }


def report(summary: dict) -> list[str]:
    """The summary as printed: times in ms."""
    lines = [f"{side:<6} median {summary[side]['median'] * 1e3:.2f} ms, IQR "
             f"{summary[side]['q1'] * 1e3:.2f}-{summary[side]['q3'] * 1e3:.2f} ms" for side in SIDES]
    lines.append(f"change/parent x{summary['change_over_parent']:.3f}; the change was faster in "
                 f"{summary['change_won']}/{summary['rounds']} rounds")
    return lines


def fresh_import(src: Path) -> float:
    """Seconds to import every eregsim module under src from its source."""
    for name in [m for m in sys.modules if m == "eregsim" or m.startswith("eregsim.")]:
        del sys.modules[name]
    names = ["eregsim", *(f"eregsim.{m.name}" for m in pkgutil.iter_modules([src / "eregsim"]))]
    sys.path.insert(0, str(src))
    try:
        gc.collect()
        start = time.perf_counter()
        for name in names:
            importlib.import_module(name)
        return time.perf_counter() - start
    finally:
        sys.path.remove(str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if not sys.dont_write_bytecode:
        parser.error("run under python -B or PYTHONDONTWRITEBYTECODE=1: written bytecode "
                     "would spare later rounds the compile")
    srcs = {"parent": args.parent.resolve() / "src", "change": args.change.resolve() / "src"}
    for src in srcs.values():
        if not (src / "eregsim" / "__init__.py").is_file():
            parser.error(f"{src} holds no eregsim package")
        if any(src.rglob("__pycache__")):
            parser.error(f"{src} holds a __pycache__; imports would not compile the source")

    times = {side: [] for side in SIDES}
    for round_ in range(WARMUP + ROUNDS):
        for side in SIDES if round_ % 2 == 0 else SIDES[::-1]:
            seconds = fresh_import(srcs[side])
            if round_ >= WARMUP:
                times[side].append(seconds)
    print("\n".join(report(summarise(times))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
