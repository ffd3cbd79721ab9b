"""Interleaved in-process A/B timing of two rumorsim package directories.

    git archive <rev> src/rumorsim | tar -x -C old
    python tools/ab.py old/src/rumorsim src/rumorsim --reps 40

OLD and NEW are package directories, each the one holding rumorsim's
__init__.py.  Both are imported into one process, as ab_old and ab_new, and
each rep runs every shape once on each side, alternating which side runs
first, on the same seed; a rep's seed is its number.  A shape is the
run_experiment, coupled_run or oracle calls of one bench workload, or a case
named after what it runs.  Only the calls are timed, in process CPU time, with
glibc's trim and mmap thresholds fixed (where mallopt exists), so that
neither side pays for handing memory back to the kernel and faulting it in
again.  For each shape it prints the median time of each side, the median
of the per-rep ratios new/old, the reps in which new was faster, and
whether both sides gave the same outputs in every rep.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import statistics
import sys
import time
from pathlib import Path

# the bench's coupled-1024 schedules, criterion 09's, alternated across pairs
_SCHEDULES = (
    "lazy,2\nbusy,4\nlazy,3\nbusy,400\n",
    "busy,3\nlazy,5\nbusy,2\nlazy,1\nbusy,400\n",
)


def _experiments(*configs):
    """A shape of run_experiment calls, one per config (ExperimentConfig
    keywords), the i-th at seed seed * len(configs) + i."""

    def shape(rs, seed):
        cfgs = [rs.ExperimentConfig(seed=seed * len(configs) + i, **kw)
                for i, kw in enumerate(configs)]
        start = time.process_time()
        results = [rs.run_experiment(cfg) for cfg in cfgs]
        elapsed = time.process_time() - start
        return elapsed, [(repr(r.summary), [(t.rounds, t.completed) for t in r.records])
                         for r in results]

    return shape


def _coupled(rs, seed):
    lists = rs.realize_lists(rs.complete_graph(1024), rs.ListStrategy.CANONICAL, 0)
    schedules = [rs.parse_schedule(text) for text in _SCHEDULES]
    failure = rs.FailureModel(0.5)
    pairs = range(10 * seed, 10 * seed + 10)
    start = time.process_time()
    outs = [rs.coupled_run(lists, failure, 0, schedules[k % 2], rs.TrialRandomness(seed, k))
            for k in pairs]
    elapsed = time.process_time() - start
    return elapsed, [(o.delayed.informing.tolist(), o.undelayed.informing.tolist(), o.dominated)
                     for o in outs]


def _oracle(rs, seed):
    # deterministic: every rep runs the same two calls
    lists = rs.realize_lists(rs.complete_graph(4), rs.ListStrategy.CANONICAL, 0)
    start = time.process_time()
    dists = [rs.exact_fully_random(5, 0.7, 60), rs.exact_quasirandom(4, lists, 0.6, horizon=8)]
    elapsed = time.process_time() - start
    return elapsed, [(d.mass.tobytes(), repr(d.tail)) for d in dists]


SHAPES = {
    # bench workloads: law-2048's CLI call, tiny-exact's two runs, 16 of
    # star-256's one-trial runs and coupled-1024's chunk of 10 pairs
    "law": _experiments(dict(protocol="quasi", n=2048, p=0.5, trials=50, lists="random",
                             list_seed=1)),
    "tiny": _experiments(dict(protocol="random", n=5, p=0.7, trials=200, max_rounds=100),
                         dict(protocol="quasi", n=4, p=0.6, trials=200, max_rounds=80)),
    "star": _experiments(*[dict(protocol="random", topology="star", n=256, p=1.0, trials=1,
                                start="fixed:1", max_rounds=6000)] * 16),
    "coupled": _coupled,
    # tiny-exact's two oracle calls, which its shape above leaves out
    "oracle": _oracle,
    # small complete-graph runs, whose last vertex's tail is a large share
    "random-n2": _experiments(dict(protocol="random", n=2, p=0.5, trials=1000)),
    "random-n16": _experiments(dict(protocol="random", n=16, p=0.5, trials=1000)),
    "quasi-n64-p0.05": _experiments(dict(protocol="quasi", n=64, p=0.05, trials=100)),
}


def _load(directory: Path, name: str):
    """Import the package in directory under name."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _fix_malloc_thresholds() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its maximum


def compare(old, new, shapes, reps):
    """Per shape: old and new medians (s), median ratio, new's wins, equal outputs."""
    rows = {}
    for name in shapes:
        shape = SHAPES[name]
        shape(old, 0), shape(new, 0)  # warm up both sides' imports and caches
        times, same = {"old": [], "new": []}, True
        for rep in range(reps):
            sides = [("old", old), ("new", new)]
            outputs = {}
            for side, rs in sides if rep % 2 == 0 else sides[::-1]:
                elapsed, outputs[side] = shape(rs, rep)
                times[side].append(elapsed)
            same = same and outputs["old"] == outputs["new"]
        ratios = [b / a for a, b in zip(times["old"], times["new"]) if a > 0]
        wins = sum(b < a for a, b in zip(times["old"], times["new"]))
        rows[name] = (statistics.median(times["old"]), statistics.median(times["new"]),
                      statistics.median(ratios) if ratios else float("nan"), wins, same)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="package directory of the old side")
    parser.add_argument("new", type=Path, help="package directory of the new side")
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--shapes", default="law,tiny,star,coupled",
                        help=f"comma-separated, of: {', '.join(SHAPES)}")
    args = parser.parse_args(argv)
    shapes = args.shapes.split(",")
    unknown = [name for name in shapes if name not in SHAPES]
    if unknown or args.reps < 1:
        parser.error(f"unknown shapes {unknown}" if unknown else "--reps: must be >= 1")
    _fix_malloc_thresholds()
    old, new = _load(args.old.resolve(), "ab_old"), _load(args.new.resolve(), "ab_new")
    print(f"{'shape':<16} {'old ms':>10} {'new ms':>10} {'new/old':>8} {'new wins':>9}  outputs")
    for name, (a, b, ratio, wins, same) in compare(old, new, shapes, args.reps).items():
        print(f"{name:<16} {a * 1e3:>10.3f} {b * 1e3:>10.3f} {ratio:>8.3f} "
              f"{wins:>4}/{args.reps:<4}  {'equal' if same else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
