"""In-memory span tracer that wraps rumorsim's public functions from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.installed()`` replaces
each traced function or method with a timing wrapper wherever its callers
look it up (``harness`` and ``phases`` import ``run``/``step`` by name, the
package root re-exports nearly everything), and restores the originals on
exit.  Spans are kept in flat arrays; self time is a span's duration minus
the durations of its direct children, so the per-layer self times plus the
time outside any span add up to the traced body time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("rng", "topology", "engine", "phases", "oracle", "harness", "cli")

_RNG_DRAWS = ("coin_uniforms", "feedback_uniforms", "initial_positions", "target_indices")
_ORACLE = ("exact_fully_random", "exact_quasirandom", "star_fully_random_expectation", "tv_distance")
_HARNESS = ("summarize", "write_records_csv", "write_json", "run_experiment")
_WRITES = ("write_records_csv", "write_json")


# Counters see the positional arguments the package passes today.  Each
# returns two integers stored with the span: (a, b).


def _count_elements(args, _before):
    return len(args[1]), 0  # args[0] is self; args[1] the vertex array


def _step_before(args):
    state = args[0]
    return state.t, state.informed_count


def _step_after(args, before):
    state = args[0]
    return state.t - before[0], state.informed_count - before[1]


def _file_size(args, _before):
    return os.path.getsize(args[1]), 0


def _targets():
    """(layer, owner, attribute, before, after) for every traced callable."""
    from rumorsim import cli, engine, harness, oracle, phases, topology
    from rumorsim.rng import TrialRandomness

    out = [("rng", TrialRandomness, "__init__", None, None)]
    out += [("rng", TrialRandomness, name, None, _count_elements) for name in _RNG_DRAWS]
    out += [
        ("topology", topology.ListAssignment, "targets_at", None, _count_elements),
        ("topology", topology.Topology, "neighbors_at", None, _count_elements),
        ("topology", topology, "realize_lists", None, None),
        ("engine", engine, "step", _step_before, _step_after),
        ("engine", engine, "run", None, None),
        ("phases", phases, "run_delayed", None, None),
        ("phases", phases, "coupled_run", None, None),
        ("cli", cli, "main", None, None),
    ]
    out += [("oracle", oracle, name, None, None) for name in _ORACLE]
    out += [
        ("harness", harness, name, None, _file_size if name in _WRITES else None)
        for name in _HARNESS
    ]
    return out


class Tracer:
    """Collects spans while installed; ``metrics`` turns them into layer figures."""

    def __init__(self):
        self.kinds: list[tuple[str, str]] = []  # (layer, function name) per kind id
        self.kind = array("i")
        self.parent = array("i")  # span index of the enclosing span, -1 at top level
        self.t0 = array("d")
        self.t1 = array("d")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]

    def _wrap(self, kind_id, fn, before, after):
        kind, parent, t0s, t1s, a_s, b_s = self.kind, self.parent, self.t0, self.t1, self.a, self.b
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            kind.append(kind_id)
            parent.append(stack[-1])
            t0s.append(0.0)
            t1s.append(0.0)
            a_s.append(0)
            b_s.append(0)
            stack.append(idx)
            pre = before(args) if before is not None else None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                t0s[idx] = start
                t1s[idx] = end
                if after is not None:
                    a_s[idx], b_s[idx] = after(args, pre)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced callable where it is looked up; undo on exit."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rumorsim"]
        patches = []
        try:
            for layer, owner, attr, before, after in _targets():
                key = (layer, attr)
                if key not in self.kinds:
                    self.kinds.append(key)
                original = owner.__dict__[attr]
                wrapper = self._wrap(self.kinds.index(key), original, before, after)
                if isinstance(owner, type):
                    homes = [owner]
                else:
                    homes = [m for m in modules if m.__dict__.get(attr) is original]
                for home in homes:
                    setattr(home, attr, wrapper)
                    patches.append((home, attr, original))
            yield self
        finally:
            for home, attr, original in reversed(patches):
                setattr(home, attr, original)

    def metrics(self, body_s: float, trials: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures over every span recorded so far.

        Counts are per trial (per coupled pair on coupled workloads), so they
        do not depend on how many trials fit in the run; times are totals
        over the traced body.
        """
        kind = np.frombuffer(self.kind, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        a = np.frombuffer(self.a, dtype=np.int64)
        b = np.frombuffer(self.b, dtype=np.int64)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))

        kind_layer = np.array([LAYERS.index(layer) for layer, _ in self.kinds], dtype=np.intc)
        layer = kind_layer[kind]
        parent_layer = np.where(nested, layer[np.where(nested, parent, 0)], -1)
        layer_self = np.bincount(layer, weights=self_t, minlength=len(LAYERS))

        def of(*names):
            ids = [i for i, (_, fn) in enumerate(self.kinds) if fn in names]
            return np.isin(kind, ids)

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        draws = of(*_RNG_DRAWS)
        lookups = of("targets_at", "neighbors_at") & (parent_layer != LAYERS.index("topology"))
        steps = of("step")
        coins = of("coin_uniforms")
        writes = of(*_WRITES)
        oracle_calls = (layer == LAYERS.index("oracle")) & (parent_layer != LAYERS.index("oracle"))
        rounds = int(a[steps].sum())
        transmissions = int(a[coins].sum())
        n_draws = int(a[draws].sum())

        def self_s(name):
            return float(layer_self[LAYERS.index(name)]), "s"

        return {
            "rng.calls": (ratio(draws.sum(), trials), "count/trial"),
            "rng.draws": (ratio(n_draws, trials), "count/trial"),
            "rng.self_s": self_s("rng"),
            "rng.ns_per_draw": (ratio(self_t[draws].sum() * 1e9, n_draws), "ns"),
            "rng.trial_init_s": (float(dur[of("__init__")].sum()), "s"),
            "topology.lookups": (ratio(a[lookups].sum(), trials), "count/trial"),
            "topology.self_s": self_s("topology"),
            "topology.realize_s": (float(dur[of("realize_lists")].sum()), "s"),
            "engine.rounds": (ratio(rounds, trials), "count/trial"),
            "engine.transmissions": (ratio(transmissions, trials), "count/trial"),
            "engine.useful_ratio": (ratio(b[steps].sum(), transmissions), "ratio"),
            "engine.self_s": self_s("engine"),
            "engine.us_per_round": (ratio(layer_self[LAYERS.index("engine")] * 1e6, rounds), "us"),
            "phases.rounds": (
                ratio(a[steps & (parent_layer == LAYERS.index("phases"))].sum(), trials),
                "count/trial",
            ),
            "phases.self_s": self_s("phases"),
            "oracle.calls": (ratio(oracle_calls.sum(), trials), "count/trial"),
            "oracle.self_s": self_s("oracle"),
            "harness.self_s": self_s("harness"),
            "harness.write_s": (float(dur[writes].sum()), "s"),
            "harness.bytes_written": (ratio(a[writes].sum(), trials), "B/trial"),
            "cli.self_s": self_s("cli"),
            "unattributed_s": (body_s - float(dur[~nested].sum()), "s"),
            "trace.body_s": (body_s, "s"),
        }
