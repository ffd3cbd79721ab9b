"""Exact small-instance distributions against large simulation batches.

The oracles enumerate the true broadcast-time law; the simulator should sit
within sampling noise of it.  The star shows the coupon-collector gap between
the two protocols.
"""

from __future__ import annotations

import numpy as np

from rumorsim import (
    ExperimentConfig,
    ListStrategy,
    complete_graph,
    exact_fully_random,
    exact_quasirandom,
    realize_lists,
    run_experiment,
    star_fully_random_expectation,
    tv_distance,
)

trials = 20_000


def simulate(protocol, n, p, seed, topology="complete", start=0, max_rounds=200, trials=trials):
    """Rounds and completion of each trial; lists are canonical, as in the oracles."""
    config = ExperimentConfig(
        protocol=protocol, topology=topology, n=n, p=p, trials=trials, seed=seed,
        start=f"fixed:{start}", max_rounds=max_rounds,
    )
    records = run_experiment(config).records
    rounds = np.array([r.rounds for r in records], dtype=np.int64)
    completed = np.array([r.completed for r in records], dtype=bool)
    return rounds, completed


# fully random push on K_5 with lossy links
dist = exact_fully_random(5, 0.7, 60)
rounds, completed = simulate("random", 5, 0.7, seed=1)
print(f"K_5, p=0.7, fully random: exact mean {dist.mean():.4f}, "
      f"simulated {rounds.mean():.4f}, TV {tv_distance(dist, rounds, completed):.4f}")

# list protocol on K_4; the exact law comes from full state enumeration
lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL, 0)
dist = exact_quasirandom(4, lists, 0.6, horizon=8)
rounds, completed = simulate("quasi", 4, 0.6, seed=2)
print(f"K_4, p=0.6, quasirandom:  exact mass {dist.mass.sum():.4f} in 8 rounds, "
      f"TV {tv_distance(dist, rounds, completed):.4f}")

# star from a leaf: cyclic lists finish in n rounds, uniform choices collect coupons
n = 256
q_rounds, _ = simulate("quasi", n, 1.0, seed=3, topology="star", start=1, max_rounds=300)
print(f"\nstar({n}) leaf start, p=1")
print(f"quasirandom:  max T over {trials} runs = {q_rounds.max()} (never above n = {n})")
expected = star_fully_random_expectation(n)
r_rounds, _ = simulate("random", n, 1.0, seed=4, topology="star", start=1, max_rounds=6000,
                       trials=300)
print(f"fully random: mean T over 300 runs = {r_rounds.mean():.1f}, "
      f"coupon-collector expectation {expected:.1f}")
