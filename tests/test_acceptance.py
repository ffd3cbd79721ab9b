"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line with the
reference and the limit it was held to (run with -s to see them all).

The paper's guarantees are asymptotic: (1 +/- o(1)) times the law, with a
success probability that is near zero at these sizes.  Criteria 01, 03 and
08 are therefore checked against exact references that hold at the test's
own n, not against asymptotic windows that even a correct implementation
misses there:

* 01: random push runs in log2 n + ln n + O(1) rounds (Pittel, "On spreading
  a rumor", 1987), so its arm is held to the exact mean at n=4096;
* 03: the paper claims the quasirandom protocol is at least as robust as
  fully random push, so its tail above (1+eps) times the law is held to the
  exact tail of random push at n=4096;
* 08: on the star the list protocol wastes one center slot on the start
  leaf unless its sweep begins right after it, so every trial is pinned to
  n-1 or n through the center's start position.

The n=4096 references come from the count-chain recursion of the fully
random oracle, which shares no code with the engine.  It is exact at any n
but takes minutes there, so its values are frozen below rather than
recomputed during the run.
"""

from __future__ import annotations

import math

import numpy as np

from rumorsim import (
    ExperimentConfig,
    FailureModel,
    ListStrategy,
    Phase,
    PhaseKind,
    Protocol,
    TrialRandomness,
    baseline_bound,
    azuma_bound,
    busy_growth_sample,
    chernoff_lower,
    chernoff_upper,
    complete_graph,
    coupled_run,
    exact_fully_random,
    exact_quasirandom,
    lower_bound,
    realize_lists,
    run_experiment,
    star_fully_random_expectation,
    star_graph,
    tv_distance,
    upper_bound,
)
from rumorsim.engine import run_batch

STRATEGIES = (ListStrategy.CANONICAL, ListStrategy.REVERSED, ListStrategy.RANDOM)

# Exact values for fully random push on the complete graph, n=4096: the
# oracle's count chain (_fully_random_round_dist, iterated as
# exact_fully_random does, whose n <= 64 guard only limits run time) run to
# horizon 400, with probability mass conserved to 6e-13.  About 90 s per p
# on a 2-core host, too slow to recompute here.
# E[T] at p=1, +1.18 rounds (5.8%) above log2 n + ln n:
RANDOM_MEAN_4096_P1 = 21.49525
# P(T > (1+0.2) * law) for each p:
RANDOM_TAIL_4096_EPS02 = {0.3: 0.07858, 0.5: 0.06593, 1.0: 0.02748}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _broadcast_times(protocol, n, p, trials, seed, topology="complete", start=0, max_rounds=None):
    """Rounds and completion of trials 0..trials-1 from vertex start, run by the
    harness on canonical lists (the default cap when max_rounds is None)."""
    result = run_experiment(ExperimentConfig(
        protocol=protocol.value, topology=topology, n=n, p=p, trials=trials, seed=seed,
        start=f"fixed:{start}", max_rounds=max_rounds,
    ))
    rounds = np.array([r.rounds for r in result.records], dtype=np.int64)
    return rounds, np.array([r.completed for r in result.records])


def test_criterion_01_lossless_baseline_law():
    # the quasi arm is held to the law window; random push carries Pittel's
    # additive O(1) term, so its arm is held to the exact mean instead
    lo, hi = 0.95 * baseline_bound(4096), 1.05 * baseline_bound(4096)
    times = {}
    for proto in (Protocol.FULLY_RANDOM, Protocol.QUASIRANDOM):
        rounds, completed = _broadcast_times(proto, 4096, 1.0, 500, seed=101)
        assert completed.all()
        times[proto] = rounds
    quasi_mean = float(times[Protocol.QUASIRANDOM].mean())
    rand = times[Protocol.FULLY_RANDOM]
    rand_mean = float(rand.mean())
    rand_gap = abs(rand_mean - RANDOM_MEAN_4096_P1)
    rand_limit = 4 * float(rand.std(ddof=1)) / math.sqrt(len(rand))
    quasi_ok = lo <= quasi_mean <= hi
    ok = quasi_ok and rand_gap <= rand_limit
    _report(
        1, ok,
        f"quasi mean {quasi_mean:.3f} (law window [{lo:.3f}, {hi:.3f}]); "
        f"random mean {rand_mean:.3f} vs exact {RANDOM_MEAN_4096_P1} "
        f"(gap {rand_gap:.3f}, limit 4 se = {rand_limit:.3f})",
    )
    assert quasi_ok
    assert rand_gap <= rand_limit


def test_criterion_02_slowdown_ratio_at_half():
    lossless, c1 = _broadcast_times(Protocol.QUASIRANDOM, 4096, 1.0, 1000, seed=202)
    lossy, c2 = _broadcast_times(Protocol.QUASIRANDOM, 4096, 0.5, 1000, seed=203)
    assert c1.all() and c2.all()
    ratio = float(np.median(lossy) / np.median(lossless))
    ok = 1.70 <= ratio <= 1.95
    _report(2, ok, f"median ratio p=0.5 vs p=1: {ratio:.4f} (target [1.70, 1.95])")
    assert 1.70 <= ratio <= 1.95


def test_criterion_03_upper_bound_conformance():
    # at least as robust as fully random push: the quasi fraction above the
    # bound may exceed random push's exact one by at most 3 standard errors
    trials = 1000
    over = []
    details = []
    for p in (0.3, 0.5, 1.0):
        rounds, completed = _broadcast_times(Protocol.QUASIRANDOM, 4096, p, trials, seed=303)
        hi = upper_bound(4096, p, 0.2)
        frac = float(np.mean(~completed | (rounds > hi)))
        ref = RANDOM_TAIL_4096_EPS02[p]
        limit = ref + 3 * math.sqrt(ref * (1 - ref) / trials)
        over.append(frac > limit)
        details.append(f"p={p}: {frac:.3f} (random exact {ref:.5f}, limit {limit:.3f})")
    ok = not any(over)
    _report(3, ok, "frac above (1+eps) bound " + ", ".join(details))
    assert not any(over)


def test_criterion_04_lower_bound_conformance():
    worst = 0.0
    details = []
    for p in (0.3, 0.5, 1.0):
        rounds, completed = _broadcast_times(Protocol.FULLY_RANDOM, 4096, p, 1000, seed=404)
        lo = lower_bound(4096, p, 0.2)
        frac = float(np.mean(completed & (rounds < lo)))
        worst = max(worst, frac)
        details.append(f"p={p}: {frac:.3f}")
    ok = worst <= 0.05
    _report(4, ok, "frac below (1-eps) bound " + ", ".join(details) + " (limit 0.05)")
    assert worst <= 0.05


def test_criterion_05_fully_random_matches_oracle():
    rounds, completed = _broadcast_times(
        Protocol.FULLY_RANDOM, 5, 0.7, 100_000, seed=505, max_rounds=100
    )
    dist = exact_fully_random(5, 0.7, 60)
    tv = tv_distance(dist, rounds, completed)
    ok = tv <= 0.02
    _report(5, ok, f"TV(empirical, exact) = {tv:.5f} over 1e5 trials (limit 0.02)")
    assert tv <= 0.02


def test_criterion_06_quasirandom_matches_oracle():
    lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL, 0)
    rounds, completed = _broadcast_times(
        Protocol.QUASIRANDOM, 4, 0.6, 100_000, seed=606, max_rounds=80
    )
    dist = exact_quasirandom(4, lists, 0.6, horizon=8, start_vertex=0)
    tv = tv_distance(dist, rounds, completed)
    emp_tail = float(np.mean(~completed | (rounds > 8)))
    tail_gap = abs(emp_tail - dist.tail)
    ok = tv <= 0.02 and tail_gap <= 0.01
    _report(
        6, ok,
        f"TV = {tv:.5f} (limit 0.02), tail {emp_tail:.5f} vs exact {dist.tail:.5f} "
        f"(gap limit 0.01)",
    )
    assert tv <= 0.02
    assert tail_gap <= 0.01


def test_criterion_07_lossless_coverage_bound():
    violations = 0
    runs = 0
    for n in range(2, 65):
        topo = complete_graph(n)
        for strategy in STRATEGIES:
            # random lists differ per seed; the other strategies share one list
            if strategy is ListStrategy.RANDOM:
                batches = [(realize_lists(topo, strategy, seed), [seed]) for seed in range(100)]
            else:
                batches = [(realize_lists(topo, strategy, 0), range(100))]
            for lists, seeds in batches:
                rounds, completed, _ = run_batch(
                    lists, Protocol.QUASIRANDOM, FailureModel(1.0), [0] * len(seeds),
                    [TrialRandomness(seed, 0) for seed in seeds], max_rounds=n + 8,
                )
                runs += len(seeds)
                violations += int((~completed | (rounds > n - 1)).sum())
    ok = violations == 0
    _report(7, ok, f"{violations} of {runs} lossless runs exceeded n-1 rounds")
    assert violations == 0


def test_criterion_08_star_contrast():
    n, start = 256, 1
    lists = realize_lists(star_graph(n), ListStrategy.CANONICAL, 0)
    quasi_rounds, quasi_completed = _broadcast_times(
        Protocol.QUASIRANDOM, n, 1.0, 500, seed=808, topology="star", start=start, max_rounds=300
    )
    assert quasi_completed.all()
    # The start leaf informs the center in round 1; the center then walks its
    # n-1 slots and wastes one on the start leaf unless it begins right after it.
    center_row = lists.row(0)
    lossless_slot = (int(np.flatnonzero(center_row == start)[0]) + 1) % len(center_row)
    center_starts = np.array([
        TrialRandomness(808, t).initial_positions(np.array([0]), np.array([len(center_row)]))[0]
        for t in range(len(quasi_rounds))
    ])
    predicted = np.where(center_starts == lossless_slot, n - 1, n)
    quasi_pinned = int((quasi_rounds == predicted).sum())
    quasi_max = int(quasi_rounds.max())

    rand_rounds, rand_completed = _broadcast_times(
        Protocol.FULLY_RANDOM, n, 1.0, 500, seed=809, topology="star", start=1, max_rounds=6000
    )
    assert rand_completed.all()
    expected = star_fully_random_expectation(256)
    rand_mean = float(rand_rounds.mean())
    rand_ok = abs(rand_mean - expected) <= 0.10 * expected

    quasi_ok = quasi_pinned == len(quasi_rounds) and quasi_max <= n
    ok = quasi_ok and rand_ok
    _report(
        8, ok,
        f"quasi T pinned by the center's start in {quasi_pinned}/{len(quasi_rounds)} "
        f"trials ({int((predicted == n - 1).sum())} at n-1 = {n - 1}, rest at n = {n}), "
        f"max T = {quasi_max} (limit n = {n}); "
        f"random mean {rand_mean:.1f} vs coupon-collector {expected:.1f} "
        f"({'within' if rand_ok else 'outside'} 10%)",
    )
    assert rand_ok
    assert np.array_equal(quasi_rounds, predicted)
    assert quasi_max <= n


def test_criterion_09_delayed_coupling_domination():
    schedules = (
        [Phase(PhaseKind.LAZY, 2), Phase(PhaseKind.BUSY, 4),
         Phase(PhaseKind.LAZY, 3), Phase(PhaseKind.BUSY, 400)],
        [Phase(PhaseKind.BUSY, 3), Phase(PhaseKind.LAZY, 5), Phase(PhaseKind.BUSY, 2),
         Phase(PhaseKind.LAZY, 1), Phase(PhaseKind.BUSY, 400)],
    )
    dominated = 0
    total = 0
    for n in (64, 1024):
        lists = realize_lists(complete_graph(n), ListStrategy.CANONICAL, 0)
        for p in (0.5, 1.0):
            failure = FailureModel(p)
            for trial in range(250):
                out = coupled_run(
                    lists, failure, 0, schedules[trial % 2],
                    TrialRandomness(900 + n, trial),
                )
                total += 1
                dominated += out.dominated
    ok = dominated == total
    _report(9, ok, f"{dominated} of {total} coupled runs dominated at every round")
    assert dominated == total


def test_criterion_10_busy_phase_growth():
    lists = realize_lists(complete_graph(100_000), ListStrategy.CANONICAL, 0)
    k = 6
    hits = 0
    total = 0
    for p in (0.5, 1.0):
        failure = FailureModel(p)
        collected = 0
        seed = 0
        while collected < 100:
            sample = busy_growth_sample(
                lists, failure, TrialRandomness(1000 + int(p * 10), seed),
                k=k, min_newly=200, max_informed=1000,
            )
            seed += 1
            if sample is None:
                continue
            collected += 1
            total += 1
            hits += sample.satisfies(p, k)
    freq = hits / total
    ok = freq >= 0.95
    _report(10, ok, f"growth >= p(1+p)^(k-2)|N_t| in {hits}/{total} windows ({freq:.3f})")
    assert freq >= 0.95


def test_criterion_11_concentration_bounds_hold():
    gen = np.random.default_rng(1111)
    samples = 100_000
    chernoff_checked = chernoff_bad = 0
    for m in (50, 500, 5000):
        for q in (0.2, 0.5, 0.8):
            x = gen.binomial(m, q, size=samples)
            mean = m * q
            for delta in (0.2, 0.5, 1.0):
                pairs = (
                    (chernoff_lower(mean, delta), float((x <= (1 - delta) * mean).mean())),
                    (chernoff_upper(mean, delta), float((x >= (1 + delta) * mean).mean())),
                )
                for bound, freq in pairs:
                    chernoff_checked += 1
                    se = math.sqrt(bound * (1 - bound) / samples)
                    if freq > bound + 3 * se + 1e-12:
                        chernoff_bad += 1

    # martingale side: distinct targets of m uniform draws, unit increments
    azuma_checked = azuma_bad = 0
    n_targets = 100
    for m in (20, 50):
        draws = np.sort(gen.integers(0, n_targets, size=(20_000, m)), axis=1)
        distinct = 1 + (np.diff(draws, axis=1) != 0).sum(axis=1)
        expected = n_targets * (1 - (1 - 1 / n_targets) ** m)
        for t in (2.0, 4.0, 6.0):
            bound = min(azuma_bound(t, [1.0] * m), 1.0)
            freq = float((np.abs(distinct - expected) >= t).mean())
            azuma_checked += 1
            se = math.sqrt(bound * (1 - bound) / len(distinct))
            if freq > bound + 3 * se + 1e-12:
                azuma_bad += 1

    ok = chernoff_bad == 0 and azuma_bad == 0
    _report(
        11, ok,
        f"chernoff violations {chernoff_bad}/{chernoff_checked}, "
        f"azuma violations {azuma_bad}/{azuma_checked}",
    )
    assert chernoff_bad == 0
    assert azuma_bad == 0


def test_criterion_12_byte_identical_reruns(tmp_path):
    sched = tmp_path / "sched.txt"
    sched.write_text("lazy,2\nbusy,80\n")
    configs = [
        dict(protocol="feedback", topology="complete", n=48, p=0.6, trials=40, seed=12),
        dict(protocol="delayed", topology="star", n=17, p=0.8, trials=25, seed=13,
             schedule_path=str(sched), max_rounds=400),
    ]
    mismatches = 0
    for i, kw in enumerate(configs):
        blobs = []
        for rerun in range(2):
            out = tmp_path / f"r{i}_{rerun}.csv"
            summ = tmp_path / f"s{i}_{rerun}.json"
            run_experiment(ExperimentConfig(**kw, out_path=str(out), summary_path=str(summ)))
            blobs.append(out.read_bytes() + summ.read_bytes())
        mismatches += blobs[0] != blobs[1]
    ok = mismatches == 0
    _report(12, ok, f"{mismatches} of {len(configs)} configs differed across re-runs")
    assert mismatches == 0
