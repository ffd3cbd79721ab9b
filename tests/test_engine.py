from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorsim import (
    FailureModel,
    ListStrategy,
    Protocol,
    TrialRandomness,
    complete_graph,
    exact_fully_random,
    init_state,
    realize_lists,
    run,
    star_graph,
    step,
    tv_distance,
)
from rumorsim import engine
from rumorsim.engine import run_batch

# the engine-vs-oracle TV tests fail a correct engine with probability below this
TV_FALSE_ALARM = 1e-9


def _tv_limit(dist, trials: int) -> float:
    """TV(empirical, exact) that a correct engine exceeds w.p. < TV_FALSE_ALARM.

    E|emp_t - p_t| <= sqrt(p_t (1 - p_t) / N) bounds the mean; one trial
    moves TV by at most 1/N, so McDiarmid adds sqrt(ln(1/alarm) / (2N)).
    """
    mass = np.append(dist.mass, dist.tail)
    mean = 0.5 * float(np.sqrt(mass * (1.0 - mass)).sum()) / math.sqrt(trials)
    return mean + math.sqrt(math.log(1.0 / TV_FALSE_ALARM) / (2.0 * trials))


def test_init_state():
    s = init_state(5, 3)
    assert s.t == 0
    assert s.informed_count == 1
    assert s.informed[3] and s.newly_informed[3]
    assert (s.cursor == -1).all()
    with pytest.raises(ValueError):
        init_state(4, 4)


def test_failure_model_validation():
    FailureModel(1.0)
    with pytest.raises(ValueError):
        FailureModel(0.0)
    with pytest.raises(ValueError):
        FailureModel(1.2)


def test_step_is_noop_when_everyone_knows():
    lists = realize_lists(complete_graph(1), ListStrategy.CANONICAL)
    s = init_state(1, 0)
    step(s, lists, Protocol.QUASIRANDOM, FailureModel(1.0), TrialRandomness(0, 0))
    assert s.t == 0 and s.informed_count == 1


@pytest.mark.parametrize("protocol", list(Protocol))
def test_monotone_growth_and_doubling_cap(protocol):
    lists = realize_lists(complete_graph(40), ListStrategy.CANONICAL)
    fm = FailureModel(0.7)
    for seed in range(10):
        rng = TrialRandomness(seed, 0)
        s = init_state(40, 0)
        prev = s.informed.copy()
        while s.informed_count < 40 and s.t < 200:
            before = s.informed_count
            step(s, lists, protocol, fm, rng)
            assert (s.informed | prev).sum() == s.informed.sum()  # never shrinks
            assert s.informed_count <= 2 * before
            assert (s.newly_informed & ~s.informed).sum() == 0
            prev = s.informed.copy()
        assert s.informed_count == 40


def test_replay_is_exact():
    lists = realize_lists(complete_graph(128), ListStrategy.RANDOM, seed=4)
    fm = FailureModel(0.6)
    a = run(lists, Protocol.FEEDBACK_RETRY, fm, 5, TrialRandomness(99, 3), 500)
    b = run(lists, Protocol.FEEDBACK_RETRY, fm, 5, TrialRandomness(99, 3), 500)
    assert a.rounds == b.rounds
    assert np.array_equal(a.trajectory, b.trajectory)


def test_three_vertices_quasirandom_two_rounds_all_assignments():
    # the initiator's second transmission always hits its remaining neighbor
    topo = complete_graph(3)
    fm = FailureModel(1.0)
    base = [list(topo.neighbors(v)) for v in range(3)]
    for flips in itertools.product([False, True], repeat=3):
        rows = {v: (r[::-1] if f else r) for v, (r, f) in enumerate(zip(base, flips))}
        lists = realize_lists(topo, ListStrategy.EXPLICIT, explicit_rows=rows)
        for seed in range(20):  # covers both initial choices many times over
            rng = TrialRandomness(seed, 0)
            s = init_state(3, 0)
            step(s, lists, Protocol.QUASIRANDOM, fm, rng)
            assert s.informed_count == 2
            step(s, lists, Protocol.QUASIRANDOM, fm, rng)
            assert s.informed_count == 3


def test_two_vertices_fully_random_geometric():
    lists = realize_lists(complete_graph(2), ListStrategy.CANONICAL)
    p = 0.55
    fm = FailureModel(p)
    rounds, _ = run_batch(
        lists, Protocol.FULLY_RANDOM, fm, [0] * 20_000,
        [TrialRandomness(1, i) for i in range(20_000)], 100,
    )
    dist = exact_fully_random(2, p, 100)
    tv = tv_distance(dist, rounds, np.ones(len(rounds), dtype=bool))
    assert tv < 0.02


@pytest.mark.parametrize("p", [0.3, 0.6, 1.0])
def test_fully_random_n64_matches_oracle(p):
    trials = 10_000
    lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
    rounds, completed = run_batch(
        lists, Protocol.FULLY_RANDOM, FailureModel(p), [0] * trials,
        [TrialRandomness(64, t) for t in range(trials)], 400,
    )
    dist = exact_fully_random(64, p, 120)
    assert dist.tail < 1e-9
    assert tv_distance(dist, rounds, completed) < _tv_limit(dist, trials)


def test_batch_rejects_bad_inputs():
    lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
    rngs = [TrialRandomness(0, 0), TrialRandomness(0, 1)]
    with pytest.raises(ValueError, match="start vertex 4"):
        run_batch(lists, Protocol.QUASIRANDOM, FailureModel(1.0), [0, 4], rngs, 10)
    with pytest.raises(ValueError, match="2 rngs for 3 start vertices"):
        run_batch(lists, Protocol.QUASIRANDOM, FailureModel(1.0), [0, 1, 2], rngs, 10)


def test_quasirandom_cursor_walks_cyclically():
    lists = realize_lists(complete_graph(24), ListStrategy.CANONICAL)
    fm = FailureModel(0.4)  # failures must not stall the cursor
    rng = TrialRandomness(3, 0)
    s = init_state(24, 2)
    prev = None
    for _ in range(12):
        step(s, lists, Protocol.QUASIRANDOM, fm, rng)
        if s.informed_count == 24:
            break
        cur = int(s.cursor[2])
        if prev is not None:
            assert cur == (prev + 1) % 23
        prev = cur
    assert prev is not None


def test_feedback_retry_advances_only_on_double_success():
    lists = realize_lists(complete_graph(6), ListStrategy.CANONICAL)
    fm = FailureModel(0.5)
    rng = TrialRandomness(8, 0)
    s = init_state(6, 1)
    moves = []
    prev = None
    for _ in range(40):
        step(s, lists, Protocol.FEEDBACK_RETRY, fm, rng)
        cur = int(s.cursor[1])
        if prev is not None:
            moves.append((cur - prev) % 5)
        prev = cur
    assert set(moves) <= {0, 1}
    assert 0 in moves and 1 in moves  # p=0.5 surely produced both by now


def test_feedback_distinct_targets_follow_cyclic_order():
    # consecutive attempts may repeat, but deduplicated targets walk the list;
    # the addressable rng lets the whole attempt sequence be reconstructed
    topo = complete_graph(5)
    lists = realize_lists(topo, ListStrategy.RANDOM, seed=2)
    p = 0.35
    fm = FailureModel(p)
    rng = TrialRandomness(4, 0)
    s = init_state(5, 0)
    row = lists.row(0).tolist()
    d = len(row)
    v = np.array([0])

    pos = int(rng.initial_positions(v, np.array([d]))[0])
    attempted = []
    for j in range(60):
        if s.informed_count == 5:
            break
        attempted.append(row[pos])
        o = np.array([j])
        advanced = (rng.coin_uniforms(v, o)[0] < p) and (rng.feedback_uniforms(v, o)[0] < p)
        pos = (pos + int(advanced)) % d
        step(s, lists, Protocol.FEEDBACK_RETRY, fm, rng)
        assert int(s.cursor[0]) == pos  # engine agrees with the reconstruction

    deduped = [t for i, t in enumerate(attempted) if i == 0 or t != attempted[i - 1]]
    assert len(set(deduped[:d])) == len(deduped[:d])
    for a, b in zip(deduped, deduped[1:]):
        assert (row.index(b) - row.index(a)) % d == 1


def test_star_leaf_start_round_one_always_reaches_center():
    lists = realize_lists(star_graph(12), ListStrategy.CANONICAL)
    fm = FailureModel(1.0)
    for seed in range(100):
        s = init_state(12, 7)
        step(s, lists, Protocol.FULLY_RANDOM, fm, TrialRandomness(seed, 0))
        assert s.informed[0]


@pytest.mark.parametrize("strategy", [ListStrategy.CANONICAL, ListStrategy.RANDOM])
def test_lossless_quasirandom_completes_within_n_minus_one(strategy):
    for n in (2, 5, 16):
        lists = realize_lists(complete_graph(n), strategy, seed=3)
        for seed in range(30):
            res = run(lists, Protocol.QUASIRANDOM, FailureModel(1.0), 0,
                      TrialRandomness(seed, 0), 4 * n)
            assert res.completed and res.rounds <= n - 1


def test_truncation_reports_incomplete():
    lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
    res = run(lists, Protocol.QUASIRANDOM, FailureModel(0.5), 0, TrialRandomness(0, 0), 3)
    assert not res.completed
    assert res.rounds == 3
    assert len(res.trajectory) == 4


def test_trajectory_matches_counts():
    lists = realize_lists(complete_graph(32), ListStrategy.CANONICAL)
    res = run(lists, Protocol.QUASIRANDOM, FailureModel(0.8), 0, TrialRandomness(5, 1), 200)
    assert res.trajectory[0] == 1
    assert res.trajectory[-1] == 32
    assert (np.diff(res.trajectory) >= 0).all()


def _every_coin_rounds(lists, protocol, p, start, rng, max_rounds, masks=None):
    """Reference loop: every sender draws its target, its delivery coin and,
    for feedback, its feedback coin, whether or not they can change the state.

    Yields (informed, cursor, attempts) after each round; masks[t], if
    given, restricts who transmits in round t.
    """
    topo = lists.topology
    n = topo.n
    informed = np.zeros(n, dtype=bool)
    informed[start] = True
    cursor = np.full(n, -1, dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    for t in range(max_rounds):
        if informed.all():
            return
        senders = np.flatnonzero(informed if masks is None else informed & masks[t])
        ordinals = attempts[senders]
        degs = np.array([topo.degree(int(v)) for v in senders], dtype=np.int64)
        delivered = rng.coin_uniforms(senders, ordinals) < p
        if protocol is Protocol.FULLY_RANDOM:
            idx = rng.target_indices(senders, ordinals, degs)
            targets = [topo.neighbors(int(v))[i] for v, i in zip(senders, idx)]
        else:
            fresh = cursor[senders] < 0
            cursor[senders[fresh]] = rng.initial_positions(senders[fresh], degs[fresh])
            targets = [lists.row(int(v))[cursor[v]] for v in senders]
            if protocol is Protocol.QUASIRANDOM:
                advance = 1
            else:
                advance = delivered & (rng.feedback_uniforms(senders, ordinals) < p)
            cursor[senders] = (cursor[senders] + advance) % degs
        attempts[senders] += 1
        informed[np.array(targets, dtype=np.int64)[delivered]] = True
        yield informed.copy(), cursor.copy(), attempts.copy()


@st.composite
def coin_cases(draw):
    """A small protocol run whose max_rounds leaves some trials incomplete."""
    topo = draw(st.sampled_from([complete_graph, star_graph]))
    n = draw(st.integers(3 if topo is star_graph else 1, 12))
    strategy = draw(st.sampled_from(
        [ListStrategy.CANONICAL, ListStrategy.REVERSED, ListStrategy.RANDOM]
    ))
    return dict(
        lists=realize_lists(topo(n), strategy, seed=draw(st.integers(0, 99))),
        protocol=draw(st.sampled_from(list(Protocol))),
        p=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
        starts=draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)),
        seed=draw(st.integers(0, 2**40)),
        max_rounds=draw(st.integers(0, 30)),
    )


@settings(max_examples=150, deadline=None)
@given(case=coin_cases(), mask_seed=st.integers(0, 99))
def test_engine_equals_every_coin_reference(case, mask_seed):
    lists, protocol, p = case["lists"], case["protocol"], case["p"]
    n, max_rounds = lists.topology.n, case["max_rounds"]
    rngs = [TrialRandomness(case["seed"], t) for t in range(len(case["starts"]))]
    fm = FailureModel(p)

    rounds, completed = run_batch(lists, protocol, fm, case["starts"], rngs, max_rounds)
    for b, (start, rng) in enumerate(zip(case["starts"], rngs)):
        states = list(_every_coin_rounds(lists, protocol, p, start, rng, max_rounds))
        trajectory = [1] + [int(informed.sum()) for informed, _, _ in states]
        res = run(lists, protocol, fm, start, rng, max_rounds)
        assert (res.rounds, res.completed) == (len(states), trajectory[-1] == n)
        assert res.trajectory.tolist() == trajectory
        assert (int(rounds[b]), bool(completed[b])) == (res.rounds, res.completed)

    masks = np.random.default_rng(mask_seed).random((max_rounds, n)) < 0.6
    start, rng = case["starts"][0], rngs[0]
    state = init_state(n, start)
    for t, (informed, cursor, attempts) in enumerate(
        _every_coin_rounds(lists, protocol, p, start, rng, max_rounds, masks)
    ):
        before = state.informed.copy()
        step(state, lists, protocol, fm, rng, masks[t])
        assert np.array_equal(state.informed, informed)
        assert np.array_equal(state.newly_informed, informed & ~before)
        assert state.informed_count == int(informed.sum())
        assert np.array_equal(state.cursor, cursor)
        assert np.array_equal(state.attempts, attempts)


def _assert_runs_equal_reference(lists, protocol, p, starts, seed, max_rounds):
    """run_batch over all starts, and run per trial, match the every-coin loop."""
    n = lists.topology.n
    rngs = [TrialRandomness(seed, t) for t in range(len(starts))]
    fm = FailureModel(p)
    rounds, completed = run_batch(lists, protocol, fm, starts, rngs, max_rounds)
    results = []
    for b, (start, rng) in enumerate(zip(starts, rngs)):
        states = list(_every_coin_rounds(lists, protocol, p, start, rng, max_rounds))
        trajectory = [1] + [int(informed.sum()) for informed, _, _ in states]
        res = run(lists, protocol, fm, start, rng, max_rounds)
        assert (res.rounds, res.completed) == (len(states), trajectory[-1] == n)
        assert res.trajectory.tolist() == trajectory
        assert (int(rounds[b]), bool(completed[b])) == (res.rounds, res.completed)
        results.append(res)
    return results


@st.composite
def settled_cases(draw):
    """A run that spends most of its rounds with no uninformed vertex next to
    an uninformed one: a star once its center knows, a complete graph with one
    vertex left.  max_rounds is long enough for several blocks of rounds."""
    star = draw(st.booleans())
    n = draw(st.integers(3, 40) if star else st.integers(1, 12))
    strategy = draw(st.sampled_from(
        [ListStrategy.CANONICAL, ListStrategy.REVERSED, ListStrategy.RANDOM]
    ))
    graph = star_graph(n) if star else complete_graph(n)
    # on the star: the center, a leaf, or any vertex
    vertex = st.one_of(st.just(0), st.integers(min(1, n - 1), n - 1), st.integers(0, n - 1))
    return dict(
        lists=realize_lists(graph, strategy, seed=draw(st.integers(0, 99))),
        protocol=draw(st.sampled_from(list(Protocol))),
        p=draw(st.sampled_from([1.0, 0.5, 0.2])),
        starts=draw(st.lists(vertex, min_size=1, max_size=4)),
        seed=draw(st.integers(0, 2**40)),
        max_rounds=draw(st.integers(0, 2000)),
    )


@settings(max_examples=60, deadline=None)
@given(case=settled_cases())
def test_settled_runs_equal_every_coin_reference(case):
    _assert_runs_equal_reference(**case)


def test_trial_completes_inside_a_block_while_another_runs_on():
    lists = realize_lists(star_graph(30), ListStrategy.CANONICAL)
    # both trials start settled at the center; trial 0 finishes 70 rounds
    # before trial 1, which keeps drawing in the same rounds
    with mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        run_batch(lists, Protocol.FULLY_RANDOM, FailureModel(1.0), [0, 0],
                  [TrialRandomness(6, 0), TrialRandomness(6, 1)], 1000)
    sizes = [call.args[-1] for call in spy.call_args_list]
    ends = np.cumsum(sizes)  # no policy, so no round is skipped
    block = int(np.searchsorted(ends, 94))
    assert ends[block] - sizes[block] < 94 < ends[block]  # trial 0 ends inside a block
    assert len(spy.call_args_list[block].args[0]) == 2  # in which both centers send
    res = _assert_runs_equal_reference(lists, Protocol.FULLY_RANDOM, 1.0, [0, 0], 6, 1000)
    assert [(r.rounds, r.completed) for r in res] == [(94, True), (164, True)]


@pytest.mark.parametrize("protocol", list(Protocol))
def test_max_rounds_inside_a_block_reports_exactly_max_rounds(protocol):
    lists = realize_lists(star_graph(40), ListStrategy.RANDOM, seed=1)
    with mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        run_batch(lists, protocol, FailureModel(0.2), [5], [TrialRandomness(3, 0)], 123)
    sizes = [call.args[-1] for call in spy.call_args_list]
    assert sizes[-1] < sizes[-2] * 2 and sum(sizes) == 123  # the cap cut the last block
    (res,) = _assert_runs_equal_reference(lists, protocol, 0.2, [5], 3, 123)
    assert not res.completed and res.rounds == 123 and len(res.trajectory) == 124


@pytest.mark.parametrize("protocol", [Protocol.QUASIRANDOM, Protocol.FEEDBACK_RETRY])
def test_a_single_round_after_blocks_walks_on_from_the_cursor(protocol):
    lists = realize_lists(star_graph(6), ListStrategy.CANONICAL)
    with mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        run_batch(lists, protocol, FailureModel(0.2), [0], [TrialRandomness(2, 0)], 8)
    assert [call.args[-1] for call in spy.call_args_list] == [1, 2, 4, 1]
    (res,) = _assert_runs_equal_reference(lists, protocol, 0.2, [0], 2, 8)
    assert not res.completed


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("p", [1.0, 0.3])
def test_star_center_start_is_settled_at_round_zero(protocol, p):
    lists = realize_lists(star_graph(17), ListStrategy.REVERSED)
    res = _assert_runs_equal_reference(lists, protocol, p, [0, 0, 4], 11, 2000)
    assert all(r.completed for r in res)


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("p", [1.0, 0.2])
def test_complete_two_vertices(protocol, p):
    lists = realize_lists(complete_graph(2), ListStrategy.CANONICAL)
    res = _assert_runs_equal_reference(lists, protocol, p, [0, 1, 1, 0], 5, 40)
    assert all(r.completed for r in res)


@settings(max_examples=40, deadline=None)
@given(case=settled_cases(), cells=st.integers(1, 80))
def test_block_size_does_not_change_results(case, cells):
    lists, protocol, fm = case["lists"], case["protocol"], FailureModel(case["p"])
    starts, max_rounds = case["starts"], case["max_rounds"]
    rngs = [TrialRandomness(case["seed"], t) for t in range(len(starts))]

    def outputs():
        rounds, completed = run_batch(lists, protocol, fm, starts, rngs, max_rounds)
        runs = [run(lists, protocol, fm, s, rng, max_rounds) for s, rng in zip(starts, rngs)]
        return rounds.tolist(), completed.tolist(), [r.trajectory.tolist() for r in runs]

    expected = outputs()
    with mock.patch.object(engine, "_BLOCK_CELLS", cells):  # other block sizes
        assert outputs() == expected
