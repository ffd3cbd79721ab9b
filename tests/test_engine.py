from __future__ import annotations

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorsim import (
    FailureModel,
    GraphKind,
    ListAssignment,
    ListStrategy,
    Phase,
    Protocol,
    TrialRandomness,
    complete_graph,
    coupled_run,
    exact_fully_random,
    realize_lists,
    run,
    star_graph,
    tv_distance,
)
from rumorsim import engine
from rumorsim import rng as rng_module
from rumorsim.engine import init_state, run_batch, step

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


class _Masks:
    """A sender policy for stepping by hand: the rows of masks[t] may send in
    round t, every row without masks.  Its boundaries fall every period
    rounds, so a step runs one round, or, once settled, a block of up to
    period rounds; masks must then be equal within each period.  Given the
    batch's trial count, it also serves run_batch, capping trial b at
    limits[b] (no trial without limits)."""

    def __init__(self, masks=None, trials=1, period=1, limits=None):
        self.masks = masks
        self.trials = trials
        self.period = period
        self.limits = limits

    def caps(self, max_rounds):
        if self.limits is None:
            return [max_rounds] * self.trials
        return [min(limit, max_rounds) for limit in self.limits]

    def senders(self, t, at, running):
        if self.masks is None:
            return np.ones(len(at), dtype=bool), t + self.period
        return np.tile(self.masks[t], len(running)), t + self.period


def test_init_state():
    lists = realize_lists(complete_graph(5), ListStrategy.CANONICAL)
    rng = TrialRandomness(0, 0)
    s = init_state(lists, Protocol.QUASIRANDOM, FailureModel(1.0), [3], [rng])
    assert s.t == 0
    assert s.informed_count == 1
    assert s.informed[3] and s.at.tolist() == [-1, -1, -1, 0, -1]
    # every first list position is drawn up front, whether or not its vertex sends
    assert s.cursor.tolist() == rng.initial_positions(np.arange(5), np.full(5, 4)).tolist()
    assert s.attempts is None  # no policy: a row's ordinal is t - at
    counted = init_state(lists, Protocol.QUASIRANDOM, FailureModel(1.0), [3], [rng], _Masks())
    assert (counted.attempts == 0).all()
    with pytest.raises(ValueError):
        init_state(realize_lists(complete_graph(4), ListStrategy.CANONICAL),
                   Protocol.QUASIRANDOM, FailureModel(1.0), [4], [rng])


@pytest.mark.parametrize("masked", [False, True], ids=["plain", "policy"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=[p.value for p in Protocol])
def test_a_fresh_state_holds_only_the_rows_its_run_reads(protocol, masked):
    # a cursor on lists only, attempts under a policy only, and may_send from
    # the policy's round-0 boundary on
    lists = realize_lists(complete_graph(6), ListStrategy.RANDOM, seed=2)
    rngs = [TrialRandomness(1, t) for t in range(2)]
    policy = _Masks(trials=2) if masked else None
    s = init_state(lists, protocol, FailureModel(0.5), [0, 3], rngs, policy, 100)

    def per_row():
        return {
            name: value.itemsize for name, value in vars(s).items()
            if isinstance(value, np.ndarray) and len(value) == 12
        }

    want = {"informed": 1, "at": 4, "vertex": 4}  # 9 B a row, 13 with a cursor
    if protocol is not Protocol.FULLY_RANDOM:
        want["cursor"] = 4
    if masked:
        want["attempts"] = 4
    assert per_row() == want and s.may_send is None and s.keys._first == {}
    step(s, 100)
    assert ("may_send" in per_row()) == masked


def test_init_state_keeps_no_first_stage_of_the_initial_positions():
    # every row draws its first position once, so that stage is not cached
    lists = realize_lists(complete_graph(7), ListStrategy.RANDOM, seed=3)
    rngs = [TrialRandomness(4, t) for t in range(3)]
    s = init_state(lists, Protocol.QUASIRANDOM, FailureModel(1.0), [0, 5, 2], rngs)
    assert rng_module.PURPOSE_INITIAL not in s.keys._first
    expected = [rng.initial_positions(np.arange(7), np.full(7, 6)) for rng in rngs]
    assert np.array_equal(s.cursor, np.concatenate(expected))


def test_failure_model_validation():
    FailureModel(1.0)
    with pytest.raises(ValueError, match=r"got p=0\b"):
        FailureModel(0)
    with pytest.raises(ValueError):
        FailureModel(0.0)
    with pytest.raises(ValueError):
        FailureModel(1.2)
    with pytest.raises(ValueError, match=r"got p=True$"):  # a bool is no probability
        FailureModel(True)


def test_step_is_noop_when_everyone_knows():
    # a finished trial leaves the batch before the next step, so none runs
    lists = realize_lists(complete_graph(1), ListStrategy.CANONICAL)
    with mock.patch.object(engine, "step", wraps=engine.step) as spy:
        rounds, completed, _ = run_batch(
            lists, Protocol.QUASIRANDOM, FailureModel(1.0), [0], [TrialRandomness(0, 0)], 10
        )
    assert spy.call_count == 0
    assert (rounds.tolist(), completed.tolist()) == ([0], [True])


@pytest.mark.parametrize("protocol", list(Protocol))
def test_monotone_growth_and_doubling_cap(protocol):
    lists = realize_lists(complete_graph(40), ListStrategy.CANONICAL)
    fm = FailureModel(0.7)
    for seed in range(10):
        rng = TrialRandomness(seed, 0)
        s = init_state(lists, protocol, fm, [0], [rng])
        prev = s.informed.copy()
        while s.informed_count < 40 and s.t < 200:
            before = s.informed_count
            step(s, 200)
            assert (s.informed | prev).sum() == s.informed.sum()  # never shrinks
            assert s.informed_count <= 2 * before
            assert np.array_equal(s.at >= 0, s.informed) and s.at.max() <= s.t
            prev = s.informed.copy()
        assert s.informed_count == 40


def test_replay_is_exact():
    lists = realize_lists(complete_graph(128), ListStrategy.RANDOM, seed=4)
    fm = FailureModel(0.6)
    a = run(lists, Protocol.FEEDBACK_RETRY, fm, 5, TrialRandomness(99, 3), 500)
    b = run(lists, Protocol.FEEDBACK_RETRY, fm, 5, TrialRandomness(99, 3), 500)
    assert a.rounds == b.rounds
    assert np.array_equal(a.informing, b.informing)


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
            s = init_state(lists, Protocol.QUASIRANDOM, fm, [0], [rng])
            step(s, 2)
            assert s.informed_count == 2
            step(s, 2)
            assert s.informed_count == 3 and s.t == 2


def test_two_vertices_fully_random_geometric():
    lists = realize_lists(complete_graph(2), ListStrategy.CANONICAL)
    p = 0.55
    fm = FailureModel(p)
    rounds, _, _ = run_batch(
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
    rounds, completed, _ = run_batch(
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


@pytest.mark.parametrize(
    "starts", [[0, True], [0, 1.0], (np.int64(0), np.float32(1)), np.array([0.0, 1.0])]
)
def test_each_start_element_that_is_not_an_integer_raises(starts):
    # a list of ints and a bool, or a float, casts to int64 and would run the
    # odd one out from vertex 1
    lists = realize_lists(complete_graph(50), ListStrategy.CANONICAL)
    rngs = [TrialRandomness(0, 0), TrialRandomness(0, 1)]
    with pytest.raises(ValueError, match="start vertex: must be an integer"):
        run_batch(lists, Protocol.QUASIRANDOM, FailureModel(1.0), starts, rngs, 10)


def test_rows_of_another_n_raise():
    lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
    rows = rng_module.RowRandomness(rng_module._purpose_keys([TrialRandomness(0, 0)]), 5)
    with pytest.raises(ValueError, match="rngs: rows of n=5 for lists of n=4"):
        run_batch(lists, Protocol.QUASIRANDOM, FailureModel(1.0), [0], rows, 10)


def test_negative_max_rounds_raises():
    lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
    fm, rng = FailureModel(1.0), TrialRandomness(0, 0)
    with pytest.raises(ValueError, match="max_rounds"):
        run(lists, Protocol.QUASIRANDOM, fm, 0, rng, -5)
    with pytest.raises(ValueError, match="max_rounds"):
        run_batch(lists, Protocol.QUASIRANDOM, fm, [0], [rng], -1)


@pytest.mark.parametrize("max_rounds", [100.0, 3.7, np.float64(3.0), True, "10", None])
@pytest.mark.parametrize("graph, protocol", [
    (star_graph(256), Protocol.FULLY_RANDOM), (complete_graph(50), Protocol.QUASIRANDOM),
])
def test_a_max_rounds_that_is_not_an_integer_raises(graph, protocol, max_rounds):
    # a list walk would truncate a float, and a settled block of random push crash on it
    lists = realize_lists(graph, ListStrategy.CANONICAL)
    fm, rng = FailureModel(1.0), TrialRandomness(3, 0)
    with pytest.raises(ValueError, match="max_rounds: must be an integer"):
        run(lists, protocol, fm, 1, rng, max_rounds)
    with pytest.raises(ValueError, match="max_rounds: must be an integer"):
        run_batch(lists, protocol, fm, [1], [rng], max_rounds)


@pytest.mark.parametrize("start", [2.5, 2.0, True, np.float32(1)])
def test_a_start_vertex_that_is_not_an_integer_raises(start):
    # a cast to int64 would run 2.5 from vertex 2, and True from vertex 1
    lists = realize_lists(complete_graph(5), ListStrategy.CANONICAL)
    fm, rng = FailureModel(1.0), TrialRandomness(0, 0)
    with pytest.raises(ValueError, match="start vertex: must be an integer"):
        run(lists, Protocol.QUASIRANDOM, fm, start, rng, 10)
    with pytest.raises(ValueError, match="start vertex: must be an integer"):
        init_state(lists, Protocol.QUASIRANDOM, fm, [start], [rng])


@pytest.mark.parametrize("protocol", list(Protocol))
def test_numpy_integers_run_as_python_ints(protocol):
    lists = realize_lists(complete_graph(9), ListStrategy.RANDOM, seed=2)
    fm, rngs = FailureModel(0.7), [TrialRandomness(5, t) for t in range(3)]
    want = run_batch(lists, protocol, fm, [0, 4, 8], rngs, 30)
    for starts, max_rounds in [
        (np.array([0, 4, 8], dtype=np.uint8), np.int64(30)),
        ([np.int16(0), np.int32(4), 8], np.uint16(30)),
    ]:
        got = run_batch(lists, protocol, fm, starts, rngs, max_rounds)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    one = run(lists, protocol, fm, np.int64(4), rngs[1], np.int32(30))
    assert (one.rounds, one.completed) == (want[0][1], want[1][1])
    assert np.array_equal(one.informing, want[2][1])


def test_an_empty_batch_runs():
    lists = realize_lists(complete_graph(5), ListStrategy.CANONICAL)
    rounds, completed, informing = run_batch(
        lists, Protocol.QUASIRANDOM, FailureModel(1.0), [], [], 10
    )
    assert (len(rounds), len(completed), informing.shape) == (0, 0, (0, 5))


@pytest.mark.parametrize("protocol", list(Protocol))
def test_a_protocol_given_as_its_value_runs_as_the_member(protocol):
    lists = realize_lists(complete_graph(32), ListStrategy.RANDOM, seed=5)
    fm = FailureModel(0.6)
    by_value = run(lists, protocol.value, fm, 3, TrialRandomness(11, 0), 500)
    by_member = run(lists, protocol, fm, 3, TrialRandomness(11, 0), 500)
    assert (by_value.rounds, by_value.completed) == (by_member.rounds, by_member.completed)
    assert np.array_equal(by_value.informing, by_member.informing)
    rngs = [TrialRandomness(11, t) for t in range(4)]
    for a, b in zip(run_batch(lists, protocol.value, fm, [0, 1, 2, 3], rngs, 500),
                    run_batch(lists, protocol, fm, [0, 1, 2, 3], rngs, 500)):
        assert np.array_equal(a, b)
    for other in set(Protocol) - {protocol}:  # so a value run as another protocol fails
        res = run(lists, other, fm, 3, TrialRandomness(11, 0), 500)
        assert not np.array_equal(by_value.informing, res.informing)


def test_an_unknown_protocol_raises():
    lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
    with pytest.raises(ValueError, match="bogus"):
        run(lists, "bogus", FailureModel(1.0), 0, TrialRandomness(0, 0), 10)
    with pytest.raises(ValueError, match="bogus"):
        run_batch(lists, "bogus", FailureModel(1.0), [0], [TrialRandomness(0, 0)], 10)


def test_quasirandom_cursor_walks_cyclically():
    lists = realize_lists(complete_graph(24), ListStrategy.CANONICAL)
    fm = FailureModel(0.4)  # failures must not stall the cursor
    rng = TrialRandomness(3, 0)
    s = init_state(lists, Protocol.QUASIRANDOM, fm, [2], [rng])
    prev = int(s.cursor[2])  # drawn up front; the next slot is (first + t - at) % 23
    for _ in range(12):
        step(s, 12)
        if s.informed_count == 24:
            break
        cur = int(s.cursor[2] + s.t - s.at[2]) % 23
        assert cur == (prev + 1) % 23
        prev = cur
    assert s.t == 12


def test_feedback_retry_advances_only_on_double_success():
    lists = realize_lists(complete_graph(6), ListStrategy.CANONICAL)
    fm = FailureModel(0.5)
    rng = TrialRandomness(8, 0)
    policy = _Masks()  # one round a step, also once the trial is settled
    s = init_state(lists, Protocol.FEEDBACK_RETRY, fm, [1], [rng], policy)
    moves = []
    prev = int(s.cursor[1])
    for _ in range(40):
        if s.informed_count == 6:
            break
        step(s, 40)
        cur = int(s.cursor[1])
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
    policy = _Masks()  # one round a step, also once the trial is settled
    s = init_state(lists, Protocol.FEEDBACK_RETRY, fm, [0], [rng], policy)
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
        step(s, 60)
        assert int(s.cursor[0]) == pos  # engine agrees with the reconstruction

    deduped = [t for i, t in enumerate(attempted) if i == 0 or t != attempted[i - 1]]
    assert len(set(deduped[:d])) == len(deduped[:d])
    for a, b in zip(deduped, deduped[1:]):
        assert (row.index(b) - row.index(a)) % d == 1


def test_star_leaf_start_round_one_always_reaches_center():
    lists = realize_lists(star_graph(12), ListStrategy.CANONICAL)
    fm = FailureModel(1.0)
    for seed in range(100):
        s = init_state(lists, Protocol.FULLY_RANDOM, fm, [7], [TrialRandomness(seed, 0)])
        step(s, 1)
        assert s.t == 1 and s.informed[0]


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
    assert res.informing.max() <= 3


def test_trajectory_matches_counts():
    lists = realize_lists(complete_graph(32), ListStrategy.CANONICAL)
    res = run(lists, Protocol.QUASIRANDOM, FailureModel(0.8), 0, TrialRandomness(5, 1), 200)
    counts = _counts(res.informing, range(res.rounds + 1))
    assert counts[0] == 1
    assert counts[-1] == 32
    assert (np.diff(counts) >= 0).all()


def _counts(informing, rounds):
    """The informed count after each of rounds, read from an informing record
    (by vertex, the round it was first informed in, -1 for never)."""
    at = np.sort(informing[informing >= 0])
    return np.searchsorted(at, [min(t, int(at[-1])) for t in rounds], side="right").tolist()


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

    rounds, completed, _ = run_batch(lists, protocol, fm, case["starts"], rngs, max_rounds)
    for b, (start, rng) in enumerate(zip(case["starts"], rngs)):
        states = list(_every_coin_rounds(lists, protocol, p, start, rng, max_rounds))
        trajectory = [1] + [int(informed.sum()) for informed, _, _ in states]
        res = run(lists, protocol, fm, start, rng, max_rounds)
        assert (res.rounds, res.completed) == (len(states), trajectory[-1] == n)
        assert _counts(res.informing, range(res.rounds + 1)) == trajectory
        assert (int(rounds[b]), bool(completed[b])) == (res.rounds, res.completed)

    masks = np.random.default_rng(mask_seed).random((max_rounds, n)) < 0.6
    start, rng = case["starts"][0], rngs[0]
    policy = _Masks(masks)
    state = init_state(lists, protocol, fm, [start], [rng], policy)
    walks = protocol is not Protocol.FULLY_RANDOM  # random targets keep no cursor
    first = state.cursor.copy() if walks else None  # the reference draws it at the first send
    for t, (informed, cursor, attempts) in enumerate(
        _every_coin_rounds(lists, protocol, p, start, rng, max_rounds, masks)
    ):
        before = state.informed.copy()
        if not step(state, max_rounds):
            state.t += 1  # no row may send: the round runs nothing
        assert state.t == t + 1
        assert np.array_equal(state.informed, informed)
        assert np.array_equal(state.at == state.t, informed & ~before)
        assert state.informed_count == int(informed.sum())
        walked = state.cursor  # a quasi row keeps its first position: (first + attempts) % deg
        if protocol is Protocol.QUASIRANDOM:
            walked = (state.cursor + state.attempts) % lists.topology.degrees(state.vertex)
        if walks:
            assert np.array_equal(walked, np.where(attempts > 0, cursor, first))
        else:
            assert state.cursor is None and (cursor == -1).all()
        assert np.array_equal(state.attempts, attempts)


def _assert_runs_equal_reference(lists, protocol, p, starts, seed, max_rounds):
    """run_batch over all starts, and run per trial, match the every-coin loop."""
    n = lists.topology.n
    rngs = [TrialRandomness(seed, t) for t in range(len(starts))]
    fm = FailureModel(p)
    rounds, completed, _ = run_batch(lists, protocol, fm, starts, rngs, max_rounds)
    results = []
    for b, (start, rng) in enumerate(zip(starts, rngs)):
        states = list(_every_coin_rounds(lists, protocol, p, start, rng, max_rounds))
        trajectory = [1] + [int(informed.sum()) for informed, _, _ in states]
        res = run(lists, protocol, fm, start, rng, max_rounds)
        assert (res.rounds, res.completed) == (len(states), trajectory[-1] == n)
        assert _counts(res.informing, range(res.rounds + 1)) == trajectory
        assert (int(rounds[b]), bool(completed[b])) == (res.rounds, res.completed)
        results.append(res)
    return results


@st.composite
def settled_cases(draw):
    """A run that spends most of its rounds with no uninformed vertex next to
    an uninformed one: a star once its center knows, whose steps then run
    blocks of rounds (long enough max_rounds allow several), or a complete
    graph with one vertex left, which runs one round a step."""
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
        p=draw(st.sampled_from([1.0, 0.5, 0.2, 1e-3, 5e-324])),
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
    assert len(spy.call_args_list[block].args[1]) == 2  # in which both centers send
    res = _assert_runs_equal_reference(lists, Protocol.FULLY_RANDOM, 1.0, [0, 0], 6, 1000)
    assert [(r.rounds, r.completed) for r in res] == [(94, True), (164, True)]


@pytest.mark.parametrize("protocol", list(Protocol))
def test_max_rounds_inside_a_block_reports_exactly_max_rounds(protocol):
    lists = realize_lists(star_graph(40), ListStrategy.RANDOM, seed=1)
    # one sender, so every settled block is 64 rounds until the cap cuts one
    with mock.patch.object(engine, "_BLOCK_CELLS", 64), \
            mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        run_batch(lists, protocol, FailureModel(0.2), [5], [TrialRandomness(3, 0)], 123)
    sizes = [call.args[-1] for call in spy.call_args_list]
    assert sizes[-2] == 64 > sizes[-1] and sum(sizes) == 123  # the cap cut the last block
    (res,) = _assert_runs_equal_reference(lists, protocol, 0.2, [5], 3, 123)
    assert not res.completed and res.rounds == 123 and res.informing.max() <= 123


@pytest.mark.parametrize("protocol", [Protocol.QUASIRANDOM, Protocol.FEEDBACK_RETRY])
def test_a_single_round_after_blocks_walks_on_from_the_cursor(protocol):
    lists = realize_lists(star_graph(6), ListStrategy.CANONICAL)
    with mock.patch.object(engine, "_BLOCK_CELLS", 7), \
            mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        run_batch(lists, protocol, FailureModel(0.2), [0], [TrialRandomness(2, 0)], 8)
    assert [call.args[-1] for call in spy.call_args_list] == [7, 1]
    (res,) = _assert_runs_equal_reference(lists, protocol, 0.2, [0], 2, 8)
    assert not res.completed


def test_random_push_from_a_star_leaf_sizes_its_first_block_from_the_tail():
    # the tail takes about 255 * H_254 = 1,561 rounds: a first settled block of
    # 255 * (1 + ln 254) = 1,667 rounds covers most trials, a second one of
    # twice its size nearly all the rest
    lists = realize_lists(star_graph(256), ListStrategy.CANONICAL)
    with mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        _, completed, _ = run_batch(
            lists, Protocol.FULLY_RANDOM, FailureModel(1.0), [1], [TrialRandomness(8, 0)], 6000
        )
    assert completed[0] and spy.call_count <= 4


@pytest.mark.parametrize("protocol", [Protocol.QUASIRANDOM, Protocol.FEEDBACK_RETRY])
def test_a_list_walk_from_a_star_leaf_takes_one_block_of_one_pass(protocol):
    # at p = 1 the center's walk reaches every leaf within its 255 slots
    lists = realize_lists(star_graph(256), ListStrategy.RANDOM, seed=2)
    rngs = [TrialRandomness(9, t) for t in range(20)]
    with mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        _, completed, _ = run_batch(lists, protocol, FailureModel(1.0), [1] * 20, rngs, 20000)
    assert completed.all() and [call.args[-1] for call in spy.call_args_list] == [1, 255]


@settings(max_examples=40, deadline=None)
@given(case=settled_cases(), cells=st.one_of(st.none(), st.integers(1, 80)))
def test_every_block_draws_at_most_block_cells(case, cells):
    lists, protocol, fm = case["lists"], case["protocol"], FailureModel(case["p"])
    rngs = [TrialRandomness(case["seed"], t) for t in range(len(case["starts"]))]
    cells = engine._BLOCK_CELLS if cells is None else cells
    with mock.patch.object(engine, "_BLOCK_CELLS", cells), \
            mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        run_batch(lists, protocol, fm, case["starts"], rngs, case["max_rounds"])
    for call in spy.call_args_list:
        senders, block = call.args[1], call.args[-1]
        assert block == 1 or len(senders) * block <= cells


@pytest.mark.parametrize("p", [1e-3, 5e-324])
def test_a_first_block_past_the_cap_draws_block_cells(p):
    # the tail estimate, 255 * (1 + ln 254) / p rounds, is far past the cap
    lists = realize_lists(star_graph(256), ListStrategy.CANONICAL)
    with mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
        run_batch(lists, Protocol.FULLY_RANDOM, FailureModel(p), [0], [TrialRandomness(4, 0)],
                  3 * engine._BLOCK_CELLS)
    assert [call.args[-1] for call in spy.call_args_list] == [engine._BLOCK_CELLS] * 3


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


@pytest.mark.parametrize("protocol", [Protocol.QUASIRANDOM, Protocol.FEEDBACK_RETRY])
@pytest.mark.parametrize("n", range(2, 9))
def test_unsettled_rounds_past_the_degree_equal_every_coin_reference(n, protocol):
    # at p <= 0.2 a trial is still unsettled when t + rounds passes the degree
    # n - 1, so list slots are wrapped by one subtraction before and by % after
    lists = realize_lists(complete_graph(n), ListStrategy.RANDOM, seed=n)
    p = 0.1 if n % 2 else 0.2
    unsettled, real = set(), engine._transmit  # whether t + rounds fits the degree

    def transmit(state, rows, rounds):
        if lists.topology.live_senders(state.informed) is None:
            unsettled.add(state.t + rounds <= n - 1)
        return real(state, rows, rounds)

    with mock.patch.object(engine, "_transmit", transmit):
        res = _assert_runs_equal_reference(lists, protocol, p, [0, n - 1, n // 2], n, 400)
    assert all(r.completed for r in res)
    assert unsettled == {True, False}  # n = 2 too: the complete graph never settles


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("graph", [complete_graph(9), star_graph(9)], ids=["complete", "star"])
def test_derived_ordinals_equal_counted_ones(graph, protocol):
    # without a policy a row's ordinal is t - at; an always-true policy counts
    # each row's transmissions instead, and must inform the same rows each round
    lists = realize_lists(graph, ListStrategy.RANDOM, seed=5)
    fm = FailureModel(0.3)
    for seed in range(6):
        rng = TrialRandomness(seed, 0)
        derived = init_state(lists, protocol, fm, [seed], [rng])
        counted = init_state(lists, protocol, fm, [seed], [rng], _Masks())
        while not derived.informed.all():
            step(derived, 500)  # a settled step may run a block of rounds
            while counted.t < derived.t:
                step(counted, 500)
            assert np.array_equal(counted.at, derived.at)
        assert counted.attempts.max() > 0


@settings(max_examples=40, deadline=None)
@given(case=settled_cases(), cells=st.integers(1, 80))
def test_block_size_does_not_change_results(case, cells):
    lists, protocol, fm = case["lists"], case["protocol"], FailureModel(case["p"])
    starts, max_rounds = case["starts"], case["max_rounds"]
    rngs = [TrialRandomness(case["seed"], t) for t in range(len(starts))]

    def outputs():
        rounds, completed, _ = run_batch(lists, protocol, fm, starts, rngs, max_rounds)
        runs = [run(lists, protocol, fm, s, rng, max_rounds) for s, rng in zip(starts, rngs)]
        return rounds.tolist(), completed.tolist(), [r.informing.tolist() for r in runs]

    expected = outputs()
    with mock.patch.object(engine, "_BLOCK_CELLS", cells):  # other block sizes
        assert outputs() == expected


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("topo", [complete_graph(200), star_graph(256)], ids=["complete", "star"])
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_one_byte_table_runs_as_an_int64_table(topo, protocol, p):
    # a batch of trials puts rows far past 255, so a target widened too late
    # would wrap in its own one-byte type
    lists = realize_lists(topo, ListStrategy.RANDOM, seed=6)
    assert lists._table.dtype == np.uint8
    wide = ListAssignment(topo, ListStrategy.RANDOM, 6, lists._table.astype(np.int64))
    starts = [0, 1, topo.n - 1, 5]

    def outputs(assignment):
        rngs = [TrialRandomness(12, trial) for trial in range(len(starts))]
        rounds, done, informing = engine.run_batch(
            assignment, protocol, FailureModel(p), starts, rngs, 4000
        )
        return rounds.tolist(), done.tolist(), informing.tolist()

    assert outputs(lists) == outputs(wide)


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(coin_cases(), settled_cases()), cells=st.integers(1, 80))
def test_informing_rounds_equal_every_coin_reference(case, cells):
    """Each vertex's informing round is the first round it is informed in the
    reference, at any block size."""
    lists, protocol, p = case["lists"], case["protocol"], case["p"]
    starts, max_rounds = case["starts"], case["max_rounds"]
    rngs = [TrialRandomness(case["seed"], t) for t in range(len(starts))]
    want = np.full((len(starts), lists.topology.n), -1)
    for b, (start, rng) in enumerate(zip(starts, rngs)):
        want[b, start] = 0
        for t, (informed, _, _) in enumerate(
            _every_coin_rounds(lists, protocol, p, start, rng, max_rounds), start=1
        ):
            want[b, informed & (want[b] < 0)] = t

    def informing():
        return engine.run_batch(lists, protocol, FailureModel(p), starts, rngs, max_rounds)[2]

    assert informing().tolist() == want.tolist()
    with mock.patch.object(engine, "_BLOCK_CELLS", cells):  # other block sizes
        assert informing().tolist() == want.tolist()


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("graph", [complete_graph(40), star_graph(40)], ids=["complete", "star"])
@pytest.mark.parametrize("masked", [False, True], ids=["plain", "masks"])
def test_a_cap_of_seven_slices_rounds_and_moves_no_record(graph, protocol, masked):
    # a round of more than _BLOCK_CELLS senders runs in slices, or, once half
    # the rows of a run without a policy are informed, in ranges of rows, and
    # every record stays the same; on the star, ten trials' centers make
    # settled single rounds of 10 senders
    lists = realize_lists(graph, ListStrategy.RANDOM, seed=4)
    fm, starts = FailureModel(0.6), [0, 1, 17, 39, 5, 0, 2, 3, 30, 8]
    masks = np.random.default_rng(3).random((300, graph.n)) < 0.7 if masked else None

    def outputs():
        rngs = [TrialRandomness(21, t) for t in range(len(starts))]
        policy = _Masks(masks, len(starts)) if masked else None
        with mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
            out = run_batch(lists, protocol, fm, starts, rngs, 300, policy)
        sizes = [len(call.args[1]) for call in spy.call_args_list if call.args[-1] == 1]
        return [a.tolist() for a in out], max(sizes)

    want, widest = outputs()
    with mock.patch.object(engine, "_BLOCK_CELLS", 7):
        got, sliced = outputs()
    assert got == want
    assert sliced == 7 < widest  # some round was sliced


@pytest.mark.parametrize("cells", [3, 7, 1 << 16])
@pytest.mark.parametrize("strategy", [ListStrategy.CANONICAL, ListStrategy.REVERSED,
                                      ListStrategy.RANDOM], ids=lambda s: s.value)
@pytest.mark.parametrize("graph, starts, p, seed", [
    (complete_graph(40), [0, 1, 17, 39, 5, 0, 2, 3, 30, 8], 0.6, 21),
    # the trials from the center pass half the rows before the leaf's trial settles
    (star_graph(6), [0, 0, 0, 0, 1], 0.2, 17),
], ids=["complete", "star"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=[p.value for p in Protocol])
def test_range_rounds_move_no_record(protocol, graph, starts, p, seed, strategy, cells):
    # once half the rows are informed, a round reads its rows in ranges of
    # whole trials or of part of one; with cells below n a trial spans
    # several, and a row an earlier range informed neither sends nor reads a
    # slot past the trial's block, as the round's informs apply when it ends.
    # A range round leaves every cached first stage as it was, and feedback
    # reads each target at the cursor the round began with.
    lists, n = realize_lists(graph, strategy, seed=4), graph.n
    rngs = [TrialRandomness(seed, t) for t in range(len(starts))]
    want = np.full((len(starts), n), -1)
    for b, (start, rng) in enumerate(zip(starts, rngs)):
        want[b, start] = 0
        for t, (informed, _, _) in enumerate(
            _every_coin_rounds(lists, protocol, p, start, rng, 300), start=1
        ):
            want[b, informed & (want[b] < 0)] = t
    ranges, round_start, real = [], {}, engine._transmit

    def transmit(state, rows, rounds):
        if type(rows) is not range:
            return real(state, rows, rounds)
        lo, hi = rows.start, rows.stop
        assert lo // n == (hi - 1) // n or lo % n == hi % n == 0  # one trial, or whole ones
        known = round_start.setdefault(state.t, state.informed.copy())
        assert np.array_equal(state.informed, known)  # no inform of this round applied yet
        assert (state.at[lo:hi][state.informed[lo:hi]] <= state.t).all()
        first = {k: v.copy() for k, v in state.keys._first.items()}
        cursor = None if state.cursor is None else state.cursor[lo:hi].copy()
        new_rows, hit = real(state, rows, rounds)
        assert all(np.array_equal(state.keys._first[k], v) for k, v in first.items())
        assert ((lo - lo % n <= new_rows) & (new_rows < -(-hi // n) * n)).all()
        assert state.informed[lo + hit].all()  # only informed rows send
        if protocol is Protocol.FEEDBACK_RETRY:  # the target at the cursor before it moved
            senders = lo + hit
            vertices = state.vertex[senders]
            want_rows = senders - vertices + lists.targets_at(vertices, cursor[hit])
            assert np.array_equal(new_rows, want_rows)
        ranges.append(hi - lo)
        return new_rows, hit

    with mock.patch.object(engine, "_BLOCK_CELLS", cells), \
            mock.patch.object(engine, "_transmit", transmit):
        informing = run_batch(lists, protocol, FailureModel(p), starts, rngs, 300)[2]
    assert informing.tolist() == want.tolist()
    assert ranges and max(ranges) <= cells
    assert (min(ranges) < n) == (cells < n)  # a trial spans several ranges


@pytest.mark.parametrize("masked", [False, True], ids=["plain", "masks"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=[p.value for p in Protocol])
def test_rows_are_read_in_place_once_half_of_them_are_informed(protocol, masked):
    # a single unsettled round without a policy reads ranges of rows exactly
    # when at least half the rows are informed; a policy's run keeps a list
    lists = realize_lists(complete_graph(40), ListStrategy.RANDOM, seed=4)
    starts = [0, 1, 17, 39, 5, 0, 2, 3, 30, 8]
    rngs = [TrialRandomness(21, t) for t in range(len(starts))]
    policy = _Masks(trials=len(starts)) if masked else None
    kinds, real = [], engine._transmit

    def transmit(state, rows, rounds):
        if rounds == 1 and lists.topology.live_senders(state.informed) is None:
            wide = not masked and 2 * state.informed_count >= len(state.informed)
            kinds.append((type(rows), wide))
        return real(state, rows, rounds)

    with mock.patch.object(engine, "_transmit", transmit):
        run_batch(lists, protocol, FailureModel(0.6), starts, rngs, 300, policy)
    assert set(kinds) == ({(np.ndarray, False)} if masked
                          else {(np.ndarray, False), (range, True)})


@pytest.mark.parametrize("max_rounds, width", [
    (None, np.int64), (0, np.int32), (2**31 - 10, np.int32), (2**31 - 9, np.int64),
    (2**31, np.int64), (2**64, np.int64),
])
def test_rows_are_32_bit_while_every_round_and_slot_fits(max_rounds, width):
    # rounds, ordinals and list slots stay below max_rounds + n, here n = 9
    lists = realize_lists(complete_graph(9), ListStrategy.RANDOM, seed=1)
    rngs = [TrialRandomness(2, t) for t in range(3)]
    for protocol in Protocol:
        s = init_state(lists, protocol, FailureModel(0.5), [0, 4, 8], rngs, _Masks(), max_rounds)
        assert (s.at.dtype, s.attempts.dtype) == (width, width)
        assert s.vertex.dtype == np.int32
        assert s.cursor is None if protocol is Protocol.FULLY_RANDOM else s.cursor.dtype == np.int32
    assert init_state(lists, protocol, FailureModel(0.5), [0], rngs[:1]).at.dtype == np.int64
    if max_rounds is not None and max_rounds < 2**40:  # the informing record stays int64
        informing = run_batch(lists, Protocol.QUASIRANDOM, FailureModel(0.5), [0, 4, 8], rngs,
                              max_rounds)[2]
        assert informing.dtype == np.int64


def test_a_trial_finished_before_a_stall_is_recorded():
    # vertex 2 never sends: trial 0 completes in round 2 and leaves the batch,
    # then the stall at round 3 stops the other three at their caps
    lists = realize_lists(complete_graph(3), ListStrategy.CANONICAL)
    masks = np.zeros((10, 3), dtype=bool)
    masks[:3, :2] = True
    starts, rngs = [0, 2, 2, 2], [TrialRandomness(5, t) for t in range(4)]
    rounds, completed, informing = run_batch(
        lists, Protocol.QUASIRANDOM, FailureModel(1.0), starts, rngs, 10, _Masks(masks, 4)
    )
    assert rounds.tolist() == [2, 10, 10, 10] and completed.tolist() == [True] + [False] * 3
    alone = run_batch(lists, Protocol.QUASIRANDOM, FailureModel(1.0), [0], rngs[:1], 10,
                      _Masks(masks))
    assert informing[0].tolist() == alone[2][0].tolist() and sorted(alone[2][0]) == [0, 1, 2]
    assert informing[1:].tolist() == [[-1, -1, 0]] * 3


def test_quasi_slots_past_int32_are_read_in_the_ordinals_width():
    # an int64 run's ordinals pass 2**31 while list positions stay int32;
    # each slot is first + ordinal taken mod the degree in Python ints
    n = 10
    lists = realize_lists(complete_graph(n), ListStrategy.RANDOM, seed=3)
    s = init_state(lists, Protocol.QUASIRANDOM, FailureModel(1.0), [0], [TrialRandomness(4, 0)],
                   None, 2**40)
    assert (s.at.dtype, s.cursor.dtype) == (np.int64, np.int32)
    s.t = 2**31 + 5
    s.at[:] = [0, 1, 4, 5, 6, 2**31 - 9, 2**31 - 2, 2**31, 9, 3]
    rows = np.arange(n)
    got, _ = engine._targets(s, rows, s.t - s.at[rows], 1)
    want = [lists.row(v)[(int(s.cursor[v]) + s.t - int(s.at[v])) % (n - 1)] for v in range(n)]
    assert got.tolist() == want


def test_one_quasirandom_trial_peaks_at_45_bytes_a_row():
    # rounds run in capped slices over 32-bit rows: the traced peak of one
    # trial at n = 2**17, state and output included, stays at 45 B a row
    n = 2**17
    lists = realize_lists(complete_graph(n), ListStrategy.CANONICAL)
    tracemalloc.start()
    try:
        res = run(lists, Protocol.QUASIRANDOM, FailureModel(0.5), 0, TrialRandomness(1, 0), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.completed
    assert peak <= 45 * n


@pytest.mark.parametrize("protocol", [Protocol.FULLY_RANDOM, Protocol.FEEDBACK_RETRY])
def test_one_random_or_feedback_trial_peaks_at_53_bytes_a_row(protocol):
    # quasi's 45 B a row, and 8 B for the one more first stage each caches:
    # random push that of its targets, feedback that of its feedback coins
    n = 2**17
    lists = realize_lists(complete_graph(n), ListStrategy.CANONICAL)
    tracemalloc.start()
    try:
        res = run(lists, protocol, FailureModel(0.5), 0, TrialRandomness(1, 0), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.completed
    assert peak <= 53 * n


def test_a_batch_keeps_no_rows_once_its_last_trial_stops():
    lists = realize_lists(complete_graph(12), ListStrategy.CANONICAL)
    fm, trials = FailureModel(0.5), 6
    left, real_keep = [], engine.EngineState.keep

    def counting_keep(state, live):
        left.append(int(np.count_nonzero(live)))
        real_keep(state, live)

    with mock.patch.object(engine.EngineState, "keep", counting_keep):
        batch = run_batch(lists, Protocol.QUASIRANDOM, fm, [0] * trials,
                          [TrialRandomness(9, t) for t in range(trials)], 200)
        assert left and min(left) > 0  # every keep leaves a trial running
        left.clear()
        alone = [run_batch(lists, Protocol.QUASIRANDOM, fm, [0], [TrialRandomness(9, t)], 200)
                 for t in range(trials)]
        assert not left  # a one-trial batch stops without a keep
    for got, want in zip(batch, map(np.concatenate, zip(*alone))):
        assert np.array_equal(got, want)


def _period_masks(seed, rounds, n, period):
    """Random sender masks that stay equal within each period of rounds."""
    base = np.random.default_rng(seed).random((-(-rounds // period), n)) < 0.6
    return np.repeat(base, period, axis=0)[:rounds]


@pytest.mark.parametrize("run_kind", ["plain-complete", "plain-star", "policy", "coupled"])
def test_the_informed_count_is_kept_by_every_step_and_keep(run_kind):
    # plain runs take range rounds, gathered rounds and settled blocks; policy
    # runs take settled blocks and idle jumps under boundaries every 5 rounds
    real_step, real_keep = engine.step, engine.EngineState.keep
    checked = []

    def counted_step(state, max_rounds):
        out = real_step(state, max_rounds)
        assert state.informed_count == np.count_nonzero(state.informed)
        checked.append("step")
        return out

    def counted_keep(state, live):
        real_keep(state, live)
        assert state.informed_count == np.count_nonzero(state.informed)
        checked.append("keep")

    graph = star_graph(30) if run_kind == "plain-star" else complete_graph(40)
    lists = realize_lists(graph, ListStrategy.RANDOM, seed=3)
    starts = [0, 1, 17, 5, 0, 2, 3, 29]
    rngs = [TrialRandomness(8, t) for t in range(len(starts))]
    with mock.patch.object(engine, "step", counted_step), \
            mock.patch.object(engine.EngineState, "keep", counted_keep):
        for protocol in Protocol:
            if run_kind == "coupled":
                for k, sched in enumerate(([Phase("lazy", 2), Phase("busy", 4), Phase("lazy", 300)],
                                           [Phase("busy", 3), Phase("lazy", 1), Phase("busy", 90)])):
                    coupled_run(lists, FailureModel(0.4), k, sched, TrialRandomness(4, k))
                continue
            policy = None
            if run_kind == "policy":
                masks = _period_masks(1, 400, graph.n, 5)
                policy = _Masks(masks, len(starts), 5)
            run_batch(lists, protocol, FailureModel(0.4), starts, rngs, 400, policy)
    assert "step" in checked and "keep" in checked


def _silencing(trials, silent):
    """A policy under which the rows of trial silent never send."""
    policy = _Masks(trials=trials, period=10**6)
    policy.senders = lambda t, at, running: (
        np.repeat(running != silent, len(at) // len(running)), None
    )
    return policy


def test_a_trial_finishing_as_the_count_first_reaches_n_gets_its_record():
    # trial 1 never sends, so the batch holds fewer than n = 16 informed rows
    # until the step in which trial 0 completes; trial 1, left alone, stalls
    # and stops at its cap; each gets the record it has when it runs alone
    lists = realize_lists(complete_graph(16), ListStrategy.CANONICAL)
    fm, starts = FailureModel(1.0), [3, 7]
    rngs = [TrialRandomness(36, t) for t in range(2)]
    steps, real_step = [], engine.step

    def counting_step(state, max_rounds):
        out = real_step(state, max_rounds)
        steps.append((state.t, state.informed_count))
        return out

    with mock.patch.object(engine, "step", counting_step):
        rounds, completed, informing = run_batch(
            lists, Protocol.QUASIRANDOM, fm, starts, rngs, 50, _silencing(2, 1)
        )
    reached = next(i for i, (_, count) in enumerate(steps) if count >= 16)
    assert [count for _, count in steps[:reached + 1]] == [3, 5, 9, 14, 17]
    assert steps[reached][0] == 5  # trial 0's 16 rows and trial 1's start, in round 5
    assert rounds.tolist() == [5, 50] and completed.tolist() == [True, False]
    for b in range(2):  # alone, trial 0 sends and trial 1 does not
        alone = run_batch(lists, Protocol.QUASIRANDOM, fm, starts[b:b + 1], rngs[b:b + 1], 50,
                          _silencing(1, 1 - b))
        assert [a[0].tolist() for a in alone] == [a[b].tolist() for a in (rounds, completed, informing)]
    assert informing[0].tolist() == run(lists, Protocol.QUASIRANDOM, fm, 3, rngs[0], 50).informing.tolist()
    assert informing[1].tolist() == [-1] * 7 + [0] + [-1] * 8


@pytest.mark.parametrize("protocol", list(Protocol), ids=[p.value for p in Protocol])
@pytest.mark.parametrize("graph", [complete_graph(12), star_graph(12)], ids=["complete", "star"])
def test_policy_caps_at_different_rounds_stop_each_trial_at_its_own(graph, protocol):
    # settled blocks under a policy end by the smallest cap of the running
    # trials, so each trial's record is the one it has alone at its cap
    lists = realize_lists(graph, ListStrategy.RANDOM, seed=7)
    starts, limits = [0, 3, 5, 0, 11], [9, 40, 3, 200, 77]
    rngs = [TrialRandomness(6, t) for t in range(len(starts))]
    masks = _period_masks(2, 300, graph.n, 8)
    masks[:, starts] = True  # no stall, which would stop a lone trial at its cap
    fm = FailureModel(0.3)
    got = run_batch(lists, protocol, fm, starts, rngs, 300, _Masks(masks, 5, 8, limits))
    for b, (start, rng, limit) in enumerate(zip(starts, rngs, limits)):
        alone = run_batch(lists, protocol, fm, [start], [rng], 300, _Masks(masks, 1, 8, [limit]))
        assert [a[b].tolist() for a in got] == [a[0].tolist() for a in alone]
        assert got[0][b] <= limit


def _settled_policy_run(protocol, graph, period, seed):
    """Step a run under boundaries every period rounds by hand against the
    every-coin reference, which must agree after every step, attempts
    included; returns the kinds of settled step taken."""
    lists = realize_lists(graph, ListStrategy.RANDOM, seed=seed)
    p, max_rounds, n = (1.0, 0.5, 0.2)[seed % 3], 120, graph.n
    masks = _period_masks(seed, max_rounds, n, period)
    start, rng = seed % n, TrialRandomness(seed, 1)
    state = init_state(lists, protocol, FailureModel(p), [start], [rng], _Masks(masks, 1, period),
                       max_rounds)
    first = None if state.cursor is None else state.cursor.copy()
    reference = list(_every_coin_rounds(lists, protocol, p, start, rng, max_rounds, masks))
    kinds, calls, real = set(), [], engine._transmit

    def transmit(s, rows, rounds):
        calls.append(rounds)
        return real(s, rows, rounds)

    while not state.informed.all() and state.t < max_rounds:
        t, settled = state.t, lists.topology.live_senders(state.informed) is not None
        calls.clear()
        with mock.patch.object(engine, "_transmit", transmit):
            if not step(state, max_rounds):  # no row sends until the next boundary
                state.t = min(t - t % period + period, max_rounds)
        if settled:
            kinds.add("block" if max(calls, default=0) > 1 else
                      "idle" if state.t - t > 1 else
                      "boundary one round on" if t % period == period - 1 else "round")
        if state.t > len(reference):  # completed inside the block, in its last round
            assert state.informed.all() and state.at.max() == len(reference)
            break
        informed, cursor, attempts = reference[state.t - 1]
        assert np.array_equal(state.informed, informed)
        assert state.informed_count == int(informed.sum())
        assert np.array_equal(state.attempts, attempts)
        if protocol is Protocol.QUASIRANDOM:  # a row keeps its first position
            walked = (state.cursor + state.attempts) % lists.topology.degrees(state.vertex)
            assert np.array_equal(walked, np.where(attempts > 0, cursor, first))
        elif protocol is Protocol.FEEDBACK_RETRY:
            assert np.array_equal(state.cursor, np.where(attempts > 0, cursor, first))
    assert state.informed.all() or state.t == max_rounds == len(reference)
    return kinds


@pytest.mark.parametrize("protocol", list(Protocol), ids=[p.value for p in Protocol])
def test_settled_policy_blocks_equal_every_coin_reference(protocol):
    # boundaries every period rounds: a settled step runs a block up to the
    # next one, or jumps there when no live sender may send, and counts the
    # transmissions of every row that sends, those that inform no one included
    kinds = set()
    for graph in (complete_graph(7), star_graph(9)):
        for period in (2, 5, 9):
            for seed in range(6):
                kinds |= _settled_policy_run(protocol, graph, period, seed)
    assert kinds >= {"block", "idle", "boundary one round on"}


def test_a_settled_single_round_sends_only_the_centers():
    # with blocks of at most one cell every settled step is a single round,
    # in which the centers send, in slices of one, and no informed leaf does,
    # as each leaf's transmissions reach its informed center
    lists = realize_lists(star_graph(40), ListStrategy.RANDOM, seed=4)
    starts = [0, 5, 9]
    rngs = [TrialRandomness(3, t) for t in range(len(starts))]
    real = engine._transmit

    for protocol in Protocol:
        sent = {}  # by settled round: the centers, and the rows that sent

        def transmit(state, rows, rounds):
            centers = lists.topology.live_senders(state.informed)
            if centers is not None:
                assert (type(rows), rounds) == (np.ndarray, 1)
                sent.setdefault(state.t, (centers.tolist(), []))[1].extend(rows.tolist())
            return real(state, rows, rounds)

        want = run_batch(lists, protocol, FailureModel(0.3), starts, rngs, 400)
        with mock.patch.object(engine, "_BLOCK_CELLS", 1), \
                mock.patch.object(engine, "_transmit", transmit):
            got = run_batch(lists, protocol, FailureModel(0.3), starts, rngs, 400)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert sent and all(rows == centers for centers, rows in sent.values())


@pytest.mark.parametrize("masked", [False, True], ids=["plain", "masks"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=[p.value for p in Protocol])
def test_only_the_star_settles_into_blocks(protocol, masked):
    # the complete graph runs one round a step, its last vertex's tail and
    # boundaries every 5 rounds included; a star run from a leaf still draws
    # blocks once its center is informed
    starts = [1, 4, 11, 1]
    rngs = [TrialRandomness(17, t) for t in range(len(starts))]
    for graph in (complete_graph(12), star_graph(12)):
        lists = realize_lists(graph, ListStrategy.RANDOM, seed=5)
        policy = _Masks(_period_masks(4, 400, graph.n, 5), len(starts), 5) if masked else None
        with mock.patch.object(engine, "_transmit", wraps=engine._transmit) as spy:
            completed = run_batch(lists, protocol, FailureModel(0.3), starts, rngs, 400, policy)[1]
        rounds = {call.args[-1] for call in spy.call_args_list}
        assert rounds == {1} if graph.kind is GraphKind.COMPLETE else max(rounds) > 1
        assert completed.any()


def _assert_rounds_rule(rounds, completed, informing, caps):
    """A completed trial's rounds are its last informing round, an incomplete
    trial's its cap; returns the kinds of trial seen."""
    kinds = set()
    for b, cap in enumerate(caps):
        if completed[b]:
            assert informing[b].min() >= 0 and rounds[b] == informing[b].max() <= cap
            kinds.add("completed")
        else:
            assert informing[b].min() == -1 and rounds[b] == cap
            kinds.add("incomplete")
    return kinds


@pytest.mark.parametrize("masked", [False, True], ids=["plain", "policy"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=[p.value for p in Protocol])
def test_rounds_of_star_trials_that_complete_inside_blocks(protocol, masked):
    # settled blocks of many rounds, whose ends some trials complete between,
    # and caps that stop the others; a policy gives each trial its own cap
    lists = realize_lists(star_graph(16), ListStrategy.RANDOM, seed=3)
    starts = [0, 4, 0, 9, 13, 0]
    rngs = [TrialRandomness(12, t) for t in range(len(starts))]
    limits = [150, 40, 400, 25, 90, 60]
    policy = _Masks(trials=len(starts), period=50, limits=limits) if masked else None
    caps = limits if masked else [80] * len(starts)
    clock, real = [], engine.step

    def stepping(state, max_rounds):
        ran = real(state, max_rounds)
        clock.append(state.t)
        return ran

    with mock.patch.object(engine, "step", stepping):
        rounds, completed, informing = run_batch(
            lists, protocol, FailureModel(0.5), starts, rngs, 400 if masked else 80, policy
        )
    assert _assert_rounds_rule(rounds, completed, informing, caps) == {"completed", "incomplete"}
    inside = [r for r, done in zip(rounds, completed) if done and r not in clock]
    assert inside  # some trial completed inside a block, between two steps' ends
    if not masked:  # and the round-by-round reference agrees
        _assert_runs_equal_reference(lists, protocol, 0.5, starts, 12, 80)


@pytest.mark.parametrize("trials", [1, 3, 8])
@pytest.mark.parametrize("protocol", list(Protocol), ids=[p.value for p in Protocol])
def test_rounds_of_complete_graph_batches(protocol, trials):
    # one round a step: a trial completes in the round of its last inform, or
    # stops at the cap
    lists = realize_lists(complete_graph(12), ListStrategy.RANDOM, seed=2)
    kinds = set()
    for seed in range(6):
        starts = [(seed + 5 * t) % 12 for t in range(trials)]
        rngs = [TrialRandomness(seed, t) for t in range(trials)]
        for max_rounds in (9, 300):
            out = run_batch(lists, protocol, FailureModel(0.4), starts, rngs, max_rounds)
            kinds |= _assert_rounds_rule(*out, [max_rounds] * trials)
    assert kinds == {"completed", "incomplete"}
