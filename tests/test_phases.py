from __future__ import annotations

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumorsim import (
    CoupledResult,
    DelayedResult,
    FailureModel,
    ListStrategy,
    Phase,
    PhaseKind,
    PhaseRecord,
    TrialRandomness,
    TrialResult,
    busy_growth_sample,
    complete_graph,
    coupled_run,
    default_max_rounds,
    load_schedule,
    parse_schedule,
    realize_lists,
    run,
    run_delayed,
    save_schedule,
    schedule_constants,
    schedule_text,
    star_graph,
    upper_bound_schedule,
)
from rumorsim.engine import Protocol
from rumorsim.phases import _dominated
from test_engine import _counts, _every_coin_rounds


class TestScheduleFormat:
    def test_roundtrip(self):
        sched = [Phase(PhaseKind.LAZY, 3), Phase(PhaseKind.BUSY, 0), Phase(PhaseKind.BUSY, 12)]
        assert parse_schedule(schedule_text(sched)) == sched

    def test_save_over_a_longer_file_leaves_the_new_bytes(self, tmp_path):
        sched = [Phase(PhaseKind.LAZY, 3), Phase(PhaseKind.BUSY, 12)]
        path = tmp_path / "sched.txt"
        path.write_text("busy,99\n" * 50)
        save_schedule(sched, str(path))
        assert path.read_bytes() == b"lazy,3\nbusy,12\n"
        assert load_schedule(str(path)) == sched

    def test_parse_ignores_comments_and_blanks(self):
        text = "# warmup\nlazy, 2\n\nbusy,4\n"
        assert parse_schedule(text) == [Phase(PhaseKind.LAZY, 2), Phase(PhaseKind.BUSY, 4)]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_schedule("sleepy,3\n")
        with pytest.raises(ValueError):
            parse_schedule("lazy\n")
        with pytest.raises(ValueError):
            parse_schedule("busy,two\n")
        with pytest.raises(ValueError, match="line 1: bad length '-1': length: must be >= 0"):
            parse_schedule("busy,-1\n")

    def test_a_kind_given_as_its_value_runs_as_the_member(self):
        assert Phase("busy", 40) == Phase(PhaseKind.BUSY, 40)
        assert Phase("busy", 40).kind is PhaseKind.BUSY
        lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
        fm = FailureModel(1.0)
        by_value = run_delayed(lists, fm, 0, [Phase("busy", 40)], TrialRandomness(0, 0))
        by_member = run_delayed(lists, fm, 0, [Phase(PhaseKind.BUSY, 40)], TrialRandomness(0, 0))
        assert (by_value.rounds, by_value.completed) == (by_member.rounds, by_member.completed)
        assert by_value.completed and by_value.rounds < 40  # a lazy phase would not complete
        assert np.array_equal(by_value.informing, by_member.informing)
        assert by_value.phases == by_member.phases
        with pytest.raises(ValueError, match="bogus"):
            Phase("bogus", 40)

    @pytest.mark.parametrize("length", [2.5, 2.0, True, np.float64(3)])
    def test_a_length_that_is_not_an_integer_raises(self, length):
        # a float length would run as its floor and be recorded as given
        with pytest.raises(ValueError, match="length: must be an integer"):
            Phase("busy", length)

    def test_numpy_integer_lengths_run_as_python_ints(self):
        lists = realize_lists(complete_graph(16), ListStrategy.CANONICAL)
        fm = FailureModel(0.5)
        runs = [
            run_delayed(lists, fm, 0, [Phase("lazy", length), Phase("busy", 40)],
                        TrialRandomness(4, 0), 60)
            for length in (3, np.int64(3), np.uint8(3))
        ]
        assert all(r.phases == runs[0].phases and r.rounds == runs[0].rounds for r in runs)


class TestRunDelayed:
    def test_empty_and_zero_length_phases_do_nothing(self):
        lists = realize_lists(complete_graph(8), ListStrategy.CANONICAL)
        fm = FailureModel(1.0)
        res = run_delayed(lists, fm, 0, [], TrialRandomness(0, 0))
        assert res.rounds == 0 and not res.completed
        res = run_delayed(lists, fm, 0, [Phase(PhaseKind.LAZY, 0)], TrialRandomness(0, 0))
        assert res.rounds == 0 and not res.completed
        assert _counts(res.informing, range(res.rounds + 1)) == [1]

    @pytest.mark.parametrize("runner", [run_delayed, coupled_run])
    def test_a_max_rounds_or_start_that_is_not_an_integer_raises(self, runner):
        # a float cap would stop the run at its floor
        lists = realize_lists(complete_graph(50), ListStrategy.CANONICAL)
        fm, sched = FailureModel(1.0), [Phase(PhaseKind.BUSY, 10)]
        with pytest.raises(ValueError, match="max_rounds: must be an integer"):
            runner(lists, fm, 0, sched, TrialRandomness(0, 0), max_rounds=3.5)
        with pytest.raises(ValueError, match="start vertex: must be an integer"):
            runner(lists, fm, 2.5, sched, TrialRandomness(0, 0))

    def test_numpy_integer_max_rounds_and_start_run_as_python_ints(self):
        lists = realize_lists(complete_graph(50), ListStrategy.CANONICAL)
        fm, sched = FailureModel(1.0), [Phase(PhaseKind.BUSY, 10)]
        want = run_delayed(lists, fm, 2, sched, TrialRandomness(0, 0), max_rounds=3)
        got = run_delayed(lists, fm, np.int64(2), sched, TrialRandomness(0, 0), np.int32(3))
        assert (got.rounds, got.completed, got.phases) == (want.rounds, want.completed, want.phases)
        assert np.array_equal(got.informing, want.informing)

    def test_single_lazy_phase_initiator_covers_triangle(self):
        # two deterministic transmissions from the initiator's cyclic list
        lists = realize_lists(complete_graph(3), ListStrategy.CANONICAL)
        for seed in range(10):
            res = run_delayed(
                lists, FailureModel(1.0), 0, [Phase(PhaseKind.LAZY, 2)], TrialRandomness(seed, 0)
            )
            assert res.completed and res.rounds == 2

    def test_lazy_phase_newly_informed_is_binomial(self):
        # a single active sender makes L distinct attempts, each landing with p
        n, length, p, trials = 32, 10, 0.6, 4000
        lists = realize_lists(complete_graph(n), ListStrategy.CANONICAL)
        fm = FailureModel(p)
        counts = np.zeros(length + 1, dtype=np.int64)
        for trial in range(trials):
            res = run_delayed(
                lists, fm, 0, [Phase(PhaseKind.LAZY, length)], TrialRandomness(77, trial)
            )
            counts[int(res.phases[0].newly_after)] += 1
        emp = counts / trials
        binom = np.array([
            math.comb(length, w) * p**w * (1 - p) ** (length - w) for w in range(length + 1)
        ])
        assert 0.5 * np.abs(emp - binom).sum() < 0.03

    def test_lazy_freezes_mid_phase_joiners(self):
        # p=1, K_4, one lazy phase: only the initiator ever transmits, so the
        # informed count grows by exactly one per round
        lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
        res = run_delayed(
            lists, FailureModel(1.0), 0, [Phase(PhaseKind.LAZY, 3)], TrialRandomness(5, 0)
        )
        assert _counts(res.informing, range(res.rounds + 1)) == [1, 2, 3, 4]

    def test_busy_phase_equals_undelayed(self):
        lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
        fm = FailureModel(0.7)
        plain = run(lists, Protocol.QUASIRANDOM, fm, 0, TrialRandomness(21, 0), 500)
        delayed = run_delayed(
            lists, fm, 0, [Phase(PhaseKind.BUSY, 500)], TrialRandomness(21, 0)
        )
        assert delayed.completed
        assert delayed.rounds == plain.rounds
        assert np.array_equal(delayed.informing, plain.informing)

    def test_phase_records_bookkeeping(self):
        lists = realize_lists(complete_graph(32), ListStrategy.CANONICAL)
        sched = [Phase(PhaseKind.LAZY, 4), Phase(PhaseKind.BUSY, 6), Phase(PhaseKind.LAZY, 50)]
        res = run_delayed(lists, FailureModel(0.8), 0, sched, TrialRandomness(2, 0))
        assert [r.index for r in res.phases] == list(range(len(res.phases)))
        for rec in res.phases:
            assert rec.executed <= rec.length
            assert 0 <= rec.newly_after <= rec.informed_after
        informed_seq = [r.informed_after for r in res.phases]
        assert informed_seq == sorted(informed_seq)
        if res.completed:
            assert res.phases[-1].informed_after == 32

    def test_schedule_exhaustion_reports_incomplete(self):
        lists = realize_lists(complete_graph(256), ListStrategy.CANONICAL)
        res = run_delayed(
            lists, FailureModel(0.5), 0, [Phase(PhaseKind.LAZY, 2)], TrialRandomness(0, 0)
        )
        assert not res.completed
        assert res.rounds == 2

    def test_max_rounds_cap(self):
        lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
        res = run_delayed(
            lists, FailureModel(1.0), 0, [Phase(PhaseKind.BUSY, 100)],
            TrialRandomness(0, 0), max_rounds=2,
        )
        assert res.rounds == 2 and not res.completed

    def test_negative_max_rounds_raises(self):
        lists = realize_lists(complete_graph(8), ListStrategy.CANONICAL)
        sched = [Phase(PhaseKind.BUSY, 10)]
        for entry in (run_delayed, coupled_run):
            with pytest.raises(ValueError, match="max_rounds"):
                entry(lists, FailureModel(1.0), 0, sched, TrialRandomness(0, 0), max_rounds=-5)


class TestCoupling:
    def test_all_busy_single_phase_equals_undelayed_exactly(self):
        lists = realize_lists(complete_graph(128), ListStrategy.RANDOM, seed=1)
        fm = FailureModel(0.6)
        out = coupled_run(
            lists, fm, 0, [Phase(PhaseKind.BUSY, 10_000)], TrialRandomness(31, 0)
        )
        assert out.dominated
        assert out.delayed.completed and out.undelayed.completed
        assert np.array_equal(out.delayed.informing, out.undelayed.informing)

    def test_single_huge_lazy_phase_is_initiator_sweep(self):
        # at p=1 the delayed run is just the initiator covering everyone
        n = 32
        lists = realize_lists(complete_graph(n), ListStrategy.CANONICAL)
        out = coupled_run(
            lists, FailureModel(1.0), 0, [Phase(PhaseKind.LAZY, 10_000)], TrialRandomness(3, 0)
        )
        assert out.dominated
        assert out.delayed.completed
        assert out.delayed.rounds == n - 1
        assert out.undelayed.rounds <= out.delayed.rounds

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_mixed_schedules_dominated(self, p):
        lists = realize_lists(complete_graph(48), ListStrategy.CANONICAL)
        fm = FailureModel(p)
        schedules = [
            [Phase(PhaseKind.LAZY, 3), Phase(PhaseKind.BUSY, 5), Phase(PhaseKind.LAZY, 2),
             Phase(PhaseKind.BUSY, 40)],
            [Phase(PhaseKind.BUSY, 2), Phase(PhaseKind.LAZY, 4), Phase(PhaseKind.BUSY, 60)],
        ]
        for trial in range(50):
            out = coupled_run(lists, fm, trial % 48, schedules[trial % 2], TrialRandomness(13, trial))
            assert out.dominated

    def test_a_coupled_pair_at_n_1024_peaks_under_88_bytes_a_row(self):
        # criterion 09's pairs at n = 1024, p = 0.5: one round a step keeps a
        # pair's traced peak to its 2,048 rows' state and a round's temporaries
        schedules = (
            [Phase(PhaseKind.LAZY, 2), Phase(PhaseKind.BUSY, 4),
             Phase(PhaseKind.LAZY, 3), Phase(PhaseKind.BUSY, 400)],
            [Phase(PhaseKind.BUSY, 3), Phase(PhaseKind.LAZY, 5), Phase(PhaseKind.BUSY, 2),
             Phase(PhaseKind.LAZY, 1), Phase(PhaseKind.BUSY, 400)],
        )
        lists = realize_lists(complete_graph(1024), ListStrategy.CANONICAL)
        fm = FailureModel(0.5)
        coupled_run(lists, fm, 0, schedules[0], TrialRandomness(7, 40))  # imports, caches
        worst = 0
        tracemalloc.start()
        try:
            for k in range(40):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = coupled_run(lists, fm, 0, schedules[k % 2], TrialRandomness(7, k))
                worst = max(worst, tracemalloc.get_traced_memory()[1] - before)
                assert out.dominated
                del out
        finally:
            tracemalloc.stop()
        assert worst <= 88 * 2048

    def test_default_cap_past_double_range_names_p(self):
        lists = realize_lists(complete_graph(5), ListStrategy.CANONICAL)
        with pytest.raises(ValueError, match=r"not finite .* p=5e-324"):
            coupled_run(lists, FailureModel(5e-324), 0, [], TrialRandomness(1, 0))

    # informing rounds by vertex (-1 for never), delayed copy first; vertex 0 starts
    @pytest.mark.parametrize("delayed, undelayed, dominated", [
        ([0, 3, -1], [0, -1, -1], False),  # a vertex only the delayed copy informed
        ([0, 2, 5], [0, 3, 5], False),  # a vertex the delayed copy informed earlier
        ([0, 3, 5], [0, 3, 5], True),  # equal rounds
        ([0, -1, -1], [0, -1, -1], True),  # never on both sides
        ([0, 5, -1], [0, 2, 4], True),  # the undelayed copy earlier, or alone
    ])
    def test_domination_compares_informing_rounds(self, delayed, undelayed, dominated):
        assert _dominated(np.array(delayed), np.array(undelayed)) is dominated


class _ReferenceDelayedRun:
    """One delayed trial, one round at a time, kept as the reference: the
    every-coin loop of test_engine runs its rounds with the active set as each
    round's mask, so it shares no round code with the engine."""

    def __init__(self, lists, failure, start_vertex, schedule, rng):
        self.n = lists.topology.n
        self.schedule = list(schedule)
        self.t = 0
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[start_vertex] = True
        self.newly = self.informed.copy()  # informed in the latest round
        self.informing = np.where(self.informed, 0, -1)  # the round each vertex was informed in
        self.attempts = np.zeros(self.n, dtype=np.int64)
        self.masks = []  # each round's active set, appended before the loop runs the round
        self.rounds = _every_coin_rounds(
            lists, Protocol.QUASIRANDOM, failure.p, start_vertex, rng, 2**70, self.masks
        )
        self.records = []
        self.phase_idx = -1
        self.offset = 0
        self.active = np.zeros(self.n, dtype=bool)
        self._open_next_phase()

    @property
    def informed_count(self):
        return int(self.informed.sum())

    def _open_next_phase(self):
        while True:
            self.phase_idx += 1
            self.offset = 0
            if self.phase_idx >= len(self.schedule):
                return
            self.active = self.informed & (self.attempts == 0)
            if self.schedule[self.phase_idx].length > 0:
                return
            self._record_current()

    def _record_current(self):
        phase = self.schedule[self.phase_idx]
        newly = int((self.informed & (self.attempts == 0)).sum())
        self.records.append(PhaseRecord(
            index=self.phase_idx, kind=phase.kind, length=phase.length,
            executed=self.offset, informed_after=self.informed_count, newly_after=newly,
        ))

    @property
    def done(self):
        return self.informed_count >= self.n or self.phase_idx >= len(self.schedule)

    def round(self):
        phase = self.schedule[self.phase_idx]
        self.masks.append(self.active)
        informed, _, self.attempts = next(self.rounds)
        self.newly, self.informed = informed & ~self.informed, informed
        self.t += 1
        self.informing[self.newly] = self.t
        self.offset += 1
        if phase.kind is PhaseKind.BUSY:
            self.active = self.active | self.newly
        if self.informed_count >= self.n:
            self._record_current()
        elif self.offset >= phase.length:
            self._record_current()
            self._open_next_phase()

    def result(self):
        if not self.done and self.offset > 0:
            self._record_current()
        return DelayedResult(
            rounds=self.t,
            completed=self.informed_count >= self.n,
            informing=self.informing,
            phases=self.records,
        )


def _reference_delayed(lists, failure, start_vertex, schedule, rng, max_rounds=None):
    runner = _ReferenceDelayedRun(lists, failure, start_vertex, schedule, rng)
    while not runner.done and (max_rounds is None or runner.t < max_rounds):
        runner.round()
    return runner.result()


def _reference_coupled(lists, failure, start_vertex, schedule, rng, max_rounds=None):
    n = lists.topology.n
    if max_rounds is None:
        max_rounds = default_max_rounds(n, failure.p)
    delayed = _ReferenceDelayedRun(lists, failure, start_vertex, schedule, rng)
    und = _every_coin_rounds(lists, Protocol.QUASIRANDOM, failure.p, start_vertex, rng, max_rounds)
    und_informed = delayed.informed.copy()
    und_informing = np.where(und_informed, 0, -1)
    und_t = 0
    dominated = True
    while True:
        moved = False
        if not delayed.done and delayed.t < max_rounds:
            delayed.round()
            moved = True
        und_round = next(und, None)  # None once complete or at max_rounds
        if und_round is not None:
            und_informed = und_round[0]
            und_t += 1
            und_informing[und_informed & (und_informing < 0)] = und_t
            moved = True
        if np.any(delayed.informed & ~und_informed):
            dominated = False
        if not moved:
            break
    undelayed = TrialResult(
        rounds=und_t, completed=bool(und_informed.all()), informing=und_informing,
    )
    return CoupledResult(delayed=delayed.result(), undelayed=undelayed, dominated=dominated)


_HUGE = 2**63 + 5  # a phase no run can finish; its length must survive as a Python int


@st.composite
def delayed_cases(draw):
    """A small delayed run: graph, lists, p, start, schedule and max_rounds."""
    topo = draw(st.sampled_from([complete_graph, star_graph]))
    n = draw(st.integers(3 if topo is star_graph else 1, 12))
    strategy = draw(st.sampled_from(
        [ListStrategy.CANONICAL, ListStrategy.REVERSED, ListStrategy.RANDOM]
    ))
    lengths = st.one_of(st.integers(0, 8), st.just(0), st.just(_HUGE))
    size = draw(st.integers(0, 6))
    schedule = draw(st.lists(
        st.builds(Phase, st.sampled_from(list(PhaseKind)), lengths), min_size=size, max_size=size,
    ))
    huge = any(ph.length == _HUGE for ph in schedule)
    # with no cap, a run inside a phase that never ends may never stop
    caps = st.integers(0, 30) if huge else st.one_of(st.none(), st.integers(0, 30))
    return dict(
        lists=realize_lists(topo(n), strategy, seed=draw(st.integers(0, 99))),
        failure=FailureModel(draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))),
        start_vertex=draw(st.integers(0, n - 1)),
        schedule=schedule,
        rng=TrialRandomness(draw(st.integers(0, 2**40)), draw(st.integers(0, 99))),
        max_rounds=draw(caps),
    )


def _send_window(r, schedule):
    """The rounds [s, e) in which a vertex informed in round r sends: those of
    the first nonzero phase that opens at or after r, or, from r on, those of
    the busy phase running at r; (0, 0) if there is no such phase."""
    begin = 0
    for ph in schedule:
        end = begin + ph.length
        if ph.length and (r <= begin or (ph.kind is PhaseKind.BUSY and r < end)):
            return max(r, begin), end
        begin = end
    return 0, 0


def _assert_same_delayed(got, want):
    assert type(got.rounds) is int and got.rounds == want.rounds
    assert got.completed is want.completed
    assert got.informing.tolist() == want.informing.tolist()
    assert got.phases == want.phases


class TestAgainstSteppedReference:
    @settings(max_examples=200, deadline=None)
    @given(case=delayed_cases())
    def test_run_delayed_equals_reference(self, case):
        _assert_same_delayed(run_delayed(**case), _reference_delayed(**case))

    @settings(max_examples=200, deadline=None)
    @given(case=delayed_cases())
    def test_coupled_run_equals_reference(self, case):
        got, want = coupled_run(**case), _reference_coupled(**case)
        _assert_same_delayed(got.delayed, want.delayed)
        assert type(got.undelayed.rounds) is int and got.undelayed.rounds == want.undelayed.rounds
        assert got.undelayed.completed is want.undelayed.completed
        assert got.undelayed.informing.tolist() == want.undelayed.informing.tolist()
        assert got.dominated is want.dominated

    @settings(max_examples=200, deadline=None)
    @given(case=delayed_cases().filter(lambda case: case["max_rounds"] is not None))
    @example(case=dict(  # a stall whose delayed copy jumps past int64 beside its partner
        lists=realize_lists(complete_graph(8), ListStrategy.CANONICAL),
        failure=FailureModel(0.05), start_vertex=0,
        schedule=[Phase(PhaseKind.LAZY, 1), Phase(PhaseKind.BUSY, 2**64)],
        rng=TrialRandomness(0, 0), max_rounds=2**64 + 3,
    ))
    def test_coupled_delayed_copy_equals_run_delayed(self, case):
        # the undelayed partner shares the batch but not the delayed copy's result
        _assert_same_delayed(coupled_run(**case).delayed, run_delayed(**case))

    @settings(max_examples=200, deadline=None)
    @given(case=delayed_cases())
    def test_each_vertex_sends_in_its_window(self, case):
        runner = _ReferenceDelayedRun(
            case["lists"], case["failure"], case["start_vertex"], case["schedule"], case["rng"]
        )
        cap = case["max_rounds"]
        informing = np.where(runner.informed, 0, -1)
        sent = [[] for _ in range(runner.n)]  # the rounds in which each vertex transmitted
        while not runner.done and (cap is None or runner.t < cap):
            t, before = runner.t, runner.attempts.copy()
            runner.round()
            for v in (runner.attempts > before).nonzero()[0]:
                sent[v].append(t)
            informing[runner.newly] = runner.t
        for v, r in enumerate(informing.tolist()):
            s, e = _send_window(r, case["schedule"]) if r >= 0 else (0, 0)
            assert sent[v] == list(range(s, min(e, runner.t)))

    def test_stall_in_an_endless_phase_ends_with_the_schedule(self):
        # a run whose first transmission fails has no sender left after the
        # first boundary; the stepped loop would spin through all 2**64 rounds
        lists = realize_lists(complete_graph(8), ListStrategy.CANONICAL)
        fm = FailureModel(0.05)
        first = [Phase(PhaseKind.LAZY, 1)]
        seed = next(
            s for s in range(100)
            if run_delayed(lists, fm, 0, first, TrialRandomness(s, 0)).phases[0].newly_after == 0
        )
        sched = first + [Phase(PhaseKind.BUSY, 2**64)]
        res = run_delayed(lists, fm, 0, sched, TrialRandomness(seed, 0))
        assert type(res.rounds) is int and res.rounds == 2**64 + 1
        assert not res.completed
        assert _counts(res.informing, [0, 1, 2**63, 2**64 + 1]) == [1, 1, 1, 1]
        assert [(r.executed, r.informed_after, r.newly_after) for r in res.phases] == [
            (1, 1, 0), (2**64, 1, 0),
        ]

    def test_coupled_stall_jumps_past_int64(self):
        # the delayed copy stalls after its first lazy round and jumps to the
        # end of a busy phase past 2**63 once the undelayed copy completes
        lists = realize_lists(complete_graph(8), ListStrategy.CANONICAL)
        sched = [Phase(PhaseKind.LAZY, 1), Phase(PhaseKind.BUSY, 2**64)]
        out = coupled_run(lists, FailureModel(0.05), 0, sched, TrialRandomness(0, 0), 2**64 + 3)
        assert out.dominated is True
        delayed, undelayed = out.delayed, out.undelayed
        assert type(delayed.rounds) is int and delayed.rounds == 2**64 + 1
        assert delayed.completed is False
        # 140 rounds ran beside the undelayed copy, then the clock jumped to the cap
        assert _counts(delayed.informing, [0, 139, 140, 2**63, 2**64 + 1]) == [1] * 5
        assert [(r.index, r.kind, r.length, r.executed, r.informed_after, r.newly_after)
                for r in delayed.phases] == [
            (0, PhaseKind.LAZY, 1, 1, 1, 0), (1, PhaseKind.BUSY, 2**64, 2**64, 1, 0),
        ]
        assert (undelayed.rounds, undelayed.completed) == (139, True)
        values, first = np.unique(_counts(undelayed.informing, range(140)), return_index=True)
        assert values.tolist() == [1, 2, 3, 4, 6, 7, 8]
        assert first.tolist() == [0, 6, 13, 56, 57, 93, 139]


class TestBusyGrowth:
    def test_sample_smoke(self):
        lists = realize_lists(complete_graph(20_000), ListStrategy.CANONICAL)
        sample = busy_growth_sample(
            lists, FailureModel(1.0), TrialRandomness(1, 0), k=6, min_newly=50, max_informed=200
        )
        assert sample is not None
        assert sample.start_newly >= 50
        assert sample.start_informed <= 200
        assert sample.satisfies(1.0, 6)

    def test_returns_none_when_regime_missed(self):
        lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
        sample = busy_growth_sample(
            lists, FailureModel(1.0), TrialRandomness(1, 0), k=3, min_newly=50, max_informed=16
        )
        assert sample is None

    @pytest.mark.parametrize("name, value", [
        ("k", -2), ("max_warmup", -1), ("min_newly", -1), ("max_informed", -3),
    ])
    def test_negative_window_or_warmup_raises(self, name, value):
        lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
        args = dict(k=3, min_newly=2, max_informed=64, max_warmup=500)
        args[name] = value
        with pytest.raises(ValueError, match=name):
            busy_growth_sample(lists, FailureModel(1.0), TrialRandomness(1, 0), **args)

    @pytest.mark.parametrize("name, value", [
        ("k", 2.5), ("k", 3.0), ("k", True), ("max_warmup", 499.5), ("max_warmup", np.float64(9)),
        ("min_newly", 2.5), ("min_newly", True), ("min_newly", "2"), ("max_informed", math.nan),
    ])
    def test_a_window_or_warmup_that_is_not_an_integer_raises(self, name, value):
        lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
        args = dict(k=3, min_newly=2, max_informed=64, max_warmup=500)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name}: must be an integer"):
            busy_growth_sample(lists, FailureModel(1.0), TrialRandomness(1, 0), **args)

    def test_numpy_integer_window_and_warmup_run_as_python_ints(self):
        lists = realize_lists(complete_graph(64), ListStrategy.RANDOM, seed=4)
        args = dict(min_newly=4, max_informed=64)
        want = busy_growth_sample(
            lists, FailureModel(0.5), TrialRandomness(1, 0), k=3, max_warmup=40, **args
        )
        got = busy_growth_sample(
            lists, FailureModel(0.5), TrialRandomness(1, 0),
            k=np.int64(3), max_warmup=np.uint16(40), **args,
        )
        assert want is not None and got == want

    # (graph, n, lists, p, k, min_newly, max_informed, start, seed, max_warmup)
    # -> (start_round, start_newly, start_informed, end_newly), or None
    GOLDEN = {
        # the window passes the completion at round 7: end_newly is that round's
        ("complete", 12, "canonical", 1.0, 8, 3, 12, 0, 3, 500): (3, 3, 7, 1),
        # one vertex left from round 15, complete at 18: windows that end in
        # its last vertex's tail, on the completion round and past it
        ("complete", 40, "random", 0.5, 10, 4, 40, 0, 5, 500): (6, 4, 13, 0),
        ("complete", 40, "random", 0.5, 11, 4, 40, 0, 5, 500): (6, 4, 13, 0),
        ("complete", 40, "random", 0.5, 12, 4, 40, 0, 5, 500): (6, 4, 13, 1),
        ("complete", 40, "random", 0.5, 13, 4, 40, 0, 5, 500): (6, 4, 13, 1),
        ("complete", 40, "random", 0.5, 0, 4, 40, 0, 5, 500): (6, 4, 13, 4),
        # warm-up caps: |N_t| is 1, 1, 3 in rounds 1 to 3
        ("complete", 30, "random", 1.0, 3, 1, 30, 0, 7, 0): None,
        ("complete", 30, "random", 1.0, 3, 1, 30, 0, 7, 1): (1, 1, 2, 6),
        ("complete", 30, "random", 1.0, 3, 3, 30, 0, 7, 2): None,
        ("complete", 30, "random", 1.0, 3, 3, 30, 0, 7, 3): (3, 3, 6, 6),
        ("complete", 30, "random", 1.0, 3, 3, 30, 2, 7, 3): (3, 4, 8, 7),
        # the star from its center is settled at round 0; from a leaf it never
        # informs two vertices in one round
        ("star", 30, "random", 0.5, 4, 1, 30, 0, 7, 500): (3, 1, 2, 1),
        ("star", 30, "reversed", 0.5, 4, 2, 30, 4, 7, 500): None,
        # |N_t| reaches 50 only once more than 16 vertices know
        ("complete", 64, "canonical", 1.0, 3, 50, 16, 0, 1, 500): None,
        # complete at round 0, 1 and 4
        ("complete", 1, "canonical", 1.0, 3, 0, 16, 0, 1, 500): None,
        ("complete", 2, "canonical", 1.0, 3, 0, 16, 0, 1, 500): (1, 1, 2, 1),
        ("complete", 5, "canonical", 1.0, 3, 0, 16, 0, 1, 500): (1, 1, 2, 1),
    }

    @staticmethod
    def _sample(graph, n, strategy, p, k, min_newly, max_informed, start, seed, max_warmup,
                list_seed=1, trial=0):
        topo = complete_graph(n) if graph == "complete" else star_graph(n)
        lists = realize_lists(topo, ListStrategy(strategy), seed=list_seed)
        sample = busy_growth_sample(
            lists, FailureModel(p), TrialRandomness(seed, trial), k=k, min_newly=min_newly,
            max_informed=max_informed, start_vertex=start, max_warmup=max_warmup,
        )
        if sample is None:
            return None
        return sample.start_round, sample.start_newly, sample.start_informed, sample.end_newly

    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_sample_equals_golden_table(self, case):
        assert self._sample(*case) == self.GOLDEN[case]

    def test_random_grid_equals_golden_digest(self):
        # 400 seeded draws over both graphs, n from 3 to 3,000, every list
        # strategy, p in {1, .5, .2, .05}, k from 0 to 8 and each warm-up cap;
        # 89 give a sample, 14 of them with max_warmup <= 2, and 19 windows
        # reach the completion round
        gen = np.random.default_rng(2008)
        out = []
        for _ in range(400):
            graph = "star" if gen.random() < 0.3 else "complete"
            n = int(math.exp(gen.uniform(math.log(3), math.log(3000))))
            strategy = ["canonical", "reversed", "random"][int(gen.integers(3))]
            list_seed = int(gen.integers(100))
            p = float(gen.choice([1.0, 0.5, 0.2, 0.05]))
            k = int(gen.integers(0, 9))
            max_warmup = int(gen.choice([0, 1, 2, 5, 20, 500]))
            min_newly = int(gen.integers(1, max(2, n // 8) + 1))
            max_informed = int(gen.integers(1, n + 1))
            start = int(gen.integers(n))
            seed, trial = int(gen.integers(2**40)), int(gen.integers(100))
            out.append(self._sample(graph, n, strategy, p, k, min_newly, max_informed, start,
                                    seed, max_warmup, list_seed, trial))
        assert sum(s is not None for s in out) == 89
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == "7003a301bf6a26e78c1e71cc29ed15ab4677bd38e410079ac6d33ed0a198f211"


class TestUpperBoundSchedule:
    def test_reference_constants(self):
        c = schedule_constants(4096, 1.0, 0.5)
        assert c.k_exact == pytest.approx(6.0, abs=1e-12)
        assert c.k == 6
        # frozen from the log-space evaluation: (1/6)(2e)^(-11)
        assert c.zeta == pytest.approx(1.3591878898311915e-09, rel=1e-9)
        assert c.zeta_prime == pytest.approx(c.zeta / 64, rel=1e-12)
        assert c.s_rounds == pytest.approx(6.15e13, rel=0.01)

    def test_k_ceiling_case(self):
        c = schedule_constants(4096, 0.5, 0.5)
        assert c.k_exact == pytest.approx(3 * (math.log(2) / math.log(1.5) + 2), abs=1e-9)
        assert c.k == 12

    def test_layout_and_feasibility(self):
        built = upper_bound_schedule(4096, 1.0, 0.5)
        kinds = [ph.kind for ph in built.schedule]
        startup = math.ceil(0.25 * math.log(4096))
        assert built.schedule[0] == Phase(PhaseKind.LAZY, startup)
        assert built.schedule[1] == Phase(PhaseKind.LAZY, startup)
        busy = [ph for ph in built.schedule if ph.kind is PhaseKind.BUSY]
        assert len(busy) == math.ceil(built.constants.ell_max - 1e-12)
        assert all(ph.length == built.constants.k for ph in busy)
        assert kinds[-2:] == [PhaseKind.LAZY, PhaseKind.LAZY]
        assert built.schedule[-2].length >= int(built.constants.s_rounds)
        assert not built.feasible  # S is astronomically larger than n

    def test_ell_max_reference(self):
        c = schedule_constants(10**6, 1.0, 0.5)
        assert c.ell_max == pytest.approx(1.5 * math.log2(10**6) / 6, rel=1e-12)

    def test_schedule_runs_when_truncated(self):
        # the construction is executable: truncate the huge lazy phase away
        built = upper_bound_schedule(64, 1.0, 0.5)
        sched = [ph for ph in built.schedule if ph.length < 10**6]
        lists = realize_lists(complete_graph(64), ListStrategy.CANONICAL)
        res = run_delayed(lists, FailureModel(1.0), 0, sched, TrialRandomness(0, 0))
        assert res.rounds <= sum(ph.length for ph in sched)


@pytest.mark.parametrize("length", [100000, 2**64])
def test_a_silent_center_jumps_to_the_end_of_a_long_lazy_phase(length):
    # the leaf informs the center in round 1; the center stays silent for the
    # lazy phase while the leaf keeps sending to it, so one step jumps over
    # the phase's useless rounds, past int64 too
    lists = realize_lists(star_graph(3), ListStrategy.CANONICAL)
    start = time.perf_counter()
    res = run_delayed(lists, FailureModel(1.0), 1, [Phase(PhaseKind.LAZY, length)],
                      TrialRandomness(0, 0))
    assert time.perf_counter() - start < 0.05
    assert (res.rounds, res.completed, res.informing.tolist()) == (length, False, [1, 0, -1])
    assert res.phases == [PhaseRecord(0, PhaseKind.LAZY, length, length, 2, 1)]


@st.composite
def coupling_cases(draw):
    """Short lazy and busy phases, then one long final phase."""
    topo = draw(st.sampled_from([complete_graph, star_graph]))
    n = draw(st.integers(3 if topo is star_graph else 1, 12))
    short = st.builds(Phase, st.sampled_from(list(PhaseKind)), st.integers(0, 6))
    schedule = draw(st.lists(short, max_size=6))
    schedule.append(Phase(draw(st.sampled_from(list(PhaseKind))), draw(st.integers(10**4, 10**6))))
    return dict(
        lists=realize_lists(topo(n), draw(st.sampled_from(list(ListStrategy)[:3])),
                            seed=draw(st.integers(0, 99))),
        failure=FailureModel(draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))),
        start_vertex=draw(st.integers(0, n - 1)),
        schedule=schedule,
        rng=TrialRandomness(draw(st.integers(0, 2**40)), draw(st.integers(0, 99))),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=coupling_cases())
def test_a_coupled_run_is_dominated_and_equals_its_two_copies(case):
    # a cap past the schedule's end, so the final phase runs out unless a copy completes
    cap = sum(ph.length for ph in case["schedule"]) + 1
    out = coupled_run(**case, max_rounds=cap)
    assert out.dominated is True
    _assert_same_delayed(out.delayed, run_delayed(**case, max_rounds=cap))
    alone = run(case["lists"], Protocol.QUASIRANDOM, case["failure"], case["start_vertex"],
                case["rng"], cap)
    assert (out.undelayed.rounds, out.undelayed.completed) == (alone.rounds, alone.completed)
    assert out.undelayed.informing.tolist() == alone.informing.tolist()
