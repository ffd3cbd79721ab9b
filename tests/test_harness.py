from __future__ import annotations

import gc
import json
import math
import os
import re
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumorsim import (
    ConfigError,
    ExperimentConfig,
    FailureModel,
    Phase,
    PhaseKind,
    Protocol,
    TrialRandomness,
    check_bounds,
    compare,
    harness,
    run,
    run_delayed,
    run_experiment,
    save_schedule,
    summarize,
    topology,
    write_records_csv,
)
from rumorsim.harness import TrialRecord

P_RANGE = "success probability must lie in (0, 1], got p="


def cfg(**kw) -> ExperimentConfig:
    base = dict(protocol="quasi", topology="complete", n=8, p=1.0, trials=4, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [  # each whole message, so a case passes only with its own field named;
            # the ids of the first cases name only the field
            pytest.param(dict(protocol="gossip"), "protocol: expected one of "
                         "('random', 'quasi', 'feedback', 'delayed'), got 'gossip'",
                         id="overrides0-protocol"),
            pytest.param(dict(topology="ring"),
                         "topology: expected one of ('complete', 'star'), got 'ring'",
                         id="overrides1-topology"),
            pytest.param(dict(n=0), "n: must be >= 1, got 0", id="overrides2-n"),
            pytest.param(dict(topology="star", n=2), "n: must be >= 3, got 2", id="overrides3-n"),
            pytest.param(dict(p=0.0), f"{P_RANGE}0.0", id="overrides4-p"),
            pytest.param(dict(p=1.5), f"{P_RANGE}1.5", id="overrides5-p"),
            pytest.param(dict(trials=0), "trials: must be >= 1, got 0", id="overrides6-trials"),
            pytest.param(dict(lists="sorted"), "lists: expected one of "
                         "('canonical', 'reversed', 'random', 'file'), got 'sorted'",
                         id="overrides7-lists"),
            pytest.param(dict(lists="file"), "lists_path: required when lists=file",
                         id="overrides8-lists_path"),
            pytest.param(dict(max_rounds=-1), "max_rounds: must be >= 0, got -1",
                         id="overrides9-max_rounds"),
            pytest.param(dict(start="fixed:99"), "start: must be in 0..7, got 99",
                         id="overrides10-start"),
            pytest.param(dict(start="fixed:x"), "start: bad fixed vertex in 'fixed:x'",
                         id="overrides11-start"),
            pytest.param(dict(start="center"),
                         "start: expected fixed:<v>, sweep or symmetric, got 'center'",
                         id="overrides12-start"),
            pytest.param(dict(schedule_path="s.txt"),
                         "schedule_path: present exactly when protocol=delayed",
                         id="overrides13-schedule_path"),
            pytest.param(dict(protocol="delayed"),
                         "schedule_path: present exactly when protocol=delayed",
                         id="overrides14-schedule_path"),
            # a Python-API config is checked as the CLI's types would check it
            (dict(n=4.0), "n: must be an integer, got 4.0"),
            (dict(n=True), "n: must be an integer, got True"),
            (dict(trials=2.5), "trials: must be an integer, got 2.5"),
            (dict(seed=1.5), "seed: must be an integer, got 1.5"),
            (dict(list_seed=2.5), "list_seed: must be an integer, got 2.5"),
            (dict(max_rounds=2.0), "max_rounds: must be an integer, got 2.0"),
            # a non-number is named by its repr
            pytest.param(dict(p="0.5"), f"{P_RANGE}'0.5'", id="overrides21-got p='0.5'"),
            (dict(p=True), f"{P_RANGE}True"),  # a bool is no probability
            (dict(start=3), "start: must be a string, got 3"),
            (dict(lists="file", lists_path=5), "lists_path: must be a string, got 5"),
            (dict(protocol="delayed", schedule_path=7), "schedule_path: must be a string, got 7"),
            (dict(out_path=1), "out_path: must be a string, got 1"),
            (dict(summary_path=b"s.json"), "summary_path: must be a string, got b's.json'"),
        ],
    )
    def test_errors_name_the_field(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cfg(**overrides).validate()

    def test_valid_config_passes(self):
        cfg().validate()
        cfg(topology="star", n=3, start="fixed:1").validate()

    def test_numpy_integer_seeds_run_as_python_ints(self):
        # the integer rule passes them, so the keys and lists must take them too
        numpy_seeds = run_experiment(cfg(lists="random", seed=np.int64(3), list_seed=np.uint8(4)))
        assert numpy_seeds.records == run_experiment(cfg(lists="random", seed=3, list_seed=4)).records


class TestStartPolicies:
    def test_defaults(self):
        c = cfg(n=5, trials=3)
        assert [c.start_vertex_for(t) for t in range(3)] == [0, 0, 0]
        s = cfg(topology="star", n=5, trials=7)
        assert [s.start_vertex_for(t) for t in range(7)] == [0, 1, 2, 3, 4, 0, 1]

    def test_explicit_policies(self):
        assert cfg(n=6, start="fixed:4").start_vertex_for(123) == 4
        assert cfg(n=6, start="sweep").start_vertex_for(8) == 2
        assert cfg(n=6, start="symmetric").start_vertex_for(8) == 0

    def test_recorded_start_matches_policy(self):
        res = run_experiment(cfg(topology="star", n=4, trials=6, start="sweep"))
        assert [r.start_vertex for r in res.records] == [0, 1, 2, 3, 0, 1]

    @settings(max_examples=80, deadline=None)
    @given(
        topology=st.sampled_from(["complete", "star"]),
        n=st.integers(3, 9),
        policy=st.sampled_from([None, "sweep", "symmetric", "fixed"]),
        first=st.integers(0, 2**40),
        count=st.integers(1, 30),
    )
    @example(topology="complete", n=3, policy="sweep", first=0, count=20)  # more trials than n
    def test_start_array_is_the_per_trial_rule(self, topology, n, policy, first, count):
        start = f"fixed:{n // 2}" if policy == "fixed" else policy
        config = cfg(topology=topology, n=n, start=start)
        trials = list(range(first, first + count))
        sweep = policy == "sweep" or (policy is None and topology == "star")
        rule = [t % n if sweep else n // 2 if policy == "fixed" else 0 for t in trials]
        assert [config.start_vertex_for(t) for t in trials] == rule
        assert config._starts(np.array(trials)).tolist() == rule
        records = run_experiment(replace(config, trials=count)).records  # trials 0 to count - 1
        starts = [config.start_vertex_for(t) for t in range(count)]
        assert [r.start_vertex for r in records] == starts


class TestSummaries:
    def test_order_statistics_are_ordered(self):
        res = run_experiment(cfg(protocol="random", n=32, p=0.6, trials=200))
        s = res.summary
        assert s.completion_rate == 1.0
        assert s.t_min <= s.t_median <= s.t_p95 <= s.t_max
        assert s.t_min <= s.t_mean <= s.t_max

    def test_cdf_is_a_cdf(self):
        s = run_experiment(cfg(protocol="random", n=16, p=0.5, trials=300)).summary
        assert s.cdf_t == sorted(s.cdf_t)
        assert s.cdf_prob == sorted(s.cdf_prob)
        assert s.cdf_prob[-1] == pytest.approx(1.0)

    def test_single_vertex_broadcast_is_instant(self):
        s = run_experiment(cfg(n=1, trials=1)).summary
        assert s.completion_rate == 1.0
        assert s.t_min == s.t_max == 0

    def test_no_completions_yields_nan_stats(self):
        s = summarize([TrialRecord(0, 0, 5, False), TrialRecord(1, 0, 5, False)])
        assert s.completion_rate == 0.0
        assert math.isnan(s.t_mean)
        d = s.to_dict()
        assert d["trials"] == 2

    def test_no_records_raises(self):
        # no completion rate without a record; run_experiment always has one
        with pytest.raises(ValueError, match="trials"):
            summarize([])

    @given(st.lists(
        st.tuples(st.integers(0, 2**62) | st.integers(0, 6), st.booleans()),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=300, deadline=None)
    def test_summary_equals_numpy_statistics(self, outcomes):
        # the reference is numpy's own median, linear percentile and unique
        records = [TrialRecord(i, 0, t, ok) for i, (t, ok) in enumerate(outcomes)]
        done = np.array([t for t, ok in outcomes if ok], dtype=np.int64)
        got = summarize(records)
        if len(done):
            support, counts = np.unique(done, return_counts=True)
            want = harness.SummaryStats(
                trials=len(records),
                completion_rate=len(done) / len(records),
                t_min=float(done.min()),
                t_mean=float(done.mean()),
                t_median=float(np.median(done)),
                t_p95=float(np.percentile(done, 95)),
                t_max=float(done.max()),
                cdf_t=[int(t) for t in support],
                cdf_prob=[float(c) for c in np.cumsum(counts) / len(records)],
            )
        else:
            nan = math.nan
            want = harness.SummaryStats(len(records), 0.0, nan, nan, nan, nan, nan, [], [])
        for f in fields(want):
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name

    def test_summary_dict_schema(self):
        d = run_experiment(cfg(trials=3)).summary.to_dict()
        assert set(d) == {
            "trials", "completion_rate", "min", "mean", "median", "p95", "max", "cdf",
        }
        assert set(d["cdf"]) == {"t", "prob"}


@st.composite
def batch_configs(draw):
    """Small configs whose max_rounds leaves some trials incomplete."""
    topology = draw(st.sampled_from(["complete", "star"]))
    n = draw(st.integers(3 if topology == "star" else 1, 12))
    return ExperimentConfig(
        protocol=draw(st.sampled_from(["random", "quasi", "feedback"])),
        topology=topology,
        n=n,
        p=draw(st.floats(0.05, 1.0)),
        trials=draw(st.integers(1, 16)),
        seed=draw(st.integers(0, 2**40)),
        lists=draw(st.sampled_from(["canonical", "reversed", "random"])),
        list_seed=draw(st.integers(0, 99)),
        start=draw(st.sampled_from([None, "sweep", "symmetric", f"fixed:{n - 1}"])),
        max_rounds=draw(st.integers(0, 30)),
    )


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        paths = []
        for tag in ("one", "two"):
            out = tmp_path / f"records_{tag}.csv"
            summ = tmp_path / f"summary_{tag}.json"
            run_experiment(
                cfg(protocol="feedback", n=24, p=0.7, trials=50, seed=9,
                    out_path=str(out), summary_path=str(summ))
            )
            paths.append((out.read_bytes(), summ.read_bytes()))
        assert paths[0] == paths[1]

    def test_trial_records_independent_of_batch_size(self):
        # trial t depends only on (seed, t), not on how many trials ran
        big = run_experiment(cfg(protocol="random", n=16, p=0.5, trials=20, seed=3))
        small = run_experiment(cfg(protocol="random", n=16, p=0.5, trials=7, seed=3))
        assert big.records[:7] == small.records

    @settings(max_examples=80, deadline=None)
    @given(config=batch_configs(), cells=st.integers(1, 80))
    def test_chunked_records_equal_per_trial_runs(self, config, cells):
        lists = config.build_lists()
        expected = []
        for t in range(config.trials):
            start = config.start_vertex_for(t)
            res = run(lists, Protocol(config.protocol), FailureModel(config.p), start,
                      TrialRandomness(config.seed, t), config.max_rounds)
            expected.append(TrialRecord(t, start, res.rounds, res.completed))
        assert run_experiment(config).records == expected
        with mock.patch.object(harness, "_CHUNK_CELLS", cells):  # other chunk splits
            assert run_experiment(config).records == expected

    @settings(max_examples=60, deadline=None)
    @given(config=batch_configs(), cells=st.integers(1, 80), schedule=st.lists(
        st.builds(Phase, st.sampled_from(list(PhaseKind)), st.integers(0, 8)), max_size=5,
    ))
    def test_delayed_chunked_records_equal_per_trial_runs(
        self, config, cells, schedule, tmp_path_factory
    ):
        path = tmp_path_factory.mktemp("schedule") / "s.txt"
        save_schedule(schedule, str(path))
        config = replace(config, protocol="delayed", schedule_path=str(path))
        lists = config.build_lists()
        expected, expected_phases = [], []
        for t in range(config.trials):
            start = config.start_vertex_for(t)
            res = run_delayed(lists, FailureModel(config.p), start, schedule,
                              TrialRandomness(config.seed, t), config.max_rounds)
            expected.append(TrialRecord(t, start, res.rounds, res.completed))
            expected_phases.append(res.phases)
        for chunk in (harness._CHUNK_CELLS, cells):  # the default split and another
            with mock.patch.object(harness, "_CHUNK_CELLS", chunk):
                result = run_experiment(config)
            assert result.records == expected
            assert result.phase_records == expected_phases

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "records.csv"
        write_records_csv([TrialRecord(0, 2, 11, True), TrialRecord(1, 0, 40, False)], str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,start_vertex,rounds,completed"
        assert lines[1] == "0,2,11,true"
        assert lines[2] == "1,0,40,false"

    def test_summary_json_round_trips(self, tmp_path):
        summ = tmp_path / "s.json"
        res = run_experiment(cfg(trials=5, summary_path=str(summ)))
        assert json.loads(summ.read_text()) == res.summary.to_dict()


class TestCompare:
    def test_identical_configs_give_unit_ratio(self):
        a = cfg(protocol="random", n=32, p=0.5, trials=60, seed=5)
        out = compare(a, cfg(protocol="random", n=32, p=0.5, trials=60, seed=5))
        assert out.median_ratio == 1.0
        assert out.mean_ratio == 1.0
        assert out.median_ci[0] <= 1.0 <= out.median_ci[1]

    def test_lossy_arm_is_slower(self):
        a = cfg(protocol="quasi", n=64, p=1.0, trials=80, seed=2)
        b = cfg(protocol="quasi", n=64, p=0.5, trials=80, seed=2)
        out = compare(a, b)
        assert out.mean_ratio > 1.3
        assert out.mean_ci[0] > 1.0

    def test_an_arm_that_completes_no_trial_raises(self):
        with pytest.raises(ConfigError, match="trials: comparison needs completed trials"):
            compare(cfg(), cfg(max_rounds=0))

    def test_a_thousand_trials_an_arm_keep_their_ratios_in_bounded_memory(self):
        # frozen from one (10,000 x 1,000) draw per arm, which peaked at 307 MiB
        # traced; resamples drawn in blocks take the same integers from gen
        a = cfg(protocol="random", n=16, p=0.3, trials=1000, seed=3)
        b = cfg(protocol="quasi", n=16, p=0.25, trials=1000, seed=4)
        tracemalloc.start()
        try:
            out = compare(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.median_ratio, out.mean_ratio) == (1.0952380952380953, 1.1118052072408917)
        assert out.median_ci == (1.0454545454545454, 1.1428571428571428)
        assert out.mean_ci == (1.0861442931487584, 1.1376847460606652)
        assert peak < 64 * 2**20

    def test_dict_shape_and_persistence(self, tmp_path):
        summ = tmp_path / "cmp.json"
        a = cfg(trials=10, summary_path=str(summ))
        out = compare(a, cfg(trials=10))
        d = json.loads(summ.read_text())
        assert d == out.to_dict()
        assert set(d["ratio"]) == {"median", "mean", "median_ci95", "mean_ci95", "resamples"}


class TestCheckBounds:
    def test_wide_window_passes(self):
        rep = check_bounds(cfg(protocol="random", n=128, p=0.5, trials=100, seed=4), eps=0.99)
        assert rep.passed
        assert rep.frac_below_lower <= 0.05
        assert rep.frac_above_upper <= 0.05

    def test_incomplete_trials_count_against_upper(self):
        rep = check_bounds(
            cfg(protocol="random", n=128, p=0.5, trials=20, seed=4, max_rounds=2), eps=0.99
        )
        assert rep.frac_above_upper == 1.0
        assert not rep.passed

    def test_summary_written_once(self, tmp_path):
        summ = tmp_path / "check.json"
        with mock.patch.object(harness, "write_json", wraps=harness.write_json) as write:
            rep = check_bounds(cfg(trials=5, summary_path=str(summ)), eps=0.5)
        assert write.call_count == 1
        assert json.loads(summ.read_text()) == rep.to_dict()

    def test_report_dict_keys(self):
        rep = check_bounds(cfg(trials=5), eps=0.5)
        assert set(rep.to_dict()) == {
            "n", "p", "eps", "trials", "lower", "upper",
            "frac_below_lower", "frac_above_upper", "threshold", "passed",
        }


class TestDelayedThroughHarness:
    def test_schedule_file_drives_run(self, tmp_path):
        sched = tmp_path / "sched.txt"
        sched.write_text("# warm up\nbusy,64\n")
        res = run_experiment(
            cfg(protocol="delayed", n=16, p=1.0, trials=3, schedule_path=str(sched))
        )
        assert all(r.completed for r in res.records)
        assert len(res.phase_records) == 3
        for phases in res.phase_records:
            assert phases[0].kind.value == "busy"


class TestColumns:
    """A run keeps its trials as columns and builds records only when read."""

    def test_a_run_retains_at_most_24_bytes_a_trial(self):
        config = cfg(protocol="random", n=3, p=0.5, trials=100_000, seed=8)
        run_experiment(replace(config, trials=10))  # first-call caches are not the run's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_experiment(config)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.summary.trials == 100_000 and "records" not in vars(result)
        assert retained <= 24 * 100_000  # start, rounds and completed: 17 B a trial

    def test_no_object_per_trial_until_records_are_read(self, monkeypatch, tmp_path):
        made = []
        init = TrialRandomness.__init__

        def counting(self, *args):
            made.append(args)
            init(self, *args)

        def live_records():
            return sum(isinstance(o, TrialRecord) for o in gc.get_objects())

        monkeypatch.setattr(TrialRandomness, "__init__", counting)
        before = live_records()
        result = run_experiment(cfg(
            protocol="quasi", n=6, p=0.5, trials=500, seed=3,
            out_path=str(tmp_path / "r.csv"), summary_path=str(tmp_path / "s.json"),
        ))
        assert made == [] and live_records() == before
        records = result.records
        assert made == [] and live_records() == before + 500
        assert result.records is records

    def test_records_are_frozen_trial_records(self):
        records = run_experiment(cfg(protocol="random", n=5, p=0.5, trials=3, seed=1)).records
        built = [TrialRecord(r.trial, r.start_vertex, r.rounds, r.completed) for r in records]
        assert records == built and list(map(hash, records)) == list(map(hash, built))
        assert [type(r.rounds) for r in records] == [int] * 3
        with pytest.raises(FrozenInstanceError):
            records[0].rounds = 1

    @pytest.mark.parametrize("trials", [1, harness._CSV_ROWS, 2 * harness._CSV_ROWS + 3])
    def test_columns_and_records_write_and_summarize_alike(self, trials, tmp_path):
        result = run_experiment(cfg(protocol="random", n=7, p=0.4, trials=trials, seed=6,
                                    out_path=str(tmp_path / "run.csv")))
        write_records_csv(result.records, str(tmp_path / "records.csv"))
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert (tmp_path / "records.csv").read_text().splitlines() == lines
        assert lines[1:] == [
            f"{r.trial},{r.start_vertex},{r.rounds},{str(r.completed).lower()}"
            for r in result.records
        ]
        assert summarize(result.records) == result.summary

    def test_rounds_past_int64_are_kept_and_written(self, tmp_path):
        # a trial whose first transmission fails has no sender after the lazy
        # round, and stops at the end of the endless busy phase, past int64
        sched = tmp_path / "s.txt"
        sched.write_text(f"lazy,1\nbusy,{2**64}\n")
        out = tmp_path / "r.csv"
        config = cfg(protocol="delayed", n=8, p=0.05, trials=3, seed=2, max_rounds=2**64 + 3,
                     schedule_path=str(sched), out_path=str(out))
        result = run_experiment(config)
        assert [(r.rounds, r.completed) for r in result.records] == [(2**64 + 1, False)] * 3
        assert out.read_text().splitlines()[1:] == [f"{t},0,{2**64 + 1},false" for t in range(3)]
        assert result.summary.completion_rate == 0.0
        assert check_bounds(config, eps=0.5).frac_above_upper == 1.0

    def test_a_stall_after_a_minority_completes_returns_at_the_caps(self, tmp_path):
        # three of ten trials complete in the endless busy phase; the rest lost
        # their one lazy send and stall, which stops them at once at their caps
        sched = tmp_path / "s.txt"
        sched.write_text(f"lazy,1\nbusy,{2**64}\n")
        config = cfg(protocol="delayed", n=8, p=0.2, trials=10, seed=3, max_rounds=2**64 + 3,
                     schedule_path=str(sched), out_path=str(tmp_path / "r.csv"))
        records = run_experiment(config).records
        assert sum(r.completed for r in records) == 3
        assert all(r.rounds < 100 for r in records if r.completed)
        assert {r.rounds for r in records if not r.completed} == {2**64 + 1}


class TestWriters:
    RECORDS = [TrialRecord(0, 2, 11, True), TrialRecord(1, 0, 40, False)]
    CSV = b"trial,start_vertex,rounds,completed\n0,2,11,true\n1,0,40,false\n"
    PAYLOAD = {"b": [1, 2.5], "a": float("nan")}
    JSON = b'{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'

    def write_both(self, tmp_path):
        write_records_csv(self.RECORDS, str(tmp_path / "r.csv"))
        harness.write_json(self.PAYLOAD, str(tmp_path / "s.json"))
        return (tmp_path / "r.csv").read_bytes(), (tmp_path / "s.json").read_bytes()

    def test_a_longer_file_is_cut_to_the_new_bytes(self, tmp_path):
        for name in ("r.csv", "s.json"):
            (tmp_path / name).write_bytes(b"old junk line\n" * 100)
        inode = (tmp_path / "r.csv").stat().st_ino
        assert self.write_both(tmp_path) == (self.CSV, self.JSON)
        assert (tmp_path / "r.csv").stat().st_ino == inode  # written in place

    def test_a_new_file_takes_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            self.write_both(tmp_path)
        finally:
            os.umask(old)
        assert (tmp_path / "r.csv").stat().st_mode & 0o777 == 0o640

    def test_records_are_streamed_not_held_as_one_text(self, tmp_path):
        records = [TrialRecord(i, i % 97, 1000 + i % 5000, True) for i in range(50_000)]
        tracemalloc.start()
        try:
            write_records_csv(records, str(tmp_path / "r.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "r.csv").stat().st_size
        assert size > 500_000 and peak < size // 8  # a few buffers, not the whole CSV
        assert (tmp_path / "r.csv").read_text().splitlines()[-1] == "49999,44,5999,true"

    def test_a_device_is_written_without_truncation(self):
        write_records_csv(self.RECORDS, os.devnull)
        harness.write_json(self.PAYLOAD, os.devnull)

    def test_a_pipe_takes_every_byte_of_writes_it_takes_in_part(self):
        # more text than a pipe buffer holds, drained by a reader thread, and
        # every os.write cut short, so the writer must continue each one
        chunks = [f"{i:07d}," * 9_000 + "\n" for i in range(12)]  # 72 KB each
        read_fd, write_fd = os.pipe()
        received = []
        reader = threading.Thread(target=lambda: received.append(_drain(read_fd)))
        reader.start()
        sizes, real_write = [], os.write

        def short_write(fd, data):
            sizes.append(len(data))
            return real_write(fd, bytes(data[:50_000]))

        try:
            with mock.patch.object(topology.os, "write", short_write):
                topology._write_text(f"/dev/fd/{write_fd}", chunks)
        finally:
            os.close(write_fd)
            reader.join(timeout=60)
            os.close(read_fd)
        assert not reader.is_alive()
        assert received == ["".join(chunks).encode()]
        assert len(sizes) == 2 * len(chunks)  # each chunk took two writes


def _drain(fd: int) -> bytes:
    parts = []
    while part := os.read(fd, 1 << 16):
        parts.append(part)
    return b"".join(parts)


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.text()
    | st.floats(allow_infinity=False)  # NaN included
    | st.sampled_from([-0.0, 1e300, 5e-324, 2**63, 2**64 + 1, "\"\\\x00\x1f\u2028\U0001f600"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(value=_JSON_VALUES)
    @example(value={"b": [1, 2.5], "a": float("nan"), "c": {}, "d": [], "é": ("x", None)})
    def test_equals_json_with_nan_as_null(self, value):
        def nan_to_none(v):
            if isinstance(v, float) and math.isnan(v):
                return None
            if isinstance(v, dict):
                return {k: nan_to_none(x) for k, x in v.items()}
            return [nan_to_none(x) for x in v] if isinstance(v, (list, tuple)) else v

        want = json.dumps(nan_to_none(value), indent=2, sort_keys=True, allow_nan=False)
        assert harness._json_text(value) == want

    @pytest.mark.parametrize("value", [math.inf, {"a": [1, -math.inf]}])
    def test_inf_raises_value_error(self, value):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            harness._json_text(value)

    def test_a_numpy_int_raises_type_error(self):
        with pytest.raises(TypeError, match="Object of type int64 is not JSON serializable"):
            harness._json_text({"a": [np.int64(3)]})
