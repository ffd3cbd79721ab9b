from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorsim import (
    GraphKind,
    ListStrategy,
    Topology,
    complete_graph,
    derive_key,
    load_lists_file,
    realize_lists,
    star_graph,
)


class TestTopology:
    def test_degrees(self):
        assert complete_graph(5).degree(2) == 4
        assert star_graph(5).degree(0) == 4
        assert star_graph(5).degree(3) == 1

    def test_live_senders_once_every_trial_is_settled(self):
        # two trials of n = 4 rows; settled means no uninformed vertex has an
        # uninformed neighbor, and then the rows that can still inform one
        complete, star = complete_graph(4), star_graph(4)
        one_left = np.array([1, 1, 0, 1, 0, 1, 1, 1], dtype=bool)
        assert complete.live_senders(one_left).tolist() == [0, 1, 3, 5, 6, 7]
        two_left = np.array([1, 0, 0, 1, 1, 1, 1, 0], dtype=bool)  # 3 left in all
        assert complete.live_senders(two_left) is None
        centers_known = np.array([1, 0, 0, 1, 1, 1, 0, 1], dtype=bool)
        assert star.live_senders(centers_known).tolist() == [0, 4]
        leaf_only = np.array([1, 0, 0, 1, 0, 1, 0, 0], dtype=bool)
        assert star.live_senders(leaf_only) is None

    def test_neighbor_order_skips_self(self):
        topo = complete_graph(4)
        assert list(topo.neighbors(2)) == [0, 1, 3]
        assert list(star_graph(4).neighbors(3)) == [0]
        assert list(complete_graph(2).neighbors(1)) == [0]

    def test_vectorized_matches_scalar(self):
        for topo in (complete_graph(7), star_graph(7)):
            for v in range(topo.n):
                row = topo.neighbors(v)
                got = topo.neighbors_at(
                    np.full(len(row), v), np.arange(len(row))
                )
                assert np.array_equal(got, row)

    def test_validation(self):
        with pytest.raises(ValueError):
            complete_graph(0)
        with pytest.raises(ValueError):
            star_graph(2)
        with pytest.raises(ValueError):
            complete_graph(4).degree(4)

    @given(st.integers(min_value=1, max_value=40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_neighbor_bijection(self, n, use_star):
        if use_star and n < 3:
            n = 3
        topo = star_graph(n) if use_star else complete_graph(n)
        for v in range(topo.n):
            row = topo.neighbors(v)
            assert len(row) == topo.degree(v)
            assert len(set(row.tolist())) == len(row)
            assert v not in row
            expected = set(range(topo.n)) - {v} if not use_star else (
                set(range(1, topo.n)) if v == 0 else {0}
            )
            assert set(row.tolist()) == expected


class TestListAssignment:
    def test_canonical_and_reversed_examples(self):
        topo = complete_graph(3)
        canon = realize_lists(topo, ListStrategy.CANONICAL)
        assert [canon.row(v).tolist() for v in range(3)] == [[1, 2], [0, 2], [0, 1]]
        rev = realize_lists(topo, ListStrategy.REVERSED)
        assert [rev.row(v).tolist() for v in range(3)] == [[2, 1], [2, 0], [1, 0]]

    @pytest.mark.parametrize("strategy", list(ListStrategy)[:3])
    def test_rows_are_neighbor_permutations(self, strategy):
        for topo in (complete_graph(64), star_graph(33)):
            lists = realize_lists(topo, strategy, seed=7)
            for v in range(topo.n):
                row = lists.row(v)
                assert sorted(row.tolist()) == sorted(topo.neighbors(v).tolist())

    def test_realize_idempotent(self):
        topo = complete_graph(31)
        a = realize_lists(topo, ListStrategy.RANDOM, seed=3)
        b = realize_lists(topo, ListStrategy.RANDOM, seed=3)
        for v in range(topo.n):
            assert np.array_equal(a.row(v), b.row(v))

    def test_random_rows_depend_only_on_seed_and_vertex(self):
        a = realize_lists(complete_graph(12), ListStrategy.RANDOM, seed=5)
        b = realize_lists(complete_graph(12), ListStrategy.RANDOM, seed=6)
        assert any(not np.array_equal(a.row(v), b.row(v)) for v in range(12))

    def test_targets_at_consistent_with_rows(self):
        big = complete_graph(257)
        explicit = {v: np.random.default_rng(v).permutation(big.neighbors(v)) for v in range(257)}
        cases = [
            realize_lists(topo, strategy, seed=1)
            for topo in (complete_graph(9), star_graph(9))
            for strategy in (ListStrategy.CANONICAL, ListStrategy.REVERSED, ListStrategy.RANDOM)
        ] + [
            realize_lists(big, ListStrategy.RANDOM, seed=1),
            realize_lists(big, ListStrategy.EXPLICIT, explicit_rows=explicit),
        ]
        for lists in cases:
            topo = lists.topology
            degs = np.broadcast_to(topo.degrees(np.arange(topo.n)), topo.n)  # scalar if regular
            vs = np.repeat(np.arange(topo.n), degs)
            ps = np.concatenate([np.arange(d) for d in degs])
            want = np.concatenate([lists.row(v) for v in range(topo.n)])
            assert lists.targets_at(vs, ps).tolist() == want.tolist()

    @pytest.mark.parametrize(
        "topo", [complete_graph(2), complete_graph(3), complete_graph(257), star_graph(33)]
    )
    def test_random_rows_are_keyed_permutations(self, topo):
        # the definition of a RANDOM row: vertex v's canonical row permuted
        # by the generator of (seed, v)
        seed = 17
        lists = realize_lists(topo, ListStrategy.RANDOM, seed)
        for v in range(topo.n):
            gen = np.random.default_rng(derive_key(seed, v))
            assert np.array_equal(lists.row(v), gen.permutation(topo.neighbors(v)))

    def test_functional_forms_stay_cheap_at_scale(self):
        # canonical/reversed must not materialize the n x (n-1) table
        lists = realize_lists(complete_graph(100_000), ListStrategy.REVERSED)
        got = lists.targets_at(np.array([0, 99_999]), np.array([0, 3]))
        assert got.tolist() == [99_999, 99_995]

    def test_explicit_rows_validated(self):
        topo = complete_graph(3)
        good = {0: [2, 1], 1: [0, 2], 2: [1, 0]}
        lists = realize_lists(topo, ListStrategy.EXPLICIT, explicit_rows=good)
        assert lists.row(0).tolist() == [2, 1]
        with pytest.raises(ValueError):
            realize_lists(
                topo, ListStrategy.EXPLICIT, explicit_rows={0: [1, 1], 1: [0, 2], 2: [1, 0]}
            )
        with pytest.raises(ValueError):
            realize_lists(topo, ListStrategy.EXPLICIT, explicit_rows={0: [2, 1]})
        with pytest.raises(ValueError):
            realize_lists(topo, ListStrategy.EXPLICIT)

    def test_sorting_every_realized_list_recovers_canonical(self):
        topo = star_graph(17)
        lists = realize_lists(topo, ListStrategy.RANDOM, seed=9)
        for v in range(topo.n):
            assert np.array_equal(np.sort(lists.row(v)), topo.neighbors(v))

    def test_lists_file_roundtrip(self, tmp_path):
        path = tmp_path / "lists.txt"
        path.write_text("# center first\n1,2,3\n0\n0\n0\n")
        lists = load_lists_file(star_graph(4), str(path))
        assert lists.row(0).tolist() == [1, 2, 3]
        path.write_text("1,2,3\n0\n0\n")
        with pytest.raises(ValueError):
            load_lists_file(star_graph(4), str(path))
