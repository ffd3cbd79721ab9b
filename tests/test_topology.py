from __future__ import annotations

import hashlib

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


# list seeds that are negative, zero, small and at or above 2**64, where
# derive_key's masking decides the key (2**70 keys like 0)
LIST_SEEDS = (-5, 0, 11, 2**64 + 3, 2**70)

# sha256 of the RANDOM rows of each vertex, concatenated as little-endian
# int64, for (graph, n, list seed)
RANDOM_TABLE_SHA256 = {
    ("complete", 2, -5):
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
    ("complete", 2, 0):
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
    ("complete", 2, 11):
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
    ("complete", 2, 2**64 + 3):
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
    ("complete", 2, 2**70):
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
    ("complete", 3, -5):
        "f5879a3114447d6ed088f1e081381d0bbd661e8fcd6b345d7a5c3754ffb9b5d2",
    ("complete", 3, 0):
        "3714f4e49ed0ba37aa0f112ba8a7680af6cfc1a45c57e30cb0a8c7c4df441d32",
    ("complete", 3, 11):
        "3714f4e49ed0ba37aa0f112ba8a7680af6cfc1a45c57e30cb0a8c7c4df441d32",
    ("complete", 3, 2**64 + 3):
        "51d681bf20d0b1548c5445e3b936841674e4b4e69c298a580df68f7f169fefdc",
    ("complete", 3, 2**70):
        "3714f4e49ed0ba37aa0f112ba8a7680af6cfc1a45c57e30cb0a8c7c4df441d32",
    ("complete", 64, -5):
        "2927e7d54f8ac7df8320e7f48cf79dc07e1ff477bca68537dd5796c64ec5d1bc",
    ("complete", 64, 0):
        "8b5cbaaff0eed8aa939e1e477e3270c251f65cf97c4d2d9399f5d9d0b780ee1e",
    ("complete", 64, 11):
        "3d60957be8460060801458171917fe1e414bf96eebdf3ce7a5cf8b0bc777097b",
    ("complete", 64, 2**64 + 3):
        "009c52c919e9b84cb3f5fd6a85ebee70ada75334ff370bbb7e87950e7119f50f",
    ("complete", 64, 2**70):
        "8b5cbaaff0eed8aa939e1e477e3270c251f65cf97c4d2d9399f5d9d0b780ee1e",
    ("complete", 2048, -5):
        "509bea8c942d48080ba6f004644d296d03ce9b75a0d30df1f43bf9dd265480e0",
    ("complete", 2048, 0):
        "e512132896a1c443dff82af6ddab1cc80ab9cb3b0b9f235bf062d290b444755b",
    ("complete", 2048, 11):
        "61b32b1efc716268a98ec8145996976dc7a4b9120f2978fe7be7396f3624648c",
    ("complete", 2048, 2**64 + 3):
        "cc108ddd4341708c4637cbceacff520cde53eaf48e39790cb50d0f84662b010b",
    ("complete", 2048, 2**70):
        "e512132896a1c443dff82af6ddab1cc80ab9cb3b0b9f235bf062d290b444755b",
    ("star", 3, -5):
        "949565286ab35f0755e981f3cd8946e0733c8919e5038bae6d5a126cf3e30cc4",
    ("star", 3, 0):
        "949565286ab35f0755e981f3cd8946e0733c8919e5038bae6d5a126cf3e30cc4",
    ("star", 3, 11):
        "949565286ab35f0755e981f3cd8946e0733c8919e5038bae6d5a126cf3e30cc4",
    ("star", 3, 2**64 + 3):
        "466cfdb0881b781be3539ae339b6f94647c7543c20714720b406b0cdf08f08fd",
    ("star", 3, 2**70):
        "949565286ab35f0755e981f3cd8946e0733c8919e5038bae6d5a126cf3e30cc4",
    ("star", 300, -5):
        "89af2306773df5d9726c068a103b763835b9521c19176765e35c14d4436d41bb",
    ("star", 300, 0):
        "efd194466dfa0babf7dc01d5aaf4ad5a6485327f81b0f194751fcebdda0d608d",
    ("star", 300, 11):
        "2ee010ff7dec465ae63d64f054b242d80d680c947110374e7235647147cea621",
    ("star", 300, 2**64 + 3):
        "3ecc7246ae9d333d0958400a9ec37792e202b7f416ede07ef2e0d7ed2e344494",
    ("star", 300, 2**70):
        "efd194466dfa0babf7dc01d5aaf4ad5a6485327f81b0f194751fcebdda0d608d",
}

class TestTopology:
    def test_degrees(self):
        assert complete_graph(5).degree(2) == 4
        assert star_graph(5).degree(0) == 4
        assert star_graph(5).degree(3) == 1
        # a narrow vertex gets its degree in a width that holds the center's
        assert star_graph(300).degree(np.uint8(0)) == 299
        assert star_graph(300).degrees(np.array([0, 7], dtype=np.uint8)).tolist() == [299, 1]
        assert star_graph(2**40).degree(np.int32(0)) == 2**40 - 1

    def test_a_kind_given_as_its_value_runs_as_the_member(self):
        topo = Topology("complete", 5)
        assert topo.kind is GraphKind.COMPLETE and topo == complete_graph(5)
        assert np.all(topo.degrees(np.arange(5)) == 4)  # not a star's [4, 1, 1, 1, 1]
        assert Topology("star", 5).degrees(np.arange(5)).tolist() == [4, 1, 1, 1, 1]

    def test_an_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            Topology("bogus", 5)

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
        with pytest.raises(ValueError, match="n: must be >= 1, got 0"):
            complete_graph(0)
        with pytest.raises(ValueError, match="n: must be >= 3, got 2"):
            star_graph(2)
        with pytest.raises(ValueError, match="vertex: must be in 0..3, got 4"):
            complete_graph(4).degree(4)
        # a float or a bool n would reach numpy's shape arguments
        with pytest.raises(ValueError, match="n: must be an integer, got 4.0"):
            Topology(GraphKind.COMPLETE, 4.0)
        with pytest.raises(ValueError, match="n: must be an integer, got True"):
            Topology(GraphKind.COMPLETE, True)
        with pytest.raises(ValueError, match="vertex: must be an integer, got 1.5"):
            complete_graph(4).neighbors(1.5)

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
    @pytest.mark.parametrize("graph", [complete_graph, star_graph])
    def test_a_strategy_given_as_its_value_runs_as_the_member(self, strategy, graph):
        topo = graph(6)
        by_value = realize_lists(topo, strategy.value, seed=4)
        by_member = realize_lists(topo, strategy, seed=4)
        assert by_value.strategy is strategy
        vertices = np.repeat(np.arange(6), 5)
        positions = np.tile(np.arange(5), 6) % topo.degrees(vertices)
        assert np.array_equal(
            by_value.targets_at(vertices, positions), by_member.targets_at(vertices, positions)
        )
        with pytest.raises(ValueError, match="bogus"):
            realize_lists(topo, "bogus")

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

    def test_targets_at_consistent_with_rows(self, tmp_path):
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
        for topo in (complete_graph(7), star_graph(7)):  # lists files of reversed random rows
            rows = realize_lists(topo, ListStrategy.RANDOM, seed=3)
            path = tmp_path / f"{topo.kind.value}.txt"
            path.write_text("".join(",".join(map(str, rows.row(v)[::-1])) + "\n" for v in range(7)))
            cases.append(load_lists_file(topo, str(path)))
        for lists in cases:
            topo = lists.topology
            degs = np.broadcast_to(topo.degrees(np.arange(topo.n)), topo.n)  # scalar if regular
            vs = np.repeat(np.arange(topo.n), degs)
            ps = np.concatenate([np.arange(d) for d in degs])
            want = np.concatenate([lists.row(v) for v in range(topo.n)])
            got = lists.targets_at(vs, ps)
            assert got.tolist() == want.tolist()
            if lists.strategy in (ListStrategy.RANDOM, ListStrategy.EXPLICIT):  # a table's dtype
                assert got.dtype == np.min_scalar_type(topo.n - 1)

    @pytest.mark.parametrize(
        "topo",
        [complete_graph(2), complete_graph(3), complete_graph(257), star_graph(33),
         complete_graph(2048), complete_graph(256)],
    )
    def test_random_rows_are_keyed_permutations(self, topo):
        # the definition of a RANDOM row: vertex v's canonical row permuted
        # by the generator of (seed, v), read as int64 from any table dtype
        for seed in (17,) + LIST_SEEDS:
            lists = realize_lists(topo, ListStrategy.RANDOM, seed)
            for v in range(topo.n):
                gen = np.random.default_rng(derive_key(seed, v))
                assert np.array_equal(lists.row(v), gen.permutation(topo.neighbors(v)))
                assert lists.row(v).dtype == np.int64

    @pytest.mark.parametrize("kind, n, seed", sorted(RANDOM_TABLE_SHA256, key=repr))
    def test_random_tables_frozen(self, kind, n, seed):
        topo = complete_graph(n) if kind == "complete" else star_graph(n)
        lists = realize_lists(topo, ListStrategy.RANDOM, seed)
        rows = np.concatenate([lists.row(v) for v in range(n)]).astype("<i8")
        assert hashlib.sha256(rows.tobytes()).hexdigest() == RANDOM_TABLE_SHA256[kind, n, seed]

    @pytest.mark.parametrize("topo, dtype", [
        (complete_graph(2), np.uint8),
        (complete_graph(256), np.uint8),
        (complete_graph(257), np.uint16),
        (star_graph(65_536), np.uint16),
        (star_graph(65_537), np.uint32),
    ], ids=["complete-2", "complete-256", "complete-257", "star-65536", "star-65537"])
    def test_table_is_the_narrowest_unsigned_type_of_a_vertex_id(self, topo, dtype):
        lists = realize_lists(topo, ListStrategy.RANDOM, seed=4)
        assert lists._table.dtype == dtype
        assert lists.targets_at(np.array([0]), np.array([0])).dtype == dtype
        explicit = {v: lists.row(v) for v in range(topo.n)}
        assert realize_lists(topo, ListStrategy.EXPLICIT, explicit_rows=explicit)._table.dtype == dtype

    def test_table_takes_two_bytes_a_cell_above_256_vertices(self):
        lists = realize_lists(complete_graph(300), ListStrategy.RANDOM, seed=2)
        assert lists._table.nbytes == 300 * 299 * 2

    @pytest.mark.parametrize(
        "topo", [complete_graph(2), complete_graph(256), complete_graph(257), star_graph(300)],
        ids=["complete-2", "complete-256", "complete-257", "star-300"],
    )
    def test_rows_are_int64_for_every_strategy(self, topo):
        random = realize_lists(topo, ListStrategy.RANDOM, seed=8)
        explicit = {v: random.row(v) for v in range(topo.n)}
        for lists in (
            realize_lists(topo, ListStrategy.CANONICAL),
            realize_lists(topo, ListStrategy.REVERSED),
            random,
            realize_lists(topo, ListStrategy.EXPLICIT, explicit_rows=explicit),
        ):
            assert all(lists.row(v).dtype == np.int64 for v in range(topo.n))

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
        for strategy in (ListStrategy.CANONICAL, ListStrategy.RANDOM):
            with pytest.raises(ValueError, match="explicit_rows only makes sense"):
                realize_lists(topo, strategy, explicit_rows=good)

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
