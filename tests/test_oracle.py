"""Exact-oracle tests.

The set-based enumerators below recompute small-instance laws from raw
protocol semantics, sharing no logic with the oracle module.  For the fully
random push they enumerate every sender's target and coin jointly, and
agreement validates the count-chain DP's symmetry argument.  For the
quasirandom protocol they enumerate every fresh sender's first list position
and every sender's coin jointly, with no merge of coins that cannot matter,
and agreement validates the oracle's collapse and its deferred cursor moves.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from rumorsim import (
    ExactDistribution,
    ListStrategy,
    complete_graph,
    exact_fully_random,
    exact_quasirandom,
    realize_lists,
    star_graph,
    star_fully_random_expectation,
    tv_distance,
)


def enumerate_fully_random(topology, p, horizon, start=0):
    """Exact T-law by brute force over all joint (targets, coins) outcomes."""
    n = topology.n
    neighbor_rows = [list(topology.neighbors(v)) for v in range(n)]
    full = frozenset(range(n))
    states = {frozenset([start]): 1.0}
    mass = [0.0] * (horizon + 1)
    if n == 1:
        mass[0] = 1.0
        return mass, 0.0
    for t in range(1, horizon + 1):
        nxt = {}
        for informed, prob in states.items():
            senders = sorted(informed)
            target_spaces = [neighbor_rows[v] for v in senders]
            for targets in itertools.product(*target_spaces):
                base = prob / math.prod(len(s) for s in target_spaces)
                for coins in itertools.product([True, False], repeat=len(senders)):
                    q = base
                    hits = set()
                    for delivered, tgt in zip(coins, targets):
                        q *= p if delivered else (1.0 - p)
                        if delivered:
                            hits.add(tgt)
                    if q == 0.0:
                        continue
                    new_informed = frozenset(informed | hits)
                    nxt[new_informed] = nxt.get(new_informed, 0.0) + q
        states = {}
        for s, q in nxt.items():
            if s == full:
                mass[t] += q
            else:
                states[s] = q
    return mass, sum(states.values())


def enumerate_quasirandom(lists, p, horizon, start=0):
    """Exact T-law by brute force over all joint (first positions, coins) outcomes.

    A state is (informed set, list positions), a position being None until
    the vertex first sends.  Every sender draws a coin, even towards a vertex
    that already knows the rumor, and advances one slot either way.
    """
    n = lists.topology.n
    rows = [lists.row(v).tolist() for v in range(n)]
    full = frozenset(range(n))
    states = {(frozenset([start]), (None,) * n): 1.0}
    mass = [0.0] * (horizon + 1)
    for t in range(1, horizon + 1):
        nxt = {}
        for (informed, positions), prob in states.items():
            senders = [v for v in sorted(informed) if rows[v]]
            fresh = [v for v in senders if positions[v] is None]
            for firsts in itertools.product(*(range(len(rows[v])) for v in fresh)):
                drawn = list(positions)
                for v, first in zip(fresh, firsts):
                    drawn[v] = first
                base = prob / math.prod(len(rows[v]) for v in fresh)
                for coins in itertools.product([True, False], repeat=len(senders)):
                    q = base
                    hits = set()
                    moved = list(drawn)
                    for delivered, v in zip(coins, senders):
                        q *= p if delivered else (1.0 - p)
                        if delivered:
                            hits.add(rows[v][drawn[v]])
                        moved[v] = (drawn[v] + 1) % len(rows[v])
                    if q == 0.0:
                        continue
                    key = (frozenset(informed | hits), tuple(moved))
                    nxt[key] = nxt.get(key, 0.0) + q
        states = {}
        for (informed, positions), q in nxt.items():
            if informed == full:
                mass[t] += q
            else:
                states[informed, positions] = q
    return mass, sum(states.values())


class TestFullyRandomOracle:
    def test_geometric_on_two_vertices(self):
        p = 0.37
        dist = exact_fully_random(2, p, 40)
        for t in range(1, 41):
            assert dist.prob(t) == pytest.approx((1 - p) ** (t - 1) * p, abs=1e-14)

    def test_three_vertices_lossless(self):
        dist = exact_fully_random(3, 1.0, 80)
        assert dist.prob(2) == pytest.approx(3 / 4, abs=1e-12)
        # the remaining mass decays by 1/4 per extra round
        for j in range(1, 6):
            assert dist.prob(2 + j) == pytest.approx((1 / 4) ** j * (3 / 4), abs=1e-12)
        assert dist.mean() == pytest.approx(7 / 3, abs=1e-10)

    def test_single_vertex_is_done_at_zero(self):
        dist = exact_fully_random(1, 1.0, 4)
        assert dist.prob(0) == 1.0
        assert dist.tail == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.4, 0.7, 1.0])
    def test_matches_joint_enumeration(self, n, p):
        horizon = 10
        mass, tail = enumerate_fully_random(complete_graph(n), p, horizon)
        dist = exact_fully_random(n, p, horizon)
        for t in range(horizon + 1):
            assert dist.prob(t) == pytest.approx(mass[t], abs=1e-12)
        assert dist.tail == pytest.approx(tail, abs=1e-12)

    def test_conservation(self):
        for n, p, horizon in [(2, 0.2, 30), (5, 0.7, 60), (16, 0.9, 100), (64, 1.0, 50)]:
            dist = exact_fully_random(n, p, horizon)
            assert float(dist.mass.sum()) + dist.tail == pytest.approx(1.0, abs=1e-12)
            assert (dist.mass >= -1e-15).all()

    def test_cdf_monotone_in_p(self):
        # higher success probability stochastically speeds up completion
        for n in (3, 4):
            grid = [0.2, 0.4, 0.6, 0.8, 1.0]
            cdfs = [exact_fully_random(n, p, 30).cdf() for p in grid]
            for lo, hi in zip(cdfs, cdfs[1:]):
                assert (hi >= lo - 1e-12).all()

    def test_range_validation(self):
        with pytest.raises(ValueError, match="n: must be in 1..64, got 0"):
            exact_fully_random(0, 1.0, 5)
        with pytest.raises(ValueError, match="n: must be in 1..64, got 65"):
            exact_fully_random(65, 1.0, 5)
        with pytest.raises(ValueError, match="horizon: must be in 0..10000, got 10001"):
            exact_fully_random(4, 1.0, 10_001)
        with pytest.raises(ValueError):
            exact_fully_random(4, 0.0, 5)


class TestQuasirandomOracle:
    def test_three_vertices_lossless_any_lists(self):
        # every list assignment finishes in exactly two rounds
        topo = complete_graph(3)
        base_rows = [list(topo.neighbors(v)) for v in range(3)]
        for flips in itertools.product([False, True], repeat=3):
            rows = {
                v: (row[::-1] if flip else row)
                for v, (row, flip) in enumerate(zip(base_rows, flips))
            }
            lists = realize_lists(topo, ListStrategy.EXPLICIT, explicit_rows=rows)
            dist = exact_quasirandom(3, lists, 1.0, 8)
            assert dist.prob(2) == pytest.approx(1.0, abs=1e-12)

    def test_two_vertices_geometric(self):
        lists = realize_lists(complete_graph(2), ListStrategy.CANONICAL)
        dist = exact_quasirandom(2, lists, 0.5, 8)
        assert dist.prob(1) == pytest.approx(0.5, abs=1e-14)
        assert dist.prob(2) == pytest.approx(0.25, abs=1e-14)

    def test_four_vertices_lossless_canonical_frozen(self):
        lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
        dist = exact_quasirandom(4, lists, 1.0, 8)
        assert dist.prob(2) == pytest.approx(1 / 3, abs=1e-12)
        assert dist.prob(3) == pytest.approx(2 / 3, abs=1e-12)
        assert dist.mean() == pytest.approx(8 / 3, abs=1e-12)

    def test_star_leaf_start_lossless(self):
        # the center wastes one sweep slot on the already-informed start leaf
        # unless that slot comes last, so T=n-1 has probability 1/(n-1)
        for n in (4, 5):
            lists = realize_lists(star_graph(n), ListStrategy.CANONICAL)
            dist = exact_quasirandom(n, lists, 1.0, 8, start_vertex=1)
            assert dist.prob(n - 1) == pytest.approx(1 / (n - 1), abs=1e-12)
            assert dist.prob(n) == pytest.approx((n - 2) / (n - 1), abs=1e-12)

    def test_lossy_four_vertices_frozen(self):
        lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
        dist = exact_quasirandom(4, lists, 0.6, 8)
        assert dist.prob(2) == pytest.approx(0.072, abs=1e-12)
        assert dist.prob(3) == pytest.approx(0.326784, abs=1e-9)
        assert dist.tail == pytest.approx(0.024868, abs=1e-6)

    def test_conservation(self):
        lists = realize_lists(complete_graph(4), ListStrategy.REVERSED)
        for p in (0.3, 0.8):
            dist = exact_quasirandom(4, lists, p, 7)
            assert float(dist.mass.sum()) + dist.tail == pytest.approx(1.0, abs=1e-12)

    def test_cdf_monotone_in_p(self):
        lists = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
        grid = [0.25, 0.5, 0.75, 1.0]
        cdfs = [exact_quasirandom(4, lists, p, 8).cdf() for p in grid]
        for lo, hi in zip(cdfs, cdfs[1:]):
            assert (hi >= lo - 1e-12).all()

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "kind", ["canonical", "reversed", "random0", "star", "explicit1", "explicit2"]
    )
    @pytest.mark.parametrize("p", [0.3, 0.6, 1.0])
    def test_matches_joint_enumeration(self, n, kind, p):
        lists = _grid_lists(n, kind)
        horizon = 5
        for start in (0, n - 1):
            mass, tail = enumerate_quasirandom(lists, p, horizon, start)
            dist = exact_quasirandom(n, lists, p, horizon, start)
            for t in range(horizon + 1):
                assert dist.prob(t) == pytest.approx(mass[t], abs=1e-12)
            assert dist.tail == pytest.approx(tail, abs=1e-12)

    def test_range_validation(self):
        lists = realize_lists(complete_graph(6), ListStrategy.CANONICAL)
        with pytest.raises(ValueError, match="n: must be in 2..5, got 6"):
            exact_quasirandom(6, lists, 1.0, 8)
        lists4 = realize_lists(complete_graph(4), ListStrategy.CANONICAL)
        with pytest.raises(ValueError, match="horizon: must be in 0..8, got 9"):
            exact_quasirandom(4, lists4, 1.0, 9)
        with pytest.raises(ValueError, match="start_vertex: must be in 0..3, got 4"):
            exact_quasirandom(4, lists4, 1.0, 8, start_vertex=4)
        with pytest.raises(ValueError):
            exact_quasirandom(5, lists4, 1.0, 8)  # lists built for another n


class TestIntegerArguments:
    """n, horizon and start_vertex must be integers; a bool or a float names the argument."""

    lists4 = realize_lists(complete_graph(4), ListStrategy.CANONICAL)

    def test_quasi_bool_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            exact_quasirandom(4, self.lists4, 0.6, True)

    def test_fully_random_bool_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            exact_fully_random(5, 0.7, True)

    def test_fully_random_bool_n(self):
        with pytest.raises(ValueError, match="n: must be an integer"):
            exact_fully_random(True, 0.7, 3)

    def test_fractional_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            exact_quasirandom(4, self.lists4, 0.6, 2.5)
        with pytest.raises(ValueError, match="horizon"):
            exact_fully_random(4, 0.6, 2.5)

    def test_fractional_start_vertex(self):
        with pytest.raises(ValueError, match="start_vertex"):
            exact_quasirandom(4, self.lists4, 0.6, 3, start_vertex=1.5)

    def test_float_n(self):
        with pytest.raises(ValueError, match="n: must be an integer"):
            exact_quasirandom(4.0, self.lists4, 0.6, 3)
        with pytest.raises(ValueError, match="n: must be an integer"):
            exact_fully_random(4.0, 0.6, 3)

    def test_star_expectation_fractional_n(self):
        with pytest.raises(ValueError, match="n: must be an integer"):
            star_fully_random_expectation(4.5)

    def test_numpy_integers_stay_valid(self):
        quasi = exact_quasirandom(np.int64(4), self.lists4, 0.6, np.int32(8), np.int64(1))
        expected = exact_quasirandom(4, self.lists4, 0.6, 8, 1)
        assert quasi.mass.tobytes() == expected.mass.tobytes() and quasi.tail == expected.tail
        fully = exact_fully_random(np.int64(5), 0.7, np.int64(60))
        expected = exact_fully_random(5, 0.7, 60)
        assert fully.mass.tobytes() == expected.mass.tobytes() and fully.tail == expected.tail
        assert star_fully_random_expectation(np.int64(4)) == star_fully_random_expectation(4)


# exact_quasirandom digests, frozen before the oracle's state encoding changed.
# A case is (n, lists, p, start, horizon) and hashes sha256(mass.tobytes() +
# repr(tail)); each entry below is the sha256 of its cases' digests over every
# start vertex and the horizons of _grid_horizons, in that order.  Any change
# to the enumeration's float operations or their order shows up here.
ORACLE_GRID = {
    (2, "canonical", 1.0): "07517ea7033ccd1caf0947af2c1bd37b8acd2847bd1bd24ef1c5b45e5314c628",
    (2, "canonical", 0.6): "6e55592828f7f06c2554f1a96ef242f691d9d346a807ccf5da491d5d9b156c64",
    (2, "canonical", 0.3): "ef2fb0860dbd690f3e9023c61f148393fe0813d0a45821e40cb12e12e0c45ef6",
    (2, "reversed", 1.0): "07517ea7033ccd1caf0947af2c1bd37b8acd2847bd1bd24ef1c5b45e5314c628",
    (2, "reversed", 0.6): "6e55592828f7f06c2554f1a96ef242f691d9d346a807ccf5da491d5d9b156c64",
    (2, "reversed", 0.3): "ef2fb0860dbd690f3e9023c61f148393fe0813d0a45821e40cb12e12e0c45ef6",
    (2, "random0", 1.0): "07517ea7033ccd1caf0947af2c1bd37b8acd2847bd1bd24ef1c5b45e5314c628",
    (2, "random0", 0.6): "6e55592828f7f06c2554f1a96ef242f691d9d346a807ccf5da491d5d9b156c64",
    (2, "random0", 0.3): "ef2fb0860dbd690f3e9023c61f148393fe0813d0a45821e40cb12e12e0c45ef6",
    (2, "random1", 1.0): "07517ea7033ccd1caf0947af2c1bd37b8acd2847bd1bd24ef1c5b45e5314c628",
    (2, "random1", 0.6): "6e55592828f7f06c2554f1a96ef242f691d9d346a807ccf5da491d5d9b156c64",
    (2, "random1", 0.3): "ef2fb0860dbd690f3e9023c61f148393fe0813d0a45821e40cb12e12e0c45ef6",
    (2, "random2", 1.0): "07517ea7033ccd1caf0947af2c1bd37b8acd2847bd1bd24ef1c5b45e5314c628",
    (2, "random2", 0.6): "6e55592828f7f06c2554f1a96ef242f691d9d346a807ccf5da491d5d9b156c64",
    (2, "random2", 0.3): "ef2fb0860dbd690f3e9023c61f148393fe0813d0a45821e40cb12e12e0c45ef6",
    (3, "canonical", 1.0): "42b722a67b0c6e483db18457f4b6b8a5daff5489fd09128c4426ae7f3d810b8d",
    (3, "canonical", 0.6): "30e822136a621d21281809af36feed03600bf5f35d8029bfd7b02f4cc1b4f2ab",
    (3, "canonical", 0.3): "da17c35f4ed9604a561469e5877328dc9182ca175832e8f14d9be17cbe0ebcfc",
    (3, "reversed", 1.0): "42b722a67b0c6e483db18457f4b6b8a5daff5489fd09128c4426ae7f3d810b8d",
    (3, "reversed", 0.6): "f64630ad44be7bdd969c174fcdf5d0aa5a5eae28a6cc787d8d3c46662fb8da4f",
    (3, "reversed", 0.3): "6a562e2e9564f3b787ba5da040ffbf26ac9006185f6b21cf32baab8364878d4f",
    (3, "random0", 1.0): "42b722a67b0c6e483db18457f4b6b8a5daff5489fd09128c4426ae7f3d810b8d",
    (3, "random0", 0.6): "2ce2210fbdff425c8257de039f3c9e0a59c2eba7f2a2f92a4d09b6ca2345f068",
    (3, "random0", 0.3): "4c96b878f0fbe5b2d54ed79731123bebb660f481f9db0b3f9293d8112a4378cf",
    (3, "random1", 1.0): "42b722a67b0c6e483db18457f4b6b8a5daff5489fd09128c4426ae7f3d810b8d",
    (3, "random1", 0.6): "11aaba08b75ba9dd77dbfa031f09a750066ac8fae5ea3a087412d5a88349acb5",
    (3, "random1", 0.3): "3b520b52a826806f019bb1d7a356e2ea3e66b147ace9fedf1b37fb85c639082b",
    (3, "random2", 1.0): "42b722a67b0c6e483db18457f4b6b8a5daff5489fd09128c4426ae7f3d810b8d",
    (3, "random2", 0.6): "30e822136a621d21281809af36feed03600bf5f35d8029bfd7b02f4cc1b4f2ab",
    (3, "random2", 0.3): "fc495848dad760bbff7462914bea21d3a7a2282cb0c3ecf84ee5967ab372cf2c",
    (3, "star", 1.0): "3af8818c3f04382b7d6f5d5fbb4560854142c1d35acc683ce0052ac54d3cc6b6",
    (3, "star", 0.6): "da3ddbe59c68162c850d44212d485e562ba459b320681e66f456cbd042236e95",
    (3, "star", 0.3): "c85054e9c3c630ac35c2d31fc464d539b5a4980d494cc8b006b83bd82e903cb4",
    (4, "canonical", 1.0): "c0e6ff8c1fd15ac652cf0ca27dde7ecd046906530c35c17b68aea67f935f7c2d",
    (4, "canonical", 0.6): "114ffe32dfc08feb0f5e9d070f9fc52f061dc0d9ab7c039bc6895e50cfb90eb8",
    (4, "canonical", 0.3): "123dc960f357c95d5035ed28148a21b364751ca8be354d78c045d2449184728a",
    (4, "reversed", 1.0): "c0e6ff8c1fd15ac652cf0ca27dde7ecd046906530c35c17b68aea67f935f7c2d",
    (4, "reversed", 0.6): "259e01cae895d7e7024ea3f8cd2a89b3942cfdefe024516b9d646ad27d9052cf",
    (4, "reversed", 0.3): "99d0f08f93962dbe7697388aedf3995e465a9460844fa7370a775b288cde36b8",
    (4, "random0", 1.0): "c0e6ff8c1fd15ac652cf0ca27dde7ecd046906530c35c17b68aea67f935f7c2d",
    (4, "random0", 0.6): "4ea4643e820fdb727e5ebced87bfbeb20e258e63a232b9e8fda19487c892c78d",
    (4, "random0", 0.3): "791ca3c9ef370bec78a825055fcaad131fcae1a67296f90fbb402ed45d709dc6",
    (4, "random1", 1.0): "c0e6ff8c1fd15ac652cf0ca27dde7ecd046906530c35c17b68aea67f935f7c2d",
    (4, "random1", 0.6): "23999f17db0d6a482a94aabb4470d1e625d712ab05818a2561ea7bd2002bf999",
    (4, "random1", 0.3): "38fe8889fa31ae991613d44b0ee905882b7f7d1f3c4f69b8c244225986f9a528",
    (4, "random2", 1.0): "c0e6ff8c1fd15ac652cf0ca27dde7ecd046906530c35c17b68aea67f935f7c2d",
    (4, "random2", 0.6): "686992c9553840e1e333fc43866eb1c1654e468401913906f97f8c8ec0e2d1d7",
    (4, "random2", 0.3): "a281b54658a96ce870a4387adb3f3d9b86579ea99dde644d1083a624f937b7d9",
    (4, "star", 1.0): "7ac19a1e2f2f5915648bc7bf969ee059ce35fbfddbec8228ee4cf99ca46143f6",
    (4, "star", 0.6): "4af7a37dde040f6aa92d50f05d850b4f3789e012014cd71c57c699a394326d1c",
    (4, "star", 0.3): "b179b9d931c9670f470ed715a4da87aa1380a2d72467c0fc203eb05a4071fc45",
    # the hand-picked lists of _EXPLICIT_ROWS, frozen before the fold's loops were split
    (3, "explicit1", 1.0): "42b722a67b0c6e483db18457f4b6b8a5daff5489fd09128c4426ae7f3d810b8d",
    (3, "explicit1", 0.6): "2ce2210fbdff425c8257de039f3c9e0a59c2eba7f2a2f92a4d09b6ca2345f068",
    (3, "explicit1", 0.3): "4c96b878f0fbe5b2d54ed79731123bebb660f481f9db0b3f9293d8112a4378cf",
    (3, "explicit2", 1.0): "42b722a67b0c6e483db18457f4b6b8a5daff5489fd09128c4426ae7f3d810b8d",
    (3, "explicit2", 0.6): "11aaba08b75ba9dd77dbfa031f09a750066ac8fae5ea3a087412d5a88349acb5",
    (3, "explicit2", 0.3): "6e5c5eecc30edbcb50f9ad94aa38f03397c0bf7c6da384c82f0c1aa623cf37e8",
    (4, "explicit1", 1.0): "c0e6ff8c1fd15ac652cf0ca27dde7ecd046906530c35c17b68aea67f935f7c2d",
    (4, "explicit1", 0.6): "30f04311218cc6977ebfb54f843642d7cad9d1972dc7de4772edbf4ec3e9139b",
    (4, "explicit1", 0.3): "4048136e65a3d7a4af052a420ef6f05186cf75dd534072c4b3c358b0e967b725",
    (4, "explicit2", 1.0): "c0e6ff8c1fd15ac652cf0ca27dde7ecd046906530c35c17b68aea67f935f7c2d",
    (4, "explicit2", 0.6): "b49de022d13ea1372cc6b343c4fb871017bc46abd16aa8c45d89444ad860dfe6",
    (4, "explicit2", 0.3): "15d2f1a3551dae649291f404c98ef941400f256a405b0a30f7c4655ffff8d95c",
    (5, "canonical", 1.0): "9e850e37f0f182bd5e250c0b905b968f680cbdf1fb0a10aed3b7dc847d2f9a66",
    (5, "canonical", 0.6): "5d7a34fc287d0b9e3cd814917395d42b98de226d1e9ff1c6abd0c254b99d2a9d",
    (5, "canonical", 0.3): "f83c06a741440a672a0cdbb812f2757c7f94bf56a97be18cd1170045e4f724f0",
    (5, "reversed", 1.0): "8c53685ea4fe49532710ba032e8452950b5df8cfd87c8bfa8853e8f8b7733339",
    (5, "reversed", 0.6): "184d5184c4e74537595ea47c17f51479fa952fbc89cf0977ccf7720146642444",
    (5, "reversed", 0.3): "84668cf8c7c5eff7e24b2538063524de407b63694d0e7f4198849236e06579ec",
    (5, "random0", 1.0): "0d527ecde83494ea948fb0612ac89360d2de0dd4b2aadc857a74edee1f65e0f0",
    (5, "random0", 0.6): "d370e76c4d1a1d86174e55ebee518bec0dc6d418ee98089a99888e075ff2ab55",
    (5, "random0", 0.3): "61221e456ee9665836bb92809dcac9cb3af82426d375bbc91a3ce090b85deb49",
    (5, "random1", 1.0): "a339c9b73bf2c2a674100586d8dcd0da1c9b99f5ae2224b909d45ffa71184370",
    (5, "random1", 0.6): "af5babd19b419cf94a28124c22af51ab5b4c0716bce38d0453a4fb03b6fd1374",
    (5, "random1", 0.3): "e125543d464ee8e326dc3acfe3d350b276df36035b562e2e4b6d04691895f29e",
    (5, "random2", 1.0): "b742e5a82dc83b70802bcccc9cb5c0e3cdb4451afa4e23e981546d0d9ec832b1",
    (5, "random2", 0.6): "6cccaf3a6296918e4a332b12280bd727f37021f06907ade4b4f989becc6817a8",
    (5, "random2", 0.3): "6a3b4b93dc151aeb5546b0f6011d9b57dccd61dfdad3cc29c5df3d4a266a61ed",
    (5, "star", 1.0): "623d3cb5b19e33eaeb51b050c78938044424d98678858386a8577ef2773cc4b9",
    (5, "star", 0.6): "9041b94596bdffaec474928be83c8c3c92ae3499b8cb2480fbad6af6926bffd6",
    (5, "star", 0.3): "33787552bdaad770cde2bd2cbfea4d86bb8ddf24b55d2ab669b1d3e29497dac8",
}


# hand-picked list assignments, neither canonical nor reversed
_EXPLICIT_ROWS = {
    (3, "explicit1"): {0: [2, 1], 1: [0, 2], 2: [1, 0]},
    (3, "explicit2"): {0: [1, 2], 1: [2, 0], 2: [1, 0]},
    (4, "explicit1"): {0: [3, 1, 2], 1: [2, 0, 3], 2: [1, 3, 0], 3: [0, 2, 1]},
    (4, "explicit2"): {0: [2, 3, 1], 1: [3, 2, 0], 2: [0, 1, 3], 3: [2, 1, 0]},
}


def _grid_lists(n, kind):
    if kind == "star":
        return realize_lists(star_graph(n), ListStrategy.CANONICAL)
    if kind.startswith("random"):
        return realize_lists(complete_graph(n), ListStrategy.RANDOM, int(kind[-1]))
    if kind.startswith("explicit"):
        rows = _EXPLICIT_ROWS[n, kind]
        return realize_lists(complete_graph(n), ListStrategy.EXPLICIT, explicit_rows=rows)
    return realize_lists(complete_graph(n), ListStrategy(kind))


def _grid_horizons(n, kind, start):
    if n < 5:
        return (2, 5, 8)
    # n = 5 at horizon 8 costs up to about 30 ms a case (2 vCPU host), so only
    # two lists run it
    return (2, 4, 8) if start == 0 and kind in ("canonical", "star") else (2, 4)


@pytest.mark.parametrize("n, kind, p", sorted(ORACLE_GRID, key=str))
def test_quasirandom_grid_frozen(n, kind, p):
    lists = _grid_lists(n, kind)
    group = hashlib.sha256()
    for start in range(n):
        for horizon in _grid_horizons(n, kind, start):
            dist = exact_quasirandom(n, lists, p, horizon, start)
            group.update(hashlib.sha256(dist.mass.tobytes() + repr(dist.tail).encode()).digest())
    assert group.hexdigest() == ORACLE_GRID[n, kind, p]


class TestStarExpectation:
    def test_hand_values(self):
        assert star_fully_random_expectation(3) == pytest.approx(3.0, abs=1e-12)
        assert star_fully_random_expectation(4) == pytest.approx(5.5, abs=1e-12)

    def test_large_value_formula(self):
        h254 = sum(1.0 / j for j in range(1, 255))
        assert star_fully_random_expectation(256) == pytest.approx(1 + 255 * h254, abs=1e-9)
        assert 1500 < star_fully_random_expectation(256) < 1620

    def test_harmonic_sum_runs_left_to_right(self):
        # the builtin sum of floats is compensated since Python 3.12, which
        # moves the last bit here; a left-to-right sum gives the same on every version
        harmonic = 0.0
        for j in range(1, 255):
            harmonic += 1.0 / j
        assert star_fully_random_expectation(256) == 1.0 + 255 * harmonic == 1560.7118717684066
        assert math.fsum(1.0 / j for j in range(1, 255)) != harmonic

    def test_matches_star_enumeration(self):
        # independent cross-check through raw protocol semantics on the star
        mass, tail = enumerate_fully_random(star_graph(4), 1.0, 60, start=1)
        truncated_mean = sum(t * q for t, q in enumerate(mass))
        assert tail < 1e-9
        assert truncated_mean == pytest.approx(star_fully_random_expectation(4), abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="n: must be >= 3, got 2"):
            star_fully_random_expectation(2)


def test_a_law_whose_mass_and_tail_miss_one_raises():
    with pytest.raises(ValueError, match="probability mass sums to 0.9"):
        ExactDistribution(horizon=1, mass=np.array([0.5, 0.3]), tail=0.1)


class TestTvDistance:
    def test_zero_for_matching_point_mass(self):
        mass = np.zeros(5)
        mass[2] = 1.0
        dist = ExactDistribution(horizon=4, mass=mass, tail=0.0)
        rounds = np.full(1000, 2)
        completed = np.ones(1000, dtype=bool)
        assert tv_distance(dist, rounds, completed) == 0.0

    def test_disjoint_supports(self):
        mass = np.zeros(5)
        mass[1] = 1.0
        dist = ExactDistribution(horizon=4, mass=mass, tail=0.0)
        rounds = np.full(100, 3)
        completed = np.ones(100, dtype=bool)
        assert tv_distance(dist, rounds, completed) == pytest.approx(1.0)

    def test_incomplete_trials_fall_in_tail(self):
        mass = np.zeros(5)
        mass[1] = 0.5
        dist = ExactDistribution(horizon=4, mass=mass, tail=0.5)
        rounds = np.array([1, 1, 9, 9])
        completed = np.array([True, True, False, False])
        assert tv_distance(dist, rounds, completed) == pytest.approx(0.0)

    def test_rounds_past_int64_count_as_the_tail(self):
        # a run keeps its rounds as objects once max_rounds lies past int64
        mass = np.zeros(5)
        mass[3] = 0.5
        dist = ExactDistribution(horizon=4, mass=mass, tail=0.5)
        completed = np.array([True, False])
        want = tv_distance(dist, np.array([3, 9]), completed)
        assert tv_distance(dist, np.array([3, 2**64], dtype=object), completed) == want == 0.0

    def test_no_trials_raises(self):
        # no empirical law without a trial: not nan and two RuntimeWarnings
        dist = ExactDistribution(horizon=4, mass=np.full(5, 0.2), tail=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rounds in ([], np.array([], dtype=np.int64)):
                with pytest.raises(ValueError, match="trials"):
                    tv_distance(dist, rounds, np.zeros(0, dtype=bool))
