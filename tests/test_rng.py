from __future__ import annotations

import numpy as np
import pytest

from rumorsim import TrialRandomness, derive_key, mix64
from rumorsim.rng import RowRandomness


def test_mix64_is_deterministic_and_bounded():
    assert mix64(0) == mix64(0)
    for x in (0, 1, 2**63, 2**64 - 1, 123456789):
        assert 0 <= mix64(x) < 2**64


def test_derive_key_order_sensitive():
    assert derive_key(1, 2) != derive_key(2, 1)
    assert derive_key(1, 2, 3) != derive_key(1, 2)
    assert derive_key(5) == derive_key(5)


def test_same_address_same_draw():
    rng = TrialRandomness(42, 7)
    v = np.array([0, 3, 9])
    o = np.array([0, 1, 2])
    first = rng.coin_uniforms(v, o)
    again = TrialRandomness(42, 7).coin_uniforms(v, o)
    assert np.array_equal(first, again)


def test_draws_do_not_depend_on_history():
    fresh = TrialRandomness(9, 0)
    warm = TrialRandomness(9, 0)
    warm.coin_uniforms(np.arange(100), np.zeros(100, dtype=np.int64))
    warm.target_indices(np.arange(50), np.arange(50), np.full(50, 7))
    v = np.array([4])
    o = np.array([11])
    assert fresh.feedback_uniforms(v, o) == warm.feedback_uniforms(v, o)


def test_purposes_decorrelated():
    rng = TrialRandomness(1, 1)
    v = np.arange(1000)
    o = np.zeros(1000, dtype=np.int64)
    coins = rng.coin_uniforms(v, o)
    feedback = rng.feedback_uniforms(v, o)
    assert abs(np.corrcoef(coins, feedback)[0, 1]) < 0.1


def test_trials_decorrelated():
    v = np.arange(2000)
    o = np.zeros(2000, dtype=np.int64)
    a = TrialRandomness(3, 0).coin_uniforms(v, o)
    b = TrialRandomness(3, 1).coin_uniforms(v, o)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_uniforms_in_unit_interval_and_flat():
    rng = TrialRandomness(0, 0)
    u = rng.coin_uniforms(np.arange(200_000), np.zeros(200_000, dtype=np.int64))
    assert (u >= 0).all() and (u < 1).all()
    # mean 0.5 +/- ~0.002 and each decile near 10%
    assert abs(u.mean() - 0.5) < 0.005
    hist, _ = np.histogram(u, bins=10, range=(0, 1))
    assert (np.abs(hist - 20_000) < 1000).all()


def test_target_indices_uniform_over_degree():
    rng = TrialRandomness(11, 5)
    deg = 7
    idx = rng.target_indices(
        np.zeros(70_000, dtype=np.int64),
        np.arange(70_000),
        np.full(70_000, deg),
    )
    assert idx.min() >= 0 and idx.max() < deg
    counts = np.bincount(idx, minlength=deg)
    assert (np.abs(counts - 10_000) < 600).all()


def test_initial_positions_respect_degrees():
    rng = TrialRandomness(2, 2)
    degs = np.array([1, 2, 3, 1000])
    pos = rng.initial_positions(np.array([0, 1, 2, 3]), degs)
    assert ((pos >= 0) & (pos < degs)).all()


def test_rows_draw_what_their_trials_draw():
    trials = [TrialRandomness(6, t) for t in (0, 3, 4)]
    n = 5
    rows = RowRandomness(trials, n)
    r = np.array([0, 4, 5, 9, 13, 14, 7])
    o = np.array([0, 3, 1, 2**40, 7, 0, 5])
    degs = np.array([4, 4, 4, 1, 3, 2, 9])
    b, v = r // n, r % n

    def per_trial(draw, *args):
        return np.array([
            getattr(trials[bi], draw)(np.array([vi]), *(a[i:i + 1] for a in args))[0]
            for i, (bi, vi) in enumerate(zip(b, v))
        ])

    assert np.array_equal(rows.coin_uniforms(r, o), per_trial("coin_uniforms", o))
    assert np.array_equal(rows.feedback_uniforms(r, o), per_trial("feedback_uniforms", o))
    assert np.array_equal(rows.target_indices(r, o, degs), per_trial("target_indices", o, degs))
    assert np.array_equal(rows.initial_positions(r, degs), per_trial("initial_positions", degs))

    rows.keep(np.array([True, False, True]))  # trial 3 leaves; trial 4 moves up a block
    moved = np.array([0, 4, 5, 9])
    expected = np.concatenate([
        trials[0].coin_uniforms(np.array([0, 4]), o[:2]),
        trials[2].coin_uniforms(np.array([0, 4]), o[2:4]),
    ])
    assert np.array_equal(rows.coin_uniforms(moved, o[:4]), expected)


def test_cached_is_built_once_per_size():
    rng = TrialRandomness(1, 2)
    assert rng.cached(8) is rng.cached(8)
    v = np.arange(8)
    o = np.arange(8) * 3
    assert np.array_equal(rng.cached(8).coin_uniforms(v, o), rng.coin_uniforms(v, o))
