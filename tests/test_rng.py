from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumorsim import TrialRandomness, derive_key, mix64
from rumorsim import rng as rng_module
from rumorsim.cli import main
from rumorsim.rng import RowRandomness, _derive_keys, _keys_of, _pcg64_states, _purpose_keys, _words


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
    rows = RowRandomness(_purpose_keys(trials), n)
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

    rows.keep(np.array([0, 2]))  # trial 3 leaves; trial 4 moves up a block
    moved = np.array([0, 4, 5, 9])
    expected = np.concatenate([
        trials[0].coin_uniforms(np.array([0, 4]), o[:2]),
        trials[2].coin_uniforms(np.array([0, 4]), o[2:4]),
    ])
    assert np.array_equal(rows.coin_uniforms(moved, o[:4]), expected)


def test_keep_drops_a_middle_trial_by_its_number():
    # the kept rows draw what rows built from the surviving trials' keys draw,
    # cached first stages and all
    n = 4
    trials = [TrialRandomness(9, t) for t in range(4)]
    rows = RowRandomness(_purpose_keys(trials), n)
    r, o, degs = np.arange(4 * n), np.arange(4 * n) * 5, np.full(4 * n, 3)
    rows.coin_uniforms(r, o), rows.feedback_uniforms(r, o), rows.target_indices(r, o, degs)
    rows.keep(np.array([0, 2, 3]))  # trial 1 leaves; trials 2 and 3 move up a block
    rebuilt = RowRandomness(_purpose_keys([trials[0], trials[2], trials[3]]), n)
    r, o, degs = r[:3 * n], o[:3 * n], degs[:3 * n]
    assert rows.trials == 3 and np.array_equal(rows._trial_keys, rebuilt._trial_keys)
    assert np.array_equal(rows.coin_uniforms(r, o), rebuilt.coin_uniforms(r, o))
    assert np.array_equal(rows.feedback_uniforms(r, o), rebuilt.feedback_uniforms(r, o))
    assert np.array_equal(rows.target_indices(r, o, degs), rebuilt.target_indices(r, o, degs))
    assert np.array_equal(rows.initial_positions(r, degs), rebuilt.initial_positions(r, degs))
    assert all(np.array_equal(first, rebuilt._first[k]) for k, first in rows._first.items())


@pytest.mark.parametrize("seed, trial, name", [
    (2.7, 1, "master_seed"), ("5", 1, "master_seed"), (np.float64(2), 0, "master_seed"),
    (2, 1.9, "trial"), (5, True, "trial"),
])
def test_a_seed_or_trial_that_is_not_an_integer_raises(seed, trial, name):
    # int() would truncate 2.7 to 2, parse "5" and read True as 1
    with pytest.raises(ValueError, match=f"^{name}: must be an integer"):
        TrialRandomness(seed, trial)


def test_seeds_and_trials_take_any_integer():
    # no range: each is masked to 64 bits, and a numpy integer runs as its value
    v = np.arange(3)
    big = TrialRandomness(np.uint64(2**64 - 1), -3).coin_uniforms(v, v)
    assert np.array_equal(big, TrialRandomness(-1, 2**64 - 3).coin_uniforms(v, v))


def test_trial_keys_are_derived_once():
    rng = TrialRandomness(1, 2)
    v = np.arange(8)
    o = np.arange(8) * 3
    with mock.patch.object(rng_module, "_purpose_keys", wraps=rng_module._purpose_keys) as spy:
        coins = rng.coin_uniforms(v, o)
        assert np.array_equal(rng.coin_uniforms(v, o), coins)
        rng.target_indices(v, o, np.full(8, 7))
    assert spy.call_count == 1
    assert np.array_equal(RowRandomness(_purpose_keys([rng]), 8).coin_uniforms(v, o), coins)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 6),
    trials=st.integers(1, 3),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2**62), st.integers(1, 9)),
                   min_size=1, max_size=12),
    ordinal_dtype=st.sampled_from([np.int64, np.uint64]),
    stride=st.integers(1, 3),
)
def test_second_stage_in_place_equals_out_of_place_and_writes_no_argument(
    seed, n, trials, picks, ordinal_dtype, stride
):
    rngs = [TrialRandomness(seed, t) for t in range(trials)]
    rows = RowRandomness(_purpose_keys(rngs), n)

    def strided(values, dtype):  # every stride-th cell of a larger buffer: a view unless stride 1
        return np.repeat(np.array(values, dtype=dtype), stride)[::stride]

    r = strided([i % (trials * n) for i, _, _ in picks], np.int64)
    o = strided([o for _, o, _ in picks], ordinal_dtype)
    degs = strided([d for _, _, d in picks], np.int64)
    args = [r, o, degs]
    saved = [a.copy() for a in args]
    keys = rng_module._purpose_keys(rngs)

    def out_of_place(purpose, ordinals):
        """_mix_array(first ^ ordinal * G), with the first stage made anew."""
        key = keys[r // n, rng_module._PURPOSES.index(purpose)]
        first = rng_module._mix_array(key ^ ((r % n).astype(np.uint64) * rng_module._G))
        return rng_module._mix_array(first ^ (ordinals.astype(np.uint64) * rng_module._G))

    def uniforms(h):
        return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def indices(h):
        return (h % degs.astype(np.uint64)).astype(np.int64)

    coin = uniforms(out_of_place(rng_module.PURPOSE_COIN, o))
    feedback = uniforms(out_of_place(rng_module.PURPOSE_FEEDBACK, o))
    target = indices(out_of_place(rng_module.PURPOSE_TARGET, o))
    initial = indices(out_of_place(rng_module.PURPOSE_INITIAL, np.zeros(len(r), dtype=np.uint64)))
    for _ in range(2):  # the second round gathers the kept first stages
        cached = {purpose: first.copy() for purpose, first in rows._first.items()}
        assert np.array_equal(rows.coin_uniforms(r, o), coin)
        assert np.array_equal(rows.feedback_uniforms(r, o), feedback)
        assert np.array_equal(rows.target_indices(r, o, degs), target)
        assert np.array_equal(rows.initial_positions(r, degs), initial)
        assert all(np.array_equal(rows._first[k], first) for k, first in cached.items())
        assert all(np.array_equal(a, b) for a, b in zip(args, saved))
    for b, rng in enumerate(rngs):  # one trial's draws, on its vertices
        mine = r // n == b
        v, ob, db = (r % n)[mine], o[mine], degs[mine]
        assert np.array_equal(rng.coin_uniforms(v, ob), coin[mine])
        assert np.array_equal(rng.feedback_uniforms(v, ob), feedback[mine])
        assert np.array_equal(rng.target_indices(v, ob, db), target[mine])
        assert np.array_equal(rng.initial_positions(v, db), initial[mine])
    assert all(np.array_equal(a, b) for a, b in zip(args, saved))
    assert np.array_equal(rng_module._purpose_keys(rngs), keys)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.one_of(st.integers(-(2**70), -1), st.integers(0, 2**64 - 1), st.integers(2**64, 2**70)),
    first=st.integers(0, 2**62),
    count=st.integers(1, 4),
    n=st.integers(1, 5),
    ordinal=st.integers(0, 2**40),
)
@example(seed=-1, first=0, count=3, n=4, ordinal=0)
@example(seed=2**64 + 7, first=2**40, count=2, n=3, ordinal=5)
def test_rows_from_arrays_draw_what_each_trial_draws(seed, first, count, n, ordinal):
    # a harness chunk: one masked seed for all, and its trial numbers as an array
    trials = np.arange(first, first + count, dtype=np.uint64)
    rows = RowRandomness(_keys_of(_words([seed]), trials), n)
    rngs = [TrialRandomness(seed, t) for t in range(first, first + count)]
    assert np.array_equal(rows._trial_keys, _purpose_keys(rngs))
    r = np.arange(count * n)
    v, o, degs = r % n, np.full(len(r), ordinal), r % 3 + 1

    def per_trial(draw, *args):
        return np.concatenate([
            getattr(rng, draw)(v[:n], *(a[b * n:(b + 1) * n] for a in args))
            for b, rng in enumerate(rngs)
        ])

    assert np.array_equal(rows.coin_uniforms(r, o), per_trial("coin_uniforms", o))
    assert np.array_equal(rows.feedback_uniforms(r, o), per_trial("feedback_uniforms", o))
    assert np.array_equal(rows.target_indices(r, o, degs), per_trial("target_indices", o, degs))
    assert np.array_equal(rows.initial_positions(r, degs), per_trial("initial_positions", degs))


# Python-int reference of the addressed draws: no numpy, no cached stage
_GOLDEN = 0x9E3779B97F4A7C15
_PURPOSE_TAGS = {"initial": 0x11, "coin": 0x22, "target": 0x33, "feedback": 0x44}


def reference_hash(seed, trial, purpose, vertex, ordinal):
    key = mix64(derive_key(seed, trial) ^ (_PURPOSE_TAGS[purpose] * _GOLDEN))
    return mix64(mix64(key ^ (vertex * _GOLDEN)) ^ (ordinal * _GOLDEN))


# seeds and trials around the 64-bit edges, where masking decides the key
edge_ints = st.one_of(
    st.integers(-(2**70), -1),
    st.integers(0, 2**20),
    st.integers(2**63 - 4, 2**63 + 4),
    st.integers(2**64 - 4, 2**66),
)


@settings(max_examples=120, deadline=None)
@given(
    addresses=st.lists(st.tuples(edge_ints, edge_ints), min_size=1, max_size=4),
    n=st.integers(1, 6),
    ordinal=st.integers(0, 2**40),
    degree=st.integers(1, 9),
)
def test_rows_match_python_int_reference(addresses, n, ordinal, degree):
    rngs = [TrialRandomness(seed, trial) for seed, trial in addresses]
    rows = RowRandomness(_purpose_keys(rngs), n)
    r = np.arange(len(rngs) * n)
    o = np.full(len(r), ordinal)
    degs = np.full(len(r), degree)
    expected = {
        purpose: [
            reference_hash(*addresses[b // n], purpose, b % n, ordinal if purpose != "initial" else 0)
            for b in range(len(r))
        ]
        for purpose in _PURPOSE_TAGS
    }
    coins = [(h >> 11) * 2.0**-53 for h in expected["coin"]]
    feedback = [(h >> 11) * 2.0**-53 for h in expected["feedback"]]
    targets = [h % degree for h in expected["target"]]
    initial = [h % degree for h in expected["initial"]]
    assert rows.coin_uniforms(r, o).tolist() == coins
    assert rows.feedback_uniforms(r, o).tolist() == feedback
    assert rows.target_indices(r, o, degs).tolist() == targets
    assert rows.initial_positions(r, degs).tolist() == initial
    rng, v = rngs[-1], np.arange(n)
    assert rng.coin_uniforms(v, o[:n]).tolist() == coins[-n:]
    assert rng.target_indices(v, o[:n], degs[:n]).tolist() == targets[-n:]
    # the array derive_key(seed, word) of one seed, as random lists key their rows
    seed, words = addresses[0][0], [trial for _, trial in addresses]
    keys = _derive_keys(
        np.array([seed & (2**64 - 1)], dtype=np.uint64),
        np.array([w & (2**64 - 1) for w in words], dtype=np.uint64),
    )
    assert keys.tolist() == [derive_key(seed, w) for w in words]


@settings(max_examples=150, deadline=None)
@given(keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_pcg64_states_match_numpy_seeding(keys):
    # random list rows are shuffled by one generator set to these states, so
    # they must be exactly where default_rng(key) starts; numpy promises the
    # SeedSequence and PCG64 streams stable, and this holds it to that
    keys = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + keys
    states = list(_pcg64_states(np.array(keys, dtype=np.uint64)))
    assert states == [np.random.default_rng(k).bit_generator.state for k in keys]


# CLI runs at seeds outside [0, 2**63): sha256 over stdout, out.csv and summary.json
SEED_EDGE_GOLDEN = {
    ("random", "-3"):
        "0a02e32a4a71811b9663713a2776224c127c0bef9238d00f5d28631275811eb6",
    ("quasi", "-3"):
        "ad002b21c8c5a38211f8de39dc37c3325b61ea0e97d2ec0eaee0d8f76abb5621",
    ("feedback", "-3"):
        "36214f0e7f4c88d73e2e9acd144498abd89c4a481bd0c394373f8db689ac0af6",
    ("random", "99999999999999999999999"):
        "a37ae5b097c269f94d2fa5b28c3b5cbfb56e418c0190641ed87e8c3b8ba966b2",
    ("quasi", "99999999999999999999999"):
        "d0d0b960bf8c1bbc8e949aa4483bd70eebe350ae0a9a03e21fdd02bfd7c01042",
    ("feedback", "99999999999999999999999"):
        "433c8d9a094c59b36a8b844544e4788c7b12c9e6f78c5ccd1d3d133a8cee5b62",
}


@pytest.mark.parametrize("protocol, seed", sorted(SEED_EDGE_GOLDEN))
def test_seed_edge_outputs_frozen(protocol, seed, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "sim", "--protocol", protocol, "--n", "9", "--p", "0.6", "--trials", "20",
        "--seed", seed, "--out", "out.csv", "--summary", "summary.json",
    ])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    digest.update((tmp_path / "out.csv").read_bytes())
    digest.update((tmp_path / "summary.json").read_bytes())
    assert digest.hexdigest() == SEED_EDGE_GOLDEN[protocol, seed]
