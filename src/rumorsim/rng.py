"""Counter-based randomness keyed by (seed, trial, vertex, purpose, ordinal).

Every random decision in a simulation is a pure function of its address, so
trials can run in any order, replays are bit-identical, and two runs that
share a seed draw literally the same coins for the same (vertex, ordinal)
pair.  That last property is what makes delayed/undelayed couplings exact.

A trial's key for a purpose is mix64(derive_key(seed, trial) ^ purpose*G).
Seed and trial are masked to 64 bits as Python ints, and each seed's half
of derive_key, mix64(KEY0 + seed*G), is taken in Python ints too; then the
keys of all the trials of a batch are derived in one pass over uint64 arrays,
which wrap silently where numpy uint64 scalars would warn.  The few
TrialRandomness objects of a run derive theirs wholly in Python ints, which
costs them less.  The per-round draws are vectorized over uint64 arrays.

A draw hashes in two stages: h = mix(key ^ v*G) for the (trial, purpose,
vertex), then mix(h ^ o*G) for the ordinal.  The first stage does not depend
on the ordinal, so a simulation computes it once per trial, purpose and
vertex (``RowRandomness``) and each round only gathers it and runs the second
stage, in place on the gathered array.  The values are the same uint64s,
element for element.  A RowRandomness is built one way, from its trials'
purpose keys, and drops a finished trial's rows by trial number with
``_take_trials``, the block take the engine applies to its own rows.  Every
array hash runs the one finalizer, ``_mix_array``, which finalizes a new
array in place: each caller passes it one it has just made, and a draw also
passes the ordinals' product as its scratch array.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .bounds import _check_integer

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# purpose tags; values are arbitrary but fixed so streams never collide
PURPOSE_INITIAL = 0x11
PURPOSE_COIN = 0x22
PURPOSE_TARGET = 0x33
PURPOSE_FEEDBACK = 0x44
_PURPOSES = (PURPOSE_INITIAL, PURPOSE_COIN, PURPOSE_TARGET, PURPOSE_FEEDBACK)
_KEY0 = 0x61C8864680B583EB  # derive_key's starting value

_G = np.uint64(_GOLDEN)
_M1 = np.uint64(_MIX1)
_M2 = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = np.float64(2.0 ** -53)


def mix64(x: int) -> int:
    """Finalizer of the splitmix64 generator, on Python ints mod 2**64."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    x ^= x >> 31
    return x


def derive_key(*words: int) -> int:
    """Hash a tuple of ints into one 64-bit key, order-sensitive."""
    h = _KEY0
    for w in words:
        h = mix64((h + (w & _MASK) * _GOLDEN) & _MASK)
    return h


def _mix_array(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """mix64 of each element, written over the uint64 array x and returned;
    t, an array of x's shape, is overwritten as scratch (a new one if None)."""
    t = np.right_shift(x, _S30, out=t)
    x ^= t
    x *= _M1
    np.right_shift(x, _S27, out=t)
    x ^= t
    x *= _M2
    np.right_shift(x, _S31, out=t)
    x ^= t
    return x


def _derive_keys(seeds: np.ndarray, words: np.ndarray) -> np.ndarray:
    """derive_key(seed, word) elementwise over uint64 arrays of masked ints;
    one seed may serve all words.  A seed's half, mix64(KEY0 + seed*G), is
    taken in Python ints: a run has one seed, where an array pass costs more."""
    halves = np.array([mix64(_KEY0 + seed * _GOLDEN) for seed in seeds.tolist()], dtype=np.uint64)
    return _mix_array(halves + words * _G)


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's hash multipliers: call i xors row i in, multiplies by row i + 1."""
    return np.array([init * mult**i % 2**32 for i in range(calls + 1)], dtype=np.uint32)[:, None]


_SS_MIX = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # entropy into the pool of 4 words
_SS_OUT = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # pool out to 8 state words
_SS_L, _SS_R, _S16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _ss_hash(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    x = (x ^ c[:-1]) * c[1:]
    return x ^ (x >> _S16)


def _pcg64_states(keys: np.ndarray) -> Iterator[dict]:
    """The bit-generator state np.random.default_rng(k) starts in, per uint64 k.

    That is PCG64's srandom step, in Python ints, on the words of
    SeedSequence(k).generate_state(4, uint64), a fixed uint32 hash of k that
    is replayed here for all keys at once.  numpy keeps both streams stable.
    """
    pool = np.zeros((4, len(keys)), dtype=np.uint32)
    pool[0], pool[1] = keys, keys >> np.uint64(32)  # low words truncate
    pool = _ss_hash(pool, _SS_MIX[:5])
    for s in range(4):  # word s into every other word, in SeedSequence's order
        others, at = [d for d in range(4) if d != s], 4 + 3 * s
        x = _SS_L * pool[others] - _SS_R * _ss_hash(pool[s], _SS_MIX[at:at + 4])
        pool[others] = x ^ (x >> _S16)
    out = _ss_hash(np.concatenate([pool, pool]), _SS_OUT).astype(np.uint64)
    for s_hi, s_lo, i_hi, i_lo in zip(*(out[0::2] | out[1::2] << np.uint64(32)).tolist()):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


_TAGS = np.array(_PURPOSES, dtype=np.uint64) * _G


def _words(ints: list[int]) -> np.ndarray:
    """Python or numpy ints masked to 64 bits, as a uint64 array."""
    return np.array([int(i) & _MASK for i in ints], dtype=np.uint64)


def _keys_of(seeds: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """The purpose keys of trials (seeds[i], trials[i]), one row per trial in
    _PURPOSES order, from uint64 arrays of masked ints; one seed may serve all."""
    return _mix_array(_derive_keys(seeds, trials)[:, None] ^ _TAGS)


def _purpose_keys(rngs: list[TrialRandomness]) -> np.ndarray:
    """_keys_of each rng's seed and trial, derived in Python ints: for the few
    rngs of a run they cost less so than in passes over arrays."""
    keys = [derive_key(rng.master_seed, rng.trial) for rng in rngs]
    keys = [[mix64(key ^ purpose * _GOLDEN) for purpose in _PURPOSES] for key in keys]
    return np.array(keys, dtype=np.uint64).reshape(-1, len(_PURPOSES))


class TrialRandomness:
    """All random draws for one trial of one experiment.

    Draws are addressed, never sequential: asking twice for the same
    (purpose, vertex, ordinal) returns the same value, and no draw depends
    on which other draws happened before it.
    """

    def __init__(self, master_seed: int, trial: int):
        _check_integer("master_seed", master_seed)
        _check_integer("trial", trial)
        self.master_seed = int(master_seed)
        self.trial = int(trial)
        self._keys: np.ndarray | None = None  # purpose keys, derived on the first draw

    def _first_stage(self, purpose: int, vertices: np.ndarray) -> np.ndarray:
        """mix(key ^ v*G) for each vertex, as a new array."""
        if self._keys is None:
            self._keys = _purpose_keys([self])[0]
        key = self._keys[_PURPOSES.index(purpose)]
        return _mix_array(key ^ (np.asarray(vertices, dtype=np.uint64) * _G))

    def _hash(self, purpose: int, vertices: np.ndarray, ordinals: np.ndarray) -> np.ndarray:
        """mix(first ^ ordinal*G): the second stage, written over the new
        first-stage array, with the ordinals' product as the scratch array."""
        x = self._first_stage(purpose, vertices)
        t = np.multiply(ordinals, _G, dtype=np.uint64, casting="unsafe")
        x ^= t
        return _mix_array(x, t)

    def _uniforms(self, purpose: int, vertices: np.ndarray, ordinals: np.ndarray) -> np.ndarray:
        h = self._hash(purpose, vertices, ordinals)
        h >>= _S11
        u = h.astype(np.float64)
        u *= _INV53
        return u

    def coin_uniforms(self, vertices: np.ndarray, ordinals: np.ndarray) -> np.ndarray:
        """Uniform [0,1) driving the delivery coin of each (vertex, ordinal)."""
        return self._uniforms(PURPOSE_COIN, vertices, ordinals)

    def feedback_uniforms(self, vertices: np.ndarray, ordinals: np.ndarray) -> np.ndarray:
        """Uniform [0,1) driving the feedback coin, independent of delivery."""
        return self._uniforms(PURPOSE_FEEDBACK, vertices, ordinals)

    def initial_positions(self, vertices: np.ndarray | range, degrees: np.ndarray) -> np.ndarray:
        """Starting offset of each vertex in its cyclic neighbor list: the hash of
        ordinal 0, mix(first ^ 0*G) = mix(first)."""
        h = _mix_array(self._first_stage(PURPOSE_INITIAL, vertices))
        h %= np.asarray(degrees, dtype=np.uint64)
        return h.view(np.int64)  # below the degree, so the same values

    def target_indices(
        self, vertices: np.ndarray, ordinals: np.ndarray, degrees: np.ndarray
    ) -> np.ndarray:
        """Fresh uniform neighbor index for each (vertex, ordinal) attempt."""
        h = self._hash(PURPOSE_TARGET, vertices, ordinals)
        h %= np.asarray(degrees, dtype=np.uint64)
        return h.view(np.int64)


class RowRandomness(TrialRandomness):
    """The draws of several trials on n vertices, addressed by row b*n + v.

    Built from the trials' purpose keys, one row per trial in _PURPOSES order
    (_keys_of, or _purpose_keys of TrialRandomness objects).  Row b*n + v
    draws exactly what the b-th trial draws for vertex v, through the same
    draw methods.  The first stage of the coin, target and feedback purposes
    is computed for every row on its first draw and kept; later draws gather
    it by row and run only the second stage.  That of the initial position,
    drawn once per row, is computed and not kept, and a range of rows
    (init_state passes all of them) reads it without a gathered copy.  A
    range of rows reads a kept stage as a copy of its slice, since the second
    stage is computed over it in place.
    ``keep`` drops the rows of finished trials.
    """

    def __init__(self, keys: np.ndarray, n: int):
        self.n = n
        self._trial_keys = keys
        self._first: dict[int, np.ndarray] = {}

    @property
    def trials(self) -> int:
        """How many trials still have rows."""
        return len(self._trial_keys)

    def _first_stage(self, purpose: int, rows: np.ndarray) -> np.ndarray:
        first = self._first.get(purpose)
        if first is None:
            keys = self._trial_keys[:, _PURPOSES.index(purpose), None]
            first = _mix_array(keys ^ (np.arange(self.n, dtype=np.uint64) * _G)).ravel()
            if purpose != PURPOSE_INITIAL:
                self._first[purpose] = first
        if type(rows) is range:  # a slice: read in place where not kept, else a copy to hash over
            part = first[rows.start:rows.stop:rows.step]
            return part if purpose == PURPOSE_INITIAL else part.copy()
        return first[rows]

    def keep(self, kept: np.ndarray) -> None:
        """Keep the rows of the trials numbered kept (0 for the first trial
        that still has rows), in that order."""
        self._trial_keys = self._trial_keys[kept]
        self._first = {k: _take_trials(first, kept, self.n) for k, first in self._first.items()}


def _take_trials(rows: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """The blocks of n rows of the trials numbered kept, in that order, as a new array."""
    return rows.reshape(-1, n).take(kept, axis=0).ravel()
