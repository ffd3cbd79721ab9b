"""Exact broadcast-time distributions on small instances.

These are independent reference computations: no code is shared with the
Monte Carlo engine beyond the topology/list types, so agreement between the
two is meaningful evidence.

The fully random oracle works on the complete graph's informed-count chain.
Its per-round transition law comes from processing the m senders one at a
time: each sender's target is uniform over its n-1 others, so given that w
fresh vertices have been hit so far this round, the next sender informs a new
vertex with probability p (u - w) / (n - 1).  Sender identity never matters,
which is what makes the count a Markov chain.

The quasirandom oracle cannot use that symmetry (lists break it) and instead
enumerates the full probability tree over initial positions and coins.  A
round folds the senders into each state one at a time, in vertex order: a
sender with no list position yet branches over every first slot, and then
its delivery coin branches, with one crucial collapse: when an attempt
targets an already-informed vertex the coin changes nothing (cursors advance
regardless), so those two branches merge.  Only v moves v's cursor, so every
branch of a state's fold has the state's cursor for v.  When the state
itself already informs the target of v's move, the move cannot branch in any
branch and no two branches can merge, so it is one xor of v's cursor field,
applied as the fold's branches merge into the next round.  That keeps tiny
instances tractable and stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import _check_integer, _check_p
from .topology import ListAssignment

_CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class ExactDistribution:
    """P(T = t) for t = 0..horizon plus the truncated tail P(T > horizon)."""

    horizon: int
    mass: np.ndarray = field(repr=False)
    tail: float

    def __post_init__(self):
        total = float(self.mass.sum()) + self.tail
        if abs(total - 1.0) > _CONSERVATION_TOL:
            raise ValueError(f"probability mass sums to {total}, not 1")

    def prob(self, t: int) -> float:
        return float(self.mass[t]) if 0 <= t <= self.horizon else 0.0

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.mass)

    def mean(self) -> float:
        """Mean over the covered horizon; meaningful only for small tail."""
        return float(np.arange(self.horizon + 1) @ self.mass)


def _fully_random_round_dist(n: int, p: float, m: int) -> np.ndarray:
    """P(w new vertices informed in one round | m informed), w = 0..n-m."""
    u = n - m
    hit = p * (u - np.arange(u + 1)) / (n - 1)
    f = np.zeros(u + 1)
    f[0] = 1.0
    for _ in range(m):
        nxt = f * (1.0 - hit)
        nxt[1:] += f[:-1] * hit[:-1]
        f = nxt
    return f


def exact_fully_random(n: int, p: float, horizon: int) -> ExactDistribution:
    """Exact broadcast-time law of the fully random push on the complete graph."""
    _check_integer("n", n, 1, 64)
    _check_integer("horizon", horizon, 0, 10_000)
    _check_p(p)
    mass = np.zeros(horizon + 1)
    if n == 1:
        mass[0] = 1.0
        return ExactDistribution(horizon=horizon, mass=mass, tail=0.0)

    transition = np.zeros((n + 1, n + 1))
    for m in range(1, n):
        transition[m, m : n + 1] = _fully_random_round_dist(n, p, m)
    transition[n, n] = 1.0

    pi = np.zeros(n + 1)
    pi[1] = 1.0
    absorbed = 0.0
    for t in range(1, horizon + 1):
        pi = pi @ transition
        mass[t] = pi[n] - absorbed
        absorbed = pi[n]
    return ExactDistribution(horizon=horizon, mass=mass, tail=max(0.0, 1.0 - absorbed))


def exact_quasirandom(
    n: int,
    lists: ListAssignment,
    p: float,
    horizon: int,
    start_vertex: int = 0,
) -> ExactDistribution:
    """Exact broadcast-time law of the list-based protocol, by enumeration.

    A state is one int: the informed bitmask in the low n bits, then one
    fixed-width field per vertex holding its cursor + 1 (0 before the initial
    position is drawn).  Each sender's moves are a table by cursor field: the
    target's bit and the field xor of every first slot for 0, and of the one
    next slot otherwise.  A state's fold reads each sender's field once; a
    move whose target the state informs adds its xor to a pending mask that
    the merge applies, and any other move branches every partial state by
    the module's rule.  The fold holds the state and its probability
    themselves until a move branches, and only then a dict of partial
    states; a sender with a list position folds its one next-slot move in a
    loop of its own, and a fresh sender loops over its first slots.  A fold
    with no pending xor merges its partial states as they are, and one with
    no branch merges the state alone.  Every float operation is the one, in
    the same order, that branching every move would make, and the tail sums
    the states left to right, as Python before 3.12 summed floats.
    Exponential in n, hence the tight caps.
    """
    _check_integer("n", n, 2, 5)
    _check_integer("horizon", horizon, 0, 8)
    _check_integer("start_vertex", start_vertex, 0, n - 1)
    _check_p(p)
    if lists.topology.n != n:
        raise ValueError(f"lists are for n={lists.topology.n}, oracle asked n={n}")

    rows = [lists.row(v).tolist() for v in range(n)]
    degs = [len(r) for r in rows]
    full = (1 << n) - 1
    width = max(degs).bit_length()  # a field holds cursor + 1, 0..deg
    field = (1 << width) - 1
    shifts = [n + v * width for v in range(n)]
    # moves[v][0]: every first transmission of v, each as its target's bit and
    # the xor taking field 0 to the next slot's; moves[v][cur]: the one next
    # transmission from cursor field cur, as the same pair
    moves = []
    for v, row in enumerate(rows):
        after = [((pos + 1) % degs[v] + 1) << shifts[v] for pos in range(degs[v])]
        first = [(1 << target, after[pos]) for pos, target in enumerate(row)]
        steps = [(bit, (pos + 1) << shifts[v] ^ slot) for pos, (bit, slot) in enumerate(first)]
        moves.append([first, *steps])
    # a round's senders are the vertices informed at its start that have a neighbor
    senders = [[v for v in range(n) if mask >> v & 1 and degs[v]] for mask in range(full + 1)]
    miss, lossy = 1.0 - p, p < 1.0

    states: dict[int, float] = {1 << start_vertex: 1.0}  # every cursor -1
    mass = np.zeros(horizon + 1)
    for t in range(1, horizon + 1):
        nxt: dict[int, float] = {}
        merged = nxt.get
        for state, prob in states.items():
            partial = None  # no branch yet: the state itself
            pending = 0  # the field xors of moves that cannot branch
            for v in senders[state & full]:
                # only v moves v's cursor, so every branch has state's
                cur = (state >> shifts[v]) & field
                if cur:
                    bit, flip = moves[v][cur]
                    if state & bit:
                        # target informed in every branch: no coin, no collision
                        pending ^= flip
                        continue
                folded: dict[int, float] = {}
                get = folded.get
                branches = ((state, prob),) if partial is None else partial.items()
                if cur:  # one move, to the next slot
                    for pstate, q in branches:
                        key = pstate ^ flip
                        if pstate & bit:
                            # delivery coin is irrelevant: target already knows
                            folded[key] = get(key, 0.0) + q
                        else:
                            folded[key | bit] = get(key | bit, 0.0) + q * p
                            if lossy:
                                folded[key] = get(key, 0.0) + q * miss
                else:  # a move to each first slot
                    options, deg = moves[v][0], degs[v]
                    for pstate, q in branches:
                        q = q / deg
                        for bit, flip in options:
                            key = pstate ^ flip
                            if pstate & bit:
                                folded[key] = get(key, 0.0) + q
                            else:
                                folded[key | bit] = get(key | bit, 0.0) + q * p
                                if lossy:
                                    folded[key] = get(key, 0.0) + q * miss
                partial = folded
            if partial is None:
                state ^= pending
                nxt[state] = merged(state, 0.0) + prob
            elif pending:
                for s, q in partial.items():
                    s ^= pending
                    nxt[s] = merged(s, 0.0) + q
            else:
                for s, q in partial.items():
                    nxt[s] = merged(s, 0.0) + q
        states = {}
        done = 0.0
        for s, q in nxt.items():
            if s & full == full:
                done += q
            else:
                states[s] = q
        mass[t] = done
    tail = 0.0  # left to right: the builtin sum of floats is compensated since Python 3.12
    for q in states.values():
        tail += q
    return ExactDistribution(horizon=horizon, mass=mass, tail=tail)


def star_fully_random_expectation(n: int) -> float:
    """E[T] for fully random push on the star at p = 1, starting from a leaf.

    One round to reach the center, then the center collects the other n-2
    leaves coupon-style at rate j/(n-1) when j remain: 1 + (n-1) H_{n-2}.

    The center is the only effective sender after round 1: informed leaves
    keep transmitting to the center, which changes nothing.
    """
    _check_integer("n", n, 3)
    harmonic = 0.0  # left to right, as in exact_quasirandom's tail
    for j in range(1, n - 1):
        harmonic += 1.0 / j
    return 1.0 + (n - 1) * harmonic


def tv_distance(dist: ExactDistribution, rounds: np.ndarray, completed: np.ndarray) -> float:
    """Total variation between an exact law and empirical broadcast times.

    Trials that did not complete, or completed beyond the horizon, land in
    the tail bucket, mirroring the oracle's truncation.
    """
    rounds = np.asarray(rounds)
    completed = np.asarray(completed, dtype=bool)
    trials = len(rounds)
    if not trials:
        raise ValueError("trials: need at least one empirical broadcast time, got none")
    in_range = completed & (rounds <= dist.horizon)
    # rounds kept as objects (a run whose max_rounds lies past int64) fit int64 here
    counts = np.bincount(rounds[in_range].astype(np.int64), minlength=dist.horizon + 1)
    emp = counts / trials
    emp_tail = 1.0 - in_range.sum() / trials
    return 0.5 * (np.abs(emp - dist.mass).sum() + abs(emp_tail - dist.tail))
