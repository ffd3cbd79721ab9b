"""Round-based push protocols with lossy transmissions.

One round: every informed vertex picks one neighbor and transmits; each
transmission independently succeeds with probability p.  Senders get no
delivery information (except in the feedback variant) and always transmit,
even to vertices that already know the rumor.

Protocols differ only in how the target of a vertex's j-th attempt is chosen:

* fully random: fresh uniform neighbor every attempt;
* quasirandom: walk a cyclic neighbor list from a random initial offset,
  advancing one slot per attempt regardless of delivery;
* feedback retry: walk the same list, but re-attempt the current slot until
  both the delivery and an independent feedback coin succeed.

All randomness is addressed by (vertex, attempt ordinal), which is what makes
delayed-schedule couplings exact (see phases).  It also lets run_batch
advance many trials as one array step without changing a draw; run is its
one-trial case, and a sender policy restricts who transmits in it (the
delayed variant).  step advances one trial a round, for callers that stop
partway through a run.

A delivery coin is drawn only where it can change the state: for a
transmission whose target is still uninformed, and never at p = 1, where a
uniform of at most 1 - 2**-53 always comes up.  The feedback protocol at
p < 1 draws the delivery coin of every sender, because its cursor moves on
it, and the feedback coin only where the delivery came up, since only an
acknowledged delivery moves the cursor.  Since a draw is a pure function of
its address, a skipped coin moves no other draw, and every outcome is the
one drawing all coins would give.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .rng import RowRandomness, TrialRandomness
from .topology import ListAssignment


class Protocol(str, Enum):
    FULLY_RANDOM = "random"
    QUASIRANDOM = "quasi"
    FEEDBACK_RETRY = "feedback"


@dataclass(frozen=True)
class FailureModel:
    """Independent per-transmission success probability."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"success probability must lie in (0, 1], got {self.p}")


@dataclass
class EngineState:
    t: int
    informed: np.ndarray  # bool, length n
    newly_informed: np.ndarray  # bool: informed during the latest round
    cursor: np.ndarray  # next list position per vertex; -1 = never transmitted
    attempts: np.ndarray  # transmissions performed so far, the rng ordinal
    informed_count: int

    @property
    def n(self) -> int:
        return len(self.informed)


def init_state(n: int, start_vertex: int) -> EngineState:
    if not 0 <= start_vertex < n:
        raise ValueError(f"start vertex {start_vertex} out of range for n={n}")
    informed = np.zeros(n, dtype=bool)
    informed[start_vertex] = True
    return EngineState(
        t=0,
        informed=informed,
        newly_informed=informed.copy(),
        cursor=np.full(n, -1, dtype=np.int64),
        attempts=np.zeros(n, dtype=np.int64),
        informed_count=1,
    )


def _transmit(
    rows: np.ndarray,
    vertices: np.ndarray,
    informed: np.ndarray,
    cursor: np.ndarray,
    attempts: np.ndarray,
    lists: ListAssignment,
    protocol: Protocol,
    p: float,
    keys: RowRandomness,
) -> np.ndarray:
    """One transmission per sender; returns the rows its deliveries newly inform.

    rows index informed, cursor, attempts and the draws of keys; vertices are
    the senders' vertex ids, and a sender's target u lies in its own trial's
    block, at row u + (row - vertex).  The returned rows may repeat.  Mutates
    cursors and attempt counters, not informed.  Senders must all have
    degree > 0.
    """
    topo = lists.topology
    ordinals = attempts[rows]
    degs = topo.degrees(vertices)
    delivered = None  # drawn for every sender only where the cursor needs it

    if protocol is Protocol.FULLY_RANDOM:
        idx = keys.target_indices(rows, ordinals, degs)
        targets = topo.neighbors_at(vertices, idx)
    else:
        positions = cursor[rows]
        fresh = (positions < 0).nonzero()[0]  # indices: a scattered mask is slow to apply
        if len(fresh):
            positions[fresh] = keys.initial_positions(rows[fresh], degs[fresh])
        targets = lists.targets_at(vertices, positions)
        if protocol is Protocol.FEEDBACK_RETRY and p < 1.0:
            delivered = keys.coin_uniforms(rows, ordinals) < p
            acked = delivered.nonzero()[0]  # only a delivery can be acknowledged
            acked = acked[keys.feedback_uniforms(rows[acked], ordinals[acked]) < p]
            positions[acked] += 1
        else:  # at p = 1 every feedback coin comes up, so feedback walks like quasi
            positions += 1
        positions[positions == degs] = 0  # the lists are cyclic
        cursor[rows] = positions

    attempts[rows] = ordinals + 1
    target_rows = targets + (rows - vertices)
    useful = (~informed[target_rows]).nonzero()[0]
    if delivered is not None:
        useful = useful[delivered[useful]]
    elif p < 1.0 and len(useful):
        useful = useful[keys.coin_uniforms(rows[useful], ordinals[useful]) < p]
    return target_rows[useful]


def step(
    state: EngineState,
    lists: ListAssignment,
    protocol: Protocol,
    failure: FailureModel,
    rng: TrialRandomness,
    sender_mask: np.ndarray | None = None,
) -> EngineState:
    """Advance one round in place.  A fully informed state is left untouched.

    sender_mask restricts who transmits this round (the delayed variant);
    by default every informed vertex does.
    """
    n = state.n
    if state.informed_count >= n:
        return state
    senders = (state.informed if sender_mask is None else sender_mask & state.informed).nonzero()[0]
    new_rows = _transmit(
        senders, senders, state.informed, state.cursor, state.attempts,
        lists, protocol, failure.p, rng.cached(n),
    )
    new_mask = np.zeros(n, dtype=bool)
    new_mask[new_rows] = True
    state.informed |= new_mask
    state.newly_informed = new_mask
    state.informed_count += int(new_mask.sum())
    state.t += 1
    return state


@dataclass
class TrialResult:
    rounds: int
    completed: bool
    trajectory: np.ndarray = field(repr=False)  # informed counts, index = round


def run_batch(
    lists: ListAssignment,
    protocol: Protocol,
    failure: FailureModel,
    starts: Sequence[int],
    rngs: Iterable[TrialRandomness],
    max_rounds: int,
    counts: list | None = None,
    policy=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one trial per (start vertex, rng) pair, all in the same round loop.

    Returns each trial's rounds and whether it completed.  Every trial runs
    until every vertex is informed or max_rounds have elapsed, and its draws
    come only from its own rng, so the results do not depend on which other
    trials share the batch.  State is flat: trial b's vertex v is row b*n + v,
    and a finished trial's rows are dropped.  If counts is a list, an array of
    every trial's informed count (0 once it has stopped) is appended to it
    after every round that runs.

    A policy (phases' schedules) lets only rows in its may_send transmit.  A
    round opens with policy.stop(t, done, informed, attempts, last), the trials
    to stop (their rows leave may_send), and closes with policy.sent(new_rows,
    informed).  With no sender, the clock jumps to the policy's next boundary.
    """
    n = lists.topology.n
    starts = np.asarray(starts, dtype=np.int64)
    bad = (starts < 0) | (starts >= n)
    if bad.any():
        raise ValueError(f"start vertex {starts[bad][0]} out of range for n={n}")
    keys = RowRandomness(rngs, n)
    if keys.trials != len(starts):
        raise ValueError(f"{keys.trials} rngs for {len(starts)} start vertices")
    informed = np.zeros(len(starts) * n, dtype=bool)
    informed[np.arange(len(starts)) * n + starts] = True
    cursor = np.full(len(informed), -1, dtype=np.int64)
    attempts = np.zeros(len(informed), dtype=np.int64)
    running = np.arange(len(starts))  # trial of each block of n rows
    vertex = np.tile(np.arange(n), len(starts))  # vertex of each row; stays valid as rows drop
    # a policy's idle jumps can take the clock past int64 when max_rounds allows it
    rounds = np.zeros(len(starts), dtype=np.int64 if max_rounds < 2**63 else object)
    completed = np.zeros(len(starts), dtype=bool)
    t = 0
    while True:
        done = informed.reshape(-1, n).all(axis=1)
        stop = done if policy is None else policy.stop(t, done, informed, attempts, t >= max_rounds)
        if stop.any():
            rounds[running[stop]] = t
            completed[running[done]] = True
            live = ~stop
            running = running[live]
            rows = np.repeat(live, n)
            informed, cursor, attempts = informed[rows], cursor[rows], attempts[rows]
            keys.keep(live)
        if not len(running) or t >= max_rounds:
            break
        senders = (informed if policy is None else informed & policy.may_send).nonzero()[0]
        if not len(senders):  # only a policy can leave no sender
            t = min(policy.end, max_rounds)
            continue
        new_rows = _transmit(
            senders, vertex[senders], informed, cursor, attempts,
            lists, protocol, failure.p, keys,
        )
        informed[new_rows] = True
        t += 1
        if policy is not None:
            policy.sent(new_rows, informed)
        if counts is not None:
            row_counts = np.zeros(len(starts), dtype=np.int64)
            row_counts[running] = informed.reshape(-1, n).sum(axis=1)
            counts.append(row_counts)
    rounds[running] = t
    return rounds, completed


# a stalled trajectory repeats its last count for at most this many skipped rounds
_IDLE_TAIL = 1 << 20


def _results(lists, protocol, failure, starts, rngs, max_rounds, policy=None) -> list[TrialResult]:
    """run_batch, with each trial's informed count by round as its trajectory."""
    counts = [np.ones(len(starts), dtype=np.int64)]
    rounds, done = run_batch(lists, protocol, failure, starts, rngs, max_rounds, counts, policy)
    out = []
    for b, column in enumerate(np.stack(counts, axis=1)):
        ran = column[column > 0]  # 0 once the trial stopped; skipped rounds close a stall
        idle = np.full(min(rounds[b] + 1 - len(ran), _IDLE_TAIL), ran[-1])
        out.append(TrialResult(int(rounds[b]), bool(done[b]), np.concatenate([ran, idle])))
    return out


def run(
    lists: ListAssignment,
    protocol: Protocol,
    failure: FailureModel,
    start_vertex: int,
    rng: TrialRandomness,
    max_rounds: int,
) -> TrialResult:
    """Run until every vertex is informed or max_rounds have elapsed."""
    return _results(lists, protocol, failure, [start_vertex], [rng], max_rounds)[0]
