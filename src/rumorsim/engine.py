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
delayed-schedule couplings exact (see phases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .rng import TrialRandomness
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


def _attempt(
    senders: np.ndarray,
    state: EngineState,
    lists: ListAssignment,
    protocol: Protocol,
    p: float,
    rng: TrialRandomness,
) -> np.ndarray:
    """One transmission per sender; returns targets that were delivered to.

    Mutates cursors and attempt counters.  Senders must all have degree > 0.
    """
    topo = lists.topology
    ordinals = state.attempts[senders]
    degs = topo.degrees(senders)

    delivered = rng.coin_uniforms(senders, ordinals) < p

    if protocol is Protocol.FULLY_RANDOM:
        idx = rng.target_indices(senders, ordinals, degs)
        targets = topo.neighbors_at(senders, idx)
    else:
        positions = state.cursor[senders]
        fresh = positions < 0
        if fresh.any():
            positions = positions.copy()
            positions[fresh] = rng.initial_positions(senders[fresh], degs[fresh])
        targets = lists.targets_at(senders, positions)
        if protocol is Protocol.QUASIRANDOM:
            state.cursor[senders] = (positions + 1) % degs
        else:
            advance = delivered & (rng.feedback_uniforms(senders, ordinals) < p)
            state.cursor[senders] = (positions + advance) % degs

    state.attempts[senders] += 1
    return targets[delivered]


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
    if sender_mask is None:
        senders = np.flatnonzero(state.informed)
    else:
        senders = np.flatnonzero(sender_mask & state.informed)
    hits = _attempt(senders, state, lists, protocol, failure.p, rng)
    new_mask = np.zeros(n, dtype=bool)
    new_mask[hits] = True
    new_mask &= ~state.informed
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


def run(
    lists: ListAssignment,
    protocol: Protocol,
    failure: FailureModel,
    start_vertex: int,
    rng: TrialRandomness,
    max_rounds: int,
) -> TrialResult:
    """Run until every vertex is informed or max_rounds have elapsed."""
    n = lists.topology.n
    state = init_state(n, start_vertex)
    counts = [1]
    while state.informed_count < n and state.t < max_rounds:
        step(state, lists, protocol, failure, rng)
        counts.append(state.informed_count)
    return TrialResult(
        rounds=state.t,
        completed=state.informed_count == n,
        trajectory=np.array(counts, dtype=np.int64),
    )
