"""Round-based push protocols with lossy transmissions.

One round: every informed vertex picks one neighbor and transmits; each
transmission independently succeeds with probability p.  Senders get no
delivery information (except in the feedback variant) and always transmit,
even to vertices that already know the rumor.

Protocols differ only in how the target of a vertex's j-th attempt is chosen:

* fully random: fresh uniform neighbor every attempt;
* quasirandom: walk a cyclic neighbor list from a random initial offset,
  advancing one slot per attempt regardless of delivery, so attempt k reads
  slot (first + k) mod degree;
* feedback retry: walk the same list, but re-attempt the current slot until
  both the delivery and an independent feedback coin succeed.

All randomness is addressed by (vertex, attempt ordinal), which is what makes
delayed-schedule couplings exact (see phases).  It also lets run_batch advance
many trials as one array step without changing a draw, and draw every list's
first position up front; run is its one-trial case, and a sender policy
restricts who transmits in it (the delayed variant).  An EngineState owns its
run: init_state(lists, protocol, failure, starts, rngs, policy) checks the
protocol once and keeps all four, so step(state, max_rounds), the one round
implementation, reads them from the state.  run_batch loops over step, and a
caller that stops partway through a run (phases' growth sampling) steps an
init_state itself.  A quasirandom row keeps its first list position and reads
each slot from it and its attempt ordinal.  Without a policy a row sends in
every round after the one that informed it, so its ordinal is t - at and
nothing counts it; a policy can pause a row, so only a policy run keeps each
row's attempts, which step advances once a round ends, and whether it may
send.  A row with random targets keeps no list position at all.  While t
plus the step's rounds is at most the degree, a slot is below twice the
degree, and _wrap subtracts the degree where it is reached, branch-free, in
place of an int64 remainder.  Only a feedback row
keeps a running cursor, which a single round moves on and wraps the same
way.  A row's vertex and list position are int32, and so are its informing
round and attempt count whenever max_rounds + n < 2**31, which bounds every
round, ordinal and slot first + ordinal; so a row holds 13 bytes on lists and
9 with random targets, 5 more under a policy.  A slot is computed in its
ordinal's width, and the temporaries of a round keep those widths.  A round
runs its senders in slices of at most _BLOCK_CELLS, so what a round
allocates does not grow with n, and applies every slice's informs, each with
the round's number, when it ends.  Once at least half the rows are informed,
an unsettled round without a policy builds no list of senders: it reads its
rows in place, in ranges of at most _BLOCK_CELLS rows that hold whole
trials or part of one, lets the informed ones send, and gathers only
the useful transmissions, for their coins and informs.  Random targets and
feedback coins are hashed for every row a range reads, which costs less
than gathering the senders once half the rows send.  A range's senders are
the rows informed before the round, which is why a round's informs wait for
its end.  Sparse rounds, policy rounds and settled steps share one gathered
list of senders.  The state keeps its count of informed rows, recounted
once by a step that informs one and by keep; the range rule and the loop's
finish test read it.  The loop looks for finished trials only after a step
that informed a row, once the batch holds n rows and every
other trial's start, and after every step once the clock reaches the
running trials' first cap, and EngineState.keep drops their rows, unless
none is left running, when the loop ends at once.  A stopped trial's
informing record is taken out as it stops, and nothing else: once the loop
ends, each trial's completion and rounds are read from the whole record,
as a first hit may lie inside a settled block.  Only a policy gives trials
different caps, so only a policy run recomputes the first cap after a stop.
A star's trial is settled (no uninformed vertex has an uninformed neighbor)
once its center is informed: from then on only the center can inform
anyone, and its draws follow from its addresses alone, so once every trial
is settled a step draws a block of rounds at once, under a policy up to its
next boundary, and jumps there when no center may send.  The complete graph
runs one round a step, as it is settled only with one vertex left, about
1/p rounds of its (1/p) ln n tail.
run_batch returns three arrays: each trial's rounds, whether it completed,
and its informing record, the round in which each vertex was first informed
(-1 for never).  Every result is built from them, and the informed count at
any round, the coupling check and the delayed senders and phase records are
all read from the informing record.

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

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bounds import _check_integer, _check_p
from .rng import RowRandomness, TrialRandomness, _purpose_keys, _take_trials
from .topology import ListAssignment


class Protocol(str, Enum):
    FULLY_RANDOM = "random"
    QUASIRANDOM = "quasi"
    FEEDBACK_RETRY = "feedback"


_RANDOM, _QUASI = Protocol.FULLY_RANDOM, Protocol.QUASIRANDOM  # read as globals (see topology)


@dataclass(frozen=True)
class FailureModel:
    """Independent per-transmission success probability."""

    p: float

    def __post_init__(self):
        _check_p(self.p)


def _wrap(slots: np.ndarray, degs) -> np.ndarray:
    """slots mod degs, in place, for slots in [0, 2 * degs): branch-free, as
    below its degree a slot minus the degree is negative, in the unsigned view
    of the slots' own width a number above any slot, so the unsigned minimum
    keeps the slot."""
    unsigned = slots.view(np.uint32 if slots.itemsize == 4 else np.uint64)
    np.minimum(unsigned, (slots - degs).view(unsigned.dtype), out=unsigned)
    return slots


def _transmit(state: EngineState, rows: np.ndarray | range, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """rounds transmissions per sender row of state; returns the rows its
    deliveries newly inform, and the index of the transmission that informs each.

    rows is an array of senders, or, for a single round without a policy, a
    range of rows read in place, of which the informed ones send.
    Transmission j * len(rows) + i is the j-th of sender i, and a delivery
    counts if its target was uninformed when the call began, so the returned
    rows may repeat.  Mutates feedback cursors, not informed, nor a policy's
    attempt counters, which step advances.  Senders must all have degree > 0
    and, on lists, a cursor.
    """
    s, p = state, state.p
    index = slice(rows.start, rows.stop) if type(rows) is range else rows  # a range reads in place
    if s.attempts is None:  # no policy: a row sends in every round after its informing one
        ordinals = s.t - s.at[index]
    else:  # a policy can pause a row, so step counts its transmissions
        ordinals = s.attempts[rows]
    if rounds > 1:  # tiled, with the ordinals of a sender's later rounds
        ordinals = (ordinals + np.arange(rounds, dtype=ordinals.dtype)[:, None]).ravel()
        rows = np.broadcast_to(rows, (rounds, len(rows))).ravel()
    target_rows, delivered = _targets(s, rows, ordinals, rounds)
    useful = ~s.informed[target_rows]
    if type(rows) is range:  # of a range's rows, the informed ones send
        useful &= s.informed[index]
    useful = useful.nonzero()[0]
    if delivered is not None:
        useful = useful[delivered[useful]]
    elif p < 1.0 and len(useful):
        useful = useful[s.keys.coin_uniforms(_rows_at(rows, useful), ordinals[useful]) < p]
    return target_rows[useful], useful


def _rows_at(rows: np.ndarray | range, at: np.ndarray) -> np.ndarray:
    """The rows at positions at of an array or a range of rows."""
    return at + rows.start if type(rows) is range else rows[at]


def _targets(s: EngineState, rows: np.ndarray | range, ordinals: np.ndarray, rounds: int):
    """The row each transmission of _transmit reaches, and, where the cursor
    needs them (feedback at p < 1), the delivery coins of all of them, else
    None.  Of a range of rows, only the sending ones move a cursor.  A
    sender's target u lies in its own trial's block, at row u + (row -
    vertex); a range lies in one trial or spans whole ones.  The lookups'
    temporaries end with this call."""
    lists, p = s.lists, s.p
    topo = lists.topology
    index = slice(rows.start, rows.stop) if type(rows) is range else rows
    vertices = s.vertex[index]
    degs = topo.degrees(vertices)
    delivered = None

    if s.protocol is _RANDOM:
        idx = s.keys.target_indices(rows, ordinals, degs)
        targets = topo.neighbors_at(vertices, idx)
    elif s.protocol is _QUASI:  # transmission k reads slot first + k
        positions = ordinals + s.cursor[index]  # in the ordinals' width
        if not isinstance(degs, np.ndarray) and s.t + rounds <= degs:  # ordinals below deg
            _wrap(positions, degs)
        else:  # the lists are cyclic
            positions %= degs
        targets = lists.targets_at(vertices, positions)
    else:  # feedback: of a range's rows, only the informed ones send and move on
        sending = s.informed[index] if type(rows) is range else None
        if p < 1.0:  # the cursor moves on where a delivery is acknowledged
            delivered = s.keys.coin_uniforms(rows, ordinals) < p
            moved = (delivered if sending is None else delivered & sending).nonzero()[0]
            moved = moved[s.keys.feedback_uniforms(_rows_at(rows, moved), ordinals[moved]) < p]
        else:  # every sender's feedback coin comes up
            moved = slice(None) if sending is None else sending.nonzero()[0]
        if rounds == 1:  # a cursor is below the degree, and wraps to 0 where it reaches it
            positions = s.cursor[index]  # a range's is a view: read before it moves
            targets = lists.targets_at(vertices, positions)
            s.cursor[_rows_at(rows, moved)] = _wrap(positions[moved] + 1, topo.degrees(vertices[moved]))
        else:  # a sender's cursor moves on its own coins only: a running sum
            per_round = len(rows) // rounds
            steps = np.zeros((rounds, per_round), dtype=s.cursor.dtype)
            steps.ravel()[moved] = 1
            walked = steps.cumsum(axis=0, dtype=steps.dtype) + s.cursor[rows[:per_round]]
            positions = (walked - steps).ravel() % degs
            s.cursor[rows[:per_round]] = walked[-1] % topo.degrees(vertices[:per_round])
            targets = lists.targets_at(vertices, positions)
    if type(rows) is range:  # whole trials, or part of one: add each one's first row
        firsts = np.arange(rows.start - rows.start % topo.n, rows.stop, topo.n)[:, None]
        return np.add(targets.reshape(len(firsts), -1), firsts, dtype=np.intp).ravel(), delivered
    target_rows = rows - vertices  # the row of the trial's vertex 0
    target_rows += targets
    return target_rows, delivered


@dataclass
class TrialResult:
    rounds: int
    completed: bool
    informing: np.ndarray = field(repr=False)  # informing round by vertex, -1 for never


# a block of settled rounds, the first included, draws at most this many
# transmissions unless it is a single round, whose senders run in slices of
# at most this many
_BLOCK_CELLS = 1 << 16


def run_batch(
    lists: ListAssignment,
    protocol: Protocol,
    failure: FailureModel,
    starts: Sequence[int],
    rngs: Iterable[TrialRandomness] | RowRandomness,
    max_rounds: int,
    policy=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one trial per (start vertex, rng) pair, all in the same round loop;
    rngs may be the trials' RowRandomness, which the run then consumes.

    Returns each trial's rounds, whether it completed, and its informing
    record: by trial and vertex, the round in which the vertex was first
    informed, 0 for the start and -1 for never.  Every trial runs until every
    vertex is informed or max_rounds have elapsed, and its draws come only
    from its own rng, so the results do not depend on which other trials
    share the batch.  The loop is init_state, then step until every trial has
    stopped; EngineState.keep drops a finished trial's rows between steps,
    and the loop ends without one once the last trials stop.  A stop
    copies the trial's informing record out and keeps no other account:
    once the loop ends, a trial whose record informs every vertex completed,
    in its record's last round, and any other stopped at its cap.  Only a
    policy gives trials different caps, so only under one does a stop move
    the running trials' first cap.
    Rounds may lie past int64 (an object array) when max_rounds does.

    Once every running trial is settled (Topology.live_senders: a star's once
    its center is informed; the complete graph runs one round a step), a step
    runs a block of rounds: the centers are the only live senders, as every
    leaf's one neighbor is informed, and their draws follow from their own
    addresses (random: later ordinals; quasi: later slots from the first;
    feedback: the cursor moved by a running sum of its own acknowledged
    deliveries).  A vertex is informed in the round of its first successful
    hit.  The first block draws the transmissions the live senders need, in
    expectation, to hit every uninformed row, each later one twice the last
    one's; a block of more than one round draws at most _BLOCK_CELLS, and
    none runs past the running trials' first cap.  Without a policy, the
    leaves' cursors go stale unread: settling is final, so a center's
    ordinal stays t - at.  A settled step that comes to a single round sends
    only the centers.

    An unsettled round without a policy reads its rows in place, in ranges,
    once at least half of them are informed (see step).

    A policy (phases' schedules) gives each trial's last round,
    policy.caps(max_rounds), and at round 0 and at each boundary it names,
    policy.senders(t, at, running): the rows that may send until the next one.
    When no row may send, every running trial stops at its cap, as none can
    send later.  A policy run counts each row's transmissions, as it pauses
    some: an unsettled round, once it ends, adds its senders' mask to the
    counts.  Its settled blocks end by the next boundary, which may
    reactivate senders: the live senders that may send draw the block, and
    every row that sends in it, those and the others informed before it or
    joining it in a busy phase, counts its rounds there.  With no live
    sender that may send, the step is an idle jump to the boundary or cap,
    in which only the others count.
    """
    _check_integer("max_rounds", max_rounds, 0)
    s = init_state(lists, protocol, failure, starts, rngs, policy, max_rounds)
    n, trials = lists.topology.n, len(s.running)
    informing = None  # by trial, made when the first trial stops and filled as trials stop
    # a trial that does not complete stops at its cap, which may lie past int64
    caps = [max_rounds] * trials if policy is None else policy.caps(max_rounds)
    rounds = np.array(caps, dtype=np.int64 if max_rounds < 2**63 else object)
    cap = int(min(caps, default=max_rounds))  # the running trials' first, which no block passes
    while True:
        capped = s.t >= cap
        # a trial completes only in a step that informs a row, once the batch holds
        # its n rows and every other trial's start
        if capped or s.newly and s.informed_count >= n + len(s.running) - 1:
            running = s.running
            if len(running) == 1:  # the one trial is complete when n rows are informed
                stop = np.array([s.informed_count == n])
            else:
                stop = np.logical_and.reduce(s.informed.reshape(-1, n), axis=1)
            if capped:
                stop |= rounds[running] <= s.t
            stopped = np.count_nonzero(stop)
            if stopped == len(stop):  # the last trials stopped: no rows to keep
                break
            if stopped:
                if informing is None:
                    informing = np.empty((trials, n), dtype=np.int64)
                ended = stop.nonzero()[0]  # by take, which costs less than a mask on 2-D
                informing[running[ended]] = s.at.reshape(-1, n).take(ended, axis=0)
                s.keep(~stop)
                if policy is not None:  # only a policy gives trials different caps
                    cap = int(np.minimum.reduce(rounds[s.running]))
        if not len(s.running) or not step(s, cap):
            break  # a stall: the running trials stop at their caps
    if informing is None:  # no trial stopped before the last ones
        informing = np.empty((trials, n), dtype=np.int64)
    informing[s.running] = s.at.reshape(-1, n)
    # a trial completed if it informed every vertex, in the round of the last one
    completed = np.minimum.reduce(informing, axis=1) >= 0
    rounds[completed] = np.maximum.reduce(informing, axis=1)[completed]
    return rounds, completed, informing


@dataclass
class EngineState:
    """A batch of trials of one run between rounds: the lists, protocol,
    success probability and sender policy it was built with, and its rows.
    Trial running[b]'s vertex v is row b*n + v.  It holds only the rows a
    run reads: cursor on lists, attempts and may_send under a policy.
    vertex and cursor are int32; at and attempts are int32 when the run's
    max_rounds + n < 2**31 and int64 otherwise (init_state), so a row takes
    13 bytes on lists and 9 with random targets, 5 more under a policy, and
    8 for each cached first stage of its draws.  A step's temporaries are as
    wide, and at most _BLOCK_CELLS long but for a list of senders (without a
    policy, fewer than half the rows, or a star's centers) and the informs a
    round holds until it ends."""

    lists: ListAssignment
    protocol: Protocol
    p: float
    policy: object | None  # see run_batch
    informed: np.ndarray  # bool by row
    at: np.ndarray  # each row's informing round, -1 for never
    vertex: np.ndarray  # vertex of each row
    # each row's first list position, which its k-th transmission reads k slots
    # on, under quasirandom; its next one under feedback; None with random targets
    cursor: np.ndarray | None
    # transmissions each row has made, its rng ordinal, under a policy; None
    # without one, where a row's ordinal is t - at, as it sends every round
    attempts: np.ndarray | None
    keys: RowRandomness
    running: np.ndarray  # trial of each block of n rows
    # the policy's rows that may send until its next boundary; None until the
    # first one (round 0), and without a policy
    may_send: np.ndarray | None = None
    t: int = 0  # rounds run
    width: int = 0  # transmissions the next settled block may draw; 0 until settled
    boundary: int | None = None  # the policy's next boundary
    newly: bool = True  # whether the last step informed a row; round 0 informs the starts
    informed_count: int = 0  # informed rows: recounted by a step that informs one, and by keep

    def keep(self, live: np.ndarray) -> None:
        """Keep only the trials running[live]: their rows and their draws."""
        n, kept = self.lists.topology.n, live.nonzero()[0]
        self.informed, self.at, self.cursor, self.attempts, self.may_send = (
            None if rows is None else _take_trials(rows, kept, n)
            for rows in (self.informed, self.at, self.cursor, self.attempts, self.may_send)
        )
        self.vertex = self.vertex[:len(self.informed)]  # the same vertices block by block
        self.running = self.running[live]
        self.keys.keep(kept)
        self.informed_count = int(np.count_nonzero(self.informed))


def init_state(
    lists: ListAssignment,
    protocol: Protocol,
    failure: FailureModel,
    starts: Sequence[int],
    rngs: Iterable[TrialRandomness] | RowRandomness,
    policy=None,
    max_rounds: int | None = None,
) -> EngineState:
    """Round 0 of one trial per (start vertex, rng) pair, with every row's
    first list position drawn, whether or not its vertex ever sends.  protocol
    may be a Protocol or its value; an unknown one raises ValueError.  rngs
    may be the trials' RowRandomness on n vertices, which the state keeps.
    The state may be stepped to max_rounds (None: any round), which sets the
    width of its rounds (see EngineState)."""
    protocol = Protocol(protocol)
    n = lists.topology.n
    if not isinstance(starts, np.ndarray):  # an array's dtype is checked below
        for v in starts:
            _check_integer("start vertex", v)
    starts = np.asarray(starts)
    if starts.size and starts.dtype.kind not in "iu":  # [] is float, and runs no trial
        raise ValueError(f"start vertex: must be an integer, got dtype {starts.dtype}")
    starts = starts.astype(np.int64, copy=False)
    bad = (starts < 0) | (starts >= n)
    if np.count_nonzero(bad):
        raise ValueError(f"start vertex {starts[bad][0]} out of range for n={n}")
    keys = rngs if isinstance(rngs, RowRandomness) else RowRandomness(_purpose_keys(list(rngs)), n)
    if keys.trials != len(starts):
        raise ValueError(f"{keys.trials} rngs for {len(starts)} start vertices")
    if keys.n != n:
        raise ValueError(f"rngs: rows of n={keys.n} for lists of n={n}")
    # every round, ordinal and list slot first + ordinal is below max_rounds + n
    round_type = np.int64 if max_rounds is None or int(max_rounds) + n >= 2**31 else np.int32
    informed = np.zeros(len(starts) * n, dtype=bool)
    at = np.full(len(informed), -1, dtype=round_type)
    start_rows = np.arange(len(starts)) * n + starts
    informed[start_rows], at[start_rows] = True, 0
    vertex = np.empty(len(informed), dtype=np.int32)
    vertex.reshape(-1, n)[:] = np.arange(n, dtype=np.int32)  # each trial's block of n rows
    cursor = None  # random targets need no cursor
    if protocol is not _RANDOM:  # a vertex of degree 0 never sends
        degrees = np.maximum(lists.topology.degrees(vertex), 1)
        cursor = keys.initial_positions(range(len(at)), degrees).astype(np.int32)
    return EngineState(
        lists=lists, protocol=protocol, p=failure.p, policy=policy, informed=informed,
        at=at, vertex=vertex, cursor=cursor,
        attempts=None if policy is None else np.zeros(len(at), dtype=round_type),
        keys=keys, running=np.arange(len(starts)), boundary=None if policy is None else 0,
        informed_count=len(starts),
    )


def step(state: EngineState, max_rounds: int) -> bool:
    """Run one round, or one settled block of rounds, of every trial in state.

    Every trial must have an uninformed vertex.  Returns False, and runs
    nothing, if no row may send.  Once every trial is settled
    (Topology.live_senders: a star's center is informed), the live senders
    that may send run a block of rounds, which ends by max_rounds and by the
    policy's next boundary unless it is a single round; run_batch describes
    blocks and policies.  Settled steps, policy rounds and rounds in which
    fewer than half the rows are informed send a list of senders, in slices
    of max(1, _BLOCK_CELLS // block), so that a block is one slice; a list
    that fits one slice is sent whole, and an empty one (an idle jump) sends
    nothing.  Any other round builds no list of senders: it runs over ranges
    of rows, each of at most _BLOCK_CELLS rows and whole trials or part of
    one, read in place, of which the informed rows send; a batch that fits
    one range is one.  Either way the step applies its informs when it ends,
    and the state recounts its informed rows once if any were informed.
    """
    s = state
    topo = s.lists.topology
    if s.t == s.boundary:
        s.may_send, s.boundary = s.policy.senders(s.t, s.at, s.running)
    senders, block = topo.live_senders(s.informed), 1  # None while some trial is unsettled
    settled = senders is not None
    if settled:  # these senders are all that can inform a vertex from now on
        if s.policy is not None:  # those that may send
            senders = senders[s.may_send[senders]]
        if not s.width:  # the transmissions a trial needs, in expectation, to hit its U
            # uninformed rows: deg * H_U / p with random targets (the coupon collector,
            # H_U <= 1 + ln U), deg / p on lists, whose walk passes every slot in deg;
            # a center's deg is n - 1
            left = (len(s.informed) - s.informed_count) / len(s.running)
            harmonic = 1.0 + math.log(left) if s.protocol is _RANDOM else 1.0
            tail = len(s.running) * (topo.n - 1) * harmonic / s.p
            s.width = int(min(tail, _BLOCK_CELLS))  # inf at the smallest p
        # no block passes the boundary or cap, to which it jumps if no live sender may send
        end = max_rounds if s.boundary is None else min(s.boundary, max_rounds)
        block = max(1, min(s.width // len(senders), end - s.t) if len(senders) else end - s.t)
        s.width = min(2 * s.width, _BLOCK_CELLS)
    elif s.policy is not None or 2 * s.informed_count < len(s.informed):
        sending = s.informed if s.policy is None else s.informed & s.may_send
        senders = sending.nonzero()[0]
        if not len(senders):
            return False
    if senders is None:  # half the rows send: ranges of whole trials, or parts of one, in place
        total, span = len(s.informed), topo.n * max(1, _BLOCK_CELLS // topo.n)
        if total > _BLOCK_CELLS:
            informs = [_transmit(s, range(lo, min(lo + _BLOCK_CELLS, first + span, total)), 1)
                       for first in range(0, total, span)
                       for lo in range(first, first + span, _BLOCK_CELLS)]
        else:  # one range: the whole batch
            informs = [_transmit(s, range(total), 1)]
    else:  # slices of a list of senders; a block, drawn from their addresses, is one
        size = max(1, _BLOCK_CELLS // block)
        if len(senders) > size:
            informs = [_transmit(s, senders[lo:lo + size], block)
                       for lo in range(0, len(senders), size)]
        else:  # one slice, or none in an idle jump
            informs = [_transmit(s, senders, block)] if len(senders) else []
    s.newly = False
    # the round's informs apply at its end: a range's senders are the rows informed before it
    for new_rows, hit in informs:
        s.at[new_rows] = s.t + block  # the block's last round, which no first hit lies after
        if block > 1:  # a vertex is informed in the round of its first hit
            np.minimum.at(s.at, new_rows, (s.t + 1 + hit // len(senders)).astype(s.at.dtype))
        s.informed[new_rows] = True
        s.newly = s.newly or len(new_rows) > 0
    if settled and s.policy is not None:  # every row that sends in the block counts its rounds:
        sent = (s.informed & s.may_send).nonzero()[0]  # those informed before it, and any that joined it
        if not len(sent):
            return False
        if s.t + block < 2**63:  # past int64 no informing round is kept, and no count is read
            s.attempts[sent] += s.t + block - np.maximum(s.at[sent], s.t)
    elif s.policy is not None:  # each sender of the round counts it
        s.attempts += sending
    if s.newly:
        s.informed_count = int(np.count_nonzero(s.informed))
    s.t += block
    return True


def run(
    lists: ListAssignment,
    protocol: Protocol,
    failure: FailureModel,
    start_vertex: int,
    rng: TrialRandomness,
    max_rounds: int,
) -> TrialResult:
    """Run until every vertex is informed or max_rounds have elapsed."""
    rounds, completed, informing = run_batch(
        lists, protocol, failure, [start_vertex], [rng], max_rounds
    )
    return TrialResult(int(rounds[0]), bool(completed[0]), informing[0])
