"""Delayed quasirandom protocol: lazy/busy phase schedules and couplings.

The delayed variant restricts who may transmit.  At each phase boundary the
active set resets to the vertices that are informed but have never
transmitted.  During a lazy phase that set is frozen; during a busy phase,
vertices informed mid-phase join the transmitters on the following round.
So a vertex informed in round r sends only in the first nonzero phase that
opens at or after r, or, from r on, in the busy phase running at r.

Because all randomness is addressed by (vertex, transmission ordinal), a
delayed run and an undelayed run on the same trial randomness share every
coin and every list position: the j-th attempt of vertex v is identical in
both.  Delaying can then only postpone deliveries, so the delayed informed
set is contained in the undelayed one at every round.  coupled_run checks
that containment from the round in which each copy informed each vertex.

Both run on engine.run_batch under _Schedule, a sender policy that derives
who may send, and every PhaseRecord, from each vertex's informing round.  An
active set never shrinks within its phase and an empty one informs no one, so
once no row may send, every trial stops at its last round, which may lie past
int64.  Their results are built from run_batch's three arrays: a
DelayedResult is a TrialResult (rounds, completion and informing record) plus
the trial's phase records.  Growth sampling builds the same engine state with
init_state(lists, Protocol.QUASIRANDOM, failure, ...) and steps it itself with
step(state, max_rounds), as it stops partway through a run.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import bounds
from .bounds import _check_integer
from .engine import FailureModel, Protocol, TrialResult, init_state, run_batch, step
from .rng import TrialRandomness
from .topology import ListAssignment, _content_lines, _open_output, _read_lines


class PhaseKind(str, Enum):
    LAZY = "lazy"
    BUSY = "busy"


@dataclass(frozen=True)
class Phase:
    kind: PhaseKind
    length: int

    def __post_init__(self):
        if not isinstance(self.kind, PhaseKind):  # a value runs as its member
            object.__setattr__(self, "kind", PhaseKind(self.kind))
        _check_integer("length", self.length, 0)


@dataclass(frozen=True)
class PhaseRecord:
    """Bookkeeping emitted when a phase closes (or the run stops inside it)."""

    index: int
    kind: PhaseKind
    length: int
    executed: int
    informed_after: int
    newly_after: int  # informed vertices that have never transmitted


@dataclass
class DelayedResult(TrialResult):
    phases: list[PhaseRecord] = field(default_factory=list)


class _Schedule:
    """run_batch's sender policy for a phase schedule, fixed once built: phase
    k spans rounds [begins[k], ends[k]), and a delayed trial's rows that have
    not sent by begins[k] are those informed in round silent[k] or later."""

    def __init__(self, schedule: list[Phase], delayed: list[bool]):
        self.schedule = schedule
        self.delayed = np.asarray(delayed, dtype=bool)  # by trial
        self.ends = list(itertools.accumulate(ph.length for ph in schedule))
        self.begins = [end - ph.length for end, ph in zip(self.ends, schedule)]
        self.silent = [0]  # silent[k + 1]: by the end of phase k
        for ph, begin, end in zip(schedule, self.begins, self.ends):
            busy = ph.kind is PhaseKind.BUSY
            self.silent.append((end if busy else begin + 1) if ph.length else self.silent[-1])

    def caps(self, max_rounds: int) -> list[int]:
        """Each trial's last round: a delayed trial stops with the schedule."""
        end = min(self.ends[-1] if self.ends else 0, max_rounds)
        return [end if delayed else max_rounds for delayed in self.delayed.tolist()]

    def senders(self, t: int, at: np.ndarray, trials: np.ndarray) -> tuple[np.ndarray, int | None]:
        """The rows of trials that may send from boundary t, given each row's
        informing round, and the next boundary (None past the schedule)."""
        k = bisect.bisect_right(self.ends, t)  # the phase running at t
        at = at.reshape(len(trials), -1)
        may = (at >= self.silent[k]) | ~self.delayed[trials, None]
        if k == len(self.schedule) or self.schedule[k].kind is PhaseKind.BUSY:
            may |= at < 0  # a row informed in a busy phase joins it
        return may.ravel(), self.ends[k] if k < len(self.ends) else None

    def records(self, informing: np.ndarray, rounds: np.ndarray, completed: np.ndarray):
        """Every trial's PhaseRecords: a delayed trial's for each phase that opened
        before it stopped, and for each zero-length one where it stopped, unless
        it completed there after round 0.  One bincount gives every delayed
        trial's informed count by round, which each record reads twice."""
        last = int(informing.max(initial=0)) + 1  # thresholds clamped here count the same
        kept = self.delayed.nonzero()[0]
        at = informing[kept]
        cells = np.arange(len(kept))[:, None] * (last + 1) + at
        by = np.bincount(cells[at >= 0], minlength=len(kept) * (last + 1))
        by = by.reshape(len(kept), last + 1).cumsum(axis=1).tolist()  # informed by round
        stops, done = rounds.tolist(), completed.tolist()
        out = [[] for _ in stops]
        phases = list(zip(self.schedule, self.begins, self.ends, self.silent[1:]))
        for i, informed in zip(kept.tolist(), by):
            stop = stops[i]
            for k, (phase, begin, end, silent) in enumerate(phases):
                edge = stop == begin and phase.length == 0 and (not done[i] or stop == 0)
                if stop <= begin and not edge:
                    break  # no later phase, beginning no earlier, opened before the stop
                now = min(stop, end, last)
                fresh = min(now, silent, last)  # the first round whose rows are silent at now
                newly = informed[now] - (informed[fresh - 1] if fresh else 0)
                record = PhaseRecord(k, phase.kind, phase.length, min(stop, end) - begin,
                                     informed[now], newly)
                out[i].append(record)
        return out


def _dominated(delayed: np.ndarray, undelayed: np.ndarray) -> bool:
    """Whether the undelayed copy informed each vertex the delayed one did, no
    later (informing rounds, -1 for never).  Informed sets only grow and both
    copies share one clock and max_rounds, so this is containment every round.
    """
    return bool(((delayed < 0) | ((undelayed >= 0) & (undelayed <= delayed))).all())


def run_delayed(
    lists: ListAssignment,
    failure: FailureModel,
    start_vertex: int,
    schedule: list[Phase],
    rng: TrialRandomness,
    max_rounds: int | None = None,
) -> DelayedResult:
    """Execute a phase schedule; stops early on completion or max_rounds."""
    if max_rounds is None:
        max_rounds = sum(ph.length for ph in schedule)
    policy = _Schedule(schedule, [True])
    rounds, completed, informing = run_batch(
        lists, Protocol.QUASIRANDOM, failure, [start_vertex], [rng], max_rounds, policy
    )
    records = policy.records(informing, rounds, completed)[0]
    return DelayedResult(int(rounds[0]), bool(completed[0]), informing[0], records)


@dataclass
class CoupledResult:
    delayed: DelayedResult
    undelayed: TrialResult
    dominated: bool


def coupled_run(
    lists: ListAssignment,
    failure: FailureModel,
    start_vertex: int,
    schedule: list[Phase],
    rng: TrialRandomness,
    max_rounds: int | None = None,
) -> CoupledResult:
    """Delayed and undelayed quasirandom on literally the same randomness.

    dominated is true iff the delayed informed set was a subset of the
    undelayed one after every round.
    """
    if max_rounds is None:
        max_rounds = bounds.default_max_rounds(lists.topology.n, failure.p)
    policy = _Schedule(schedule, [True, False])
    rounds, completed, informing = run_batch(
        lists, Protocol.QUASIRANDOM, failure, [start_vertex] * 2, [rng] * 2, max_rounds, policy
    )
    records = policy.records(informing, rounds, completed)[0]
    return CoupledResult(
        delayed=DelayedResult(int(rounds[0]), bool(completed[0]), informing[0], records),
        undelayed=TrialResult(int(rounds[1]), bool(completed[1]), informing[1]),
        dominated=_dominated(*informing),
    )


# schedule files: one `kind,length` record per line


def parse_schedule(text: str) -> list[Phase]:
    phases = []
    for lineno, raw, line in _content_lines(text.splitlines()):
        parts = [x.strip() for x in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"schedule line {lineno}: expected 'kind,length', got {raw!r}")
        kind_s, length_s = parts
        try:
            kind = PhaseKind(kind_s.lower())
        except ValueError:
            raise ValueError(f"schedule line {lineno}: unknown phase kind {kind_s!r}") from None
        try:
            phases.append(Phase(kind, int(length_s)))
        except ValueError as exc:
            raise ValueError(f"schedule line {lineno}: bad length {length_s!r}: {exc}") from None
    return phases


def schedule_text(schedule: list[Phase]) -> str:
    return "".join(f"{ph.kind.value},{ph.length}\n" for ph in schedule)


def load_schedule(path: str) -> list[Phase]:
    return parse_schedule("".join(_read_lines(path)))


def save_schedule(schedule: list[Phase], path: str) -> None:
    with _open_output(path) as fh:
        fh.write(schedule_text(schedule))


@dataclass(frozen=True)
class GrowthSample:
    """Newly-informed growth over one k-round busy window."""

    start_round: int
    start_newly: int
    start_informed: int
    end_newly: int

    def satisfies(self, p: float, k: int) -> bool:
        return self.end_newly >= p * (1.0 + p) ** (k - 2) * self.start_newly


def busy_growth_sample(
    lists: ListAssignment,
    failure: FailureModel,
    rng: TrialRandomness,
    k: int,
    min_newly: int,
    max_informed: int,
    start_vertex: int = 0,
    max_warmup: int = 500,
) -> GrowthSample | None:
    """Run until |N_t| first reaches min_newly, then k busy rounds further.

    Returns None if the newly-informed set never reaches min_newly within
    max_warmup rounds while the informed set is still at most max_informed
    (the growth regime the busy phase statement is about).  The whole run uses
    busy dynamics, i.e. the undelayed protocol.  N_t is read from the
    informing rounds, so a step that runs a block of rounds counts each round
    of it, and a window that reaches the completion round ends there.
    """
    _check_integer("k", k, 0)
    _check_integer("max_warmup", max_warmup, 0)
    # the window ends by max_warmup + k
    state = init_state(lists, Protocol.QUASIRANDOM, failure, [start_vertex], [rng], None,
                       int(max_warmup) + int(k))
    while True:  # N_t is the number of rows informed in round t
        newly = np.bincount(state.at[state.at >= 0], minlength=state.t + 1)[1:max_warmup + 1]
        hits = (newly >= min_newly).nonzero()[0]
        if len(hits) or state.t >= max_warmup or state.informed.all():
            break
        step(state, max_warmup)
    if not len(hits):
        return None
    start = int(hits[0]) + 1
    start_informed = 1 + int(newly[:start].sum())  # the start vertex, then rounds 1 to start
    if start_informed > max_informed:
        return None
    end = start + k
    while state.t < end and not state.informed.all():
        step(state, end)
    if state.informed.all():  # no round after the completion round runs
        end = min(end, int(state.at.max()))
    return GrowthSample(
        start_round=start,
        start_newly=int(newly[start - 1]),
        start_informed=start_informed,
        end_newly=int(np.count_nonzero(state.at == end)),
    )


@dataclass(frozen=True)
class BuiltSchedule:
    schedule: list[Phase]
    constants: bounds.ScheduleConstants
    feasible: bool


def upper_bound_schedule(n: int, p: float, eps: float) -> BuiltSchedule:
    """The schedule whose completion realizes the (1+eps) upper bound.

    Layout: two startup lazy phases of (eps/2) ln n rounds, ell busy phases
    of k rounds, one long lazy phase of S rounds, and a closing lazy phase of
    ((3+eps)/(3p)) ln n rounds; every length is rounded up.  feasible is
    false when S > n or k > 64, which holds for every practical parameter
    choice; the builder exists to make the construction inspectable.

    Raises ValueError, naming n, p and eps, when S is so large the integer
    length cannot even be materialized (the constants remain available via
    schedule_constants).
    """
    consts = bounds.schedule_constants(n, p, eps)
    startup = math.ceil(eps / 2.0 * math.log(n))
    ell = math.ceil(consts.ell_max - 1e-12)
    try:
        s_len = bounds.int_ceil_exp(consts.log_s)
    except ValueError as exc:
        raise ValueError(f"no upper-bound schedule for n={n}, p={p}, eps={eps}: {exc}") from None
    closing = math.ceil((3.0 + eps) / (3.0 * p) * math.log(n))
    schedule = [Phase(PhaseKind.LAZY, startup), Phase(PhaseKind.LAZY, startup)]
    schedule.extend(Phase(PhaseKind.BUSY, consts.k) for _ in range(ell))
    schedule.append(Phase(PhaseKind.LAZY, s_len))
    schedule.append(Phase(PhaseKind.LAZY, closing))
    feasible = s_len <= n and consts.k <= 64
    return BuiltSchedule(schedule=schedule, constants=consts, feasible=feasible)
