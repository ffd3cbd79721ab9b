"""Delayed quasirandom protocol: lazy/busy phase schedules and couplings.

The delayed variant restricts who may transmit.  At each phase boundary the
active set resets to the vertices that are informed but have never
transmitted.  During a lazy phase that set is frozen; during a busy phase,
vertices informed mid-phase join the transmitters on the following round.
Everyone else stays silent until a later boundary re-activates them (which
happens only if they have never transmitted).

Because all randomness is addressed by (vertex, transmission ordinal), a
delayed run and an undelayed run on the same trial randomness share every
coin and every list position: the j-th attempt of vertex v is identical in
both.  Delaying can then only postpone deliveries, so the delayed informed
set is contained in the undelayed one at every round.  coupled_run checks
that containment round by round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import bounds
from .engine import EngineState, FailureModel, Protocol, TrialResult, init_state, step
from .rng import TrialRandomness
from .topology import ListAssignment


class PhaseKind(str, Enum):
    LAZY = "lazy"
    BUSY = "busy"


@dataclass(frozen=True)
class Phase:
    kind: PhaseKind
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"phase length must be >= 0, got {self.length}")


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
class DelayedResult:
    rounds: int
    completed: bool
    trajectory: np.ndarray = field(repr=False)
    phases: list[PhaseRecord] = field(default_factory=list)


class _DelayedRun:
    """Single delayed trial, steppable one round at a time (for couplings)."""

    def __init__(
        self,
        lists: ListAssignment,
        failure: FailureModel,
        start_vertex: int,
        schedule: list[Phase],
        rng: TrialRandomness,
    ):
        self.lists = lists
        self.failure = failure
        self.rng = rng
        self.schedule = list(schedule)
        self.state: EngineState = init_state(lists.topology.n, start_vertex)
        self.counts = [self.state.informed_count]
        self.records: list[PhaseRecord] = []
        self.phase_idx = -1
        self.offset = 0
        self.active = np.zeros(lists.topology.n, dtype=bool)
        self._open_next_phase()

    def _open_next_phase(self) -> None:
        """Close out zero-length phases and activate the never-started informed."""
        while True:
            self.phase_idx += 1
            self.offset = 0
            if self.phase_idx >= len(self.schedule):
                return
            self.active = self.state.informed & (self.state.attempts == 0)
            if self.schedule[self.phase_idx].length > 0:
                return
            self._record_current()

    def _record_current(self) -> None:
        phase = self.schedule[self.phase_idx]
        newly = int((self.state.informed & (self.state.attempts == 0)).sum())
        self.records.append(
            PhaseRecord(
                index=self.phase_idx,
                kind=phase.kind,
                length=phase.length,
                executed=self.offset,
                informed_after=self.state.informed_count,
                newly_after=newly,
            )
        )

    @property
    def done(self) -> bool:
        return (
            self.state.informed_count >= self.state.n
            or self.phase_idx >= len(self.schedule)
        )

    def round(self) -> None:
        phase = self.schedule[self.phase_idx]
        step(self.state, self.lists, Protocol.QUASIRANDOM, self.failure, self.rng, self.active)
        self.counts.append(self.state.informed_count)
        self.offset += 1
        if phase.kind is PhaseKind.BUSY:
            self.active = self.active | self.state.newly_informed
        if self.state.informed_count >= self.state.n:
            self._record_current()
        elif self.offset >= phase.length:
            self._record_current()
            self._open_next_phase()

    def result(self) -> DelayedResult:
        if not self.done and self.offset > 0:
            self._record_current()  # stopped mid-phase by an external cap
        return DelayedResult(
            rounds=self.state.t,
            completed=self.state.informed_count >= self.state.n,
            trajectory=np.array(self.counts, dtype=np.int64),
            phases=self.records,
        )


def run_delayed(
    lists: ListAssignment,
    failure: FailureModel,
    start_vertex: int,
    schedule: list[Phase],
    rng: TrialRandomness,
    max_rounds: int | None = None,
) -> DelayedResult:
    """Execute a phase schedule; stops early on completion or max_rounds."""
    runner = _DelayedRun(lists, failure, start_vertex, schedule, rng)
    while not runner.done and (max_rounds is None or runner.state.t < max_rounds):
        runner.round()
    return runner.result()


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
    topo = lists.topology
    if max_rounds is None:
        max_rounds = bounds.default_max_rounds(topo.n, failure.p)
    delayed = _DelayedRun(lists, failure, start_vertex, schedule, rng)
    und = init_state(topo.n, start_vertex)
    und_counts = [und.informed_count]
    dominated = True
    while True:
        moved = False
        if not delayed.done and delayed.state.t < max_rounds:
            delayed.round()
            moved = True
        if und.informed_count < topo.n and und.t < max_rounds:
            step(und, lists, Protocol.QUASIRANDOM, failure, rng)
            und_counts.append(und.informed_count)
            moved = True
        if np.any(delayed.state.informed & ~und.informed):
            dominated = False
        if not moved:
            break
    undelayed = TrialResult(
        rounds=und.t,
        completed=und.informed_count == topo.n,
        trajectory=np.array(und_counts, dtype=np.int64),
    )
    return CoupledResult(delayed=delayed.result(), undelayed=undelayed, dominated=dominated)


# schedule files: one `kind,length` record per line


def parse_schedule(text: str) -> list[Phase]:
    phases = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
    with open(path) as fh:
        return parse_schedule(fh.read())


def save_schedule(schedule: list[Phase], path: str) -> None:
    with open(path, "w") as fh:
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

    Returns None if the newly-informed set never reaches min_newly while the
    informed set is still at most max_informed (the growth regime the busy
    phase statement is about).  The whole run uses busy dynamics, i.e. the
    undelayed protocol.
    """
    state = init_state(lists.topology.n, start_vertex)
    while state.t < max_warmup and state.informed_count < lists.topology.n:
        step(state, lists, Protocol.QUASIRANDOM, failure, rng)
        newly = int(state.newly_informed.sum())
        if newly >= min_newly:
            if state.informed_count > max_informed:
                return None
            start_round, start_newly = state.t, newly
            start_informed = state.informed_count
            for _ in range(k):
                step(state, lists, Protocol.QUASIRANDOM, failure, rng)
            return GrowthSample(
                start_round=start_round,
                start_newly=start_newly,
                start_informed=start_informed,
                end_newly=int(state.newly_informed.sum()),
            )
    return None


@dataclass(frozen=True)
class BuiltSchedule:
    schedule: list[Phase]
    constants: bounds.ScheduleConstants
    feasible: bool

    def total_rounds(self) -> int:
        return sum(ph.length for ph in self.schedule)


def upper_bound_schedule(n: int, p: float, eps: float) -> BuiltSchedule:
    """The schedule whose completion realizes the (1+eps) upper bound.

    Layout: two startup lazy phases of (eps/2) ln n rounds, ell busy phases
    of k rounds, one long lazy phase of S rounds, and a closing lazy phase of
    ((3+eps)/(3p)) ln n rounds; every length is rounded up.  feasible is
    false when S > n or k > 64, which holds for every practical parameter
    choice; the builder exists to make the construction inspectable.

    Raises ValueError when S is so large the integer length cannot even be
    materialized (the constants remain available via schedule_constants).
    """
    consts = bounds.schedule_constants(n, p, eps)
    startup = math.ceil(eps / 2.0 * math.log(n))
    ell = math.ceil(consts.ell_max - 1e-12)
    s_len = bounds.int_ceil_exp(consts.log_s)
    closing = math.ceil((3.0 + eps) / (3.0 * p) * math.log(n))
    schedule = [Phase(PhaseKind.LAZY, startup), Phase(PhaseKind.LAZY, startup)]
    schedule.extend(Phase(PhaseKind.BUSY, consts.k) for _ in range(ell))
    schedule.append(Phase(PhaseKind.LAZY, s_len))
    schedule.append(Phase(PhaseKind.LAZY, closing))
    feasible = s_len <= n and consts.k <= 64
    return BuiltSchedule(schedule=schedule, constants=consts, feasible=feasible)
