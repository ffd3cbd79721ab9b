"""Reproducible experiment runner and statistics.

Everything an experiment produces is a pure function of its config, master
seed included: trial i draws from the RNG address (seed, i) no matter when
or in what order it runs, and output files are written with fixed formats so
re-runs are byte-identical.  A run keeps its trials as columns (start,
rounds, completed), filled a chunk at a time with no Python object per
trial; the summary and the files are read from them, and the per-trial
records are built only when first read.  Each file is written over its path
in place by os-level writes (topology._write_text) and, if the old file was
longer, cut to its new length; a path that is not a regular file (/dev/null,
/dev/stdout) is written without truncation.  The CSV is written a chunk of
rows at a time, and the JSON is the text json.dump(indent=2, sort_keys=True)
gives, built by a direct formatter (_json_text) with NaN written as null.
"""

from __future__ import annotations

import math
import typing
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import bounds, phases
from .bounds import _check_integer, _check_p
from .engine import FailureModel, Protocol, run_batch
from .phases import load_schedule
from .rng import RowRandomness, _keys_of, _words, derive_key
from .topology import (
    GraphKind,
    ListAssignment,
    ListStrategy,
    Topology,
    _write_text,
    load_lists_file,
    realize_lists,
)

_BOOTSTRAP_RESAMPLES = 10_000
# Bootstrap resamples are drawn and reduced this many (resample, trial) cells
# at a time, one resample at least, which bounds compare's memory.
_RESAMPLE_CELLS = 1 << 20
# Trials run in chunks of at most this many (trial, vertex) cells, which
# bounds a chunk's memory; records do not depend on where chunks split.
_CHUNK_CELLS = 1 << 16
# The CSV is formatted and written this many rows at a time.
_CSV_ROWS = 256


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# Plain dicts built from the enums: on the cold caches of set-up, an Enum call
# costs several times a lookup.  Explicit lists are read from a lists "file".
_PROTOCOLS = {p.value: p for p in Protocol}
_GRAPHS = {g.value: g for g in GraphKind}
_LIST_STRATEGIES = {"file" if s is ListStrategy.EXPLICIT else s.value: s for s in ListStrategy}


@dataclass
class ExperimentConfig:
    """One experiment, and the one table of its names.

    Each field is a config-file key and a CLI flag of the same name, unless
    its metadata gives another ``key``; ``choices`` lists the values it
    accepts and ``help`` is the flag's help text.
    """

    protocol: str = field(default="quasi", metadata={"choices": (*_PROTOCOLS, "delayed")})
    topology: str = field(default="complete", metadata={"choices": tuple(_GRAPHS)})
    n: int = 2
    p: float = 1.0
    trials: int = 1
    seed: int = 0
    lists: str = field(default="canonical", metadata={"choices": tuple(_LIST_STRATEGIES)})
    list_seed: int = 0
    lists_path: str | None = None
    start: str | None = field(default=None, metadata={"help": "fixed:<v> | sweep | symmetric"})
    max_rounds: int | None = None
    schedule_path: str | None = field(
        default=None,
        metadata={"key": "schedule", "help": "phase schedule file (kind,length per line)"},
    )
    out_path: str | None = field(default=None, metadata={"key": "out", "help": "per-trial CSV path"})
    summary_path: str | None = field(
        default=None, metadata={"key": "summary", "help": "JSON summary path"}
    )

    def validate(self) -> None:
        """Raise a ConfigError naming the first invalid field found."""
        for name, choices in _CHOICES:
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name}: expected one of {choices}, got {getattr(self, name)!r}")
        for name in _STRINGS:
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name}: must be a string, got {getattr(self, name)!r}")
        try:  # the integer, range and p rules the engine applies, checked up front
            self.build_topology()  # the n rule of its graph
            _check_p(self.p)
            _check_integer("trials", self.trials, 1)
            _check_integer("seed", self.seed)
            _check_integer("list_seed", self.list_seed)
            if self.max_rounds is not None:
                _check_integer("max_rounds", self.max_rounds, 0)
            self._fixed_start()  # validates the start policy string
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.lists == "file" and not self.lists_path:
            raise ConfigError("lists_path: required when lists=file")
        if (self.schedule_path is not None) != (self.protocol == "delayed"):
            raise ConfigError("schedule_path: present exactly when protocol=delayed")

    def build_topology(self) -> Topology:
        return Topology(_GRAPHS[self.topology], self.n)

    def build_lists(self) -> ListAssignment:
        topo = self.build_topology()
        if self.lists == "file":
            return load_lists_file(topo, self.lists_path)
        return realize_lists(topo, _LIST_STRATEGIES[self.lists], self.list_seed)

    def start_vertex_for(self, trial: int) -> int:
        return int(self._starts(np.array([trial]))[0])

    def _starts(self, trials: np.ndarray) -> np.ndarray:
        """The start vertex of each trial number in trials, by the start policy."""
        v = self._fixed_start()
        return trials % self.n if v is None else np.full(len(trials), v, dtype=np.int64)

    def _fixed_start(self) -> int | None:
        """The start policy's one start vertex, or None for a sweep."""
        policy = self.start
        if policy is None:
            policy = "symmetric" if self.topology == "complete" else "sweep"
        if policy == "sweep":
            return None
        if policy == "symmetric":
            return 0
        if policy.startswith("fixed:"):
            try:
                v = int(policy.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"start: bad fixed vertex in {policy!r}") from None
            _check_integer("start", v, 0, self.n - 1)
            return v
        raise ConfigError(f"start: expected fixed:<v>, sweep or symmetric, got {policy!r}")

    def resolved_max_rounds(self) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        return bounds.default_max_rounds(self.n, self.p)


def _config_keys() -> dict[str, tuple[str, type, tuple | None, str | None]]:
    """Config key -> (field name, value type, choices, help), in field order."""
    hints = typing.get_type_hints(ExperimentConfig)
    table = {}
    for f in fields(ExperimentConfig):
        hint = hints[f.name]
        typ = typing.get_args(hint)[0] if typing.get_args(hint) else hint  # `int | None` -> int
        meta = f.metadata
        table[meta.get("key", f.name)] = (f.name, typ, meta.get("choices"), meta.get("help"))
    return table


# Derived once here, so no call path pays for fields() or get_type_hints().
CONFIG_KEYS = _config_keys()
_CHOICES = tuple((name, choices) for name, _, choices, _ in CONFIG_KEYS.values() if choices)
# the optional string fields, which no choices check: the start policy and the paths
_STRINGS = tuple(name for name, kind, opts, _ in CONFIG_KEYS.values() if kind is str and not opts)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    start_vertex: int
    rounds: int
    completed: bool


@dataclass
class _Columns:
    """Trials as columns: record i is (trial[i], start[i], rounds[i], completed[i]).

    A run allocates its columns once for all its trials, and its trial column
    is a range.  A list of records is read into columns where it is summarized
    or written; the CSV writer reads a slice at a time.
    """

    trial: range | list[int]
    start: np.ndarray  # int64
    rounds: np.ndarray  # int64, or object where a run's cap lies past int64
    completed: np.ndarray  # bool

    @classmethod
    def of(cls, records: list[TrialRecord] | _Columns) -> _Columns:
        if isinstance(records, _Columns):
            return records
        return cls(
            [r.trial for r in records],
            np.array([r.start_vertex for r in records], dtype=np.int64),
            np.array([r.rounds for r in records], dtype=object),  # not floats past int64
            np.array([r.completed for r in records], dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.trial)

    def __getitem__(self, rows: slice) -> _Columns:
        return _Columns(self.trial[rows], self.start[rows], self.rounds[rows], self.completed[rows])

    def completed_rounds(self) -> np.ndarray:
        """The rounds of the completed trials, as a new int64 array."""
        return self.rounds[self.completed].astype(np.int64, copy=False)

    def records(self) -> list[TrialRecord]:
        """One TrialRecord per row, each made as copy and pickle make one: a new
        instance given its fields, which skips the frozen __init__'s setattr calls
        and about half its cost."""
        new, records = object.__new__, []
        columns = (self.start.tolist(), self.rounds.tolist(), self.completed.tolist())
        for trial, start, rounds, completed in zip(self.trial, *columns):
            record = new(TrialRecord)
            record.__dict__.update(
                trial=trial, start_vertex=start, rounds=rounds, completed=completed
            )
            records.append(record)
        return records


@dataclass(frozen=True)
class SummaryStats:
    trials: int
    completion_rate: float
    t_min: float
    t_mean: float
    t_median: float
    t_p95: float
    t_max: float
    cdf_t: list[int]
    cdf_prob: list[float]

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "completion_rate": self.completion_rate,
            "min": self.t_min,
            "mean": self.t_mean,
            "median": self.t_median,
            "p95": self.t_p95,
            "max": self.t_max,
            "cdf": {"t": self.cdf_t, "prob": self.cdf_prob},
        }


def summarize(records: list[TrialRecord] | _Columns) -> SummaryStats:
    """Statistics of the completed trials' rounds, all read from one sort;
    records may be a list of them or a run's columns.

    Each equals what np.median, np.percentile (linear) and np.unique's
    cumulative counts give, float for float.
    """
    trials = len(records)
    if not trials:
        raise ValueError("trials: need at least one record to summarize, got none")
    done = _Columns.of(records).completed_rounds()
    rate = len(done) / trials
    if len(done) == 0:
        nan = float("nan")
        return SummaryStats(trials, 0.0, nan, nan, nan, nan, nan, [], [])
    mean = float(np.add.reduce(done, dtype=np.float64) / len(done))  # np.mean's own steps
    done.sort()
    half = len(done) // 2  # np.median: the middle value, or the mean of the middle two
    median = float(done[half]) if len(done) % 2 else (float(done[half - 1]) + float(done[half])) / 2
    last = np.concatenate([(done[1:] != done[:-1]).nonzero()[0], [len(done) - 1]])  # of each value
    return SummaryStats(
        trials=trials,
        completion_rate=rate,
        t_min=float(done[0]),
        t_mean=mean,
        t_median=median,
        t_p95=_linear_quantile(done, 0.95),
        t_max=float(done[-1]),
        cdf_t=done[last].tolist(),
        cdf_prob=((last + 1) / trials).tolist(),
    )


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """np.percentile's linear quantile of sorted ints, in numpy's float steps:
    its _lerp takes a + d*g below g = 0.5 and b - d*(1 - g) from there."""
    at = (len(ordered) - 1) * q
    below = math.floor(at)
    if at >= len(ordered) - 1:
        return float(ordered[-1])
    a, b = ordered[below : below + 2].tolist()
    g = at - below
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    _columns: _Columns = field(repr=False, compare=False)
    summary: SummaryStats
    phase_records: list[list[phases.PhaseRecord]] = field(default_factory=list)

    @cached_property
    def records(self) -> list[TrialRecord]:
        """One TrialRecord per trial, built from the run's columns on first read."""
        return self._columns.records()


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run config.trials independent trials and optionally persist outputs."""
    config.validate()
    lists = config.build_lists()
    failure = FailureModel(config.p)
    max_rounds = config.resolved_max_rounds()
    delayed = config.protocol == "delayed"
    schedule = load_schedule(config.schedule_path) if delayed else None
    protocol = Protocol.QUASIRANDOM if delayed else _PROTOCOLS[config.protocol]

    trials = config.trials
    try:
        columns = _Columns(
            range(trials),
            np.empty(trials, dtype=np.int64),
            # run_batch's rounds are objects where a cap lies past int64
            np.empty(trials, dtype=np.int64 if max_rounds < 2**63 else object),
            np.empty(trials, dtype=bool),
        )
    except (MemoryError, ValueError) as exc:  # ValueError: more than an array can index
        raise ConfigError(f"trials: too large for memory: {exc}") from None
    seed = _words([config.seed])
    phase_records = []
    per_chunk = max(1, _CHUNK_CELLS // config.n)
    for first in range(0, trials, per_chunk):
        chunk = slice(first, min(first + per_chunk, trials))
        numbers = np.arange(chunk.start, chunk.stop)
        starts = config._starts(numbers)
        keys = RowRandomness(_keys_of(seed, numbers.view(np.uint64)), config.n)
        policy = phases._Schedule(schedule, [True] * len(numbers)) if delayed else None
        rounds, completed, informing = run_batch(
            lists, protocol, failure, starts, keys, max_rounds, policy
        )
        columns.start[chunk], columns.rounds[chunk], columns.completed[chunk] = (
            starts, rounds, completed
        )
        if delayed:
            phase_records += policy.records(informing, rounds, completed)

    result = ExperimentResult(config, columns, summarize(columns), phase_records)
    if config.out_path:
        write_records_csv(columns, config.out_path)
    if config.summary_path:
        write_json(result.summary.to_dict(), config.summary_path)
    return result


_CSV_ROW = "%s,%s,%s,%s\n"
_FLAGS = ("false", "true")


def write_records_csv(records: list[TrialRecord] | _Columns, path: str) -> None:
    """One CSV row per record, formatted and written _CSV_ROWS rows at a time;
    records may be a list of them or a run's columns."""
    _write_text(path, _csv_chunks(records))


def _csv_chunks(records: list[TrialRecord] | _Columns) -> Iterator[str]:
    """The CSV text, _CSV_ROWS rows a chunk, the header in the first one."""
    head = "trial,start_vertex,rounds,completed\n"
    for first in range(0, max(len(records), 1), _CSV_ROWS):  # no records: the header
        part = _Columns.of(records[first:first + _CSV_ROWS])
        flags = map(_FLAGS.__getitem__, part.completed.tolist())
        cells = zip(part.trial, part.start.tolist(), part.rounds.tolist(), flags)
        yield (head + _CSV_ROW * len(part)) % tuple(chain.from_iterable(cells))
        head = ""


def write_json(payload: dict, path: str) -> None:
    _write_text(path, [_json_text(payload) + "\n"])


def _json_text(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    writes it, except that NaN is written as null: JSON has no NaN, and an
    undefined statistic is null.  json's C encoder runs only without an
    indent, so this formatter, which takes the same steps, is the faster one.
    Keys must be strings; inf raises ValueError and a value of another type
    (a numpy int) TypeError, as json does."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "null"
        if value in (math.inf, -math.inf):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):
        items = [_json_string(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class CompareResult:
    a: ExperimentResult
    b: ExperimentResult
    median_ratio: float
    mean_ratio: float
    median_ci: tuple[float, float]
    mean_ci: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "a": self.a.summary.to_dict(),
            "b": self.b.summary.to_dict(),
            "ratio": {
                "median": self.median_ratio,
                "mean": self.mean_ratio,
                "median_ci95": list(self.median_ci),
                "mean_ci95": list(self.mean_ci),
                "resamples": _BOOTSTRAP_RESAMPLES,
            },
        }


def _bootstrap(gen: np.random.Generator, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The median and the mean of each of _BOOTSTRAP_RESAMPLES resamples of t.

    The resamples are drawn in row blocks of at most _RESAMPLE_CELLS cells;
    gen's integers drawn block by block are those one call would draw.
    """
    med, mean = np.empty(_BOOTSTRAP_RESAMPLES), np.empty(_BOOTSTRAP_RESAMPLES)
    rows = max(1, _RESAMPLE_CELLS // len(t))
    for first in range(0, _BOOTSTRAP_RESAMPLES, rows):
        block = slice(first, min(first + rows, _BOOTSTRAP_RESAMPLES))
        sample = t[gen.integers(0, len(t), size=(block.stop - first, len(t)))]
        med[block] = np.median(sample, axis=1)
        mean[block] = sample.mean(axis=1)
    return med, mean


def compare(config_a: ExperimentConfig, config_b: ExperimentConfig) -> CompareResult:
    """Run both configs and report b/a broadcast-time ratios with 95% CIs.

    Intervals come from a seeded bootstrap over completed trials, resampling
    each arm independently.
    """
    res_a = run_experiment(replace(config_a, out_path=None, summary_path=None))
    res_b = run_experiment(replace(config_b, out_path=None, summary_path=None))
    t_a = res_a._columns.completed_rounds().astype(np.float64)
    t_b = res_b._columns.completed_rounds().astype(np.float64)
    if len(t_a) == 0 or len(t_b) == 0:
        raise ConfigError("trials: comparison needs completed trials in both arms")

    median_ratio = float(np.median(t_b) / np.median(t_a))
    mean_ratio = float(t_b.mean() / t_a.mean())

    gen = np.random.default_rng(derive_key(config_a.seed, config_b.seed, 0xB0075))
    med_a, mean_a = _bootstrap(gen, t_a)  # every resample of a is drawn before b's
    med_b, mean_b = _bootstrap(gen, t_b)
    med, mean = med_b / med_a, mean_b / mean_a
    median_ci = (float(np.percentile(med, 2.5)), float(np.percentile(med, 97.5)))
    mean_ci = (float(np.percentile(mean, 2.5)), float(np.percentile(mean, 97.5)))

    out = CompareResult(res_a, res_b, median_ratio, mean_ratio, median_ci, mean_ci)
    if config_a.summary_path:
        write_json(out.to_dict(), config_a.summary_path)
    return out


@dataclass
class CheckReport:
    n: int
    p: float
    eps: float
    trials: int
    lower: float
    upper: float
    frac_below_lower: float
    frac_above_upper: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_bounds(config: ExperimentConfig, eps: float, threshold: float = 0.05) -> CheckReport:
    """Fractions of trials violating the (1 +/- eps) bounds.

    Trials that never completed count as violating the upper bound.
    """
    lo = bounds.lower_bound(config.n, config.p, eps)
    hi = bounds.upper_bound(config.n, config.p, eps)
    columns = run_experiment(replace(config, summary_path=None))._columns
    below = int(np.count_nonzero(columns.completed & (columns.rounds < lo)))
    above = int(np.count_nonzero(~columns.completed | (columns.rounds > hi)))
    frac_below = below / config.trials
    frac_above = above / config.trials
    report = CheckReport(
        n=config.n,
        p=config.p,
        eps=eps,
        trials=config.trials,
        lower=lo,
        upper=hi,
        frac_below_lower=frac_below,
        frac_above_upper=frac_above,
        threshold=threshold,
        passed=frac_below <= threshold and frac_above <= threshold,
    )
    if config.summary_path:
        write_json(report.to_dict(), config.summary_path)
    return report
