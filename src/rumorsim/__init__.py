"""Simulation and verification toolkit for push rumor spreading with lossy
transmissions: round-based protocol engines, a delayed lazy/busy-phase
variant with exact couplings, closed-form bound evaluators, and exact
small-instance oracles, tied together by a reproducible experiment harness.
"""

from .bounds import (
    BoundReport,
    ScheduleConstants,
    azuma_bound,
    baseline_bound,
    bound_report,
    chernoff_lower,
    chernoff_upper,
    default_max_rounds,
    lossy_bound,
    lower_bound,
    schedule_constants,
    slowdown_factor,
    success_prob,
    upper_bound,
)
from .engine import FailureModel, Protocol, TrialResult, run
from .harness import (
    CheckReport,
    CompareResult,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SummaryStats,
    TrialRecord,
    check_bounds,
    compare,
    run_experiment,
    summarize,
    write_json,
    write_records_csv,
)
from .oracle import (
    ExactDistribution,
    exact_fully_random,
    exact_quasirandom,
    star_fully_random_expectation,
    tv_distance,
)
from .phases import (
    BuiltSchedule,
    CoupledResult,
    DelayedResult,
    GrowthSample,
    Phase,
    PhaseKind,
    PhaseRecord,
    busy_growth_sample,
    coupled_run,
    load_schedule,
    parse_schedule,
    run_delayed,
    save_schedule,
    schedule_text,
    upper_bound_schedule,
)
from .rng import TrialRandomness, derive_key, mix64
from .topology import (
    GraphKind,
    ListAssignment,
    ListStrategy,
    Topology,
    complete_graph,
    load_lists_file,
    realize_lists,
    star_graph,
)

__version__ = "0.1.0"
