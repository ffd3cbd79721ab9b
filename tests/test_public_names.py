"""The names rumorsim exports, pinned: adding or dropping one edits this list."""

from __future__ import annotations

import inspect

import rumorsim

PUBLIC_NAMES = [
    "BoundReport", "BuiltSchedule", "CheckReport", "CompareResult", "ConfigError",
    "CoupledResult", "DelayedResult", "ExactDistribution", "ExperimentConfig",
    "ExperimentResult", "FailureModel", "GraphKind", "GrowthSample", "ListAssignment",
    "ListStrategy", "Phase", "PhaseKind", "PhaseRecord", "Protocol", "ScheduleConstants",
    "SummaryStats", "Topology", "TrialRandomness", "TrialRecord", "TrialResult",
    "azuma_bound", "baseline_bound", "bound_report", "busy_growth_sample", "check_bounds",
    "chernoff_lower", "chernoff_upper", "compare", "complete_graph", "coupled_run",
    "default_max_rounds", "derive_key", "exact_fully_random", "exact_quasirandom",
    "load_lists_file", "load_schedule", "lossy_bound", "lower_bound", "mix64",
    "parse_schedule", "realize_lists", "run", "run_delayed", "run_experiment",
    "save_schedule", "schedule_constants", "schedule_text", "slowdown_factor",
    "star_fully_random_expectation", "star_graph", "success_prob", "summarize",
    "tv_distance", "upper_bound", "upper_bound_schedule", "write_json", "write_records_csv",
]


def test_the_exported_names_are_the_pinned_list():
    # the count bench/run.py reports as exported_names: public names that are not modules
    exported = [
        name for name in dir(rumorsim)
        if not name.startswith("_") and not inspect.ismodule(getattr(rumorsim, name))
    ]
    assert exported == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 62
