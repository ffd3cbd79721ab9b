"""The bench tracer (bench/tracing.py) wraps package functions by name and
reads attributes of their arguments.  The tier-1 suite never runs a traced
bench, so this checks here that every name it wraps exists, that its hooks
can read what the engine passes, and that it restores the originals."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from rumorsim import (
    ExperimentConfig,
    FailureModel,
    ListStrategy,
    TrialRandomness,
    busy_growth_sample,
    complete_graph,
    coupled_run,
    realize_lists,
    run,
)
from rumorsim import engine, harness, phases
from rumorsim.engine import Protocol, init_state
from rumorsim.phases import Phase, PhaseKind

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_names_and_reads_the_engine_state():
    tracing = _tracing()
    targets = tracing._targets()
    originals = [owner.__dict__[attr] for _, owner, attr, _, _ in targets]
    lists = realize_lists(complete_graph(16), ListStrategy.CANONICAL)
    fm = FailureModel(0.5)

    # a list walk, random targets (no cursor) and a policy run (attempts, may_send)
    states = [
        init_state(lists, protocol, fm, [0], [TrialRandomness(1, 0)], policy)
        for protocol, policy in [
            (Protocol.QUASIRANDOM, None), (Protocol.FULLY_RANDOM, None),
            (Protocol.QUASIRANDOM, phases._Schedule([Phase(PhaseKind.BUSY, 40)], [True])),
        ]
    ]
    for state in states:
        for _, owner, attr, before, after in targets:
            if owner is engine and attr == "step":  # the hooks read the state argument
                pre = before((state,)) if before is not None else None
                engine.step(state, 100)
                if after is not None:
                    assert after((state,), pre)[0] >= 1  # the rounds the step ran

    tracer = tracing.Tracer()
    with tracer.installed():
        run(lists, Protocol.QUASIRANDOM, fm, 0, TrialRandomness(1, 0), 100)
        coupled_run(lists, fm, 0, [Phase(PhaseKind.BUSY, 40)], TrialRandomness(1, 0), 100)
        busy_growth_sample(lists, fm, TrialRandomness(1, 0), k=2, min_newly=2, max_informed=16)
    assert len(tracer.t0) > 0
    assert [owner.__dict__[attr] for _, owner, attr, _, _ in targets] == originals


# what each kind of run must keep calling, or the bench's per-layer counts read 0
LIST_WALK = ("coin_uniforms", "initial_positions", "targets_at", "step")
TRACED_IN_A_RUN = {
    Protocol.QUASIRANDOM: LIST_WALK,
    Protocol.FEEDBACK_RETRY: LIST_WALK + ("feedback_uniforms",),
    Protocol.FULLY_RANDOM: ("coin_uniforms", "target_indices", "step"),
    "coupled": LIST_WALK,
}


def test_runs_and_a_coupled_run_reach_every_traced_hot_path_name():
    tracing = _tracing()
    lists = realize_lists(complete_graph(16), ListStrategy.CANONICAL)
    fm = FailureModel(0.5)
    for kind, names in TRACED_IN_A_RUN.items():
        tracer = tracing.Tracer()
        with tracer.installed():
            if kind == "coupled":
                coupled_run(lists, fm, 0, [Phase(PhaseKind.BUSY, 40)], TrialRandomness(2, 1), 100)
            else:
                run(lists, kind, fm, 0, TrialRandomness(2, 0), 100)
        seen = {tracer.kinds[k][1] for k in tracer.kind}
        assert [name for name in names if name not in seen] == [], kind


def test_a_traced_run_experiment_reaches_the_traced_harness_names(tmp_path):
    # the bench times the run's summary and writes by these names
    tracing = _tracing()
    config = ExperimentConfig(
        protocol="quasi", n=6, p=0.5, trials=20, seed=3,
        out_path=str(tmp_path / "r.csv"), summary_path=str(tmp_path / "s.json"),
    )
    tracer = tracing.Tracer()
    with tracer.installed():  # patched where it is looked up, as the bench calls it
        harness.run_experiment(config)
    seen = [tracer.kinds[k][1] for k in tracer.kind]
    assert seen[0] == "run_experiment"
    assert {"summarize", "write_records_csv", "write_json"} <= set(seen)
    metrics = tracer.metrics(1.0, config.trials)
    assert metrics["harness.bytes_written"][0] > 0
