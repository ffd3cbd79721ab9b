"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop on one thread: ``chunk`` runs a fixed batch
of operations (trials, coupled pairs, oracle calls) through the package's
public entry points and times only those calls; the next chunk starts after
the previous one returns.  Chunk ``i`` draws from seeds derived from the
workload seed and ``i``, so a seed fixes every input and every output.

Import this module only after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import numpy as np

import rumorsim as rs
from rumorsim import cli

# A pass runs every chunk of a workload once; run.py repeats passes for the
# run's length and takes each chunk's median cost, so a pass is kept to a few
# seconds and a chunk to a fraction of one where the workload allows.
LAW_N = 2048
LAW_TRIALS = 50  # one CLI call, about 0.45 s, of which list realization is 0.12 s; 2 chunks a pass
TINY_TRIALS = 200  # per run_experiment call, two calls per chunk, 10 chunks a pass
STAR_TRIALS = 1  # 64 chunks: 64 trials put the 10% mean window at 3.9 standard errors
COUPLED_PAIRS = 10  # 32 chunks

# criterion 09's two phase schedules, alternated across pairs
COUPLED_SCHEDULES = (
    "lazy,2\nbusy,4\nlazy,3\nbusy,400\n",
    "busy,3\nlazy,5\nbusy,2\nlazy,1\nbusy,400\n",
)
# the tiny-exact TV check fails a correct engine with probability below this
TV_FALSE_ALARM = 1e-9


@dataclass
class Chunk:
    elapsed: float  # seconds spent inside package calls
    trials: int  # trials or coupled pairs, the unit of trials_per_s
    ops: int  # trials plus oracle calls, the unit of failure accounting
    incomplete: int  # trials that hit max_rounds
    digest: str  # sha256 of the chunk's deterministic outputs
    data: dict = field(default_factory=dict)  # what the workload check reads


@dataclass(frozen=True)
class Workload:
    name: str
    chunks: int  # distinct chunks in one pass
    setup: Callable[[int, Path], object]  # the package's set-up calls, timed as setup_s
    chunk: Callable[[object, int], Chunk]
    check: Callable[[list[Chunk]], tuple[list[str], dict]]


def _chunk_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _arrays(records) -> tuple[np.ndarray, np.ndarray]:
    rounds = np.array([r.rounds for r in records], dtype=np.int64)
    completed = np.array([r.completed for r in records], dtype=bool)
    return rounds, completed


def _read_csv(path: Path, trials: int) -> tuple[np.ndarray, np.ndarray]:
    rows = path.read_text().splitlines()[1:]
    if len(rows) != trials:
        raise ValueError(f"{path.name}: {len(rows)} rows, expected {trials}")
    fields = [row.split(",") for row in rows]
    rounds = np.array([int(f[2]) for f in fields], dtype=np.int64)
    completed = np.array([f[3] == "true" for f in fields], dtype=bool)
    return rounds, completed


def _outputs(st, stem: str) -> tuple[Path, Path]:
    return st.out / f"{stem}.csv", st.out / f"{stem}.json"


# law-2048: the paper's headline law through the CLI, as a user runs it.  At
# n=4096 one call takes over a second, and with so few chunks host-speed
# swings doubled the run-to-run spread; n=2048 keeps the materialized table
# (32 MiB) and the wide rounds at a quarter of the cost.


def _law_setup(seed: int, out: Path):
    cfg = rs.ExperimentConfig(
        protocol="quasi", n=LAW_N, p=0.5, trials=LAW_TRIALS,
        seed=seed, lists="random", list_seed=seed,
    )
    cfg.validate()
    cfg.build_lists()
    return SimpleNamespace(seed=seed, out=out)


def _law_chunk(st, i: int) -> Chunk:
    csv, summary = _outputs(st, "law")
    argv = [
        "sim", "--protocol", "quasi", "--n", str(LAW_N), "--p", "0.5",
        "--lists", "random", "--list-seed", str(st.seed),
        "--seed", str(_chunk_seed(st.seed, i)), "--trials", str(LAW_TRIALS),
        "--out", str(csv), "--summary", str(summary),
    ]
    printed = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"rumorsim sim exited with code {code}")
    rounds, completed = _read_csv(csv, LAW_TRIALS)
    digest = _sha256(csv.read_bytes(), summary.read_bytes(), printed.getvalue().encode())
    return Chunk(elapsed, LAW_TRIALS, LAW_TRIALS, int((~completed).sum()), digest,
                 {"rounds": rounds})


def _law_check(chunks):
    mean = float(np.concatenate([c.data["rounds"] for c in chunks]).mean())
    lo, hi = rs.lower_bound(LAW_N, 0.5, 0.2), rs.upper_bound(LAW_N, 0.5, 0.2)
    problems = [] if lo <= mean <= hi else [f"mean {mean:.3f} outside [{lo:.3f}, {hi:.3f}]"]
    return problems, {"mean_rounds": mean, "lower_bound": lo, "upper_bound": hi}


# tiny-exact: criteria 05/06 at benchmark size, oracle included


def _tv_bound(dist, trials: int) -> float:
    """TV(empirical, exact) that a correct engine exceeds w.p. < TV_FALSE_ALARM.

    E|emp_t - p_t| <= sqrt(p_t (1 - p_t) / N) bounds the mean; one trial
    moves TV by at most 1/N, so McDiarmid adds sqrt(ln(1/alarm) / (2N)).
    """
    p = np.append(dist.mass, dist.tail)
    mean = 0.5 * float(np.sqrt(p * (1.0 - p)).sum()) / math.sqrt(trials)
    return mean + math.sqrt(math.log(1.0 / TV_FALSE_ALARM) / (2.0 * trials))


def _tiny_setup(seed: int, out: Path):
    random5 = rs.ExperimentConfig(protocol="random", n=5, p=0.7, trials=TINY_TRIALS, max_rounds=100)
    quasi4 = rs.ExperimentConfig(protocol="quasi", n=4, p=0.6, trials=TINY_TRIALS, max_rounds=80)
    for cfg in (random5, quasi4):
        cfg.validate()
        cfg.build_lists()
    lists4 = rs.realize_lists(rs.complete_graph(4), rs.ListStrategy.CANONICAL, 0)
    return SimpleNamespace(seed=seed, out=out, random5=random5, quasi4=quasi4, lists4=lists4)


def _tiny_chunk(st, i: int) -> Chunk:
    s = _chunk_seed(st.seed, i)
    r_csv, r_json = _outputs(st, "random5")
    q_csv, q_json = _outputs(st, "quasi4")
    random5 = replace(st.random5, seed=s, out_path=str(r_csv), summary_path=str(r_json))
    quasi4 = replace(st.quasi4, seed=s, out_path=str(q_csv), summary_path=str(q_json))
    start = perf_counter()
    exact_r = rs.exact_fully_random(5, 0.7, 60)
    exact_q = rs.exact_quasirandom(4, st.lists4, 0.6, horizon=8)
    res_r = rs.run_experiment(random5)
    res_q = rs.run_experiment(quasi4)
    rounds_r, done_r = _arrays(res_r.records)
    rounds_q, done_q = _arrays(res_q.records)
    tv_r = rs.tv_distance(exact_r, rounds_r, done_r)
    tv_q = rs.tv_distance(exact_q, rounds_q, done_q)
    elapsed = perf_counter() - start
    digest = _sha256(
        exact_r.mass.tobytes(), repr(exact_r.tail).encode(),
        exact_q.mass.tobytes(), repr(exact_q.tail).encode(),
        r_csv.read_bytes(), r_json.read_bytes(), q_csv.read_bytes(), q_json.read_bytes(),
    )
    incomplete = int((~done_r).sum() + (~done_q).sum())
    data = {
        "exact": (exact_r, exact_q),
        "records": ((rounds_r, done_r), (rounds_q, done_q)),
        "tv": (float(tv_r), float(tv_q)),
    }
    return Chunk(elapsed, 2 * TINY_TRIALS, 2 * TINY_TRIALS + 2, incomplete, digest, data)


def _tiny_check(chunks):
    """Each chunk's TV, and the TV of all of the pass's trials pooled."""
    problems, details = [], {}
    for k, label in enumerate(("random5", "quasi4")):
        exact = chunks[0].data["exact"][k]
        chunk_bound = _tv_bound(exact, TINY_TRIALS)
        worst = max(c.data["tv"][k] for c in chunks)
        rounds = np.concatenate([c.data["records"][k][0] for c in chunks])
        done = np.concatenate([c.data["records"][k][1] for c in chunks])
        pooled = float(rs.tv_distance(exact, rounds, done))
        pooled_bound = _tv_bound(exact, len(rounds))
        if worst > chunk_bound:
            problems.append(f"{label}: chunk TV {worst:.5f} above {chunk_bound:.5f}")
        if pooled > pooled_bound:
            problems.append(f"{label}: pooled TV {pooled:.5f} above {pooled_bound:.5f}")
        details[label] = {"max_chunk_tv": worst, "chunk_bound": chunk_bound,
                          "pooled_tv": pooled, "pooled_bound": pooled_bound}
    return problems, details


# star-256: the slow half of criterion 08


def _star_setup(seed: int, out: Path):
    cfg = rs.ExperimentConfig(
        protocol="random", topology="star", n=256, p=1.0, trials=STAR_TRIALS,
        start="fixed:1", max_rounds=6000,
    )
    cfg.validate()
    cfg.build_lists()
    return SimpleNamespace(seed=seed, out=out, cfg=cfg)


def _star_chunk(st, i: int) -> Chunk:
    csv, summary = _outputs(st, "star")
    cfg = replace(st.cfg, seed=_chunk_seed(st.seed, i), out_path=str(csv), summary_path=str(summary))
    start = perf_counter()
    res = rs.run_experiment(cfg)
    elapsed = perf_counter() - start
    rounds, completed = _arrays(res.records)
    digest = _sha256(csv.read_bytes(), summary.read_bytes())
    return Chunk(elapsed, STAR_TRIALS, STAR_TRIALS, int((~completed).sum()), digest,
                 {"rounds": rounds})


def _star_check(chunks):
    mean = float(np.concatenate([c.data["rounds"] for c in chunks]).mean())
    expected = rs.star_fully_random_expectation(256)
    ok = abs(mean - expected) <= 0.10 * expected
    problems = [] if ok else [f"mean {mean:.1f} not within 10% of {expected:.1f}"]
    return problems, {"mean_rounds": mean, "expected": expected}


# coupled-1024: delayed and undelayed quasirandom in lockstep


def _coupled_setup(seed: int, out: Path):
    lists = rs.realize_lists(rs.complete_graph(1024), rs.ListStrategy.CANONICAL, 0)
    schedules = [rs.parse_schedule(text) for text in COUPLED_SCHEDULES]
    return SimpleNamespace(seed=seed, lists=lists, schedules=schedules, failure=rs.FailureModel(0.5))


def _coupled_chunk(st, i: int) -> Chunk:
    pairs = range(i * COUPLED_PAIRS, (i + 1) * COUPLED_PAIRS)
    start = perf_counter()
    outs = [
        rs.coupled_run(st.lists, st.failure, 0, st.schedules[k % 2], rs.TrialRandomness(st.seed, k))
        for k in pairs
    ]
    elapsed = perf_counter() - start
    lines = [
        f"{k},{o.delayed.rounds},{o.delayed.completed},{o.undelayed.rounds},"
        f"{o.undelayed.completed},{o.dominated},"
        + ";".join(f"{r.kind.value}:{r.executed}:{r.informed_after}:{r.newly_after}"
                   for r in o.delayed.phases)
        for k, o in zip(pairs, outs)
    ]
    # a delayed run may legitimately stall (an empty active set at a phase
    # boundary); the undelayed run always completes at this size
    incomplete = sum(not o.undelayed.completed for o in outs)
    data = {
        "dominated": sum(o.dominated for o in outs),
        "delayed_stalled": sum(not o.delayed.completed for o in outs),
    }
    return Chunk(elapsed, COUPLED_PAIRS, COUPLED_PAIRS, incomplete,
                 _sha256("\n".join(lines).encode()), data)


def _coupled_check(chunks):
    dominated = sum(c.data["dominated"] for c in chunks)
    pairs = sum(c.trials for c in chunks)
    problems = [] if dominated == pairs else [f"{pairs - dominated} of {pairs} pairs not dominated"]
    stalled = sum(c.data["delayed_stalled"] for c in chunks)
    return problems, {"dominated": dominated, "pairs": pairs, "delayed_stalled": stalled}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("law-2048", 2, _law_setup, _law_chunk, _law_check),
        Workload("tiny-exact", 10, _tiny_setup, _tiny_chunk, _tiny_check),
        Workload("star-256", 64, _star_setup, _star_chunk, _star_check),
        Workload("coupled-1024", 32, _coupled_setup, _coupled_chunk, _coupled_check),
    )
}
