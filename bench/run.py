"""rumorsim benchmark: end-to-end throughput and a traced per-layer split.

Run one workload from the repository root:

    python3 bench/run.py --workload law-2048 --seed 1 --seconds 25 --trace 0

or every workload in turn, each in its own process (the default):

    python3 bench/run.py --workload all

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs each chunk once untraced and
once traced, in alternating order, and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object; the line
before it holds run information (environment, code size, output digests).
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SHARE = 0.1  # set-up repeats between chunks while below this share of the run
# The reference kernel's time on the 2-vCPU Intel Xeon host where the
# benchmark was defined, in its fast spells; see _reference_kernel.
REFERENCE_S = 0.003


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    import numpy
    import rumorsim

    exported = [
        name for name in dir(rumorsim)
        if not name.startswith("_") and not inspect.ismodule(getattr(rumorsim, name))
    ]
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "rumorsim").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_lines": src_lines,
        "exported_names": len(exported),
    }


def _reference_kernel() -> float:
    """Time a fixed loop of the work a round does: small uint64 array ops.

    Shared hosts change speed by up to 1.7x for minutes at a time.  Chunk
    times divided by this kernel's time, measured just before each chunk,
    stayed within a few percent through such swings, while raw times did not.
    """
    import numpy as np

    x = np.arange(256, dtype=np.uint64)
    k1, k2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9)
    s31, s11 = np.uint64(31), np.uint64(11)
    start = perf_counter()
    for _ in range(400):
        y = x * k1
        y ^= y >> s31
        y = y * k2
        int(((y >> s11).astype(np.float64) < 0.5).sum())
    return perf_counter() - start


@dataclass
class Measurement:
    first: list = field(default_factory=list)  # pass 0 chunks; checks read these
    samples: dict = field(default_factory=dict)  # chunk index -> [(untraced time, reference)]
    setup: list = field(default_factory=list)  # (set-up time, reference)
    passes: int = 0
    ops: int = 0
    incomplete: int = 0
    digests: dict = field(default_factory=dict)  # chunk index -> digest of its first run
    mismatched: int = 0  # chunk runs whose outputs differ from that chunk's first run
    plain_s: float = 0.0
    traced_s: float = 0.0
    traced_trials: int = 0


def _measure(workload, seed: int, out: Path, seconds: float, tracer, m: Measurement) -> None:
    """Run passes over the workload's chunks until `seconds` have passed.

    Every chunk runs at least once.  Without a tracer, the reference kernel
    runs before each chunk, and the set-up is repeated between chunks across
    the whole run rather than in one burst.  With a tracer every chunk also
    runs traced, alternating which of the two goes first, and the run ends
    only after a whole pass, so the traced work and its per-trial counts are
    the same at a seed however fast the host.
    """
    state = None
    started = perf_counter()
    while True:
        for i in range(workload.chunks):
            elapsed = perf_counter() - started
            if m.passes and elapsed >= seconds and (tracer is None or i == 0):
                return
            reference = _reference_kernel() if tracer is None else 0.0
            if state is None or sum(t for t, _ in m.setup) < SETUP_SHARE * elapsed:
                t0 = perf_counter()
                fresh = workload.setup(seed, out)
                m.setup.append((perf_counter() - t0, reference))
                state = state or fresh
                del fresh  # the next set-up must not overlap this one in memory
            if tracer is None:
                modes = (False,)
            else:
                modes = (False, True) if (m.passes + i) % 2 == 0 else (True, False)
            for traced in modes:
                if traced:
                    with tracer.installed():
                        chunk = workload.chunk(state, i)
                    m.traced_s += chunk.elapsed
                    m.traced_trials += chunk.trials
                else:
                    chunk = workload.chunk(state, i)
                    m.plain_s += chunk.elapsed
                    m.samples.setdefault(i, []).append((chunk.elapsed, reference))
                    if m.passes == 0:
                        m.first.append(chunk)
                m.ops += chunk.ops
                m.incomplete += chunk.incomplete
                m.mismatched += chunk.digest != m.digests.setdefault(i, chunk.digest)
        m.passes += 1


def _at_reference_speed(samples) -> float:
    """Median of time / reference-kernel time, scaled back to seconds."""
    return REFERENCE_S * statistics.median(t / ref for t, ref in samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out = OUT / f"{name}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    problems: list[str] = []
    m = Measurement()
    try:
        _measure(workload, seed, out, seconds, tracer, m)
    except Exception as exc:  # a raising operation fails the run, reported below
        traceback.print_exc()
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when no other run still uses it

    details: dict = {}
    timing: dict = {}
    if m.first and not problems:
        check_problems, details = workload.check(m.first)
        problems += check_problems
    if m.incomplete:
        problems.append(f"{m.incomplete} trials hit max_rounds")
    if m.mismatched:
        problems.append(f"{m.mismatched} chunk runs gave other outputs than the first pass")

    metrics = {}
    if trace and m.traced_trials and m.plain_s:
        metrics = tracer.metrics(m.traced_s, m.traced_trials)
        metrics["trace_overhead"] = (m.traced_s / m.plain_s - 1.0, "ratio")
    elif not trace and m.first:
        trials = sum(c.trials for c in m.first)
        chunks = [m.samples[i] for i in range(len(m.first))]
        timing = {
            "wall_trials_per_s": trials / sum(statistics.median(t for t, _ in s) for s in chunks),
            "wall_setup_s": statistics.median(t for t, _ in m.setup),
            "reference_s": statistics.median(ref for s in chunks for _, ref in s),
        }
        metrics = {
            "trials_per_s": (trials / sum(_at_reference_speed(s) for s in chunks), "1/s"),
            "setup_s": (_at_reference_speed(m.setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    attempted = max(1, m.ops)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": m.passes,
        "chunks": len(m.first),
        "setup_reps": len(m.setup),
        "problems": problems,
        "check": details,
        "timing": timing,
        "digests": [m.digests[i] for i in sorted(m.digests)],
        "environment": _environment(),
    }
    return result, info


def _print_metrics(name: str, result: dict) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(f"{name}: {status}, {result['attempted']} attempted, {result['failed']} failed")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    results = {}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        _print_metrics(name, results[name])
        code |= not results[name]["correct"]
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "rumorsim" / "__init__.py").is_file():
        print(f"error: no rumorsim sources under {SRC}", file=sys.stderr)
        return 2
    # exact_fully_random multiplies matrices; keep BLAS on this one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import rumorsim

    if Path(rumorsim.__file__).resolve().parent != SRC / "rumorsim":
        print(f"error: imported rumorsim from {rumorsim.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload: expected all or one of {', '.join(WORKLOADS)}")
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_metrics(args.workload, result)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
