from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    """The demo's stdout, after checking that it exits cleanly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_delayed_phases_demo_runs():
    assert "contained in undelayed: 200/200" in run_demo("delayed_phases.py")


def test_exact_vs_simulated_demo_runs():
    out = run_demo("exact_vs_simulated.py")
    assert "K_4, p=0.6, quasirandom:  exact mass 0.9751 in 8 rounds, TV 0.0063" in out
    assert "quasirandom:  max T over 20000 runs = 256 (never above n = 256)" in out


def test_broadcast_time_law_demo_runs():
    out = run_demo("broadcast_time_law.py")
    assert "asymptotic slowdown factor:     1.828" in out
    assert "quasi median slowdown at p=0.5: 1.857" in out
