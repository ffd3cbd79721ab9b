from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_compares_a_package_copy_with_itself(tmp_path):
    # the four workload shapes, two reps each, one copy imported under both names
    copy = tmp_path / "rumorsim"
    shutil.copytree(ROOT / "src" / "rumorsim", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(copy), str(copy), "--reps", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[0] == "shape"
    assert [row.split()[0] for row in rows] == ["law", "tiny", "star", "coupled"]
    for row in rows:
        *_, ratio, wins, outputs = row.split()
        assert float(ratio) > 0 and wins.endswith("/2") and outputs == "equal"
