"""The benchmark in perfbench/ keeps working against the current library.

Runs the benchmark's own smoke check (one tiny round of every workload with
all output checks on) and resolves every layer name its tracer wraps, so a
change to the library's surface that the benchmark relies on fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_perfbench_smoke_check_passes():
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_perfbench_tracer_resolves_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = tracer.Tracer()
    assert set(traced.stats) == {
        f"{module}.{name}" for module, names in tracer.LAYERS.items() for name in names
    }
