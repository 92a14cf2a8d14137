"""The benchmark harness still runs: every workload at smoke size, all checks pass, and every
per-layer metric but the four dead sequential and stage-law spans finds a function to trace."""

import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


def test_only_the_four_dead_spans_lack_a_traced_function():
    # a renamed or removed sampler function would silently turn its per-layer
    # metric absent; the sequential and stage-law spans name functions that are gone.
    # The tracer wraps only layer modules already imported, and the CLI imports
    # them per command, so import each one here, whatever ran before this test
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        importlib.import_module(f"shortcycles.{layer}")
    tracer = tracing.Tracer()
    tracer.install("shortcycles")
    try:
        assert tracing.layer_metrics({}, Counter(), tracer.present)[1] == [
            "sampling.sequential_s", "sampling.sequential_draws", "sampling.stage_law_s", "sampling.stages"
        ]
    finally:
        tracer.uninstall()
