"""Smoke test of the benchmark at reduced input sizes.

    python3 perfbench/smoke.py

Runs every workload with ``--size smoke`` for one second, untraced and
traced, and checks that

* the emitted metrics are exactly those BENCHMARK.json names for that mode,
  each with its unit and a finite value, end-to-end values non-zero;
* every check passes, except that the two deep-tail probes of ``large_n``
  may fail (they do while the float nu table underflows).

Exits 0 when all of that holds and prints what failed otherwise.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--size", "smoke"])
    lines = buffer.getvalue().strip().splitlines()
    where = f"{workload} --trace {trace}"
    if code != 0:
        return [f"{where}: exit code {code}"]
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record: "))[len("record: "):])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: timed commands failed: {record['failures']}")
    unexpected = [f for f in record["failures"] if not f.startswith("probe ")]
    if unexpected:
        problems.append(f"{where}: {unexpected}")
    declared = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in declared]:
        problems.append(f"{where}: metrics {list(result['metrics'])} differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {got['unit']}, declared {m['unit']}")
        if not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{where}: {m['name']} = {got['value']!r}")
        elif not trace and got["value"] == 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is 0")
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    problems = [p for w in workloads.WORKLOADS for trace in (0, 1) for p in check_run(w, trace, spec)]
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
