"""Benchmark of the shortcycles command line.

    python3 perfbench/run.py --workload exact_law --seed 1 --seconds 40 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout; nothing is installed or built.  Workloads and checks are
defined in ``workloads.py``, the reference answers in ``reference.json``.

A run

1. imports ``shortcycles.cli`` once in a fresh interpreter (this writes the
   bytecode caches), then runs one untimed warm-up pass of the workload at
   reduced size, so lazily imported code is loaded before timing;
2. runs timed passes until ``--seconds`` is used up.  Each command goes
   through ``shortcycles.cli.main(argv)`` in this process, one at a time,
   writing into ``.bench_build/perfbench/``; every output is checked after
   the clock stops.  The deep-tail probes of ``large_n`` run in every pass,
   are checked and counted, and are never timed.  After each pass,
   ``import shortcycles.cli`` is timed in fresh interpreters (``setup_s``);
3. with ``--trace 1``, follows each plain pass with a traced pass (see
   ``tracing.py``) and reports per-layer metrics, the per-command times of
   the plain passes and the tracing overhead instead of the end-to-end
   metrics.

Speed normalization.  On a shared host the speed of this process drifts by
tens of percent over tens of seconds, the same factor for all code.  Every
timed interval is therefore bracketed by a fixed pure-Python kernel that
runs no shortcycles code, and every reported time is
``raw seconds * KERNEL_REF_S / (kernel time around the interval)``: seconds
on a machine where the kernel takes KERNEL_REF_S.  A change to the program
cannot move the kernel, so comparisons between commits are unaffected; raw
seconds are kept in the record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the timed commands (warm-up included); ``ops_ok_frac``
counts the probes too.  A line starting with ``record:`` before it carries
the machine and version record, per-command quartiles and every failure;
the same record is written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is first imported; the workload is
# single-threaded Python, so one thread keeps runs comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PER_PASS = 1
SETUP_CODE = "import time\nt = time.perf_counter()\nimport shortcycles.cli\nprint(repr(time.perf_counter() - t))"
KERNEL_REF_S = 0.005  # the kernel's time on a 2-core x86-64 VM while its host is quiet

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="smoke runs reduced inputs (see smoke.py)")
    return parser.parse_args(argv)


def kernel_seconds() -> float:
    """Best of three runs of a fixed pure-Python kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            total = 0
            table = {}
            items = []
            for i in range(40000):
                total += (i * i) % 7
                table[i & 1023] = total
                items.append(total)
            items.sort()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times one interval; ``scale`` turns raw seconds into reference seconds."""

    def __enter__(self):
        self.before = kernel_seconds()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = perf_counter() - self.start
        self.after = kernel_seconds()
        self.scale = 2 * KERNEL_REF_S / (self.before + self.after)
        self.seconds = self.raw * self.scale
        return False


def setup_seconds(count: int) -> list[float]:
    """Import times of shortcycles.cli, each in a fresh interpreter, in reference seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(count):
        with Clock() as clock:
            done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"import shortcycles.cli failed:\n{done.stderr}")
        samples.append(float(done.stdout) * clock.scale)
    return samples


class Pass:
    """Timings, check results and (when traced) span statistics of one pass."""

    def __init__(self):
        self.times: dict[str, float] = {}  # reference seconds
        self.raw_times: dict[str, float] = {}
        self.output_bytes = 0
        self.attempted = self.failed = 0  # timed commands
        self.probes = self.probes_failed = 0
        self.failures: list[str] = []
        self.stats: dict = {}
        self.counters = Counter()


def run_op(cli, op, path):
    argv = [str(path) if a == "{out}" else a for a in op.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    with Clock() as clock:
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = -1
            stderr.write(traceback.format_exc())
    return clock, workloads.Outcome(rc, stdout.getvalue(), stderr.getvalue(), str(path) if path else None)


def run_pass(cli, ops, refs, out_dir: Path, tracer=None) -> Pass:
    result = Pass()
    done = []
    for i, op in enumerate(ops):
        path = out_dir / f"{i}{op.suffix}" if op.suffix else None
        if tracer is not None:
            tracer.take()
        clock, outcome = run_op(cli, op, path)
        if op.metric is not None:
            result.times[op.metric] = clock.seconds
            result.raw_times[op.metric] = clock.raw
            if tracer is not None:
                spans, counters = tracer.take()
                tracing.merge_stats(result.stats, tracing.span_stats(spans, clock.scale))
                result.counters.update(counters)
        done.append((op, outcome))
    # the clock has stopped: check every output
    for op, outcome in done:
        if outcome.rc != 0:
            message = f"exit code {outcome.rc}: {(outcome.stderr.strip().splitlines() or [''])[-1]}"
        else:
            try:
                message = op.check(outcome, refs)
            except Exception as exc:  # unreadable or malformed output
                message = f"check raised {exc!r}"
        if op.metric is None:
            result.probes += 1
            result.probes_failed += message is not None
        else:
            result.attempted += 1
            result.failed += message is not None
            size = len(outcome.stdout.encode())
            if outcome.path and os.path.exists(outcome.path):
                size += os.path.getsize(outcome.path)
            result.output_bytes += size
        if message is not None:
            result.failures.append(f"{op.label}: {message}")
        if outcome.path and os.path.exists(outcome.path):
            os.remove(outcome.path)
    return result


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def one_pass(passes, field: str = "times") -> float:
    """A pass over the timed commands, each at its median over ``passes``."""
    names = getattr(passes[0], field)
    return sum(statistics.median(getattr(p, field)[name] for p in passes) for name in names)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shortcycles" / "cli.py").is_file():
        print(f"no shortcycles sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "reference.json").read_text())
    ops = workloads.build(args.workload, args.size, args.seed)
    setup_seconds(1)
    # set-up is sampled after every pass, so one slow spell does not dominate
    setup_per_pass = 0 if args.trace else SETUP_PER_PASS
    setup = []

    sys.path.insert(0, str(SRC))
    from shortcycles import cli

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    passes = {"warmup": [], "plain": [], "traced": []}
    try:
        passes["warmup"].append(run_pass(cli, workloads.build(args.workload, "smoke", args.seed), refs, out_dir))
        deadline = perf_counter() + args.seconds
        while True:
            started = perf_counter()
            passes["plain"].append(run_pass(cli, ops, refs, out_dir))
            setup += setup_seconds(setup_per_pass)
            if tracer is not None:
                tracer.install()
                try:
                    passes["traced"].append(run_pass(cli, ops, refs, out_dir, tracer))
                finally:
                    tracer.uninstall()
            if perf_counter() + (perf_counter() - started) > deadline:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    every = [p for group in passes.values() for p in group]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    ok_frac = 1 - (failed + sum(p.probes_failed for p in every)) / (attempted + sum(p.probes for p in every))
    plain = passes["plain"]
    command_times = {name: [p.times[name] for p in plain] for name in plain[0].times}
    wall = one_pass(plain)

    absent, stats = [], {}
    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(wall, "s"),
            "ops_ok_frac": metric(ok_frac, "ratio"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {
            name: metric(statistics.median(command_times[name]) if name in command_times else 0.0, "s")
            for name in workloads.COMMAND_METRICS
        }
        traced = passes["traced"]
        per_pass = []
        for p in traced:
            values, absent = tracing.layer_metrics(p.stats, p.counters, tracer.present)
            per_pass.append(values)
        for name, (unit, _, _) in tracing.LAYER_METRICS.items():
            metrics[name] = metric(statistics.median(v[name] for v in per_pass), unit)
        metrics["cli.output_bytes"] = metric(statistics.median(p.output_bytes for p in plain), "bytes")
        metrics["trace_overhead_frac"] = metric((one_pass(traced) - wall) / wall, "ratio")
        stats = traced[-1].stats

    failures = sorted({f for p in every for f in p.failures})
    record = {
        **machine_record(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {k: len(v) for k, v in passes.items()},
        "kernel_ref_s": KERNEL_REF_S,
        "setup_samples_s": setup,
        "wall_raw_s": one_pass(plain, "raw_times"),
        "commands": {name: {"quartiles_s": quartiles(v), "samples": len(v)} for name, v in command_times.items()},
        "probes": {"attempted": sum(p.probes for p in every), "failed": sum(p.probes_failed for p in every)},
        "failures": failures,
        "absent_spans": absent,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    report = OUT / f"BENCH_{args.workload}_trace{args.trace}_seed{args.seed}.json"
    report.write_text(json.dumps({"record": {**record, "span_stats_last_traced_pass": stats},
                                  "metrics": metrics}, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for failure in failures:
        print(f"FAILED {failure}")
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
