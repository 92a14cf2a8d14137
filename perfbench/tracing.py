"""Span tracer for the traced benchmark run.

The tracer lives entirely in the benchmark: it replaces the public functions
of each layer module (and a few named methods) with wrappers, in the
defining module and in every ``shortcycles`` module that imported them by
name, and restores the originals on ``uninstall``.  A wrapper records a span
(id, parent id, name, start, end) in memory; self time is a span's duration
minus the durations of its direct children.  A few wrappers also count work
at the same boundary (table entries, support points, accepted MCMC steps).

Generator functions get a counting wrapper and no span, because their time
is spent interleaved with the caller's.

A metric whose functions are all missing (renamed or removed) is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("permutations", "counting", "dickman", "sampling", "stein", "distances", "cli")

# Methods wrapped besides the public module-level functions.
METHODS = {
    "permutations": ("Permutation.__init__",),
    "dickman": ("DickmanEvaluator.log_rho", "DickmanEvaluator.rho", "XiEvaluator.xi"),
}

TABLE_BUILDERS = ("counting.count_table", "counting.restricted_count_table", "counting.window_table")
CLOSED_FORMS = (
    "stein.creation_probability",
    "stein.destruction_probability",
    "stein.destruction_probability_rearranged",
)
LOG_RHO = ("dickman.DickmanEvaluator.log_rho", "dickman.log_rho")


def _table_entries(counters, fn, args, kwargs, result):
    counters["counting.table_entries"] += result.n_max + 1


def _support_points(counters, fn, args, kwargs, result):
    counters["counting.support_points"] += len(result.entries)


def _tv_points(counters, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    counters["distances.tv_exact_points"] += len(bound.arguments["pmf"].entries)


def _bootstrap(counters, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    counters["distances.bootstrap_replicates"] += bound.arguments["bootstrap"]


def _mcmc_accept(counters, fn, args, kwargs, result):
    # a rejected step hands back its input object
    counters["sampling.mcmc_accepted"] += result is not args[0]


def _combinations(counters, fn, args, kwargs, result):
    counters["stein.combinations_checked"] += result.checked


HOOKS = {
    **{name: _table_entries for name in TABLE_BUILDERS},
    "counting.joint_pmf": _support_points,
    "distances.tv_exact": _tv_points,
    "distances.tv_empirical": _bootstrap,
    "sampling.mcmc_step": _mcmc_accept,
    "stein.verify_closed_forms": _combinations,
}


class Tracer:
    """Wraps the layer functions of an imported ``shortcycles`` package."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: Counter = Counter()
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package: str = "shortcycles") -> None:
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    if vars(other).get(attr) is fn:
                        self._patch(other, attr, wrapper)
            for path in METHODS.get(layer, ()):
                cls_name, method = path.split(".")
                fn = vars(getattr(mod, cls_name, object)).get(method)
                if inspect.isfunction(fn):
                    self._patch(getattr(mod, cls_name), method, self._wrap(f"{layer}.{path}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        self.present.add(name)
        hook = HOOKS.get(name)
        stack = self._stack
        ids = self._ids

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self.counters[name + ".yielded"] += 1
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                try:
                    hook(self.counters, fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    self.counters[name + ".uncounted"] += 1
            return result

        return wrapper


def span_stats(spans, scale: float = 1.0) -> dict[str, dict[str, float]]:
    """Per function name: calls, total time, self time and slowest call.

    Durations are multiplied by ``scale`` (the run's speed normalization).
    """
    children = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end in spans:
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        duration = (end - start) * scale
        s["calls"] += 1
        s["total_s"] += duration
        s["self_s"] += duration - children[span_id] * scale
        s["max_s"] = max(s["max_s"], duration)
    return stats


def merge_stats(into: dict, stats: dict) -> None:
    for name, s in stats.items():
        t = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        for field in ("calls", "total_s", "self_s"):
            t[field] += s[field]
        t["max_s"] = max(t["max_s"], s["max_s"])


# name -> (unit, functions, field).  A function ending in "." stands for
# every traced function of that module.  Fields "self_s", "calls" and
# "max_s" are aggregated over the functions' spans; any other field names a
# counter.
LAYER_METRICS = {
    "counting.table_build_s": ("s", TABLE_BUILDERS, "self_s"),
    "counting.table_entries": ("count", TABLE_BUILDERS, "counting.table_entries"),
    "counting.joint_pmf_s": ("s", ("counting.joint_pmf",), "self_s"),
    "counting.support_points": ("count", ("counting.joint_pmf",), "counting.support_points"),
    "distances.tv_exact_s": ("s", ("distances.tv_exact",), "self_s"),
    "distances.tv_exact_points": ("count", ("distances.tv_exact",), "distances.tv_exact_points"),
    "distances.tv_empirical_s": ("s", ("distances.tv_empirical",), "self_s"),
    "distances.bootstrap_replicates": ("count", ("distances.tv_empirical",), "distances.bootstrap_replicates"),
    "sampling.sequential_s": ("s", ("sampling.sample_sequential",), "self_s"),
    "sampling.sequential_draws": ("count", ("sampling.sample_sequential",), "calls"),
    "sampling.stage_law_s": ("s", ("sampling.stage_length_pmf",), "self_s"),
    "sampling.stages": ("count", ("sampling.stage_length_pmf",), "calls"),
    "sampling.mcmc_step_s": ("s", ("sampling.mcmc_step",), "self_s"),
    "sampling.mcmc_steps": ("count", ("sampling.mcmc_step",), "calls"),
    # divided by sampling.mcmc_steps in layer_metrics
    "sampling.mcmc_accept_ratio": ("ratio", ("sampling.mcmc_step",), "sampling.mcmc_accepted"),
    "permutations.cycle_structure_s": ("s", ("permutations.cycle_structure",), "self_s"),
    "permutations.cycle_structure_calls": ("count", ("permutations.cycle_structure",), "calls"),
    "permutations.construct_s": ("s", ("permutations.Permutation.__init__",), "self_s"),
    "permutations.constructed": ("count", ("permutations.Permutation.__init__",), "calls"),
    "permutations.enumerated": (
        "count", ("permutations.permutations_with_bounded_cycles",),
        "permutations.permutations_with_bounded_cycles.yielded"),
    "stein.closed_form_s": ("s", CLOSED_FORMS, "self_s"),
    "stein.closed_form_calls": ("count", CLOSED_FORMS, "calls"),
    "stein.verify_s": ("s", ("stein.verify_closed_forms",), "self_s"),
    "stein.terms_exact_s": ("s", ("stein.term_estimates_exact",), "self_s"),
    "stein.combinations_checked": ("count", ("stein.verify_closed_forms",), "stein.combinations_checked"),
    "stein.terms_mc_s": ("s", ("stein.term_estimates_mc",), "self_s"),
    "dickman.log_rho_s": ("s", LOG_RHO, "self_s"),
    "dickman.log_rho_calls": ("count", LOG_RHO[:1], "calls"),
    "dickman.log_rho_max_s": ("s", LOG_RHO[:1], "max_s"),
    "cli.self_s": ("s", ("cli.",), "self_s"),
    # whole-module self time, so work in a renamed or new function still shows
    **{f"{layer}.self_s": ("s", (layer + ".",), "self_s") for layer in LAYERS[:-1]},
}


def _matches(name: str, functions) -> bool:
    return any(name == f or (f.endswith(".") and name.startswith(f)) for f in functions)


def layer_metrics(stats, counters, present) -> tuple[dict[str, float], list[str]]:
    """Values of LAYER_METRICS, and the names of those with no function to trace."""
    values, absent = {}, []
    for name, (_, functions, field) in LAYER_METRICS.items():
        if not any(_matches(f, functions) for f in present):
            absent.append(name)
        spans = [s for f, s in stats.items() if _matches(f, functions)]
        if field == "max_s":
            values[name] = max((s[field] for s in spans), default=0.0)
        elif field in ("self_s", "calls"):
            values[name] = float(sum(s[field] for s in spans))
        else:
            values[name] = float(counters[field])
    steps = values["sampling.mcmc_steps"]
    values["sampling.mcmc_accept_ratio"] = values["sampling.mcmc_accept_ratio"] / steps if steps else 0.0
    return values, absent
