"""Cycle statistics of uniform random permutations with bounded cycle length.

Exact counting and joint laws of small-cycle counts, two exact-uniform
samplers on cycle types (sequential and the restricted transposition walk),
Dickman-function numerics, event probabilities of one walk step per cycle
type, total-variation distances to the product-Poisson reference, and the
two closed-form bounds on those distances.

The names below are imported from their home module on first use, so
``import shortcycles`` (and the command line, which imports per command)
loads neither numpy nor any compute module up front.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "closedforms": (
        "BoundBreakdown",
        "harmonic_number",
        "macroscopic_bound",
        "refined_bound",
    ),
    "counting": (
        "SparsePMF",
        "WindowTable",
        "brute_force_count",
        "brute_force_pmf",
        "count_table",
        "expected_count",
        "factorial_moment",
        "first_element_cycle_length_pmf",
        "joint_pmf",
        "nu_ratios",
        "table_mode",
    ),
    "dickman": (
        "DickmanEvaluator",
        "GammaBoundReport",
        "RhoRatioReport",
        "gamma_bound_check",
        "rho_ratio_check",
        "xi",
    ),
    "distances": (
        "PoissonSpec",
        "TvEstimate",
        "tv_cycle_counts",
        "tv_empirical",
        "tv_exact",
    ),
    "errors": ("ResourceLimitError",),
    "permutations": (
        "CountsVector",
        "CycleStructure",
        "Permutation",
        "class_size",
        "cycle_structure",
        "cycle_type_counts",
        "cycle_type_size",
        "cycle_types",
        "longest_cycle",
        "mappings_with_bounded_cycles",
        "permutations_with_bounded_cycles",
    ),
    "sampling": (
        "SamplerConfig",
        "draw",
        "draw_cycle_types",
        "mcmc_step",
    ),
    "stein": (
        "ClosedFormMismatch",
        "ClosedFormReport",
        "TermEstimates",
        "creation_probability",
        "destruction_probability",
        "destruction_probability_rearranged",
        "event_tally",
        "term_estimates_exact",
        "term_estimates_mc",
        "verify_closed_forms",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name):
    # reached only for names not yet in the package globals: an export is
    # cached there once imported, and importing a submodule binds its name
    if name in _HOME_OF:
        value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _HOMES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
