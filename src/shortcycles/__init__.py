"""Cycle statistics of uniform random permutations with bounded cycle length.

Exact counting and joint laws of small-cycle counts, two exact-uniform
samplers on cycle types (sequential and the restricted transposition walk),
Dickman-function numerics, event probabilities of one walk step per cycle
type, and total-variation distances to the product-Poisson reference
together with the two closed-form bounds.
"""

from .counting import (
    SparsePMF,
    WindowTable,
    brute_force_count,
    brute_force_pmf,
    count_ratio_check,
    count_table,
    expected_count,
    factorial_moment,
    first_element_cycle_length_pmf,
    joint_pmf,
    nu_ratios,
    table_mode,
)
from .dickman import (
    DickmanEvaluator,
    GammaBoundReport,
    RhoRatioReport,
    gamma_bound_check,
    rho_ratio_check,
    xi,
)
from .distances import (
    BoundBreakdown,
    PoissonSpec,
    TvEstimate,
    harmonic_number,
    macroscopic_bound,
    refined_bound,
    tv_cycle_counts,
    tv_empirical,
    tv_exact,
)
from .errors import ResourceLimitError
from .permutations import (
    CountsVector,
    CycleStructure,
    Permutation,
    class_size,
    cycle_structure,
    cycle_type_counts,
    cycle_types,
    longest_cycle,
    mappings_with_bounded_cycles,
    permutations_with_bounded_cycles,
)
from .sampling import (
    SamplerConfig,
    draw,
    draw_cycle_types,
    mcmc_step,
    sample_cycle_type,
    sample_sequential,
)
from .stein import (
    ClosedFormMismatch,
    ClosedFormReport,
    TermEstimates,
    creation_probability,
    destruction_probability,
    destruction_probability_rearranged,
    event_tally,
    term_estimates_exact,
    term_estimates_mc,
    verify_closed_forms,
)

__version__ = "0.1.0"
