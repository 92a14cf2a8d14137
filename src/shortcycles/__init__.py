"""Cycle statistics of uniform random permutations with bounded cycle length.

Exact counting and joint laws of small-cycle counts, three exact-uniform
samplers, Dickman-function numerics, per-permutation event probabilities
for the restricted transposition walk, and total-variation distances to
the product-Poisson reference together with the two closed-form bounds.
"""

from .counting import (
    SparsePMF,
    WindowTable,
    brute_force_count,
    brute_force_pmf,
    count_ratio_check,
    count_table,
    expected_count,
    first_element_cycle_length_pmf,
    joint_pmf,
    restricted_count_table,
    support_size,
    table_mode,
    window_table,
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
    Transposition,
    apply_transposition,
    class_size,
    cycle_structure,
    cycle_type_counts,
    cycle_types,
    longest_cycle,
    permutations_with_bounded_cycles,
)
from .sampling import (
    SamplerConfig,
    TransitionMatrix,
    acceptance_rate,
    draw,
    draw_cycle_types,
    mcmc_step,
    sample_cycle_type,
    sample_rejection,
    sample_sequential,
    stationarity_matrix,
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
