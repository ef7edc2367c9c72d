"""Entropy of sums of independent finite-alphabet random variables.

Exact pmf arithmetic, the closed-form lower bound on the maximum entropy of
S_n = X_1 + ... + X_n over {0, ..., r} with its attaining construction,
ultra-log-concavity certificates for the residue classes of S_n, and a
multistart numerical maximizer used to probe tightness.
"""

from .bounds import (
    BoundReport,
    BoundTerms,
    binomial_half_entropy,
    bound_value_at,
    closed_form_special,
    conjectured_inputs,
    conjectured_weight,
    entropy_lower_bound,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    MaxentsumError,
    NotASpecialCaseError,
    PreconditionError,
    ValidationError,
)
from .optimize import (
    OptimizationResult,
    OptimizerConfig,
    StartRecord,
    block_ascend,
    grid_oracle,
    multistart_maximize,
    objective_gradient,
    restricted_maximize,
)
from .pmf import (
    Pmf,
    ResidueDecomposition,
    as_pmf,
    binary_entropy,
    convolve,
    entropy,
    mixture,
    read_pmf,
    residue_decompose,
    sum_distribution,
    write_pmf,
)
from .suites import (
    SuiteReport,
    decomposition_suite,
    identity_suite,
    preserve_suite,
    sign_suite,
    ulc_suite,
)
from .ulc import (
    IdentityGap,
    TernaryTriple,
    UlcClassReport,
    UlcReport,
    conditional_ulc_report,
    convolve_bernoulli_preserves,
    has_internal_zeros,
    identity_gap,
    is_log_concave,
    is_ulc_infinite,
    is_ulc_order,
    random_ulc_sequences,
    sign_lemma_check,
    ternary_sum_masses,
)

__version__ = "0.1.0"

#: Every class and function imported above from a ``maxentsum`` module.
__all__ = sorted(
    name for name, obj in globals().items()
    if getattr(obj, "__module__", "").startswith(__name__ + ".")
)
