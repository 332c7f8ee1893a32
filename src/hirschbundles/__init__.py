"""Generalized Hirsch-type impact bundles for rank-frequency functions.

The package solves equations of the form T(f)(x) = A(x, theta) for
decreasing piecewise-linear f, where T is one of identity / averaging /
integral and A a parametrized threshold family, yielding the bundle
theta -> m_theta(f) that generalizes the h-, g-, and power-variant
indices.  It also ships executable property suites for the order,
convergence, and impact behavior of those bundles.
"""

from .errors import (
    BadPrefixError,
    BundleError,
    DomainError,
    DomainMismatchError,
    EmptyInputError,
    NonPositiveThetaError,
    NonUniqueError,
    NoRootError,
    SingularAbscissaError,
    WouldViolateInvariantsError,
    ZeroFunctionError,
    ZeroValueError,
)
from .funcspace import (
    PerturbMode,
    RankFrequencyFunction,
    eq_on_prefix,
    from_citation_counts,
    leq,
    lt_on_prefix,
    perturb,
    random_function,
)
from .operators import (
    Monotonicity,
    OperatorKind,
    TransformedFunction,
    apply,
    check_operator_contract,
)
from .reporting import Counterexample, Verdict, VerificationReport
from .solver import (
    BundleEntry,
    SolveStatus,
    g_index,
    g_kosmulski_index,
    h_index,
    kosmulski_index,
    polar_radius,
    sample_bundle,
    solve_bundle_point,
    solve_transformed,
)
from .thresholds import (
    AdmissibleRange,
    DecreasingLinearThreshold,
    PowerThreshold,
    ThresholdFamily,
    admissible_range,
    psi,
)
from .verify import (
    ReversalFamily,
    SuiteConfig,
    SuiteResult,
    check_convergence_pointwise,
    check_convergence_uniform,
    check_decreasing_difference,
    check_dominance_order,
    check_impact_axioms,
    check_root_side,
    check_theta_monotonicity,
    check_threshold_gap_bound,
    check_transform_gap_bound,
    classify_difference,
    run_property_suite,
)

__version__ = "0.1.0"
