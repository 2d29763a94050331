"""Free-energy minimization over finite-alphabet distributions.

The core problem is minimizing E_q[L] + T * D(q) over the probability
simplex for three complexity penalties D (negative entropy, KL to a prior,
half squared distance to a prior), each with a closed-form Gibbs-type
solution. The surrounding modules apply the same machinery to
maximum-entropy modelling, Bayesian and generalized posteriors, EM for
mixtures, information-risk minimization with generalization-bound coverage
experiments, variational KL estimation from samples, and exponentiated
gradient descent on the simplex.
"""

from .errors import (
    AlphabetTooLarge,
    DegenerateComponentWarning,
    DimensionMismatch,
    EmptyData,
    EmptySamples,
    EmptyTrainingSet,
    FeminError,
    FlooringWarning,
    Infeasible,
    NonFinite,
    NonPositivePrior,
    NotConverged,
    SupportViolation,
    ZeroCoordinate,
)
from .free_energy import (
    HALF_SQ_L2,
    KL_TO_PRIOR,
    NEG_ENTROPY,
    ComplexityPenalty,
    FreeEnergyProblem,
    Solution,
    brute_force_minimize,
    fenchel_young_gap,
    free_energy,
    minimize_closed_form,
    solve_tau,
)
from .gen_bayes import (
    UnnormalizedModel,
    elbo,
    generalized_posterior,
    log_partition,
    mean_field_coordinate_ascent,
    posterior,
)
from .kl_estimate import (
    FitResult,
    LinearFeaturesFunction,
    SamplePair,
    TabularFunction,
    dv_objective,
    dv_objective_population,
    exact_dv_optimum,
    fit_dv,
)
from .latent_em import (
    CATEGORICAL,
    GAUSSIAN1D,
    MixtureModel,
    default_init,
    e_step,
    em_fit,
    m_step,
    marginal_log_likelihood,
)
from .maxent import FeasibilityReport, MaxEntSolution, MomentConstraint, check_feasibility, solve_maxent
from .mirror_descent import (
    DescentTrace,
    ObjectiveOracle,
    make_oracle,
    neg_step,
    project_to_simplex,
    run_descent,
    validate_gradient,
)
from .pac_bayes import (
    CoverageReport,
    LearningProblem,
    coverage_experiment,
    dv_check,
    gibbs_posterior,
    pac_bayes_bound,
    test_losses,
    training_losses,
)
from .simplex import (
    FiniteDistribution,
    LossVector,
    entropy,
    gibbs,
    half_sq_l2,
    kl_divergence,
    log_sum_exp,
    total_variation,
)

__version__ = "0.1.0"
