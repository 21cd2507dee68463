"""Posted-price bilateral trade: rewards, learners, and regret harness.

A platform repeatedly posts one price between a seller and a buyer with
private values in [0, 1]; a trade happens when both accept and the platform
is scored by the fair gain from trade, the smaller of the two surpluses.
This package provides the exact reward/oracle layer, the feedback models,
the learning algorithms with their hard instances, and a reproducible
Monte Carlo harness with verification suites.  Hot loops run through
NumPy kernels that reproduce the round-by-round learners draw for draw.
"""

from .algorithms import (
    ConvolutionPricing,
    DoubleBinarySearch,
    FixedPrice,
    FollowBestEmpiricalPrice,
    LEARNER_ID_PATTERNS,
    Learner,
    LearnerSpec,
    UniformRandom,
    ceil_log2,
    dbs_phase_length,
    dbs_regret_bound,
    default_grid_size,
    parse_learner,
)
from .core import (
    FiniteJointDistribution,
    FiniteMarginal,
    PricePoint,
    ValuationPair,
    best_fixed_price_fgft,
    best_fixed_price_gft,
    fgft,
    fgft_vector,
    product_joint,
)
from .environments import (
    ENVIRONMENT_ID_PATTERNS,
    Environment,
    FeedbackModel,
    TwoBitFeedback,
    UnknownIdError,
    deterministic,
    env_from_config,
    epsilon_family,
    epsilon_family_expected_fgft,
    feedback_distribution,
    feedback_tables,
    gft_trap,
    lb_mu,
    lb_nu,
    parse_env,
    random_independent_env,
    random_joint_env,
    random_marginal,
    render_feedback,
    sample_valuations,
)
from .harness import (
    ExponentFit,
    FeedbackMismatchError,
    IndistinguishabilityReport,
    RegretCurve,
    RunConfig,
    SweepReport,
    Trajectory,
    adversarial_deterministic_sweep,
    fit_exponent,
    growth_ratio,
    indistinguishability_check,
    profile_regret,
    resolve_feedback,
    run_episode,
    run_monte_carlo,
)
from .verify import (
    SUITE_ORDER,
    CheckResult,
    UnknownSuiteError,
    run_suite,
    run_suites,
)

__version__ = "0.1.0"
