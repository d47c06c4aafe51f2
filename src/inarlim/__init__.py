"""Simulation and limit-theory validation for subcritical INAR processes of infinite order."""

from .distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CountDistribution,
    FiniteSupport,
    Geometric,
    Poisson,
    dist_from_spec,
)
from .errors import (
    AssumptionViolation,
    ConfigError,
    EnumerationError,
    FingerprintMismatch,
    InsufficientTailMass,
)
from .model import (
    AssumptionReport,
    ExplicitOffspring,
    FiniteDecay,
    GeometricDecay,
    InarModel,
    PoissonOffspring,
    PowerLawDecay,
    model_from_spec,
    require_assumptions,
    validate,
)
from .simulate import (
    BatchSummary,
    MartingaleDiagnostic,
    RandomStream,
    Trajectory,
    martingale_diagnostic,
    simulate,
    simulate_batch,
)
from .recursions import (
    GbarTables,
    MdpSchedule,
    MgfRecursion,
    cesaro_check,
    gbar_tables,
    log_mgf_by_horizon,
    log_mgf_exact,
    mdp_mgf_curve,
    mdp_scaled_limit,
    tilt_recursion,
)
from .asymptotics import (
    TheorySummary,
    clt_variance,
    critical_tilt,
    inar1_ldp_rate,
    ldp_rate,
    limit_cgf,
    lln_mean,
    mdp_rate,
    theory_summary,
    tilt_fixed_point,
    tilt_gap,
)
from .oracle import (
    ExactLaw,
    enumerate_sum_distribution,
    enumerate_sum_distributions,
    oracle_log_mgf,
    oracle_moments,
)
from .montecarlo import (
    ValidationReport,
    validate_cesaro,
    validate_clt,
    validate_gamma,
    validate_lln,
    validate_mdp,
    validate_oracle,
)

__version__ = "0.1.0"
