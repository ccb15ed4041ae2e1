"""Semiparametric dual estimation of phi-mutual information.

Estimates of phi-mutual information between paired samples through the
dual (variational) representation of phi-divergences over a parametric
density-ratio family, with independence tests calibrated by asymptotic
law, exact chi-square, or bootstrap, plus cross-validated model
selection and Monte-Carlo power studies.
"""

from .divergence import DivergenceSpec, Interval, from_name
from .errors import (
    BoundsError,
    ConjugateDomainError,
    DegenerateInputError,
    DomainError,
    FoldContextError,
    LengthMismatchError,
    MissingValueError,
    OptimFailureError,
    ParseError,
    PhimiError,
    RouteMismatchError,
    SingularityError,
    SupportError,
)
from .models import (
    BASIS_REGISTRY,
    EmpiricalMargins,
    ExpBilinearModel,
    FgmCopulaModel,
    FiniteDiscreteModel,
    ParamVector,
    RatioModel,
    gaussian_model,
    gaussian_ratio_coefficients,
    h_eval,
    h_grad,
    model_from_config,
    model_to_config,
    rank_transform,
)
from .estimator import (
    DualEstimate,
    ObjectiveContext,
    PairedSample,
    estimate,
    objective,
    objective_grad,
    objective_with_grad,
    plugin_estimate,
    plugin_statistics,
)
from .asymptotics import (
    AsymptoticCovariances,
    chi2_quantile,
    chi2_sf,
    chisq_df_finite,
    covariances_under_h0,
    limit_quantile_ztz,
    sigma1_under_h0,
    sigma2_under_h0,
)
from .testing import (
    BootstrapConfig,
    TestResult,
    bootstrap_critical,
    bootstrap_statistics,
    kendall_tau,
    kendall_test,
    pearson_test,
    spearman_test,
    test_independence,
)
from .selection import CvConfig, CvReport, cross_validate
from .samplers import (
    FgmSpec,
    FiniteMixtureSpec,
    GaussianSpec,
    sample_fgm,
    sample_finite,
    sample_finite_tables,
    sample_gaussian,
)
from .power_study import (
    PowerRow,
    PowerStudyConfig,
    PowerTable,
    emit_results,
    parse_results,
    run_power_study,
    write_results,
)

__version__ = "0.1.0"
