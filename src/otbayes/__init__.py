"""Wasserstein barycenters of Bayesian posteriors.

Closed-form optimal transport for four model families, deterministic and
(batch) stochastic descent on Wasserstein space, ensemble Metropolis
posterior sampling, the Bayesian model average, and a reproducible
experiment harness with a CLI.
"""

from .errors import (
    CompatibilityError,
    MatrixNotPDError,
    OtBayesError,
    QuadratureError,
    ScheduleError,
    SizeCapError,
)
from .measures import (
    CopulaModel,
    DiscreteMeasure,
    Exponential,
    GaussianCopula,
    Generator,
    GridQuantile,
    Gumbel,
    IndependenceCopula,
    Laplace,
    LocationScatterModel,
    Logistic,
    Normal,
    QuantileMixModel,
    RadialProfile,
    SphericalModel,
    StudentT,
    UnivariateModel,
    experiment_covariance,
    make_ls_model,
    mix_quantiles,
    sample,
)
from .transport import (
    AffinePSDMap,
    CoordinatewiseMap,
    CouplingPlan,
    MonotoneRearrangementMap,
    RadialMap,
    TransportMap,
    discrete_ot,
    ot_map,
    w2,
    w2_ls,
    wp_univariate,
)
from .barycenter import (
    DescentTrace,
    ModelDistribution,
    StepSchedule,
    StopRule,
    batch_sgd_step,
    empirical_barycenter,
    fixed_point_residual,
    gk_step,
    population_barycenter,
    risk,
    variance_of_gradient_estimator,
)
from .bayes import (
    BwbConfig,
    BwbDiagnostics,
    Dataset,
    McmcConfig,
    MixtureModel,
    ParamPrior,
    PosteriorChain,
    bwb_estimator,
    metropolis_sample,
    model_average,
    posterior_models,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    ExperimentReport,
    emit_report,
    run_all,
    run_bary_vs_bma,
    run_barycenter_vs_truth,
    run_posterior_consistency,
    run_sgd_experiment,
)

__version__ = "0.1.0"
