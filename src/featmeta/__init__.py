"""Feature-level Bayesian meta-regression for complex-intervention trials.

Fits a hierarchical normal model to contrast-level outcomes from
multi-arm trials with repeated follow-up, regressing effects on binary
intervention features, study covariates, follow-up indicators, and
their interactions. Within-trial covariances account for shared
reference arms and repeated measurement; between-trial heterogeneity
uses a common-reference correlation structure. Posteriors are sampled
by Metropolis chains whose independence steps, drawn from the exact
posterior on a grid of tau, carry the mixing.
"""

from .covariance import (
    CovarianceError,
    WithinCovariance,
    between_structure,
    build_within_covariance,
    impute_ref_change_variance,
    rho_for_separation,
)
from .data import (
    CenteringRecord,
    CovariateSchema,
    DataError,
    DataFormatError,
    Dataset,
    DataValidationError,
    Factor,
    InterventionArm,
    Observation,
    TrialRecord,
    center_covariates,
    dataset_to_dict,
    load_dataset,
    save_dataset,
    schema_from_dict,
    validate_dataset,
    validate_trial,
)
from .design import ParameterVector, trial_design_matrix
from .diagnostics import (
    read_chain_tsv,
    shrink_factor_trace,
    summarize,
    write_chain_tsv,
    write_rhat_trace_tsv,
    write_summary_tsv,
)
from .posterior import (
    AssembledDataset,
    ChainOutput,
    PosteriorSummary,
    Preconditioner,
    PriorSpec,
    SamplerError,
    TauGrid,
    assemble,
    log_likelihood_marginal,
    precondition,
)
from .pipeline import Fit, FitSettings, fit
# run_chain is importable here, but featmeta.sampler exports it.
from .sampler import McmcConfig, run_chain, run_mcmc  # noqa: F401
from .simulate import SimConfig, simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data
    "CovariateSchema",
    "Factor",
    "InterventionArm",
    "Observation",
    "TrialRecord",
    "Dataset",
    "CenteringRecord",
    "DataError",
    "DataFormatError",
    "DataValidationError",
    "load_dataset",
    "save_dataset",
    "dataset_to_dict",
    "schema_from_dict",
    "validate_trial",
    "validate_dataset",
    "center_covariates",
    # design
    "ParameterVector",
    "trial_design_matrix",
    # covariance
    "WithinCovariance",
    "between_structure",
    "CovarianceError",
    "rho_for_separation",
    "impute_ref_change_variance",
    "build_within_covariance",
    # posterior
    "PriorSpec",
    "SamplerError",
    "AssembledDataset",
    "Preconditioner",
    "TauGrid",
    "assemble",
    "log_likelihood_marginal",
    "precondition",
    # sampler
    "McmcConfig",
    "ChainOutput",
    "run_mcmc",
    # pipeline
    "FitSettings",
    "Fit",
    "fit",
    # diagnostics
    "PosteriorSummary",
    "read_chain_tsv",
    "shrink_factor_trace",
    "summarize",
    "write_chain_tsv",
    "write_rhat_trace_tsv",
    "write_summary_tsv",
    # simulation
    "SimConfig",
    "simulate_dataset",
]
