"""One fit of the model, ``fit(dataset, settings) -> Fit``: the
pipeline of the ``fit`` command and the recovery study, without files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import CenteringRecord, Dataset, center_covariates
from .diagnostics import summarize_chains
from .posterior import ChainOutput, PosteriorSummary, Preconditioner, PriorSpec
from .sampler import McmcConfig, _sample

__all__ = ["FitSettings", "Fit", "fit"]


@dataclass(frozen=True)
class FitSettings:
    """The settings of one fit, in the order of the manifest's ``settings``.

    Each field is a ``fit`` flag and a manifest setting of the annotated
    type. The defaults are the paper's protocol, taken from
    ``McmcConfig`` and ``PriorSpec``; ``rho_y`` and ``rho_d`` of None
    keep the dataset's correlations.
    """

    chains: int = McmcConfig.chains
    adapt: int = McmcConfig.adapt
    burn_in: int = McmcConfig.burn_in
    samples: int = McmcConfig.samples
    thin: int = McmcConfig.thin
    seed: int = McmcConfig.seed
    tau_upper: float = PriorSpec.tau_upper
    coeff_sd: float = PriorSpec.coeff_sd
    rho_y: float | None = None
    rho_d: float | None = None
    center: bool = True


@dataclass(frozen=True, eq=False)
class Fit:
    """What ``fit`` found: the chains, with their ``trace_moments``
    when there are 2 or more, the summaries, the (iterations, values)
    of ``shrink_factor_trace`` (None for one chain), the proposals'
    preconditioner, the weakly identified coefficients,
    ``AssembledDataset.zeroed_eigenvalues`` and the centering record
    (None without centering)."""

    chains: list[ChainOutput]
    summaries: list[PosteriorSummary]
    trace: tuple[np.ndarray, np.ndarray] | None
    preconditioner: Preconditioner
    weak_coefficients: tuple[str, ...]
    zeroed_eigenvalues: int
    centering: CenteringRecord | None


def fit(dataset: Dataset, settings: FitSettings = FitSettings()) -> Fit:
    """Apply the correlation overrides, center unless told not to,
    sample (``featmeta.sampler``), then compute the shrink-factor trace
    and the summaries, whose r_hat is the trace's last row
    (``summarize_chains``).

    Warns, naming the line that called ``fit``, about uncentered
    covariates and weakly identified coefficients. Raises ValueError
    for a setting ``McmcConfig`` or ``PriorSpec`` rejects, and, once the
    chains have run, for 2 or more chains of fewer than 2 samples each.
    """
    config, prior = (
        cls(**{field.name: getattr(settings, field.name) for field in fields(cls)})
        for cls in (McmcConfig, PriorSpec)
    )
    if settings.rho_y is not None:
        dataset = replace(dataset, base_rho_y=settings.rho_y)
    if settings.rho_d is not None:
        dataset = replace(dataset, base_rho_d=settings.rho_d)
    centering = None
    if settings.center:
        dataset, centering = center_covariates(dataset)
    chains, preconditioner, weak, zeroed = _sample(dataset, config, prior)
    chains, trace, summaries = summarize_chains(chains)
    return Fit(chains, summaries, trace, preconditioner, weak, zeroed, centering)
