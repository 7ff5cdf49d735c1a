"""One fit of the model, ``fit(dataset, settings) -> Fit``: the
pipeline of the ``fit`` command and the recovery study, without files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ._kinds import _normalize
from .data import CenteringRecord, Dataset, center_covariates
from .diagnostics import summarize_chains
from .posterior import ChainOutput, PosteriorSummary, Preconditioner, PriorSpec
from .sampler import McmcConfig, _sample

__all__ = ["FitSettings", "Fit", "fit"]

@dataclass(frozen=True)
class FitSettings:
    """The settings of one fit, in the order of the manifest's ``settings``.

    Each field is a ``fit`` flag and a manifest setting of the annotated
    type. The defaults are the paper's protocol, and the ranges are those
    of ``McmcConfig`` and ``PriorSpec``, which ``mcmc`` and ``prior``
    hold; ``rho_y`` and ``rho_d`` lie in [0, 1), None keeping the
    dataset's correlation, and 2 or more chains need 2 or more samples.
    A ValueError for a setting of another type (a bool is not an int)
    or out of range starts with its name.
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

    def __post_init__(self):
        _normalize(self)
        for name, cls in (("mcmc", McmcConfig), ("prior", PriorSpec)):
            record = cls(**{f.name: getattr(self, f.name) for f in fields(cls)})
            object.__setattr__(self, name, record)
        for name, value in (("rho_y", self.rho_y), ("rho_d", self.rho_d)):
            if value is not None and not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.chains >= 2 and self.samples < 2:
            raise ValueError("samples must be at least 2 with 2 or more chains "
                             "(R-hat requires >= 2 samples per chain)")


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
    covariates and weakly identified coefficients. ``settings`` were
    checked when they were constructed.
    """
    if settings.rho_y is not None:
        dataset = replace(dataset, base_rho_y=settings.rho_y)
    if settings.rho_d is not None:
        dataset = replace(dataset, base_rho_d=settings.rho_d)
    centering = None
    if settings.center:
        dataset, centering = center_covariates(dataset)
    chains, pre, weak, zeroed = _sample(dataset, settings.mcmc, settings.prior)
    chains, trace, summaries = summarize_chains(chains)
    return Fit(chains, summaries, trace, pre, weak, zeroed, centering)
