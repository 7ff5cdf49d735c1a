"""Reference densities the tests compare the sampler's fast path against.

Each is rebuilt trial by trial from the covariance and design layers,
without the whitened, stacked arrays of ``featmeta.sampler.assemble``.
"""

from __future__ import annotations

import numpy as np

from featmeta.covariance import CovarianceError, between_structure, mvn_logpdf
from featmeta.data import Dataset
from featmeta.design import ParameterVector
from featmeta.sampler import AssembledDataset, _trials_with_covariance


def log_likelihood_marginal_direct(
    dataset: Dataset, params: ParameterVector
) -> float:
    """Marginal log likelihood rebuilt trial by trial via Cholesky solves.

    Slow path kept as an independent cross-check of the diagonalized
    evaluation; both must agree to floating-point accuracy.
    """
    coeffs = params.coefficients()
    total = 0.0
    for trial, within, design in _trials_with_covariance(dataset):
        cov = within + params.tau**2 * between_structure(within.shape[0])
        total += mvn_logpdf(trial.y_vector(), design @ coeffs, cov)
    return total


def _split_deltas(
    dataset: Dataset, deltas: list[np.ndarray] | np.ndarray
) -> list[np.ndarray]:
    if isinstance(deltas, np.ndarray) and deltas.ndim == 1:
        dims = [t.dimension for t in dataset.trials]
        if deltas.shape[0] != sum(dims):
            raise ValueError(
                f"stacked deltas have length {deltas.shape[0]}, "
                f"expected {sum(dims)}"
            )
        return np.split(deltas, np.cumsum(dims)[:-1])
    out = [np.asarray(d, dtype=float) for d in deltas]
    for t, d in zip(dataset.trials, out):
        if d.shape != (t.dimension,):
            raise ValueError(
                f"delta for trial {t.trial_id!r} has shape {d.shape}, "
                f"expected ({t.dimension},)"
            )
    if len(out) != len(dataset.trials):
        raise ValueError("one delta vector required per trial")
    return out


def log_likelihood_latent(
    data: Dataset | AssembledDataset,
    params: ParameterVector,
    deltas: list[np.ndarray] | np.ndarray,
) -> float:
    """Joint log density of y and the latent arm effects delta.

    A reference density, rebuilt trial by trial like
    ``log_likelihood_marginal_direct``: the sum over trials of
    log N(y_i; delta_i, V_i) + log N(delta_i; X_i c, tau^2 S_i).
    Integrating delta out gives ``log_likelihood_marginal``.

    ``deltas`` is either one stacked vector (concatenated in trial
    order) or a list of per-trial vectors. tau must be positive: at
    tau = 0 the heterogeneity covariance is singular and the marginal
    form must be used instead. A singular V raises CovarianceError.
    """
    if params.tau <= 0.0:
        raise CovarianceError(
            "latent likelihood undefined at tau = 0 (singular heterogeneity "
            "covariance); use the marginal form"
        )
    dataset = data.dataset if isinstance(data, AssembledDataset) else data
    split = _split_deltas(dataset, deltas)
    coeffs = params.coefficients()
    total = 0.0
    for (trial, within, design), delta in zip(
        _trials_with_covariance(dataset), split
    ):
        heterogeneity = params.tau**2 * between_structure(within.shape[0])
        total += mvn_logpdf(trial.y_vector(), delta, within)
        total += mvn_logpdf(delta, design @ coeffs, heterogeneity)
    return total
