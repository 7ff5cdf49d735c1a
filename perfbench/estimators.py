"""Convergence estimators the benchmark computes itself.

Split-chain effective sample size and potential scale reduction after
Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), without the rank
normalization (the featmeta posteriors are close to Gaussian). They are
written here, not taken from ``featmeta.diagnostics``, so that a change
to the program's diagnostics cannot move a metric or a check built on
them.
"""

from __future__ import annotations

import numpy as np


def _split(chains) -> np.ndarray:
    """(chains, draws) -> (2 * chains, draws // 2): each chain halved."""
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError("need a (chains, draws) array with at least 4 draws")
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]])


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at every lag, via the FFT."""
    n = x.shape[1]
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - x.mean(axis=1, keepdims=True), n=size, axis=1)
    return np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n] / n


def _pooled_variance(x: np.ndarray) -> tuple[float, float]:
    """Within-chain variance W and the pooled estimate var+ (split chains)."""
    n = x.shape[1]
    within = float(np.mean(np.var(x, axis=1, ddof=1)))
    return within, within * (n - 1) / n + float(np.var(x.mean(axis=1), ddof=1))


def effective_sample_size(chains) -> float:
    """Multi-chain ESS of one scalar from a (chains, draws) array.

    Autocorrelations combine the chains through var+, and their sum is
    truncated by Geyer's initial monotone sequence.
    """
    x = _split(chains)
    m, n = x.shape
    acov = _autocovariance(x)
    within, var_plus = _pooled_variance(x)
    if var_plus <= 0.0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    if stop.size:
        pairs = pairs[: stop[0]]
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    return m * n / max(tau, 1.0 / np.log10(m * n))


def split_rhat(chains) -> float:
    """Split-chain potential scale reduction of one scalar."""
    x = _split(chains)
    within, var_plus = _pooled_variance(x)
    return float(np.sqrt(var_plus / within))
