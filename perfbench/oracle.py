"""Exact collapsed posterior of featmeta's marginal model.

The model: y_i ~ N(X_i c, V_i + tau^2 S_i) per trial, c ~ N(0, sd^2 I),
tau ~ Uniform(0, tau_upper). Given tau the coefficients are Gaussian, so
the posterior reduces to a one-dimensional density of tau, integrated
here by quadrature (the INLA idea of Rue, Martino & Chopin 2009 with a
single hyperparameter). V_i and X_i come from featmeta's covariance and
design modules; every posterior computation is done here, apart from
``featmeta.sampler``, so it can check the sampler's draws.

Whitening differs from the sampler's on purpose: each trial is mapped
by the symmetric inverse square root of S_i, then by the eigenvectors of
the whitened V_i, so that V_i + tau^2 S_i becomes diag(lam + tau^2).
"""

from __future__ import annotations

import math

import numpy as np

from featmeta.covariance import build_within_covariance
from featmeta.design import trial_design_matrix

GRID = 2001  # Simpson nodes over the bracket that holds the tau mass
COARSE = 400
TAIL = 40.0  # log-density drop at which the tau bracket ends
BATCH = 256


class CollapsedPosterior:
    """Posterior moments of (c, tau) for one (centered) dataset."""

    def __init__(self, dataset, coeff_sd: float = 100.0, tau_upper: float = 5.0):
        self.coeff_sd = coeff_sd
        self.tau_upper = tau_upper
        ys, xs, lams = [], [], []
        logdet_s = 0.0
        for trial in dataset.trials:
            v = build_within_covariance(
                trial, dataset.base_rho_y, dataset.base_rho_d
            ).matrix
            x = trial_design_matrix(dataset.schema, trial, dataset.centering)
            d = v.shape[0]
            w, u = np.linalg.eigh(0.5 * (np.eye(d) + np.ones((d, d))))
            root_inv = (u / np.sqrt(w)) @ u.T
            lam, q = np.linalg.eigh(root_inv @ v @ root_inv)
            project = q.T @ root_inv
            ys.append(project @ trial.y_vector())
            xs.append(project @ x)
            lams.append(lam)
            logdet_s += float(np.sum(np.log(w)))
        self.y = np.concatenate(ys)
        self.x = np.vstack(xs)
        self.lam = np.concatenate(lams)
        self.k = self.x.shape[1]
        n = self.y.shape[0]
        self._const = n * math.log(2.0 * math.pi) + logdet_s
        self._outer = (self.x[:, :, None] * self.x[:, None, :]).reshape(n, -1)
        self._xy = self.x * self.y[:, None]
        self._moments()

    def log_likelihood(self, coefficients, tau: float) -> float:
        """log N(y; X c, V + tau^2 S), summed over trials."""
        denom = self.lam + tau * tau
        resid = self.y - self.x @ np.asarray(coefficients, dtype=float)
        return -0.5 * (
            self._const + float(np.sum(np.log(denom)))
            + float(np.sum(resid * resid / denom))
        )

    def _conditional(self, taus: np.ndarray):
        """log p(y | tau), and the mean and covariance of c | tau, y."""
        out = []
        for i in range(0, taus.shape[0], BATCH):
            weights = 1.0 / (self.lam[None, :] + taus[i : i + BATCH, None] ** 2)
            prec = (weights @ self._outer).reshape(-1, self.k, self.k)
            prec += np.eye(self.k) / self.coeff_sd**2
            b = weights @ self._xy
            chol = np.linalg.cholesky(prec)
            mean = np.linalg.solve(prec, b[:, :, None])[:, :, 0]
            log_evidence = -0.5 * (
                self._const
                - np.sum(np.log(weights), axis=1)
                + weights @ (self.y * self.y)
                - np.sum(b * mean, axis=1)
                + 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
                + self.k * math.log(self.coeff_sd**2)
            )
            out.append((log_evidence, mean, np.linalg.inv(prec)))
        return (np.concatenate(part) for part in zip(*out))

    def _moments(self) -> None:
        # Locate the tau mass on a coarse grid, then integrate with
        # Simpson's rule over a bracket one coarse step wider than the
        # region within TAIL of the peak.
        coarse = np.linspace(0.0, self.tau_upper, COARSE + 1)
        if self.lam.min() <= 0.0:
            coarse[0] = 1e-9 * self.tau_upper
        ll, _, _ = self._conditional(coarse)
        inside = np.flatnonzero(ll > ll.max() - TAIL)
        lo = coarse[max(inside[0] - 1, 0)]
        hi = coarse[min(inside[-1] + 1, COARSE)]
        taus = np.linspace(lo, hi, GRID)
        simpson = np.ones(GRID)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0

        ll, mean, cov = self._conditional(taus)
        w = simpson * np.exp(ll - ll.max())
        w /= w.sum()
        c_mean = w @ mean
        c_cov = np.einsum("g,gkl->kl", w, cov + mean[:, :, None] * mean[:, None, :])
        c_cov -= np.outer(c_mean, c_mean)
        tau_mean = float(w @ taus)
        tau_var = float(w @ (taus - tau_mean) ** 2)
        self.mean = np.append(c_mean, tau_mean)
        self.sd = np.sqrt(np.append(np.diag(c_cov), tau_var))
