"""Known-answer tests of the benchmark's own estimators.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from featmeta import (  # noqa: E402
    CovariateSchema, ParameterVector, SimConfig, build_within_covariance,
    center_covariates, simulate_dataset, trial_design_matrix,
)
from estimators import effective_sample_size, split_rhat  # noqa: E402
from oracle import CollapsedPosterior  # noqa: E402


def ar1(phi: float, chains: int, n: int, seed: int) -> np.ndarray:
    """Stationary AR(1) chains with unit innovations."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, n))
    x = np.empty((chains, n))
    x[:, 0] = noise[:, 0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


def test_ess_of_independent_draws_is_their_number():
    draws = np.random.default_rng(1).standard_normal((4, 25_000))
    assert abs(effective_sample_size(draws) / 100_000 - 1.0) < 0.05


def test_ess_of_ar1_matches_its_autocorrelation_time():
    # For AR(1), ESS = N (1 - phi) / (1 + phi).
    for phi, seed in ((0.5, 2), (0.9, 3), (0.98, 4)):
        draws = ar1(phi, 4, 50_000, seed)
        expected = draws.size * (1.0 - phi) / (1.0 + phi)
        assert abs(effective_sample_size(draws) / expected - 1.0) < 0.1, phi


def test_split_rhat_separates_mixed_from_stuck_chains():
    mixed = ar1(0.9, 4, 20_000, 5)
    assert split_rhat(mixed) < 1.01
    stuck = mixed + np.array([[0.0], [0.0], [0.0], [3.0]])
    assert split_rhat(stuck) > 1.1
    drifting = mixed + np.linspace(0.0, 8.0, 20_000)
    assert split_rhat(drifting) > 1.1


def tiny_dataset():
    """20 trials, one feature, one follow-up: coefficients alpha, beta."""
    config = SimConfig(
        schema=CovariateSchema(n=1, p=0, q=1, interactions=()),
        params=ParameterVector(
            alpha=-0.04, beta=(0.03,), gamma=(), phi=(), eta=(), tau=0.05
        ),
        n_trials=20,
        seed=7,
        max_coded_arms=3,
    )
    return center_covariates(simulate_dataset(config))[0]


def brute_force_log_likelihood(dataset, coefficients, tau):
    """log N(y; X c, V + tau^2 S) per trial by slogdet and solve.

    ``coefficients`` is (points, k); returns one value per point.
    """
    total = np.zeros(coefficients.shape[0])
    for trial in dataset.trials:
        v = build_within_covariance(trial, dataset.base_rho_y, dataset.base_rho_d).matrix
        x = trial_design_matrix(dataset.schema, trial, dataset.centering)
        d = v.shape[0]
        cov = v + tau * tau * 0.5 * (np.eye(d) + np.ones((d, d)))
        resid = trial.y_vector()[None, :] - coefficients @ x.T
        _, logdet = np.linalg.slogdet(cov)
        quad = np.einsum("gd,gd->g", resid, np.linalg.solve(cov, resid.T).T)
        total += -0.5 * (d * math.log(2.0 * math.pi) + logdet + quad)
    return total


def test_oracle_log_likelihood_matches_direct_evaluation():
    dataset = tiny_dataset()
    oracle = CollapsedPosterior(dataset)
    for c, tau in (((-0.04, 0.03), 0.05), ((0.1, -0.2), 0.01), ((0.0, 0.0), 1.0)):
        want = brute_force_log_likelihood(dataset, np.array([c]), tau)[0]
        assert abs(oracle.log_likelihood(c, tau) - want) <= 1e-10 * abs(want)


def test_oracle_moments_match_brute_force_grid():
    dataset = tiny_dataset()
    oracle = CollapsedPosterior(dataset)
    # Joint posterior on a (alpha, beta, tau) grid; the coefficient prior
    # N(0, 100^2) and tau's uniform prior on (0, 5) enter as in the model.
    axes = [np.linspace(m - 10.0 * s, m + 10.0 * s, 61)
            for m, s in zip(oracle.mean[:2], oracle.sd[:2])]
    taus = np.linspace(0.0, min(5.0, oracle.mean[2] + 12.0 * oracle.sd[2]), 1201)
    a, b = np.meshgrid(*axes, indexing="ij")
    coefficients = np.column_stack([a.ravel(), b.ravel()])
    log_prior = -0.5 * np.sum(coefficients**2, axis=1) / 100.0**2
    log_post = np.array([
        brute_force_log_likelihood(dataset, coefficients, tau) + log_prior
        for tau in taus
    ])
    weights = np.exp(log_post - log_post.max())
    weights[0] *= 0.5  # trapezoid on tau; the coefficient grid ends in the tails
    weights[-1] *= 0.5
    weights /= weights.sum()
    tau_grid = np.broadcast_to(taus[:, None], weights.shape)
    for j, values in enumerate((coefficients[None, :, 0], coefficients[None, :, 1], tau_grid)):
        mean = float(np.sum(weights * values))
        sd = math.sqrt(float(np.sum(weights * (values - mean) ** 2)))
        assert abs(mean - oracle.mean[j]) < 0.01 * oracle.sd[j], j
        assert abs(sd / oracle.sd[j] - 1.0) < 0.01, j
