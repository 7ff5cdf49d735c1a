"""Posterior sampling by adaptive random-walk Metropolis.

The model: per trial i, observed contrasts y_i ~ N(delta_i, V_i) with
heterogeneous arm effects delta_i ~ N(X_i c, tau^2 S_i), where c packs
the fixed-effect coefficients, V_i is the within-trial covariance, and
S_i = 0.5(I + 11') carries the common-reference correlation. The
sampler integrates delta out and samples the marginal form
y_i ~ N(X_i c, V_i + tau^2 S_i).

The marginal density is evaluated through a per-trial simultaneous
diagonalization fixed at assembly time: with L the Cholesky factor of
S and A = L^-1 V L^-T = Q diag(lam) Q', the map P = Q' L^-1 turns
V + tau^2 S into diag(lam + tau^2), so each likelihood evaluation is a
vector operation with no refactorization. This is exact, not an
approximation.

Proposals are diagonal Gaussian with per-coordinate scales adapted
toward a 0.234 acceptance rate by Robbins-Monro updates during a
dedicated adaptation phase, then frozen. tau is sampled on the log
scale (with the Jacobian term), keeping its support positive.

All chains of a run advance in lockstep as one (chains, dim) state in
a single loop: each iteration makes one batched design product, one
density evaluation over a (chains, observations) block and one
vectorized accept step. Chain k still draws from its own random
stream, so its draws do not depend on which chains run with it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .covariance import between_structure, build_within_covariance
from .data import Dataset
from .design import ParameterVector, trial_design_matrix

__all__ = [
    "SamplerError",
    "PriorSpec",
    "McmcConfig",
    "ChainOutput",
    "AssembledDataset",
    "assemble",
    "log_prior",
    "log_likelihood_marginal",
    "run_chain",
    "run_mcmc",
]

TARGET_ACCEPT = 0.234
SCALE_FLOOR = 1e-6
INIT_RETRIES = 100
LANES = 4  # rows of one padded design product (see _DesignProduct)
DRAW_BLOCK_VALUES = 8192  # random normals taken from a chain's stream at once


class SamplerError(Exception):
    """Sampling could not start or produced an invalid state."""


@dataclass(frozen=True)
class PriorSpec:
    """Independent priors: coefficients N(0, coeff_sd^2), tau Uniform(0, tau_upper)."""

    coeff_sd: float = 100.0
    tau_upper: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.coeff_sd < math.inf:
            raise ValueError("coeff_sd must be positive and finite")
        if not 0.0 < self.tau_upper < math.inf:
            raise ValueError("tau_upper must be positive and finite")


@dataclass(frozen=True)
class McmcConfig:
    """Chain layout and run lengths.

    ``adapt`` iterations tune the proposal, ``burn_in`` iterations run
    with the tuned proposal but are discarded, then ``samples`` draws
    are recorded every ``thin`` iterations. ``seed`` fixes the whole
    run: chain k draws from an independent stream spawned from it, so
    its draws do not depend on how many chains run. The defaults are
    the paper's protocol.
    """

    chains: int = 4
    adapt: int = 10_000
    burn_in: int = 10_000
    samples: int = 20_000
    thin: int = 1
    seed: int = 0
    target_accept: float = TARGET_ACCEPT

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.adapt < 0 or self.burn_in < 0:
            raise ValueError("adapt and burn_in must be non-negative")
        if self.samples < 1:
            raise ValueError("need at least one retained sample")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """One chain's retained draws plus bookkeeping.

    ``draws`` has shape (samples, n_parameters) in canonical order
    (intercept, beta, gamma, phi, eta, tau) with tau on its natural
    scale. ``seed_used`` is the derived stream key recorded for reruns.
    ``nonfinite_rejections`` counts proposals rejected because their log
    posterior was not finite (NaN or infinite) inside the prior's
    support; -1 where unknown.
    """

    chain_index: int
    draws: np.ndarray
    parameter_names: tuple[str, ...]
    accept_rate: float
    seed_used: int
    proposal_log_scale: float
    nonfinite_rejections: int = 0

    @property
    def n_samples(self) -> int:
        return self.draws.shape[0]


# ---------------------------------------------------------------------------
# Assembly: everything fixed across iterations is computed once
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AssembledDataset:
    """Dataset compiled to stacked arrays for fast marginal evaluation."""

    dataset: Dataset
    stacked_y: np.ndarray  # concat of P_i y_i
    stacked_design: np.ndarray  # vstack of P_i X_i
    stacked_eigenvalues: np.ndarray  # concat of lam_i, clipped at 0
    log_density_const: float  # sum_i (dim_i log 2pi + logdet S_i)
    n_coefficients: int

    @property
    def n_parameters(self) -> int:
        return self.n_coefficients + 1

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(self.dataset.schema.parameter_names())


def _trials_with_covariance(dataset: Dataset):
    """Yield (trial, V, X) per trial, built from scratch."""
    for trial in dataset.trials:
        within = build_within_covariance(
            trial, dataset.base_rho_y, dataset.base_rho_d
        ).matrix
        yield trial, within, trial_design_matrix(
            dataset.schema, trial, dataset.centering
        )


def assemble(dataset: Dataset) -> AssembledDataset:
    """Whiten every trial once (see the module docstring) and stack them."""
    ys, designs, eigenvalues = [], [], []
    const = 0.0
    for trial, within, design in _trials_with_covariance(dataset):
        dim = within.shape[0]
        chol_s = np.linalg.cholesky(between_structure(dim))
        inv_chol = np.linalg.inv(chol_s)
        whitened = inv_chol @ within @ inv_chol.T
        whitened = 0.5 * (whitened + whitened.T)
        lam, q = np.linalg.eigh(whitened)
        projector = q.T @ inv_chol  # P
        ys.append(projector @ trial.y_vector())
        designs.append(projector @ design)
        eigenvalues.append(np.clip(lam, 0.0, None))
        const += dim * math.log(2.0 * math.pi) + 2.0 * float(
            np.sum(np.log(np.diag(chol_s)))
        )
    stacked_design = np.vstack(designs)
    return AssembledDataset(
        dataset=dataset,
        stacked_y=np.concatenate(ys),
        stacked_design=stacked_design,
        stacked_eigenvalues=np.concatenate(eigenvalues),
        log_density_const=const,
        n_coefficients=stacked_design.shape[1],
    )


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def log_prior(params: ParameterVector, prior: PriorSpec) -> float:
    """Joint log prior of a parameter vector; -inf outside tau's support."""
    if not 0.0 < params.tau < prior.tau_upper:
        return -math.inf
    coefficients = params.coefficients()
    k = coefficients.shape[0]
    normal_part = -0.5 * (
        k * math.log(2.0 * math.pi * prior.coeff_sd**2)
        + float(coefficients @ coefficients) / prior.coeff_sd**2
    )
    return normal_part - math.log(prior.tau_upper)


def _marginal_rows(
    assembled: AssembledDataset, mean: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Marginal log likelihood of each row of ``mean`` (the whitened,
    stacked X c) at the matching entry of ``tau``; one row per entry."""
    denom = assembled.stacked_eigenvalues + (tau * tau)[..., None]
    terms = assembled.stacked_y - mean
    terms *= terms
    terms /= denom
    terms += np.log(denom, out=denom)
    return -0.5 * (assembled.log_density_const + terms.sum(axis=-1))


def log_likelihood_marginal(
    data: Dataset | AssembledDataset, params: ParameterVector
) -> float:
    """Marginal log likelihood over all trials (delta integrated out).

    Accepts a raw dataset or a pre-assembled one; pass the latter when
    evaluating many parameter values.
    """
    assembled = data if isinstance(data, AssembledDataset) else assemble(data)
    mean = assembled.stacked_design @ params.coefficients()
    return float(_marginal_rows(assembled, mean, np.float64(params.tau)))


# ---------------------------------------------------------------------------
# Random-walk Metropolis with per-coordinate adaptation, chains in lockstep
# ---------------------------------------------------------------------------


def _chain_rng(seed: int, chain_index: int) -> tuple[np.random.Generator, int]:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,))
    derived = int(seq.generate_state(1, dtype=np.uint64)[0])
    return np.random.default_rng(seq), derived


class _DesignProduct:
    """``stacked_design @ c`` for each row c of a batch of coefficients.

    A BLAS product over C rows rounds each row differently for each C.
    Chain k therefore always sits in row ``k % LANES`` of a zero-padded
    block of LANES rows, so every product has the same shape and each
    chain's row is bit-identical whichever chains share the batch. The
    returned rows are overwritten by the next call.
    """

    def __init__(self, design: np.ndarray, chains: Sequence[int]):
        blocks = sorted({k // LANES for k in chains})
        rows = [blocks.index(k // LANES) * LANES + k % LANES for k in chains]
        # A slice keeps the common case, chains 0..C-1, free of copies.
        self.rows = (
            slice(0, len(rows)) if rows == list(range(len(rows)))
            else np.array(rows)
        )
        self.design_t = np.ascontiguousarray(design.T)
        self.coefficients = np.zeros((len(blocks) * LANES, design.shape[1]))
        self.product = np.empty((len(blocks) * LANES, design.shape[0]))
        self.blocks = [
            (self.coefficients[lo : lo + LANES], self.product[lo : lo + LANES])
            for lo in range(0, len(blocks) * LANES, LANES)
        ]

    def __call__(self, coefficients: np.ndarray) -> np.ndarray:
        self.coefficients[self.rows] = coefficients
        for block, out in self.blocks:
            np.matmul(block, self.design_t, out=out)
        return self.product[self.rows]


class _LogPosterior:
    """Log posterior of a (chains, dim) batch of sampler states.

    A state holds the coefficients, then log(tau). The result is -inf
    where tau is outside the prior's support and NaN where the density
    is not finite inside it. Each row depends on that row alone.
    """

    def __init__(
        self,
        assembled: AssembledDataset,
        prior: PriorSpec,
        chains: Sequence[int],
    ):
        self.assembled = assembled
        self.prior = prior
        self.n_coeff = assembled.n_coefficients
        self.design = _DesignProduct(assembled.stacked_design, chains)
        # Normal and uniform normalizing constants of the prior.
        self.prior_const = -0.5 * self.n_coeff * math.log(
            2.0 * math.pi * prior.coeff_sd**2
        ) - math.log(prior.tau_upper)
        self.half_precision = 0.5 / prior.coeff_sd**2

    def __call__(self, states: np.ndarray) -> np.ndarray:
        n = self.n_coeff
        coeffs = states[:, :n]
        log_tau = states[:, n]
        # exp overflows to inf for log(tau) > 709, which lies outside the
        # support; the caller silences floating-point warnings.
        tau = np.exp(log_tau)
        support = (tau > 0.0) & (tau < self.prior.tau_upper)
        ll = _marginal_rows(self.assembled, self.design(coeffs), tau)
        quad = (coeffs * coeffs).sum(axis=1)
        # log_tau is the Jacobian of the tau -> log(tau) reparameterization.
        lp = ll - self.half_precision * quad + (log_tau + self.prior_const)
        return np.where(
            support, np.where(np.isfinite(lp), lp, math.nan), -math.inf
        )


def run_chain(
    assembled: AssembledDataset,
    config: McmcConfig,
    prior: PriorSpec,
    chains: Sequence[int],
) -> list[ChainOutput]:
    """Run the Metropolis chains ``chains``, advancing them in lockstep.

    Chain k's output depends on (config.seed, k) alone, never on which
    other chains run with it: its proposals and acceptance uniforms come
    from its own stream, taken in blocks sized from the state dimension,
    and every batched operation treats each chain's row on its own.
    tau is recorded on its natural scale. A proposal whose log posterior
    is not finite inside the prior's support is rejected and counted.
    """
    chains = list(chains)
    if not chains or len(set(chains)) != len(chains):
        raise ValueError(f"need distinct chain indices, got {chains}")
    n_chains = len(chains)
    n_coeff = assembled.n_coefficients
    dim = n_coeff + 1
    log_post = _LogPosterior(assembled, prior, chains)
    streams = [_chain_rng(config.seed, k) for k in chains]
    rngs = [rng for rng, _ in streams]

    # Initial state: zero coefficients, tau at a tenth of its prior range;
    # small jitter separates chains. A chain whose start is not finite
    # draws a new jitter, up to INIT_RETRIES times.
    start = np.zeros(dim)
    start[n_coeff] = math.log(0.1 * prior.tau_upper)
    state = np.tile(start, (n_chains, 1))
    current_lp = np.full(n_chains, math.nan)
    with np.errstate(all="ignore"):
        for _ in range(INIT_RETRIES):
            retry = np.flatnonzero(~np.isfinite(current_lp))
            if retry.size == 0:
                break
            for c in retry:
                state[c] = start + rngs[c].normal(0.0, 0.01, size=dim)
            current_lp[retry] = log_post(state)[retry]
    stuck = [chains[c] for c in np.flatnonzero(~np.isfinite(current_lp))]
    if stuck:
        raise SamplerError(
            f"chain(s) {stuck}: no finite starting point after "
            f"{INIT_RETRIES} attempts"
        )

    # Robbins-Monro adaptation of a global step multiplier and
    # per-coordinate spread estimates (frozen after the adapt phase).
    log_scale = np.zeros(n_chains)
    running_mean = state.copy()
    running_var = np.full((n_chains, dim), 1e-4)

    block = max(1, DRAW_BLOCK_VALUES // dim)  # iterations per refill
    normals = np.empty((n_chains, block, dim))
    uniforms = np.empty((n_chains, block))
    log_u = np.empty((n_chains, block))

    draws = np.empty((n_chains, config.samples, dim))
    accepted = np.zeros(n_chains, dtype=np.int64)
    nonfinite = np.zeros(n_chains, dtype=np.int64)
    recorded = 0
    warm = config.adapt + config.burn_in
    total_iters = warm + config.samples * config.thin

    with np.errstate(all="ignore"):
        for it in range(total_iters):
            j = it % block
            if j == 0:
                for c, rng in enumerate(rngs):
                    rng.standard_normal(out=normals[c])
                    rng.random(out=uniforms[c])
                np.log(uniforms, out=log_u)
            adapting = it < config.adapt
            if it <= config.adapt:  # the step is frozen once adaptation ends
                step = np.exp(log_scale)[:, None] * np.maximum(
                    np.sqrt(running_var), SCALE_FLOOR
                )

            proposal = state + normals[:, j] * step
            proposal_lp = log_post(proposal)
            # A NaN log ratio fails the test below, so the proposal is
            # rejected; it is counted here and scores 0 in the adaptation.
            nonfinite += np.isnan(proposal_lp)
            log_ratio = proposal_lp - current_lp
            accept = log_u[:, j] < log_ratio
            np.copyto(state, proposal, where=accept[:, None])
            np.copyto(current_lp, proposal_lp, where=accept)

            if adapting:
                gamma = (10.0 + it) ** -0.6
                delta = state - running_mean
                running_mean += gamma * delta
                running_var = (1.0 - gamma) * running_var + gamma * delta * delta
                accept_prob = np.nan_to_num(
                    np.exp(np.minimum(log_ratio, 0.0)), nan=0.0
                )
                log_scale += gamma * (accept_prob - config.target_accept)
            elif it >= warm:
                accepted += accept
                if (it - warm + 1) % config.thin == 0:
                    draws[:, recorded] = state
                    recorded += 1

    assert recorded == config.samples
    draws[:, :, n_coeff] = np.exp(draws[:, :, n_coeff])
    return [
        ChainOutput(
            chain_index=k,
            draws=draws[c],
            parameter_names=assembled.parameter_names,
            accept_rate=float(accepted[c]) / (config.samples * config.thin),
            seed_used=seed_used,
            proposal_log_scale=float(log_scale[c]),
            nonfinite_rejections=int(nonfinite[c]),
        )
        for c, (k, (_, seed_used)) in enumerate(zip(chains, streams))
    ]


def run_mcmc(
    dataset: Dataset,
    config: McmcConfig = McmcConfig(),
    prior: PriorSpec = PriorSpec(),
) -> list[ChainOutput]:
    """Sample the posterior with ``config.chains`` chains.

    All chains advance together in one ``run_chain`` call. Each chain is
    reproducible from ``config.seed`` and its index alone.
    """
    if dataset.centering is None and dataset.schema.n_parameters > 2:
        warnings.warn(
            "fitting on uncentered covariates; the intercept and "
            "coefficients may mix poorly (see center_covariates)",
            stacklevel=2,
        )
    assembled = assemble(dataset)
    return run_chain(assembled, config, prior, range(config.chains))
