"""Reference code the tests compare the program's fast paths against.

The densities are rebuilt trial by trial from the covariance and design
layers, without the whitened, stacked arrays of
``featmeta.sampler.assemble``; ``mvn_logpdf`` is the dense Gaussian
density and ``build_between_covariance`` the heterogeneity covariance
tau^2 S they use. ``conditional_coefficients`` is the mean and
precision of c | tau, y by a dense solve over the trials.
``reference_run_chain`` is the sampler loop, with its cycle of
random-walk and independence steps, written with numpy arrays for every
per-chain quantity, ``reference_assemble``
the assembly that factors S once per trial, and
``reference_trial_design_matrix`` the design matrix built one
``DesignRow`` object per observation. ``reference_within_covariance`` is
the within-trial covariance built from its four entry types one case at
a time. ``reference_simulate_dataset`` is the generator that draws,
builds V, factors it and samples the outcomes one trial at a time, on
a y = 0 skeleton of each trial; its V and design rows come from the two
references above. ``log_prior`` is the joint log prior of a
``ParameterVector``.

The helpers the tests use and the program does not live here too:
``zero_parameters``, ``fixed_effects`` (a trial's expected contrasts),
``arm_count`` and ``n_followups`` of a trial, and ``gelman_rubin``,
``mcse_mean`` and ``effective_sample_size`` of draws.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from featmeta.covariance import (
    CovarianceError,
    WithinCovariance,
    between_structure,
    ensure_positive_semidefinite,
    impute_ref_change_variance,
    rho_for_separation,
)
from featmeta.data import (
    CenteringRecord,
    CovariateSchema,
    Dataset,
    InterventionArm,
    Observation,
    TrialRecord,
)
from featmeta.design import ParameterVector, trial_design_matrix
from featmeta.diagnostics import _prefix_shrink_factors
from featmeta.sampler import (
    DRAW_BLOCK_VALUES,
    INDEPENDENCE_DOF,
    INDEPENDENCE_PERIOD,
    INIT_RETRIES,
    TARGET_ACCEPT,
    AssembledDataset,
    ChainOutput,
    McmcConfig,
    PriorSpec,
    SamplerError,
    _chain_rng,
    _LaneProduct,
    _trials_with_covariance,
    precondition,
)
from featmeta.simulate import SimConfig


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


def zero_parameters(schema: CovariateSchema, tau: float = 0.0) -> ParameterVector:
    return ParameterVector(
        alpha=0.0,
        beta=(0.0,) * schema.n,
        gamma=(0.0,) * schema.p,
        phi=(0.0,) * (schema.q - 1),
        eta=(0.0,) * schema.l,
        tau=tau,
    )


def fixed_effects(
    params: ParameterVector,
    trial: TrialRecord,
    schema: CovariateSchema,
    centering: CenteringRecord | None = None,
) -> np.ndarray:
    """Expected contrast vector theta_i for one trial, canonical order."""
    return trial_design_matrix(schema, trial, centering) @ params.coefficients()


def arm_count(trial: TrialRecord) -> int:
    """Total arm count A_i, counting the uncoded control reference."""
    if trial.comparison == "control":
        return len(trial.arms) + 1
    return len(trial.arms)


def n_followups(trial: TrialRecord) -> int:
    return len(trial.observed_categories)


def gelman_rubin(chain_draws: Sequence[np.ndarray]) -> float:
    """Potential scale reduction factor for one scalar parameter.

    ``chain_draws`` holds each chain's draws (equal lengths, >= 2 draws,
    >= 2 chains). Uses the pooled-variance estimate with the
    between-chain sampling correction; identical chains give a value
    slightly below 1 (exactly sqrt((s-1)/s)).
    """
    columns = [np.asarray(c, dtype=float).reshape(-1, 1) for c in chain_draws]
    return float(_prefix_shrink_factors(columns, [columns[0].shape[0]])[0, 0])


def mcse_mean(draws: np.ndarray, n_batches: int = 50) -> float:
    """Monte Carlo standard error of the mean, by non-overlapping batches."""
    draws = np.asarray(draws, dtype=float).ravel()
    if draws.shape[0] < 2 * n_batches:
        n_batches = max(2, draws.shape[0] // 2)
    size = draws.shape[0] // n_batches
    means = draws[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(n_batches))


def effective_sample_size(draws: np.ndarray, n_batches: int = 50) -> float:
    """Batch-means effective sample size for the mean estimator."""
    draws = np.asarray(draws, dtype=float).ravel()
    se = mcse_mean(draws, n_batches)
    var = float(np.var(draws, ddof=1))
    if se == 0.0:
        return float(draws.shape[0])
    return var / (se * se)


@dataclass(frozen=True, eq=False)
class BetweenCovariance:
    """Heterogeneity covariance tau^2 * S for one trial (S = 0.5(I + 11')).

    Positive definite for tau > 0 at any dimension: the eigenvalues are
    tau^2/2 (multiplicity dim-1) and tau^2 (dim+1)/2.
    """

    matrix: np.ndarray
    tau: float

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def build_between_covariance(dimension: int, tau: float) -> BetweenCovariance:
    """Heterogeneity covariance tau^2 * S for a trial of this dimension.

    Entries are formed by scaling the exact structure constants (1 and
    1/2), so the Appendix-style identity var(delta_k - delta_k') =
    S_kk + S_k'k' - 2 S_kk' = tau^2 holds to the last bit.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    return BetweenCovariance(matrix=tau**2 * between_structure(dimension), tau=tau)


def reference_within_covariance(
    trial: TrialRecord,
    base_rho_y: float,
    base_rho_d: float,
) -> WithinCovariance:
    """The within-trial covariance V built case by case.

    Each entry takes one of four forms: v on the diagonal, var_d(t)
    between arms at one follow-up, rho_y^|t-t'| sqrt(v_t v_t') for one
    arm at two follow-ups and rho_d^|t-t'| sqrt(var_d(t) var_d(t')) for
    two arms at two follow-ups. ``build_within_covariance`` folds the
    four into one rule and must reproduce this matrix bit for bit.
    """
    rho_y = trial.rho_y if trial.rho_y is not None else base_rho_y
    rho_d = trial.rho_d if trial.rho_d is not None else base_rho_d
    obs = trial.ordered_observations()
    dim = len(obs)
    order = tuple((o.arm_id, o.category) for o in obs)
    dvar = {
        t: impute_ref_change_variance(trial, t) for t in trial.observed_categories
    }

    matrix = np.empty((dim, dim))
    for i in range(dim):
        arm_i, t_i = order[i]
        for j in range(i, dim):
            arm_j, t_j = order[j]
            if arm_i == arm_j and t_i == t_j:
                value = obs[i].v
            elif t_i == t_j:
                value = dvar[t_i]
            elif arm_i == arm_j:
                value = rho_for_separation(rho_y, t_i, t_j) * np.sqrt(
                    obs[i].v * obs[j].v
                )
            else:
                value = rho_for_separation(rho_d, t_i, t_j) * np.sqrt(
                    dvar[t_i] * dvar[t_j]
                )
            matrix[i, j] = matrix[j, i] = value

    matrix = ensure_positive_semidefinite(
        matrix, f"within-trial covariance of trial {trial.trial_id!r}"
    )
    return WithinCovariance(trial_id=trial.trial_id, matrix=matrix)


def mvn_logpdf(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Multivariate normal log-density via Cholesky factorization."""
    y = np.asarray(y, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    dim = y.shape[0]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as e:
        raise CovarianceError(
            f"covariance of dimension {dim} is not positive definite"
        ) from e
    resid = np.linalg.solve(chol, y - mean)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-0.5 * (dim * np.log(2.0 * np.pi) + log_det + resid @ resid))


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


def conditional_coefficients(
    dataset: Dataset, tau: float, coeff_sd: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and precision of c | tau, y under the prior N(0, coeff_sd^2 I),
    by a dense solve per trial: Lambda = sum_i X_i' C_i^-1 X_i + I/sd^2
    and mean = Lambda^-1 sum_i X_i' C_i^-1 y_i, with C_i = V_i + tau^2 S_i.
    """
    precision = np.eye(dataset.schema.n_parameters - 1) / coeff_sd**2
    rhs = np.zeros(precision.shape[0])
    for trial, within, design in _trials_with_covariance(dataset):
        cov = within + tau**2 * between_structure(within.shape[0])
        precision += design.T @ np.linalg.solve(cov, design)
        rhs += design.T @ np.linalg.solve(cov, trial.y_vector())
    return np.linalg.solve(precision, rhs), precision


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


class _LogPosterior:
    """Log posterior of a (chains, dim) batch of sampler states.

    A state holds the coefficients, then log(tau). The result is -inf
    where tau is outside the prior's support or some lam + tau^2 is 0,
    and NaN where the density is otherwise not finite inside the
    support. Each row depends on that row alone.
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
        self.design = _LaneProduct(assembled.stacked_design, chains)
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
        zero = np.any(
            self.assembled.stacked_eigenvalues + (tau * tau)[:, None] == 0.0,
            axis=1,
        )
        nonfinite = np.where(zero, -math.inf, math.nan)
        return np.where(
            support, np.where(np.isfinite(lp), lp, nonfinite), -math.inf
        )


def reference_run_chain(
    assembled: AssembledDataset,
    config: McmcConfig,
    prior: PriorSpec,
    chains: Sequence[int],
    screened_in: list[int] | None = None,
) -> list[ChainOutput]:
    """``featmeta.sampler.run_chain`` with every per-chain quantity in
    numpy arrays, one iteration at a time for all chains; the sampler
    must reproduce it bit for bit. The approximation N(mu, R R') is
    ``precondition``'s.

    Chain k starts at mu + R z, with z drawn from its own stream before
    its first block, and drawn again while the log posterior there is
    not finite. Iterations 1, 2, ... (counting from 1) that are
    multiples of INDEPENDENCE_PERIOD are independence steps: chain k
    proposes mu + R z sqrt(nu / g), g the iteration's chi^2_nu draw and
    nu = INDEPENDENCE_DOF, and accepts with the Metropolis-Hastings ratio
    pi(x') q_t(x) / (pi(x) q_t(x')) for the density q_t of the
    multivariate t with centre mu, scale R R' and nu degrees of freedom,
    whose log is log pi(x') - log pi(x) + (nu + dim) / 2
    (log1p(|w'|^2 / nu) - log1p(|w|^2 / nu)), with w = R^-1 (x - mu)
    and w' = R^-1 (x' - mu). On the other iterations chain k proposes
    x + s_k R z with one scale s_k = exp(l_k), and the step is delayed
    acceptance: with r1 = log q(x') - log q(x) =
    -(s_k w.z + s_k^2 |z|^2 / 2) for the density q of N(mu, R R'), the
    proposal counts as evaluated only
    if log u < min(0, r1), and is accepted iff log u < min(0, r1) +
    min(0, log pi(x') - log pi(x) - r1). Here every proposal's log
    posterior is computed, but one that is not evaluated is neither
    accepted nor counted. On those iterations among the first
    ``config.adapt``, l_k moves by (10 + it)^-0.6 (a - TARGET_ACCEPT),
    a being 1 for an accepted proposal and 0 otherwise; then it is
    frozen. Chain k's output depends on (config.seed, k) alone: its
    normals, uniforms and chi^2_nu draws come from its own stream, taken
    in blocks sized from the state dimension, each block of its normals is
    multiplied by R' on its own, and its state is whitened by R^-1 in a
    fixed lane of a fixed-shape product. tau is recorded on its natural
    scale. An evaluated proposal whose log posterior is not finite
    inside the prior's support is rejected and counted. When given,
    ``screened_in`` receives each chain's count of random-walk
    proposals evaluated over the whole run, adaptation included.
    """
    chains = list(chains)
    if not chains or len(set(chains)) != len(chains):
        raise ValueError(f"need distinct chain indices, got {chains}")
    n_chains = len(chains)
    n_coeff = assembled.n_coefficients
    dim = n_coeff + 1
    approximation = precondition(assembled, prior)
    mean, factor = approximation.mean, approximation.factor
    whiten = _LaneProduct(np.linalg.inv(factor), chains)  # R^-1, per row
    log_post = _LogPosterior(assembled, prior, chains)
    streams = [_chain_rng(config.seed, k) for k in chains]
    rngs = [rng for rng, _ in streams]

    state = np.tile(mean, (n_chains, 1))
    current_lp = np.full(n_chains, math.nan)
    with np.errstate(all="ignore"):
        for _ in range(INIT_RETRIES):
            retry = np.flatnonzero(~np.isfinite(current_lp))
            if retry.size == 0:
                break
            for c in retry:
                state[c] = mean + rngs[c].standard_normal(dim) @ factor.T
            current_lp[retry] = log_post(state)[retry]
    stuck = [chains[c] for c in np.flatnonzero(~np.isfinite(current_lp))]
    if stuck:
        raise SamplerError(
            f"chain(s) {stuck}: no finite starting point after "
            f"{INIT_RETRIES} attempts"
        )
    log_scale = np.full(n_chains, math.log(2.38 / math.sqrt(dim)))

    block = max(1, DRAW_BLOCK_VALUES // dim)  # iterations per refill
    normals = np.empty((n_chains, block, dim))
    increments = np.empty((n_chains, block, dim))
    uniforms = np.empty((n_chains, block))
    log_u = np.empty((n_chains, block))
    chi_sq = np.empty((n_chains, block))
    dof = INDEPENDENCE_DOF

    draws = np.empty((n_chains, config.samples, dim))
    accepted = np.zeros(n_chains, dtype=np.int64)
    adapt_accepted = np.zeros(n_chains, dtype=np.int64)
    independent_accepted = np.zeros(n_chains, dtype=np.int64)
    n_independent = 0  # independence steps of the sampling phase
    nonfinite = np.zeros(n_chains, dtype=np.int64)
    evaluations = np.zeros(n_chains, dtype=np.int64)
    random_walk_evaluations = np.zeros(n_chains, dtype=np.int64)
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
                    chi_sq[c] = 2.0 * rng.standard_gamma(0.5 * dof, block)
                    increments[c] = normals[c] @ factor.T
                np.log(uniforms, out=log_u)
            adapting = it < config.adapt
            # math.exp, as the sampler takes it; numpy's may differ in
            # the last bit.
            scale = np.array([math.exp(ls) for ls in log_scale])

            independent = (it + 1) % INDEPENDENCE_PERIOD == 0
            z = normals[:, j]
            z_sq = (z * z).sum(axis=1)
            w = whiten(state - mean)
            w_sq = (w * w).sum(axis=1)  # now: whitening x' overwrites w
            if independent:
                stretch = np.sqrt(dof / chi_sq[:, j])
                proposal = mean + increments[:, j] * stretch[:, None]
                screen = np.zeros(n_chains)  # every proposal is evaluated
            else:
                proposal = state + increments[:, j] * scale[:, None]
                screen = -(scale * (z * w).sum(axis=1) + 0.5 * scale * scale * z_sq)
            first = np.minimum(screen, 0.0)
            evaluated = log_u[:, j] < first
            proposal_lp = log_post(proposal)
            log_ratio = proposal_lp - current_lp
            if independent:
                w_new = whiten(proposal - mean)
                # math.log1p, as the sampler takes it; numpy's may differ
                # in the last bit.
                tails = [
                    np.array([math.log1p(v) for v in (sq / dof).tolist()])
                    for sq in ((w_new * w_new).sum(axis=1), w_sq)
                ]
                log_ratio += 0.5 * (dof + dim) * (tails[0] - tails[1])
            else:
                random_walk_evaluations += evaluated
            second = log_ratio - screen
            # A NaN ratio fails the test below, so the proposal is
            # rejected; it is counted here and scores 0 in the adaptation.
            nonfinite += evaluated & np.isnan(second)
            accept = evaluated & (log_u[:, j] < first + np.minimum(second, 0.0))
            if not adapting:
                evaluations += evaluated
            np.copyto(state, proposal, where=accept[:, None])
            np.copyto(current_lp, proposal_lp, where=accept)

            if adapting:
                adapt_accepted += accept
                if not independent:
                    gamma = (10.0 + it) ** -0.6
                    log_scale += gamma * (accept - TARGET_ACCEPT)
            elif it >= warm:
                accepted += accept
                if independent:
                    independent_accepted += accept
                    n_independent += 1
                if (it - warm + 1) % config.thin == 0:
                    draws[:, recorded] = state
                    recorded += 1

    if screened_in is not None:
        screened_in.extend(random_walk_evaluations.tolist())
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
            adapt_accept_rate=(
                float(adapt_accepted[c]) / config.adapt if config.adapt
                else math.nan
            ),
            independence_accept_rate=(
                float(independent_accepted[c]) / n_independent
                if n_independent else math.nan
            ),
            density_evaluations=int(evaluations[c]),
        )
        for c, (k, (_, seed_used)) in enumerate(zip(chains, streams))
    ]


def reference_assemble(dataset: Dataset) -> AssembledDataset:
    """``featmeta.sampler.assemble`` as it was: S factored once per trial."""
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


@dataclass(frozen=True)
class DesignRow:
    """One observation's regression row.

    ``intercept`` is 1 for control-comparison rows, 0 for active ones
    (where it cancels); the remaining blocks multiply beta, gamma, phi,
    and eta respectively.
    """

    intercept: float
    x: tuple[float, ...]
    z: tuple[float, ...]
    w: tuple[float, ...]
    interactions: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.concatenate(
            [[self.intercept], self.x, self.z, self.w, self.interactions]
        )

    def expected_value(self, params: ParameterVector) -> float:
        return float(self.as_array() @ params.coefficients())


def interaction_value(
    schema: CovariateSchema,
    term: int,
    x: Sequence[float],
    z: Sequence[float],
    w: Sequence[float],
) -> float:
    """Product of the raw covariates referenced by interaction ``term``."""
    pools = {"intervention": x, "study": z, "followup": w}
    value = 1.0
    for factor in schema.interactions[term]:
        value *= float(pools[factor.level][factor.index])
    return value


def _raw_blocks(
    schema: CovariateSchema,
    arm: InterventionArm,
    z: Sequence[float],
    category: int,
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    dummies = [0.0] * (schema.q - 1)
    if category > 1:
        dummies[category - 2] = 1.0
    w = tuple(dummies)
    j = tuple(
        interaction_value(schema, term, arm.x, z, w)
        for term in range(schema.l)
    )
    return arm.x, tuple(float(v) for v in z), w, j


def design_row(
    schema: CovariateSchema,
    trial: TrialRecord,
    arm: InterventionArm,
    category: int,
    centering: CenteringRecord | None = None,
) -> DesignRow:
    """Build the regression row for one (arm, follow-up) observation.

    For active-comparison trials the row is the difference between the
    arm's raw blocks and the reference arm's, with study and follow-up
    columns identically zero; centering cancels there, so the record
    only affects control-comparison rows.
    """
    if trial.comparison == "active":
        reference = trial.reference
        if reference is None:
            raise ValueError(
                f"trial {trial.trial_id!r}: active comparison without a "
                "resolvable reference arm"
            )
        xk, zk, wk, jk = _raw_blocks(schema, arm, trial.z, category)
        xr, _, _, jr = _raw_blocks(schema, reference, trial.z, category)
        return DesignRow(
            intercept=0.0,
            x=tuple(a - b for a, b in zip(xk, xr)),
            z=(0.0,) * schema.p,
            w=(0.0,) * (schema.q - 1),
            interactions=tuple(a - b for a, b in zip(jk, jr)),
        )

    x, z, w, j = _raw_blocks(schema, arm, trial.z, category)
    if centering is not None:
        x = tuple(a - m for a, m in zip(x, centering.x_means))
        z = tuple(a - m for a, m in zip(z, centering.z_means))
        w = tuple(a - m for a, m in zip(w, centering.w_means))
        j = tuple(a - m for a, m in zip(j, centering.j_means))
    return DesignRow(intercept=1.0, x=x, z=z, w=w, interactions=j)


def reference_trial_design_matrix(
    schema: CovariateSchema,
    trial: TrialRecord,
    centering: CenteringRecord | None = None,
) -> np.ndarray:
    """Stack the trial's design rows (canonical observation order)."""
    arm_by_id = {a.arm_id: a for a in trial.contrast_arms}
    rows = [
        design_row(
            schema, trial, arm_by_id[o.arm_id], o.category, centering
        ).as_array()
        for o in trial.ordered_observations()
    ]
    return np.array(rows, dtype=float).reshape(len(rows), 1 + schema.n + schema.p
                                               + (schema.q - 1) + schema.l)


def reference_draw_trial_outcomes(
    trial: TrialRecord,
    params: ParameterVector,
    schema: CovariateSchema,
    base_rho_y: float,
    base_rho_d: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one outcome vector for a structured trial (y values ignored).

    Returns draws in the trial's canonical observation order, from
    delta = theta + tau * L_S xi followed by y = delta + L_V xi', so
    tau = 0 yields delta = theta exactly.
    """
    theta = reference_trial_design_matrix(schema, trial) @ params.coefficients()
    within = reference_within_covariance(trial, base_rho_y, base_rho_d).matrix
    dim = within.shape[0]
    chol_s = np.linalg.cholesky(between_structure(dim))
    delta = theta + params.tau * (chol_s @ rng.standard_normal(dim))
    eigvals, eigvecs = np.linalg.eigh(within)
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    return delta + root @ rng.standard_normal(dim)


def _reference_draw_structure(
    config: SimConfig, index: int, comparison: str, rng: np.random.Generator
) -> TrialRecord:
    """One trial with drawn covariates and variances; outcomes zeroed."""
    schema = config.schema
    n_coded = int(rng.integers(1, config.max_coded_arms + 1))
    if comparison == "active":
        n_coded = max(2, n_coded)  # reference plus at least one contrast
    arms = tuple(
        InterventionArm(
            arm_id=f"arm{k + 1}",
            x=tuple(
                float(rng.random() < config.feature_prob)
                for _ in range(schema.n)
            ),
        )
        for k in range(n_coded)
    )
    patterns = config.patterns()
    weights = config.pattern_weights
    if weights is not None:
        probs = np.asarray(weights, dtype=float)
        probs = probs / probs.sum()
        pattern = patterns[rng.choice(len(patterns), p=probs)]
    else:
        pattern = patterns[rng.integers(0, len(patterns))]

    reference = "arm1" if comparison == "active" else None
    contrast = arms[1:] if comparison == "active" else arms
    lo, hi = config.variance_range
    flo, fhi = config.ref_var_fraction_range
    observations = []
    ref_change_var = {}
    fraction = float(rng.uniform(flo, fhi))
    for cat in pattern:
        shared_v = float(rng.uniform(lo, hi))
        ref_change_var[cat] = fraction * shared_v
        for arm in contrast:
            observations.append(
                Observation(
                    arm_id=arm.arm_id,
                    category=cat,
                    y=0.0,
                    v=shared_v,
                )
            )
    return TrialRecord(
        trial_id=f"sim-{index + 1:03d}",
        comparison=comparison,
        arms=arms,
        z=tuple(float(rng.normal(0.0, config.z_sd)) for _ in range(schema.p)),
        observations=tuple(observations),
        reference_arm=reference,
        ref_change_var=ref_change_var,
    )


def reference_simulate_dataset(config: SimConfig) -> Dataset:
    """Generate a complete dataset under the configured true parameters.

    Deterministic in ``config.seed``. At least one control-comparison
    trial is always present (the first trial is forced to control when
    the draws produce none).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0,))
    )
    comparisons = [
        "control" if rng.random() < config.control_fraction else "active"
        for _ in range(config.n_trials)
    ]
    if "control" not in comparisons:
        comparisons[0] = "control"

    trials = []
    for i, comparison in enumerate(comparisons):
        skeleton = _reference_draw_structure(config, i, comparison, rng)
        y = reference_draw_trial_outcomes(
            skeleton, config.params, config.schema, config.rho_y, config.rho_d,
            rng,
        )
        observations = tuple(
            replace(obs, y=float(val))
            for obs, val in zip(skeleton.ordered_observations(), y)
        )
        trials.append(replace(skeleton, observations=observations))
    return Dataset(
        schema=config.schema,
        trials=tuple(trials),
        base_rho_y=config.rho_y,
        base_rho_d=config.rho_d,
    )
