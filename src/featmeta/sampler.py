"""Posterior sampling by random-walk Metropolis with a model-derived proposal.

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
approximation. Eigenvalues at or below a trial's rounding floor are set
to 0 and counted; where lam + tau^2 = 0 the density is -inf.

The proposal comes from the model. Given tau the coefficients are
conjugate: with D = diag(lam + tau^2) and Lambda = X'D^-1 X + I/sd^2
(whitened, stacked arrays), c | tau, y ~ N(Lambda^-1 X'D^-1 y, Lambda^-1),
so u = log tau has a one-dimensional collapsed density f(u) (Rue,
Martino & Chopin 2009). Its mode, its curvature there and the slope of
the conditional mean of c give a Gaussian (Laplace) approximation of
the joint posterior of (c, u), N(mu, R R') with mu = (E[c | tau_mode, y],
u_mode) and R the lower Cholesky factor of its covariance, computed once
per run from the assembled arrays and the prior. All three are read off
parabolas through three nodes of one grid of u over the bulk of f. tau
is sampled on the log scale (with the Jacobian term), keeping its
support positive.

The chains cycle through two Metropolis-Hastings kernels, fixed by the
iteration index; a fixed cycle of kernels that each leave the posterior
invariant leaves it invariant too (Tierney 1994). Nine iterations in
ten are random-walk steps: each chain proposes x + exp(l) R z, with z
standard normal and one log-scale l per chain, which starts at
log(2.38/sqrt(dim)) (Roberts & Rosenthal 2001) and moves toward a 0.234
acceptance rate by Robbins-Monro updates during a dedicated adaptation
phase, then is frozen. Every INDEPENDENCE_PERIOD-th iteration is an
independence step: each chain proposes mu + R z, whatever its state,
and accepts it with the ratio that corrects for the Gaussian proposal
density. The approximation is close to the posterior on well-identified
data, so these steps are mostly accepted and decorrelate the chain; the
nine local moves keep a chain sound where it is poor, such as a mode on
the edge of tau's bracket.

All chains of a run advance in lockstep as one (chains, dim) state in
a single loop, whose one body serves the adaptation, burn-in and
sampling phases: each iteration makes one batched design product and
one density evaluation over a (chains, observations) block. Only the
random-walk iterations of the adaptation phase move the scales, and
only sampling iterations record draws. Chain k still draws from its
own random stream and turns each block of normals into proposal
directions with its own fixed-shape product by R'; the design product,
and the product by R^-1 that whitens the states for an independence
step, keep each chain in a fixed row of fixed-shape blocks. So its
draws do not depend on which chains run with it.

numpy does the work whose size grows with the data: the design product
and the density's (chains, observations) arithmetic, in buffers
allocated once. Per-chain scalars (log posteriors, acceptance,
counters) are Python floats and ints, since a numpy call on a handful
of values costs more than the arithmetic; each is formed with the same
IEEE operations in the same order, so the draws are those of an
all-numpy loop bit for bit. The adaptation keeps numpy's exp, which may
differ from math.exp in the last bit.
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
    "Preconditioner",
    "McmcRun",
    "assemble",
    "log_likelihood_marginal",
    "precondition",
    "run_chain",
    "sample_posterior",
    "run_mcmc",
]

TARGET_ACCEPT = 0.234  # acceptance rate the adaptation steers each scale to
INIT_RETRIES = 100
LOG_TAU_SPAN = 30.0  # f is scanned on (log tau_upper - span, log tau_upper)
SCAN_NODES = 61  # nodes of that scan
TAIL_DROP = 40.0  # the tau grid spans the scan where f > max f - this
GRID_NODES = 151  # nodes of the tau grid
COLLAPSED_BYTES = 1 << 20  # largest temporary of the collapsed density
WEAK_SD_FRACTION = 0.5  # conditional sd above this share of coeff_sd: weak
LANES = 4  # rows of one padded product (see _LaneProduct)
DRAW_BLOCK_VALUES = 8192  # random normals taken from a chain's stream at once
INDEPENDENCE_PERIOD = 10  # every this many iterations, an independence step


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
        # The log prior takes log(2 pi sd^2) and 1 / sd^2.
        square = self.coeff_sd * self.coeff_sd
        if not 0.0 < 2.0 * math.pi * square < math.inf or 1.0 / square == math.inf:
            raise ValueError("coeff_sd must lie in about (1e-154, 5e153)")
        if not 0.0 < self.tau_upper < math.inf:
            raise ValueError("tau_upper must be positive and finite")
        if 0.1 * self.tau_upper == 0.0:  # the chains start at a tenth of it
            raise ValueError("tau_upper must have a tenth that is not 0")


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

    def __post_init__(self):
        for name in ("chains", "samples", "thin"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("adapt", "burn_in", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """One chain's retained draws plus bookkeeping.

    ``draws`` has shape (samples, n_parameters) in canonical order
    (intercept, beta, gamma, phi, eta, tau) with tau on its natural
    scale. ``seed_used`` is the derived stream key recorded for reruns.
    ``nonfinite_rejections`` counts proposals rejected because their log
    posterior was not finite (NaN or infinite) inside the prior's
    support; -1 where unknown. ``adapt_accept_rate`` is the acceptance
    rate over the adaptation phase; NaN where unknown or with no
    adaptation. ``accept_rate`` and ``adapt_accept_rate`` count both
    kinds of step; ``independence_accept_rate`` is the acceptance of
    the independence steps of the sampling phase alone, NaN where
    unknown or where the phase has none. A low value flags a poor
    Laplace approximation.
    """

    chain_index: int
    draws: np.ndarray
    parameter_names: tuple[str, ...]
    accept_rate: float
    seed_used: int
    proposal_log_scale: float
    nonfinite_rejections: int = 0
    adapt_accept_rate: float = math.nan
    independence_accept_rate: float = math.nan

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
    stacked_eigenvalues: np.ndarray  # concat of lam_i, rounding noise set to 0
    log_density_const: float  # sum_i (dim_i log 2pi + logdet S_i)
    n_coefficients: int
    zeroed_eigenvalues: int = 0  # lam_i at or below the trial's rounding floor

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
    """Whiten every trial once (see the module docstring) and stack them.

    An eigenvalue of the whitened V at or below the trial's rounding
    floor, dim * eps * max(lam), is set to 0 and counted: it is a
    singular direction of V, or a negative one repaired to 0.
    """
    ys, designs, eigenvalues = [], [], []
    const = 0.0
    zeroed = 0
    # L^-1 and the trial's constant depend on the dimension alone.
    by_dim: dict[int, tuple[np.ndarray, float]] = {}
    for trial, within, design in _trials_with_covariance(dataset):
        dim = within.shape[0]
        if dim not in by_dim:
            chol_s = np.linalg.cholesky(between_structure(dim))
            log_det_s = 2.0 * float(np.sum(np.log(np.diag(chol_s))))
            by_dim[dim] = (
                np.linalg.inv(chol_s),
                dim * math.log(2.0 * math.pi) + log_det_s,
            )
        inv_chol, trial_const = by_dim[dim]
        whitened = inv_chol @ within @ inv_chol.T
        whitened = 0.5 * (whitened + whitened.T)
        lam, q = np.linalg.eigh(whitened)
        projector = q.T @ inv_chol  # P
        ys.append(projector @ trial.y_vector())
        designs.append(projector @ design)
        noise = lam <= dim * np.finfo(float).eps * lam[-1]  # eigh sorts lam
        zeroed += int(np.count_nonzero(noise))
        eigenvalues.append(np.where(noise, 0.0, lam))
        const += trial_const
    stacked_design = np.vstack(designs)
    return AssembledDataset(
        dataset=dataset,
        stacked_y=np.concatenate(ys),
        stacked_design=stacked_design,
        stacked_eigenvalues=np.concatenate(eigenvalues),
        log_density_const=const,
        n_coefficients=stacked_design.shape[1],
        zeroed_eigenvalues=zeroed,
    )


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def _marginal_sums(
    y: np.ndarray,
    eigenvalues: np.ndarray,
    mean: np.ndarray,
    tau_sq,
    denom: np.ndarray | None = None,
    resid: np.ndarray | None = None,
):
    """Sum over observations of r^2 / (lam + tau^2) + log(lam + tau^2),
    with r = y - mean, for each row of ``mean`` (the whitened, stacked
    X c); ``y`` and ``eigenvalues`` are the stacked arrays of
    ``assemble`` or rows of copies of them. The marginal log likelihood
    is -0.5 * (log_density_const + sum). ``tau_sq`` is a scalar or an
    array that broadcasts against ``mean``; ``denom`` and ``resid``,
    buffers shaped like ``mean``, are overwritten when given.
    """
    denom = np.add(eigenvalues, tau_sq, out=denom)
    resid = np.subtract(y, mean, out=resid)
    np.multiply(resid, resid, out=resid)
    np.divide(resid, denom, out=resid)
    np.add(resid, np.log(denom, out=denom), out=resid)
    return np.add.reduce(resid, axis=-1)  # resid.sum without its wrapper


def log_likelihood_marginal(
    data: Dataset | AssembledDataset, params: ParameterVector
) -> float:
    """Marginal log likelihood over all trials (delta integrated out).

    Accepts a raw dataset or a pre-assembled one; pass the latter when
    evaluating many parameter values. -inf where some lam + tau^2 is 0
    (a singular V at tau = 0).
    """
    assembled = data if isinstance(data, AssembledDataset) else assemble(data)
    mean = assembled.stacked_design @ params.coefficients()
    tau = float(params.tau)
    eigenvalues = assembled.stacked_eigenvalues
    with np.errstate(divide="ignore", invalid="ignore"):
        total = float(
            _marginal_sums(assembled.stacked_y, eigenvalues, mean, tau * tau)
        )
    if not math.isfinite(total) and _zero_denominator(eigenvalues, tau * tau):
        return -math.inf
    return -0.5 * (assembled.log_density_const + total)


def _zero_denominator(eigenvalues: np.ndarray, tau_sq: float) -> bool:
    """Whether some lam + tau^2 is 0, where the density is -inf."""
    return bool(np.any(eigenvalues + tau_sq == 0.0))


# ---------------------------------------------------------------------------
# Chains in lockstep: streams and the batched log posterior
# ---------------------------------------------------------------------------


def _chain_rng(seed: int, chain_index: int) -> tuple[np.random.Generator, int]:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,))
    derived = int(seq.generate_state(1, dtype=np.uint64)[0])
    return np.random.default_rng(seq), derived


class _LaneProduct:
    """``matrix @ v`` for each row v of a batch, one row per chain.

    A BLAS product over C rows rounds each row differently for each C.
    Chain k therefore always sits in row ``k % LANES`` of a zero-padded
    block of LANES rows, so every product has the same shape and each
    chain's row is bit-identical whichever chains share the batch. The
    returned rows are overwritten by the next call.
    """

    def __init__(self, matrix: np.ndarray, chains: Sequence[int]):
        blocks = sorted({k // LANES for k in chains})
        rows = [blocks.index(k // LANES) * LANES + k % LANES for k in chains]
        # A slice keeps the common case, chains 0..C-1, free of copies.
        self.rows = (
            slice(0, len(rows)) if rows == list(range(len(rows)))
            else np.array(rows)
        )
        self.matrix_t = np.ascontiguousarray(matrix.T)
        self.vectors = np.zeros((len(blocks) * LANES, matrix.shape[1]))
        self.product = np.empty((len(blocks) * LANES, matrix.shape[0]))
        self.blocks = [
            (self.vectors[lo : lo + LANES], self.product[lo : lo + LANES])
            for lo in range(0, len(blocks) * LANES, LANES)
        ]

    def __call__(self, vectors: np.ndarray) -> np.ndarray:
        self.vectors[self.rows] = vectors
        for block, out in self.blocks:
            np.matmul(block, self.matrix_t, out=out)
        return self.product[self.rows]


class _LogPosterior:
    """Log posterior of a batch of sampler states, one per chain.

    A call takes the (chains, coefficients) and (chains,) log(tau) parts
    of the states and returns one float per chain: -inf where tau is
    outside the prior's support or some lam + tau^2 is 0, and NaN where
    the density is otherwise not finite inside the support. Each chain's
    value depends on its own state alone. The
    (chains, observations) work runs in buffers allocated once; each
    chain's few scalars are finished in Python, with the IEEE operations
    numpy would do, in the same order.
    """

    def __init__(
        self,
        assembled: AssembledDataset,
        prior: PriorSpec,
        chains: Sequence[int],
    ):
        n_chains = len(chains)
        n_obs = assembled.stacked_y.shape[0]
        self.log_density_const = assembled.log_density_const
        self.stacked_eigenvalues = assembled.stacked_eigenvalues
        self.tau_upper = prior.tau_upper
        n_coeff = assembled.n_coefficients
        self.design = _LaneProduct(assembled.stacked_design, chains)
        # Normal and uniform normalizing constants of the prior.
        self.prior_const = -0.5 * n_coeff * math.log(
            2.0 * math.pi * prior.coeff_sd**2
        ) - math.log(prior.tau_upper)
        self.half_precision = 0.5 / prior.coeff_sd**2
        # A row per chain: a ufunc runs slower when an operand is
        # broadcast along the rows and slower still along the columns.
        self.y = np.tile(assembled.stacked_y, (n_chains, 1))
        self.eigenvalues = np.tile(assembled.stacked_eigenvalues, (n_chains, 1))
        self.tau = np.empty(n_chains)
        self.tau_sq = np.empty(n_chains)
        self.tau_sq_column = self.tau_sq[:, None]
        self.tau_sq_rows = np.empty((n_chains, n_obs))
        self.squares = np.empty((n_chains, n_coeff))
        self.denom = np.empty((n_chains, n_obs))
        self.resid = np.empty((n_chains, n_obs))

    def __call__(self, coeffs: np.ndarray, log_tau: np.ndarray) -> list[float]:
        # exp overflows to inf for log(tau) > 709, which lies outside the
        # support; the caller silences floating-point warnings.
        tau = np.exp(log_tau, out=self.tau)
        np.multiply(tau, tau, out=self.tau_sq)
        np.copyto(self.tau_sq_rows, self.tau_sq_column)
        sums = _marginal_sums(
            self.y, self.eigenvalues, self.design(coeffs), self.tau_sq_rows,
            self.denom, self.resid,
        )
        squares = np.multiply(coeffs, coeffs, out=self.squares)
        quads = np.add.reduce(squares, axis=1)
        const = self.log_density_const
        upper, hp, pc = self.tau_upper, self.half_precision, self.prior_const
        out = []
        for s, q, lt, t in zip(
            sums.tolist(), quads.tolist(), log_tau.tolist(), tau.tolist()
        ):
            if not 0.0 < t < upper:
                out.append(-math.inf)
                continue
            # lt is the Jacobian of the tau -> log(tau) reparameterization.
            lp = -0.5 * (const + s) - hp * q + (lt + pc)
            if not math.isfinite(lp):
                zero = _zero_denominator(self.stacked_eigenvalues, t * t)
                lp = -math.inf if zero else math.nan
            out.append(lp)
        return out


# ---------------------------------------------------------------------------
# The proposal: a Laplace approximation built on the collapsed density
# ---------------------------------------------------------------------------


class _Collapsed:
    """The collapsed log density f(u) of u = log(tau), the mean of
    c | tau, y and the lower Cholesky factor L of its precision Lambda,
    for one assembled dataset and prior.

    f(u) = -1/2 sum log(lam + tau^2) - 1/2 log det Lambda
    - 1/2 (y'D^-1 y - b'Lambda^-1 b) + u, with b = X'D^-1 y, is
    log p(u | y) up to a constant, the prior's uniform bound aside. f is
    -inf wherever it is not finite (some lam + tau^2 <= 0 among them);
    the mean and L are NaN there. Several u are evaluated at once, in
    temporaries of at most about COLLAPSED_BYTES each; the arrays that do
    not depend on u are built once, with the object.

    One Cholesky factor per u does it: that of [X y]'D^-1 [X y] plus
    diag(1/sd^2, ..., 1/sd^2, 1) has L in its leading block, L^-1 b below
    it and sqrt(1 + y'D^-1 y - b'Lambda^-1 b) last; the 1 keeps that
    pivot positive when the fit is exact.
    """

    def __init__(self, assembled: AssembledDataset, prior: PriorSpec):
        columns = np.column_stack([assembled.stacked_design, assembled.stacked_y])
        n_obs, width = columns.shape
        self.k = width - 1
        # Row j: the products of observation j's columns; (1/D) @ rows is
        # [X y]'D^-1 [X y], flattened.
        self.products = (columns[:, :, None] * columns[:, None, :]).reshape(n_obs, -1)
        self.eigenvalues = assembled.stacked_eigenvalues
        self.diagonal = np.arange(width)
        self.ridge = np.append(np.full(self.k, 1.0 / prior.coeff_sd**2), 1.0)
        self.per_u = max(1, COLLAPSED_BYTES // (8 * n_obs))

    def moments(self, log_tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f, the mean of c | tau, y and L at each u of ``log_tau``."""
        u = np.asarray(log_tau, dtype=float)
        k, diagonal = self.k, self.diagonal
        f = np.full(u.shape, -math.inf)
        mean = np.full((u.size, k), math.nan)
        lower = np.full((u.size, k, k), math.nan)
        with np.errstate(all="ignore"):
            for lo in range(0, u.size, self.per_u):
                part = slice(lo, lo + self.per_u)
                denom = self.eigenvalues + np.exp(2.0 * u[part])[:, None]
                gram = ((1.0 / denom) @ self.products).reshape(-1, k + 1, k + 1)
                gram[:, diagonal, diagonal] += self.ridge
                good = np.all(denom > 0.0, axis=1)
                good &= np.all(np.isfinite(gram), axis=(1, 2))
                gram[~good] = np.eye(k + 1)  # keeps the factorization finite
                chol = _cholesky(gram)
                log_det = 2.0 * np.log(chol[:, diagonal[:k], diagonal[:k]]).sum(axis=1)
                quad = chol[:, k, k] ** 2 - 1.0
                value = u[part] - 0.5 * (np.log(denom).sum(axis=1) + log_det + quad)
                good &= np.isfinite(value)
                f[part] = np.where(good, value, -math.inf)
                # The mean L^-T (L^-1 b); the upper-triangular L' needs no
                # pivoting.
                upper = chol[:, :k, :k].transpose(0, 2, 1)
                upper[~good] = np.eye(k)
                m = np.linalg.solve(upper, chol[:, k, :k, None])[:, :, 0]
                mean[part][good] = m[good]
                lower[part][good] = chol[good, :k, :k]
        return f, mean, lower


def _cholesky(matrices: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of matrices; NaN for one that is
    not numerically positive definite."""
    try:
        return np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        out = np.full_like(matrices, math.nan)
        for i, matrix in enumerate(matrices):
            try:
                out[i] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                pass
        return out


def _tau_grid(
    collapsed: _Collapsed, prior: PriorSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes u over the bulk of f, with f and the mean of c | tau, y at
    each.

    A scan of SCAN_NODES nodes over (log tau_upper - LOG_TAU_SPAN,
    log tau_upper) brackets the nodes where f > max f - TAIL_DROP,
    widened by one scan node on each side within the scan; the grid has
    GRID_NODES evenly spaced nodes over that bracket.
    """
    top = math.log(prior.tau_upper)
    scan = np.linspace(top - LOG_TAU_SPAN, top, SCAN_NODES)
    values = collapsed.moments(scan)[0]
    peak = values.max()
    if peak == -math.inf:
        raise SamplerError(
            "the collapsed posterior of tau is not finite anywhere on "
            f"({scan[0]:.4g}, {top:.4g}) in log(tau)"
        )
    bulk = np.flatnonzero(values > peak - TAIL_DROP)
    lo, hi = max(bulk[0] - 1, 0), min(bulk[-1] + 1, SCAN_NODES - 1)
    nodes = np.linspace(scan[lo], scan[hi], GRID_NODES)
    values, means, _ = collapsed.moments(nodes)
    return nodes, values, means


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """Gaussian (Laplace) approximation of the posterior of (c, log tau).

    ``tau_mode`` is exp of the mode u of the collapsed density f,
    ``log_tau_sd`` is s = (-f''(u))^-1/2, or 1 where the mode sits on
    the edge of the bracket or of the region where f is finite, or f''
    is not negative there. With g the slope in u of the conditional mean
    of c, the covariance is Sigma_cc = Lambda(u)^-1 + s^2 g g',
    Sigma_cu = s^2 g and Sigma_uu = s^2; ``factor`` is its lower
    Cholesky factor R and ``condition_number`` its 2-norm condition
    number. ``mean`` is its centre, the mean of c | tau, y at the mode
    followed by the mode u. ``conditional_sd`` is the sd of each
    coefficient given tau at the mode.
    """

    mean: np.ndarray
    factor: np.ndarray
    tau_mode: float
    log_tau_sd: float
    condition_number: float
    conditional_sd: np.ndarray


def precondition(assembled: AssembledDataset, prior: PriorSpec) -> Preconditioner:
    """The proposals of ``run_chain``, from the assembled arrays and the
    prior alone, read off ``_tau_grid``.

    Where f is finite at the best node's two neighbours, the parabola
    through the three gives the mode u (its vertex) and f'' (its
    curvature), and g is the slope at u of the parabola through the
    three conditional means. At an edge mode, where the best node ends
    the grid or neighbours a node where f is not finite, u is that node,
    s is 1 and g is zero. Lambda(u)^-1 and the centre are taken at u.
    """
    collapsed = _Collapsed(assembled, prior)
    nodes, values, means = _tau_grid(collapsed, prior)
    k = assembled.n_coefficients
    best = int(np.argmax(values))
    mode, sd, slope = float(nodes[best]), 1.0, np.zeros(k)
    if 0 < best < nodes.size - 1 and np.all(values[best - 1 : best + 2] > -math.inf):
        step = 0.5 * (nodes[best + 1] - nodes[best - 1])
        left, peak, right = values[best - 1 : best + 2]
        second = left - 2.0 * peak + right  # step^2 f''
        offset = 0.0  # of the vertex, in steps
        if second < 0.0:
            offset = 0.5 * (left - right) / second
            sd = float(step / math.sqrt(-second))
        mode += offset * step
        below, at, above = means[best - 1 : best + 2]
        slope = ((above - below) / 2.0 + offset * (above - 2.0 * at + below)) / step
    _, [centre], [lower] = collapsed.moments([mode])
    root = np.linalg.solve(lower.T, np.eye(k))  # L^-T
    cov = root @ root.T  # Lambda(u)^-1
    column = np.append(slope, 1.0)  # Sigma's last column over s^2
    sigma = sd * sd * np.outer(column, column)
    sigma[:k, :k] += 0.5 * (cov + cov.T)
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as e:
        raise SamplerError(
            "the Laplace approximation of the posterior is not positive "
            f"definite (condition number {np.linalg.cond(sigma):.3g}); "
            "coefficients that only a very wide prior constrains, such as "
            "those of collinear covariates, make it so"
        ) from e
    return Preconditioner(
        mean=np.append(centre, mode),
        factor=factor,
        tau_mode=math.exp(mode),
        log_tau_sd=sd,
        condition_number=float(np.linalg.cond(sigma)),
        conditional_sd=np.sqrt(np.diagonal(cov)),
    )


# ---------------------------------------------------------------------------
# Metropolis with one adapted scale per chain and independence steps,
# in lockstep
# ---------------------------------------------------------------------------


def run_chain(
    assembled: AssembledDataset,
    config: McmcConfig,
    prior: PriorSpec,
    chains: Sequence[int],
    preconditioner: Preconditioner | None = None,
) -> list[ChainOutput]:
    """Run the Metropolis chains ``chains``, advancing them in lockstep.

    One loop runs every iteration. On iteration ``it`` with
    ``(it + 1) % INDEPENDENCE_PERIOD == 0`` each chain proposes
    mu + R z, its block increment added to the approximation's mean;
    with w = R^-1 (x - mu) for its state x, the log acceptance ratio is
    log pi(x') - log pi(x) + (|z|^2 / 2 - |w|^2 / 2). On every other
    iteration each chain proposes its state plus its block increment
    times its scale. The first ``config.adapt`` iterations then move the
    log-scales, on random-walk iterations only, so from iteration
    ``config.adapt`` on each scale is exp of its final log-scale; the
    next ``config.burn_in`` are discarded, and the rest are thinned into
    the draws.

    Chain k's output depends on (config.seed, k) alone, never on which
    other chains run with it: its proposals and acceptance uniforms come
    from its own stream, taken in blocks sized from the state dimension,
    mu and R depend on the data and the prior alone, the kernel of an
    iteration on its index alone, and every batched operation treats
    each chain's row on its own. ``preconditioner`` is
    ``precondition(assembled, prior)``, computed here when not given.
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
    current_lp = [math.nan] * n_chains
    with np.errstate(all="ignore"):
        for _ in range(INIT_RETRIES):
            retry = np.flatnonzero(~np.isfinite(current_lp))
            if retry.size == 0:
                break
            for c in retry:
                state[c] = start + rngs[c].normal(0.0, 0.01, size=dim)
            lps = log_post(state[:, :n_coeff], state[:, n_coeff])
            for c in retry:
                current_lp[c] = lps[c]
    stuck = [chains[c] for c in np.flatnonzero(~np.isfinite(current_lp))]
    if stuck:
        raise SamplerError(
            f"chain(s) {stuck}: no finite starting point after "
            f"{INIT_RETRIES} attempts"
        )
    if preconditioner is None:
        preconditioner = precondition(assembled, prior)
    mean = preconditioner.mean
    factor_t = preconditioner.factor.T
    whiten = _LaneProduct(np.linalg.inv(preconditioner.factor), chains)  # R^-1

    # One log-scale per chain, moved by Robbins-Monro toward the target
    # acceptance during the adapt phase, then frozen.
    log_scale = [math.log(2.38 / math.sqrt(dim))] * n_chains

    block = max(1, DRAW_BLOCK_VALUES // dim)  # iterations per refill
    normals = np.empty((n_chains, block, dim))
    increments = np.empty((n_chains, block, dim))  # normals @ R'
    uniforms = np.empty((n_chains, block))
    proposal = np.empty((n_chains, dim))
    proposed = proposal[:, :n_coeff], proposal[:, n_coeff]
    offset = np.empty((n_chains, dim))
    squares = np.empty((n_chains, dim))

    draws = np.empty((n_chains, config.samples, dim))
    adapt_accepted = [0] * n_chains
    accepted = [0] * n_chains
    independent_accepted = [0] * n_chains
    nonfinite = [0] * n_chains
    recorded = 0
    warm = config.adapt + config.burn_in
    total_iters = warm + config.samples * config.thin
    # np.exp, not math.exp: the two may differ in the last bit. One row
    # per chain, to scale that chain's increment.
    scale = np.exp(log_scale)[:, None]

    with np.errstate(all="ignore"):
        for it in range(total_iters):
            j = it % block
            if j == 0:
                # A fixed-shape product per chain: one product over all
                # chains would round each chain's rows differently for
                # each count.
                for c, rng in enumerate(rngs):
                    rng.standard_normal(out=normals[c])
                    rng.random(out=uniforms[c])
                    np.matmul(normals[c], factor_t, out=increments[c])
                log_u = np.log(uniforms).T.tolist()
            independent = (it + 1) % INDEPENDENCE_PERIOD == 0
            if independent:
                np.add(mean, increments[:, j], out=proposal)
                # |z|^2 / 2 - |w|^2 / 2 with w = R^-1 (x - mu): log q(x)
                # - log q(x') for the proposal density q = N(mu, R R').
                z_sq = np.add.reduce(
                    np.multiply(normals[:, j], normals[:, j], out=squares),
                    axis=1,
                )
                w = whiten(np.subtract(state, mean, out=offset))
                w_sq = np.add.reduce(np.multiply(w, w, out=squares), axis=1)
                corrections = (0.5 * z_sq - 0.5 * w_sq).tolist()
            else:
                np.multiply(increments[:, j], scale, out=proposal)
                proposal += state
            # Acceptances count in the adapt and sampling phases only.
            counts = (
                adapt_accepted if it < config.adapt
                else accepted if it >= warm
                else None
            )
            ratios = []
            for c, (lp, lu) in enumerate(zip(log_post(*proposed), log_u[j])):
                ratio = lp - current_lp[c]
                if independent:
                    ratio += corrections[c]
                # A NaN ratio fails this test, so its proposal is
                # rejected; it is counted.
                if lu < ratio:
                    state[c] = proposal[c]
                    current_lp[c] = lp
                    if counts is not None:
                        counts[c] += 1
                        if independent and it >= warm:
                            independent_accepted[c] += 1
                elif ratio != ratio:
                    nonfinite[c] += 1
                ratios.append(ratio)

            if it < config.adapt and not independent:
                gamma = (10.0 + it) ** -0.6
                # A NaN ratio scores 0.
                accept_prob = np.exp(
                    [min(r, 0.0) if r == r else -math.inf for r in ratios]
                ).tolist()
                log_scale = [
                    ls + gamma * (p - TARGET_ACCEPT)
                    for ls, p in zip(log_scale, accept_prob)
                ]
                scale = np.exp(log_scale)[:, None]
            elif it >= warm and (it - warm + 1) % config.thin == 0:
                draws[:, recorded] = state
                recorded += 1

    assert recorded == config.samples
    draws[:, :, n_coeff] = np.exp(draws[:, :, n_coeff])
    # Independence steps of the sampling phase, iterations warm..total - 1.
    n_independent = (
        total_iters // INDEPENDENCE_PERIOD - warm // INDEPENDENCE_PERIOD
    )
    return [
        ChainOutput(
            chain_index=k,
            draws=draws[c],
            parameter_names=assembled.parameter_names,
            accept_rate=accepted[c] / (config.samples * config.thin),
            seed_used=seed_used,
            proposal_log_scale=log_scale[c],
            nonfinite_rejections=nonfinite[c],
            adapt_accept_rate=(
                adapt_accepted[c] / config.adapt if config.adapt else math.nan
            ),
            independence_accept_rate=(
                independent_accepted[c] / n_independent if n_independent
                else math.nan
            ),
        )
        for c, (k, (_, seed_used)) in enumerate(zip(chains, streams))
    ]


@dataclass(frozen=True, eq=False)
class McmcRun:
    """The chains of ``sample_posterior`` and what the run found out.

    ``weak_coefficients`` names the coefficients that only the prior
    constrains: their ``Preconditioner.conditional_sd`` exceeds
    WEAK_SD_FRACTION of the prior sd. ``zeroed_eigenvalues`` is
    ``AssembledDataset.zeroed_eigenvalues``.
    """

    chains: list[ChainOutput]
    preconditioner: Preconditioner
    weak_coefficients: tuple[str, ...]
    zeroed_eigenvalues: int


def sample_posterior(
    dataset: Dataset,
    config: McmcConfig = McmcConfig(),
    prior: PriorSpec = PriorSpec(),
) -> McmcRun:
    """Sample the posterior with ``config.chains`` chains.

    All chains advance together in one ``run_chain`` call. Each chain is
    reproducible from ``config.seed`` and its index alone. Warns about
    uncentered covariates and about weakly identified coefficients.
    """
    if dataset.centering is None and dataset.schema.n_parameters > 2:
        warnings.warn(
            "fitting on uncentered covariates; the intercept and "
            "coefficients may mix poorly (see center_covariates)",
            stacklevel=3,
        )
    assembled = assemble(dataset)
    preconditioner = precondition(assembled, prior)
    weak = tuple(
        name
        for name, sd in zip(assembled.parameter_names, preconditioner.conditional_sd)
        if sd > WEAK_SD_FRACTION * prior.coeff_sd
    )
    if weak:
        warnings.warn(
            f"weakly identified coefficient(s) {', '.join(weak)}: their "
            f"posterior sd given tau exceeds {WEAK_SD_FRACTION:g} of the "
            f"prior sd {prior.coeff_sd:g}, so the prior alone constrains them",
            stacklevel=3,
        )
    chains = run_chain(
        assembled, config, prior, range(config.chains), preconditioner
    )
    return McmcRun(
        chains=chains,
        preconditioner=preconditioner,
        weak_coefficients=weak,
        zeroed_eigenvalues=assembled.zeroed_eigenvalues,
    )


def run_mcmc(
    dataset: Dataset,
    config: McmcConfig = McmcConfig(),
    prior: PriorSpec = PriorSpec(),
) -> list[ChainOutput]:
    """The chains of ``sample_posterior``."""
    return sample_posterior(dataset, config, prior).chains
