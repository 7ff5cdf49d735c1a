"""The model's posterior: assembly, the densities and the tau grid.

The model: per trial i, observed contrasts y_i ~ N(delta_i, V_i) with
heterogeneous arm effects delta_i ~ N(X_i c, tau^2 S_i), where c packs
the fixed-effect coefficients, V_i is the within-trial covariance, and
S_i = 0.5(I + 11') carries the common-reference correlation; with
delta integrated out, y_i ~ N(X_i c, V_i + tau^2 S_i).

The marginal density is evaluated through a per-trial simultaneous
diagonalization fixed at assembly time: with L the Cholesky factor of
S and A = L^-1 V L^-T = Q diag(lam) Q', the map P = Q' L^-1 turns
V + tau^2 S into diag(lam + tau^2), so each likelihood evaluation is a
vector operation with no refactorization. This is exact, not an
approximation. Eigenvalues at or below a trial's rounding floor are set
to 0 and counted; where lam + tau^2 = 0 the density is -inf.

Given tau the coefficients are conjugate: with D = diag(lam + tau^2)
and Lambda = X'D^-1 X + I/sd^2 (whitened, stacked arrays),
c | tau, y ~ N(Lambda^-1 X'D^-1 y, Lambda^-1), so u = log tau has a
one-dimensional collapsed density f(u) (Rue, Martino & Chopin 2009).
On a grid of u over the bulk of f, f and the moments of c | tau, y at
each node give the exact posterior up to the grid's spacing, q_grid:
node n with probability w_n, proportional to exp f(u_n), u uniform on
its cell of width h, and c ~ N(m_n, Lambda_n^-1) at the node
(``TauGrid``). Parabolas through three nodes give the mode of f, its
curvature there and the slope of the conditional mean of c, and so a
Gaussian (Laplace) approximation N(mu, R R') of the joint posterior of
(c, u), with mu = (E[c | tau_mode, y], u_mode) and R the lower Cholesky
factor of its covariance. ``featmeta.sampler`` builds its proposals
from both.

The records every engine returns live here too, so that none needs
the chains: ``ChainOutput``, one chain's draws and the statistics of
its run, and ``PosteriorSummary``, one parameter's summary. So does
the stream rule: chain k of a run with seed s draws from
``_chain_rng(s, k)``, spawned from s for k, so from (s, k) alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import between_structure, build_within_covariance
from .data import Dataset
from .design import ParameterVector, trial_design_matrix

__all__ = [
    "ChainOutput",
    "PosteriorSummary",
    "SamplerError",
    "PriorSpec",
    "AssembledDataset",
    "TauGrid",
    "Preconditioner",
    "assemble",
    "log_likelihood_marginal",
    "precondition",
]

LOG_TAU_SPAN = 30.0  # f is scanned on (log tau_upper - span, log tau_upper)
SCAN_NODES = 61  # nodes of that scan
TAIL_DROP = 40.0  # the tau grid spans the scan where f > max f - this
GRID_NODES = 151  # nodes of the tau grid
COLLAPSED_BYTES = 1 << 20  # largest temporary of the collapsed density


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
        # Earlier versions started the chains at a tenth of tau_upper;
        # the rule stays so that a setting they refused is still refused.
        if 0.1 * self.tau_upper == 0.0:
            raise ValueError("tau_upper must have a tenth that is not 0")


# ---------------------------------------------------------------------------
# Records and streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """One chain's retained draws plus the statistics of its run.

    ``chain_index`` is the chain's index k, which with the run's seed
    fixes its stream (``_chain_rng``). ``draws`` has shape (samples,
    n_parameters), in canonical order (intercept, beta, gamma, phi, eta,
    tau) with tau on its natural scale; ``parameter_names`` names its
    columns.

    Each statistic defaults to its unknown value, NaN for a rate or a
    scale and -1 for a key or a count, which a record keeps where its
    engine has no such statistic or where it was read from a file:
    ``accept_rate``, the share of the retained iterations whose proposal
    was accepted; ``seed_used``, the key of the chain's stream;
    ``proposal_log_scale``, the log of the proposal scale the retained
    iterations ran at; ``nonfinite_rejections``, the proposals rejected
    because their log posterior was not finite inside the prior's
    support; ``adapt_accept_rate``, the acceptance rate over adaptation,
    NaN also with none; ``independence_accept_rate``, that of the
    sampling phase's independence proposals, NaN also with none; and
    ``density_evaluations``, the log-posterior evaluations after
    adaptation.

    ``trace_moments`` is None, or the (ends, means, squares) of the
    draws that ``featmeta.diagnostics`` combines into shrink factors:
    per end, the mean and the sum of squared deviations of each
    parameter over the chain's first ``end`` draws, as (ends,
    n_parameters) arrays. ``fit`` computes them once per chain and
    saves them with the chain's binary copy. Raises ValueError unless
    the draws are 2-D with one column per name, and the moments, if
    any, hold one row per end and one column per name.
    """

    chain_index: int
    draws: np.ndarray
    parameter_names: tuple[str, ...]
    accept_rate: float = math.nan
    seed_used: int = -1
    proposal_log_scale: float = math.nan
    nonfinite_rejections: int = -1
    adapt_accept_rate: float = math.nan
    independence_accept_rate: float = math.nan
    density_evaluations: int = -1
    trace_moments: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        shape = np.shape(self.draws)
        names = len(self.parameter_names)
        if len(shape) != 2 or shape[1] != names:
            raise ValueError(
                f"draws of shape {shape} are not one column for each of "
                f"{names} parameters"
            )
        if self.trace_moments is not None:
            ends, means, squares = self.trace_moments
            rows = (len(ends), names)
            if np.shape(means) != rows or np.shape(squares) != rows:
                raise ValueError(
                    f"trace moments of shapes {np.shape(means)} and "
                    f"{np.shape(squares)} are not {rows}"
                )

    @property
    def n_samples(self) -> int:
        return self.draws.shape[0]


@dataclass(frozen=True)
class PosteriorSummary:
    """One parameter's posterior summary (pooled across chains).

    ``ci_low``/``ci_high`` bound the central 95% credible interval;
    ``p_below``/``p_above`` are P(param < 0) and P(param > 0) with
    strict inequalities. ``r_hat`` is NaN when only one chain was run.
    """

    name: str
    median: float
    ci_low: float
    ci_high: float
    p_below: float
    p_above: float
    r_hat: float


def _chain_rng(seed: int, chain_index: int) -> tuple[np.random.Generator, int]:
    """Chain ``chain_index``'s stream, spawned from ``seed``, and the key
    derived from it that ``ChainOutput.seed_used`` records."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,))
    derived = int(seq.generate_state(1, dtype=np.uint64)[0])
    return np.random.default_rng(seq), derived


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
# The collapsed density of log(tau), its grid and the Laplace approximation
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


class _Cells:
    """q_grid's arrays per node, with stand-ins m_n = 0, L_n = I where w_n = 0."""

    def __init__(self, grid: TauGrid):
        size, k = grid.means.shape
        keep = grid.weights > 0.0
        lower = np.where(keep[:, None, None], grid.factors, np.eye(k))
        self.means = np.where(keep[:, None], grid.means, 0.0)
        upper = np.ascontiguousarray(lower.transpose(0, 2, 1))  # L_n'
        self.roots = np.linalg.inv(upper)  # L_n^-T
        # L_n' (c - m_n) = [L_n' 0] x - L_n' m_n for a state x = (c, u).
        self.rows = np.concatenate([upper, np.zeros((size, k, 1))], axis=2)
        self.shifts = np.matmul(upper, self.means[:, :, None])[:, :, 0]
        # log(w_n / h) + log det L_n - k/2 log(2 pi), -inf where w_n = 0.
        with np.errstate(divide="ignore"):
            log_weights = np.log(grid.weights)
        log_det = np.log(np.diagonal(lower, axis1=1, axis2=2)).sum(axis=1)
        self.consts = (
            log_weights - math.log(grid.spacing) + log_det
            - 0.5 * k * math.log(2.0 * math.pi)
        )
        self.const_list = self.consts.tolist()
        self.origin = float(grid.nodes[0])


@dataclass(frozen=True, eq=False)
class TauGrid:
    """The collapsed posterior on evenly spaced nodes u of log(tau).

    ``nodes`` holds the nodes u_n and ``log_density`` f at each, -inf
    where f is not finite. ``weights`` are exp(f_n - max f) normalised
    to sum to 1, so 0 where f is -inf. ``means`` holds the mean m_n of
    c | tau, y at each node and ``factors`` the lower Cholesky factor
    L_n of its precision Lambda_n, both NaN where f is -inf.

    ``draw`` draws from q_grid: node n by inverse CDF on ``cdf``, the
    cumulative weights scaled to end at 1, u uniform on its cell
    [u_n - h/2, u_n + h/2) and c = m_n + L_n^-T z. ``log_pdf`` is
    log q_grid in the cell of node floor((u - u_0) / h + 1/2), and -inf
    outside the cells. Where w_n = 0 both use the finite stand-ins
    m_n = 0 and L_n = I: no draw lands there, and the density is 0 by
    its weight. A ``dataclasses.replace`` copy derives its own arrays.
    """

    nodes: np.ndarray
    log_density: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    factors: np.ndarray

    @cached_property
    def spacing(self) -> float:
        """The spacing h of the nodes."""
        return float((self.nodes[-1] - self.nodes[0]) / (self.nodes.size - 1))

    @cached_property
    def cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.weights)
        return cdf / cdf[-1]

    _cells = cached_property(_Cells)

    def draw(
        self, normals: np.ndarray, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """A state (c, u) per row of the (rows, k) ``normals`` z, node and
        place picked by the (2, rows) ``uniforms``, and the log q_grid of
        each, read off z since L_n' (c - m_n) = z."""
        cells = self._cells
        n = np.searchsorted(self.cdf, uniforms[0], side="right")
        states = np.empty((normals.shape[0], normals.shape[1] + 1))
        states[:, -1] = self.nodes[n] + self.spacing * (uniforms[1] - 0.5)
        np.add(
            cells.means[n], np.matmul(cells.roots[n], normals[:, :, None])[:, :, 0],
            out=states[:, :-1],
        )
        return states, cells.consts[n] - 0.5 * np.add.reduce(normals * normals, axis=1)

    def log_pdf(self, state: np.ndarray) -> float:
        """log q_grid of one state, -inf outside the cells."""
        cells = self._cells
        at = (float(state[-1]) - cells.origin) / self.spacing + 0.5
        if not 0.0 <= at < self.nodes.size:
            return -math.inf
        n = int(at)
        v = np.dot(cells.rows[n], state) - cells.shifts[n]
        return cells.const_list[n] - 0.5 * float(np.dot(v, v))

    def log_pdf_rows(self, states: np.ndarray) -> np.ndarray:
        """``log_pdf`` of each row of ``states``."""
        cells = self._cells
        at = (states[:, -1] - cells.origin) / self.spacing + 0.5
        inside = (0.0 <= at) & (at < self.nodes.size)
        n = np.where(inside, at, 0.0).astype(np.intp)
        v = np.matmul(cells.rows[n], states[:, :, None])[:, :, 0] - cells.shifts[n]
        log_grid = cells.consts[n] - 0.5 * np.add.reduce(v * v, axis=1)
        return np.where(inside, log_grid, -math.inf)


def _tau_grid(collapsed: _Collapsed, prior: PriorSpec) -> TauGrid:
    """Nodes u over the bulk of f, with f, its normalised weights and the
    moments of c | tau, y at each.

    A scan of SCAN_NODES nodes over (log tau_upper - LOG_TAU_SPAN,
    log tau_upper) brackets the nodes where f > max f - TAIL_DROP,
    widened by one scan node on each side within the scan; the grid has
    GRID_NODES evenly spaced nodes over that bracket. While the scan's
    best node is its lowest, or f is finite on none of its nodes, the
    scan extends down by another span of as many nodes, until its lowest
    tau^2 would fall below the smallest normal float.
    """
    top = math.log(prior.tau_upper)
    floor = 0.5 * math.log(sys.float_info.min)
    scan = np.linspace(top - LOG_TAU_SPAN, top, SCAN_NODES)
    values = collapsed.moments(scan)[0]
    while values.argmax() == 0 and scan[0] - LOG_TAU_SPAN > floor:
        below = np.linspace(scan[0] - LOG_TAU_SPAN, scan[0], SCAN_NODES)[:-1]
        scan = np.concatenate([below, scan])
        values = np.concatenate([collapsed.moments(below)[0], values])
    peak = values.max()
    if peak == -math.inf:
        raise SamplerError(
            "the collapsed posterior of tau is not finite anywhere on "
            f"({scan[0]:.4g}, {top:.4g}) in log(tau)"
        )
    bulk = np.flatnonzero(values > peak - TAIL_DROP)
    lo, hi = max(bulk[0] - 1, 0), min(bulk[-1] + 1, scan.size - 1)
    nodes = np.linspace(scan[lo], scan[hi], GRID_NODES)
    values, means, factors = collapsed.moments(nodes)
    weights = np.exp(values - values.max())
    return TauGrid(nodes, values, weights / weights.sum(), means, factors)


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
    coefficient given tau at the mode. ``grid`` is the tau grid the
    approximation is read off, from which the independence proposals
    are drawn.
    """

    mean: np.ndarray
    factor: np.ndarray
    tau_mode: float
    log_tau_sd: float
    condition_number: float
    conditional_sd: np.ndarray
    grid: TauGrid


def precondition(assembled: AssembledDataset, prior: PriorSpec) -> Preconditioner:
    """The Laplace approximation with its tau grid, from the assembled
    arrays and the prior alone, read off ``_tau_grid``.

    Where f is finite at the best node's two neighbours, the parabola
    through the three gives the mode u (its vertex) and f'' (its
    curvature), and g is the slope at u of the parabola through the
    three conditional means. At an edge mode, where the best node ends
    the grid or neighbours a node where f is not finite, u is that node,
    s is 1 and g is zero. Lambda(u)^-1 and the centre are taken at u.
    """
    collapsed = _Collapsed(assembled, prior)
    grid = _tau_grid(collapsed, prior)
    nodes, values, means = grid.nodes, grid.log_density, grid.means
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
        grid=grid,
    )
