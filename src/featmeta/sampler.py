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
invariant leaves it invariant too (Tierney 1994). Each chain starts at
a draw of the approximation. Every INDEPENDENCE_PERIOD-th iteration is
an independence step: each chain proposes mu + R z sqrt(nu / g), with
z standard normal, g a chi^2_nu draw and nu = INDEPENDENCE_DOF, whatever
its state. That is a draw of the multivariate t with centre mu and
scale R R', and the chain accepts it with the ratio that corrects for
the t density. An independence sampler is uniformly ergodic only when
pi / q is bounded (Mengersen & Tweedie 1996); the t's polynomial tails
keep the ratio bounded where the Gaussian's would be too light. The
approximation is close to the posterior on well-identified data, so
these steps are accepted often, and each accepted one is about a fresh
draw.

The other iterations are random-walk steps: each chain proposes
x + s R z, with z standard normal and one scale s = exp(l) per chain,
whose log l starts at log(2.38/sqrt(dim)) (Roberts & Rosenthal 2001).
They keep a chain sound where the approximation is poor, such as a mode
on the edge of tau's bracket. They use delayed acceptance (Christen &
Fox 2005; Banterle, Grazian, Lee & Robert 2019): the Gaussian
approximation q = N(mu, R R') screens each proposal before the
posterior sees it. With w = R^-1 (x - mu), the screen
r1 = log q(x') - log q(x) = -(s w.z + s^2 |z|^2 / 2) costs a dot
product; the log posterior is evaluated only if log u < min(0, r1),
and the proposal is accepted iff
log u < min(0, r1) + min(0, log pi(x') - log pi(x) - r1). One uniform
serves both stages, since the second test implies the first. The
kernel is reversible with respect to the posterior whatever q is: q
sets how often a proposal is evaluated and accepted, never the target.
During a dedicated adaptation phase each random-walk step moves l
toward a TARGET_ACCEPT acceptance rate by a Robbins-Monro update on its
acceptance indicator, 0 for a proposal the screen turns away (Andrieu &
Thoms 2008); then l is frozen. The target sits below the usual 0.234:
a proposal the screen turns away costs almost nothing, which lowers the
best acceptance of a delayed-acceptance random walk (Sherlock, Thiery &
Golightly 2021), and the independence steps carry the mixing.

Every chain draws from its own random stream, a block of iterations at
a time: the block's normals, then its uniforms, then one chi^2_nu draw
per iteration. Each chain steps on its own through the iterations whose
proposals the screen turns away, which leave its state in place, and
one batched evaluation per round carries the next screened-in proposal
of every chain. Independence proposals do not depend on the state, so
the chains draw their next blocks together once all have used up their
current ones, and the independence proposals of those blocks are
evaluated in batches then. Each chain turns its blocks of normals into
proposal directions with its own fixed-shape product by R'; every
design product, and every product by R^-1 that whitens a state, keeps
each chain in a fixed lane of fixed-shape blocks. So its draws do not
depend on which chains run with it.

numpy does the work whose size grows with the data: the design product
and the density's (chains, observations) arithmetic, in buffers
allocated once. Per-chain scalars (log posteriors, scales, acceptance,
counters) are Python floats and ints, since a numpy call on a handful
of values costs more than the arithmetic; each is formed with the same
IEEE operations in the same order, so the draws are those of an
all-numpy loop bit for bit. The scales are taken with math.exp and the
t density's terms with math.log1p.
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

TARGET_ACCEPT = 0.1  # acceptance rate the adaptation steers each scale to
INIT_RETRIES = 100
LOG_TAU_SPAN = 30.0  # f is scanned on (log tau_upper - span, log tau_upper)
SCAN_NODES = 61  # nodes of that scan
TAIL_DROP = 40.0  # the tau grid spans the scan where f > max f - this
GRID_NODES = 151  # nodes of the tau grid
COLLAPSED_BYTES = 1 << 20  # largest temporary of the collapsed density
WEAK_SD_FRACTION = 0.5  # conditional sd above this share of coeff_sd: weak
LANES = 4  # rows of one padded product (see _LaneProduct)
DRAW_BLOCK_VALUES = 8192  # random normals taken from a chain's stream at once
INDEPENDENCE_PERIOD = 4  # every this many iterations, an independence step
INDEPENDENCE_DOF = 5  # degrees of freedom of the independence proposals
BATCH_BYTES = 1 << 16  # largest buffer of a batch of independence proposals


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

    ``chain_index`` is the chain's index k, which with the run's seed
    fixes its stream.
    ``draws`` has shape (samples, n_parameters), in canonical order
    (intercept, beta, gamma, phi, eta, tau) with tau on its natural
    scale.
    ``parameter_names`` names the columns of ``draws``.
    ``accept_rate`` is the acceptance rate over the retained
    iterations, both kinds of step.
    ``seed_used`` is the derived stream key recorded for reruns.
    ``proposal_log_scale`` is the log-scale l of the random-walk steps
    once adaptation ends.
    ``nonfinite_rejections`` counts the evaluated proposals rejected
    because their log posterior was not finite (NaN or infinite) inside
    the prior's support, so never one the screen turned away, and is -1
    where unknown.
    ``adapt_accept_rate`` is the acceptance rate of the screened kernel
    over the adaptation phase, both kinds of step, and is NaN where
    unknown or with no adaptation.
    ``independence_accept_rate`` is the acceptance rate of the
    independence steps of the sampling phase alone, which is low where
    the Laplace approximation is poor, and is NaN where unknown or where
    the phase has none.
    ``density_evaluations`` counts the log-posterior evaluations after
    adaptation, independence steps included, and is -1 where unknown.
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
    density_evaluations: int = -1

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
# Streams and the batched log posterior
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


class _IndependenceBatch:
    """The log posterior, w = R^-1 (x' - mu) and |w|^2 of the independence
    proposals x' = mu + d of a set of chains, for increments d, up to
    ``steps`` of each at a time.

    They do not depend on the chains' states, so a block's are evaluated
    together when it is drawn: the log posteriors in batches whose
    buffers hold at most about BATCH_BYTES, the ws in one product. In
    every product each chain keeps its lane of the padded blocks, so
    each value is bit-identical to that of the chain's row in an
    evaluation of one state per chain.
    """

    def __init__(
        self,
        assembled: AssembledDataset,
        prior: PriorSpec,
        chains: Sequence[int],
        mean: np.ndarray,
        inverse: np.ndarray,
        steps: int,
    ):
        n_obs = assembled.stacked_y.shape[0]
        per_batch = max(1, BATCH_BYTES // (8 * n_obs * len(chains)))  # steps
        steps = -(-steps // per_batch) * per_batch  # whole batches

        def lanes(n_steps: int) -> list[int]:
            # Chain k of step i is chain k + stride * i, in chain k's lane.
            stride = LANES * (max(chains) // LANES + 1)
            return [k + stride * i for i in range(n_steps) for k in chains]

        self.log_post = _LogPosterior(assembled, prior, lanes(per_batch))
        self.whiten = _LaneProduct(inverse, lanes(steps))
        self.mean = mean
        self.proposals = np.tile(mean, (steps, len(chains), 1))
        self.rows = per_batch * len(chains)

    def __call__(self, increments: np.ndarray):
        """For (chains, steps, dim) ``increments``, the log posteriors and
        |w|^2 of mean + each, (steps, chains) arrays, and their ws, a
        (steps, chains, dim) array."""
        n_chains, n_steps, dim = increments.shape
        np.add(
            self.mean, increments.transpose(1, 0, 2),
            out=self.proposals[:n_steps],
        )
        flat = self.proposals.reshape(-1, dim)
        lps = []
        for lo in range(0, n_steps * n_chains, self.rows):
            rows = flat[lo : lo + self.rows]
            lps += self.log_post(rows[:, : dim - 1], rows[:, dim - 1])
        n = n_steps * n_chains
        ws = self.whiten(flat - self.mean)[:n].reshape(n_steps, n_chains, dim)
        lps = np.reshape(lps[:n], (n_steps, n_chains))
        return lps, ws, np.add.reduce(ws * ws, axis=2)


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
# Metropolis with one adapted scale per chain, a screen and independence
# steps
# ---------------------------------------------------------------------------


def _independence_term(w_sq_new: float, w_sq: float, dim: int) -> float:
    """log q(x) - log q(x') for the density q of the independence
    proposals, the multivariate t with centre mu, scale R R' and
    INDEPENDENCE_DOF degrees of freedom, from |w'|^2 and |w|^2 of
    w = R^-1 (x - mu)."""
    nu = INDEPENDENCE_DOF
    return 0.5 * (nu + dim) * (math.log1p(w_sq_new / nu) - math.log1p(w_sq / nu))


def run_chain(
    assembled: AssembledDataset,
    config: McmcConfig,
    prior: PriorSpec,
    chains: Sequence[int],
    preconditioner: Preconditioner | None = None,
) -> list[ChainOutput]:
    """Run the Metropolis chains ``chains``.

    Each chain starts at a draw mu + R z of the approximation, drawn
    again while its log posterior is not finite. On iteration ``it``
    with ``(it + 1) % INDEPENDENCE_PERIOD == 0`` each chain proposes
    mu + R z sqrt(nu / g), its block increment stretched by the
    iteration's chi^2_nu draw g and added to the approximation's mean;
    with w = R^-1 (x - mu) for its state x and w' for the proposal, the
    log acceptance ratio is log pi(x') - log pi(x) + (nu + dim) / 2
    (log1p(|w'|^2 / nu) - log1p(|w|^2 / nu)). On every other
    iteration each chain proposes its state plus its block increment
    times its scale s, screened: with r1 = -(s w.z + s^2 |z|^2 / 2), the
    log ratio of the approximation's density, the proposal is evaluated
    only if log u < min(0, r1), and accepted iff log u < min(0, r1) +
    min(0, log pi(x') - log pi(x) - r1). On the random-walk iterations
    among the first ``config.adapt``, the chain's log-scale moves by
    (10 + it)^-0.6 (a - TARGET_ACCEPT), with a 1 for an accepted
    proposal and 0 otherwise. The next ``config.burn_in`` iterations
    are discarded, and the rest are thinned into the draws.

    Chain k's output depends on (config.seed, k) alone, never on which
    other chains run with it: its start, proposals, chi^2_nu draws and
    acceptance uniforms come from its own stream, the proposals taken in
    blocks sized from the state dimension, mu and R depend on the data
    and the prior alone, the kernel of an iteration on its index alone,
    and every batched operation treats each chain's row on its own.
    ``preconditioner`` is ``precondition(assembled, prior)``, computed
    here when not given. tau is recorded on its natural scale. An
    evaluated proposal whose log posterior is not finite inside the
    prior's support is rejected and counted.
    """
    chains = list(chains)
    if not chains or len(set(chains)) != len(chains):
        raise ValueError(f"need distinct chain indices, got {chains}")
    n_chains = len(chains)
    n_coeff = assembled.n_coefficients
    dim = n_coeff + 1
    if preconditioner is None:
        preconditioner = precondition(assembled, prior)
    mean = preconditioner.mean
    factor_t = preconditioner.factor.T
    inverse = np.linalg.inv(preconditioner.factor)  # R^-1
    whiten = _LaneProduct(inverse, chains)
    log_post = _LogPosterior(assembled, prior, chains)
    streams = [_chain_rng(config.seed, k) for k in chains]
    rngs = [rng for rng, _ in streams]

    # Initial state: a draw of the approximation from each chain's own
    # stream. A chain whose start is not finite draws again, up to
    # INIT_RETRIES times.
    state = np.empty((n_chains, dim))
    current_lp = [math.nan] * n_chains
    retry = list(range(n_chains))
    with np.errstate(all="ignore"):
        for _ in range(INIT_RETRIES):
            for c in retry:
                z = rngs[c].standard_normal(dim)
                np.add(mean, z @ factor_t, out=state[c])
            lps = log_post(state[:, :n_coeff], state[:, n_coeff])
            for c in retry:
                current_lp[c] = lps[c]
            retry = [c for c in retry if not math.isfinite(current_lp[c])]
            if not retry:
                break
    if retry:
        raise SamplerError(
            f"chain(s) {[chains[c] for c in retry]}: no finite starting "
            f"point after {INIT_RETRIES} attempts"
        )
    offset = np.subtract(state, mean)
    w = whiten(offset).copy()  # R^-1 (x - mu) of each chain's state
    w_sq = np.add.reduce(w * w, axis=1).tolist()

    # One log-scale per chain, moved by Robbins-Monro toward the target
    # acceptance during the adapt phase, then frozen. A row per chain of
    # ``scale`` scales its pending proposal's increment.
    log_scale = [math.log(2.38 / math.sqrt(dim))] * n_chains
    scale = np.zeros((n_chains, 1))

    period = INDEPENDENCE_PERIOD
    block = max(1, DRAW_BLOCK_VALUES // dim)  # iterations per refill
    independence = _IndependenceBatch(
        assembled, prior, chains, mean, inverse, -(-block // period)
    )
    ahead = np.arange(1, period)  # a window's rows after its start
    normals = np.empty((n_chains, block, dim))
    increments = np.empty((n_chains, block, dim))  # normals @ R'
    uniforms = np.empty(block)
    gammas = np.empty((n_chains, block))  # chi^2_nu / 2 of each iteration
    squares = np.empty((block, dim))
    log_u = [[]] * n_chains  # of each iteration of each chain's block
    z_sq = [[]] * n_chains  # |z|^2, likewise
    # Of each independence proposal of the blocks: its log posterior, its
    # increment from mu, w, |w|^2, and the window that follows its
    # acceptance.
    independent = None
    proposal = np.empty((n_chains, dim))
    proposed = proposal[:, :n_coeff], proposal[:, n_coeff]
    # A window's normals, with w last: one product gives w.z and |w|^2.
    window_terms = np.empty((n_chains, period, dim))
    flat_normals = normals.reshape(-1, dim)
    flat_increments = increments.reshape(-1, dim)
    taken = np.empty((n_chains, dim))
    spans = np.empty((n_chains, period - 1), dtype=np.intp)
    origins = np.arange(0, n_chains * block, block)  # of the chains' blocks
    last = origins[:, None] + (block - 1)

    draws = np.empty((n_chains, config.samples, dim))
    adapt_accepted = [0] * n_chains
    accepted = [0] * n_chains
    independent_accepted = [0] * n_chains
    nonfinite = [0] * n_chains
    evaluations = [0] * n_chains
    adapt = config.adapt
    warm = adapt + config.burn_in
    thin = config.thin
    total_iters = warm + config.samples * thin

    # Each chain keeps its own next iteration, since a screened-out
    # proposal leaves its state in place; all draw their blocks together,
    # once every chain has used up its own. A chain keeps its state's w
    # and |w|^2 too, and a window of w.z for up to period - 1 iterations
    # from ``since`` on, within its block. Draws are written when the
    # state moves: ``recorded`` counts those written.
    its = [0] * n_chains
    end = 0  # the iteration after the blocks
    spots = [0] * n_chains  # block positions of the pending proposals
    at = np.zeros(n_chains, dtype=np.intp)  # their rows of flat_increments
    screens = [0.0] * n_chains  # their r1
    windows = [(0, [])] * n_chains  # (since, w.z per iteration)
    recorded = [0] * n_chains

    def draw_blocks(it: int) -> None:
        nonlocal end, independent
        for c, rng in enumerate(rngs):
            # A fixed-shape product per chain: one product over all
            # chains would round each chain's rows differently for each
            # count.
            rng.standard_normal(out=normals[c])
            rng.random(out=uniforms)
            rng.standard_gamma(0.5 * INDEPENDENCE_DOF, out=gammas[c])
            np.matmul(normals[c], factor_t, out=increments[c])
            log_u[c] = np.log(uniforms).tolist()
            z_sq[c] = np.add.reduce(
                np.multiply(normals[c], normals[c], out=squares), axis=1
            ).tolist()
        first = period - 1 - it % period  # the blocks' first independence step
        starts = np.arange(first, min(block, total_iters - it), period)
        # Multivariate t: R z stretched by sqrt(nu / chi^2_nu).
        stretch = np.sqrt(INDEPENDENCE_DOF / (2.0 * gammas[:, starts]))
        jumps = increments[:, starts] * stretch[:, :, None]
        lps, ws, ws_sq = independence(jumps)
        spans = np.minimum(starts[:, None] + ahead, block - 1)
        terms = normals[:, spans]  # (chains, steps, period - 1, dim)
        np.multiply(terms, ws.transpose(1, 0, 2)[:, :, None, :], out=terms)
        after = np.add.reduce(terms, axis=3).tolist()
        # The last window may end with the block.
        room = block - 1 - int(starts[-1]) if starts.size else period
        if room < period - 1:
            for windows_of_chain in after:
                windows_of_chain[-1] = windows_of_chain[-1][:room]
        independent = (lps.T.tolist(), jumps, ws, ws_sq.T.tolist(), after)
        end = it + block

    def record(c: int, it: int) -> None:
        # The state before iteration ``it`` is the draw of every sampling
        # iteration before it.
        done = max(0, it - warm) // thin
        if done > recorded[c]:
            draws[c, recorded[c] : done] = state[c]
            recorded[c] = done

    def independence_step(c: int, it: int, j: int) -> None:
        lps, jumps, ws, ws_sq, after = independent
        k = j // period
        lp = lps[c][k]
        ratio = lp - current_lp[c]
        ratio += _independence_term(ws_sq[c][k], w_sq[c], dim)
        if it >= adapt:
            evaluations[c] += 1
        # A NaN ratio fails this test, so its proposal is rejected; it is
        # counted.
        if log_u[c][j] < ratio:
            record(c, it)
            np.add(mean, jumps[c, k], out=state[c])
            current_lp[c] = lp
            w[c] = ws[k, c]
            w_sq[c] = ws_sq[c][k]
            windows[c] = (it + 1, after[c][k])
            if it < adapt:
                adapt_accepted[c] += 1
            elif it >= warm:
                accepted[c] += 1
                independent_accepted[c] += 1
        elif ratio != ratio:
            nonfinite[c] += 1
        its[c] = it + 1

    with np.errstate(all="ignore"):
        while True:
            # Bring every chain to its next random-walk proposal that
            # passes the screen, or to the end of its block.
            stop = min(end, total_iters)
            for c in range(n_chains):
                it = its[c]
                lus, zs = log_u[c], z_sq[c]
                ls = log_scale[c]
                s = math.exp(ls)
                half_s_sq = 0.5 * s * s
                since, dots = windows[c]
                while it < stop:
                    j = it - end + block
                    if (it + 1) % period == 0:
                        independence_step(c, it, j)
                        since, dots = windows[c]
                        it += 1
                        continue
                    k = it - since
                    if not 0 <= k < len(dots):
                        since, k = it, 0
                        dots = np.add.reduce(
                            np.multiply(
                                normals[c, j : j + period - 1], w[c],
                                out=squares[: min(period - 1, block - j)],
                            ),
                            axis=1,
                        ).tolist()
                        windows[c] = (since, dots)
                    # The screen: log q(x') - log q(x), q the
                    # approximation. log u < 0, so the test is
                    # log u < min(0, r1).
                    r1 = -(s * dots[k] + half_s_sq * zs[j])
                    if lus[j] < r1:
                        screens[c] = r1
                        spots[c] = j
                        scale[c, 0] = s
                        break
                    if it < adapt:  # a screened-out proposal scores 0
                        ls += (10.0 + it) ** -0.6 * -TARGET_ACCEPT
                        s = math.exp(ls)
                        half_s_sq = 0.5 * s * s
                    it += 1
                its[c] = it
                log_scale[c] = ls
            pending = [c for c in range(n_chains) if its[c] < stop]
            if not pending:
                if stop == total_iters:
                    break
                draw_blocks(stop)
                continue

            np.add(origins, spots, out=at)
            picked = flat_increments.take(at, axis=0, out=taken, mode="clip")
            np.multiply(picked, scale, out=proposal)
            proposal += state
            lps = log_post(*proposed)
            # w, |w|^2 and the next window of each proposal, should it be
            # accepted.
            w_new = whiten(np.subtract(proposal, mean, out=offset))
            np.minimum(np.add(at[:, None], ahead, out=spans), last, out=spans)
            flat_normals.take(spans, axis=0, out=window_terms[:, :-1], mode="clip")
            window_terms[:, -1] = w_new
            np.multiply(window_terms, w_new[:, None, :], out=window_terms)
            after = np.add.reduce(window_terms, axis=2).tolist()
            for c in pending:
                it = its[c]
                j = spots[c]
                lp = lps[c]
                r1 = screens[c]
                r2 = lp - current_lp[c] - r1
                if it >= adapt:
                    evaluations[c] += 1
                # The test is log u < min(0, r1) + min(0, r2); a NaN r2
                # fails it, so its proposal is rejected, and is counted.
                move = log_u[c][j] < (r1 if r1 < 0.0 else 0.0) + (
                    0.0 if r2 >= 0.0 else r2
                )
                if move:
                    record(c, it)
                    if it < adapt:
                        adapt_accepted[c] += 1
                    elif it >= warm:
                        accepted[c] += 1
                    state[c] = proposal[c]
                    current_lp[c] = lp
                    w[c] = w_new[c]
                    w_sq[c] = after[c][-1]
                    # The window ends with the block.
                    windows[c] = (it + 1, after[c][: min(period, block - j) - 1])
                elif r2 != r2:
                    nonfinite[c] += 1
                if it < adapt:
                    log_scale[c] += (10.0 + it) ** -0.6 * (
                        (1.0 if move else 0.0) - TARGET_ACCEPT
                    )
                its[c] = it + 1

    for c in range(n_chains):
        record(c, total_iters)
    assert recorded == [config.samples] * n_chains
    np.exp(draws[:, :, n_coeff], out=draws[:, :, n_coeff])
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
            density_evaluations=evaluations[c],
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
