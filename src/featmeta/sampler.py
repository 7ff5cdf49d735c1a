"""Posterior sampling by Metropolis-Hastings chains.

The chains sample the posterior of ``featmeta.posterior`` in (c, u),
u = log tau, with its Jacobian, which keeps tau positive. They cycle
through two Metropolis-Hastings kernels, fixed by the iteration index;
a fixed cycle of kernels that each leave the posterior invariant leaves
it invariant too (Tierney 1994). Each chain starts at a draw of the
Laplace approximation N(mu, R R'). Every INDEPENDENCE_PERIOD-th
iteration is an independence step: each chain proposes a draw of the
mixture q = (1 - eps) q_grid + eps q_t, eps = DEFENSIVE_WEIGHT,
whatever its state, and accepts it with the ratio that corrects for q.
q_grid is the exact posterior on the tau grid the approximation is read
off (Rue, Martino & Chopin 2009): node n with probability w_n,
proportional to exp f(u_n), u uniform on the node's cell of width h,
and c from the conditional N(m_n, Lambda_n^-1) at the node. q_t is the
multivariate t with centre mu, scale R R' and nu = INDEPENDENCE_DOF
degrees of freedom: mu + R z sqrt(nu / g), with z standard normal and g
a chi^2_nu draw. An independence sampler is uniformly ergodic only when
pi / q is bounded (Mengersen & Tweedie 1996). q_grid is 0 outside the
grid and flat in u within a cell, and the defensive t component, whose
tails are polynomial, keeps the ratio bounded (Hesterberg 1995). On
well-identified data q_grid is close to the posterior, so these steps
are accepted almost always, and each accepted one is about a fresh
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
per iteration, then three uniforms per iteration that pick the
mixture's component, the node and the place in its cell. A chain builds
its block's independence proposals at once, and their log q_grid with
them: that of a grid proposal is read off its normals, since
L_n' (c - m_n) = z. It keeps log q of its state; a state a random-walk
step moved gets its log q when an independence step next needs it.
Each chain's whole run is one sequential generator, its state in
locals. It forms the screen's dot products from its own normals, steps
on its own through the iterations whose proposals the screen turns
away, which leave its state in place, and pauses at the next proposal
that passes the screen; a short driver evaluates the pending proposals
of all chains in one batched call per round and resumes each with its
result. Independence proposals do not depend on the state, so a chain
that has used up its block draws the next one and pauses too; once
every chain has, the driver evaluates the independence proposals of the
new blocks in batches. Each chain turns its blocks of normals into
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
mixture's terms with math.log1p and math.exp.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .posterior import (
    AssembledDataset,
    Preconditioner,
    PriorSpec,
    SamplerError,
    _marginal_sums,
    _zero_denominator,
    assemble,
    precondition,
)

__all__ = [
    "McmcConfig",
    "ChainOutput",
    "McmcRun",
    "run_chain",
    "sample_posterior",
    "run_mcmc",
]

TARGET_ACCEPT = 0.1  # acceptance rate the adaptation steers each scale to
INIT_RETRIES = 100
WEAK_SD_FRACTION = 0.5  # conditional sd above this share of coeff_sd: weak
LANES = 4  # rows of one padded product (see _LaneProduct)
DRAW_BLOCK_VALUES = 8192  # random normals taken from a chain's stream at once
INDEPENDENCE_PERIOD = 4  # every this many iterations, an independence step
INDEPENDENCE_DOF = 5  # degrees of freedom of the t component
DEFENSIVE_WEIGHT = 1 / 16  # weight of the t component of the proposals
BATCH_BYTES = 1 << 16  # largest buffer of a batch of independence proposals
FILL_ROWS = 2048  # rows of draws filled in at a time at the end of a chain


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
    their proposals fit the posterior poorly, and is NaN where unknown
    or where the phase has none.
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
    proposals x' of a set of chains, up to ``steps`` of each at a time.

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

    def __call__(self, proposals: np.ndarray):
        """For (chains, steps, dim) ``proposals``, their log posteriors
        and |w|^2, (steps, chains) arrays, and their ws, a (steps, chains,
        dim) array."""
        n_chains, n_steps, dim = proposals.shape
        self.proposals[:n_steps] = proposals.transpose(1, 0, 2)
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
# Metropolis with one adapted scale per chain, a screen and independence
# steps
# ---------------------------------------------------------------------------


class _IndependenceProposal:
    """The proposal q = (1 - eps) q_grid + eps q_t of the independence
    steps, eps = DEFENSIVE_WEIGHT, and its log density.

    q_grid draws from the tau grid of the approximation: node n with
    probability w_n, u uniform on its cell [u_n - h/2, u_n + h/2) and
    c = m_n + L_n^-T z. Its density is w_n / h N(c; m_n, Lambda_n^-1) in
    the cell of node n and 0 outside the cells. q_t, the multivariate t
    with centre mu, scale R R' and nu = INDEPENDENCE_DOF degrees of
    freedom, keeps pi / q bounded (Hesterberg 1995). A block's proposals
    get their log q_grid from their normals and their log q by numpy
    (``draw``, ``log_q_block``); a single state gets its log q_grid from
    its u and its log q by ``math`` (``log_grid_at``, ``log_q``). The
    two routes differ in rounding alone.
    """

    def __init__(self, preconditioner: Preconditioner):
        grid = preconditioner.grid
        self.mean = preconditioner.mean
        dim = self.mean.size
        k = dim - 1
        keep = grid.weights > 0.0
        cdf = np.cumsum(grid.weights)
        self.cdf = cdf / cdf[-1]  # ends at 1, so every draw finds a node
        self.nodes, self.size = grid.nodes, grid.nodes.size
        self.origin, self.spacing = float(grid.nodes[0]), grid.spacing
        # Where the weight is 0, finite stand-ins for the NaN moments.
        lower = np.where(keep[:, None, None], grid.factors, np.eye(k))
        self.means = np.where(keep[:, None], grid.means, 0.0)
        upper = np.ascontiguousarray(lower.transpose(0, 2, 1))  # L_n'
        self.roots = np.linalg.inv(upper)  # L_n^-T
        # L_n' (c - m_n) = [L_n' 0] x - L_n' m_n for a state x = (c, u).
        self.upper = np.concatenate([upper, np.zeros((self.size, k, 1))], axis=2)
        self.shifts = np.matmul(upper, self.means[:, :, None])[:, :, 0]
        # log(w_n / h) + log det L_n - k/2 log(2 pi), -inf where w_n = 0.
        with np.errstate(divide="ignore"):
            log_weights = np.log(grid.weights)
        log_det = np.log(np.diagonal(lower, axis1=1, axis2=2)).sum(axis=1)
        self.consts = (
            log_weights - math.log(self.spacing) + log_det
            - 0.5 * k * math.log(2.0 * math.pi)
        )
        self.const_list = self.consts.tolist()
        nu = INDEPENDENCE_DOF
        self.half_nu_dim = 0.5 * (nu + dim)
        self.t_const = (
            math.lgamma(0.5 * (nu + dim)) - math.lgamma(0.5 * nu)
            - 0.5 * dim * math.log(nu * math.pi)
            - float(np.log(np.diagonal(preconditioner.factor)).sum())
        )
        self.log_grid_share = math.log1p(-DEFENSIVE_WEIGHT)
        self.log_t_share = math.log(DEFENSIVE_WEIGHT)

    def draw(
        self,
        normals: np.ndarray,
        increments: np.ndarray,
        gammas: np.ndarray,
        choices: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One proposal per row of ``normals`` z, ``increments`` R z and
        ``gammas`` g, with (3, rows) ``choices`` of uniforms: the
        component (q_t where below eps), the node and the place in the
        cell; and the log q_grid of each. A q_t proposal is
        mu + R z sqrt(nu / (2 g)), 2 g a chi^2_nu draw; a q_grid one
        takes c from the first k entries of z."""
        n = np.searchsorted(self.cdf, choices[1], side="right")
        proposals = np.empty_like(normals)
        proposals[:, -1] = self.nodes[n] + self.spacing * (choices[2] - 0.5)
        z = normals[:, :-1]
        np.add(
            self.means[n], np.matmul(self.roots[n], z[:, :, None])[:, :, 0],
            out=proposals[:, :-1],
        )
        # L_n' (c - m_n) is z itself.
        log_grid = self.consts[n] - 0.5 * np.add.reduce(z * z, axis=1)
        t = np.flatnonzero(choices[0] < DEFENSIVE_WEIGHT)
        proposals[t] = self.mean + increments[t] * np.sqrt(
            INDEPENDENCE_DOF / (2.0 * gammas[t])
        )[:, None]
        for row in t.tolist():
            log_grid[row] = self.log_grid_at(proposals[row])
        return proposals, log_grid

    def log_grid_at(self, state: np.ndarray) -> float:
        """log q_grid of a state, in the cell of node
        floor((u - u_0) / h + 1/2)."""
        at = (float(state[-1]) - self.origin) / self.spacing + 0.5
        if not 0.0 <= at < self.size:
            return -math.inf
        n = int(at)
        v = np.dot(self.upper[n], state) - self.shifts[n]
        return self.const_list[n] - 0.5 * float(np.dot(v, v))

    def log_q_block(self, log_grid: np.ndarray, w_sq: np.ndarray) -> list[float]:
        """``log_q`` of each entry of a block."""
        log_t = self.t_const - self.half_nu_dim * np.log1p(w_sq / INDEPENDENCE_DOF)
        return np.logaddexp(
            self.log_grid_share + log_grid, self.log_t_share + log_t
        ).tolist()

    def log_q(self, log_grid: float, w_sq: float) -> float:
        """log q from log q_grid and |w|^2 of w = R^-1 (x - mu)."""
        log_t = self.t_const - self.half_nu_dim * math.log1p(w_sq / INDEPENDENCE_DOF)
        a = self.log_grid_share + log_grid
        b = self.log_t_share + log_t
        if a < b:
            a, b = b, a
        if b == -math.inf:
            return a
        return a + math.log1p(math.exp(b - a))


def _fill_forward(rows: np.ndarray, marked: bytearray) -> None:
    """Set each row whose entry of ``marked`` is 0 to the last marked
    row before it, in place; row 0 is marked. Chunks of FILL_ROWS rows
    keep the temporary small."""
    marks = np.frombuffer(marked, dtype=np.bool_)
    source = np.where(marks, np.arange(marks.size), 0)
    np.maximum.accumulate(source, out=source)
    for lo in range(0, marks.size, FILL_ROWS):
        # Every source row lies before lo or is marked, so it is final.
        rows[lo : lo + FILL_ROWS] = rows[source[lo : lo + FILL_ROWS]]


def _resume(run, value):
    """Send ``value`` to a generator: what it yields next, or what it
    returns."""
    try:
        return run.send(value)
    except StopIteration as stop:
        return stop.value


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
    with ``(it + 1) % INDEPENDENCE_PERIOD == 0`` each chain proposes a
    draw x' of q = (1 - eps) q_grid + eps q_t (see
    ``_IndependenceProposal``): where the iteration's component uniform
    is below eps, mu + R z sqrt(nu / g), its block increment stretched
    by the iteration's chi^2_nu draw g; otherwise node n of the tau grid
    picked by the node uniform from the cumulative weights, u = u_n +
    h (v - 1/2) for the in-cell uniform v, and c = m_n + L_n^-T z from
    the first k normals of the row. The log acceptance ratio is
    log pi(x') - log pi(x) + log q(x) - log q(x'). On every other
    iteration each chain proposes its state plus its block increment
    times its scale s, screened: with r1 = -(s w.z + s^2 |z|^2 / 2), the
    log ratio of the approximation's density, the proposal is evaluated
    only if log u < min(0, r1), and accepted iff log u < min(0, r1) +
    min(0, log pi(x') - log pi(x) - r1). On the random-walk iterations
    among the first ``config.adapt``, the chain's log-scale moves by
    (10 + it)^-0.6 (a - TARGET_ACCEPT), with a 1 for an accepted
    proposal and 0 otherwise. The next ``config.burn_in`` iterations
    are discarded, and the rest are thinned into the draws.

    Each chain's whole run, from its start to its output, is one
    generator with its state in locals. It pauses where it needs the
    batched work of the driver below: the log posterior and w of its
    pending proposal, taken in one call per round for every chain that
    has one, or the log posteriors and ws of its new block's
    independence proposals, taken for every chain's block at once. Each
    move writes the new state into the draw it holds from on; the draws
    in between are filled in once, at the end.

    Chain k's output depends on (config.seed, k) alone, never on which
    other chains run with it: its start, proposals, chi^2_nu draws,
    mixture uniforms and acceptance uniforms come from its own stream,
    the proposals taken in blocks sized from the state dimension, mu, R
    and the tau grid depend on the data and the prior alone, the kernel
    of an iteration on its index alone, and every batched operation
    treats each chain's row on its own.
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
    period = INDEPENDENCE_PERIOD
    block = max(1, DRAW_BLOCK_VALUES // dim)  # iterations per block
    ahead = np.arange(1, period)  # the rows after an independence step
    adapt = config.adapt
    warm = adapt + config.burn_in
    thin = config.thin
    total = warm + config.samples * thin
    # Independence steps of the sampling phase, iterations warm..total - 1.
    n_independent = total // period - warm // period
    # Each chain's pending proposal, read by the driver's batched
    # products, and scratch that a chain uses up between two of its
    # yields.
    proposal = np.empty((n_chains, dim))
    uniforms, gammas = np.empty(block), np.empty(block)
    choices = np.empty((3, block))
    squares = np.empty((block, dim))
    mixture = _IndependenceProposal(preconditioner)
    log_q = mixture.log_q

    def chain(c: int, rng: np.random.Generator, seed_used: int):
        """Chain c's run. For its pending proposal, in ``proposal[c]``,
        it yields c and is sent the proposal's log posterior and w. With
        a new block drawn it yields the block's independence proposals,
        and is sent their log posteriors, ws and |w|^2. It returns its
        output, or None where it finds no finite start."""
        row = proposal[c]
        for _ in range(INIT_RETRIES):
            np.add(mean, rng.standard_normal(dim) @ factor_t, out=row)
            lp, w_new = yield c
            if math.isfinite(lp):
                break
        else:
            return None
        # Each move writes its state to the draw it holds from on, and
        # marks that draw; draw 0 holds the state through the warm-up.
        # The draws in between repeat the marked one before them.
        draws = np.empty((config.samples, dim))
        marked = bytearray(config.samples)
        draws[0], marked[0] = row, 1
        # The state, with lp and w = R^-1 (x - mu) of it, and log q of
        # it, None until an independence step needs it.
        state, w, lq = draws[0], w_new.copy(), None
        # One log-scale, moved by Robbins-Monro toward the target
        # acceptance during the adapt phase, then frozen.
        ls = math.log(2.38 / math.sqrt(dim))
        s = math.exp(ls)
        half_s_sq = 0.5 * s * s
        own, increments = np.empty((block, dim)), np.empty((block, dim))
        accepted = adapt_accepted = independent_accepted = 0
        nonfinite = evaluations = 0
        for first in range(0, total, block):
            rng.standard_normal(out=own)
            log_u = np.log(rng.random(out=uniforms)).tolist()
            rng.standard_gamma(0.5 * INDEPENDENCE_DOF, out=gammas)
            rng.random(out=choices)
            # A product of one chain's fixed shape: one over all chains
            # would round each chain's rows differently for each count.
            np.matmul(own, factor_t, out=increments)
            z_sq = np.add.reduce(np.multiply(own, own, out=squares), axis=1).tolist()
            size = min(block, total - first)
            steps = np.arange(period - 1 - first % period, size, period)
            targets, log_grid = mixture.draw(
                own[steps], increments[steps], gammas[steps], choices[:, steps]
            )
            # w may be a row of the last block's ws, overwritten next.
            w = w.copy()
            lps, ws, ws_sq = yield targets
            lq_news = mixture.log_q_block(log_grid, ws_sq)
            # The dots that follow each independence proposal.
            terms = own[np.minimum(steps[:, None] + ahead, block - 1)]
            np.multiply(terms, ws[:, None, :], out=terms)
            dots_after = np.add.reduce(terms, axis=2).tolist()
            # ``dots`` holds w.z for up to period - 1 iterations from
            # ``since`` on, formed anew where they run out; none outlives
            # its block.
            since, dots = first, []
            for j in range(size):
                it = first + j
                if (it + 1) % period == 0:
                    k = j // period
                    lp_new, lq_new = lps[k], lq_news[k]
                    if lq is None:  # a random-walk step moved the state
                        lq = log_q(mixture.log_grid_at(state), np.add.reduce(w * w))
                    ratio = lp_new - lp + (lq - lq_new)
                    # A NaN ratio fails this test, so its proposal is
                    # rejected; it is counted.
                    move = log_u[j] < ratio
                    target, w_new, after = targets[k], ws[k], dots_after[k]
                    if move and it >= warm:
                        independent_accepted += 1
                else:
                    k = it - since
                    if not 0 <= k < len(dots):
                        since, k = it, 0
                        dots = np.add.reduce(
                            np.multiply(
                                own[j : j + period - 1], w,
                                out=squares[: min(period - 1, block - j)],
                            ),
                            axis=1,
                        ).tolist()
                    # The screen: log q(x') - log q(x), q the
                    # approximation. log u < 0, so the test is
                    # log u < min(0, r1).
                    r1 = -(s * dots[k] + half_s_sq * z_sq[j])
                    evaluated = move = log_u[j] < r1
                    if evaluated:
                        np.multiply(increments[j], s, out=row)
                        row += state
                        lp_new, w_new = yield c
                        ratio = lp_new - lp - r1
                        # The test is log u < min(0, r1) + min(0, ratio);
                        # a NaN ratio fails it, so its proposal is
                        # rejected, and is counted.
                        move = log_u[j] < (r1 if r1 < 0.0 else 0.0) + (
                            0.0 if ratio >= 0.0 else ratio
                        )
                        # The next random-walk step forms its dots anew.
                        target, after, lq_new = row, [], None
                        if move:  # the driver overwrites w_new next round
                            w_new = w_new.copy()
                    if it < adapt:  # a screened-out proposal scores 0
                        ls += (10.0 + it) ** -0.6 * (
                            (1.0 if move else 0.0) - TARGET_ACCEPT
                        )
                        s = math.exp(ls)
                        half_s_sq = 0.5 * s * s
                    if not evaluated:
                        continue
                if it >= adapt:
                    evaluations += 1
                if move:
                    # The state before iteration it is the draw of every
                    # sampling iteration before it, so the new one is the
                    # draw of iteration it on.
                    at = (it - warm) // thin if it > warm else 0
                    draws[at], marked[at] = target, 1
                    state, w = draws[at], w_new
                    lp, lq = lp_new, lq_new
                    since, dots = it + 1, after
                    if it < adapt:
                        adapt_accepted += 1
                    elif it >= warm:
                        accepted += 1
                elif ratio != ratio:
                    nonfinite += 1
        _fill_forward(draws, marked)
        np.exp(draws[:, n_coeff], out=draws[:, n_coeff])
        return ChainOutput(
            chain_index=chains[c],
            draws=draws,
            parameter_names=assembled.parameter_names,
            accept_rate=accepted / (config.samples * thin),
            seed_used=seed_used,
            proposal_log_scale=ls,
            nonfinite_rejections=nonfinite,
            adapt_accept_rate=adapt_accepted / adapt if adapt else math.nan,
            independence_accept_rate=(
                independent_accepted / n_independent if n_independent
                else math.nan
            ),
            density_evaluations=evaluations,
        )

    # The driver: one batched evaluation per round carries the pending
    # proposal of every chain that has one, and once every chain has drawn
    # its next block, one batch carries their independence proposals.
    runs = [chain(c, *_chain_rng(config.seed, k)) for c, k in enumerate(chains)]
    log_post = _LogPosterior(assembled, prior, chains)
    whiten = _LaneProduct(inverse, chains)
    independence = _IndependenceBatch(
        assembled, prior, chains, mean, inverse, -(-block // period)
    )
    offset = np.empty((n_chains, dim))

    # What each chain waits for: the row of its pending proposal, its
    # block's independence increments, or nothing more (its output).
    with np.errstate(all="ignore"):
        requests = [_resume(run, None) for run in runs]
        while True:
            pending = [c for c, r in enumerate(requests) if type(r) is int]
            if pending:
                lps = log_post(proposal[:, :n_coeff], proposal[:, n_coeff])
                w_new = whiten(np.subtract(proposal, mean, out=offset))
                for c in pending:
                    requests[c] = _resume(runs[c], (lps[c], w_new[c]))
                failed = [chains[c] for c in pending if requests[c] is None]
                if failed:
                    raise SamplerError(
                        f"chain(s) {failed}: no finite starting point after "
                        f"{INIT_RETRIES} attempts"
                    )
            elif isinstance(requests[0], ChainOutput):
                return requests
            else:
                lps, ws, ws_sq = independence(np.stack(requests))
                for c, run in enumerate(runs):
                    requests[c] = _resume(
                        run, (lps[:, c].tolist(), ws[:, c], ws_sq[:, c])
                    )


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
