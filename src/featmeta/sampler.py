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
off (``featmeta.posterior``). q_t is the multivariate t with centre mu,
scale R R' and nu = INDEPENDENCE_DOF degrees of freedom:
mu + R z sqrt(nu / g), with z standard normal and g a chi^2_nu draw.
An independence sampler is uniformly ergodic only when pi / q is
bounded (Mengersen & Tweedie 1996). q_grid is 0 outside the grid and
flat in u within a cell, and the defensive t component, whose tails are
polynomial, keeps the ratio bounded (Hesterberg 1995). On
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
its block's independence proposals at once and evaluates them together,
with their log q_grid. It keeps log q of its state; a state a
random-walk step moved gets its log q when an independence step next
needs it. Each chain runs on its own, from its start to its output,
with its state in locals: it forms the screen's dot products from its
own normals and steps through the iterations whose proposals the screen
turns away, which leave its state in place. So its draws depend on the
run's seed and its index alone, never on which chains run with it.

Once adaptation has frozen s, a block also prefetches random-walk
proposals (Brockwell 2006; Angelino, Kohler, Waterland, Seltzer & Adams
2014). Most independence steps are accepted, and the state they move to
fixes the screen of the next few iterations. So for each independence
step the block finds the first of those iterations whose proposal would
pass the screen if the step were accepted, with the loop's own
operations, and evaluates that proposal, formed as the loop forms it,
with the independence proposals. The loop takes the prefetched values
where the step was accepted and that proposal is the first to pass the
screen since; every other proposal that passes it, in adaptation, after
a rejected step, after a first random-walk proposal, or in a window the
block's end cuts, is evaluated as it comes.

numpy does the work whose size grows with the data: the design product
and the density's per-observation arithmetic, in buffers allocated
once. Per-chain scalars (log posteriors, scales, acceptance, counters)
are Python floats and ints, since a numpy call on a handful of values
costs more than the arithmetic; each is formed with the same IEEE
operations in the same order as an all-numpy loop. The scales are taken
with math.exp and the mixture's terms with math.log1p and math.exp.
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
    ChainOutput,
    Preconditioner,
    PriorSpec,
    SamplerError,
    _chain_rng,
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
DRAW_BLOCK_VALUES = 8192  # random normals taken from a chain's stream at once
INDEPENDENCE_PERIOD = 4  # every this many iterations, an independence step
INDEPENDENCE_DOF = 5  # degrees of freedom of the t component
DEFENSIVE_WEIGHT = 1 / 16  # weight of the t component of the proposals
BATCH_BYTES = 1 << 16  # bytes of a chunk buffer of independence proposals
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


# ---------------------------------------------------------------------------
# The log posterior
# ---------------------------------------------------------------------------


class _Evaluator:
    """The log posterior and w = R^-1 (x - mu) of sampler states.

    A call takes one state, the coefficients then log(tau), and returns
    its log posterior: -inf where tau is outside the prior's support or
    some lam + tau^2 is 0, and NaN where the density is otherwise not
    finite inside the support. ``whiten`` returns the w of one state or
    of each row of an array. ``block`` returns the log posteriors of a
    block's independence proposals and of the random-walk proposals
    prefetched with them, in chunks of the fewest rows whose buffers
    hold BATCH_BYTES. The work over the observations runs in buffers
    allocated once; each state's few scalars are finished in Python,
    with the IEEE operations numpy would do, in the same order. A chunk
    holds one chain's proposals, so no chain's values depend on another
    chain.
    """

    def __init__(
        self,
        assembled: AssembledDataset,
        prior: PriorSpec,
        preconditioner: Preconditioner,
    ):
        n_obs = assembled.stacked_y.shape[0]
        self.n_coeff = n_coeff = assembled.n_coefficients
        self.log_density_const = assembled.log_density_const
        self.stacked_eigenvalues = assembled.stacked_eigenvalues
        self.tau_upper = prior.tau_upper
        # Normal and uniform normalizing constants of the prior.
        self.prior_const = -0.5 * n_coeff * math.log(
            2.0 * math.pi * prior.coeff_sd**2
        ) - math.log(prior.tau_upper)
        self.half_precision = 0.5 / prior.coeff_sd**2
        # c @ X~' on a contiguous X~' is twice as fast as X~ @ c for one
        # state; likewise (x - mu) @ R^-T.
        self.design_t = np.ascontiguousarray(assembled.stacked_design.T)
        self.mean = preconditioner.mean
        self.inverse_t = np.ascontiguousarray(np.linalg.inv(preconditioner.factor).T)
        # A row per state of a chunk: a ufunc runs slower when an operand
        # is broadcast along the rows. A chunk takes the fewest rows whose
        # buffers hold BATCH_BYTES: at 5,000 observations, one-row chunks
        # made the sampling about a fifth slower than two-row ones.
        self.rows = rows = -(-BATCH_BYTES // (8 * n_obs))
        self.y = np.tile(assembled.stacked_y, (rows, 1))
        self.eigenvalues = np.tile(assembled.stacked_eigenvalues, (rows, 1))
        self.product = np.empty((rows, n_obs))
        self.denom = np.empty((rows, n_obs))
        self.resid = np.empty((rows, n_obs))
        self.squares = np.empty((rows, n_coeff))
        # One state's 1-D buffers: row 0 of each.
        self.one = tuple(buffer[0] for buffer in (
            self.y, self.eigenvalues, self.product, self.denom, self.resid,
            self.squares,
        ))

    def _finish(self, s: float, q: float, lt: float, t: float) -> float:
        """The log posterior from the marginal sum s, |c|^2 q, log(tau)
        lt and tau t."""
        if not 0.0 < t < self.tau_upper:
            return -math.inf
        # lt is the Jacobian of the tau -> log(tau) reparameterization.
        lp = -0.5 * (self.log_density_const + s) - self.half_precision * q + (
            lt + self.prior_const
        )
        if not math.isfinite(lp):
            zero = _zero_denominator(self.stacked_eigenvalues, t * t)
            return -math.inf if zero else math.nan
        return lp

    def __call__(self, state: np.ndarray) -> float:
        # exp overflows to inf for log(tau) > 709, which lies outside the
        # support; the caller silences floating-point warnings.
        y, eigenvalues, product, denom, resid, squares = self.one
        coeffs = state[: self.n_coeff]
        lt = float(state[self.n_coeff])
        t = float(np.exp(lt))
        s = _marginal_sums(
            y, eigenvalues, np.matmul(coeffs, self.design_t, out=product),
            t * t, denom, resid,
        )
        q = np.add.reduce(np.multiply(coeffs, coeffs, out=squares))
        return self._finish(float(s), float(q), lt, t)

    def whiten(self, state: np.ndarray) -> np.ndarray:
        return np.subtract(state, self.mean) @ self.inverse_t

    def block(self, proposals: np.ndarray) -> list[float]:
        """The log posteriors of the rows of ``proposals``."""
        n, lps = self.n_coeff, []
        for lo in range(0, proposals.shape[0], self.rows):
            chunk = proposals[lo : lo + self.rows]
            m = chunk.shape[0]
            coeffs, log_tau = chunk[:, :n], chunk[:, n]
            tau = np.exp(log_tau)
            sums = _marginal_sums(
                self.y[:m], self.eigenvalues[:m],
                np.matmul(coeffs, self.design_t, out=self.product[:m]),
                (tau * tau)[:, None], self.denom[:m], self.resid[:m],
            )
            squares = np.multiply(coeffs, coeffs, out=self.squares[:m])
            lps += map(
                self._finish, sums.tolist(),
                np.add.reduce(squares, axis=1).tolist(), log_tau.tolist(),
                tau.tolist(),
            )
        return lps


# ---------------------------------------------------------------------------
# Metropolis with one adapted scale per chain, a screen and independence
# steps
# ---------------------------------------------------------------------------


class _IndependenceProposal:
    """The independence steps' q = (1 - eps) q_grid + eps q_t,
    eps = DEFENSIVE_WEIGHT, q_grid the grid's (``TauGrid``) and q_t the
    module docstring's; log q by numpy for a block (``log_q_block``) and
    by ``math`` for one state (``log_q``), which differ in rounding alone.
    """

    def __init__(self, preconditioner: Preconditioner):
        self.grid = preconditioner.grid
        self.mean = preconditioner.mean
        dim = self.mean.size
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
        """One proposal per row: the grid's draw from the first k entries
        of ``normals`` z and rows 1 and 2 of the (3, rows) uniforms
        ``choices``, or, where row 0 is below eps, mu + R z sqrt(nu / (2 g))
        from ``increments`` R z and ``gammas`` g, 2 g a chi^2_nu draw; and
        the log q_grid of each."""
        proposals, log_grid = self.grid.draw(normals[:, :-1], choices[1:])
        t = np.flatnonzero(choices[0] < DEFENSIVE_WEIGHT)
        proposals[t] = self.mean + increments[t] * np.sqrt(
            INDEPENDENCE_DOF / (2.0 * gammas[t])
        )[:, None]
        log_grid[t] = self.grid.log_pdf_rows(proposals[t])
        return proposals, log_grid

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


def run_chain(
    assembled: AssembledDataset,
    config: McmcConfig,
    prior: PriorSpec,
    chains: Sequence[int],
    preconditioner: Preconditioner | None = None,
) -> list[ChainOutput]:
    """Run the Metropolis chains ``chains``.

    Each chain starts at a draw mu + R z of the approximation, drawn
    again while its log posterior is not finite; every chain draws its
    start before any chain runs, so a chain that finds none stops the
    run before any work is spent on the others. On iteration ``it``
    with ``(it + 1) % INDEPENDENCE_PERIOD == 0`` each chain proposes a
    draw x' of q = (1 - eps) q_grid + eps q_t from its row of the block
    (``_IndependenceProposal.draw``). The log acceptance ratio is
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

    Then each chain runs on its own, from its start to its output, with
    its state in locals. Each move writes the new state into the draw it
    holds from on; the draws in between are filled in once, at the end.
    In each block that starts after adaptation, each independence
    proposal x' brings one random-walk proposal into the block's
    evaluation: that of the first iteration before the next
    independence step whose screen passes from x', with r1 formed by
    the loop's operations on the same values. Its log posterior, w and
    log q are used where the chain moved to x' and that iteration is the
    next to pass the screen; they agree with those the loop forms itself
    up to rounding, which has left every draw unchanged in every case
    measured. Unused ones are not counted.

    Chain k's output depends on (config.seed, k) alone, never on which
    other chains run with it: its start, proposals, chi^2_nu draws,
    mixture uniforms and acceptance uniforms come from its own stream,
    the proposals taken in blocks sized from the state dimension, mu, R
    and the tau grid depend on the data and the prior alone, and the
    kernel of an iteration on its index alone.
    ``preconditioner`` is ``precondition(assembled, prior)``, computed
    here when not given. tau is recorded on its natural scale.

    Each chain knows every statistic of ``ChainOutput``.
    ``accept_rate`` and ``adapt_accept_rate`` count both kinds of step,
    the latter for the screened kernel during adaptation (NaN with
    none); ``independence_accept_rate`` counts the sampling phase's
    independence steps alone, and is low where their proposals fit the
    posterior poorly. ``seed_used`` is the key ``_chain_rng`` derives;
    ``proposal_log_scale`` is l once adaptation ends.
    ``nonfinite_rejections`` counts evaluated proposals only, so never
    one the screen turned away. ``density_evaluations`` counts the
    independence steps too; a prefetched proposal counts only where its
    step uses it, so the count is that of an unprefetched run.
    """
    chains = list(chains)
    if not chains or len(set(chains)) != len(chains):
        raise ValueError(f"need distinct chain indices, got {chains}")
    n_coeff = assembled.n_coefficients
    dim = n_coeff + 1
    if preconditioner is None:
        preconditioner = precondition(assembled, prior)
    mean = preconditioner.mean
    factor_t = preconditioner.factor.T
    period = INDEPENDENCE_PERIOD
    block = max(1, DRAW_BLOCK_VALUES // dim)  # iterations per block
    ahead = np.arange(1, period)  # the rows after an independence step
    adapt = config.adapt
    warm = adapt + config.burn_in
    thin = config.thin
    total = warm + config.samples * thin
    # Independence steps of the sampling phase, iterations warm..total - 1.
    n_independent = total // period - warm // period
    # Scratch that each chain uses in turn.
    own, increments = np.empty((block, dim)), np.empty((block, dim))
    uniforms, gammas = np.empty(block), np.empty(block)
    choices = np.empty((3, block))
    squares = np.empty((block, dim))
    mixture = _IndependenceProposal(preconditioner)
    grid = preconditioner.grid
    log_q, log_grid_at = mixture.log_q, grid.log_pdf
    evaluate = _Evaluator(assembled, prior, preconditioner)

    def chain(k: int, rng: np.random.Generator, seed_used: int, start, lp):
        """Chain k's run on from ``start``, whose log posterior is lp."""
        # Each move writes its state to the draw it holds from on, and
        # marks that draw; draw 0 holds the state through the warm-up.
        # The draws in between repeat the marked one before them.
        draws = np.empty((config.samples, dim))
        marked = bytearray(config.samples)
        draws[0], marked[0] = start, 1
        # The state, with lp and w = R^-1 (x - mu) of it, and log q of
        # it, None until an independence step needs it.
        state, w, lq = draws[0], evaluate.whiten(start), None
        # One log-scale, moved by Robbins-Monro toward the target
        # acceptance during the adapt phase, then frozen.
        ls = math.log(2.38 / math.sqrt(dim))
        s = math.exp(ls)
        half_s_sq = 0.5 * s * s
        row = np.empty(dim)  # a random-walk proposal
        accepted = adapt_accepted = independent_accepted = 0
        nonfinite = evaluations = 0
        for first in range(0, total, block):
            rng.standard_normal(out=own)
            log_u = np.log(rng.random(out=uniforms))
            rng.standard_gamma(0.5 * INDEPENDENCE_DOF, out=gammas)
            rng.random(out=choices)
            # A product of one chain's fixed shape: one over all chains
            # would round each chain's rows differently for each count.
            np.matmul(own, factor_t, out=increments)
            z_sq = np.add.reduce(np.multiply(own, own, out=squares), axis=1)
            size = min(block, total - first)
            steps = np.arange(period - 1 - first % period, size, period)
            proposals, log_grid = mixture.draw(
                own[steps], increments[steps], gammas[steps], choices[:, steps]
            )
            ws = evaluate.whiten(proposals)
            # The random-walk iterations after each independence step, the
            # block's last standing in for those past its end, and the
            # dots of their normals with the step's w.
            later = steps[:, None] + ahead
            held = np.minimum(later, block - 1)
            terms = own[held]
            np.multiply(terms, ws[:, None, :], out=terms)
            dots_after = np.add.reduce(terms, axis=2)
            # Once s is frozen, the first of those iterations whose
            # proposal passes the screen if the step is accepted, found
            # by the loop's own operations, is known ahead: its proposal
            # s z + x, formed as the loop forms it, is evaluated with
            # the block. ``prefetched`` maps step i to that iteration
            # and the proposal's row.
            prefetched = {}
            if first >= adapt:
                r1 = -(s * dots_after + half_s_sq * z_sq[held])
                passes = (log_u[held] < r1) & (later < size)
                hit = np.flatnonzero(passes.any(axis=1))
                fetch_at = later[hit, passes[hit].argmax(axis=1)]
                fetched = np.multiply(increments[fetch_at], s)
                fetched += proposals[hit]
                prefetched = {
                    i: (j, steps.size + n)
                    for n, (i, j) in enumerate(zip(hit.tolist(), fetch_at.tolist()))
                }
                proposals = np.concatenate([proposals, fetched])
                ws = np.concatenate([ws, evaluate.whiten(fetched)])
                log_grid = np.concatenate([log_grid, grid.log_pdf_rows(fetched)])
            lps = evaluate.block(proposals)
            lq_news = mixture.log_q_block(log_grid, np.add.reduce(ws * ws, axis=1))
            log_u, z_sq, dots_after = log_u.tolist(), z_sq.tolist(), dots_after.tolist()
            # ``dots`` holds w.z for up to period - 1 iterations from
            # ``since`` on, formed anew where they run out; none outlives
            # its block. ``fetch`` is the iteration whose proposal from
            # the state is prefetched, in row ``fetched_row``, and -1
            # once a random-walk proposal is evaluated.
            since, dots, fetch, fetched_row = first, [], -1, 0
            for j in range(size):
                it = first + j
                if (it + 1) % period == 0:
                    i = j // period
                    lp_new, lq_new = lps[i], lq_news[i]
                    if lq is None:  # a random-walk step moved the state
                        lq = log_q(log_grid_at(state), np.add.reduce(w * w))
                    ratio = lp_new - lp + (lq - lq_new)
                    # A NaN ratio fails this test, so its proposal is
                    # rejected; it is counted.
                    move = log_u[j] < ratio
                    target, w_new, after = proposals[i], ws[i], dots_after[i]
                    if move:
                        fetch, fetched_row = prefetched.get(i, (-1, 0))
                        if it >= warm:
                            independent_accepted += 1
                else:
                    i = it - since
                    if not 0 <= i < len(dots):
                        since, i = it, 0
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
                    r1 = -(s * dots[i] + half_s_sq * z_sq[j])
                    evaluated = move = log_u[j] < r1
                    if evaluated:
                        # Only the first to pass since the state moved to
                        # an independence proposal can be prefetched.
                        from_block, fetch = j == fetch, -1
                        if from_block:
                            target = proposals[fetched_row]
                            lp_new = lps[fetched_row]
                        else:
                            np.multiply(increments[j], s, out=row)
                            row += state
                            target, lp_new = row, evaluate(row)
                        ratio = lp_new - lp - r1
                        # The test is log u < min(0, r1) + min(0, ratio);
                        # a NaN ratio fails it, so its proposal is
                        # rejected, and is counted.
                        move = log_u[j] < (r1 if r1 < 0.0 else 0.0) + (
                            0.0 if ratio >= 0.0 else ratio
                        )
                        # The next random-walk step forms its dots anew.
                        after = []
                        if move and from_block:
                            w_new, lq_new = ws[fetched_row], lq_news[fetched_row]
                        elif move:
                            w_new, lq_new = evaluate.whiten(row), None
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
            chain_index=k,
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

    with np.errstate(all="ignore"):
        starts, failed = [], []
        for k in chains:
            rng, seed_used = _chain_rng(config.seed, k)
            for _ in range(INIT_RETRIES):
                start = mean + rng.standard_normal(dim) @ factor_t
                lp = evaluate(start)
                if math.isfinite(lp):
                    break
            else:
                failed.append(k)
            starts.append((k, rng, seed_used, start, lp))
        if failed:
            raise SamplerError(
                f"chain(s) {failed}: no finite starting point after "
                f"{INIT_RETRIES} attempts"
            )
        return [chain(*args) for args in starts]


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

    One ``run_chain`` call runs the chains, each on its own. Each chain
    is reproducible from ``config.seed`` and its index alone. Warns about
    uncentered covariates and about weakly identified coefficients.
    """
    return _sample_posterior(dataset, config, prior)


def run_mcmc(
    dataset: Dataset,
    config: McmcConfig = McmcConfig(),
    prior: PriorSpec = PriorSpec(),
) -> list[ChainOutput]:
    """The chains of ``sample_posterior``."""
    return _sample_posterior(dataset, config, prior).chains


def _sample_posterior(
    dataset: Dataset, config: McmcConfig, prior: PriorSpec
) -> McmcRun:
    """Both entry points call this, so stacklevel=3 names their caller."""
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
