"""Convergence diagnostics and posterior summarization.

The potential scale reduction factor compares between-chain and
within-chain variability of each parameter; values near 1 indicate the
chains have mixed into the same distribution. Summaries are computed on
the draws pooled across chains: median, central 95% interval, and the
posterior probabilities of lying strictly below / strictly above zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .sampler import ChainOutput

__all__ = [
    "PosteriorSummary",
    "gelman_rubin",
    "shrink_factor_trace",
    "summarize",
    "mcse_mean",
    "effective_sample_size",
    "write_summary_tsv",
    "write_chain_tsv",
    "write_rhat_trace_tsv",
    "read_chain_tsv",
]

SUMMARY_COLUMNS = (
    "name",
    "median",
    "ci_low",
    "ci_high",
    "p_below",
    "p_above",
    "r_hat",
)


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


def gelman_rubin(chain_draws: Sequence[np.ndarray]) -> float:
    """Potential scale reduction factor for one scalar parameter.

    ``chain_draws`` holds each chain's draws (equal lengths, >= 2 draws,
    >= 2 chains). Uses the pooled-variance estimate with the
    between-chain sampling correction; identical chains give a value
    slightly below 1 (exactly sqrt((s-1)/s)).
    """
    arrays = [np.asarray(c, dtype=float).ravel() for c in chain_draws]
    m = len(arrays)
    if m < 2:
        raise ValueError("the shrink factor needs at least two chains")
    s = arrays[0].shape[0]
    if s < 2 or any(a.shape[0] != s for a in arrays):
        raise ValueError("chains must have equal length >= 2")
    stacked = np.stack(arrays)
    within = float(np.mean(np.var(stacked, axis=1, ddof=1)))
    between = s * float(np.var(np.mean(stacked, axis=1), ddof=1))
    pooled = (s - 1) / s * within + between / s + between / (m * s)
    if within == 0.0:
        return 1.0 if pooled <= 0.0 else math.inf
    return math.sqrt(pooled / within)


def shrink_factor_trace(
    chains: Sequence[ChainOutput], n_points: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink factor over growing draw prefixes, per parameter.

    Returns (iterations, values) where ``values[i, j]`` is the factor
    for parameter j using each chain's first ``iterations[i]`` draws.
    Useful for spotting runs whose apparent convergence is recent.
    """
    if len(chains) < 2:
        raise ValueError("the shrink factor needs at least two chains")
    s = chains[0].n_samples
    n_params = chains[0].draws.shape[1]
    ends = np.unique(np.linspace(max(2, s // n_points), s, n_points).astype(int))
    values = np.empty((ends.shape[0], n_params))
    for i, end in enumerate(ends):
        for j in range(n_params):
            values[i, j] = gelman_rubin([c.draws[:end, j] for c in chains])
    return ends, values


def summarize(chains: Sequence[ChainOutput]) -> list[PosteriorSummary]:
    """Per-parameter posterior summaries from one or more chains.

    Quantiles use linear interpolation on the pooled draws. With a
    single chain the shrink factor is undefined and reported as NaN.
    """
    if not chains:
        raise ValueError("no chains to summarize")
    names = chains[0].parameter_names
    pooled = np.vstack([c.draws for c in chains])
    out = []
    for j, name in enumerate(names):
        column = pooled[:, j]
        if len(chains) >= 2:
            r_hat = gelman_rubin([c.draws[:, j] for c in chains])
        else:
            r_hat = math.nan
        low, mid, high = np.quantile(column, [0.025, 0.5, 0.975])
        out.append(
            PosteriorSummary(
                name=name,
                median=float(mid),
                ci_low=float(low),
                ci_high=float(high),
                p_below=float(np.mean(column < 0.0)),
                p_above=float(np.mean(column > 0.0)),
                r_hat=float(r_hat),
            )
        )
    return out


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


# ---------------------------------------------------------------------------
# Tab-separated output
# ---------------------------------------------------------------------------


def _open_for_write(dest: str | Path | IO[str]):
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, "w"), True


def read_chain_tsv(
    source: str | Path | IO[str], chain_index: int = 0
) -> ChainOutput:
    """Read a chain TSV back into a ChainOutput.

    Only the draws and parameter names survive the round trip; the
    acceptance rate and proposal scale are not stored in the file and
    come back as NaN (and ``seed_used`` and ``nonfinite_rejections``
    as -1).
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty chain file")
    header = lines[0].split("\t")
    if not header or header[0] != "iteration":
        raise ValueError("chain file must start with an 'iteration' column")
    names = tuple(header[1:])
    draws = np.array(
        [[float(v) for v in ln.split("\t")[1:]] for ln in lines[1:]],
        dtype=float,
    ).reshape(len(lines) - 1, len(names))
    return ChainOutput(
        chain_index=chain_index,
        draws=draws,
        parameter_names=names,
        accept_rate=math.nan,
        seed_used=-1,
        proposal_log_scale=math.nan,
        nonfinite_rejections=-1,
    )


def write_summary_tsv(
    summaries: Sequence[PosteriorSummary], dest: str | Path | IO[str]
) -> None:
    """Write summaries as TSV with the canonical column order."""
    stream, owned = _open_for_write(dest)
    try:
        stream.write("\t".join(SUMMARY_COLUMNS) + "\n")
        for s in summaries:
            fields = [s.name] + [
                f"{getattr(s, c):.6g}" for c in SUMMARY_COLUMNS[1:]
            ]
            stream.write("\t".join(fields) + "\n")
    finally:
        if owned:
            stream.close()


def write_chain_tsv(chain: ChainOutput, dest: str | Path | IO[str]) -> None:
    """Write one chain's draws as TSV: iteration column, then parameters.

    Values use shortest round-trip formatting, so rereading reproduces
    the draws bit for bit.
    """
    stream, owned = _open_for_write(dest)
    try:
        stream.write("\t".join(("iteration",) + tuple(chain.parameter_names)) + "\n")
        for i, row in enumerate(chain.draws, start=1):
            stream.write(
                str(i) + "\t" + "\t".join(repr(float(v)) for v in row) + "\n"
            )
    finally:
        if owned:
            stream.close()


def write_rhat_trace_tsv(
    chains: Sequence[ChainOutput],
    dest: str | Path | IO[str],
    n_points: int = 20,
) -> None:
    """Write the per-parameter shrink-factor trace as TSV."""
    ends, values = shrink_factor_trace(chains, n_points=n_points)
    names = chains[0].parameter_names
    stream, owned = _open_for_write(dest)
    try:
        stream.write("\t".join(("iteration",) + tuple(names)) + "\n")
        for end, row in zip(ends, values):
            fields = [str(int(end))] + [f"{v:.6g}" for v in row]
            stream.write("\t".join(fields) + "\n")
    finally:
        if owned:
            stream.close()
