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

# Rows formatted per write in write_chain_tsv.
_BLOCK_ROWS = 1024
# Largest (params, chains, draws) stack built to compute shrink factors.
_STACK_BYTES = 2**20

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


def _draw_stack(
    draws: Sequence[np.ndarray], columns: slice = slice(None)
) -> np.ndarray:
    """Stack per-chain (draws, params) arrays as (params, chains, draws).

    Only the parameters in ``columns`` are stacked. Each parameter's
    draws lie contiguous along the last axis, so a reduction over draws
    sums the same values in the same order as a reduction over one
    chain's column copied on its own.
    """
    m = len(draws)
    if m < 2:
        raise ValueError("the shrink factor needs at least two chains")
    s = draws[0].shape[0]
    if s < 2 or any(d.shape != draws[0].shape for d in draws):
        raise ValueError("chains must have equal length >= 2")
    stack = np.empty((draws[0][:, columns].shape[1], m, s))
    for k, d in enumerate(draws):
        stack[:, k, :] = d[:, columns].T
    return stack


def _shrink_factors(stack: np.ndarray) -> np.ndarray:
    """Shrink factor of each parameter of a (params, chains, draws) stack.

    Uses the pooled-variance estimate with the between-chain sampling
    correction. A parameter with zero within-chain variance gets 1.0
    when the chains agree and inf when they do not.
    """
    m, s = stack.shape[1:]
    within = np.mean(np.var(stack, axis=2, ddof=1), axis=1)
    between = s * np.var(np.mean(stack, axis=2), axis=1, ddof=1)
    pooled = (s - 1) / s * within + between / s + between / (m * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.sqrt(pooled / within)
    flat = within == 0.0
    factors[flat] = np.where(pooled[flat] <= 0.0, 1.0, math.inf)
    return factors


def gelman_rubin(chain_draws: Sequence[np.ndarray]) -> float:
    """Potential scale reduction factor for one scalar parameter.

    ``chain_draws`` holds each chain's draws (equal lengths, >= 2 draws,
    >= 2 chains). Uses the pooled-variance estimate with the
    between-chain sampling correction; identical chains give a value
    slightly below 1 (exactly sqrt((s-1)/s)).
    """
    columns = [np.asarray(c, dtype=float).reshape(-1, 1) for c in chain_draws]
    return float(_shrink_factors(_draw_stack(columns))[0])


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
    ends = np.unique(np.linspace(max(2, s // n_points), s, n_points).astype(int))
    return ends, _prefix_shrink_factors([c.draws for c in chains], ends)


def _prefix_shrink_factors(
    draws: Sequence[np.ndarray], ends: Sequence[int]
) -> np.ndarray:
    """Shrink factors of every parameter over each chain's first ``ends``
    draws, as an (ends, params) array."""
    n_params = draws[0].shape[1]
    values = np.empty((len(ends), n_params))
    # Parameters are stacked a group at a time. A larger stack, with the
    # deviations np.var takes of it, raised the peak resident memory of
    # a default four-chain fit of 150 trials by up to 4 MB.
    group = max(1, _STACK_BYTES // (len(draws) * draws[0].shape[0] * 8))
    for first in range(0, n_params, group):
        columns = slice(first, first + group)
        stack = _draw_stack(draws, columns)
        for i, end in enumerate(ends):
            values[i, columns] = _shrink_factors(stack[:, :, :end])
    return values


def summarize(chains: Sequence[ChainOutput]) -> list[PosteriorSummary]:
    """Per-parameter posterior summaries from one or more chains.

    Quantiles use linear interpolation on the pooled draws. With a
    single chain the shrink factor is undefined and reported as NaN.
    """
    if not chains:
        raise ValueError("no chains to summarize")
    names = chains[0].parameter_names
    if len(chains) >= 2:
        r_hats = _prefix_shrink_factors(
            [c.draws for c in chains], [chains[0].n_samples]
        )[0]
    else:
        r_hats = np.full(len(names), math.nan)
    pooled = np.vstack([c.draws for c in chains])
    out = []
    for j, (name, r_hat) in enumerate(zip(names, r_hats)):
        column = pooled[:, j]
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
    as -1). Cells are parsed with ``np.loadtxt``'s syntax; where many
    rows repeat the values of the row before (rejected proposals), each
    run of equal rows is parsed once. Blank lines hold no row. Raises
    ValueError when the header does not start with
    ``iteration``, a row has the wrong number of fields or a field is
    not a number (naming the file line, the header being line 1), or
    the iteration column is not 1..n.
    """
    if hasattr(source, "read"):
        return _read_chain(source, chain_index)
    with open(source) as stream:
        return _read_chain(stream, chain_index)


def _read_chain(stream: IO[str], chain_index: int) -> ChainOutput:
    first = stream.readline()
    if not first:
        raise ValueError("empty chain file")
    header = first.rstrip("\r\n").split("\t")
    if header[0] != "iteration":
        raise ValueError("chain file must start with an 'iteration' column")
    names = tuple(header[1:])
    width = len(names) + 1
    lines = stream.readlines()
    numbers = np.arange(2, len(lines) + 2)
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
    blank = [
        i for i in np.flatnonzero(lengths <= 2).tolist()
        if not lines[i].strip("\r\n")
    ]
    if blank:
        # np.loadtxt skips blank lines; they hold no row.
        numbers, lengths = np.delete(numbers, blank), np.delete(lengths, blank)
        lines = [line for line in lines if line.strip("\r\n")]
    repeats = _repeated_rows(lines, lengths)
    distinct = np.flatnonzero(~repeats)
    if len(distinct) < len(lines):
        rows = [lines[i] for i in distinct.tolist()]
    else:
        rows = lines
    table = _parse_rows(rows, numbers[distinct], width)
    if table.shape[1] != width:
        raise ValueError(
            f"rows have {table.shape[1]} fields, the header {width} "
            f"(from line {numbers[0]})"
        )
    wrong = np.flatnonzero(table[:, 0] != distinct + 1)
    if wrong.size:
        raise ValueError(
            f"iteration column is not 1..{len(lines)}: line "
            f"{numbers[distinct[wrong[0]]]} holds {table[wrong[0], 0]:g}"
        )
    if len(distinct) < len(lines):
        # Each row takes the values of the distinct row it repeats.
        table = table[np.cumsum(~repeats) - 1]
    return ChainOutput(
        chain_index=chain_index,
        draws=np.ascontiguousarray(table[:, 1:]),
        parameter_names=names,
        accept_rate=math.nan,
        seed_used=-1,
        proposal_log_scale=math.nan,
        nonfinite_rejections=-1,
    )


def _repeated_rows(lines: list[str], lengths: np.ndarray) -> np.ndarray:
    """Which rows repeat the text of the row before after its number.

    Only rows numbered canonically (``str(i)`` and a tab, for row i) are
    matched, so a repeat's number needs no parsing. Rows are compared
    only where their ``lengths``, less their numbers, agree with the row
    before, and not at all when fewer than a quarter do: then most agree
    by chance (as in independent or thinned draws), and comparing them
    would cost more than the parsing it saves. A row left unmatched is
    parsed, so the draws are the same either way.
    """
    n = len(lines)
    repeats = np.zeros(n, dtype=bool)
    iteration = np.arange(1, n + 1)
    digits = np.ones(n, dtype=np.intp)
    power = 10
    while power <= n:
        digits += iteration >= power
        power *= 10
    rest = lengths - digits
    candidates = np.flatnonzero(rest[1:] == rest[:-1]) + 1
    if 4 * len(candidates) < n:
        return repeats
    found = []
    tail = ""
    for i in candidates.tolist():
        if not found or found[-1] != i - 1:
            # Row i - 1 is not a repeat: take its values' text.
            head = f"{i}\t"
            before = lines[i - 1]
            if not before.startswith(head):
                continue
            tail = before[len(head):]
        # With the lengths equal, this is lines[i] == f"{i + 1}\t" + tail.
        line = lines[i]
        if line.endswith(tail) and line.startswith(f"{i + 1}\t"):
            found.append(i)
    repeats[found] = True
    return repeats


def _parse_rows(rows: list[str], numbers: np.ndarray, width: int) -> np.ndarray:
    """Parse tab-separated rows with one ``np.loadtxt`` call.

    No rows give a (0, width) table. On failure the rows are checked one
    at a time, and the error names the file line (from ``numbers``) of
    the first row at fault.
    """
    if not rows:
        return np.empty((0, width))
    try:
        return np.loadtxt(rows, delimiter="\t", comments=None, ndmin=2)
    except ValueError as error:
        raise _row_error(rows, numbers) or error from None


def _row_error(rows: list[str], numbers: np.ndarray) -> ValueError | None:
    fields = rows[0].count("\t") + 1
    for row, number in zip(rows, numbers.tolist()):
        count = row.count("\t") + 1
        if count != fields:
            return ValueError(
                f"the number of columns changed from {fields} to {count} "
                f"at line {number}"
            )
        try:
            np.loadtxt([row], delimiter="\t", comments=None, ndmin=2)
        except ValueError as error:
            message = str(error)
            located = message.replace("at row 0,", f"at line {number},")
            return ValueError(
                located if located != message else f"line {number}: {message}"
            )
    return None


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

    Values use shortest round-trip formatting (``repr``), so rereading
    reproduces the draws bit for bit. Rows are formatted a block at a
    time, which bounds the temporary objects to one block's worth. A row
    whose bits equal those of the row before (a rejected proposal; -0.0
    and 0.0, or NaNs with different payloads, differ) reuses that row's
    formatted values, so each distinct row is formatted once. A block
    without such a repeat is formatted in one call.
    """
    draws = np.asarray(chain.draws, dtype=float)
    n, k = draws.shape
    bits = draws.view(np.int64)
    repeats = np.zeros(n, dtype=bool)
    repeats[1:] = np.all(bits[1:] == bits[:-1], axis=1)
    # The iteration number shares the float block; %d prints it whole.
    row = "%d" + "\t%r" * k + "\n"
    values = "\t%r" * k + "\n"
    block = np.empty((min(n, _BLOCK_ROWS), k + 1))
    stream, owned = _open_for_write(dest)
    try:
        stream.write("\t".join(("iteration",) + tuple(chain.parameter_names)) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            fresh = ~repeats[start:stop]
            fresh[0] = True
            if fresh.all():
                part = block[: stop - start]
                part[:, 0] = np.arange(start + 1, stop + 1)
                part[:, 1:] = draws[start:stop]
                stream.write(row * (stop - start) % tuple(part.ravel().tolist()))
                continue
            # Format each distinct row's values once, then write every
            # row as its number and the text of the values it repeats.
            distinct = draws[start:stop][fresh]
            texts = values * len(distinct) % tuple(distinct.ravel().tolist())
            texts = texts.split("\n")
            cells = [None] * (2 * (stop - start))
            cells[0::2] = range(start + 1, stop + 1)
            cells[1::2] = [texts[i] for i in (np.cumsum(fresh) - 1).tolist()]
            stream.write("%d%s\n" * (stop - start) % tuple(cells))
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
