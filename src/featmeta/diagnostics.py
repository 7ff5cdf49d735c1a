"""Convergence diagnostics and posterior summarization.

The potential scale reduction factor compares between-chain and
within-chain variability of each parameter; values near 1 indicate the
chains have mixed into the same distribution. Summaries are computed on
the draws pooled across chains: median, central 95% interval, and the
posterior probabilities of lying strictly below / strictly above zero.

The writers and the reader take file paths. A chain TSV gets a binary
copy beside it (``.npz`` in place of the file's suffix) holding the
draws and the SHA-256 of the TSV's bytes. The TSV is normative: the
reader takes the draws from the copy only while that digest matches
the TSV, and parses the TSV in every other case.
"""

from __future__ import annotations

import io
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .sampler import ChainOutput

__all__ = [
    "PosteriorSummary",
    "shrink_factor_trace",
    "summarize",
    "write_summary_tsv",
    "write_chain_tsv",
    "write_rhat_trace_tsv",
    "read_chain_tsv",
]

# Default rows of a shrink-factor trace.
TRACE_POINTS = 20
# Rows formatted per write in write_chain_tsv.
_BLOCK_ROWS = 1024
# Bytes of a chain TSV hashed per read.
_HASH_BYTES = 1 << 16
# Largest (params, chains, draws) stack built to compute shrink factors;
# the buffer for its deviations is as large again.
_STACK_BYTES = 2**19

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


def _shrink_factors(
    means: np.ndarray, squares: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Shrink factors from each chain's mean and sum of squared deviations.

    ``means`` and ``squares`` hold one row of per-chain values (chains on
    the last axis) per factor, each over ``s`` draws; ``s`` broadcasts
    against the factors. Uses the pooled-variance estimate with the
    between-chain sampling correction. A parameter with zero
    within-chain variance gets 1.0 when the chains agree and inf when
    they do not.
    """
    m = means.shape[-1]
    within = np.mean(squares / (s - 1)[..., None], axis=-1)
    between = s * np.var(means, axis=-1, ddof=1)
    pooled = (s - 1) / s * within + between / s + between / (m * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.sqrt(pooled / within)
    flat = within == 0.0
    factors[flat] = np.where(pooled[flat] <= 0.0, 1.0, math.inf)
    return factors


def shrink_factor_trace(
    chains: Sequence[ChainOutput], n_points: int = TRACE_POINTS
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink factor over growing draw prefixes, per parameter.

    Returns (iterations, values) where ``values[i, j]`` is the factor
    for parameter j using each chain's first ``iterations[i]`` draws.
    Useful for spotting runs whose apparent convergence is recent.
    """
    if len(chains) < 2:
        raise ValueError("the shrink factor needs at least two chains")
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    s = chains[0].n_samples
    # From s - 1 points on the grid holds every end 2..s, so more points
    # than draws give the same ends; the clamp keeps the work, and the
    # grid, proportional to the draws.
    n_points = min(n_points, s)
    ends = np.unique(np.linspace(max(2, s // n_points), s, n_points).astype(int))
    return ends, _prefix_shrink_factors([c.draws for c in chains], ends)


def _prefix_shrink_factors(
    draws: Sequence[np.ndarray], ends: Sequence[int]
) -> np.ndarray:
    """Shrink factors of every parameter over each chain's first ``ends``
    draws, as an (ends, params) array."""
    m = len(draws)
    if m < 2:
        raise ValueError("the shrink factor needs at least two chains")
    s, n_params = draws[0].shape
    if s < 2 or any(d.shape != draws[0].shape for d in draws):
        raise ValueError("chains must have equal length >= 2")
    means = np.empty((len(ends), n_params, m))
    squares = np.empty_like(means)
    # Parameters are stacked a group at a time as (params, chains, draws).
    # Each parameter's draws lie contiguous along the last axis, so a
    # reduction over draws sums the same values in the same order as one
    # over a chain's column copied on its own. The stack, and the buffer
    # for the deviations of every prefix, are made once. A larger stack
    # raised the peak resident memory of a default four-chain fit of 150
    # trials by up to 4 MB.
    group = max(1, min(n_params, _STACK_BYTES // (m * s * 8)))
    stack = np.empty((group, m, s))
    buffer = np.empty_like(stack)
    for first in range(0, n_params, group):
        columns = slice(first, first + group)
        block = stack[: min(group, n_params - first)]
        for k, d in enumerate(draws):
            block[:, k, :] = d[:, columns].T
        for i, end in enumerate(ends):
            # Each chain's mean is formed once. The sums of squared
            # deviations take np.var's own steps from it (sum, divide,
            # subtract, square, sum), so the variances equal np.var's
            # bit for bit.
            prefix = block[:, :, :end]
            mean = np.sum(prefix, axis=2, keepdims=True) / end
            deviations = np.subtract(
                prefix, mean, out=buffer[: len(block), :, :end]
            )
            np.square(deviations, out=deviations)
            means[i, columns] = mean[:, :, 0]
            np.sum(deviations, axis=2, out=squares[i, columns])
    # The factors of every prefix at once: a few calls on small arrays.
    return _shrink_factors(means, squares, np.asarray(ends)[:, None])


def summarize(
    chains: Sequence[ChainOutput], *, r_hat: np.ndarray | None = None
) -> list[PosteriorSummary]:
    """Per-parameter posterior summaries from one or more chains.

    Quantiles use linear interpolation on the pooled draws, which are
    gathered one parameter at a time. With a single chain the shrink
    factor is undefined and reported as NaN. A caller that has computed
    ``shrink_factor_trace`` passes its last row as ``r_hat``: that row is
    the full-length factor of each parameter, so it is not computed again.
    """
    if not chains:
        raise ValueError("no chains to summarize")
    names = chains[0].parameter_names
    if r_hat is None and len(chains) >= 2:
        r_hat = _prefix_shrink_factors(
            [c.draws for c in chains], [chains[0].n_samples]
        )[0]
    elif r_hat is None:
        r_hat = np.full(len(names), math.nan)
    # One parameter's pooled draws at a time, in one reused buffer that
    # the quantiles partition in place.
    column = np.empty(sum(c.n_samples for c in chains))
    out = []
    for j, name in enumerate(names):
        np.concatenate([c.draws[:, j] for c in chains], out=column)
        # Counts over the draw count: np.mean's value, without summing
        # the flags as floats.
        p_below = np.count_nonzero(column < 0.0) / column.size
        p_above = np.count_nonzero(column > 0.0) / column.size
        low, mid, high = np.quantile(
            column, [0.025, 0.5, 0.975], overwrite_input=True
        )
        out.append(
            PosteriorSummary(
                name=name,
                median=float(mid),
                ci_low=float(low),
                ci_high=float(high),
                p_below=p_below,
                p_above=p_above,
                r_hat=float(r_hat[j]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Tab-separated output
# ---------------------------------------------------------------------------


def read_chain_tsv(path: str | Path, chain_index: int = 0) -> ChainOutput:
    """Read a chain TSV back into a ChainOutput.

    Only the draws and parameter names survive the round trip. The
    acceptance rates and the proposal scale are not stored in the file
    and come back as NaN; ``seed_used``, ``nonfinite_rejections`` and
    ``density_evaluations`` come back as -1. Every row is parsed, with
    ``np.loadtxt``'s syntax; blank lines hold no row. Raises ValueError
    when the header does not start with ``iteration``, a row has the
    wrong number of fields or a field is not a number (naming the file
    line, the header being line 1), or the iteration column is not
    1..n.

    The draws come from the binary copy that ``write_chain_tsv`` put
    beside the file, without parsing, when the copy is intact, holds the
    SHA-256 of the file's present bytes and one column per parameter of
    its header. They are the draws parsing would give, bit for bit.
    """
    stored = _read_copy(Path(path))
    if stored is not None:
        return _chain_output(chain_index, *stored)
    with open(path, encoding="utf-8") as stream:
        return _read_chain(stream, chain_index)


def _copy_path(path: Path) -> Path | None:
    """Where the binary copy of the chain TSV at ``path`` lives; None for
    a file whose copy would be the file itself."""
    copy = path.with_suffix(".npz")
    return None if copy == path else copy


def _sha256(stream: IO[bytes], start: bytes = b"") -> bytes:
    """SHA-256 of ``start`` followed by the rest of ``stream``."""
    # Imported here, since every command imports this module: loading
    # hashlib's OpenSSL library takes about 5 ms.
    import hashlib

    digest = hashlib.sha256(start)
    while block := stream.read(_HASH_BYTES):
        digest.update(block)
    return digest.digest()


def _read_copy(path: Path) -> tuple[np.ndarray, tuple[str, ...]] | None:
    """The draws and parameter names of the chain TSV at ``path`` from its
    binary copy; None when there is none to trust."""
    copy = _copy_path(path)
    if copy is None or not copy.is_file():
        return None
    try:
        # One pass over the bytes: the first line is the header, and the
        # digest continues from it.
        with open(path, "rb") as stream:
            first = stream.readline()
            digest = _sha256(stream, first)
        # Decoded as reading the file as text would: the same encoding,
        # and the line ends at its first "\r" or "\n".
        with io.TextIOWrapper(io.BytesIO(first), encoding="utf-8") as text:
            names = _header_names(text.readline())
    except (OSError, ValueError):
        return None  # parsing reports the fault
    try:
        with zipfile.ZipFile(copy) as archive:
            if _member(archive, "sha256.npy").tobytes() != digest:
                return None
            draws = _member(archive, "draws.npy")
    except Exception:
        # A truncated archive, or one with a byte flipped, raises
        # BadZipFile, KeyError, EOFError, ValueError, NotImplementedError
        # (a compression method) or RuntimeError (an encryption flag),
        # among others. The TSV is parsed instead.
        return None
    if draws.dtype != np.float64 or draws.shape[1:] != (len(names),):
        return None
    return np.ascontiguousarray(draws), names


def _member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """One array of an ``np.savez`` archive, read to the member's end so
    that zipfile checks its CRC-32."""
    with archive.open(name) as member:
        array = np.lib.format.read_array(member, allow_pickle=False)
        if member.read(1):
            raise ValueError(f"{name} holds bytes after its array")
    return array


def _header_names(first: str) -> tuple[str, ...]:
    if not first:
        raise ValueError("empty chain file")
    header = first.rstrip("\r\n").split("\t")
    if header[0] != "iteration":
        raise ValueError("chain file must start with an 'iteration' column")
    return tuple(header[1:])


def _chain_output(
    chain_index: int, draws: np.ndarray, names: tuple[str, ...]
) -> ChainOutput:
    return ChainOutput(
        chain_index=chain_index,
        draws=draws,
        parameter_names=names,
        accept_rate=math.nan,
        seed_used=-1,
        proposal_log_scale=math.nan,
        nonfinite_rejections=-1,
        adapt_accept_rate=math.nan,
        independence_accept_rate=math.nan,
        density_evaluations=-1,
    )


def _read_chain(stream: IO[str], chain_index: int) -> ChainOutput:
    names = _header_names(stream.readline())
    width = len(names) + 1
    lines = stream.readlines()
    # np.loadtxt skips blank lines; they hold no row. Errors name a row
    # by its file line, the header being line 1.
    numbers = [i + 2 for i, line in enumerate(lines) if line.strip("\r\n")]
    table = _parse_rows([lines[n - 2] for n in numbers], numbers, width)
    if table.shape[1] != width:
        raise ValueError(
            f"rows have {table.shape[1]} fields, the header {width} "
            f"(from line {numbers[0]})"
        )
    wrong = np.flatnonzero(table[:, 0] != np.arange(1, len(table) + 1))
    if wrong.size:
        raise ValueError(
            f"iteration column is not 1..{len(table)}: line "
            f"{numbers[wrong[0]]} holds {table[wrong[0], 0]:g}"
        )
    return _chain_output(chain_index, np.ascontiguousarray(table[:, 1:]), names)


def _parse_rows(rows: list[str], numbers: list[int], width: int) -> np.ndarray:
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


def _row_error(rows: list[str], numbers: list[int]) -> ValueError | None:
    fields = rows[0].count("\t") + 1
    for row, number in zip(rows, numbers):
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
    summaries: Sequence[PosteriorSummary], path: str | Path
) -> None:
    """Write summaries as TSV with the canonical column order."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write("\t".join(SUMMARY_COLUMNS) + "\n")
        for s in summaries:
            fields = [s.name] + [
                f"{getattr(s, c):.6g}" for c in SUMMARY_COLUMNS[1:]
            ]
            stream.write("\t".join(fields) + "\n")


def write_chain_tsv(chain: ChainOutput, path: str | Path) -> Path | None:
    """Write one chain's draws as TSV: iteration column, then parameters.

    Values use shortest round-trip formatting (``repr``), so rereading
    reproduces the draws bit for bit. Rows are formatted a block at a
    time, which bounds the temporary objects to one block's worth. A row
    whose bits equal those of the row before (a rejected proposal; -0.0
    and 0.0, or NaNs with different payloads, differ) reuses that row's
    formatted values, so each distinct row is formatted once.

    The draws are also saved beside the file, with the SHA-256 of the
    bytes written, for ``read_chain_tsv``; the path of that copy is
    returned, or None for a file named with the copy's suffix, which
    gets no copy. Every NaN is saved as the NaN that parsing "nan"
    gives.
    """
    draws = np.asarray(chain.draws, dtype=float)
    n, k = draws.shape
    bits = draws.view(np.int64)
    repeats = np.zeros(n, dtype=bool)
    repeats[1:] = np.all(bits[1:] == bits[:-1], axis=1)
    values = "\t%r" * k + "\n"
    # Imported here, as in _sha256.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "wb") as stream:

        def write(text: str) -> None:
            # The digest of the bytes as they are written, so the file is
            # never read back.
            data = text.encode("utf-8")
            digest.update(data)
            stream.write(data)

        write("\t".join(("iteration",) + tuple(chain.parameter_names)) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            fresh = ~repeats[start:stop]
            fresh[0] = True
            # Format each distinct row's values once, then write every
            # row as its number and the text of the values it repeats.
            distinct = draws[start:stop][fresh]
            texts = values * len(distinct) % tuple(distinct.ravel().tolist())
            texts = texts.split("\n")
            cells = [None] * (2 * (stop - start))
            cells[0::2] = range(start + 1, stop + 1)
            cells[1::2] = [texts[i] for i in (np.cumsum(fresh) - 1).tolist()]
            write("%d%s\n" * (stop - start) % tuple(cells))
    copy = _copy_path(Path(path))
    if copy is None:
        return None
    nan = np.isnan(draws)
    if nan.any():
        draws = np.where(nan, math.nan, draws)
    np.savez(
        copy, draws=draws, sha256=np.frombuffer(digest.digest(), dtype=np.uint8)
    )
    return copy


def write_rhat_trace_tsv(
    chains: Sequence[ChainOutput],
    path: str | Path,
    trace: tuple[np.ndarray, np.ndarray],
) -> None:
    """Write the per-parameter shrink-factor trace as TSV.

    ``trace`` is the (iterations, values) pair that
    ``shrink_factor_trace(chains)`` returns; ``chains`` name the columns.
    """
    with open(path, "w", encoding="utf-8") as stream:
        stream.write("\t".join(("iteration", *chains[0].parameter_names)) + "\n")
        for end, row in zip(*trace):
            fields = [str(int(end))] + [f"{v:.6g}" for v in row]
            stream.write("\t".join(fields) + "\n")
