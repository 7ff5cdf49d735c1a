"""Convergence diagnostics and posterior summarization.

The potential scale reduction factor compares between-chain and
within-chain variability of each parameter; values near 1 indicate the
chains have mixed into the same distribution. Summaries are computed on
the draws pooled across chains: median, central 95% interval, and the
posterior probabilities of lying strictly below / strictly above zero.

The writers and the reader take file paths. A chain TSV is a text
export; its record beside it (``.npz`` in place of the file's suffix)
holds the draws, the parameter names, the TSV's size in bytes and, for
a chain that carries them, the moments of its draws that the
shrink-factor trace combines. The reader returns an intact record that
names its parameters without opening the TSV, and parses the TSV in
every other case; moments it cannot take are computed from the draws.

Only ``write_chain_files`` and ``read_chain_files`` know where a run
directory's chain files lie: they name, write, find and check them.
"""

from __future__ import annotations

import math
import re
import warnings
import zipfile
from dataclasses import replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .posterior import ChainOutput, PosteriorSummary

__all__ = [
    "PosteriorSummary",
    "shrink_factor_trace",
    "summarize",
    "summarize_chains",
    "write_summary_tsv",
    "write_chain_tsv",
    "write_rhat_trace_tsv",
    "read_chain_tsv",
    "write_chain_files",
    "read_chain_files",
]

# Default rows of a shrink-factor trace.
TRACE_POINTS = 20
CHAINS_DIR = "chains"  # the folder of a run directory's chain files
# Rows formatted per write in write_chain_tsv.
_BLOCK_ROWS = 1024
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


@np.errstate(divide="ignore", invalid="ignore")
def _shrink_factors(
    means: np.ndarray, squares: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Shrink factors from each chain's mean and sum of squared deviations.

    ``means`` and ``squares`` hold one row of per-chain values (chains on
    the last axis) per factor, each over ``s`` draws; ``s`` broadcasts
    against the factors. Uses the pooled-variance estimate with the
    between-chain sampling correction. A parameter with zero
    within-chain variance gets 1.0 when the chains agree and inf when
    they do not; a draw of +-inf gives nan (inf - inf), without warning.
    """
    m = means.shape[-1]
    within = np.mean(squares / (s - 1)[..., None], axis=-1)
    between = s * np.var(means, axis=-1, ddof=1)
    pooled = (s - 1) / s * within + between / s + between / (m * s)
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

    Each chain's prefix moments depend on that chain alone. A chain
    whose ``trace_moments`` hold exactly these iterations (``fit``'s
    chains, and chains read from an intact record, at the default
    ``n_points``) supplies them; those of the other chains are computed
    from their draws. Both routes give the same values bit for bit.
    Raises ValueError naming a chain with no draws or whose parameter
    names differ from the first chain's.
    """
    if len(chains) < 2:
        raise ValueError("the shrink factor needs at least two chains")
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    _parameter_names(chains)
    ends = _trace_ends(chains[0].n_samples, n_points)
    return ends, _prefix_factors(chains, ends)


def _trace_ends(s: int, n_points: int) -> np.ndarray:
    """The prefix lengths of a trace of ``n_points`` rows over ``s``
    draws."""
    # From s - 1 points on the grid holds every end 2..s, so more points
    # than draws give the same ends; the clamp keeps the work, and the
    # grid, proportional to the draws.
    n_points = min(n_points, s)
    grid = np.linspace(max(2, s // n_points), s, n_points).astype(int)
    # np.unique of the non-decreasing grid, without importing numpy.ma.
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def _with_moments(
    chains: Sequence[ChainOutput], ends: np.ndarray
) -> list[ChainOutput]:
    """``chains``, each with the ``trace_moments`` of its draws at
    ``ends``: a chain that holds them keeps its own, and those of the
    others are computed in one batch. Raises ValueError unless the
    chains have equal length >= 2."""
    _common_length(chains)
    missing = [
        k for k, c in enumerate(chains)
        if c.trace_moments is None or not np.array_equal(c.trace_moments[0], ends)
    ]
    chains = list(chains)
    if missing:
        means, squares = _prefix_moments([chains[k].draws for k in missing], ends)
        for i, k in enumerate(missing):
            chains[k] = replace(
                chains[k], trace_moments=(ends, means[..., i], squares[..., i])
            )
    return chains


def _with_trace_moments(chains: Sequence[ChainOutput]) -> list[ChainOutput]:
    """``_with_moments`` at the ends of a default trace."""
    return _with_moments(chains, _trace_ends(_common_length(chains), TRACE_POINTS))


def _prefix_factors(
    chains: Sequence[ChainOutput], ends: np.ndarray
) -> np.ndarray:
    """Shrink factors of every parameter over each chain's first ``ends``
    draws, as an (ends, params) array, from the moments ``_with_moments``
    gives the chains."""
    held = [c.trace_moments[1:] for c in _with_moments(chains, ends)]
    # Chains on the last axis, in the order given.
    means, squares = (np.stack(m, axis=-1) for m in zip(*held))
    return _shrink_factors(means, squares, ends[:, None])


def _common_length(chains: Sequence[ChainOutput]) -> int:
    s = chains[0].n_samples
    if s < 2 or any(c.n_samples != s for c in chains):
        raise ValueError("chains must have equal length >= 2")
    return s


@np.errstate(invalid="ignore")  # a draw of +-inf gives nan, as in np.var
def _prefix_moments(
    draws: Sequence[np.ndarray], ends: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The mean and the sum of squared deviations of every parameter over
    each chain's first ``ends`` draws, as (ends, params, chains) arrays."""
    m = len(draws)
    s, n_params = draws[0].shape
    means = np.empty((len(ends), n_params, m))
    squares = np.empty_like(means)
    # Parameters are stacked a group at a time as (params, chains, draws).
    # Each parameter's draws lie contiguous along the last axis, so a
    # reduction over draws sums the same values in the same order as one
    # over a chain's column copied on its own: the moments of a chain do
    # not depend on the chains computed with it. The stack, and the
    # buffer for the deviations of every prefix, are made once. A larger
    # stack raised the peak resident memory of a default four-chain fit
    # of 150 trials by up to 4 MB.
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
    return means, squares


def _parameter_names(chains: Sequence[ChainOutput]) -> tuple[str, ...]:
    """The parameter names every chain shares; ValueError naming the
    first chain with no draws or whose names differ from the first
    chain's."""
    names = chains[0].parameter_names
    for k, chain in enumerate(chains):
        if chain.parameter_names != names:
            raise ValueError(
                f"chain {k} names its parameters {chain.parameter_names}, "
                f"chain 0 {names}"
            )
        if chain.n_samples == 0:
            raise ValueError(f"chain {k} holds no draws")
    return names


def _sorted_quantiles(
    column: np.ndarray, levels: Sequence[float]
) -> list[float] | None:
    """``np.quantile(column, levels)`` of a sorted ``column``, bit for bit.

    The rule is numpy's default, Hyndman & Fan's type 7: at the virtual
    index v = (n - 1) q, the order statistics at floor(v) and the next
    are interpolated with gamma = v - floor(v), as numpy's lerp does
    (a + (b - a) gamma, or b - (b - a)(1 - gamma) for gamma >= 0.5); at
    or past the last index numpy reads the last value twice and takes
    gamma from index -1. None where the result depends on the order of
    the values before the sort: with a NaN (numpy returns the one its
    partition leaves last) or a zero read (-0.0 and 0.0 tie).
    """
    n = column.size
    if math.isnan(column[-1]):  # a NaN sorts last
        return None
    out = []
    for q in levels:
        v = (n - 1) * q
        i = -1 if v >= n - 1 else math.floor(v)
        a = float(column[i])
        b = float(column[i + 1 if i >= 0 else -1])
        if a == 0.0 or b == 0.0:
            return None
        gamma = v - i
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return out


def summarize(
    chains: Sequence[ChainOutput], *, r_hat: np.ndarray | None = None
) -> list[PosteriorSummary]:
    """Per-parameter posterior summaries from one or more chains.

    Quantiles use linear interpolation on the pooled draws, which are
    gathered one parameter at a time; they equal ``np.quantile``'s
    default bit for bit. With a single chain the shrink factor is
    undefined and reported as NaN. A caller that has computed
    ``shrink_factor_trace`` passes its last row as ``r_hat``: that row is
    the full-length factor of each parameter, so it is not computed again.
    Raises ValueError when the chains name different parameters or
    ``r_hat`` holds other than one value per parameter.
    """
    if not chains:
        raise ValueError("no chains to summarize")
    names = _parameter_names(chains)
    if r_hat is not None and np.shape(r_hat) != (len(names),):
        raise ValueError(
            f"r_hat has shape {np.shape(r_hat)}, not one value for each "
            f"of {len(names)} parameters"
        )
    if r_hat is None and len(chains) >= 2:
        r_hat = _prefix_factors(chains, np.array([chains[0].n_samples]))[0]
    elif r_hat is None:
        r_hat = np.full(len(names), math.nan)
    # One parameter's pooled draws at a time, in one reused buffer that
    # is sorted in place for the quantiles.
    column = np.empty(sum(c.n_samples for c in chains))
    levels = (0.025, 0.5, 0.975)
    out = []
    for j, name in enumerate(names):
        np.concatenate([c.draws[:, j] for c in chains], out=column)
        # Counts over the draw count: np.mean's value, without summing
        # the flags as floats.
        p_below = np.count_nonzero(column < 0.0) / column.size
        p_above = np.count_nonzero(column > 0.0) / column.size
        column.sort()
        quantiles = _sorted_quantiles(column, levels)
        if quantiles is None:
            # The bits depend on the draws' order, which the sort lost.
            np.concatenate([c.draws[:, j] for c in chains], out=column)
            quantiles = np.quantile(column, levels, overwrite_input=True)
        low, mid, high = quantiles
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


def summarize_chains(
    chains: Sequence[ChainOutput],
) -> tuple[list[ChainOutput], tuple[np.ndarray, np.ndarray] | None,
           list[PosteriorSummary]]:
    """The chains, their shrink-factor trace and their summaries.

    2 or more chains come back with their ``trace_moments`` (see
    ``_with_moments``), which the trace combines; the summaries take
    the trace's last row as ``r_hat``. One chain comes back as given,
    with no trace and an ``r_hat`` of NaN. Raises ValueError as
    ``shrink_factor_trace`` and ``summarize`` do.
    """
    if len(chains) < 2:
        return list(chains), None, summarize(chains)
    _parameter_names(chains)
    chains = _with_trace_moments(chains)
    trace = shrink_factor_trace(chains)
    return chains, trace, summarize(chains, r_hat=trace[1][-1])


# ---------------------------------------------------------------------------
# Tab-separated output
# ---------------------------------------------------------------------------


def read_chain_tsv(path: str | Path, chain_index: int = 0) -> ChainOutput:
    """Read a chain back into a ChainOutput, from its record if it can.

    Only the draws and parameter names survive the round trip; every
    statistic of the run comes back unknown (``ChainOutput``'s
    defaults).

    The record that ``write_chain_tsv`` put beside the TSV is returned,
    without opening the TSV, when it is intact (zip's CRC-32 of each
    member), loads without unpickling and holds float64 draws with one
    column per parameter it names: the draws and names that parsing the
    TSV as written gives, bit for bit. It carries its trace moments too
    when they are int64 ends and float64 (ends, parameters) arrays;
    otherwise ``trace_moments`` is None, and the trace computes them.
    When the TSV's size on disk is not the one recorded, a one-line
    warning names both files, and the record is still returned; deleting
    the record has the TSV read.

    In every other case (no record, a damaged one, or one written before
    records named their parameters) the TSV is parsed, every row, with
    ``np.loadtxt``'s syntax; blank lines hold no row. Raises ValueError
    when the header does not start with ``iteration``, a row has the
    wrong number of fields or a field is not a number (naming the file
    line, the header being line 1), or the iteration column is not 1..n.
    """
    path = Path(path)
    record = _read_record(path)
    if record is None:
        with open(path, encoding="utf-8") as stream:
            return _read_chain(stream, chain_index)
    draws, names, moments, size = record
    if path.stat().st_size != size:
        npz = _record_path(path)
        warnings.warn(f"{path} is not the size recorded in {npz}, whose "
                      f"draws are read; delete {npz} to have {path} read",
                      stacklevel=2)
    return ChainOutput(chain_index, draws, names, trace_moments=moments)


def _record_path(path: Path) -> Path | None:
    """Where the record of the chain TSV at ``path`` lives; None for a
    file whose record would be the file itself."""
    npz = path.with_suffix(".npz")
    return None if npz == path else npz


def _read_record(
    path: Path,
) -> tuple[np.ndarray, tuple[str, ...], tuple | None, int] | None:
    """The draws, parameter names, trace moments (None when the record
    holds none of the right shapes and types) and TSV size in bytes that
    the record of the chain TSV at ``path`` holds; None when there is no
    record to trust."""
    npz = _record_path(path)
    if npz is None or not npz.is_file():
        return None
    try:
        with zipfile.ZipFile(npz) as archive:
            draws, names, size = (
                _member(archive, f"{name}.npy")
                for name in ("draws", "names", "tsv_bytes")
            )
            moments = None
            if "trace_ends.npy" in archive.namelist():
                moments = tuple(
                    _member(archive, f"trace_{name}.npy")
                    for name in ("ends", "means", "squares")
                )
    except Exception:
        # A truncated archive, or one with a byte flipped, raises
        # BadZipFile, KeyError, EOFError, ValueError, NotImplementedError
        # (a compression method) or RuntimeError (an encryption flag),
        # among others; a record that names no parameters, KeyError. The
        # TSV is parsed instead.
        return None
    if not (
        names.dtype.kind == "U" and names.ndim == 1
        and draws.dtype == np.float64 and draws.shape[1:] == names.shape
        and size.dtype == np.int64 and size.ndim == 0
    ):
        return None
    if moments is not None:
        ends, means, squares = moments
        rows = (ends.size, names.size)
        if not (
            ends.dtype == np.int64 and ends.ndim == 1
            and means.dtype == squares.dtype == np.float64
            and means.shape == squares.shape == rows
        ):
            moments = None  # computed from the draws instead
    return np.ascontiguousarray(draws), tuple(names.tolist()), moments, int(size)


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
    return ChainOutput(chain_index, np.ascontiguousarray(table[:, 1:]), names)


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

    The chain's record is saved beside the file for ``read_chain_tsv``:
    ``draws``, with every NaN as the NaN that parsing "nan" gives;
    ``names``, the parameter names, unless the header cannot hold them
    as given (a tab or a line end) or a unicode array cannot (a trailing
    NUL), since parsing must then decide them; ``tsv_bytes``, the file's
    size; and the chain's ``trace_moments``, if any, as ``trace_ends``,
    ``trace_means`` and ``trace_squares``, unless a draw is NaN: the
    saved draws could then have other moments. The record's path is
    returned, or None for a file named with the record's suffix, which
    gets no record.
    """
    draws = np.asarray(chain.draws, dtype=float)
    names = tuple(chain.parameter_names)
    n, k = draws.shape
    bits = draws.view(np.int64)
    repeats = np.zeros(n, dtype=bool)
    repeats[1:] = np.all(bits[1:] == bits[:-1], axis=1)
    values = "\t%r" * k + "\n"
    with open(path, "wb") as stream:
        stream.write(("\t".join(("iteration",) + names) + "\n").encode("utf-8"))
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
            stream.write(("%d%s\n" * (stop - start) % tuple(cells)).encode("utf-8"))
        size = stream.tell()
    npz = _record_path(Path(path))
    if npz is None:
        return None
    moments = chain.trace_moments
    nan = np.isnan(draws)
    if nan.any():
        # The moments of the draws as saved could differ in NaN bits.
        draws, moments = np.where(nan, math.nan, draws), None
    record = dict(draws=draws, tsv_bytes=np.int64(size))
    labels = np.array(names, dtype=str)
    if labels.tolist() == list(names) and not re.search("[\t\r\n]", "".join(names)):
        record["names"] = labels
    if moments is not None:
        record.update(zip(("trace_ends", "trace_means", "trace_squares"), moments))
    np.savez(npz, **record)
    return npz


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



def write_chain_files(
    run_dir: str | Path, chains: Sequence[ChainOutput]
) -> list[tuple[ChainOutput, tuple[str, ...]]]:
    """Write each chain's TSV, ``chains/chain_<chain_index + 1>.tsv`` in
    ``run_dir``, and its record, after giving 2 or more chains their trace
    moments (``_with_trace_moments``); delete every other chain file
    there. Returns each chain as written with its TSV and record (POSIX,
    run-relative)."""
    folder = Path(run_dir, CHAINS_DIR)
    folder.mkdir(parents=True, exist_ok=True)
    if len(chains) >= 2:
        chains = _with_trace_moments(chains)
    written, held = [], set()
    for chain in chains:
        path = folder / f"chain_{chain.chain_index + 1}.tsv"
        files = (path, write_chain_tsv(chain, path))
        held.update(files)
        written.append((chain, tuple(f"{CHAINS_DIR}/{f.name}" for f in files)))
    for path in folder.glob("chain_*"):
        if path.suffix in (".tsv", ".npz") and path not in held:
            path.unlink()  # an earlier run's, which diagnose would read
    return written


def read_chain_files(
    run_dir: str | Path,
) -> list[tuple[ChainOutput, tuple[str, ...]]]:
    """Every ``chains/chain_<k>.tsv`` of ``run_dir`` read back, indexed
    from 0 in the order of k, each with its files held: the TSV, then its
    record if any. Raises ValueError naming the path at fault for another
    ``chain_*.tsv`` name, no chain file, a file that cannot be read, fewer
    draws than fit writes (2 each of 2 or more chains, else 1), a header
    unlike the first file's, or unequal lengths."""
    numbered = {}
    for path in Path(run_dir, CHAINS_DIR).glob("chain_*.tsv"):
        match = re.fullmatch(r"chain_([1-9]\d*)\.tsv", path.name)
        if match is None:
            raise ValueError(f"{path}: not a chain file name (chain_<k>.tsv)")
        numbered[int(match.group(1))] = path
    paths = [numbered[k] for k in sorted(numbered)]
    if not paths:
        raise ValueError(f"{run_dir}: no chain files under {CHAINS_DIR}/")
    needed = 2 if len(paths) >= 2 else 1
    read = []
    for i, path in enumerate(paths):
        try:
            chain = read_chain_tsv(path, chain_index=i)
        except (OSError, ValueError) as e:  # an OSError by its strerror
            raise ValueError(f"{path}: {getattr(e, 'strerror', None) or e}") from e
        if chain.n_samples < needed:
            raise ValueError(f"{path}: {chain.n_samples} draw(s); diagnose "
                             f"needs at least {needed}")
        if read and chain.parameter_names != read[0][0].parameter_names:
            raise ValueError(f"{path}: header differs from that of {paths[0]}")
        files = [f for f in (path, _record_path(path)) if f.is_file()]
        read.append((chain, tuple(f"{CHAINS_DIR}/{f.name}" for f in files)))
    lengths = {chain.n_samples for chain, _ in read}
    if len(lengths) > 1:
        raise ValueError(f"{run_dir}: chains have unequal lengths {lengths}")
    return read
