"""Shrink factor, posterior summaries, and their serialized forms."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmeta import (
    ChainOutput,
    PosteriorSummary,
    gelman_rubin,
    read_chain_tsv,
    shrink_factor_trace,
    summarize,
    write_chain_tsv,
    write_rhat_trace_tsv,
    write_summary_tsv,
)
from featmeta import diagnostics
from featmeta.diagnostics import (
    SUMMARY_COLUMNS,
    effective_sample_size,
    mcse_mean,
)


def make_chain(draws, index=0, names=None):
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    if names is None:
        names = tuple(f"p{j}" for j in range(draws.shape[1]))
    return ChainOutput(
        chain_index=index,
        draws=draws,
        parameter_names=tuple(names),
        accept_rate=0.25,
        seed_used=index,
        proposal_log_scale=0.0,
    )


# ---------------------------------------------------------------------------
# Reference implementations: one float, one parameter at a time
# ---------------------------------------------------------------------------


def reference_gelman_rubin(chain_draws):
    """The scalar shrink factor, computed for one parameter on its own."""
    arrays = [np.asarray(c, dtype=float).ravel() for c in chain_draws]
    m = len(arrays)
    s = arrays[0].shape[0]
    stacked = np.stack(arrays)
    within = float(np.mean(np.var(stacked, axis=1, ddof=1)))
    between = s * float(np.var(np.mean(stacked, axis=1), ddof=1))
    pooled = (s - 1) / s * within + between / s + between / (m * s)
    if within == 0.0:
        return 1.0 if pooled <= 0.0 else math.inf
    return math.sqrt(pooled / within)


def reference_shrink_factor_trace(chains, n_points=20):
    """One reference_gelman_rubin call per parameter per prefix."""
    s = chains[0].n_samples
    n_params = chains[0].draws.shape[1]
    ends = np.unique(np.linspace(max(2, s // n_points), s, n_points).astype(int))
    values = np.empty((ends.shape[0], n_params))
    for i, end in enumerate(ends):
        for j in range(n_params):
            values[i, j] = reference_gelman_rubin(
                [c.draws[:end, j] for c in chains]
            )
    return ends, values


def reference_write_chain_tsv(chain, stream):
    """One repr call per float."""
    stream.write("\t".join(("iteration",) + tuple(chain.parameter_names)) + "\n")
    for i, row in enumerate(chain.draws, start=1):
        stream.write(str(i) + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# gelman_rubin
# ---------------------------------------------------------------------------


def test_identical_chains_match_closed_form():
    rng = np.random.default_rng(0)
    draws = rng.standard_normal(1000)
    value = gelman_rubin([draws, draws.copy()])
    # B = 0 exactly, so R-hat = sqrt((s-1)/s), just below 1.
    assert value == pytest.approx(math.sqrt(999.0 / 1000.0), rel=1e-12)
    assert 0.99 <= value <= 1.01
    assert value <= 1.0 + 1e-12


def test_disjoint_supports_blow_up():
    rng = np.random.default_rng(1)
    base = rng.standard_normal(500)
    value = gelman_rubin([base, base + 100.0])
    assert value > 2.0


def test_stationary_chains_converge():
    rng = np.random.default_rng(2)
    chains = [rng.standard_normal(5000) for _ in range(4)]
    assert gelman_rubin(chains) < 1.05


def test_single_chain_rejected():
    with pytest.raises(ValueError, match="two chains"):
        gelman_rubin([np.zeros(100)])


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError, match="equal length"):
        gelman_rubin([np.zeros(10), np.zeros(11)])
    with pytest.raises(ValueError, match="equal length"):
        gelman_rubin([np.zeros(1), np.zeros(1)])


def test_degenerate_chains():
    # Zero within-chain variance: converged if the chains agree,
    # divergent otherwise.
    assert gelman_rubin([np.ones(50), np.ones(50)]) == 1.0
    assert gelman_rubin([np.zeros(50), np.ones(50)]) == math.inf


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(0.01, 100.0, allow_nan=False),
    shift=st.floats(-50.0, 50.0, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_r_hat_invariant_under_common_affine_map(scale, shift, seed):
    rng = np.random.default_rng(seed)
    chains = [rng.standard_normal(200) for _ in range(3)]
    base = gelman_rubin(chains)
    mapped = gelman_rubin([scale * c + shift for c in chains])
    assert mapped == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# shrink_factor_trace
# ---------------------------------------------------------------------------


def two_param_chains(seed=3, s=600):
    rng = np.random.default_rng(seed)
    return [
        make_chain(rng.standard_normal((s, 2)), index=k) for k in range(3)
    ]


def test_trace_final_point_is_full_r_hat():
    chains = two_param_chains()
    ends, values = shrink_factor_trace(chains, n_points=10)
    assert ends[-1] == chains[0].n_samples
    for j in range(2):
        full = gelman_rubin([c.draws[:, j] for c in chains])
        assert values[-1, j] == pytest.approx(full, rel=1e-12)


def test_trace_grid_is_increasing_and_within_range():
    chains = two_param_chains()
    ends, values = shrink_factor_trace(chains, n_points=20)
    assert np.all(np.diff(ends) > 0)
    assert ends[0] >= 2
    assert values.shape == (ends.shape[0], 2)


def test_trace_flat_for_identical_chains():
    rng = np.random.default_rng(4)
    draws = rng.standard_normal((500, 2))
    chains = [make_chain(draws, index=k) for k in range(2)]
    _, values = shrink_factor_trace(chains, n_points=12)
    assert np.all(values <= 1.0 + 1e-12)
    assert np.all(values >= 0.97)


def test_trace_needs_two_chains():
    with pytest.raises(ValueError):
        shrink_factor_trace([two_param_chains()[0]])


def mixed_chains(m, s, seed):
    """Chains with normal columns at several scales and offsets, a column
    constant and equal across chains (factor 1.0) and a column constant
    within each chain but different between them (factor inf)."""
    rng = np.random.default_rng(seed)
    scales = np.array([1.0, 1e-6, 3e4, 0.05])
    offsets = np.array([0.0, 2e-6, -1e5, 7.0])
    chains = []
    for k in range(m):
        normal = rng.standard_normal((s, 4)) * scales + offsets
        normal[:, 3] += 0.01 * k  # chains that disagree a little
        equal = np.full((s, 1), 0.25)
        disjoint = np.full((s, 1), float(k))
        odd = 2.5 * normal[:, :1]  # an odd parameter count splits unevenly
        chains.append(
            make_chain(np.hstack([normal, equal, disjoint, odd]), index=k)
        )
    return chains


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("s", [3, 101, 1999])
def test_trace_equals_per_parameter_reference(m, s):
    chains = mixed_chains(m, s, seed=100 * m + s)
    ends, values = shrink_factor_trace(chains, n_points=13)
    ref_ends, ref_values = reference_shrink_factor_trace(chains, n_points=13)
    assert np.array_equal(ends, ref_ends)
    assert np.array_equal(values, ref_values)
    assert np.all(values[:, 4] == 1.0)
    assert np.all(values[:, 5] == math.inf)




def test_trace_is_the_same_for_any_parameter_grouping(monkeypatch):
    chains = mixed_chains(4, 2001, seed=12)
    _, reference = reference_shrink_factor_trace(chains)
    one_parameter = 4 * 2001 * 8
    for budget in (1, 3 * one_parameter, 2**30):
        monkeypatch.setattr(diagnostics, "_STACK_BYTES", budget)
        _, values = shrink_factor_trace(chains)
        assert np.array_equal(values, reference)


def test_summary_and_gelman_rubin_equal_reference():
    chains = mixed_chains(4, 777, seed=13)
    summaries = summarize(chains)
    for j, summary in enumerate(summaries):
        columns = [c.draws[:, j] for c in chains]
        assert summary.r_hat == reference_gelman_rubin(columns)
        assert gelman_rubin(columns) == summary.r_hat


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def test_symmetric_draws_balance_tails():
    draws = np.tile([-1.0, 0.0, 1.0], 100)
    chains = [make_chain(draws, 0), make_chain(draws, 1)]
    (summary,) = summarize(chains)
    assert summary.median == 0.0
    assert summary.p_below == summary.p_above == pytest.approx(1.0 / 3.0)
    # exact zeros belong to neither tail
    assert summary.p_below + summary.p_above == pytest.approx(2.0 / 3.0)


def test_all_negative_draws():
    rng = np.random.default_rng(5)
    draws = -np.abs(rng.standard_normal(400)) - 0.01
    (summary,) = summarize([make_chain(draws, 0), make_chain(draws, 1)])
    assert summary.p_below == 1.0
    assert summary.p_above == 0.0


def test_quantiles_match_pooled_vector():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal(300), rng.standard_normal(300)
    (summary,) = summarize([make_chain(a, 0), make_chain(b, 1)])
    pooled = np.concatenate([a, b])
    low, mid, high = np.quantile(pooled, [0.025, 0.5, 0.975])
    assert summary.ci_low == pytest.approx(low, rel=1e-12)
    assert summary.median == pytest.approx(mid, rel=1e-12)
    assert summary.ci_high == pytest.approx(high, rel=1e-12)


def test_summaries_invariant_to_chain_order():
    chains = two_param_chains(seed=7)
    fwd = summarize(chains)
    rev = summarize(list(reversed(chains)))
    for a, b in zip(fwd, rev):
        assert a == b


def test_single_chain_r_hat_is_nan():
    (summary,) = summarize([make_chain(np.arange(10.0))])
    assert math.isnan(summary.r_hat)


def test_empty_chain_list_rejected():
    with pytest.raises(ValueError):
        summarize([])


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=200
    )
)
def test_summary_ordering_and_tail_mass(values):
    draws = np.asarray(values)
    (summary,) = summarize([make_chain(draws, 0), make_chain(draws, 1)])
    assert summary.ci_low <= summary.median <= summary.ci_high
    assert 0.0 <= summary.p_below + summary.p_above <= 1.0


# ---------------------------------------------------------------------------
# Monte-Carlo error helpers
# ---------------------------------------------------------------------------


def test_mcse_scales_like_iid():
    rng = np.random.default_rng(8)
    draws = rng.standard_normal(50_000)
    expected = 1.0 / math.sqrt(draws.shape[0])
    assert 0.5 * expected < mcse_mean(draws) < 2.0 * expected


def test_effective_sample_size_near_n_for_iid():
    rng = np.random.default_rng(9)
    draws = rng.standard_normal(50_000)
    ess = effective_sample_size(draws)
    assert draws.shape[0] / 3 < ess < draws.shape[0] * 3


# ---------------------------------------------------------------------------
# serialized forms
# ---------------------------------------------------------------------------


def test_summary_columns_are_normative():
    assert SUMMARY_COLUMNS == (
        "name", "median", "ci_low", "ci_high", "p_below", "p_above", "r_hat"
    )


def test_summary_tsv_layout(tmp_path):
    summaries = [
        PosteriorSummary("alpha", -0.04, -0.08, -0.01, 0.98, 0.02, 1.003),
        PosteriorSummary("tau", 0.05, 0.01, 0.12, 0.0, 1.0, 1.01),
    ]
    dest = tmp_path / "summary.tsv"
    write_summary_tsv(summaries, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "\t".join(SUMMARY_COLUMNS)
    assert len(lines) == 3
    fields = lines[1].split("\t")
    assert fields[0] == "alpha"
    assert float(fields[1]) == pytest.approx(-0.04)
    assert float(fields[6]) == pytest.approx(1.003)


def test_chain_tsv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(10)
    chain = make_chain(rng.standard_normal((37, 3)), names=("a", "b", "tau"))
    dest = tmp_path / "chain_1.tsv"
    write_chain_tsv(chain, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "iteration\ta\tb\ttau"
    assert lines[1].split("\t")[0] == "1"
    assert lines[-1].split("\t")[0] == "37"
    back = read_chain_tsv(dest)
    assert back.parameter_names == ("a", "b", "tau")
    assert np.array_equal(back.draws, chain.draws)


def test_chain_tsv_requires_iteration_column():
    bad = io.StringIO("a\tb\n1.0\t2.0\n")
    with pytest.raises(ValueError, match="iteration"):
        read_chain_tsv(bad)


SPECIAL_DRAWS = [
    -0.0, 1e-7, 1.5e-5, 1e16, 1e17, 5e-324, 2.2250738585072014e-309,
    123456789.0, 0.1, -1.0 / 3.0, 1.7976931348623157e308,
]


def special_chain(n_rows):
    rng = np.random.default_rng(n_rows)
    draws = rng.standard_normal((n_rows, 3)) * np.array([1.0, 1e-9, 1e12])
    specials = np.resize(np.array(SPECIAL_DRAWS), n_rows)
    draws = np.column_stack([specials, draws, specials[::-1]])
    return make_chain(draws, names=("alpha", "beta_1", "beta_2", "phi_1", "tau"))


@pytest.mark.parametrize(
    "n_rows",
    [
        1,
        diagnostics._BLOCK_ROWS - 1,
        diagnostics._BLOCK_ROWS,
        3 * diagnostics._BLOCK_ROWS + 17,
    ],
)
def test_chain_tsv_writer_matches_per_float_reference(n_rows, tmp_path):
    chain = special_chain(n_rows)
    expected = io.StringIO()
    reference_write_chain_tsv(chain, expected)

    buffer = io.StringIO()
    write_chain_tsv(chain, buffer)
    assert buffer.getvalue() == expected.getvalue()
    path = tmp_path / "chain_1.tsv"
    write_chain_tsv(chain, path)
    assert path.read_text() == expected.getvalue()

    for source in (path, io.StringIO(expected.getvalue())):
        back = read_chain_tsv(source)
        assert back.parameter_names == chain.parameter_names
        assert np.array_equal(
            back.draws.view(np.int64), chain.draws.view(np.int64)
        )


def test_chain_tsv_header_only_has_no_draws():
    back = read_chain_tsv(io.StringIO("iteration\ta\tb\n"))
    assert back.parameter_names == ("a", "b")
    assert back.draws.shape == (0, 2)


@pytest.mark.parametrize(
    "body, message",
    [
        ("1\t0.5\t1.5\n2\t0.5\n", "columns changed"),
        ("1\t0.5\t1.5\n2\t0.5\tx\n", "could not convert"),
        ("1\t0.5\n2\t0.5\n", "rows have 2 fields, the header 3"),
        ("1\t0.5\t1.5\n3\t0.5\t1.5\n", "not 1..2"),
        ("0\t0.5\t1.5\n1\t0.5\t1.5\n", "not 1..2"),
    ],
)
def test_chain_tsv_rejects_malformed_rows(body, message):
    with pytest.raises(ValueError, match=message):
        read_chain_tsv(io.StringIO("iteration\ta\tb\n" + body))


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("4\t0.5\tx\n", "could not convert string 'x' to float64 at line 5"),
        ("4\t0.5\n", "columns changed from 3 to 2 at line 5"),
        ("4\t0.5\t1.5\t2.5\n", "columns changed from 3 to 4 at line 5"),
        ("\t0.5\t1.5\n", "could not convert string '' to float64 at line 5"),
        ("7\t0.5\t1.5\n", "not 1..4: line 5 holds 7"),
    ],
)
@pytest.mark.parametrize("blank_line", [False, True])
def test_chain_tsv_errors_name_the_file_line(bad_row, message, blank_line):
    # Rows 1-3 repeat one another, so the faulty row is the second
    # distinct row; a blank line before it moves it to file line 6.
    body = "1\t0.5\t1.5\n2\t0.5\t1.5\n3\t0.5\t1.5\n" + "\n" * blank_line
    if blank_line:
        message = message.replace("line 5", "line 6")
    with pytest.raises(ValueError, match=message):
        read_chain_tsv(io.StringIO("iteration\ta\tb\n" + body + bad_row))


def assert_round_trip(chain):
    """The writer matches the per-float reference byte for byte, and the
    reader gives back the draws bit for bit (a NaN as a NaN)."""
    expected = io.StringIO()
    reference_write_chain_tsv(chain, expected)
    buffer = io.StringIO()
    write_chain_tsv(chain, buffer)
    assert buffer.getvalue() == expected.getvalue()
    back = read_chain_tsv(io.StringIO(buffer.getvalue()))
    assert back.parameter_names == chain.parameter_names
    nan = np.isnan(chain.draws)
    assert np.array_equal(np.isnan(back.draws), nan)
    assert np.array_equal(
        back.draws.view(np.int64)[~nan], chain.draws.view(np.int64)[~nan]
    )
    assert back.draws.flags.c_contiguous


def test_chain_tsv_rows_equal_as_numbers_but_not_as_bits_are_distinct():
    draws = np.array([
        [0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
        [0.0, 2.0], [0.0, 2.0], [0.0, 2.0], [0.0, 2.0],
    ])
    # Quiet NaNs with different payloads and signs.
    draws.view(np.uint64)[4:, 0] = [
        0x7FF8000000000000, 0x7FF8000000000001, 0x7FF8000000000001,
        0xFFF8000000000000,
    ]
    assert_round_trip(make_chain(draws))


def test_chain_tsv_runs_across_block_boundaries():
    rows = diagnostics._BLOCK_ROWS
    # Runs that end just before, cross, start at and span block edges.
    runs = [rows - 3, 7, 1, 2 * rows - 5, 1, rows - 1, 3]
    values = np.random.default_rng(4).standard_normal((len(runs), 4))
    chain = make_chain(np.repeat(values, runs, axis=0))
    assert chain.draws.shape[0] == 4 * rows + 3
    assert_round_trip(chain)


@pytest.mark.parametrize("moves", [False, True])
def test_chain_tsv_chain_that_never_moves_or_always_moves(moves):
    rng = np.random.default_rng(5)
    n_rows = 2 * diagnostics._BLOCK_ROWS + 11
    if moves:
        draws = rng.standard_normal((n_rows, 5))
    else:
        draws = np.tile(rng.standard_normal(5), (n_rows, 1))
    assert_round_trip(make_chain(draws))


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(st.integers(1, 400), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_tsv_round_trips_any_repeat_pattern(runs, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((len(runs), 3))
    # Special values, including 0.0 next to -0.0 and NaN, in some cells.
    specials = np.array(SPECIAL_DRAWS + [0.0, math.nan, -math.inf])
    pick = rng.random(values.shape) < 0.3
    values[pick] = rng.choice(specials, size=int(pick.sum()))
    assert_round_trip(make_chain(np.repeat(values, runs, axis=0)))


def test_chain_tsv_reader_parses_each_distinct_row_once(monkeypatch):
    rng = np.random.default_rng(6)
    runs = rng.integers(1, 9, size=50)
    chain = make_chain(np.repeat(rng.standard_normal((50, 3)), runs, axis=0))
    text = io.StringIO()
    write_chain_tsv(chain, text)

    parsed = []
    loadtxt = np.loadtxt

    def counting_loadtxt(rows, *args, **kwargs):
        parsed.append(len(rows))
        return loadtxt(rows, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    back = read_chain_tsv(io.StringIO(text.getvalue()))
    assert parsed == [50]
    assert np.array_equal(back.draws, chain.draws)


def test_chain_tsv_repeats_numbered_other_than_str_i_are_parsed():
    # "2.0" is iteration 2 to np.loadtxt; "2" on row 3 is not 3.
    body = "1\t0.5\t1.5\n2.0\t0.5\t1.5\n3\t0.5\t1.5\n"
    back = read_chain_tsv(io.StringIO("iteration\ta\tb\n" + body))
    assert back.draws.tolist() == [[0.5, 1.5]] * 3
    body = "1\t0.5\t1.5\n2\t0.5\t1.5\n2\t0.5\t1.5\n"
    with pytest.raises(ValueError, match="not 1..3: line 4 holds 2"):
        read_chain_tsv(io.StringIO("iteration\ta\tb\n" + body))


def test_chain_tsv_reads_crlf_line_ends():
    body = "1\t0.5\t1.5\r\n2\t0.5\t1.5\r\n3\t0.25\t1.5\r\n\r\n"
    back = read_chain_tsv(io.StringIO("iteration\ta\tb\r\n" + body))
    assert back.parameter_names == ("a", "b")
    assert back.draws.tolist() == [[0.5, 1.5], [0.5, 1.5], [0.25, 1.5]]


def test_rhat_trace_tsv_layout(tmp_path):
    chains = two_param_chains(seed=11, s=400)
    dest = tmp_path / "rhat_trace.tsv"
    write_rhat_trace_tsv(chains, dest, n_points=8)
    lines = dest.read_text().splitlines()
    assert lines[0].split("\t")[0] == "iteration"
    assert lines[0].split("\t")[1:] == ["p0", "p1"]
    assert lines[-1].split("\t")[0] == "400"
    ends, _ = shrink_factor_trace(chains, n_points=8)
    assert len(lines) - 1 == ends.shape[0]
