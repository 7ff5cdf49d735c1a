"""Shrink factor, posterior summaries, and their serialized forms."""

import io
import itertools
import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmeta import (
    ChainOutput,
    PosteriorSummary,
    read_chain_tsv,
    shrink_factor_trace,
    summarize,
    write_chain_tsv,
    write_rhat_trace_tsv,
    write_summary_tsv,
)
from featmeta import diagnostics
from featmeta.diagnostics import SUMMARY_COLUMNS

from reference import effective_sample_size, gelman_rubin, mcse_mean


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


def test_trace_ends_are_np_uniques_of_the_grid():
    # The copies store the ends, so dropping the grid's repeats without
    # np.unique must keep its values and its int64 dtype.
    for s in range(2, 3000):
        for n_points in (1, 2, 3, 5, 19, 20, 21, 50):
            points = min(n_points, s)
            grid = np.linspace(max(2, s // points), s, points).astype(int)
            want = np.unique(grid)
            got = diagnostics._trace_ends(s, n_points)
            assert got.dtype == want.dtype == np.int64, (s, n_points)
            assert np.array_equal(got, want), (s, n_points)


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


def test_trace_rejects_chains_that_name_parameters_differently():
    chains = two_param_chains()
    chains[2] = replace(chains[2], parameter_names=("p1", "p0"))
    with pytest.raises(ValueError, match="chain 2 names"):
        shrink_factor_trace(chains)


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




@pytest.mark.parametrize("s", [2, 3, 7, 50])
def test_trace_with_more_points_than_draws_equals_reference(s):
    # The grid is clamped to s points; every n_points up to s + 5 still
    # gives the ends and values of the unclamped grid.
    chains = mixed_chains(2, s, seed=s)
    for n_points in range(1, s + 6):
        ends, values = shrink_factor_trace(chains, n_points=n_points)
        ref_ends, ref_values = reference_shrink_factor_trace(chains, n_points)
        assert np.array_equal(ends, ref_ends), n_points
        assert np.array_equal(values, ref_values), n_points


def test_trace_memory_does_not_grow_with_n_points():
    chains = two_param_chains(s=50)[:2]
    tracemalloc.start()
    try:
        ends, _ = shrink_factor_trace(chains, n_points=10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(ends, np.arange(2, 51))
    assert peak < 1 << 20


def test_trace_is_the_same_for_any_parameter_grouping(monkeypatch):
    chains = mixed_chains(4, 2001, seed=12)
    _, reference = reference_shrink_factor_trace(chains)
    one_parameter = 4 * 2001 * 8
    for budget in (1, 3 * one_parameter, 2**30):
        monkeypatch.setattr(diagnostics, "_STACK_BYTES", budget)
        _, values = shrink_factor_trace(chains)
        assert np.array_equal(values, reference)


def with_trace_moments(chains, n_points=None):
    """``chains`` carrying their trace moments: at the default trace's
    ends, as ``fit`` gives them, or at those of ``n_points`` rows."""
    if n_points is None:
        return diagnostics._with_trace_moments(chains)
    ends = diagnostics._trace_ends(chains[0].n_samples, n_points)
    means, squares = diagnostics._prefix_moments([c.draws for c in chains], ends)
    return [
        replace(c, trace_moments=(ends, means[..., k], squares[..., k]))
        for k, c in enumerate(chains)
    ]


def count_computed_moments(monkeypatch):
    """The chain counts of each batch of trace moments computed from
    draws from now on."""
    batches = []
    compute = diagnostics._prefix_moments

    def counted(draws, ends):
        batches.append(len(draws))
        return compute(draws, ends)

    monkeypatch.setattr(diagnostics, "_prefix_moments", counted)
    return batches


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("s", [3, 101, 1999])
def test_stored_moments_give_the_computed_trace_for_any_chains_in_any_order(
    m, s, monkeypatch
):
    chains = mixed_chains(m, s, seed=100 * m + s)
    stored = with_trace_moments(chains)
    batches = count_computed_moments(monkeypatch)
    # Every ordered subset of up to 4 chains; of 5 or 6, every subset in
    # its own order and in one shuffled order.
    rng = np.random.default_rng(m + s)
    orders = []
    for size in range(2, m + 1):
        for subset in itertools.combinations(range(m), size):
            if m <= 4:
                orders += itertools.permutations(subset)
            else:
                orders += [subset, tuple(rng.permutation(subset))]
    for order in orders:
        size = len(order)
        ends, want = shrink_factor_trace([chains[k] for k in order])
        assert batches == [size]
        from_stored = shrink_factor_trace([stored[k] for k in order])
        assert batches == [size]  # nothing computed
        # Stored and computed moments mixed: the computed ones in one batch.
        mixed = [(stored if i % 2 else chains)[k] for i, k in enumerate(order)]
        from_mixed = shrink_factor_trace(mixed)
        assert batches == [size, size - size // 2]
        for got_ends, got in (from_stored, from_mixed):
            assert np.array_equal(got_ends, ends)
            assert same_bits(got, want)
        batches.clear()


def test_moments_stored_for_other_ends_are_computed_again(monkeypatch):
    chains = mixed_chains(3, 101, seed=5)
    stored = with_trace_moments(chains, n_points=13)
    batches = count_computed_moments(monkeypatch)
    for n_points in (1, 12, 20, 14):
        assert same_bits(
            shrink_factor_trace(stored, n_points)[1],
            shrink_factor_trace(chains, n_points)[1],
        )
    assert batches == [3] * 8
    shrink_factor_trace(stored, 13)
    assert batches == [3] * 8


def test_summary_r_hat_from_stored_moments_is_the_computed_one():
    chains = mixed_chains(4, 777, seed=16)
    stored = with_trace_moments(chains)
    assert summarize(stored) == summarize(chains)


@pytest.mark.parametrize("s", [3, 101, 1999])
def test_trace_moments_of_each_chain_are_those_of_the_chain_alone(s):
    chains = mixed_chains(3, s, seed=6)
    for chain in with_trace_moments(chains):
        ends, means, squares = chain.trace_moments
        assert np.array_equal(ends, shrink_factor_trace(chains)[0])
        want = diagnostics._prefix_moments([chain.draws], ends)
        assert same_bits(means, want[0][..., 0])
        assert same_bits(squares, want[1][..., 0])
    for lengths in ((1, 1), (5, 6)):
        with pytest.raises(ValueError, match="equal length"):
            with_trace_moments([make_chain(np.ones((n, 2))) for n in lengths])


def test_summary_and_gelman_rubin_equal_reference():
    chains = mixed_chains(4, 777, seed=13)
    summaries = summarize(chains)
    for j, summary in enumerate(summaries):
        columns = [c.draws[:, j] for c in chains]
        assert summary.r_hat == reference_gelman_rubin(columns)
        assert gelman_rubin(columns) == summary.r_hat


def test_summary_r_hat_is_the_last_row_of_the_trace():
    for m, s in ((2, 3), (4, 777), (5, 2001)):
        chains = mixed_chains(m, s, seed=m + s)
        _, values = shrink_factor_trace(chains)
        r_hat = np.array([summary.r_hat for summary in summarize(chains)])
        assert np.array_equal(r_hat.view(np.int64), values[-1].view(np.int64))
        assert summarize(chains, r_hat=values[-1]) == summarize(chains)


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def reference_summarize(chains):
    """Quantiles and tail masses of each column of the pooled draws."""
    pooled = np.vstack([c.draws for c in chains])
    out = []
    for j in range(pooled.shape[1]):
        column = pooled[:, j]
        low, mid, high = np.quantile(column, [0.025, 0.5, 0.975])
        out.append((mid, low, high, np.mean(column < 0.0), np.mean(column > 0.0)))
    return out


def test_summaries_equal_the_pooled_reference_bit_for_bit():
    chains = mixed_chains(4, 777, seed=14)
    chains[1].draws[5, 0] = -0.0
    chains[2].draws[:3, 1] = 0.0
    got = [
        (s.median, s.ci_low, s.ci_high, s.p_below, s.p_above)
        for s in summarize(chains)
    ]
    want = reference_summarize(chains)
    assert np.array_equal(
        np.array(got).view(np.int64), np.array(want, dtype=float).view(np.int64)
    )


def test_summarize_keeps_no_pooled_copy_of_the_draws():
    # Four chains of 20 000 draws of 11 parameters, as a default fit of
    # the recovery schema gives. A pooled (80 000, 11) copy alone is
    # 7.04 MB; the bound is half of that.
    rng = np.random.default_rng(15)
    chains = [make_chain(rng.standard_normal((20_000, 11)), k) for k in range(4)]
    tracemalloc.start()
    try:
        summarize(chains)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.52e6


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


def assert_quantile_bits(summary, want):
    """The summary's (ci_low, median, ci_high) are ``want``'s bits."""
    got = np.array([summary.ci_low, summary.median, summary.ci_high])
    assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64))


def test_quantiles_match_pooled_vector():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal(300), rng.standard_normal(300)
    (summary,) = summarize([make_chain(a, 0), make_chain(b, 1)])
    pooled = np.concatenate([a, b])
    want = np.quantile(pooled, [0.025, 0.5, 0.975])
    assert_quantile_bits(summary, want)


SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2e-308, -1.5e-310, 1.0, -1.0, 1e308, -1e308,
)


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
        min_size=1,
        max_size=500,
    ),
    m=st.integers(1, 4),
)
def test_summary_quantiles_are_np_quantile_bit_for_bit(values, m):
    # Heavy ties come from the special values; the chains may differ in
    # length, as r_hat is passed in.
    pooled = np.asarray(values, dtype=float)
    parts = np.array_split(pooled, min(m, pooled.size))
    chains = [make_chain(part, k) for k, part in enumerate(parts)]
    with np.errstate(all="ignore"):  # numpy's lerp warns on inf - inf
        want = np.quantile(pooled, [0.025, 0.5, 0.975])
        (summary,) = summarize(chains, r_hat=np.ones(1))
    assert_quantile_bits(summary, want)


@pytest.mark.parametrize(
    "draws, want",
    [
        ([2.5], [2.5, 2.5, 2.5]),
        # numpy reads the one draw twice with gamma 1: inf - inf is nan.
        ([math.inf], [math.nan] * 3),
        ([-0.0], [-0.0] * 3),
        ([1.0, 3.0], [1.05, 2.0, 2.95]),
        ([3.0, 1.0], [1.05, 2.0, 2.95]),
        ([4.0, 1.0, 2.0], [1.05, 2.0, 3.9]),
        ([1.0, math.nan, 2.0], [math.nan] * 3),
    ],
)
def test_summary_quantiles_of_one_to_three_draws(draws, want):
    (summary,) = summarize([make_chain(draws)])
    with np.errstate(all="ignore"):
        exact = np.quantile(np.asarray(draws), [0.025, 0.5, 0.975])
    assert_quantile_bits(summary, exact)
    got = [summary.ci_low, summary.median, summary.ci_high]
    assert got == pytest.approx(want, rel=1e-15, nan_ok=True)


def test_np_quantile_runs_only_for_a_signed_zero_tie_at_a_read_rank(
    monkeypatch,
):
    calls = []
    quantile = np.quantile

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return quantile(*args, **kwargs)

    monkeypatch.setattr(np, "quantile", counted)
    rng = np.random.default_rng(16)
    chains = [make_chain(rng.standard_normal((200, 3)), k) for k in range(2)]
    summarize(chains)
    assert calls == []
    # Of 400 pooled draws the 2.5 % point reads ranks 9 and 10
    # (v = 399 * 0.025): 9 draws below zero, then 0.0 and -0.0.
    for chain in chains:
        chain.draws[:, 1] = np.abs(chain.draws[:, 1]) + 0.1
    chains[0].draws[:9, 1] *= -1.0
    chains[0].draws[20, 1] = 0.0
    chains[1].draws[30, 1] = -0.0
    got = summarize(chains)
    assert calls == [400]
    want = reference_summarize(chains)
    for summary, (mid, low, high, *_) in zip(got, want):
        assert_quantile_bits(summary, [low, mid, high])


def test_summarize_rejects_chains_that_name_parameters_differently():
    rng = np.random.default_rng(17)
    draws = rng.standard_normal((50, 2))
    chains = [
        make_chain(draws, 0, ("alpha", "beta_1")),
        make_chain(draws, 1, ("alpha", "beta_1")),
        make_chain(draws, 2, ("beta_1", "alpha")),
        make_chain(draws, 3, ("beta_2", "alpha")),
    ]
    with pytest.raises(ValueError, match="chain 2 names"):
        summarize(chains)
    with pytest.raises(ValueError, match="chain 2 names"):
        summarize(chains, r_hat=np.ones(2))


@pytest.mark.parametrize("first, other", [(2, 3), (3, 2)])
def test_summarize_rejects_a_narrower_or_wider_first_chain(first, other):
    rng = np.random.default_rng(18)
    chains = [
        make_chain(rng.standard_normal((50, first)), 0),
        make_chain(rng.standard_normal((50, other)), 1),
    ]
    with pytest.raises(ValueError, match="chain 1 names"):
        summarize(chains, r_hat=np.ones(first))


@pytest.mark.parametrize("length", [0, 1, 3])
def test_summarize_rejects_r_hat_of_the_wrong_length(length):
    chains = two_param_chains(seed=19)
    with pytest.raises(ValueError, match="r_hat"):
        summarize(chains, r_hat=np.ones(length))


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


@pytest.mark.parametrize("shape", [(4, 3), (4, 1), (4,), (4, 2, 1), ()])
def test_a_chain_needs_one_draw_column_per_parameter(shape):
    with pytest.raises(ValueError, match="not one column for each of 2"):
        ChainOutput(0, np.zeros(shape), ("a", "b"))
    ChainOutput(0, np.zeros((4, 2)), ("a", "b"))
    ChainOutput(0, np.zeros((0, 2)), ("a", "b"))  # a file of no rows


def test_a_chain_needs_trace_moments_of_one_row_per_end():
    ends = np.array([2, 3, 4])
    ChainOutput(0, np.zeros((4, 2)), ("a", "b"),
                trace_moments=(ends, np.zeros((3, 2)), np.zeros((3, 2))))
    for means, squares in (
        (np.zeros((2, 2)), np.zeros((3, 2))),
        (np.zeros((3, 2)), np.zeros((3, 3))),
        (np.zeros(6), np.zeros(6)),
    ):
        with pytest.raises(ValueError, match="are not \\(3, 2\\)"):
            ChainOutput(0, np.zeros((4, 2)), ("a", "b"),
                        trace_moments=(ends, means, squares))


def test_summarize_and_trace_name_the_chain_with_no_draws():
    full = make_chain(np.ones((5, 2)), 0)
    empty = make_chain(np.ones((0, 2)), 1)
    with pytest.raises(ValueError, match="chain 0 holds no draws"):
        summarize([replace(empty, chain_index=0)])
    for call in (summarize, shrink_factor_trace):
        with pytest.raises(ValueError, match="chain 1 holds no draws"):
            call([full, empty])
    with pytest.raises(ValueError, match="chain 1 holds no draws"):
        summarize([full, empty], r_hat=np.ones(2))


def test_infinite_draws_give_nan_factors_without_a_warning():
    # +inf in one chain and -inf in another make inf - inf in the prefix
    # moments and in the variance of the chain means.
    draws = np.random.default_rng(21).standard_normal((2, 60, 2))
    draws[0, 10, 0], draws[1, 30, 0] = math.inf, -math.inf
    chains = [make_chain(d, k) for k, d in enumerate(draws)]
    finite = [make_chain(d[:, 1:], k) for k, d in enumerate(draws)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends, values = shrink_factor_trace(chains)
        summaries = summarize(chains)
        stored = shrink_factor_trace(diagnostics._with_trace_moments(chains))
    # A prefix holding the +inf draw (index 10) has a nan factor.
    assert np.array_equal(np.isnan(values[:, 0]), ends > 10)
    assert same_bits(values[:, 1:], shrink_factor_trace(finite)[1])
    assert same_bits(stored[1], values)
    assert math.isnan(summaries[0].r_hat)
    assert summaries[1].r_hat == values[-1, 1]


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


def tsv_file(directory, text):
    """A chain TSV holding ``text``, with no binary copy beside it."""
    path = directory / "chain.tsv"
    path.write_text(text)
    return path


def parsed(path):
    """The chain as parsing the TSV at ``path`` gives it."""
    with open(path) as stream:
        return diagnostics._read_chain(stream, 0)


def test_chain_tsv_read_leaves_independence_acceptance_unknown(tmp_path):
    chain = replace(
        make_chain(np.arange(6.0).reshape(3, 2)), independence_accept_rate=0.9
    )
    path = tmp_path / "chain_1.tsv"
    write_chain_tsv(chain, path)
    assert math.isnan(read_chain_tsv(path).independence_accept_rate)


def test_chain_tsv_read_leaves_sampler_bookkeeping_unknown(tmp_path):
    chain = replace(
        make_chain(np.arange(6.0).reshape(3, 2)),
        nonfinite_rejections=2, adapt_accept_rate=0.3,
    )
    path = tmp_path / "chain_1.tsv"
    write_chain_tsv(chain, path)
    back = read_chain_tsv(path)
    assert math.isnan(back.accept_rate) and math.isnan(back.adapt_accept_rate)
    assert math.isnan(back.proposal_log_scale)
    assert back.seed_used == -1 and back.nonfinite_rejections == -1
    assert back.density_evaluations == -1


def test_a_record_of_draws_alone_knows_no_statistic_and_round_trips(tmp_path):
    draws = np.array([[0.5, -1.25], [0.5, -1.25], [2.0, 1e-300]])
    chain = ChainOutput(3, draws, ("a", "tau"))
    for name in (
        "accept_rate", "proposal_log_scale", "adapt_accept_rate",
        "independence_accept_rate",
    ):
        assert math.isnan(getattr(chain, name))
    assert chain.seed_used == chain.nonfinite_rejections == -1
    assert chain.density_evaluations == -1
    path = tmp_path / "chain_4.tsv"
    copy = write_chain_tsv(chain, path)
    from_copy = read_chain_tsv(path, 3)
    copy.unlink()
    for back in (from_copy, read_chain_tsv(path, 3)):  # the copy, then parsing
        for field in fields(ChainOutput):
            want, got = getattr(chain, field.name), getattr(back, field.name)
            if field.name == "draws":
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
            else:
                assert got == want or (math.isnan(got) and math.isnan(want))


def test_chain_tsv_requires_iteration_column(tmp_path):
    bad = tsv_file(tmp_path, "a\tb\n1.0\t2.0\n")
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

    path = tmp_path / "chain_1.tsv"
    write_chain_tsv(chain, path)
    assert path.read_text() == expected.getvalue()

    for back in (read_chain_tsv(path), parsed(path)):
        assert back.parameter_names == chain.parameter_names
        assert np.array_equal(
            back.draws.view(np.int64), chain.draws.view(np.int64)
        )


def test_chain_tsv_header_only_has_no_draws(tmp_path):
    back = read_chain_tsv(tsv_file(tmp_path, "iteration\ta\tb\n"))
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
def test_chain_tsv_rejects_malformed_rows(body, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        read_chain_tsv(tsv_file(tmp_path, "iteration\ta\tb\n" + body))


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
def test_chain_tsv_errors_name_the_file_line(
    bad_row, message, blank_line, tmp_path
):
    # The faulty row is the fourth row, file line 5 (the header being
    # line 1); a blank line before it moves it to file line 6.
    body = "1\t0.5\t1.5\n2\t0.5\t1.5\n3\t0.5\t1.5\n" + "\n" * blank_line
    if blank_line:
        message = message.replace("line 5", "line 6")
    with pytest.raises(ValueError, match=message):
        read_chain_tsv(
            tsv_file(tmp_path, "iteration\ta\tb\n" + body + bad_row)
        )


def assert_round_trip(chain, directory):
    """The writer matches the per-float reference byte for byte, and
    parsing gives back the draws bit for bit (a NaN as a NaN)."""
    expected = io.StringIO()
    reference_write_chain_tsv(chain, expected)
    path = directory / "chain_1.tsv"
    write_chain_tsv(chain, path)
    assert path.read_text() == expected.getvalue()
    back = parsed(path)
    assert back.parameter_names == chain.parameter_names
    nan = np.isnan(chain.draws)
    assert np.array_equal(np.isnan(back.draws), nan)
    assert np.array_equal(
        back.draws.view(np.int64)[~nan], chain.draws.view(np.int64)[~nan]
    )
    assert back.draws.flags.c_contiguous


def test_chain_tsv_rows_equal_as_numbers_but_not_as_bits_are_distinct(
    tmp_path,
):
    draws = np.array([
        [0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
        [0.0, 2.0], [0.0, 2.0], [0.0, 2.0], [0.0, 2.0],
    ])
    # Quiet NaNs with different payloads and signs.
    draws.view(np.uint64)[4:, 0] = [
        0x7FF8000000000000, 0x7FF8000000000001, 0x7FF8000000000001,
        0xFFF8000000000000,
    ]
    assert_round_trip(make_chain(draws), tmp_path)


def test_chain_tsv_runs_across_block_boundaries(tmp_path):
    rows = diagnostics._BLOCK_ROWS
    # Runs that end just before, cross, start at and span block edges.
    runs = [rows - 3, 7, 1, 2 * rows - 5, 1, rows - 1, 3]
    values = np.random.default_rng(4).standard_normal((len(runs), 4))
    chain = make_chain(np.repeat(values, runs, axis=0))
    assert chain.draws.shape[0] == 4 * rows + 3
    assert_round_trip(chain, tmp_path)


@pytest.mark.parametrize("moves", [False, True])
def test_chain_tsv_chain_that_never_moves_or_always_moves(moves, tmp_path):
    rng = np.random.default_rng(5)
    n_rows = 2 * diagnostics._BLOCK_ROWS + 11
    if moves:
        draws = rng.standard_normal((n_rows, 5))
    else:
        draws = np.tile(rng.standard_normal(5), (n_rows, 1))
    assert_round_trip(make_chain(draws), tmp_path)


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(st.integers(1, 400), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_tsv_round_trips_any_repeat_pattern(
    runs, seed, tmp_path_factory
):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((len(runs), 3))
    # Special values, including 0.0 next to -0.0 and NaN, in some cells.
    specials = np.array(SPECIAL_DRAWS + [0.0, math.nan, -math.inf])
    pick = rng.random(values.shape) < 0.3
    values[pick] = rng.choice(specials, size=int(pick.sum()))
    assert_round_trip(
        make_chain(np.repeat(values, runs, axis=0)),
        tmp_path_factory.mktemp("repeats"),
    )


def test_chain_tsv_repeats_numbered_other_than_str_i_are_parsed(tmp_path):
    # "2.0" is iteration 2 to np.loadtxt; "2" on row 3 is not 3.
    body = "1\t0.5\t1.5\n2.0\t0.5\t1.5\n3\t0.5\t1.5\n"
    back = read_chain_tsv(tsv_file(tmp_path, "iteration\ta\tb\n" + body))
    assert back.draws.tolist() == [[0.5, 1.5]] * 3
    body = "1\t0.5\t1.5\n2\t0.5\t1.5\n2\t0.5\t1.5\n"
    with pytest.raises(ValueError, match="not 1..3: line 4 holds 2"):
        read_chain_tsv(tsv_file(tmp_path, "iteration\ta\tb\n" + body))


def test_chain_tsv_reads_crlf_line_ends(tmp_path):
    body = "1\t0.5\t1.5\r\n2\t0.5\t1.5\r\n3\t0.25\t1.5\r\n\r\n"
    back = read_chain_tsv(tsv_file(tmp_path, "iteration\ta\tb\r\n" + body))
    assert back.parameter_names == ("a", "b")
    assert back.draws.tolist() == [[0.5, 1.5], [0.5, 1.5], [0.25, 1.5]]


# ---------------------------------------------------------------------------
# The binary copy beside a chain TSV
# ---------------------------------------------------------------------------


def odd_values_chain():
    """Rows with -0.0, +-inf, NaNs of several payloads and signs, and
    repeats."""
    draws = np.random.default_rng(12).standard_normal((9, 3))
    draws[1] = draws[0]
    draws[2, 0], draws[3, 1], draws[4, 2] = -0.0, math.inf, -math.inf
    draws.view(np.uint64)[5:8, 1] = [
        0x7FF8000000000123, 0xFFF8000000000000, 0x7FF0000000000001,
    ]
    return make_chain(draws, names=("alpha", "beta_1", "tau"))


def assert_same_chain(a, b):
    assert a.parameter_names == b.parameter_names
    assert a.draws.shape == b.draws.shape
    assert np.array_equal(a.draws.view(np.int64), b.draws.view(np.int64))
    assert a.draws.flags.c_contiguous and b.draws.flags.c_contiguous


def moments_chain():
    """A chain of finite draws that carries its trace moments."""
    draws = np.random.default_rng(13).standard_normal((9, 3))
    draws[1] = draws[0]
    chain = make_chain(draws, names=("alpha", "beta_1", "tau"))
    return with_trace_moments([chain])[0]


def assert_same_moments(got, want):
    assert got is not None and len(got) == 3
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert same_bits(a, b)


def test_chain_copy_keeps_the_trace_moments(tmp_path, monkeypatch):
    chain = moments_chain()
    path = tmp_path / "chain_1.tsv"
    copy = write_chain_tsv(chain, path)
    with np.load(copy, allow_pickle=False) as stored:
        assert sorted(stored.files) == [
            "draws", "sha256", "trace_ends", "trace_means", "trace_squares",
        ]
    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "_read_chain", None)  # no parsing
        back = read_chain_tsv(path)
    assert_same_chain(back, parsed(path))
    assert_same_moments(back.trace_moments, chain.trace_moments)

    # A copy of the earlier layout, draws and digest alone: the draws are
    # still read from it, and the moments computed.
    with np.load(copy, allow_pickle=False) as stored:
        np.savez(copy, draws=stored["draws"], sha256=stored["sha256"])
    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "_read_chain", None)
        back = read_chain_tsv(path)
    assert_same_chain(back, parsed(path))
    assert back.trace_moments is None


def test_chain_copy_of_draws_with_a_nan_holds_no_trace_moments(tmp_path):
    # The copy saves every NaN as the default NaN, so the moments of the
    # chain's own draws need not be those of the saved ones.
    draws = moments_chain().draws.copy()
    draws[4, 1] = math.nan
    (chain,) = with_trace_moments([make_chain(draws)])
    assert chain.trace_moments is not None
    path = tmp_path / "chain_1.tsv"
    with np.load(write_chain_tsv(chain, path), allow_pickle=False) as stored:
        assert sorted(stored.files) == ["draws", "sha256"]
    assert read_chain_tsv(path).trace_moments is None


def test_chain_copy_gives_the_parsed_draws_bit_for_bit(tmp_path, monkeypatch):
    path = tmp_path / "chain_1.tsv"
    copy = write_chain_tsv(odd_values_chain(), path)
    assert copy == tmp_path / "chain_1.npz" and copy.is_file()
    want = parsed(path)
    assert np.isnan(want.draws[5:8, 1]).all()

    def no_parsing(*args):
        raise AssertionError("the TSV was parsed")

    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "_read_chain", no_parsing)
        from_copy = read_chain_tsv(str(path), chain_index=2)
    assert from_copy.chain_index == 2
    assert_same_chain(from_copy, want)

    copy.unlink()
    assert_same_chain(read_chain_tsv(path), want)


def test_chain_copy_is_read_past_a_header_longer_than_a_hash_block(
    tmp_path, monkeypatch
):
    names = tuple(f"p{j}_" + "x" * 5000 for j in range(3))
    chain = make_chain(odd_values_chain().draws, names=names)
    path = tmp_path / "chain_1.tsv"
    monkeypatch.setattr(diagnostics, "_HASH_BYTES", 64)
    write_chain_tsv(chain, path)
    assert len(path.read_text().splitlines()[0]) > 200 * 64
    want = parsed(path)
    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "_read_chain", None)  # no parsing
        assert_same_chain(read_chain_tsv(path), want)

    # A header changed after the fit changes the digest: the TSV is parsed.
    path.write_text(path.read_text().replace("p1_", "q1_", 1))
    back = read_chain_tsv(path)
    assert back.parameter_names[1].startswith("q1_")
    assert_same_chain(back, parsed(path))


def test_chain_copy_is_not_written_onto_the_tsv(tmp_path):
    assert write_chain_tsv(odd_values_chain(), tmp_path / "chain.npz") is None
    assert [p.name for p in tmp_path.iterdir()] == ["chain.npz"]
    assert_same_chain(
        read_chain_tsv(tmp_path / "chain.npz"), parsed(tmp_path / "chain.npz")
    )


def test_chain_copy_of_a_changed_tsv_is_ignored(tmp_path):
    path = tmp_path / "chain_1.tsv"
    for chain in (moments_chain(), odd_values_chain()):
        write_chain_tsv(chain, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "1\t0.25\t0.5\t0.75\n"
        path.write_text("".join(lines))
        back = read_chain_tsv(path)
        assert back.draws[0].tolist() == [0.25, 0.5, 0.75]
        assert_same_chain(back, parsed(path))
        assert back.trace_moments is None

    path.write_text("".join(lines[:1] + lines[2:]))
    with pytest.raises(ValueError, match="not 1..8: line 2 holds 2"):
        read_chain_tsv(path)


def test_chain_copy_with_any_byte_flipped_or_cut_off_leaves_the_tsv_parsed(
    tmp_path,
):
    # Whatever the damage, the draws are those parsing gives, and the
    # trace moments are either the chain's own or computed again.
    path = tmp_path / "chain_1.tsv"
    for chain in (odd_values_chain(), moments_chain()):
        copy = write_chain_tsv(chain, path)
        want = parsed(path)
        intact = copy.read_bytes()
        damaged = [intact[:cut] for cut in range(len(intact))]
        for i in range(len(intact)):
            flipped = bytearray(intact)
            flipped[i] ^= 0x10
            damaged.append(bytes(flipped))
        for data in damaged:
            copy.write_bytes(data)
            back = read_chain_tsv(path)
            assert_same_chain(back, want)
            if back.trace_moments is not None:
                assert_same_moments(back.trace_moments, chain.trace_moments)


def test_chain_copy_of_the_wrong_shape_or_type_is_ignored(tmp_path, monkeypatch):
    path = tmp_path / "chain_1.tsv"
    chain = moments_chain()
    copy = write_chain_tsv(chain, path)
    want = parsed(path)
    with np.load(copy, allow_pickle=False) as stored:
        members = {name: stored[name] for name in stored.files}
    for draws in (
        chain.draws[:, :2], chain.draws.ravel(), chain.draws.view(np.int64),
        chain.draws[None],
    ):
        np.savez(copy, draws=draws, sha256=members["sha256"])
        assert_same_chain(read_chain_tsv(path), want)
    # Trace moments of the wrong shape or type are computed again, from
    # the draws of the copy.
    ends, means, squares = chain.trace_moments
    for name, value in (
        ("trace_ends", ends.astype(float)),
        ("trace_ends", ends.astype(np.int32)),
        ("trace_ends", ends[None]),
        ("trace_ends", ends[:-1]),
        ("trace_means", means.astype(np.float32)),
        ("trace_means", means[:, :2]),
        ("trace_means", means.ravel()),
        ("trace_squares", squares[:-1]),
        ("trace_squares", squares.view(np.int64)),
    ):
        np.savez(copy, **dict(members, **{name: value}))
        with monkeypatch.context() as patch:
            patch.setattr(diagnostics, "_read_chain", None)  # no parsing
            back = read_chain_tsv(path)
        assert_same_chain(back, want)
        assert back.trace_moments is None, name
    # A copy that lacks one of the three is not trusted at all.
    del members["trace_squares"]
    np.savez(copy, **members)
    back = read_chain_tsv(path)
    assert_same_chain(back, want)
    assert back.trace_moments is None


_unpickled = []


class _Trap:
    def __reduce__(self):
        return _unpickled.append, (True,)


def test_chain_copy_is_loaded_without_unpickling(tmp_path):
    path = tmp_path / "chain_1.tsv"
    copy = write_chain_tsv(odd_values_chain(), path)
    with np.load(copy, allow_pickle=False) as stored:
        digest = stored["sha256"]
    draws = np.empty((9, 3), dtype=object)
    draws[...] = _Trap()
    np.savez(copy, draws=draws, sha256=digest)
    assert_same_chain(read_chain_tsv(path), parsed(path))
    assert _unpickled == []


def test_chain_files_of_a_smaller_run_replace_those_of_a_larger(tmp_path):
    chains = [
        make_chain(np.random.default_rng(k).standard_normal((30, 3)), k)
        for k in range(3)
    ]
    diagnostics.write_chain_files(tmp_path, chains)
    written = diagnostics.write_chain_files(tmp_path, chains[:2])
    assert sorted(p.name for p in (tmp_path / "chains").iterdir()) == [
        "chain_1.npz", "chain_1.tsv", "chain_2.npz", "chain_2.tsv",
    ]
    files = [("chains/chain_1.tsv", "chains/chain_1.npz"),
             ("chains/chain_2.tsv", "chains/chain_2.npz")]
    assert [held for _, held in written] == files
    read = diagnostics.read_chain_files(tmp_path)
    assert [held for _, held in read] == files
    for (got, _), (want, _), chain in zip(read, written, chains):
        assert_same_chain(got, chain)
        assert_same_moments(got.trace_moments, want.trace_moments)


def test_rhat_trace_tsv_layout(tmp_path):
    chains = two_param_chains(seed=11, s=400)
    dest = tmp_path / "rhat_trace.tsv"
    ends, values = shrink_factor_trace(chains, n_points=8)
    write_rhat_trace_tsv(chains, dest, (ends, values))
    lines = dest.read_text().splitlines()
    assert lines[0].split("\t")[0] == "iteration"
    assert lines[0].split("\t")[1:] == ["p0", "p1"]
    assert lines[-1].split("\t")[0] == "400"
    assert len(lines) - 1 == ends.shape[0]
    assert lines[-1].split("\t")[1:] == [f"{v:.6g}" for v in values[-1]]
