"""Within- and between-trial covariance assembly."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmeta import (
    CovarianceError,
    build_within_covariance,
    impute_ref_change_variance,
    rho_for_separation,
)
from featmeta.covariance import (
    between_structure,
    ensure_positive_semidefinite,
    within_covariance_stack,
)

from conftest import arm, decomposed_control_trial, grid_trial
from reference import (
    build_between_covariance,
    mvn_logpdf,
    reference_within_covariance,
)


# ---------------------------------------------------------------------------
# impute_ref_change_variance
# ---------------------------------------------------------------------------


def test_supplied_reference_variance_passthrough():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,)), arm("b", (0.0,))],
        categories=(1,), v=0.01, ref_change_var={1: 0.004},
    )
    assert impute_ref_change_variance(trial, 1) == 0.004


def test_imputation_takes_half_the_minimum():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,)), arm("b", (0.0,))],
        categories=(1,), v={("a", 1): 0.01, ("b", 1): 0.02},
    )
    dvar = impute_ref_change_variance(trial, 1)
    assert dvar == 0.005
    # and the resulting same-time block is PSD
    block = np.array([[0.01, dvar], [dvar, 0.02]])
    assert np.linalg.eigvalsh(block)[0] >= 0


def test_single_contrast_trial_never_uses_cross_arm_value():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,))], categories=(1,), v=0.0123,
    )
    within = build_within_covariance(trial, 0.8, 0.64)
    assert within.matrix.shape == (1, 1)
    assert within.matrix[0, 0] == 0.0123


# ---------------------------------------------------------------------------
# rho_for_separation
# ---------------------------------------------------------------------------


def test_rho_one_category_apart():
    assert rho_for_separation(0.8, 1, 2) == 0.8
    assert rho_for_separation(0.8, 2, 1) == 0.8


def test_rho_two_categories_apart():
    assert rho_for_separation(0.8, 1, 3) == 0.8**2
    assert rho_for_separation(0.8, 1, 3) == pytest.approx(0.64)


def test_rho_zero_base():
    assert rho_for_separation(0.0, 1, 2) == 0.0
    assert rho_for_separation(0.0, 1, 3) == 0.0


def test_rho_rejects_bad_base():
    with pytest.raises(ValueError):
        rho_for_separation(1.0, 1, 2)


# ---------------------------------------------------------------------------
# build_within_covariance
# ---------------------------------------------------------------------------


def test_two_arm_single_followup_is_scalar():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,))], categories=(1,), v=0.01,
    )
    within = build_within_covariance(trial, 0.8, 0.64)
    assert np.array_equal(within.matrix, [[0.01]])


def test_three_arm_single_followup_case_two():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,)), arm("b", (0.0,))],
        categories=(1,),
        v={("a", 1): 0.01, ("b", 1): 0.02}, ref_change_var={1: 0.004},
    )
    within = build_within_covariance(trial, 0.8, 0.64)
    assert within.matrix == pytest.approx(
        np.array([[0.01, 0.004], [0.004, 0.02]]), abs=1e-15
    )


def test_two_arm_two_followup_case_three():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,))], categories=(1, 2), v=0.01,
    )
    within = build_within_covariance(trial, 0.8, 0.64)
    assert within.matrix == pytest.approx(
        np.array([[0.01, 0.008], [0.008, 0.01]]), abs=1e-15
    )


def test_all_four_cases_appear_and_decay():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,)), arm("b", (0.0,))],
        categories=(1, 2, 3), v=0.01,
        ref_change_var={1: 0.004, 2: 0.004, 3: 0.004},
    )
    within = build_within_covariance(trial, 0.8, 0.8)
    # order: (1,a) (1,b) (2,a) (2,b) (3,a) (3,b)
    # same-arm decay with separation: rho, rho^2
    assert within.matrix[0, 2] == pytest.approx(0.8 * 0.01)
    assert within.matrix[0, 4] == pytest.approx(0.8**2 * 0.01)
    # cross-arm entries built from the reference change variance
    assert within.matrix[0, 3] == pytest.approx(0.8 * 0.004)
    assert within.matrix[0, 5] == pytest.approx(0.8**2 * 0.004)


def test_distinct_rho_d_applied_cross_arm():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,)), arm("b", (0.0,))],
        categories=(1, 2), v=0.01, ref_change_var={1: 0.004, 2: 0.004},
    )
    within = build_within_covariance(trial, 0.8, 0.6)
    assert within.matrix[0, 2] == pytest.approx(0.8 * 0.01)  # same arm
    assert within.matrix[0, 3] == pytest.approx(0.6 * 0.004)  # cross arm


def test_per_trial_override_beats_base():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,))], categories=(1, 2),
        v=0.01, rho_y=0.2,
    )
    within = build_within_covariance(trial, 0.9, 0.9)
    assert within.matrix[0, 1] == pytest.approx(0.2 * 0.01)


def test_zero_correlations_single_followup_diagonal():
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,))], categories=(1,), v=0.02,
    )
    within = build_within_covariance(trial, 0.0, 0.0)
    assert np.array_equal(within.matrix, np.diag([0.02]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_arms=st.integers(min_value=1, max_value=4),
    n_times=st.integers(min_value=1, max_value=3),
)
def test_within_symmetric_and_diagonal_matches_v(seed, n_arms, n_times):
    rng = np.random.default_rng(seed)
    trial, _, _ = decomposed_control_trial(rng, n_arms, n_times)
    within = build_within_covariance(trial, 0.8, 0.8)
    assert np.array_equal(within.matrix, within.matrix.T)  # 0 ulps
    expected_diag = [o.v for o in trial.ordered_observations()]
    assert np.array_equal(np.diag(within.matrix), expected_diag)
    assert np.linalg.eigvalsh(within.matrix)[0] >= -1e-10 * max(
        1.0, np.linalg.eigvalsh(within.matrix)[-1]
    )


correlations = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    comparison=st.sampled_from(["control", "active"]),
    n_arms=st.integers(min_value=1, max_value=4),
    categories=st.lists(
        st.integers(min_value=1, max_value=3), min_size=1, max_size=3,
        unique=True,
    ).map(sorted),
    base_rho_y=correlations,
    base_rho_d=correlations,
    rho_y=st.none() | correlations,
    rho_d=st.none() | correlations,
    supplied=st.booleans(),
)
def test_within_matches_the_four_case_reference_bit_for_bit(
    data, comparison, n_arms, categories, base_rho_y, base_rho_d, rho_y,
    rho_d, supplied,
):
    contrast = [arm(f"k{k}", (1.0,)) for k in range(n_arms)]
    reference_arm = "r" if comparison == "active" else None
    arms = [arm("r", (0.0,))] + contrast if reference_arm else contrast
    log_v = st.floats(min_value=-12.0, max_value=6.0)
    v = {
        (a.arm_id, c): 10.0 ** data.draw(log_v)
        for a in contrast for c in categories
    }
    ref_change_var = None
    if supplied:
        fraction = st.floats(min_value=0.01, max_value=1.0)
        ref_change_var = {
            c: data.draw(fraction) * min(x for (_, t), x in v.items() if t == c)
            for c in categories
        }
    trial = grid_trial(
        "t", comparison, arms, categories=categories, v=v,
        reference_arm=reference_arm, ref_change_var=ref_change_var,
        rho_y=rho_y, rho_d=rho_d,
    )
    try:
        expected = reference_within_covariance(trial, base_rho_y, base_rho_d)
    except CovarianceError as e:
        with pytest.raises(CovarianceError, match=re.escape(str(e))):
            build_within_covariance(trial, base_rho_y, base_rho_d)
        return
    within = build_within_covariance(trial, base_rho_y, base_rho_d)
    assert within.trial_id == expected.trial_id
    assert np.array_equal(
        within.matrix.view(np.int64), expected.matrix.view(np.int64)
    )


@st.composite
def shaped_trials(draw, dim):
    """A control or active trial of dimension ``dim``: its arm count and
    follow-up categories are drawn among those whose product is dim."""
    shapes = [(a, dim // a) for a in range(1, 5) if dim % a == 0 and dim // a <= 3]
    n_arms, n_times = draw(st.sampled_from(shapes))
    categories = sorted(draw(st.permutations([1, 2, 3]))[:n_times])
    comparison = draw(st.sampled_from(["control", "active"]))
    contrast = [arm(f"k{k}", (1.0,)) for k in range(n_arms)]
    reference_arm = "r" if comparison == "active" else None
    arms = [arm("r", (0.0,))] + contrast if reference_arm else contrast
    log_v = st.floats(min_value=-12.0, max_value=6.0)
    v = {
        (a.arm_id, c): 10.0 ** draw(log_v) for a in contrast for c in categories
    }
    ref_change_var = None
    if draw(st.booleans()):
        fraction = st.floats(min_value=0.01, max_value=1.0)
        ref_change_var = {
            c: draw(fraction) * min(x for (_, t), x in v.items() if t == c)
            for c in categories
        }
    return grid_trial(
        f"t{draw(st.integers(0, 999))}", comparison, arms,
        categories=categories, v=v, reference_arm=reference_arm,
        ref_change_var=ref_change_var,
    )


@settings(max_examples=150, deadline=None)
@given(
    trials=st.sampled_from([1, 2, 3, 4, 6]).flatmap(
        lambda dim: st.lists(shaped_trials(dim), min_size=1, max_size=5)
    ),
    base_rho_y=correlations,
    base_rho_d=correlations,
)
def test_within_stack_matches_the_reference_trial_by_trial(
    trials, base_rho_y, base_rho_d
):
    # One kernel call over trials of equal dimension but mixed shapes
    # (arms by follow-ups) gives each trial's V bit for bit.
    rows = [t.ordered_observations() for t in trials]
    stack = within_covariance_stack(
        [[o.arm_id for o in r] for r in rows],
        [[o.category for o in r] for r in rows],
        [[o.v for o in r] for r in rows],
        [[impute_ref_change_variance(t, o.category) for o in r]
         for t, r in zip(trials, rows)],
        base_rho_y,
        base_rho_d,
    )
    assert stack.shape == (len(trials),) + (len(rows[0]),) * 2
    for trial, matrix in zip(trials, stack):
        context = f"within-trial covariance of trial {trial.trial_id!r}"
        try:
            expected = reference_within_covariance(
                trial, base_rho_y, base_rho_d
            )
        except CovarianceError as e:
            with pytest.raises(CovarianceError, match=re.escape(str(e))):
                ensure_positive_semidefinite(matrix, context)
            continue
        got = ensure_positive_semidefinite(matrix, context)
        assert np.array_equal(
            got.view(np.int64), expected.matrix.view(np.int64)
        )


def test_materially_non_psd_rejected_with_trial_name():
    # bypass validation: reference variance far above the observation
    # variances makes the same-time block indefinite
    trial = grid_trial(
        "broken", "control", [arm("a", (1.0,)), arm("b", (0.0,))],
        categories=(1,), v=0.01, ref_change_var={1: 0.05},
    )
    with pytest.raises(CovarianceError, match="broken") as err:
        build_within_covariance(trial, 0.8, 0.64)
    assert "eigenvalue" in str(err.value)


def test_rounding_level_negatives_are_repaired():
    base = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD with a zero eigenvalue
    dented = base - 1e-14 * np.diag([1.0, -1.0])
    repaired = ensure_positive_semidefinite(dented, "unit test")
    assert np.linalg.eigvalsh(repaired)[0] >= 0.0
    assert repaired == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# build_between_covariance
# ---------------------------------------------------------------------------


def test_between_dim_one():
    between = build_between_covariance(1, 0.05)
    assert np.array_equal(between.matrix, [[0.05**2]])
    assert between.matrix[0, 0] == pytest.approx(0.0025)


def test_between_structure_unit_tau():
    between = build_between_covariance(3, 1.0)
    assert np.array_equal(
        between.matrix, 0.5 * (np.eye(3) + np.ones((3, 3)))
    )
    assert np.all(np.diag(between.matrix) == 1.0)


def test_between_table_value():
    between = build_between_covariance(2, 0.0519)
    expected = np.array(
        [[0.002694, 0.001347], [0.001347, 0.002694]]
    )
    assert between.matrix == pytest.approx(expected, abs=1e-6)


def test_between_eigenvalues_closed_form():
    for dim in (1, 2, 5, 9):
        for tau in (0.01, 0.3, 2.0):
            eigs = np.sort(np.linalg.eigvalsh(
                build_between_covariance(dim, tau).matrix
            ))
            expected = np.sort(
                [tau**2 / 2] * (dim - 1) + [tau**2 * (dim + 1) / 2]
            )
            assert eigs == pytest.approx(expected, rel=1e-12)


def test_between_pairwise_difference_variance_exact():
    # var(delta_k - delta_k') = S_kk + S_k'k' - 2 S_kk' = tau^2, bit-exact
    for dim in range(2, 8):
        for tau in (0.01, 0.05, 1.0):
            sigma = build_between_covariance(dim, tau).matrix
            for k in range(dim):
                for kp in range(k + 1, dim):
                    spread = sigma[k, k] + sigma[kp, kp] - 2 * sigma[k, kp]
                    assert spread == tau**2  # exact float equality


# ---------------------------------------------------------------------------
# mvn_logpdf
# ---------------------------------------------------------------------------


def test_standard_normal_at_mode():
    value = mvn_logpdf(np.zeros(1), np.zeros(1), np.eye(1))
    assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-15)


def test_scalar_normal_value():
    value = mvn_logpdf(np.array([1.0]), np.array([0.0]), np.array([[4.0]]))
    assert value == pytest.approx(-0.5 * np.log(8 * np.pi) - 1.0 / 8.0, abs=1e-14)


def test_dim_three_against_naive_formula():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 3 * np.eye(3)
    x = rng.normal(size=3)
    mean = rng.normal(size=3)
    resid = x - mean
    naive = -0.5 * (
        3 * np.log(2 * np.pi)
        + np.log(np.linalg.det(cov))
        + resid @ np.linalg.inv(cov) @ resid
    )
    assert mvn_logpdf(x, mean, cov) == pytest.approx(naive, abs=1e-10)


def test_logpdf_rejects_indefinite():
    with pytest.raises(CovarianceError):
        mvn_logpdf(np.zeros(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_logpdf_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    x = rng.normal(size=dim)
    mean = rng.normal(size=dim)
    perm = rng.permutation(dim)
    direct = mvn_logpdf(x, mean, cov)
    permuted = mvn_logpdf(x[perm], mean[perm], cov[np.ix_(perm, perm)])
    assert permuted == pytest.approx(direct, abs=1e-10)


def test_between_structure_helper_matches_type():
    assert np.array_equal(
        between_structure(4), 0.5 * (np.eye(4) + np.ones((4, 4)))
    )
