"""Design rows, interactions, and the two fixed-effect branches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmeta import (
    CovariateSchema,
    Factor,
    FollowUpIndicator,
    ParameterVector,
    fixed_effects,
)
from featmeta.design import design_row, interaction_value, trial_design_matrix

from conftest import arm, build_basic_dataset, decomposed_control_trial, grid_trial


@pytest.fixture
def four_feature_schema():
    return CovariateSchema(
        n=4,
        p=1,
        q=3,
        interactions=(
            (Factor("intervention", 0), Factor("study", 0)),
            (Factor("intervention", 1), Factor("study", 0)),
        ),
    )


# ---------------------------------------------------------------------------
# interaction_value
# ---------------------------------------------------------------------------


def test_interaction_product_of_ones(basic_schema):
    assert interaction_value(basic_schema, 0, x=(1.0, 0.0), z=(1.0,), w=(0, 0)) == 1.0


def test_interaction_zero_factor_annihilates(basic_schema):
    assert interaction_value(basic_schema, 0, x=(0.0, 1.0), z=(5.0,), w=(0, 0)) == 0.0


def test_three_factor_interaction():
    schema = CovariateSchema(
        n=2, p=2, q=2,
        interactions=(
            (Factor("intervention", 0), Factor("intervention", 1),
             Factor("study", 1)),
        ),
    )
    value = interaction_value(schema, 0, x=(1.0, 1.0), z=(9.0, 0.5), w=(0.0,))
    assert value == 1.0 * 1.0 * 0.5


def test_followup_factor_uses_dummy_not_category():
    schema = CovariateSchema(
        n=1, p=0, q=3,
        interactions=((Factor("intervention", 0), Factor("followup", 1)),),
    )
    w_mid = FollowUpIndicator.from_category(2, 3).w
    w_late = FollowUpIndicator.from_category(3, 3).w
    assert interaction_value(schema, 0, (1.0,), (), w_mid) == 0.0
    assert interaction_value(schema, 0, (1.0,), (), w_late) == 1.0


# ---------------------------------------------------------------------------
# design_row
# ---------------------------------------------------------------------------


def test_active_identical_arms_give_zero_row(four_feature_schema):
    x = (1.0, 0.0, 1.0, 0.0)
    trial = grid_trial(
        "t", "active", [arm("r", x), arm("k", x)],
        categories=(1,), q=3, z=(0.7,), reference_arm="r",
    )
    row = design_row(
        four_feature_schema, trial, trial.contrast_arms[0],
        FollowUpIndicator.from_category(1, 3),
    )
    assert np.array_equal(row.as_array(), np.zeros(10))


def test_control_intercept_only_row(four_feature_schema):
    trial = grid_trial(
        "t", "control", [arm("a", (0.0, 0.0, 0.0, 0.0))],
        categories=(1,), q=3, z=(0.0,),
    )
    row = design_row(
        four_feature_schema, trial, trial.arms[0],
        FollowUpIndicator.from_category(1, 3),
    )
    assert row.intercept == 1.0
    assert row.w == (0.0, 0.0)  # short-term observation
    assert np.array_equal(row.as_array(), np.eye(10)[0])


def test_active_feature_differencing(four_feature_schema):
    trial = grid_trial(
        "t", "active",
        [arm("r", (0.0, 1.0, 1.0, 0.0)), arm("k", (1.0, 0.0, 1.0, 0.0))],
        categories=(1,), q=3, z=(0.7,), reference_arm="r",
    )
    row = design_row(
        four_feature_schema, trial, trial.contrast_arms[0],
        FollowUpIndicator.from_category(1, 3),
    )
    assert row.intercept == 0.0
    assert row.x == (1.0, -1.0, 0.0, 0.0)
    assert row.z == (0.0,)
    assert row.w == (0.0, 0.0)


# ---------------------------------------------------------------------------
# fixed_effects
# ---------------------------------------------------------------------------


def test_zero_params_zero_theta(basic_dataset):
    params = ParameterVector.zeros(basic_dataset.schema)
    for trial in basic_dataset.trials:
        theta = fixed_effects(params, trial, basic_dataset.schema)
        assert np.array_equal(theta, np.zeros(trial.dimension))


def test_intercept_passthrough_when_centered_covariates_vanish():
    # A single control trial: centering zeroes every covariate column,
    # so theta reduces to the intercept; -0.0412 used as a plug-in.
    schema = CovariateSchema(
        n=2, p=1, q=2,
        interactions=((Factor("intervention", 0), Factor("study", 0)),),
    )
    trial = grid_trial(
        "t", "control", [arm("a", (1.0, 0.0))],
        categories=(1,), q=2, z=(0.4,),
    )
    from featmeta import Dataset, center_covariates

    centered, record = center_covariates(
        Dataset(schema=schema, trials=(trial,))
    )
    params = ParameterVector(
        alpha=-0.0412, beta=(0.3, -0.2), gamma=(0.5,), phi=(0.1,),
        eta=(-0.9,), tau=0.0,
    )
    theta = fixed_effects(params, trial, schema, centered.centering)
    assert theta == pytest.approx([-0.0412], abs=1e-15)


def test_active_theta_hand_value(four_feature_schema):
    trial = grid_trial(
        "t", "active",
        [arm("r", (0.0, 1.0, 1.0, 0.0)), arm("k", (1.0, 0.0, 1.0, 0.0))],
        categories=(1,), q=3, z=(0.0,), reference_arm="r",
    )
    params = ParameterVector(
        alpha=5.0, beta=(0.1, 0.2, 0.3, 0.4), gamma=(7.0,),
        phi=(1.0, 2.0), eta=(0.0, 0.0), tau=0.1,
    )
    theta = fixed_effects(params, trial, four_feature_schema)
    assert theta == pytest.approx([0.1 * 1 + 0.2 * (-1)], abs=1e-15)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

finite_params = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)


def random_parameter_vector(rng, schema):
    return ParameterVector.from_array(
        np.append(rng.normal(0.0, 1.0, schema.n_parameters - 1),
                  rng.uniform(0.01, 1.0)),
        schema,
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_arms=st.integers(min_value=2, max_value=4),
    n_times=st.integers(min_value=1, max_value=3),
)
def test_transitivity_active_equals_differenced_control(seed, n_arms, n_times):
    # theta for arm k against reference r equals the difference of the
    # two arms' control-branch thetas, for any parameters.
    rng = np.random.default_rng(seed)
    schema = CovariateSchema(
        n=2, p=1, q=n_times,
        interactions=((Factor("intervention", 0), Factor("study", 0)),),
    )
    control, _, _ = decomposed_control_trial(rng, n_arms, n_times)
    active = grid_trial(
        "act", "active", control.arms, categories=control.observed_categories,
        q=n_times, z=control.z, v=0.01, reference_arm=control.arms[-1].arm_id,
    )
    params = random_parameter_vector(rng, schema)
    theta_control = fixed_effects(params, control, schema)
    theta_active = fixed_effects(params, active, schema)

    n_contrast = n_arms - 1
    for t in range(n_times):
        ref_value = theta_control[t * n_arms + (n_arms - 1)]
        for k in range(n_contrast):
            direct = theta_active[t * n_contrast + k]
            differenced = theta_control[t * n_arms + k] - ref_value
            assert direct == pytest.approx(differenced, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_active_theta_ignores_alpha_gamma_phi(seed):
    rng = np.random.default_rng(seed)
    schema = CovariateSchema(
        n=2, p=1, q=2,
        interactions=((Factor("intervention", 0), Factor("study", 0)),),
    )
    trial = grid_trial(
        "t", "active",
        [arm("r", (1.0, 0.0)), arm("k", (0.0, 1.0))],
        categories=(1, 2), q=2, z=(rng.normal(),), reference_arm="r",
    )
    params = random_parameter_vector(rng, schema)
    shifted = ParameterVector(
        alpha=params.alpha + rng.normal(),
        beta=params.beta,
        gamma=tuple(g + rng.normal() for g in params.gamma),
        phi=tuple(f + rng.normal() for f in params.phi),
        eta=params.eta,
        tau=params.tau,
    )
    before = fixed_effects(params, trial, schema)
    after = fixed_effects(shifted, trial, schema)
    assert np.array_equal(before, after)  # exact, not approximate


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    a=finite_params,
    b=finite_params,
)
def test_fixed_effects_linear_in_params(seed, a, b):
    basic_dataset = build_basic_dataset()
    rng = np.random.default_rng(seed)
    schema = basic_dataset.schema
    p1 = random_parameter_vector(rng, schema)
    p2 = random_parameter_vector(rng, schema)
    combined = ParameterVector.from_array(
        np.append(
            a * p1.coefficients() + b * p2.coefficients(),
            0.5,  # tau does not enter theta
        ),
        schema,
    )
    for trial in basic_dataset.trials:
        lhs = fixed_effects(combined, trial, schema)
        rhs = a * fixed_effects(p1, trial, schema) + b * fixed_effects(
            p2, trial, schema
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_design_matrix_row_order_time_major(basic_dataset):
    # Rows follow (time, then arm-input-order); check via the w block of
    # trial t1 which observes categories 1 and 2 with two arms.
    schema = basic_dataset.schema
    matrix = trial_design_matrix(schema, basic_dataset.trials[0])
    w_cols = matrix[:, 1 + schema.n + schema.p : 1 + schema.n + schema.p + 2]
    expected = np.array([[0, 0], [0, 0], [1, 0], [1, 0]], dtype=float)
    assert np.array_equal(w_cols, expected)
