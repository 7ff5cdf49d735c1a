"""Design rows, interactions, and the two fixed-effect branches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmeta import (
    CovariateSchema,
    Dataset,
    Factor,
    ParameterVector,
    center_covariates,
)
from featmeta.design import trial_design_matrix

from conftest import (
    arm,
    build_basic_dataset,
    decomposed_control_trial,
    grid_trial,
    random_binary_x,
)
from reference import (
    fixed_effects,
    reference_trial_design_matrix,
    zero_parameters,
)


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
# interaction columns
# ---------------------------------------------------------------------------


def interaction_column(schema, x, z, categories):
    """The first interaction column of a one-arm control trial."""
    trial = grid_trial(
        "t", "control", [arm("a", x)],
        categories=categories, z=z,
    )
    return trial_design_matrix(schema, trial)[:, -schema.l]


def test_interaction_product_of_ones(basic_schema):
    assert interaction_column(basic_schema, (1.0, 0.0), (1.0,), (1,))[0] == 1.0


def test_interaction_zero_factor_annihilates(basic_schema):
    assert interaction_column(basic_schema, (0.0, 1.0), (5.0,), (1,))[0] == 0.0


def test_three_factor_interaction():
    schema = CovariateSchema(
        n=2, p=2, q=2,
        interactions=(
            (Factor("intervention", 0), Factor("intervention", 1),
             Factor("study", 1)),
        ),
    )
    value = interaction_column(schema, (1.0, 1.0), (9.0, 0.5), (1,))[0]
    assert value == 1.0 * 1.0 * 0.5


def test_followup_factor_uses_dummy_not_category():
    schema = CovariateSchema(
        n=1, p=0, q=3,
        interactions=((Factor("intervention", 0), Factor("followup", 1)),),
    )
    at_mid, at_late = interaction_column(schema, (1.0,), (), (2, 3))
    assert at_mid == 0.0
    assert at_late == 1.0


# ---------------------------------------------------------------------------
# design rows
# ---------------------------------------------------------------------------


def test_active_identical_arms_give_zero_row(four_feature_schema):
    x = (1.0, 0.0, 1.0, 0.0)
    trial = grid_trial(
        "t", "active", [arm("r", x), arm("k", x)],
        categories=(1,), z=(0.7,), reference_arm="r",
    )
    row = trial_design_matrix(four_feature_schema, trial)[0]
    assert np.array_equal(row, np.zeros(10))


def test_control_intercept_only_row(four_feature_schema):
    trial = grid_trial(
        "t", "control", [arm("a", (0.0, 0.0, 0.0, 0.0))],
        categories=(1,), z=(0.0,),
    )
    row = trial_design_matrix(four_feature_schema, trial)[0]
    assert row[0] == 1.0
    assert tuple(row[6:8]) == (0.0, 0.0)  # short-term observation
    assert np.array_equal(row, np.eye(10)[0])


def test_active_feature_differencing(four_feature_schema):
    trial = grid_trial(
        "t", "active",
        [arm("r", (0.0, 1.0, 1.0, 0.0)), arm("k", (1.0, 0.0, 1.0, 0.0))],
        categories=(1,), z=(0.7,), reference_arm="r",
    )
    row = trial_design_matrix(four_feature_schema, trial)[0]
    assert row[0] == 0.0
    assert tuple(row[1:5]) == (1.0, -1.0, 0.0, 0.0)
    assert tuple(row[5:6]) == (0.0,)
    assert tuple(row[6:8]) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# fixed_effects
# ---------------------------------------------------------------------------


def test_zero_params_zero_theta(basic_dataset):
    params = zero_parameters(basic_dataset.schema)
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
        categories=(1,), z=(0.4,),
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
        categories=(1,), z=(0.0,), reference_arm="r",
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
        z=control.z, v=0.01, reference_arm=control.arms[-1].arm_id,
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
        categories=(1, 2), z=(rng.normal(),), reference_arm="r",
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


@st.composite
def schemas(draw):
    """n, p >= 0, q of 1 to 4, and up to 3 interactions of 1 to 3 factors."""
    n = draw(st.integers(min_value=0, max_value=3))
    p = draw(st.integers(min_value=0, max_value=2))
    q = draw(st.integers(min_value=1, max_value=4))
    pool = (
        [Factor("intervention", j) for j in range(n)]
        + [Factor("study", j) for j in range(p)]
        + [Factor("followup", j) for j in range(q - 1)]
    )
    terms = []
    if pool:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            size = draw(st.integers(min_value=1, max_value=min(3, len(pool))))
            terms.append(tuple(draw(st.permutations(pool))[:size]))
    return CovariateSchema(n=n, p=p, q=q, interactions=tuple(terms))


def random_trial(rng, schema, trial_id, comparison):
    n_arms = int(rng.integers(1, 4))
    arms = [
        arm(f"a{k}", random_binary_x(rng, schema.n)) for k in range(n_arms + 1)
    ]
    categories = tuple(
        c for c in range(1, schema.q + 1) if c == 1 or rng.random() < 0.6
    )
    if comparison == "control":
        arms = arms[:-1]
    return grid_trial(
        trial_id, comparison, arms, categories=categories,
        z=tuple(rng.normal(0.0, 2.0, schema.p)),
        reference_arm=arms[-1].arm_id if comparison == "active" else None,
    )


@settings(max_examples=60, deadline=None)
@given(schema=schemas(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_design_matrix_matches_the_row_by_row_reference(schema, seed):
    rng = np.random.default_rng(seed)
    comparisons = ["control"] + [
        "active" if rng.random() < 0.5 else "control" for _ in range(4)
    ]
    trials = [
        random_trial(rng, schema, f"t{i}", comparison)
        for i, comparison in enumerate(comparisons)
    ]
    _, record = center_covariates(Dataset(schema=schema, trials=trials))
    for trial in trials:
        for centering in (None, record):
            fast = trial_design_matrix(schema, trial, centering)
            slow = reference_trial_design_matrix(schema, trial, centering)
            assert fast.shape == slow.shape
            assert np.array_equal(fast.view(np.int64), slow.view(np.int64))
    # The centering means are those of the raw control rows, bit for bit.
    raw = np.vstack([
        reference_trial_design_matrix(schema, t)[:, 1:]
        for t in trials if t.comparison == "control"
    ])
    means = np.concatenate(
        [record.x_means, record.z_means, record.w_means, record.j_means]
    )
    assert np.array_equal(
        means.view(np.int64), raw.mean(axis=0).view(np.int64)
    )


def test_design_matrix_row_order_time_major(basic_dataset):
    # Rows follow (time, then arm-input-order); check via the w block of
    # trial t1 which observes categories 1 and 2 with two arms.
    schema = basic_dataset.schema
    matrix = trial_design_matrix(schema, basic_dataset.trials[0])
    w_cols = matrix[:, 1 + schema.n + schema.p : 1 + schema.n + schema.p + 2]
    expected = np.array([[0, 0], [0, 0], [1, 0], [1, 0]], dtype=float)
    assert np.array_equal(w_cols, expected)
