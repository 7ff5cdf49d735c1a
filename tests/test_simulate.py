"""Synthetic data generation against the model's own covariance rules."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmeta import (
    CovariateSchema,
    Factor,
    ParameterVector,
    SimConfig,
    between_structure,
    build_within_covariance,
    dataset_to_dict,
    draw_trial_outcomes,
    fixed_effects,
    simulate_dataset,
    validate_dataset,
)


def sim_schema():
    return CovariateSchema(n=2, p=1, q=2, interactions=())


def sim_params(tau, coeffs=(0.02, -0.05, 0.1, 0.03, -0.01)):
    alpha, b1, b2, g1, f1 = coeffs
    return ParameterVector(
        alpha=alpha, beta=(b1, b2), gamma=(g1,), phi=(f1,), eta=(), tau=tau
    )


def test_noiseless_limit_recovers_fixed_effects():
    config = SimConfig(
        schema=sim_schema(),
        params=sim_params(tau=0.0),
        n_trials=25,
        seed=42,
        variance_range=(1e-10, 1e-10),
    )
    dataset = simulate_dataset(config)
    for trial in dataset.trials:
        theta = fixed_effects(config.params, trial, config.schema)
        np.testing.assert_allclose(trial.y_vector(), theta, atol=1e-4)


def test_single_contrast_variance_moment_matches():
    # All-zero coefficients and one observation per trial: the marginal
    # variance of y is tau^2 plus that trial's sampling variance.
    config = SimConfig(
        schema=sim_schema(),
        params=sim_params(tau=0.05, coeffs=(0.0,) * 5),
        n_trials=200,
        seed=7,
        control_fraction=1.0,
        max_coded_arms=1,
        followup_patterns=((1,),),
    )
    dataset = simulate_dataset(config)
    ys = np.array([t.y_vector()[0] for t in dataset.trials])
    vs = np.array([t.observations[0].v for t in dataset.trials])
    expected = 0.05**2 + vs.mean()
    assert np.var(ys, ddof=1) == pytest.approx(expected, rel=0.10)


def test_same_seed_reproduces_dataset_exactly():
    config = SimConfig(
        schema=sim_schema(), params=sim_params(tau=0.05), n_trials=30, seed=123
    )
    first = simulate_dataset(config)
    second = simulate_dataset(config)
    assert first == second
    assert json.dumps(dataset_to_dict(first)) == json.dumps(
        dataset_to_dict(second)
    )


def test_different_seeds_differ():
    base = dict(schema=sim_schema(), params=sim_params(tau=0.05), n_trials=10)
    a = simulate_dataset(SimConfig(seed=1, **base))
    b = simulate_dataset(SimConfig(seed=2, **base))
    assert a != b


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    control_fraction=st.floats(0.0, 1.0),
    max_arms=st.integers(1, 4),
)
def test_generated_datasets_always_validate(seed, control_fraction, max_arms):
    schema = CovariateSchema(
        n=2, p=1, q=3,
        interactions=((Factor("intervention", 0), Factor("study", 0)),),
    )
    config = SimConfig(
        schema=schema,
        params=ParameterVector(
            0.01, (0.02, -0.03), (0.05,), (0.0, -0.01), (0.04,), tau=0.08
        ),
        n_trials=12,
        seed=seed,
        control_fraction=control_fraction,
        max_coded_arms=max_arms,
    )
    assert validate_dataset(simulate_dataset(config)) == []


def test_nonprefix_followup_patterns_validate():
    config = SimConfig(
        schema=CovariateSchema(n=1, p=0, q=3, interactions=()),
        params=ParameterVector(0.0, (0.01,), (), (0.0, 0.0), (), tau=0.02),
        n_trials=15,
        seed=5,
        followup_patterns=((1, 3), (2,), (1, 2, 3)),
    )
    dataset = simulate_dataset(config)
    assert validate_dataset(dataset) == []
    seen = {t.observed_categories for t in dataset.trials}
    assert seen <= {(1, 3), (2,), (1, 2, 3)}


def test_pattern_weights_can_force_one_pattern():
    config = SimConfig(
        schema=sim_schema(),
        params=sim_params(tau=0.05),
        n_trials=20,
        seed=9,
        followup_patterns=((1,), (1, 2)),
        pattern_weights=(1.0, 0.0),
    )
    dataset = simulate_dataset(config)
    assert all(t.observed_categories == (1,) for t in dataset.trials)


def test_control_trial_always_present():
    config = SimConfig(
        schema=sim_schema(),
        params=sim_params(tau=0.05),
        n_trials=8,
        seed=11,
        control_fraction=0.0,
    )
    dataset = simulate_dataset(config)
    kinds = [t.comparison for t in dataset.trials]
    assert kinds[0] == "control"
    assert kinds.count("active") == 7
    for trial in dataset.trials[1:]:
        assert trial.reference_arm == "arm1"
        assert all(o.arm_id != "arm1" for o in trial.observations)


def test_replicate_covariance_converges_to_model():
    # Empirical covariance of repeated outcome draws for one fixed trial
    # approaches V + tau^2 S.
    config = SimConfig(
        schema=sim_schema(),
        params=sim_params(tau=0.1),
        n_trials=4,
        seed=21,
        control_fraction=1.0,
        max_coded_arms=2,
        followup_patterns=((1, 2),),
    )
    dataset = simulate_dataset(config)
    trial = next(t for t in dataset.trials if t.dimension == 4)
    within = build_within_covariance(trial, config.rho_y, config.rho_d).matrix
    target = within + 0.1**2 * between_structure(4)
    rng = np.random.default_rng(2024)
    reps = np.stack(
        [
            draw_trial_outcomes(
                trial, config.params, sim_schema(), config.rho_y, config.rho_d,
                rng,
            )
            for _ in range(100_000)
        ]
    )
    emp = np.cov(reps, rowvar=False)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.05


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_trials=0),
        dict(n_trials=10, control_fraction=1.5),
        dict(n_trials=10, max_coded_arms=0),
        dict(n_trials=10, variance_range=(0.0, 0.01)),
        dict(n_trials=10, variance_range=(0.01, 0.001)),
        dict(n_trials=10, ref_var_fraction_range=(0.0, 0.5)),
        dict(n_trials=10, ref_var_fraction_range=(0.5, 1.5)),
    ],
)
def test_config_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        SimConfig(schema=sim_schema(), params=sim_params(tau=0.05), **kwargs)


def test_config_rejects_negative_tau():
    with pytest.raises(ValueError, match="tau"):
        SimConfig(schema=sim_schema(), params=sim_params(tau=-0.1), n_trials=5)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_config_rejects_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau must be non-negative and finite"):
        SimConfig(schema=sim_schema(), params=sim_params(tau=tau), n_trials=5)


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SimConfig(
            schema=sim_schema(), params=sim_params(tau=0.1), n_trials=5, seed=-1
        )
