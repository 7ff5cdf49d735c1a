"""Synthetic data generation against the model's own covariance rules."""

import json
import re
from dataclasses import replace

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
    save_dataset,
    simulate_dataset,
    trial_design_matrix,
    validate_dataset,
)
from featmeta.simulate import _outcomes

from reference import fixed_effects, reference_simulate_dataset


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
    # approaches V + tau^2 S. The replicates come from one batched call.
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
    design = trial_design_matrix(sim_schema(), trial)
    normals = np.random.default_rng(2024).standard_normal((100_000, 8))
    reps = _outcomes(design[None], within[None], config.params, normals)
    emp = np.cov(reps, rowvar=False)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.05


def _factors(n, p, q):
    pool = (
        [Factor("intervention", j) for j in range(n)]
        + [Factor("study", j) for j in range(p)]
        + [Factor("followup", j) for j in range(q - 1)]
    )
    if not pool:
        return st.just(())
    term = st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)
    return st.lists(term.map(tuple), max_size=3).map(tuple)


@st.composite
def sim_configs(draw):
    n, p, q = draw(st.integers(0, 4)), draw(st.integers(0, 2)), draw(st.integers(1, 4))
    schema = CovariateSchema(n=n, p=p, q=q, interactions=draw(_factors(n, p, q)))
    coefficient = st.floats(-0.1, 0.1)
    params = ParameterVector(
        alpha=draw(coefficient),
        beta=draw(st.lists(coefficient, min_size=n, max_size=n)),
        gamma=draw(st.lists(coefficient, min_size=p, max_size=p)),
        phi=draw(st.lists(coefficient, min_size=q - 1, max_size=q - 1)),
        eta=draw(st.lists(coefficient, min_size=schema.l, max_size=schema.l)),
        tau=draw(st.just(0.0) | st.floats(0.01, 0.2)),
    )
    patterns = draw(st.none() | st.lists(
        st.permutations(range(1, q + 1)).flatmap(
            lambda cats: st.integers(1, q).map(lambda k: tuple(cats[:k]))
        ),
        min_size=1, max_size=4,
    ))
    count = q if patterns is None else len(patterns)
    weights = draw(st.none() | st.lists(
        st.just(0.0) | st.floats(0.1, 3.0), min_size=count, max_size=count,
    ).filter(lambda w: sum(w) > 0))
    lo = draw(st.floats(1e-4, 0.01))
    flo = draw(st.floats(0.05, 1.0))
    rho = st.just(0.0) | st.floats(0.0, 0.95)
    # A fraction of 1 makes var_d = v, so V is singular and rounding
    # often leaves a tiny negative eigenvalue for the PSD repair.
    fractions = draw(
        st.just((1.0, 1.0)) | st.floats(flo, 1.0).map(lambda fhi: (flo, fhi))
    )
    return SimConfig(
        schema=schema,
        params=params,
        n_trials=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32 - 1)),
        control_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        max_coded_arms=draw(st.integers(1, 4)),
        followup_patterns=patterns,
        pattern_weights=weights,
        variance_range=(lo, lo * draw(st.floats(1.0, 10.0))),
        ref_var_fraction_range=fractions,
        rho_y=draw(rho),
        rho_d=draw(rho),
        feature_prob=draw(st.floats(0.0, 1.0)),
        z_sd=draw(st.floats(0.0, 2.0)),
    )


def _saved(config, simulate, path):
    save_dataset(simulate(config), path)
    return path.read_text()


@settings(max_examples=150, deadline=None)
@given(config=sim_configs())
def test_generator_matches_the_trial_by_trial_reference_byte_for_byte(
    config, tmp_path_factory
):
    # The reference draws, builds V, factors it and samples one trial at
    # a time; the batched passes must write the same file, or raise the
    # same error (an indefinite V when rho_y and rho_d differ).
    path = tmp_path_factory.getbasetemp() / "generated.json"
    try:
        want = _saved(config, reference_simulate_dataset, path)
    except Exception as e:
        with pytest.raises(type(e)) as err:
            _saved(config, simulate_dataset, path)
        assert str(err.value) == str(e)
        return
    assert _saved(config, simulate_dataset, path) == want


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
        dict(n_trials=10, variance_range=(1e-151, 0.01)),
        dict(n_trials=10, variance_range=(1e-150, 0.01)),  # 0.25e-150 ref
        dict(n_trials=10, variance_range=(0.01, 1e151)),
        dict(n_trials=10, rho_y=1.5),
        dict(n_trials=10, rho_d=1.0),
        dict(n_trials=10, rho_y=-0.1),
        dict(n_trials=10, rho_d=float("nan")),
        dict(n_trials=10, z_sd=-1.0),
        dict(n_trials=10, z_sd=float("inf")),
        dict(n_trials=10, feature_prob=2.0),
        dict(n_trials=10, feature_prob=-0.5),
        dict(n_trials=10, pattern_weights=(1.0, -1.0)),
        dict(n_trials=10, pattern_weights=(0.0, 0.0)),
        dict(n_trials=10, pattern_weights=(1.0,)),
        dict(n_trials=10, pattern_weights=(1e308, 1e308)),
        dict(n_trials=10, followup_patterns=()),
        dict(n_trials=10, followup_patterns=((),)),
        dict(n_trials=10, followup_patterns=((3,),)),
        dict(n_trials=10, followup_patterns=((0, 1),)),
        dict(n_trials=10, followup_patterns=((1, 1),)),
        dict(n_trials=10, followup_patterns=((1,), (2,)), pattern_weights=(1.0,)),
    ],
)
def test_config_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        SimConfig(schema=sim_schema(), params=sim_params(tau=0.05), **kwargs)


def test_config_accepts_the_edges_of_its_ranges():
    config = SimConfig(
        schema=sim_schema(), params=sim_params(tau=0.05), n_trials=6,
        variance_range=(4e-150, 1e150), ref_var_fraction_range=(0.25, 1.0),
        rho_y=0.0, rho_d=0.0, feature_prob=1.0, z_sd=0.0,
        followup_patterns=((2, 1), (2,)), pattern_weights=(0.0, 1.0),
    )
    dataset = simulate_dataset(config)
    assert validate_dataset(dataset) == []
    assert all(t.observed_categories == (2,) for t in dataset.trials)


def test_config_rejects_negative_tau():
    with pytest.raises(ValueError, match="tau"):
        SimConfig(schema=sim_schema(), params=sim_params(tau=-0.1), n_trials=5)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_config_rejects_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau must be non-negative and finite"):
        SimConfig(schema=sim_schema(), params=sim_params(tau=tau), n_trials=5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("at", range(5))
def test_config_rejects_non_finite_coefficients(at, value):
    # A NaN coefficient would make every outcome y NaN.
    coeffs = [0.02, -0.05, 0.1, 0.03, -0.01]
    coeffs[at] = value
    name = ["alpha", "beta", "beta", "gamma", "phi"][at]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SimConfig(
            schema=sim_schema(), params=sim_params(0.05, coeffs), n_trials=5
        )


def test_config_rejects_zero_trials():
    with pytest.raises(ValueError, match="n_trials must be at least 1"):
        SimConfig(schema=sim_schema(), params=sim_params(tau=0.1), n_trials=0)


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SimConfig(
            schema=sim_schema(), params=sim_params(tau=0.1), n_trials=5, seed=-1
        )


@pytest.mark.parametrize("block", ["beta", "gamma", "phi", "eta"])
def test_config_rejects_a_parameter_block_the_schema_does_not_size(block):
    # Caught here, not as a shape error inside the generator's arithmetic.
    params = sim_params(tau=0.05)
    values = getattr(params, block)
    wrong = replace(params, **{block: values + (0.0,)})
    count = len(values)
    with pytest.raises(
        ValueError,
        match=re.escape(f"params.{block}: expected {count} value(s), got {count + 1}"),
    ):
        SimConfig(schema=sim_schema(), params=wrong, n_trials=5)
