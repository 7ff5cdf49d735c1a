"""Shared builders for trial structures used across the test modules."""

import pytest

from featmeta import (
    CovariateSchema,
    Dataset,
    Factor,
    InterventionArm,
    Observation,
    TrialRecord,
)


def grid_trial(
    trial_id,
    comparison,
    arms,
    categories,
    z=(),
    v=0.01,
    y=0.0,
    reference_arm=None,
    ref_change_var=None,
    rho_y=None,
    rho_d=None,
):
    """Trial with a full (category x contrast-arm) observation grid.

    ``v`` and ``y`` may be scalars or dicts keyed (arm_id, category).
    """

    def at(table, arm_id, cat):
        if isinstance(table, dict):
            return table[(arm_id, cat)]
        return table

    contrast = [a for a in arms if a.arm_id != reference_arm]
    observations = tuple(
        Observation(a.arm_id, c, y=at(y, a.arm_id, c), v=at(v, a.arm_id, c))
        for c in categories
        for a in contrast
    )
    return TrialRecord(
        trial_id=trial_id,
        comparison=comparison,
        arms=tuple(arms),
        z=tuple(z),
        observations=observations,
        reference_arm=reference_arm,
        ref_change_var=ref_change_var,
        rho_y=rho_y,
        rho_d=rho_d,
    )


def arm(arm_id, x=()):
    return InterventionArm(arm_id=arm_id, x=tuple(x))


def build_basic_schema():
    """n=2 features, one study covariate, three follow-ups, one x1*z1 term."""
    return CovariateSchema(
        n=2,
        p=1,
        q=3,
        interactions=((Factor("intervention", 0), Factor("study", 0)),),
    )


def build_basic_dataset(basic_schema=None):
    """Two control trials and one active trial, hand-sized."""
    basic_schema = basic_schema or build_basic_schema()
    t1 = grid_trial(
        "t1", "control",
        [arm("a1", (1.0, 0.0)), arm("a2", (0.0, 1.0))],
        categories=(1, 2), z=(0.3,),
        v={("a1", 1): 0.010, ("a2", 1): 0.012,
           ("a1", 2): 0.011, ("a2", 2): 0.014},
        y={("a1", 1): -0.05, ("a2", 1): 0.02,
           ("a1", 2): -0.03, ("a2", 2): 0.01},
    )
    t2 = grid_trial(
        "t2", "control",
        [arm("b1", (1.0, 1.0))],
        categories=(1, 2, 3), z=(-0.8,),
        v=0.008,
        y={("b1", 1): -0.02, ("b1", 2): -0.04, ("b1", 3): -0.01},
        ref_change_var={1: 0.003, 2: 0.003, 3: 0.002},
    )
    t3 = grid_trial(
        "t3", "active",
        [arm("c1", (1.0, 0.0)), arm("c2", (0.0, 1.0)), arm("c3", (1.0, 1.0))],
        categories=(1,), z=(1.1,),
        v=0.02,
        y={("c2", 1): 0.03, ("c3", 1): -0.06},
        reference_arm="c1",
    )
    return Dataset(
        schema=basic_schema,
        trials=(t1, t2, t3),
        base_rho_y=0.8,
        base_rho_d=0.64,
    )


@pytest.fixture
def basic_schema():
    return build_basic_schema()


@pytest.fixture
def basic_dataset(basic_schema):
    return build_basic_dataset(basic_schema)


def random_binary_x(rng, n):
    return tuple(float(b) for b in rng.integers(0, 2, size=n))


def decomposed_control_trial(rng, n_arms, n_times, n_features=2, seed_id=0):
    """Control trial whose V admits an exact arm-level decomposition.

    Arm-level change-score variances are separable, s[k, t] = f_k * g_t,
    with f drawn for the uncoded control arm too; the observation
    variance for arm k at t is then (f_k + f_C) g_t and the reference
    change variance is f_C g_t. With a common base correlation for both
    the same-arm and cross-arm decay, the within-trial matrix equals the
    covariance implied by the decomposition exactly, which is what makes
    brute-force oracle comparisons possible.

    Returns (trial, f, g) with f[0] belonging to the control arm.
    """
    f = rng.uniform(0.1, 1.0, size=n_arms + 1)  # f[0] = control arm
    g = rng.uniform(0.1, 1.0, size=n_times)
    categories = tuple(range(1, n_times + 1))
    arms = [
        arm(f"k{k}", random_binary_x(rng, n_features)) for k in range(1, n_arms + 1)
    ]
    v = {
        (f"k{k}", t): float((f[k] + f[0]) * g[t - 1])
        for k in range(1, n_arms + 1)
        for t in categories
    }
    y = {key: float(rng.normal(0.0, 0.1)) for key in v}
    trial = grid_trial(
        f"dec-{seed_id}",
        "control",
        arms,
        categories=categories,
        z=(float(rng.normal()),),
        v=v,
        y=y,
        ref_change_var={t: float(f[0] * g[t - 1]) for t in categories},
    )
    return trial, f, g
