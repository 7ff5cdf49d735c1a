"""Synthetic dataset generation from known parameter values.

Draws trial structures (comparison type, arm count, feature vectors,
study covariates, follow-up pattern) and then samples outcomes from the
model itself: arm effects delta ~ N(theta, tau^2 S) followed by observed
contrasts y ~ N(delta, V), with V built by the same within-trial
covariance rules used for fitting. Sampling variances are shared across
arms within a (trial, follow-up) cell, and the reference arm's change
variance is that shared value scaled by a single per-trial fraction.
Together with equal base correlations for contrasts and reference
change scores, this keeps every generated trial consistent with an
arm-level variance decomposition, so the assembled V is positive
semidefinite by construction rather than by luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .covariance import between_structure, build_within_covariance
from .data import (
    CovariateSchema,
    Dataset,
    InterventionArm,
    Observation,
    TrialRecord,
)
from .design import ParameterVector, fixed_effects

__all__ = ["SimConfig", "simulate_dataset", "draw_trial_outcomes"]


@dataclass(frozen=True)
class SimConfig:
    """Generator settings; ``params`` holds the true model values.

    ``followup_patterns`` lists the category sets a trial may observe
    (default: every prefix 1..t of the schema's categories), drawn with
    ``pattern_weights``. Observation variances are drawn uniformly from
    ``variance_range`` per (trial, follow-up) cell and shared across
    arms; reference change variances are that value scaled by one
    per-trial draw from ``ref_var_fraction_range``. Unequal ``rho_y``
    and ``rho_d`` can yield trials no arm-level decomposition supports
    (the fit's PSD guard will reject them); the defaults keep them equal.
    """

    schema: CovariateSchema
    params: ParameterVector
    n_trials: int
    seed: int = 0
    control_fraction: float = 0.5
    max_coded_arms: int = 2
    followup_patterns: tuple[tuple[int, ...], ...] | None = None
    pattern_weights: tuple[float, ...] | None = None
    variance_range: tuple[float, float] = (0.001, 0.01)
    ref_var_fraction_range: tuple[float, float] = (0.25, 0.5)
    rho_y: float = 0.8
    rho_d: float = 0.8
    feature_prob: float = 0.5
    z_sd: float = 1.0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("need at least one trial")
        if not 0.0 <= self.control_fraction <= 1.0:
            raise ValueError("control_fraction must lie in [0, 1]")
        if self.max_coded_arms < 1:
            raise ValueError("need at least one coded arm per trial")
        if not 0.0 <= self.params.tau < math.inf:
            raise ValueError("tau must be non-negative and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        lo, hi = self.variance_range
        if not 0 < lo <= hi:
            raise ValueError("variance_range must be positive and ordered")
        flo, fhi = self.ref_var_fraction_range
        if not 0 < flo <= fhi <= 1.0:
            raise ValueError("ref_var_fraction_range must lie in (0, 1]")
        if self.followup_patterns is not None:
            object.__setattr__(
                self,
                "followup_patterns",
                tuple(tuple(p) for p in self.followup_patterns),
            )

    def patterns(self) -> tuple[tuple[int, ...], ...]:
        if self.followup_patterns is not None:
            return self.followup_patterns
        return tuple(
            tuple(range(1, t + 1)) for t in range(1, self.schema.q + 1)
        )


def draw_trial_outcomes(
    trial: TrialRecord,
    params: ParameterVector,
    schema: CovariateSchema,
    base_rho_y: float,
    base_rho_d: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one outcome vector for a structured trial (y values ignored).

    Returns draws in the trial's canonical observation order, from
    delta = theta + tau * L_S xi followed by y = delta + L_V xi', so
    tau = 0 yields delta = theta exactly.
    """
    theta = fixed_effects(params, trial, schema)
    within = build_within_covariance(trial, base_rho_y, base_rho_d).matrix
    dim = within.shape[0]
    chol_s = np.linalg.cholesky(between_structure(dim))
    delta = theta + params.tau * (chol_s @ rng.standard_normal(dim))
    eigvals, eigvecs = np.linalg.eigh(within)
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    return delta + root @ rng.standard_normal(dim)


def _draw_structure(
    config: SimConfig, index: int, comparison: str, rng: np.random.Generator
) -> TrialRecord:
    """One trial with drawn covariates and variances; outcomes zeroed."""
    schema = config.schema
    n_coded = int(rng.integers(1, config.max_coded_arms + 1))
    if comparison == "active":
        n_coded = max(2, n_coded)  # reference plus at least one contrast
    arms = tuple(
        InterventionArm(
            arm_id=f"arm{k + 1}",
            x=tuple(
                float(rng.random() < config.feature_prob)
                for _ in range(schema.n)
            ),
        )
        for k in range(n_coded)
    )
    patterns = config.patterns()
    weights = config.pattern_weights
    if weights is not None:
        probs = np.asarray(weights, dtype=float)
        probs = probs / probs.sum()
        pattern = patterns[rng.choice(len(patterns), p=probs)]
    else:
        pattern = patterns[rng.integers(0, len(patterns))]

    reference = "arm1" if comparison == "active" else None
    contrast = arms[1:] if comparison == "active" else arms
    lo, hi = config.variance_range
    flo, fhi = config.ref_var_fraction_range
    observations = []
    ref_change_var = {}
    fraction = float(rng.uniform(flo, fhi))
    for cat in pattern:
        shared_v = float(rng.uniform(lo, hi))
        ref_change_var[cat] = fraction * shared_v
        for arm in contrast:
            observations.append(
                Observation(
                    arm_id=arm.arm_id,
                    category=cat,
                    y=0.0,
                    v=shared_v,
                )
            )
    return TrialRecord(
        trial_id=f"sim-{index + 1:03d}",
        comparison=comparison,
        arms=arms,
        z=tuple(float(rng.normal(0.0, config.z_sd)) for _ in range(schema.p)),
        observations=tuple(observations),
        reference_arm=reference,
        ref_change_var=ref_change_var,
    )


def simulate_dataset(config: SimConfig) -> Dataset:
    """Generate a complete dataset under the configured true parameters.

    Deterministic in ``config.seed``. At least one control-comparison
    trial is always present (the first trial is forced to control when
    the draws produce none).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0,))
    )
    comparisons = [
        "control" if rng.random() < config.control_fraction else "active"
        for _ in range(config.n_trials)
    ]
    if "control" not in comparisons:
        comparisons[0] = "control"

    trials = []
    for i, comparison in enumerate(comparisons):
        skeleton = _draw_structure(config, i, comparison, rng)
        y = draw_trial_outcomes(
            skeleton, config.params, config.schema, config.rho_y, config.rho_d,
            rng,
        )
        observations = tuple(
            replace(obs, y=float(val))
            for obs, val in zip(skeleton.ordered_observations(), y)
        )
        trials.append(replace(skeleton, observations=observations))
    return Dataset(
        schema=config.schema,
        trials=tuple(trials),
        base_rho_y=config.rho_y,
        base_rho_d=config.rho_d,
    )
