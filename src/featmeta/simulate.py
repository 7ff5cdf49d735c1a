"""Synthetic dataset generation from known parameter values.

Draws trial structures (comparison type, arm count, feature vectors,
study covariates, follow-up pattern) and then samples outcomes from the
model itself: arm effects delta ~ N(theta, tau^2 S) followed by observed
contrasts y ~ N(delta, V), with V built by the same within-trial
covariance rule used for fitting. Sampling variances are shared across
arms within a (trial, follow-up) cell, and the reference arm's change
variance is that shared value scaled by a single per-trial fraction.
Together with equal base correlations for contrasts and reference
change scores, this keeps every generated trial consistent with an
arm-level variance decomposition, so the assembled V is positive
semidefinite by construction rather than by luck.

``simulate_dataset`` works in three passes over the trials:

1. draw: for each trial in order, its structure, then the 2 * dim
   standard normals of its outcomes (dim for delta, then dim for y);
   the random stream is consumed in exactly this order;
2. compute: once per (comparison type, dimension) group, V by
   ``within_covariance_stack``, one batched ``eigvalsh`` to find the
   matrices ``ensure_positive_semidefinite`` must see, the design rows,
   and the outcomes by batched ``eigh`` and matrix products, each
   trial's arithmetic the same as for a trial on its own;
3. build: each ``Observation`` and ``TrialRecord`` once, with its y, in
   canonical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kinds import _normalize
from .covariance import (
    between_structure,
    ensure_positive_semidefinite,
    within_covariance_stack,
)
from .data import (
    VARIANCE_RANGE,
    CovariateSchema,
    Dataset,
    InterventionArm,
    Observation,
    TrialRecord,
)
from .design import ParameterVector, _design_matrix

__all__ = ["SimConfig", "simulate_dataset"]


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
        _normalize(self)
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if not 0.0 <= self.control_fraction <= 1.0:
            raise ValueError("control_fraction must lie in [0, 1]")
        if self.max_coded_arms < 1:
            raise ValueError("max_coded_arms must be at least 1")
        schema = self.schema
        for name, count in (("beta", schema.n), ("gamma", schema.p),
                            ("phi", schema.q - 1), ("eta", schema.l)):
            got = len(getattr(self.params, name))
            if got != count:
                raise ValueError(f"params.{name}: expected {count} value(s), got {got}")
        for name in ("alpha", "beta", "gamma", "phi", "eta"):
            values = getattr(self.params, name)
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values}")
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
        vmin, vmax = VARIANCE_RANGE
        if not (vmin <= flo * lo and hi <= vmax):
            raise ValueError(
                f"variance_range, and its product with ref_var_fraction_range, "
                f"must lie within [{vmin:g}, {vmax:g}]"
            )
        for name in ("rho_y", "rho_d"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 <= self.feature_prob <= 1.0:
            raise ValueError("feature_prob must lie in [0, 1]")
        if not 0.0 <= self.z_sd < math.inf:
            raise ValueError("z_sd must be non-negative and finite")
        if self.followup_patterns is not None:
            if not self.followup_patterns:
                raise ValueError("followup_patterns must list a pattern")
            q = self.schema.q
            for pattern in self.followup_patterns:
                if not pattern or len(set(pattern)) != len(pattern) or not all(
                    1 <= c <= q for c in pattern
                ):
                    raise ValueError(
                        f"followup_patterns: followup pattern {list(pattern)} "
                        f"must hold distinct categories in 1..{q}, at least one"
                    )
        weights = self.pattern_weights
        if weights is not None:
            if len(weights) != len(self.patterns()):
                raise ValueError(
                    f"pattern_weights holds {len(weights)} weight(s) for "
                    f"{len(self.patterns())} follow-up pattern(s)"
                )
            if not (
                all(w >= 0.0 for w in weights) and 0.0 < sum(weights) < math.inf
            ):
                raise ValueError(
                    "pattern_weights must be non-negative with a positive, "
                    "finite sum"
                )

    def patterns(self) -> tuple[tuple[int, ...], ...]:
        if self.followup_patterns is not None:
            return self.followup_patterns
        return tuple(
            tuple(range(1, t + 1)) for t in range(1, self.schema.q + 1)
        )


def _outcomes(
    design: np.ndarray,
    within: np.ndarray,
    params: ParameterVector,
    normals: np.ndarray,
) -> np.ndarray:
    """Outcomes of a stack of trials of one dimension d.

    ``design`` is (G, d, k), ``within`` the PSD-checked V as (G, d, d)
    and ``normals`` (G, 2d): xi for delta, then xi' for y. Any of them
    may have G = 1 against a larger G of the others. The outcomes are
    delta = theta + tau * L_S xi, then y = delta + V^(1/2) xi', so
    tau = 0 yields delta = theta exactly. Every product is one
    matrix-vector or matrix-matrix product per trial, as for a trial on
    its own, so each trial's y keeps every bit.
    """
    dim = within.shape[-1]
    theta = design @ params.coefficients()
    chol_s = np.linalg.cholesky(between_structure(dim))
    delta = theta + params.tau * (chol_s @ normals[:, :dim, None])[..., 0]
    eigvals, eigvecs = np.linalg.eigh(within)
    root = (
        eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]
    ) @ eigvecs.transpose(0, 2, 1)
    return delta + (root @ normals[:, dim:, None])[..., 0]


@dataclass(frozen=True)
class _TrialDraw:
    """One trial's draws.

    ``x`` holds the coded arms' features (for an active trial, arm 1 is
    the reference); ``rows`` is (arm index into ``x``, category, v) per
    observation in canonical order; ``normals`` holds the 2 * dim
    standard normals of its outcomes.
    """

    comparison: str
    x: np.ndarray
    fraction: float
    rows: list[tuple[int, int, float]]
    z: np.ndarray
    normals: np.ndarray


def _draw_trial(
    config: SimConfig,
    patterns: tuple[tuple[int, ...], ...],
    probs: np.ndarray | None,
    comparison: str,
    rng: np.random.Generator,
) -> _TrialDraw:
    """Draw one trial's structure, then its outcome normals.

    ``probs`` are the normalized pattern weights, None for equal ones.
    """
    n_coded = int(rng.integers(1, config.max_coded_arms + 1))
    if comparison == "active":
        n_coded = max(2, n_coded)  # reference plus at least one contrast
    x = (rng.random((n_coded, config.schema.n)) < config.feature_prob).astype(float)
    if probs is not None:
        pattern = patterns[rng.choice(len(patterns), p=probs)]
    else:
        pattern = patterns[rng.integers(0, len(patterns))]
    fraction = float(rng.uniform(*config.ref_var_fraction_range))
    v = rng.uniform(*config.variance_range, len(pattern)).tolist()
    z = rng.normal(0.0, config.z_sd, config.schema.p)
    contrast = range(int(comparison == "active"), n_coded)
    rows = [(k, cat, vc) for cat, vc in sorted(zip(pattern, v)) for k in contrast]
    normals = rng.standard_normal(2 * len(rows))
    return _TrialDraw(comparison, x, fraction, rows, z, normals)


def _group_outcomes(
    config: SimConfig, draws: list[_TrialDraw], within: np.ndarray
) -> np.ndarray:
    """Outcomes of trials of one comparison type and dimension."""
    dim = len(draws[0].rows)
    active = draws[0].comparison == "active"
    design = _design_matrix(
        config.schema,
        draws[0].comparison,
        np.concatenate([d.x[[k for k, _, _ in d.rows]] for d in draws]),
        np.repeat([d.z for d in draws], dim, axis=0),
        [cat for d in draws for _, cat, _ in d.rows],
        np.repeat([d.x[0] for d in draws], dim, axis=0) if active else None,
    ).reshape(len(draws), dim, -1)
    normals = np.array([d.normals for d in draws])
    return _outcomes(design, within, config.params, normals)


def _trial_id(index: int) -> str:
    return f"sim-{index + 1:03d}"


def _trial_record(index: int, draw: _TrialDraw, y: np.ndarray) -> TrialRecord:
    arm_ids = [f"arm{k + 1}" for k in range(len(draw.x))]
    return TrialRecord(
        trial_id=_trial_id(index),
        comparison=draw.comparison,
        arms=tuple(map(InterventionArm, arm_ids, draw.x.tolist())),
        z=draw.z.tolist(),
        observations=tuple(
            Observation(arm_id=arm_ids[k], category=cat, y=value, v=v)
            for (k, cat, v), value in zip(draw.rows, y.tolist())
        ),
        reference_arm="arm1" if draw.comparison == "active" else None,
        ref_change_var={cat: draw.fraction * v for _, cat, v in draw.rows},
    )


def simulate_dataset(config: SimConfig) -> Dataset:
    """Generate a complete dataset under the configured true parameters.

    Deterministic in ``config.seed``. At least one control-comparison
    trial is always present (the first trial is forced to control when
    the draws produce none). When a drawn V is materially indefinite
    (possible only with unequal ``rho_y`` and ``rho_d``), the
    CovarianceError names the first such trial.
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
    patterns = config.patterns()
    probs = None
    if config.pattern_weights is not None:
        probs = np.asarray(config.pattern_weights)
        probs = probs / probs.sum()
    draws = [
        _draw_trial(config, patterns, probs, c, rng) for c in comparisons
    ]

    groups: dict[tuple[str, int], list[int]] = {}
    for i, draw in enumerate(draws):
        groups.setdefault((draw.comparison, len(draw.rows)), []).append(i)
    withins = {}
    suspects = []
    for key, members in groups.items():
        group = [draws[i] for i in members]
        withins[key] = within_covariance_stack(
            [[k for k, _, _ in d.rows] for d in group],
            [[cat for _, cat, _ in d.rows] for d in group],
            [[v for _, _, v in d.rows] for d in group],
            [[d.fraction * v for _, _, v in d.rows] for d in group],
            config.rho_y,
            config.rho_d,
        )
        # Only a matrix with a negative eigenvalue can fail the PSD check
        # or need its repair; those go through it in trial order.
        negative = np.linalg.eigvalsh(withins[key])[:, 0] < 0.0
        suspects += [(members[g], key, g) for g in np.flatnonzero(negative)]
    for i, key, g in sorted(suspects):
        withins[key][g] = ensure_positive_semidefinite(
            withins[key][g], f"within-trial covariance of trial {_trial_id(i)!r}"
        )

    outcomes = {}
    for key, members in groups.items():
        group = [draws[i] for i in members]
        outcomes.update(
            zip(members, _group_outcomes(config, group, withins[key]))
        )
    return Dataset(
        schema=config.schema,
        trials=tuple(
            _trial_record(i, draw, outcomes[i]) for i, draw in enumerate(draws)
        ),
        base_rho_y=config.rho_y,
        base_rho_d=config.rho_d,
    )
