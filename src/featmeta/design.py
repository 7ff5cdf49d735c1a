"""Design matrices and the fixed-effects regression surface.

The expected contrast for arm k of trial i at follow-up t has two forms.
Control-comparison trials regress on the arm's own covariates:

    theta = alpha + beta.x + gamma.z + phi.w + eta.J(x, z, w)

Active-comparison trials observe arm k relative to a coded reference arm
r, so the intercept, study covariates, and follow-up terms cancel:

    theta = beta.(x_k - x_r) + eta.(J_k - J_r)

Both are linear in the coefficients. ``_raw_rows`` builds each
observation's raw columns r = [x z w J], every interaction the product
of its raw factors; ``featmeta.data.center_covariates`` averages them
over the control trials. A control trial's design row is [1, r - means];
an active trial's is [0, r - r_ref] with z and w zeroed, where r_ref is
built from the reference arm's features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .data import (
        CenteringRecord,
        CovariateSchema,
        InterventionArm,
        TrialRecord,
    )

__all__ = [
    "ParameterVector",
    "trial_design_matrix",
    "fixed_effects",
]


@dataclass(frozen=True)
class ParameterVector:
    """Model parameters in canonical order: alpha, beta, gamma, phi, eta, tau."""

    alpha: float
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    phi: tuple[float, ...]
    eta: tuple[float, ...]
    tau: float

    def __post_init__(self):
        for name in ("beta", "gamma", "phi", "eta"):
            object.__setattr__(
                self, name, tuple(float(v) for v in getattr(self, name))
            )

    def as_array(self) -> np.ndarray:
        return np.concatenate(
            [
                [self.alpha],
                self.beta,
                self.gamma,
                self.phi,
                self.eta,
                [self.tau],
            ]
        )

    def coefficients(self) -> np.ndarray:
        """Fixed-effect coefficients only (everything but tau)."""
        return self.as_array()[:-1]

    @classmethod
    def from_array(
        cls, values: Sequence[float], schema: CovariateSchema
    ) -> "ParameterVector":
        values = np.asarray(values, dtype=float)
        if values.shape != (schema.n_parameters,):
            raise ValueError(
                f"expected {schema.n_parameters} parameters, got {values.shape}"
            )
        n, p, w_len, l = schema.n, schema.p, schema.q - 1, schema.l
        cuts = np.cumsum([1, n, p, w_len, l])
        return cls(
            alpha=float(values[0]),
            beta=tuple(values[cuts[0] : cuts[1]]),
            gamma=tuple(values[cuts[1] : cuts[2]]),
            phi=tuple(values[cuts[2] : cuts[3]]),
            eta=tuple(values[cuts[3] : cuts[4]]),
            tau=float(values[-1]),
        )

    @classmethod
    def zeros(cls, schema: CovariateSchema, tau: float = 0.0) -> "ParameterVector":
        return cls(
            alpha=0.0,
            beta=(0.0,) * schema.n,
            gamma=(0.0,) * schema.p,
            phi=(0.0,) * (schema.q - 1),
            eta=(0.0,) * schema.l,
            tau=tau,
        )


def _raw_rows(
    schema: CovariateSchema,
    trial: TrialRecord,
    arm: InterventionArm | None = None,
) -> np.ndarray:
    """Raw [x z w J] columns per observation, in canonical order.

    x is the observation's own arm's features, or ``arm``'s for every
    row when given; w holds the q-1 follow-up dummies, a single 1 at
    position c-1 for category c > 1 and all zero for category 1;
    interactions are products of the raw covariates.
    """
    x_of = {a.arm_id: a.x for a in trial.contrast_arms}
    rows = []
    for obs in trial.ordered_observations():
        x = x_of[obs.arm_id] if arm is None else arm.x
        w = [float(obs.category == c) for c in range(2, schema.q + 1)]
        pools = {"intervention": x, "study": trial.z, "followup": w}
        rows.append([
            *x, *trial.z, *w,
            *(math.prod(pools[f.level][f.index] for f in factors)
              for factors in schema.interactions),
        ])
    width = schema.n + schema.p + (schema.q - 1) + schema.l
    return np.array(rows, dtype=float).reshape(len(rows), width)


def trial_design_matrix(
    schema: CovariateSchema,
    trial: TrialRecord,
    centering: CenteringRecord | None = None,
) -> np.ndarray:
    """The trial's design rows [1 x z w J] in canonical observation order.

    Active-comparison rows are the arm's raw columns minus the reference
    arm's, with the intercept, study and follow-up columns zero; the
    centering means cancel there, so ``centering`` only shifts
    control-comparison rows.
    """
    raw = _raw_rows(schema, trial)
    if trial.comparison == "active":
        reference = trial.reference
        if reference is None:
            raise ValueError(
                f"trial {trial.trial_id!r}: active comparison without a "
                "resolvable reference arm"
            )
        raw -= _raw_rows(schema, trial, reference)
        raw[:, schema.n : schema.n + schema.p + schema.q - 1] = 0.0
        intercept = 0.0
    else:
        if centering is not None:
            raw -= np.concatenate([
                centering.x_means, centering.z_means,
                centering.w_means, centering.j_means,
            ])
        intercept = 1.0
    return np.concatenate([np.full((len(raw), 1), intercept), raw], axis=1)


def fixed_effects(
    params: ParameterVector,
    trial: TrialRecord,
    schema: CovariateSchema,
    centering: CenteringRecord | None = None,
) -> np.ndarray:
    """Expected contrast vector theta_i for one trial, canonical order."""
    return trial_design_matrix(schema, trial, centering) @ params.coefficients()
