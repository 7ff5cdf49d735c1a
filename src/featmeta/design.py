"""Design matrices of the fixed-effects regression surface.

The expected contrast for arm k of trial i at follow-up t has two forms.
Control-comparison trials regress on the arm's own covariates:

    theta = alpha + beta.x + gamma.z + phi.w + eta.J(x, z, w)

Active-comparison trials observe arm k relative to a coded reference arm
r, so the intercept, study covariates, and follow-up terms cancel:

    theta = beta.(x_k - x_r) + eta.(J_k - J_r)

Both are linear in the coefficients. ``_raw_rows`` builds the columns
[1 x z w J] of many observations at once, every interaction the product
of its raw factors; ``featmeta.data.center_covariates`` averages the
raw part r = [x z w J] over the control trials. A control trial's design
row is [1, r - means]; an active trial's is [0, r - r_ref] with z and w
zeroed, where r_ref is built from the reference arm's features. Each
row depends only on its own features, study covariates and category,
so ``_design_matrix`` serves one trial (``trial_design_matrix``) or the
rows of many trials of one comparison type (the simulator) alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._kinds import _normalize

if TYPE_CHECKING:
    from .data import CenteringRecord, CovariateSchema, TrialRecord

__all__ = ["ParameterVector", "trial_design_matrix"]


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
        _normalize(self)

    def as_array(self) -> np.ndarray:
        return np.concatenate(
            [[self.alpha], self.beta, self.gamma, self.phi, self.eta, [self.tau]]
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
        cuts = np.cumsum([1, schema.n, schema.p, schema.q - 1, schema.l])
        alpha, *blocks, tau = np.split(values, cuts)
        return cls(alpha[0], *map(tuple, blocks), tau[0])


def _raw_rows(
    schema: CovariateSchema,
    x: Sequence | np.ndarray,
    z: Sequence | np.ndarray,
    categories: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Columns [1 x z w J], one row per entry of ``categories``.

    ``x`` holds each row's intervention features (rows, n), or one
    feature vector for every row; ``z`` each row's study covariates
    (rows, p), or one vector for every row. w holds the q-1 follow-up
    dummies, a single 1 at position c-1 for category c > 1 and all zero
    for category 1; each interaction is the product of its raw factors,
    taken left to right as ``math.prod`` would. The leading column of
    ones is the control rows' intercept; it also pads every factor list
    to one length, since multiplying by 1.0 changes no bit.
    """
    n, p, q = schema.n, schema.p, schema.q
    levels, columns = _layout(n, p, q, schema.interactions)
    raw = np.empty((len(categories), n + p + q + schema.l))
    raw[:, 0] = 1.0
    if len(categories):
        raw[:, 1 : n + 1] = x
        raw[:, n + 1 : n + p + 1] = z
    raw[:, n + p + 1 : n + p + q] = np.equal.outer(categories, levels)
    if schema.l:
        terms = raw[:, n + p + q :]
        np.multiply(raw[:, columns[0]], raw[:, columns[1]], out=terms)
        for factor in columns[2:]:
            terms *= raw[:, factor]
    return raw


@functools.lru_cache(maxsize=64)
def _layout(n: int, p: int, q: int, interactions) -> tuple[np.ndarray, list]:
    """The follow-up categories 2..q that own a dummy column, and per
    factor position (at least two) the ``_raw_rows`` column of each
    interaction's factor there, or 0, the column of ones."""
    offset = {"intervention": 1, "study": n + 1, "followup": n + p + 1}
    width = max([2, *(len(factors) for factors in interactions)])
    arrays = [np.arange(2, q + 1)] + [
        np.array([
            offset[factors[k].level] + factors[k].index
            if k < len(factors) else 0
            for factors in interactions
        ])
        for k in range(width)
    ]
    for array in arrays:
        array.flags.writeable = False  # shared by every caller
    return arrays[0], arrays[1:]


def _design_matrix(
    schema: CovariateSchema,
    comparison: str,
    x: Sequence | np.ndarray,
    z: Sequence | np.ndarray,
    categories: Sequence[int] | np.ndarray,
    reference_x: Sequence[float] | np.ndarray | None = None,
    centering: CenteringRecord | None = None,
) -> np.ndarray:
    """Design rows [1 x z w J] of observations of one comparison type.

    ``x``, ``z`` and ``categories`` are as for ``_raw_rows``. An active
    comparison subtracts the rows built from ``reference_x`` (one vector
    for every row, or one per row), which zeroes the intercept, and
    zeroes the study and follow-up columns; ``centering`` only shifts
    control rows.
    """
    rows = _raw_rows(schema, x, z, categories)
    if comparison == "active":
        rows -= _raw_rows(schema, reference_x, z, categories)
        rows[:, schema.n + 1 : schema.n + schema.p + schema.q] = 0.0
    elif centering is not None:
        rows[:, 1:] -= np.concatenate([
            centering.x_means, centering.z_means,
            centering.w_means, centering.j_means,
        ])
    return rows


def _trial_rows(trial: TrialRecord) -> tuple[list, list[int]]:
    """Each observation's arm features and category, canonical order."""
    x_of = {a.arm_id: a.x for a in trial.contrast_arms}
    observations = trial.ordered_observations()
    return (
        [x_of[o.arm_id] for o in observations],
        [o.category for o in observations],
    )


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
    reference_x = None
    if trial.comparison == "active":
        reference = trial.reference
        if reference is None:
            raise ValueError(
                f"trial {trial.trial_id!r}: active comparison without a "
                "resolvable reference arm"
            )
        reference_x = reference.x
    x, categories = _trial_rows(trial)
    return _design_matrix(
        schema, trial.comparison, x, trial.z, categories, reference_x,
        centering,
    )

