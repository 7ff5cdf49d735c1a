"""Within-trial and between-trial covariance construction.

Observed contrasts from one trial share the reference arm's change score
and may repeat arms across follow-up categories. The within-trial
sampling covariance V has one rule for rows (k, t) and columns (k', t'):

    V = rho^|t - t'| * sqrt(s_t * s_t')

with (rho, s) = (rho_y, v) for the same arm, v the observation variance,
and (rho, s) = (rho_d, var_d) for different arms, var_d the reference
arm's change-score variance at that follow-up. At equal times
rho^0 = 1 and sqrt(s * s) = s, so the rule gives v on the diagonal and
var_d(t) between arms at one follow-up. Correlations decay
geometrically in the follow-up category separation. The reference
arm's change-score variance is rarely reported; when absent it is
imputed as half the smallest contrast variance at that follow-up, which
keeps V positive semidefinite.

The rule is applied in one place, ``within_covariance_stack``: a
vectorized kernel over a stack of trials of one dimension, each given
per row as (arm, category, v, var_d). ``build_within_covariance`` is
that kernel on a stack of one trial; the simulator calls it once per
trial dimension. The powers rho^k come from a table built with Python's
float power, not numpy's vectorized one, whose last bit can differ on
some machines.

Between-trial heterogeneity in the arm effects delta has covariance
tau^2 on the diagonal and tau^2 / 2 everywhere else (arm effects within
a trial share the common-reference correlation 1/2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import TrialRecord

__all__ = [
    "CovarianceError",
    "WithinCovariance",
    "rho_for_separation",
    "impute_ref_change_variance",
    "build_within_covariance",
    "within_covariance_stack",
    "between_structure",
    "ensure_positive_semidefinite",
]

# Eigenvalues above -PSD_REL_TOL * scale are treated as rounding noise and
# clipped; anything below that is a genuine inconsistency in the inputs.
PSD_REL_TOL = 1e-10


class CovarianceError(Exception):
    """A covariance matrix could not be built or is not positive semidefinite."""


@dataclass(frozen=True, eq=False)
class WithinCovariance:
    """A trial's within-study covariance V, rows in canonical order."""

    trial_id: str
    matrix: np.ndarray


def rho_for_separation(base_rho: float, t: int, t_prime: int) -> float:
    """Correlation between measurements |t - t_prime| categories apart."""
    if not 0.0 <= base_rho < 1.0:
        raise ValueError(f"base correlation {base_rho} outside [0, 1)")
    return base_rho ** abs(t - t_prime)


def impute_ref_change_variance(trial: TrialRecord, category: int) -> float:
    """Reference-arm change variance at one follow-up category.

    Uses the trial's supplied value when present, otherwise half the
    smallest observation variance at that category.
    """
    if trial.ref_change_var is not None and category in trial.ref_change_var:
        return trial.ref_change_var[category]
    arm_vars = [o.v for o in trial.observations if o.category == category]
    if not arm_vars:
        raise CovarianceError(
            f"trial {trial.trial_id!r}: no observations at category {category}"
        )
    return 0.5 * min(arm_vars)


def within_covariance_stack(
    arm: np.ndarray,
    category: np.ndarray,
    v: np.ndarray,
    ref_var: np.ndarray,
    rho_y: float,
    rho_d: float,
) -> np.ndarray:
    """V for a stack of trials of one dimension d, before the PSD check.

    Each input is (G, d), one row per trial in canonical order: the
    row's arm (any label compared for equality), follow-up category,
    observation variance v and the reference change variance var_d at
    its category. Returns (G, d, d) with entry (i, j) of trial g equal to
    rho^|t_i - t_j| * sqrt(s_i * s_j), where (rho, s) is (rho_y, v) for
    rows of one arm and (rho_d, var_d) otherwise.
    """
    arm = np.asarray(arm)
    category = np.asarray(category)
    same = (arm[:, :, None] == arm[:, None, :]).view(np.int8)
    lag = np.abs(category[:, :, None] - category[:, None, :])
    # s as (2, G, d): var_d for pairs of arms (same = 0), v for one (1).
    s = np.array([ref_var, v], dtype=float)
    products = s[:, :, :, None] * s[:, :, None, :]
    lags = int(lag.max()) + 1 if lag.size else 1
    # The table is cached by the bits of each rho: -0.0 == 0.0, yet
    # (-0.0)^1 and 0.0^1 differ in sign.
    powers = _powers(float(rho_d).hex(), float(rho_y).hex(), lags, rho_d, rho_y)
    return powers[same, lag] * np.sqrt(np.where(same, products[1], products[0]))


@functools.lru_cache(maxsize=64)
def _powers(key_d: str, key_y: str, lags: int, rho_d: float, rho_y: float):
    """rho^k for k < lags, rho_d's row then rho_y's, by Python's float
    power: numpy's vectorized power may differ in the last bit."""
    table = np.array([
        [rho_for_separation(rho, 0, k) for k in range(lags)]
        for rho in (rho_d, rho_y)
    ])
    table.flags.writeable = False  # shared by every caller
    return table


def build_within_covariance(
    trial: TrialRecord,
    base_rho_y: float,
    base_rho_d: float,
) -> WithinCovariance:
    """Assemble and PSD-check the trial's within-study covariance V.

    Trial-level correlation overrides take precedence over the
    dataset-level coefficients.
    """
    rho_y = trial.rho_y if trial.rho_y is not None else base_rho_y
    rho_d = trial.rho_d if trial.rho_d is not None else base_rho_d
    dvar = {
        t: impute_ref_change_variance(trial, t) for t in trial.observed_categories
    }
    rows = trial.ordered_observations()
    matrix = within_covariance_stack(
        [[o.arm_id for o in rows]],
        [[o.category for o in rows]],
        [[o.v for o in rows]],
        [[dvar[o.category] for o in rows]],
        rho_y,
        rho_d,
    )[0]
    matrix = ensure_positive_semidefinite(
        matrix, f"within-trial covariance of trial {trial.trial_id!r}"
    )
    return WithinCovariance(trial_id=trial.trial_id, matrix=matrix)


def between_structure(dim: int) -> np.ndarray:
    """Unit-heterogeneity structure S: 1 on the diagonal, 1/2 elsewhere."""
    return 0.5 * (np.eye(dim) + np.ones((dim, dim)))


def ensure_positive_semidefinite(matrix: np.ndarray, context: str) -> np.ndarray:
    """Verify PSD-ness, repairing rounding-level negative eigenvalues.

    Raises CovarianceError (naming ``context`` and the offending
    eigenvalue) when the smallest eigenvalue is materially negative.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise CovarianceError(f"{context}: not a square matrix")
    if not np.array_equal(matrix, matrix.T):
        raise CovarianceError(f"{context}: not symmetric")
    eigvals = np.linalg.eigvalsh(matrix)
    scale = max(abs(eigvals[-1]), 1.0)
    if eigvals[0] < -PSD_REL_TOL * scale:
        raise CovarianceError(
            f"{context}: not positive semidefinite "
            f"(smallest eigenvalue {eigvals[0]:.6g})"
        )
    if eigvals[0] < 0.0:
        vals, vecs = np.linalg.eigh(matrix)
        repaired = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        matrix = 0.5 * (repaired + repaired.T)
    return matrix
