"""Trial dataset types, validation, file IO, and covariate centering.

A dataset holds contrast-level observations from randomized trials: each
observation is a mean difference in change from baseline between an
intervention arm and a trial-specific reference arm, at one follow-up
category. Interventions are coded as binary feature vectors against a
shared schema; trials also carry study-level covariates, and each
observation its follow-up category as a plain integer 1..q (the design
layer turns it into the q-1 dummy columns w), with optional interaction
terms defined on the schema.

Trials whose reference arm is an inactive control are "control
comparison" trials; trials whose reference is itself a coded intervention
are "active comparison" trials. All per-trial vectors and matrices are
ordered time-major, then arm (in input order).

Every JSON input (datasets, fit manifests, generator configs) is decoded
by ``read_json`` and checked object by object by ``_object``: required
and optional keys, their JSON kinds, and no key the format lacks.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from ._kinds import _INTEGER, _LIST, _NUMBER, _OBJECT, _expected
from .design import _raw_rows, _trial_rows

__all__ = [
    "DataError",
    "DataFormatError",
    "DataValidationError",
    "Factor",
    "CovariateSchema",
    "InterventionArm",
    "Observation",
    "TrialRecord",
    "Dataset",
    "CenteringRecord",
    "schema_from_dict",
    "load_dataset",
    "save_dataset",
    "validate_trial",
    "validate_dataset",
    "center_covariates",
]

FACTOR_LEVELS = ("intervention", "study", "followup")

# The largest n, p, q or l a dataset file may declare. Each adds
# parameters, and the chains hold dense (parameters x parameters)
# matrices, so a size far beyond any trial set's fails validation
# rather than an allocation.
MAX_SCHEMA_SIZE = 1000

# Observation and reference change variances must lie in this range:
# inside it, every product of two of them (and of half of one, the
# imputed reference variance) is a normal double, so each entry
# sqrt(s_i * s_j) of V is exact to rounding.
VARIANCE_RANGE = (1e-150, 1e150)


class DataError(Exception):
    """Base class for dataset errors."""


class DataFormatError(DataError):
    """The input document could not be parsed or is structurally malformed."""


class DataValidationError(DataError):
    """The input parsed but violates a dataset invariant."""


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """One term of an interaction: a reference to a single covariate.

    ``level`` is one of "intervention", "study", "followup"; ``index`` is
    0-based into that level's covariates (for "followup", into the q-1
    dummy indicators, not the categories).
    """

    level: str
    index: int

    def __post_init__(self):
        if self.level not in FACTOR_LEVELS:
            raise ValueError(f"unknown factor level {self.level!r}")
        if self.index < 0:
            raise ValueError("factor index must be non-negative")


@dataclass(frozen=True)
class CovariateSchema:
    """Covariate dimensions and interaction definitions shared by all trials.

    n: number of binary intervention features.
    p: number of study-level covariates (real-valued).
    q: number of follow-up categories (q >= 1); category 1 is the
       reference and is encoded by the all-zero dummy vector.
    interactions: one factor-set per interaction term; each term's value
       is the product of its referenced covariates.
    names: optional display labels, keyed "x", "z", "w", "interactions".
    """

    n: int
    p: int
    q: int
    interactions: tuple[tuple[Factor, ...], ...] = ()
    names: Mapping[str, Sequence[str]] | None = None

    def __post_init__(self):
        if self.n < 0 or self.p < 0:
            raise ValueError("covariate counts must be non-negative")
        if self.q < 1:
            raise ValueError("need at least one follow-up category")
        object.__setattr__(
            self, "interactions", tuple(tuple(fs) for fs in self.interactions)
        )
        bounds = {"intervention": self.n, "study": self.p, "followup": self.q - 1}
        for j, factors in enumerate(self.interactions):
            if not factors:
                raise ValueError(f"interaction {j} has an empty factor set")
            if len(set(factors)) != len(factors):
                raise ValueError(f"interaction {j} repeats a factor")
            for f in factors:
                if f.index >= bounds[f.level]:
                    raise ValueError(
                        f"interaction {j}: {f.level} index {f.index} out of range"
                    )

    @property
    def l(self) -> int:  # noqa: E743 - matches the model's interaction count
        return len(self.interactions)

    def parameter_names(self) -> list[str]:
        """Canonical parameter names in sampling order (machine-friendly)."""
        names = ["alpha"]
        names += [f"beta_{j + 1}" for j in range(self.n)]
        names += [f"gamma_{j + 1}" for j in range(self.p)]
        names += [f"phi_{j + 1}" for j in range(self.q - 1)]
        names += [f"eta_{j + 1}" for j in range(self.l)]
        names.append("tau")
        return names

    @property
    def n_parameters(self) -> int:
        """Model parameter count: intercept + coefficients + heterogeneity SD."""
        return 2 + self.n + self.p + (self.q - 1) + self.l


# ---------------------------------------------------------------------------
# Trial components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterventionArm:
    """One coded intervention arm: identifier plus binary feature vector."""

    arm_id: str
    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))


@dataclass(frozen=True)
class Observation:
    """One contrast-level measurement: arm vs reference at one follow-up.

    ``category`` is the follow-up category, 1..q of the schema; ``y`` is
    the mean difference in change from baseline; ``v`` its within-study
    sampling variance (squared standard error).
    """

    arm_id: str
    category: int
    y: float
    v: float


@dataclass(frozen=True)
class TrialRecord:
    """One trial's arms, covariates, observations, and variance inputs.

    ``arms`` holds every coded arm: the non-reference arms, plus (for
    active-comparison trials only) the reference arm named by
    ``reference_arm``. Control-comparison trials have an uncoded control
    reference and must leave ``reference_arm`` unset.

    ``ref_change_var`` optionally maps follow-up category -> variance of
    the reference arm's change score, used for within-trial covariances;
    when absent it is imputed downstream. ``rho_y`` / ``rho_d`` override
    the dataset-level correlation coefficients for this trial.
    """

    trial_id: str
    comparison: str  # "control" | "active"
    arms: tuple[InterventionArm, ...]
    z: tuple[float, ...]
    observations: tuple[Observation, ...]
    reference_arm: str | None = None
    ref_change_var: Mapping[int, float] | None = None
    rho_y: float | None = None
    rho_d: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        object.__setattr__(self, "observations", tuple(self.observations))
        if self.ref_change_var is not None:
            object.__setattr__(
                self,
                "ref_change_var",
                {int(k): float(v) for k, v in self.ref_change_var.items()},
            )

    # -- structure helpers (ordering: time-major, then arm in input order) --

    @property
    def contrast_arms(self) -> tuple[InterventionArm, ...]:
        """Arms that contribute observations (all coded arms minus reference)."""
        if self.comparison == "active" and self.reference_arm is not None:
            return tuple(a for a in self.arms if a.arm_id != self.reference_arm)
        return self.arms

    @property
    def reference(self) -> InterventionArm | None:
        """The coded reference arm for active trials; None for control."""
        if self.comparison == "active" and self.reference_arm is not None:
            for a in self.arms:
                if a.arm_id == self.reference_arm:
                    return a
        return None

    @property
    def observed_categories(self) -> tuple[int, ...]:
        return tuple(sorted({o.category for o in self.observations}))

    @property
    def dimension(self) -> int:
        """Length of the trial's observation vector, T_i * (A_i - 1)."""
        return len(self.observations)

    def ordered_observations(self) -> list[Observation]:
        """Observations in canonical (time-major, then arm) order."""
        return list(self._canonical_order)

    @functools.cached_property
    def _canonical_order(self) -> tuple[Observation, ...]:
        # Computed once per record: the design rows, V and y of a trial
        # each walk this order.
        index = {(o.arm_id, o.category): o for o in self.observations}
        return tuple(
            index[arm.arm_id, t]
            for t in self.observed_categories
            for arm in self.contrast_arms
            if (arm.arm_id, t) in index
        )

    def y_vector(self) -> np.ndarray:
        return np.array([o.y for o in self.ordered_observations()])


@dataclass(frozen=True)
class CenteringRecord:
    """Column means subtracted from the control-comparison design rows.

    Means are taken over every (trial, arm, time) design row contributed
    by control-comparison trials, with interaction columns formed from
    raw covariate products before averaging. Active-comparison rows are
    differences between arms, so the means cancel there and are never
    applied.
    """

    x_means: tuple[float, ...]
    z_means: tuple[float, ...]
    w_means: tuple[float, ...]
    j_means: tuple[float, ...]
    n_rows: int

    def intercept_shift(self, beta, gamma, phi, eta):
        """Offset between raw-scale and centered-scale intercepts.

        alpha_centered = alpha_raw + shift; works on single coefficient
        vectors or on (draws, dim) arrays.
        """
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return (
            beta @ np.asarray(self.x_means)
            + gamma @ np.asarray(self.z_means)
            + phi @ np.asarray(self.w_means)
            + eta @ np.asarray(self.j_means)
        )

    def as_dict(self) -> dict:
        return {
            "x": list(self.x_means),
            "z": list(self.z_means),
            "w": list(self.w_means),
            "interactions": list(self.j_means),
            "n_rows": self.n_rows,
        }


@dataclass(frozen=True)
class Dataset:
    """A schema, the trials coded against it, and base correlation inputs.

    ``base_rho_y`` is the assumed correlation between a contrast's mean
    differences one follow-up category apart; ``base_rho_d`` the same for
    the reference arm's change scores. ``centering``, when set, marks the
    dataset as centered: design rows built from it have the recorded
    column means subtracted.
    """

    schema: CovariateSchema
    trials: tuple[TrialRecord, ...]
    base_rho_y: float = 0.0
    base_rho_d: float = 0.0
    centering: CenteringRecord | None = None

    def __post_init__(self):
        object.__setattr__(self, "trials", tuple(self.trials))

    @property
    def n_trials(self) -> int:
        return len(self.trials)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_trial(trial: TrialRecord, schema: CovariateSchema) -> list[str]:
    """Check one trial against the schema; returns human-readable violations.

    An empty list means the trial satisfies every invariant. Violations
    are data, not exceptions: callers decide whether to reject.
    """
    out: list[str] = []

    if trial.comparison not in ("control", "active"):
        out.append(f"unknown comparison type {trial.comparison!r}")
        return out

    if trial.comparison == "control":
        if trial.reference_arm is not None:
            out.append("control trial must not carry reference-arm covariates")
    else:
        if trial.reference_arm is None:
            out.append("active trial missing reference-arm covariates")
        elif not any(a.arm_id == trial.reference_arm for a in trial.arms):
            out.append(
                f"reference arm {trial.reference_arm!r} not among coded arms"
            )

    seen_ids = set()
    for arm in trial.arms:
        if arm.arm_id in seen_ids:
            out.append(f"duplicate arm id {arm.arm_id!r}")
        seen_ids.add(arm.arm_id)
        if len(arm.x) != schema.n:
            out.append(
                f"arm {arm.arm_id!r}: expected {schema.n} intervention "
                f"covariates, got {len(arm.x)}"
            )
        elif any(v not in (0.0, 1.0) for v in arm.x):
            out.append(f"arm {arm.arm_id!r}: non-binary intervention covariate")

    if len(trial.z) != schema.p:
        out.append(f"expected {schema.p} study covariates, got {len(trial.z)}")
    elif not all(map(math.isfinite, trial.z)):
        out.append("non-finite study covariate")

    if not trial.observations:
        out.append("trial has no observations")

    contrast_ids = {a.arm_id for a in trial.contrast_arms}
    seen_obs = set()
    per_arm_cats: dict[str, set[int]] = {a: set() for a in contrast_ids}
    for obs in trial.observations:
        cat = obs.category
        if not 1 <= cat <= schema.q:
            out.append(f"follow-up category {cat} outside 1..{schema.q}")
        if obs.arm_id not in contrast_ids:
            if trial.reference_arm == obs.arm_id:
                out.append(f"observation on reference arm {obs.arm_id!r}")
            else:
                out.append(f"observation references unknown arm {obs.arm_id!r}")
            continue
        key = (obs.arm_id, cat)
        if key in seen_obs:
            out.append(f"duplicate (arm, time) observation {key}")
        seen_obs.add(key)
        per_arm_cats[obs.arm_id].add(cat)
        if not math.isfinite(obs.y):
            out.append(f"non-finite mean difference at {key}")
        if not (math.isfinite(obs.v) and obs.v > 0):
            out.append(f"non-positive observation variance at {key}")
        elif not VARIANCE_RANGE[0] <= obs.v <= VARIANCE_RANGE[1]:
            out.append(
                f"observation variance {obs.v:g} at {key} outside "
                f"[{VARIANCE_RANGE[0]:g}, {VARIANCE_RANGE[1]:g}]"
            )

    cat_sets = {frozenset(c) for c in per_arm_cats.values()}
    if len(cat_sets) > 1:
        out.append("arms observed at differing follow-up categories")

    if trial.ref_change_var is not None:
        for cat, val in trial.ref_change_var.items():
            arm_vars = [o.v for o in trial.observations if o.category == cat]
            if not arm_vars:
                out.append(f"ref_change_var given for unobserved category {cat}")
                continue
            if not val > 0:
                out.append(f"non-positive reference variance at category {cat}")
            elif val > min(arm_vars):
                out.append(
                    f"reference variance exceeds observation variance at "
                    f"category {cat}"
                )
            elif not VARIANCE_RANGE[0] <= val <= VARIANCE_RANGE[1]:
                out.append(
                    f"reference variance {val:g} at category {cat} outside "
                    f"[{VARIANCE_RANGE[0]:g}, {VARIANCE_RANGE[1]:g}]"
                )

    for name in ("rho_y", "rho_d"):
        rho = getattr(trial, name)
        if rho is not None and not 0.0 <= rho < 1.0:
            out.append(f"{name} override {rho} outside [0, 1)")

    return out


def validate_dataset(dataset: Dataset) -> list[str]:
    """Check dataset-level invariants plus every trial; returns violations."""
    out: list[str] = []
    if dataset.n_trials < 1:
        out.append("dataset: contains no trials")
    if dataset.trials and not any(
        t.comparison == "control" for t in dataset.trials
    ):
        out.append(
            "dataset: no control-comparison trial "
            "(intercept, study, and follow-up effects unidentifiable)"
        )
    for name in ("base_rho_y", "base_rho_d"):
        rho = getattr(dataset, name)
        if not 0.0 <= rho < 1.0:
            out.append(f"dataset: {name}={rho} outside [0, 1)")
    seen_ids: set[str] = set()
    for trial in dataset.trials:
        if trial.trial_id in seen_ids:
            out.append(f"dataset: duplicate trial id {trial.trial_id!r}")
        seen_ids.add(trial.trial_id)
        for violation in validate_trial(trial, dataset.schema):
            out.append(f"trial {trial.trial_id!r}: {violation}")
    return out


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
# Factor and category indices are 1-based on disk (0-based in memory,
# except follow-up categories which are 1-based everywhere).


# The keys of each object of a dataset and the JSON kinds of their values
# (None for any); the keys of schema.names and ref_change_var are free.
_TOP_LEVEL = {"schema": _OBJECT, "correlations": _OBJECT, "trials": _LIST}
_SCHEMA = dict.fromkeys("npql", _INTEGER)
_SCHEMA_OPTIONAL = {"interactions": _LIST, "names": _OBJECT}
_FACTOR = {"level": None, "index": _INTEGER}
_CORRELATIONS = {"rho_y": _NUMBER, "rho_d": _NUMBER}
_TRIAL = {"id": None, "comparison": None, "z": _LIST, "arms": _LIST,
          "observations": _LIST}
_TRIAL_OPTIONAL = {"reference_arm": None, "ref_change_var": _OBJECT,
                   "rho_y": _NUMBER, "rho_d": _NUMBER}
_ARM = {"id": None, "x": _LIST}
_OBSERVATION = {"arm": None, "category": _INTEGER, "y": _NUMBER, "v": _NUMBER}


def _checked(value, path, kind):
    """``value``, which must be of the JSON ``kind``; an integer of a
    number kind must convert to a float."""
    if type(value) not in kind:
        raise DataFormatError(_expected(path, kind, value))
    if type(value) is int and float in kind:
        try:
            float(value)
        except OverflowError:
            raise DataFormatError(_expected(path, kind, value)) from None
    return value


def _items(value, path, kind, count=None) -> list:
    """``value``, a JSON list of items of the JSON ``kind``, and of
    ``count`` items when a count is given."""
    for k, item in enumerate(_checked(value, path, _LIST)):
        _checked(item, f"{path}[{k}]", kind)
    if count is not None and len(value) != count:
        raise DataFormatError(f"{path}: expected {count} items, got {len(value)}")
    return value


def _object(raw, path, required, optional=None, unknown="unknown keys"):
    """``raw``, a JSON object that must hold every ``required`` key.

    ``required`` and ``optional``, two disjoint maps, take each key to
    the JSON kind of its value, or to None for any kind; an optional key
    holding null counts as absent. With ``optional`` given, another key
    is an error, ``unknown`` and the sorted keys. ``path`` names the
    object, "" the top level of a file.
    """
    where = path or "top level"
    if type(raw) is not dict:
        _checked(raw, where, _OBJECT)
    # Only a value of another kind, or an integer, can fail _checked.
    for key, kind in required.items():
        if key not in raw:
            raise DataFormatError(f"{where}: missing required field {key!r}")
        if kind is not None and (
            type(raw[key]) not in kind or type(raw[key]) is int
        ):
            _checked(raw[key], f"{path}.{key}" if path else key, kind)
    if optional is None:
        return raw
    extra = len(raw) - len(required)  # keys other than the required ones
    for key, kind in optional.items():
        if key in raw:
            extra -= 1
            if raw[key] is not None and kind is not None and (
                type(raw[key]) not in kind or type(raw[key]) is int
            ):
                _checked(raw[key], f"{path}.{key}" if path else key, kind)
    if extra:
        keys = sorted(raw.keys() - required.keys() - optional.keys())
        raise DataFormatError(f"{where}: {unknown} " + ", ".join(map(repr, keys)))
    return raw


def _file_error(stream, message: str, kind=DataFormatError) -> DataError:
    """A data error of class ``kind`` naming the file ``stream`` reads,
    if it has a name."""
    name = getattr(stream, "name", None)
    return kind(message if name is None else f"{name}: {message}")


def read_json(stream: IO[str], what: str):
    """The JSON value in ``stream``, a ``what`` ("dataset", say); a
    DataFormatError names the file, ``what``, and the line and column."""
    try:
        return json.loads(stream.read())
    except json.JSONDecodeError as e:
        raise _file_error(stream, f"{what} parse error at line {e.lineno}, "
                                  f"column {e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise _file_error(stream, f"{what} is not UTF-8: {e}") from e
    except ValueError as e:  # an integer of more digits than int() takes
        raise _file_error(stream, f"{what} holds an integer too long to "
                                  "parse") from e
    except RecursionError as e:
        raise _file_error(stream, f"{what} nests too deeply to parse") from e


def schema_from_dict(raw: dict) -> CovariateSchema:
    """Build a schema from its file representation (1-based indices)."""
    _object(raw, "schema", _SCHEMA, _SCHEMA_OPTIONAL)
    n, p, q, l = (raw[key] for key in "npql")
    for key in "npql":
        if raw[key] > MAX_SCHEMA_SIZE:
            raise DataValidationError(
                f"schema.{key}: larger than {MAX_SCHEMA_SIZE}, the largest "
                "size a schema may declare"
            )
    factor_sets = []
    raw_sets = _items(raw.get("interactions") or [], "schema.interactions", _LIST)
    for j, raw_set in enumerate(raw_sets):
        factors = []
        for k, raw_f in enumerate(raw_set):
            path = f"schema.interactions[{j}][{k}]"
            _object(raw_f, path, _FACTOR, {})
            level, index = raw_f["level"], raw_f["index"]
            if index < 1:
                raise DataFormatError(f"{path}: index is 1-based, got {index}")
            if level not in FACTOR_LEVELS:
                raise DataFormatError(f"{path}: unknown factor level {level!r}")
            factors.append(Factor(level=level, index=index - 1))
        factor_sets.append(tuple(factors))
    if len(factor_sets) != l:
        raise DataFormatError(
            f"schema: l={l} but {len(factor_sets)} interactions defined"
        )
    names = raw.get("names")
    for key, labels in (names or {}).items():
        if type(labels) not in _LIST or not all(type(v) is str for v in labels):
            raise DataFormatError(
                f"schema.names.{key}: expected a list of strings, got {labels!r}"
            )
    try:
        return CovariateSchema(n, p, q, tuple(factor_sets), names)
    except ValueError as e:
        raise DataValidationError(f"schema: {e}") from e


def _parse_trial(raw, idx: int) -> TrialRecord:
    path = f"trials[{idx}]"
    _object(raw, path, _TRIAL, _TRIAL_OPTIONAL)
    arms = []
    for k, raw_arm in enumerate(raw["arms"]):
        apath = f"{path}.arms[{k}]"
        _object(raw_arm, apath, _ARM, {})
        arms.append(InterventionArm(
            str(raw_arm["id"]), _items(raw_arm["x"], f"{apath}.x", _NUMBER)
        ))
    observations = []
    for k, raw_obs in enumerate(raw["observations"]):
        _object(raw_obs, f"{path}.observations[{k}]", _OBSERVATION, {})
        observations.append(Observation(
            str(raw_obs["arm"]), raw_obs["category"],
            float(raw_obs["y"]), float(raw_obs["v"]),
        ))
    ref_change_var = raw.get("ref_change_var")
    for key, value in (ref_change_var or {}).items():
        if not (key.isdecimal() and type(value) in _NUMBER):
            raise DataFormatError(
                f"{path}.ref_change_var: expected numbers keyed by category, "
                f"got {key!r}: {value!r}"
            )
        _checked(value, f"{path}.ref_change_var.{key}", _NUMBER)
    # Ids are read as strings, the reference arm's as the arms' own.
    reference = raw.get("reference_arm")
    return TrialRecord(
        trial_id=str(raw["id"]),
        comparison=raw["comparison"],
        arms=tuple(arms),
        z=_items(raw["z"], f"{path}.z", _NUMBER),
        observations=tuple(observations),
        reference_arm=None if reference is None else str(reference),
        ref_change_var=ref_change_var,
        rho_y=raw.get("rho_y"),
        rho_d=raw.get("rho_d"),
    )


def load_dataset(source: str | Path | IO[str], validate: bool = True) -> Dataset:
    """Parse and (by default) fully validate a dataset document.

    ``source`` may be a path or an open text stream. Raises
    DataFormatError for an undecodable or structurally malformed
    document: a value of the wrong JSON type, a missing key or a key the
    format does not define, each named by its path (an optional key may
    hold null). Raises DataValidationError for a schema it cannot build,
    naming the key, and, naming the trial, when an invariant fails. A
    format or schema error names the file when the source has a name.
    Pass ``validate=False`` to obtain the parsed dataset and run
    ``validate_dataset`` separately, e.g. to report every violation.
    """
    if hasattr(source, "read"):
        stream, raw = source, read_json(source, "dataset")
    else:
        with open(source, encoding="utf-8") as stream:
            raw = read_json(stream, "dataset")
    try:
        _object(raw, "", _TOP_LEVEL, {})
        schema = schema_from_dict(raw["schema"])
        rho = _object(raw["correlations"], "correlations", _CORRELATIONS, {})
        trials = tuple(_parse_trial(t, i) for i, t in enumerate(raw["trials"]))
    except DataError as e:
        raise _file_error(stream, str(e), type(e)) from e
    dataset = Dataset(schema, trials, float(rho["rho_y"]), float(rho["rho_d"]))
    if validate:
        violations = validate_dataset(dataset)
        if violations:
            raise DataValidationError("\n".join(violations))
    return dataset


def dataset_to_dict(dataset: Dataset) -> dict:
    """Canonical JSON-ready form (the inverse of load_dataset's parsing)."""
    schema = dataset.schema
    doc: dict = {
        "schema": {
            "n": schema.n,
            "p": schema.p,
            "q": schema.q,
            "l": schema.l,
            "interactions": [
                [{"level": f.level, "index": f.index + 1} for f in fs]
                for fs in schema.interactions
            ],
        },
        "correlations": {
            "rho_y": dataset.base_rho_y,
            "rho_d": dataset.base_rho_d,
        },
        "trials": [],
    }
    if schema.names is not None:
        doc["schema"]["names"] = {k: list(v) for k, v in schema.names.items()}
    for trial in dataset.trials:
        raw: dict = {
            "id": trial.trial_id,
            "comparison": trial.comparison,
            "z": list(trial.z),
            "arms": [{"id": a.arm_id, "x": list(a.x)} for a in trial.arms],
            "observations": [
                {
                    "arm": o.arm_id,
                    "category": o.category,
                    "y": o.y,
                    "v": o.v,
                }
                for o in trial.observations
            ],
        }
        if trial.reference_arm is not None:
            raw["reference_arm"] = trial.reference_arm
        if trial.ref_change_var is not None:
            raw["ref_change_var"] = {
                str(k): v for k, v in sorted(trial.ref_change_var.items())
            }
        if trial.rho_y is not None:
            raw["rho_y"] = trial.rho_y
        if trial.rho_d is not None:
            raw["rho_d"] = trial.rho_d
        doc["trials"].append(raw)
    return doc


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the dataset in the canonical file format (UTF-8 JSON).

    The text is ``json.dumps(dataset_to_dict(dataset), indent=2)`` and a
    newline. It is formatted by ``_json_parts``: with ``indent`` set,
    json formats every value in pure Python, which took most of the save.
    """
    parts: list[str] = []
    _json_parts(dataset_to_dict(dataset), "\n", parts)
    parts.append("\n")
    Path(path).write_text("".join(parts), encoding="utf-8")


# json's text for the floats whose repr differs from it.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


# json's text for each scalar type, by exact type.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_parts(value, newline: str, parts: list[str]) -> None:
    """Append the text ``json.dumps(value, indent=2)`` gives, its nested
    lines starting with ``newline`` (a newline and the indent so far).

    Dict keys must be strings, as they are in ``dataset_to_dict``. A
    container formats its scalar items itself, which saves a call per
    value.
    """
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        parts.append(scalar(value))
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_json_float(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            label = separator + encode_basestring_ascii(key) + ": "
            scalar = _JSON_SCALARS.get(type(item))
            if scalar is None:
                parts.append(label)
                _json_parts(item, inner, parts)
            else:
                parts.append(label + scalar(item))
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            scalar = _JSON_SCALARS.get(type(item))
            if scalar is None:
                parts.append(separator)
                _json_parts(item, inner, parts)
            else:
                parts.append(separator + scalar(item))
            separator = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


# ---------------------------------------------------------------------------
# Centering
# ---------------------------------------------------------------------------


def center_covariates(dataset: Dataset) -> tuple[Dataset, CenteringRecord]:
    """Center all covariate columns (interactions included) about their mean.

    Means are computed over the raw control-comparison design rows, with
    interaction products formed before averaging; the returned dataset
    carries the record and presents centered values through design-row
    assembly. Active-comparison rows difference out the means, so they
    are unchanged. Centering only shifts the intercept's interpretation;
    the record's ``intercept_shift`` recovers the raw scale.
    """
    schema = dataset.schema
    x, z, categories = [], [], []
    for trial in dataset.trials:
        if trial.comparison == "control":
            trial_x, trial_categories = _trial_rows(trial)
            x += trial_x
            z += [trial.z] * len(trial_categories)
            categories += trial_categories
    if not categories:
        raise DataValidationError(
            "cannot center: dataset has no control-comparison design rows"
        )
    # A contiguous copy, as np.vstack of per-trial blocks gave: the means
    # then sum in the same order.
    stacked = np.ascontiguousarray(_raw_rows(schema, x, z, categories)[:, 1:])
    means = stacked.mean(axis=0)
    n, p, w_len = schema.n, schema.p, schema.q - 1
    record = CenteringRecord(
        x_means=tuple(means[:n]),
        z_means=tuple(means[n : n + p]),
        w_means=tuple(means[n + p : n + p + w_len]),
        j_means=tuple(means[n + p + w_len :]),
        n_rows=stacked.shape[0],
    )
    return replace(dataset, centering=record), record
