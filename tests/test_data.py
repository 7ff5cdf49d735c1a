"""Dataset types, file IO, validation, and centering."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmeta import (
    CovariateSchema,
    DataFormatError,
    Dataset,
    DataValidationError,
    Factor,
    InterventionArm,
    Observation,
    TrialRecord,
    center_covariates,
    dataset_to_dict,
    load_dataset,
    save_dataset,
    validate_dataset,
    validate_trial,
)
from featmeta.design import trial_design_matrix

from conftest import arm, grid_trial
from reference import arm_count, n_followups

MINIMAL_DOC = {
    "schema": {"n": 1, "p": 0, "q": 1, "l": 0, "interactions": []},
    "correlations": {"rho_y": 0.8, "rho_d": 0.64},
    "trials": [
        {
            "id": "t1",
            "comparison": "control",
            "z": [],
            "arms": [{"id": "a1", "x": [1]}],
            "observations": [{"arm": "a1", "category": 1, "y": -0.1, "v": 0.01}],
        }
    ],
}


def load_doc(doc):
    return load_dataset(io.StringIO(json.dumps(doc)))


# ---------------------------------------------------------------------------
# load_dataset
# ---------------------------------------------------------------------------


def test_load_smallest_legal_input():
    ds = load_doc(MINIMAL_DOC)
    assert ds.n_trials == 1
    trial = ds.trials[0]
    assert n_followups(trial) == 1
    assert arm_count(trial) == 2  # one coded arm plus the control reference
    assert trial.dimension == 1
    assert trial.observations[0].v == 0.01


def test_load_rejects_duplicate_arm_time():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trials"][0]["observations"].append(
        {"arm": "a1", "category": 1, "y": 0.0, "v": 0.02}
    )
    with pytest.raises(DataValidationError, match=r"duplicate \(arm, time\)"):
        load_doc(doc)


def test_parse_error_reports_location():
    with pytest.raises(DataFormatError, match=r"line \d+"):
        load_dataset(io.StringIO('{"schema": {"n": 1,,}}'))


def test_missing_field_names_path():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    del doc["trials"][0]["arms"][0]["x"]
    with pytest.raises(DataFormatError, match=r"trials\[0\]\.arms\[0\].*'x'"):
        load_doc(doc)


def test_an_optional_key_holding_null_is_absent():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["schema"].update(interactions=None, names=None)
    doc["trials"][0].update(
        reference_arm=None, ref_change_var=None, rho_y=None, rho_d=None
    )
    assert load_doc(doc) == load_doc(MINIMAL_DOC)


@pytest.mark.parametrize(
    "extra, unknown",
    [
        ({"rho_y": 0.5, "rho_Y": 0.5}, "'rho_Y'"),
        ({"rho_y": None, "rho_d": 0.1, "rho_Y": 0.5}, "'rho_Y'"),
        ({"reference_arm": None, "ref_change_var": None, "rho_y": None,
          "rho_d": None, "note": "x"}, "'note'"),
        ({"zeta": 1, "alpha": None}, "'alpha', 'zeta'"),
    ],
)
def test_unknown_key_beside_optional_keys_is_format_error(extra, unknown):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trials"][0].update(extra)
    with pytest.raises(DataFormatError) as exc:
        load_doc(doc)
    assert str(exc.value) == f"trials[0]: unknown keys {unknown}"


def test_dataset_without_control_trial_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trials"][0]["comparison"] = "active"
    doc["trials"][0]["arms"].append({"id": "a2", "x": [0]})
    doc["trials"][0]["reference_arm"] = "a2"
    with pytest.raises(DataValidationError, match="no control-comparison"):
        load_doc(doc)


def test_numeric_ids_name_the_same_arms_as_strings(tmp_path):
    # Trial, arm, observation and reference-arm ids that are JSON numbers
    # are all read as strings, so the reference arm is among the arms.
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trials"].append({
        "id": 2,
        "comparison": "active",
        "z": [],
        "arms": [{"id": 1, "x": [0]}, {"id": 2, "x": [1]}],
        "observations": [{"arm": 2, "category": 1, "y": 0.05, "v": 0.02}],
        "reference_arm": 1,
    })
    ds = load_dataset(io.StringIO(json.dumps(doc)), validate=False)
    assert validate_dataset(ds) == []
    assert ds.trials[1].reference_arm == "1"
    assert ds.trials[1].reference.arm_id == "1"
    path = tmp_path / "data.json"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def test_round_trip_ten_covariate_configuration(tmp_path):
    # n=4, p=1, q=3 with two interaction terms: serialize-then-parse
    # must reproduce the dataset exactly.
    schema = CovariateSchema(
        n=4,
        p=1,
        q=3,
        interactions=(
            (Factor("intervention", 0), Factor("study", 0)),
            (Factor("intervention", 1), Factor("study", 0)),
        ),
        names={"x": ["f1", "f2", "f3", "f4"], "z": ["age"],
               "w": ["mid", "late"], "interactions": ["f1:age", "f2:age"]},
    )
    t1 = grid_trial(
        "s1", "control",
        [arm("a", (1.0, 0.0, 1.0, 0.0)), arm("b", (0.0, 1.0, 0.0, 1.0))],
        categories=(1, 2, 3), z=(0.25,),
        v={(a, c): 0.01 + 0.001 * c for a in ("a", "b") for c in (1, 2, 3)},
        y={(a, c): -0.02 * c if a == "a" else 0.01 for a in ("a", "b")
           for c in (1, 2, 3)},
        ref_change_var={1: 0.004, 2: 0.0045, 3: 0.005},
    )
    t2 = grid_trial(
        "s2", "active",
        [arm("r", (1.0, 1.0, 0.0, 0.0)), arm("k", (0.0, 0.0, 1.0, 1.0))],
        categories=(1, 2), z=(-1.5,), v=0.02, y=0.03,
        reference_arm="r", rho_y=0.7,
    )
    ds = Dataset(schema=schema, trials=(t1, t2), base_rho_y=0.8, base_rho_d=0.64)
    assert validate_dataset(ds) == []

    path = tmp_path / "data.json"
    save_dataset(ds, path)
    assert load_dataset(io.StringIO(path.read_text())) == ds


def test_save_then_load_is_identity_on_file_bytes(tmp_path):
    path1 = tmp_path / "d1.json"
    path2 = tmp_path / "d2.json"
    ds = load_doc(MINIMAL_DOC)
    save_dataset(ds, path1)
    save_dataset(load_dataset(path1), path2)
    assert path1.read_bytes() == path2.read_bytes()


# Ids and labels over all of Unicode but the surrogates, which no file
# holds.
_labels = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=6
)
_any_floats = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _datasets(draw):
    n, p, q = (draw(st.integers(0, 2)), draw(st.integers(0, 2)),
               draw(st.integers(1, 3)))
    factors = (
        [Factor("intervention", i) for i in range(n)]
        + [Factor("study", i) for i in range(p)]
        + [Factor("followup", i) for i in range(q - 1)]
    )
    interactions = draw(st.lists(
        st.lists(st.sampled_from(factors), min_size=1, max_size=2, unique=True),
        max_size=2,
    )) if factors else []
    names = draw(st.none() | st.dictionaries(
        st.sampled_from(("x", "z", "w", "interactions")),
        st.lists(_labels, max_size=2),
    ))
    schema = CovariateSchema(n=n, p=p, q=q, interactions=interactions,
                             names=names)
    trials = []
    for _ in range(draw(st.integers(0, 3))):
        arms = [
            InterventionArm(draw(_labels), draw(st.lists(
                st.sampled_from((0.0, 1.0)), min_size=n, max_size=n,
            )))
            for _ in range(draw(st.integers(0, 2)))
        ]
        observations = [
            Observation(draw(_labels), draw(st.integers(-2**70, 2**70)),
                        draw(_any_floats), draw(_any_floats))
            for _ in range(draw(st.integers(0, 2)))
        ]
        trials.append(TrialRecord(
            trial_id=draw(_labels),
            comparison=draw(st.sampled_from(("control", "active"))),
            arms=arms,
            z=draw(st.lists(_any_floats, min_size=p, max_size=p)),
            observations=observations,
            reference_arm=draw(st.none() | _labels),
            ref_change_var=draw(st.none() | st.dictionaries(
                st.integers(1, 3), _any_floats, max_size=2,
            )),
            rho_y=draw(st.none() | _any_floats),
            rho_d=draw(st.none() | _any_floats),
        ))
    return Dataset(schema=schema, trials=tuple(trials),
                   base_rho_y=draw(_any_floats), base_rho_d=draw(_any_floats))


@settings(max_examples=200, deadline=None)
@given(dataset=_datasets())
def test_save_writes_the_text_of_json_dumps(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("save") / "data.json"
    save_dataset(dataset, path)
    want = json.dumps(dataset_to_dict(dataset), indent=2) + "\n"
    assert path.read_bytes() == want.encode("ascii")


# ---------------------------------------------------------------------------
# validate_trial
# ---------------------------------------------------------------------------


def test_non_binary_feature_flagged(basic_schema):
    trial = grid_trial(
        "bad", "control", [arm("a1", (2.0, 0.0))], categories=(1,),
        z=(0.0,),
    )
    violations = validate_trial(trial, basic_schema)
    assert any("non-binary intervention covariate" in v for v in violations)


def test_active_trial_missing_reference_flagged(basic_schema):
    trial = grid_trial(
        "bad", "active",
        [arm("a1", (1.0, 0.0)), arm("a2", (0.0, 1.0))],
        categories=(1,), z=(0.0,),
    )
    violations = validate_trial(trial, basic_schema)
    assert any("reference-arm" in v for v in violations)


def test_excess_reference_variance_flagged(basic_schema):
    # The invariant exists to protect positive semi-definiteness: with
    # equal observation variances v and cross-arm covariance d > v the
    # 2x2 same-time block has eigenvalues v +/- d, one of them negative.
    v, d = 0.01, 0.02
    block = np.array([[v, d], [d, v]])
    assert np.linalg.eigvalsh(block)[0] < 0

    trial = grid_trial(
        "bad", "control",
        [arm("a1", (1.0, 0.0)), arm("a2", (0.0, 1.0))],
        categories=(1,), z=(0.0,),
        v=v, ref_change_var={1: d},
    )
    violations = validate_trial(trial, basic_schema)
    assert any(
        "reference variance exceeds observation variance" in s
        for s in violations
    )


def test_control_trial_with_reference_arm_flagged(basic_schema):
    trial = grid_trial(
        "bad", "control",
        [arm("a1", (1.0, 0.0)), arm("a2", (0.0, 1.0))],
        categories=(1,), z=(0.0,), reference_arm="a1",
    )
    assert validate_trial(trial, basic_schema)


def test_ragged_followup_grid_flagged(basic_schema):
    trial = grid_trial(
        "bad", "control",
        [arm("a1", (1.0, 0.0)), arm("a2", (0.0, 1.0))],
        categories=(1, 2), z=(0.0,),
    )
    trial = replace(trial, observations=trial.observations[:-1])
    violations = validate_trial(trial, basic_schema)
    assert any("differing follow-up categories" in v for v in violations)


def test_duplicate_trial_id_flagged(basic_dataset):
    t1, t2, t3 = basic_dataset.trials
    dataset = replace(basic_dataset, trials=(t1, replace(t2, trial_id="t1"), t3))
    assert validate_dataset(dataset) == ["dataset: duplicate trial id 't1'"]
    assert validate_dataset(basic_dataset) == []


@pytest.mark.parametrize(
    "v, ref, violations",
    [
        (1e-150, None, []),
        (1e150, None, []),
        (1e-151, None, ["observation variance 1e-151 at ('a', 1) outside "
                        "[1e-150, 1e+150]"]),
        (1e155, None, ["observation variance 1e+155 at ('a', 1) outside "
                       "[1e-150, 1e+150]"]),
        (0.01, 1e-150, []),
        (0.01, 1e-160, ["reference variance 1e-160 at category 1 outside "
                        "[1e-150, 1e+150]"]),
    ],
)
def test_variances_v_cannot_represent_flagged(v, ref, violations):
    # Inside [1e-150, 1e150] every product of two variances, and so each
    # entry sqrt(s_i s_j) of V, stays a normal double.
    trial = grid_trial(
        "t", "control", [arm("a", (1.0,))], categories=(1,),
        v={("a", 1): v}, ref_change_var=None if ref is None else {1: ref},
    )
    schema = CovariateSchema(n=1, p=0, q=1)
    assert validate_trial(trial, schema) == violations


def test_valid_trial_observation_count(basic_dataset):
    # T_i * (A_i - 1) observations in every valid trial.
    for trial in basic_dataset.trials:
        assert validate_trial(trial, basic_dataset.schema) == []
        assert trial.dimension == n_followups(trial) * (arm_count(trial) - 1)


# ---------------------------------------------------------------------------
# follow-up dummies
# ---------------------------------------------------------------------------


def followup_columns(q, categories):
    """The w columns of a one-arm control trial's design rows."""
    schema = CovariateSchema(n=0, p=0, q=q)
    trial = grid_trial("t", "control", [arm("a")], categories=categories)
    return [tuple(row[1:]) for row in trial_design_matrix(schema, trial)]


@given(st.integers(min_value=1, max_value=8), st.data())
def test_followup_dummy_bijection(q, data):
    category = data.draw(st.integers(min_value=1, max_value=q))
    (w,) = followup_columns(q, (category,))
    assert len(w) == q - 1
    assert sum(w) in (0.0, 1.0)
    # Invert the encoding: the category is recoverable from w alone.
    recovered = 1 if sum(w) == 0 else 2 + w.index(1.0)
    assert recovered == category


def test_double_one_dummy_unrepresentable():
    # (w1, w2) = (1, 1) has no category preimage for q = 3.
    encodings = set(followup_columns(3, (1, 2, 3)))
    assert encodings == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    outside = grid_trial("t", "control", [arm("a")], categories=(4,))
    assert validate_trial(outside, CovariateSchema(n=0, p=0, q=3)) == [
        "follow-up category 4 outside 1..3"
    ]


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------


def dataset_design_matrix(dataset):
    """All trials' design rows stacked (dataset centering applied)."""
    return np.vstack([
        trial_design_matrix(dataset.schema, t, dataset.centering)
        for t in dataset.trials
    ])


def control_design_columns(dataset):
    """Covariate columns (no intercept) of the control-branch rows."""
    rows = []
    matrix = dataset_design_matrix(dataset)
    offset = 0
    for trial in dataset.trials:
        block = matrix[offset : offset + trial.dimension]
        offset += trial.dimension
        if trial.comparison == "control":
            rows.append(block[:, 1:])
    return np.vstack(rows)


def test_constant_feature_centers_to_zero(basic_schema):
    trials = tuple(
        grid_trial(
            f"t{i}", "control", [arm("a", (1.0, float(i % 2)))],
            categories=(1,), z=(float(i),),
        )
        for i in range(4)
    )
    ds = Dataset(schema=basic_schema, trials=trials)
    centered, record = center_covariates(ds)
    assert record.x_means[0] == 1.0
    cols = control_design_columns(centered)
    assert np.all(cols[:, 0] == 0.0)


def test_balanced_binary_centers_to_half(basic_schema):
    trials = tuple(
        grid_trial(
            f"t{i}", "control", [arm("a", (float(i % 2), 0.0))],
            categories=(1,), z=(0.0,),
        )
        for i in range(4)
    )
    centered, record = center_covariates(
        Dataset(schema=basic_schema, trials=trials)
    )
    assert record.x_means[0] == 0.5
    cols = control_design_columns(centered)
    assert set(np.round(cols[:, 0], 12)) == {-0.5, 0.5}


def test_centered_columns_have_zero_mean(basic_dataset):
    centered, _ = center_covariates(basic_dataset)
    cols = control_design_columns(centered)
    assert np.all(np.abs(cols.mean(axis=0)) < 1e-12)


def test_centering_idempotent(basic_dataset):
    once, record1 = center_covariates(basic_dataset)
    twice, record2 = center_covariates(once)
    assert record1 == record2
    before = dataset_design_matrix(once)
    after = dataset_design_matrix(twice)
    assert np.all(np.abs(before - after) <= 1e-12)


def test_centering_leaves_active_rows_unchanged(basic_dataset):
    raw = dataset_design_matrix(basic_dataset)
    centered, _ = center_covariates(basic_dataset)
    cen = dataset_design_matrix(centered)
    active_dim = basic_dataset.trials[2].dimension
    assert np.array_equal(raw[-active_dim:], cen[-active_dim:])


def test_interactions_formed_before_centering(basic_schema):
    # The interaction column mean must be mean(x1 * z1), not the product
    # of the centered columns: with x1 = (1, 0) and z1 = (2, 4) the raw
    # products are (2, 0), so the recorded mean is 1.
    trials = tuple(
        grid_trial(
            f"t{i}", "control", [arm("a", (x, 0.0))],
            categories=(1,), z=(z,),
        )
        for i, (x, z) in enumerate([(1.0, 2.0), (0.0, 4.0)])
    )
    _, record = center_covariates(Dataset(schema=basic_schema, trials=trials))
    assert record.j_means[0] == pytest.approx(1.0)
    assert record.x_means[0] == pytest.approx(0.5)
    assert record.z_means[0] == pytest.approx(3.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_centering_record_restores_raw_intercept(seed):
    # alpha_centered = alpha_raw + shift must reproduce the same fitted
    # surface; check the shift against a direct dot product of means.
    rng = np.random.default_rng(seed)
    schema = CovariateSchema(
        n=2, p=1, q=2,
        interactions=((Factor("intervention", 0), Factor("study", 0)),),
    )
    trials = tuple(
        grid_trial(
            f"t{i}", "control",
            [arm("a", tuple(float(b) for b in rng.integers(0, 2, 2)))],
            categories=(1, 2), z=(float(rng.normal()),),
        )
        for i in range(3)
    )
    _, record = center_covariates(Dataset(schema=schema, trials=trials))
    beta = rng.normal(size=2)
    gamma = rng.normal(size=1)
    phi = rng.normal(size=1)
    eta = rng.normal(size=1)
    expected = (
        beta @ np.array(record.x_means)
        + gamma @ np.array(record.z_means)
        + phi @ np.array(record.w_means)
        + eta @ np.array(record.j_means)
    )
    assert record.intercept_shift(beta, gamma, phi, eta) == pytest.approx(
        expected, abs=1e-12
    )
