"""The settings records check the kinds of their own fields: McmcConfig,
PriorSpec, FitSettings, SimConfig and ParameterVector."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmeta import (
    CovariateSchema, FitSettings, McmcConfig, ParameterVector, PriorSpec, SimConfig,
)


PARAMS = dict(alpha=0.0, beta=(0.1, -0.1), gamma=(0.2,), phi=(0.05,), eta=(), tau=0.1)

# Each record with the arguments of a valid instance.
RECORDS = {
    McmcConfig: {},
    PriorSpec: {},
    FitSettings: {},
    SimConfig: dict(schema=CovariateSchema(n=2, p=1, q=2, interactions=()),
                    params=ParameterVector(**PARAMS), n_trials=5),
    ParameterVector: PARAMS,
}

# One value of each odd kind a JSON file or a caller may give a field.
POOL = [
    None, True, False,
    0, -1, 2**63, 10**400,
    math.inf, -math.inf, math.nan, -0.0, 1e308,
    "x", [], ["a", "b"], [[1], []], {"a": 1},
]


def _field_named(error: ValueError) -> str | None:
    match = re.match(r"[A-Za-z_]\w*", str(error))
    return match[0] if match else None


# 2000 derandomized examples draw each of the 663 (record, field, value)
# triples, in about 1.5 s.
@settings(derandomize=True, max_examples=2000, deadline=None, database=None)
@given(st.data())
def test_a_settings_record_refuses_an_odd_value_by_naming_its_field(data):
    # Construction succeeds or raises a ValueError that starts with the
    # field's name, which the CLI swaps for the value's flag or file key;
    # never a TypeError or an OverflowError.
    cls = data.draw(st.sampled_from(list(RECORDS)), label="record")
    name = data.draw(st.sampled_from([f.name for f in fields(cls)]), label="field")
    value = data.draw(st.sampled_from(POOL), label="value")
    try:
        cls(**{**RECORDS[cls], name: value})
    except ValueError as e:
        assert _field_named(e) == name, str(e)


# A value of the wrong kind, with the whole message it gives.
WRONG_KINDS = [
    (McmcConfig, "chains", 2.5, "chains: expected an integer, got 2.5"),
    (FitSettings, "chains", 2.5, "chains: expected an integer, got 2.5"),
    (PriorSpec, "coeff_sd", "1", "coeff_sd: expected a number, got '1'"),
    (PriorSpec, "tau_upper", True, "tau_upper: expected a number, got True"),
    (SimConfig, "n_trials", 2.5, "n_trials: expected an integer, got 2.5"),
    (SimConfig, "n_trials", True, "n_trials: expected an integer, got True"),
    (SimConfig, "schema", None, "schema: expected a CovariateSchema, got None"),
    (ParameterVector, "tau", "0.1", "tau: expected a number, got '0.1'"),
    (ParameterVector, "beta", [0.1, "2"], "beta[1]: expected a number, got '2'"),
    (SimConfig, "variance_range", [0.1],
     "variance_range: expected 2 items, got 1"),
    (FitSettings, "tau_upper", 10**400,
     "tau_upper: expected a number, got an integer too large for a float"),
    (FitSettings, "center", 1, "center: expected true or false, got 1"),
    (FitSettings, "rho_y", False, "rho_y: expected a number or null, got False"),
]


@pytest.mark.parametrize("cls, name, value, message", WRONG_KINDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, *_ in WRONG_KINDS])
def test_a_value_of_the_wrong_kind_is_a_value_error(cls, name, value, message):
    with pytest.raises(ValueError) as exc:
        cls(**{**RECORDS[cls], name: value})
    assert str(exc.value) == message


def test_a_record_normalises_the_kinds_of_its_values():
    # An int in a float field becomes a float, a numpy scalar a Python
    # number, and a list a tuple.
    config = SimConfig(**{**RECORDS[SimConfig], "n_trials": np.int64(5),
                          "rho_y": 0, "variance_range": [0.002, 0.004],
                          "followup_patterns": [[1], [1, 2]],
                          "pattern_weights": [1, np.float64(2.0)]})
    assert type(config.n_trials) is int and config.n_trials == 5
    assert type(config.rho_y) is float
    assert config.variance_range == (0.002, 0.004)
    assert config.followup_patterns == ((1,), (1, 2))
    assert [type(w) for w in config.pattern_weights] == [float, float]
    params = ParameterVector.from_array(np.arange(6.0), RECORDS[SimConfig]["schema"])
    assert type(params.beta[0]) is float
    assert FitSettings(tau_upper=5).tau_upper == 5.0
    assert type(FitSettings(tau_upper=5).prior.tau_upper) is float
