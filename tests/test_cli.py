"""End-to-end CLI behavior through in-process main() calls."""

import argparse
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import featmeta.diagnostics as diagnostics
import featmeta.posterior as posterior
import featmeta.sampler as sampler
from featmeta import (
    ChainOutput, DataFormatError, SimConfig, dataset_to_dict, load_dataset,
    sample_posterior, save_dataset,
)
from featmeta.cli import _FIELD_CHECKS, FitSettings, build_parser, main
from featmeta.diagnostics import TRACE_POINTS

from conftest import build_basic_dataset

pytestmark = pytest.mark.filterwarnings("ignore:fitting on uncentered")


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "trials.json"
    save_dataset(build_basic_dataset(), path)
    return path


def fast_fit_args(data, out, **extra):
    args = [
        "fit", "--data", str(data), "--out", str(out),
        "--chains", "2", "--adapt", "200", "--burn-in", "100",
        "--samples", "150", "--seed", "3",
    ]
    for flag, value in extra.items():
        name = "--" + flag.replace("_", "-")
        if value is None:
            args.append(name)
        else:
            args.extend([name, str(value)])
    return args


SIM_CONFIG = {
    "schema": {
        "n": 2, "p": 1, "q": 2, "l": 1,
        "interactions": [
            [
                {"level": "intervention", "index": 1},
                {"level": "study", "index": 1},
            ]
        ],
    },
    "params": {
        "alpha": -0.04,
        "beta": [0.01, -0.02],
        "gamma": [0.03],
        "phi": [-0.01],
        "eta": [0.02],
        "tau": 0.05,
    },
    "n_trials": 12,
    "seed": 99,
}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_clean_file(data_file, capsys):
    assert main(["validate", "--data", str(data_file)]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out
    assert "3 trials" in out
    assert "n=2" in out and "q=3" in out


def test_validate_reports_each_violation(tmp_path, capsys):
    doc = dataset_to_dict(build_basic_dataset())
    trial = doc["trials"][0]
    trial["observations"].append(dict(trial["observations"][0]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--data", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "duplicate" in captured.out
    assert "violation(s) found" in captured.err


def test_validate_lists_out_of_range_categories_with_other_faults(
    tmp_path, capsys
):
    doc = dataset_to_dict(build_basic_dataset())
    trial = doc["trials"][0]
    trial["observations"][0]["category"] = 0
    trial["observations"][1]["category"] = 4
    trial["arms"][0]["x"] = [2.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--data", str(bad)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "trial 't1': follow-up category 0 outside 1..3" in lines
    assert "trial 't1': follow-up category 4 outside 1..3" in lines
    assert "trial 't1': arm 'a1': non-binary intervention covariate" in lines
    assert "Traceback" not in captured.err


def test_validate_reports_duplicate_trial_ids(tmp_path, capsys):
    doc = dataset_to_dict(build_basic_dataset())
    doc["trials"][1]["id"] = doc["trials"][0]["id"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--data", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["dataset: duplicate trial id 't1'"]
    assert "1 violation(s) found" in captured.err


def test_variance_v_cannot_represent_is_a_violation(tmp_path, capsys):
    # A 2-follow-up control trial of a simulated dataset with v = 1e155:
    # products of two such variances overflow, so V is not finite.
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(SIM_CONFIG))
    data = tmp_path / "trials.json"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    doc = json.loads(data.read_text())
    trial = next(
        t for t in doc["trials"]
        if t["comparison"] == "control"
        and len({o["category"] for o in t["observations"]}) == 2
    )
    for obs in trial["observations"]:
        obs["v"] = 1e155
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--data", str(data)]) == 1
    out = capsys.readouterr().out
    assert f"trial {trial['id']!r}: observation variance 1e+155 at " in out
    assert "outside [1e-150, 1e+150]" in out
    assert main(fast_fit_args(data, tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "observation variance 1e+155" in err
    assert "not finite" not in err


def test_validate_unreadable_file_is_usage_error(tmp_path, capsys):
    assert main(["validate", "--data", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_validate_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": [unclosed')
    assert main(["validate", "--data", str(path)]) == 2
    assert "parse error at line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("trials", 0, "observations", 0, "y"), "abc",
         "trials[0].observations[0].y: expected a number"),
        (("correlations", "rho_y"), "a",
         "correlations.rho_y: expected a number"),
        (("trials", 0, "observations", 0, "v"), [1],
         "trials[0].observations[0].v: expected a number"),
        (("trials", 0, "z"), 3, "trials[0].z: expected a list"),
        (("trials", 0, "observations"), 5,
         "trials[0].observations: expected a list"),
        (("trials", 0, "observations", 0, "category"), "x",
         "trials[0].observations[0].category: expected an integer"),
        (("trials", 0, "arms", 0, "x"), "ab",
         "trials[0].arms[0].x: expected a list"),
        (("trials", 0, "arms", 0, "x"), "10",
         "trials[0].arms[0].x: expected a list"),
        (("schema", "n"), "x", "schema.n: expected an integer"),
        (("trials", 1, "ref_change_var"), [1],
         "trials[1].ref_change_var: expected an object"),
        (("trials", 0, "rho_y"), "a", "trials[0].rho_y: expected a number"),
        (("trials", 1, "ref_change_var"), {"x": 0.003},
         "trials[1].ref_change_var: expected numbers keyed by category"),
        (("schema", "interactions", 0, 0, "level"), "time",
         "schema.interactions[0][0]: unknown factor level 'time'"),
        (("schema", "names"), ["x1"], "schema.names: expected an object"),
    ],
)
def test_validate_wrongly_typed_value_is_usage_error(
    tmp_path, capsys, where, value, message
):
    doc = dataset_to_dict(build_basic_dataset())
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    assert message in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "where, key, message",
    [
        ((), "correlation", "top level: unknown keys 'correlation'"),
        (("schema",), "interaction", "schema: unknown keys 'interaction'"),
        (("schema", "interactions", 0, 1), "levels",
         "schema.interactions[0][1]: unknown keys 'levels'"),
        (("correlations",), "rho_Y", "correlations: unknown keys 'rho_Y'"),
        (("trials", 0), "ref_change_vars",
         "trials[0]: unknown keys 'ref_change_vars'"),
        (("trials", 2, "arms", 1), "X", "trials[2].arms[1]: unknown keys 'X'"),
        (("trials", 1, "observations", 2), "se",
         "trials[1].observations[2]: unknown keys 'se'"),
    ],
)
def test_validate_key_the_format_does_not_define_is_usage_error(
    tmp_path, capsys, where, key, message
):
    # A misspelled key would otherwise load, and its value go unused.
    doc = dataset_to_dict(build_basic_dataset())
    target = doc
    for step in where:
        target = target[step]
    target[key] = 0.3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError) as exc:
        load_dataset(bad)
    assert str(exc.value) == f"{bad}: {message}"
    assert main(["validate", "--data", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_dataset_parse_error_names_the_file_and_the_column(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema": {"n": 1,,}}')
    argv = {"validate": ["validate", "--data", str(bad)],
            "fit": fast_fit_args(bad, tmp_path / "run")}
    for command in ("validate", "fit"):
        assert main(argv[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {bad}: dataset parse error at line 1, column 20: "
        ), err


def test_dataset_nested_too_deeply_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: dataset nests too deeply to parse\n", err


def test_validate_nan_value_is_a_violation(tmp_path, capsys):
    doc = dataset_to_dict(build_basic_dataset())
    doc["trials"][0]["observations"][0]["y"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--data", str(bad)]) == 1
    assert "non-finite mean difference" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_writes_expected_artifacts(data_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0

    summary = (out / "summary.tsv").read_text().splitlines()
    assert summary[0].startswith("name\tmedian")
    assert len(summary) == 1 + 8  # alpha, 2 beta, gamma, 2 phi, eta, tau

    for k in (1, 2):
        lines = (out / f"chains/chain_{k}.tsv").read_text().splitlines()
        assert lines[0].split("\t")[0] == "iteration"
        assert len(lines) == 1 + 150

    assert (out / "rhat_trace.tsv").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["settings"]["chains"] == 2
    assert manifest["settings"]["samples"] == 150
    assert manifest["centering"] is not None
    assert len(manifest["chains"]) == 2
    assert manifest["parameters"][-1] == "tau"

    console = capsys.readouterr().out
    assert "parameter" in console
    assert "acceptance rates:" in console


def test_fit_manifest_replay_is_bit_identical(data_file, tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(fast_fit_args(data_file, first)) == 0
    assert main([
        "fit", "--from-manifest", str(first / "manifest.json"),
        "--out", str(second),
    ]) == 0
    for k in (1, 2):
        a = (first / f"chains/chain_{k}.tsv").read_bytes()
        b = (second / f"chains/chain_{k}.tsv").read_bytes()
        assert a == b
    assert (first / "summary.tsv").read_bytes() == (
        second / "summary.tsv"
    ).read_bytes()


def test_fit_manifest_records_per_chain_sampler_state(data_file, tmp_path):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for k, entry in enumerate(manifest["chains"]):
        assert entry["index"] == k
        assert entry["file"] == f"chains/chain_{k + 1}.tsv"
        assert {"seed_used", "accept_rate"} <= set(entry)
        assert isinstance(entry["proposal_log_scale"], float)
        assert entry["nonfinite_rejections"] == 0
        # The screen spares some of the 250 iterations after adaptation;
        # each of the 25 independence steps is evaluated.
        assert 25 <= entry["density_evaluations"] < 250


def test_fit_manifest_records_adaptation_acceptance(data_file, tmp_path):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["chains"]:
        assert 0.0 < entry["adapt_accept_rate"] < 1.0
    bare = tmp_path / "no-adapt"
    assert main(fast_fit_args(data_file, bare, adapt=0)) == 0
    manifest = json.loads((bare / "manifest.json").read_text())
    assert [e["adapt_accept_rate"] for e in manifest["chains"]] == [None, None]


STATISTICS = [
    "seed_used", "accept_rate", "proposal_log_scale", "nonfinite_rejections",
    "adapt_accept_rate", "independence_accept_rate", "density_evaluations",
]


def unknown_statistics(out):
    """The statistics that ``out``'s manifest writes as null, per chain.
    The manifest must list every statistic, in order, and be strict
    JSON: no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"manifest.json holds {constant}")

    text = (out / "manifest.json").read_text()
    chains = json.loads(text, parse_constant=refuse)["chains"]
    assert [list(entry)[2:] for entry in chains] == [STATISTICS] * len(chains)
    return [[k for k in STATISTICS if entry[k] is None] for entry in chains]


def test_fit_manifest_writes_null_exactly_where_a_statistic_is_unknown(
    data_file, tmp_path, monkeypatch
):
    base = ["fit", "--data", str(data_file)]
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    assert unknown_statistics(tmp_path / "default") == [[]] * 4
    assert main(base + ["--out", str(tmp_path / "bare"), "--adapt", "0"]) == 0
    assert unknown_statistics(tmp_path / "bare") == [["adapt_accept_rate"]] * 4

    # Chains whose engine knows none of the statistics.
    def draws_alone(*args):
        run = sample_posterior(*args)
        return replace(run, chains=[
            ChainOutput(c.chain_index, c.draws, c.parameter_names)
            for c in run.chains
        ])

    monkeypatch.setattr("featmeta.cli.sample_posterior", draws_alone)
    assert main(fast_fit_args(data_file, tmp_path / "unknown")) == 0
    assert unknown_statistics(tmp_path / "unknown") == [STATISTICS] * 2


def test_fit_manifest_records_independence_acceptance(
    data_file, tmp_path, capsys
):
    # 150 samples after 300 warm-up iterations hold the independence
    # steps counted below; the samples before the first of them hold
    # none, which the manifest writes as null.
    period = sampler.INDEPENDENCE_PERIOD
    steps = 450 // period - 300 // period
    before = period - 1 - 300 % period
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["chains"]:
        assert 0.0 <= entry["independence_accept_rate"] <= 1.0
        assert entry["independence_accept_rate"] * steps == pytest.approx(
            round(entry["independence_accept_rate"] * steps)
        )
    rates = ", ".join(f"{e['accept_rate']:.3f}" for e in manifest["chains"])
    assert f"acceptance rates: {rates}\n" in capsys.readouterr().out
    short = tmp_path / "short"
    assert main(fast_fit_args(data_file, short, samples=before)) == 0
    manifest = json.loads((short / "manifest.json").read_text())
    assert [e["independence_accept_rate"] for e in manifest["chains"]] == [
        None, None
    ]


def test_fit_manifest_records_the_proposal_and_the_checks(data_file, tmp_path):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    pre = manifest["preconditioner"]
    assert set(pre) == {
        "tau_mode", "log_tau_sd", "condition_number", "grid_nodes",
        "grid_log_tau", "grid_spacing_sd", "defensive_weight",
    }
    assert 0.0 < pre["tau_mode"] < manifest["settings"]["tau_upper"]
    assert pre["log_tau_sd"] > 0.0
    assert pre["condition_number"] >= 1.0
    assert pre["grid_nodes"] == posterior.GRID_NODES
    low, high = pre["grid_log_tau"]
    assert low < math.log(pre["tau_mode"]) < high
    assert pre["grid_spacing_sd"] == pytest.approx(
        (high - low) / (pre["grid_nodes"] - 1) / pre["log_tau_sd"]
    )
    assert pre["defensive_weight"] == sampler.DEFENSIVE_WEIGHT
    assert manifest["zeroed_eigenvalues"] == 0
    assert isinstance(manifest["weakly_identified"], list)


def test_fit_explicit_flags_override_manifest(data_file, tmp_path):
    first = tmp_path / "run1"
    assert main(fast_fit_args(data_file, first)) == 0
    second = tmp_path / "run2"
    assert main([
        "fit", "--from-manifest", str(first / "manifest.json"),
        "--out", str(second), "--samples", "80",
    ]) == 0
    lines = (second / "chains/chain_1.tsv").read_text().splitlines()
    assert len(lines) == 1 + 80
    manifest = json.loads((second / "manifest.json").read_text())
    assert manifest["settings"]["samples"] == 80
    assert manifest["settings"]["seed"] == 3  # inherited


def test_fit_single_chain_without_diagnostics_runs(data_file, tmp_path, capsys):
    # One chain has no shrink factors, as in diagnose.
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out, chains=1)) == 0
    assert "single chain: shrink factors unavailable" in capsys.readouterr().err
    assert not (out / "rhat_trace.tsv").exists()
    summary = (out / "summary.tsv").read_text().splitlines()
    assert all(line.split("\t")[-1] == "nan" for line in summary[1:])


@pytest.mark.parametrize("flag", ["diagnostics", "no_diagnostics"])
def test_fit_diagnostics_flags_are_gone(data_file, tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(fast_fit_args(data_file, tmp_path / "run", **{flag: None}))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fit_flags_are_the_fit_settings():
    # Each FitSettings field is a flag, and no flag outlives its setting.
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in commands.choices["fit"]._actions} - {"help"}
    assert dests == {f.name for f in fields(FitSettings)} | {
        "data", "out", "from_manifest",
    }


def test_fit_one_sample_with_several_chains_is_config_error(
    data_file, tmp_path, capsys
):
    # The summary's R-hat of 2 or more chains needs 2 draws per chain.
    out = tmp_path / "run"
    code = main(fast_fit_args(data_file, out, samples=1))
    assert code == 2
    err = capsys.readouterr().err
    assert "requires >= 2 samples per chain" in err, err
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_one_sample_of_one_chain_runs(data_file, tmp_path):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out, chains=1, samples=1)) == 0
    lines = (out / "chains/chain_1.tsv").read_text().splitlines()
    assert len(lines) == 1 + 1


def test_fit_without_data_or_manifest_is_usage_error(tmp_path, capsys):
    assert main(["fit", "--out", str(tmp_path / "x")]) == 2
    assert "needs --data" in capsys.readouterr().err


def test_fit_on_invalid_dataset_is_model_error(tmp_path, capsys):
    doc = dataset_to_dict(build_basic_dataset())
    doc["trials"][0]["observations"].append(
        dict(doc["trials"][0]["observations"][0])
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(fast_fit_args(bad, tmp_path / "run")) == 1
    assert "duplicate" in capsys.readouterr().err


def test_fit_rejects_out_of_range_rho(data_file, tmp_path, capsys):
    code = main(fast_fit_args(data_file, tmp_path / "run", rho_y=1.5))
    assert code == 2
    assert "--rho-y" in capsys.readouterr().err


def test_fit_no_center_skips_centering_record(data_file, tmp_path):
    out = tmp_path / "run"
    args = fast_fit_args(data_file, out)
    args.append("--no-center")
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["centering"] is None
    assert manifest["settings"]["center"] is False


def test_fit_likelihood_flag_is_gone(data_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(fast_fit_args(data_file, tmp_path / "run", likelihood="latent"))
    assert exc.value.code == 2
    assert "--likelihood" in capsys.readouterr().err


def _edit_manifest_settings(run, **settings):
    path = run / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["settings"].update(settings)
    path.write_text(json.dumps(manifest))
    return path


def test_manifest_with_latent_likelihood_is_config_error(
    data_file, tmp_path, capsys
):
    first = tmp_path / "run1"
    assert main(fast_fit_args(data_file, first)) == 0
    manifest = _edit_manifest_settings(first, likelihood="latent")
    capsys.readouterr()
    code = main([
        "fit", "--from-manifest", str(manifest), "--out", str(tmp_path / "run2"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "settings.likelihood is 'latent'" in err
    assert "latent-effects sampler was removed" in err
    assert not (tmp_path / "run2").exists()


def test_manifest_with_marginal_likelihood_replays_bit_identically(
    data_file, tmp_path
):
    # Manifests written while the latent sampler existed carry
    # "likelihood": "marginal"; they replay unchanged.
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(fast_fit_args(data_file, first)) == 0
    assert "likelihood" not in json.loads(
        (first / "manifest.json").read_text()
    )["settings"]
    manifest = _edit_manifest_settings(first, likelihood="marginal")
    assert main(["fit", "--from-manifest", str(manifest), "--out", str(second)]) == 0
    for k in (1, 2):
        assert (first / f"chains/chain_{k}.tsv").read_bytes() == (
            second / f"chains/chain_{k}.tsv"
        ).read_bytes()
    assert "likelihood" not in json.loads(
        (second / "manifest.json").read_text()
    )["settings"]


def test_fit_parallel_flag_is_gone(data_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(fast_fit_args(data_file, tmp_path / "run", parallel=None))
    assert exc.value.code == 2
    assert "--parallel" in capsys.readouterr().err


def test_manifest_with_parallel_setting_replays_bit_identically(
    data_file, tmp_path
):
    # Manifests written while fit had --parallel record it; it changed
    # nothing and is ignored on replay.
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(fast_fit_args(data_file, first)) == 0
    manifest = _edit_manifest_settings(first, parallel=True)
    assert main(["fit", "--from-manifest", str(manifest), "--out", str(second)]) == 0
    for k in (1, 2):
        assert (first / f"chains/chain_{k}.tsv").read_bytes() == (
            second / f"chains/chain_{k}.tsv"
        ).read_bytes()
    assert "parallel" not in json.loads(
        (second / "manifest.json").read_text()
    )["settings"]


@pytest.mark.parametrize("recorded", [True, False])
def test_manifest_with_diagnostics_setting_replays_bit_identically(
    data_file, tmp_path, recorded
):
    # Manifests written while fit had --diagnostics/--no-diagnostics record
    # it; 2 or more chains now always get shrink factors.
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(fast_fit_args(data_file, first)) == 0
    manifest = _edit_manifest_settings(first, diagnostics=recorded)
    assert main(["fit", "--from-manifest", str(manifest), "--out", str(second)]) == 0
    for name in ("chain_1.tsv", "chain_1.npz", "chain_2.tsv", "chain_2.npz"):
        assert (first / "chains" / name).read_bytes() == (
            second / "chains" / name
        ).read_bytes()
    replayed = json.loads((second / "manifest.json").read_text())
    assert "diagnostics" not in replayed["settings"]
    assert "rhat_trace.tsv" in replayed["outputs"]


def test_trace_points_setting_replays_with_the_fixed_trace(data_file, tmp_path):
    # Manifests written while fit had --trace-points record it; the trace
    # now always has TRACE_POINTS rows, and a later diagnose rewrites the
    # replay's files byte for byte.
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(fast_fit_args(data_file, first)) == 0
    manifest = _edit_manifest_settings(first, trace_points=50)
    assert main(["fit", "--from-manifest", str(manifest), "--out", str(second)]) == 0
    for name in ("chain_1.tsv", "chain_1.npz", "chain_2.tsv", "chain_2.npz"):
        assert (first / "chains" / name).read_bytes() == (
            second / "chains" / name
        ).read_bytes()
    assert "trace_points" not in json.loads(
        (second / "manifest.json").read_text()
    )["settings"]
    trace = (second / "rhat_trace.tsv").read_text().splitlines()
    assert len(trace) == 1 + TRACE_POINTS
    written = {name: (second / name).read_bytes()
               for name in ("summary.tsv", "rhat_trace.tsv")}
    assert main(["diagnose", "--run", str(second)]) == 0
    for name, data in written.items():
        assert (second / name).read_bytes() == data
        assert (first / name).read_bytes() == data


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_trace_points_flag_is_gone(command, data_file, tmp_path, capsys):
    argv = {
        "fit": fast_fit_args(data_file, tmp_path / "run"),
        "diagnose": ["diagnose", "--run", str(tmp_path)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trace-points", "50"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace-points" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_replay_from_relative_paths_runs_in_the_fits_directory(
    data_file, tmp_path, monkeypatch
):
    # README's pair of examples, run where the data file lies.
    monkeypatch.chdir(tmp_path)
    assert main(fast_fit_args(data_file.name, "runs/a")) == 0
    recorded = json.loads((tmp_path / "runs/a/manifest.json").read_text())["data"]
    assert os.path.isabs(recorded) and os.path.samefile(recorded, data_file)
    assert main([
        "fit", "--from-manifest", "runs/a/manifest.json", "--out", "runs/c",
    ]) == 0
    # A manifest that records a relative path, as fits once wrote them,
    # reads it from the working directory too.
    old = tmp_path / "runs/a/manifest.json"
    old.write_text(json.dumps(
        dict(json.loads(old.read_text()), data=data_file.name)
    ))
    assert main(["fit", "--from-manifest", str(old), "--out", "runs/d"]) == 0
    for replay in ("runs/c", "runs/d"):
        for name in ("chain_1.tsv", "chain_1.npz", "chain_2.tsv", "chain_2.npz"):
            assert (tmp_path / "runs/a/chains" / name).read_bytes() == (
                tmp_path / replay / "chains" / name
            ).read_bytes()


# One wrongly typed value of each JSON kind, with the manifest setting and
# the generator-config key of that kind (None where there is none).
WRONG_KINDS = {
    "integer": (12.5, "samples", "max_coded_arms"),
    "number": ("5", "tau_upper", "z_sd"),
    "bool": (0, "center", None),
    "nullable number": (False, "rho_y", None),
    "list of numbers": ([1, "2"], None, "pattern_weights"),
    "pair": ([0.1], None, "variance_range"),
    "category lists": ([[1], 2], None, "followup_patterns"),
}


def _fit_manifest_error(setting, value, data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(fast_fit_args(data_file, run, chains=1, samples=5)) == 0
    manifest = _edit_manifest_settings(run, **{setting: value})
    capsys.readouterr()
    argv = ["fit", "--from-manifest", str(manifest), "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    return capsys.readouterr().err.removeprefix(
        f"error: {manifest}: settings.{setting}"
    )


def _simulate_error(key, value, data_file, tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({**SIM_CONFIG, key: value}))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    return capsys.readouterr().err.removeprefix(f"error: {config}: {key}")


@pytest.mark.parametrize("kind", sorted(WRONG_KINDS))
def test_each_json_kind_is_checked_by_one_rule(kind, data_file, tmp_path, capsys):
    # The message after the key is the one the annotation's check gives,
    # whichever file holds the value.
    value, setting, key = WRONG_KINDS[kind]
    messages = set()
    for cls, name, error in ((FitSettings, setting, _fit_manifest_error),
                             (SimConfig, key, _simulate_error)):
        if name is None:
            continue
        annotation = {f.name: f.type for f in fields(cls)}[name]
        with pytest.raises(DataFormatError) as exc:
            _FIELD_CHECKS[annotation](value, "")
        messages |= {error(name, value, data_file, tmp_path, capsys),
                     f"{exc.value}\n"}
    assert len(messages) == 1, messages
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("data", [5, None, ["a"]])
def test_manifest_with_non_string_data_is_config_error(
    data, data_file, tmp_path, capsys
):
    first = tmp_path / "run1"
    assert main(fast_fit_args(data_file, first)) == 0
    path = first / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["data"] = data
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["fit", "--from-manifest", str(path), "--out", str(tmp_path / "run2")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"data: expected a string, got {data!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run2").exists()


BAD_MANIFEST_SETTINGS = {
    "settings a list": (
        ["samples", 50], "settings: expected an object, got ['samples', 50]"
    ),
    "samples a string": (
        {"samples": "fifty"}, "settings.samples: expected an integer, got 'fifty'"
    ),
    "samples a float": (
        {"samples": 30.5}, "settings.samples: expected an integer, got 30.5"
    ),
    "samples a bool": (
        {"samples": True}, "settings.samples: expected an integer, got True"
    ),
    "center a string": (
        {"center": "no"}, "settings.center: expected true or false, got 'no'"
    ),
    "center a number": (
        {"center": 0}, "settings.center: expected true or false, got 0"
    ),
    "tau_upper a string": (
        {"tau_upper": "5"}, "settings.tau_upper: expected a number, got '5'"
    ),
    "rho_y a bool": (
        {"rho_y": False}, "settings.rho_y: expected a number or null, got False"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFEST_SETTINGS))
def test_manifest_setting_of_the_wrong_type_is_config_error(
    case, data_file, tmp_path, capsys
):
    first = tmp_path / "run1"
    assert main(fast_fit_args(data_file, first)) == 0
    settings, message = BAD_MANIFEST_SETTINGS[case]
    path = first / "manifest.json"
    manifest = json.loads(path.read_text())
    if isinstance(settings, dict):
        manifest["settings"].update(settings)
    else:
        manifest["settings"] = settings
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["fit", "--from-manifest", str(path), "--out", str(tmp_path / "run2")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()


def test_manifest_int_for_a_float_setting_replays_bit_identically(data_file, tmp_path):
    # A float setting takes an int, and rho_y takes null.
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(fast_fit_args(data_file, first)) == 0
    manifest = _edit_manifest_settings(first, tau_upper=5, coeff_sd=100, rho_y=None)
    assert main(["fit", "--from-manifest", str(manifest), "--out", str(second)]) == 0
    for k in (1, 2):
        assert (first / f"chains/chain_{k}.tsv").read_bytes() == (
            second / f"chains/chain_{k}.tsv"
        ).read_bytes()


def test_manifest_with_unknown_setting_is_config_error(
    data_file, tmp_path, capsys
):
    # A misspelled "samples" would otherwise replay the default 20 000
    # draws per chain instead of the recorded 150.
    first = tmp_path / "run1"
    assert main(fast_fit_args(data_file, first)) == 0
    path = first / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["settings"]["sample"] = manifest["settings"].pop("samples")
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["fit", "--from-manifest", str(path), "--out", str(tmp_path / "run2")])
    assert code == 2
    assert "unknown settings 'sample'" in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()


def test_validate_and_fit_close_the_dataset_file(data_file, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", "--data", str(data_file)]) == 0
        assert main(fast_fit_args(data_file, tmp_path / "run")) == 0
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


@pytest.mark.parametrize("command", ["validate", "fit", "simulate", "replay"])
def test_a_file_that_is_not_utf8_is_usage_error(
    command, data_file, tmp_path, capsys
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"a": "\xff"}')
    out = tmp_path / "out"
    argv = {
        "validate": ["validate", "--data", str(bad)],
        "fit": fast_fit_args(bad, out),
        "simulate": ["simulate", "--config", str(bad), "--out", str(out)],
        "replay": ["fit", "--from-manifest", str(bad), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and "not UTF-8" in err, err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_emits_validating_file(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(SIM_CONFIG))
    out = tmp_path / "sim-data.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert "wrote 12 trials" in capsys.readouterr().out
    assert main(["validate", "--data", str(out)]) == 0


def test_simulate_fixed_seed_reproduces_bytes(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(SIM_CONFIG))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "--config", str(config), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main([
        "simulate", "--config", str(config), "--out", str(c), "--seed", "7"
    ]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_simulate_zero_trials_is_config_error(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(SIM_CONFIG))
    code = main([
        "simulate", "--config", str(config),
        "--out", str(tmp_path / "x.json"), "--trials", "0",
    ])
    assert code == 2
    # The message names the flag, not the config file it overrides.
    assert capsys.readouterr().err == "error: --trials must be at least 1\n"


def test_simulate_missing_required_key_is_config_error(tmp_path, capsys):
    partial = {k: v for k, v in SIM_CONFIG.items() if k != "params"}
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(partial))
    code = main([
        "simulate", "--config", str(config), "--out", str(tmp_path / "x.json")
    ])
    assert code == 2
    assert "params" in capsys.readouterr().err


def test_simulate_wrong_block_length_is_config_error(tmp_path, capsys):
    bad = json.loads(json.dumps(SIM_CONFIG))
    bad["params"]["beta"] = [0.01]
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(bad))
    code = main([
        "simulate", "--config", str(config), "--out", str(tmp_path / "x.json")
    ])
    assert code == 2
    assert "expected 2 value(s)" in capsys.readouterr().err


def _case(change, message, rule):
    """A row whose id, ``change<k>-<rule>``, names the rule it breaks."""
    return pytest.param(change, message, id=rule)


@pytest.mark.parametrize(
    "change, message",
    [
        _case({"params": {"alpha": "x"}},
              "params.alpha: expected a number, got 'x'",
              "change0-params.alpha: could not convert"),
        _case({"params": {"beta": 5}}, "params.beta: expected a list, got 5",
              "change1-params.beta: must be a list of numbers"),
        _case({"params": {"eta": ["x"]}},
              "params.eta[0]: expected a number, got 'x'",
              "change2-params.eta: could not convert"),
        _case({"params": {"tau": float("nan")}},
              "tau must be non-negative and finite",
              "change3-params.tau: must be a finite"),
        _case({"params": [1, 2]}, "params: expected an object, got [1, 2]",
              "change4-params must be a JSON object"),
        _case({"followup_patterns": 3}, "followup_patterns: expected a list, got 3",
              "change5-followup_patterns: must be a list"),
        _case({"followup_patterns": [["a"]]},
              "followup_patterns[0][0]: expected an integer, got 'a'",
              "change6-followup_patterns: must be an integer"),
        _case({"variance_range": "ab"},
              "variance_range: expected a list, got 'ab'",
              "change7-variance_range: must be a list"),
        _case({"variance_range": ["a", "b"]},
              "variance_range[0]: expected a number, got 'a'",
              "change8-variance_range: could not convert"),
        _case({"variance_range": [0.001]},
              "variance_range: expected 2 items, got 1",
              "change9-variance_range: must hold 2 numbers"),
        _case({"pattern_weights": {"a": 1}},
              "pattern_weights: expected a list, got {'a': 1}",
              "change10-pattern_weights: must be a list"),
        _case({"control_fraction": "half"},
              "control_fraction: expected a number, got 'half'",
              "change11-control_fraction: could not convert"),
        _case({"max_coded_arms": "two"},
              "max_coded_arms: expected an integer, got 'two'",
              "change12-max_coded_arms: must be an integer"),
        _case({"rho_y": float("inf")}, "rho_y must lie in [0, 1)",
              "change13-rho_y: must be a finite number"),
        _case({"n_trials": "x"}, "n_trials: expected an integer, got 'x'",
              "change14-n_trials: must be an integer"),
        _case({"n_trials": 12.9}, "n_trials: expected an integer, got 12.9",
              "change15-n_trials: must be an integer"),
        _case({"seed": 1.5}, "seed: expected an integer, got 1.5",
              "change16-seed: must be an integer"),
        _case({"seed": True}, "seed: expected an integer, got True",
              "change17-seed: must be an integer"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"rho_y": 1.5}, "rho_y must lie in [0, 1)"),
        ({"rho_d": -0.2}, "rho_d must lie in [0, 1)"),
        ({"z_sd": -1}, "z_sd must be non-negative and finite"),
        ({"pattern_weights": [1, -1]}, "pattern_weights must be non-negative"),
        ({"pattern_weights": [1]},
         "pattern_weights holds 1 weight(s) for 2 follow-up pattern(s)"),
        ({"followup_patterns": []}, "followup_patterns must list a pattern"),
        ({"followup_patterns": [[]]}, "followup pattern [] must hold distinct"),
        ({"followup_patterns": [[3]]},
         "followup pattern [3] must hold distinct categories in 1..2"),
        ({"followup_patterns": [[1, 1]]}, "followup pattern [1, 1] must hold"),
        ({"feature_prob": 2}, "feature_prob must lie in [0, 1]"),
        ({"variance_range": [1e-160, 0.01]},
         "variance_range, and its product with ref_var_fraction_range, must "
         "lie within [1e-150, 1e+150]"),
        # A misspelled key would otherwise leave its default in force.
        ({"rho_yy": 0.3, "control_fracton": 0.0},
         "unknown keys 'control_fracton', 'rho_yy'"),
        ({"params": {"zeta": 3, "kappa": 1}},
         "params: unknown keys 'kappa', 'zeta'"),
    ],
)
def test_simulate_bad_generator_value_is_config_error(
    tmp_path, capsys, change, message
):
    bad = json.loads(json.dumps(SIM_CONFIG))
    for key, value in change.items():
        if key == "params" and isinstance(value, dict):
            bad["params"].update(value)
        else:
            bad[key] = value
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "x.json"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "change, key",
    [
        ({"params": {"alpha": "-0.04"}}, "params.alpha"),
        ({"params": {"tau": False}}, "params.tau"),
        ({"params": {"beta": ["0.01", -0.02]}}, "params.beta"),
        ({"control_fraction": "0.5"}, "control_fraction"),
        ({"rho_y": True}, "rho_y"),
        ({"variance_range": ["0.001", 0.01]}, "variance_range"),
    ],
)
def test_simulate_number_written_as_string_or_boolean_is_config_error(
    tmp_path, capsys, change, key
):
    bad = json.loads(json.dumps(SIM_CONFIG))
    for name, value in change.items():
        if name == "params":
            bad["params"].update(value)
        else:
            bad[name] = value
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "x.json"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {config}: {key}" in err and "expected a number, got " in err, err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_simulate_unwritable_out_is_usage_error(tmp_path, capsys, where):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(SIM_CONFIG))
    out = tmp_path / where
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"--out {out}: cannot write" in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("labels", [5, "beta", ["a", 3], {"a": "b"}])
def test_schema_names_must_be_lists_of_strings(tmp_path, capsys, labels):
    bad = json.loads(json.dumps(SIM_CONFIG))
    bad["schema"]["names"] = {"x": labels}
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "x.json"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "schema.names.x: expected a list of strings" in err, err
    assert "Traceback" not in err
    assert not out.exists()
    doc = dataset_to_dict(build_basic_dataset())
    doc["schema"]["names"] = {"x": labels}
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(doc))
    assert main(["validate", "--data", str(data)]) == 2
    assert "schema.names.x: expected a list of strings" in capsys.readouterr().err


def test_simulate_negative_seed_flag_is_config_error(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(SIM_CONFIG))
    out = tmp_path / "x.json"
    code = main([
        "simulate", "--config", str(config), "--out", str(out), "--seed", "-1"
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: --seed must be non-negative\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def test_diagnose_recomputes_summary_from_chains(data_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    original = (out / "summary.tsv").read_bytes()
    (out / "summary.tsv").unlink()
    (out / "rhat_trace.tsv").unlink()
    capsys.readouterr()

    assert main(["diagnose", "--run", str(out)]) == 0
    assert (out / "summary.tsv").read_bytes() == original
    assert (out / "rhat_trace.tsv").exists()
    assert "parameter" in capsys.readouterr().out


def test_refit_with_fewer_chains_leaves_no_stale_chain_files(
    data_file, tmp_path
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out, chains=3)) == 0
    assert main(fast_fit_args(data_file, out, chains=2)) == 0
    written = (out / "summary.tsv").read_bytes()
    assert sorted(p.name for p in (out / "chains").iterdir()) == [
        "chain_1.npz", "chain_1.tsv", "chain_2.npz", "chain_2.tsv",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [
        "chains/chain_1.tsv", "chains/chain_1.npz",
        "chains/chain_2.tsv", "chains/chain_2.npz",
        "summary.tsv", "rhat_trace.tsv",
    ]

    assert main(["diagnose", "--run", str(out)]) == 0
    assert (out / "summary.tsv").read_bytes() == written

    # A one-chain refit leaves no trace of the fits before it.
    assert main(fast_fit_args(data_file, out, chains=1)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = {
        p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()
    }
    assert files == {*manifest["outputs"], "manifest.json"}
    assert "rhat_trace.tsv" not in files


def _files(out):
    return {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}


def _outputs(out):
    return json.loads((out / "manifest.json").read_text())["outputs"]


def test_run_directory_holds_the_manifests_outputs_after_every_command(
    data_file, tmp_path, capsys
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out, chains=3)) == 0
    assert _files(out) == {*_outputs(out), "manifest.json"}
    assert main(fast_fit_args(data_file, out, chains=2)) == 0
    assert _files(out) == {*_outputs(out), "manifest.json"}
    for path in (out / "chains").glob("chain_2.*"):
        path.unlink()
    assert main(["diagnose", "--run", str(out)]) == 0
    assert _outputs(out) == [
        "chains/chain_1.tsv", "chains/chain_1.npz", "summary.tsv",
    ]
    assert _files(out) == {*_outputs(out), "manifest.json"}


def test_diagnose_keeps_only_the_manifests_chains_whose_file_it_read(
    data_file, tmp_path, capsys
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    recorded = json.loads((out / "manifest.json").read_text())["chains"]
    for path in (out / "chains").glob("chain_2.*"):
        path.unlink()
    assert main(["diagnose", "--run", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["chains"] == recorded[:1]
    for chain in manifest["chains"]:
        assert (out / chain["file"]).is_file()
        assert chain["file"] in manifest["outputs"]


def test_diagnose_of_an_untouched_run_leaves_its_manifest_as_it_was(
    data_file, tmp_path
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    before = (out / "manifest.json").read_bytes()
    (out / "summary.tsv").unlink()
    assert main(["diagnose", "--run", str(out)]) == 0
    assert (out / "manifest.json").read_bytes() == before

    # A manifest rewritten for lost copies has the bytes a fit writes.
    _delete_copies(out)
    assert main(["diagnose", "--run", str(out)]) == 0
    manifest = json.loads(before)
    manifest["outputs"] = [
        "chains/chain_1.tsv", "chains/chain_2.tsv", "summary.tsv", "rhat_trace.tsv",
    ]
    assert (out / "manifest.json").read_text() == json.dumps(manifest, indent=2) + "\n"


def test_diagnose_with_an_unparseable_manifest_writes_nothing(
    data_file, tmp_path, capsys
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    (out / "manifest.json").write_text("{")
    (out / "summary.tsv").unlink()
    (out / "rhat_trace.tsv").unlink()
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 2
    assert "manifest parse error" in capsys.readouterr().err
    assert not (out / "summary.tsv").exists()
    assert not (out / "rhat_trace.tsv").exists()


def test_diagnose_of_one_chain_deletes_the_fits_trace(data_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    assert (out / "rhat_trace.tsv").is_file()
    for path in (out / "chains").glob("chain_2.*"):
        path.unlink()
    capsys.readouterr()

    assert main(["diagnose", "--run", str(out)]) == 0
    assert "single chain: shrink factors unavailable" in capsys.readouterr().err
    assert (out / "summary.tsv").is_file()
    assert not (out / "rhat_trace.tsv").exists()


def test_diagnose_accepts_the_run_of_one_chain_and_one_draw(
    data_file, tmp_path, capsys
):
    # fit allows one draw when one chain runs, so diagnose does too.
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out, chains=1, samples=1)) == 0
    written = (out / "summary.tsv").read_bytes()
    capsys.readouterr()

    assert main(["diagnose", "--run", str(out)]) == 0
    assert (out / "summary.tsv").read_bytes() == written


def _delete_copies(out):
    for copy in (out / "chains").glob("*.npz"):
        copy.unlink()


def _cut_copy(out):
    copy = out / "chains" / "chain_1.npz"
    copy.write_bytes(copy.read_bytes()[:-100])


def _flip_copy_byte(out):
    copy = out / "chains" / "chain_2.npz"
    data = bytearray(copy.read_bytes())
    data[len(data) // 2] ^= 0x01
    copy.write_bytes(bytes(data))


def _delete_one_copy(out):
    (out / "chains" / "chain_2.npz").unlink()


def _copies_without_moments(out):
    # The layout of copies written before they held trace moments.
    for copy in (out / "chains").glob("*.npz"):
        with np.load(copy, allow_pickle=False) as stored:
            np.savez(copy, draws=stored["draws"], sha256=stored["sha256"])


def _moments_of_other_ends(out):
    # The moments of every other row of the trace: computed again.
    copy = out / "chains" / "chain_1.npz"
    with np.load(copy, allow_pickle=False) as stored:
        members = {name: stored[name] for name in stored.files}
    ends = members["trace_ends"][::2]
    means, squares = diagnostics._prefix_moments([members["draws"]], ends)
    np.savez(copy, **dict(members, trace_ends=ends, trace_means=means[..., 0],
                          trace_squares=squares[..., 0]))


@pytest.mark.parametrize("damage", [
    None,  # the copies as the fit wrote them
    _delete_copies,  # chain TSVs alone, as fits before the copies wrote them
    _cut_copy,
    _flip_copy_byte,
    _delete_one_copy,  # one chain parsed, the other from its copy
    _copies_without_moments,
    _moments_of_other_ends,
])
def test_diagnose_writes_the_same_bytes_whatever_the_state_of_the_copies(
    damage, data_file, tmp_path, capsys
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    written = {name: (out / name).read_bytes()
               for name in ("summary.tsv", "rhat_trace.tsv")}
    if damage is not None:
        damage(out)
    capsys.readouterr()

    assert main(["diagnose", "--run", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for name, data in written.items():
        assert (out / name).read_bytes() == data


def test_diagnose_reads_a_chain_file_changed_after_the_fit(
    data_file, tmp_path
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    written = (out / "summary.tsv").read_bytes()

    def set_alpha(line):
        cells = line.split("\t")
        cells[1] = "100.0"
        return "\t".join(cells)

    _edit_line(out / "chains" / "chain_1.tsv", 5, set_alpha)

    assert main(["diagnose", "--run", str(out)]) == 0
    edited = (out / "summary.tsv").read_bytes()
    assert edited != written
    _delete_copies(out)
    assert main(["diagnose", "--run", str(out)]) == 0
    assert (out / "summary.tsv").read_bytes() == edited


# A directory where fit or diagnose writes or deletes a run file: the
# command, the chains it fits (None for diagnose of a 2-chain fit) and
# the blocked file.
BLOCKED_RUN_FILES = {
    "stale chain file": (2, "chains/chain_9.tsv"),
    "trace of one chain": (1, "rhat_trace.tsv"),
    "summary of a fit": (2, "summary.tsv"),
    "summary of a diagnose": (None, "summary.tsv"),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_RUN_FILES))
def test_a_directory_in_place_of_a_run_file_is_usage_error(
    case, data_file, tmp_path, capsys
):
    chains, name = BLOCKED_RUN_FILES[case]
    out = tmp_path / "run"
    blocked = out / name
    if chains is None:
        assert main(fast_fit_args(data_file, out)) == 0
        blocked.unlink()
        argv = ["diagnose", "--run", str(out)]
    else:
        argv = fast_fit_args(data_file, out, chains=chains)
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and last.endswith(f": '{blocked}'"), err
    assert "Traceback" not in err
    assert blocked.is_dir()


@pytest.mark.parametrize("blocked", ["out", "out/chains"])
def test_unusable_out_is_usage_error_before_the_data_is_read(
    data_file, tmp_path, capsys, monkeypatch, blocked
):
    # A regular file where the run directory or its chains/ must go.
    out = tmp_path / "out"
    (tmp_path / blocked).parent.mkdir(exist_ok=True)
    (tmp_path / blocked).write_text("")

    def unreachable(*args, **kwargs):
        raise AssertionError("fit went past the --out check")

    monkeypatch.setattr("featmeta.cli.load_dataset", unreachable)
    monkeypatch.setattr("featmeta.cli.sample_posterior", unreachable)
    assert main(fast_fit_args(data_file, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--out {out}: cannot make {out / 'chains'}: " in captured.err
    assert "Traceback" not in captured.err
    assert (tmp_path / blocked).read_text() == ""


def test_out_of_range_settings_are_usage_errors_before_any_output(
    data_file, tmp_path, capsys
):
    for argv, message in [
        (["--seed", "-1"], "seed must be non-negative"),
        (["--tau-upper", "nan"], "--tau-upper must be positive and finite"),
        (["--coeff-sd", "inf"], "--coeff-sd must be positive and finite"),
    ]:
        bad = tmp_path / "bad"
        assert main(fast_fit_args(data_file, bad) + argv) == 2, argv
        assert message in capsys.readouterr().err
        assert not bad.exists()


@pytest.mark.parametrize("source", ["flag", "manifest"])
@pytest.mark.parametrize("name, value, message", [
    ("rho_y", 2.0, "must lie in [0, 1)"),
    ("chains", 0, "must be at least 1"),
    ("tau_upper", -1.0, "must be positive and finite"),
    # Each of these once ended in a traceback from a derived value: sd^2
    # overflows or underflows, or a tenth of tau_upper underflows.
    ("coeff_sd", 1e300, "must lie in about (1e-154, 5e153)"),
    ("coeff_sd", 1e-200, "must lie in about (1e-154, 5e153)"),
    ("tau_upper", 5e-324, "must have a tenth that is not 0"),
])
def test_out_of_range_setting_is_reported_where_it_came_from(
    source, name, value, message, data_file, tmp_path, capsys
):
    out = tmp_path / "run"
    if source == "flag":
        argv = fast_fit_args(data_file, out, **{name: value})
        where = "--" + name.replace("_", "-")
    else:
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"data": str(data_file), "settings": {name: value}}
        ))
        argv = ["fit", "--from-manifest", str(manifest), "--out", str(out)]
        where = f"{manifest}: settings.{name}"
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {where} {message}")
    assert not out.exists()


def test_diagnose_without_chains_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["diagnose", "--run", str(empty)]) == 2
    assert "no chain files" in capsys.readouterr().err


def _keep_lines(path, count):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:count]))


def _edit_line(path, index, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))


def _drop_last_column(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(ln.rsplit("\t", 1)[0] + "\n" for ln in lines))


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


MALFORMED_CHAIN_FILES = {
    "ragged row": ("chain_1.tsv", lambda p: _edit_line(
        p, 5, lambda ln: ln.rsplit("\t", 1)[0] + "\n"), "columns changed"),
    "non-numeric cell": ("chain_1.tsv", lambda p: _edit_line(
        p, 5, lambda ln: ln.rsplit("\t", 1)[0] + "\tnot-a-number\n"),
        "could not convert"),
    "header only": ("chain_1.tsv", lambda p: _keep_lines(p, 1), "0 draw(s)"),
    "one draw": ("chain_2.tsv", lambda p: _keep_lines(p, 2), "1 draw(s)"),
    "column counts differ": ("chain_2.tsv", _drop_last_column,
                             "header differs"),
    "empty file": ("chain_1.tsv", lambda p: _keep_lines(p, 0), "empty"),
    "directory": ("chain_1.tsv", _replace_with_directory, "directory"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHAIN_FILES))
def test_diagnose_malformed_chain_file_is_usage_error(
    case, data_file, tmp_path, capsys
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    name, corrupt, message = MALFORMED_CHAIN_FILES[case]
    path = out / "chains" / name
    corrupt(path)
    capsys.readouterr()

    assert main(["diagnose", "--run", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert message in err


def test_diagnose_rejects_an_unnumbered_chain_file(data_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    stray = out / "chains" / "chain_old.tsv"
    stray.write_bytes((out / "chains" / "chain_1.tsv").read_bytes())
    capsys.readouterr()

    assert main(["diagnose", "--run", str(out)]) == 2
    assert f"error: {stray}: not a chain file name" in capsys.readouterr().err


def test_diagnose_rejects_chain_files_whose_headers_disagree(
    data_file, tmp_path, capsys
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    written = (out / "summary.tsv").read_bytes()
    _edit_line(out / "chains" / "chain_2.tsv", 0,
               lambda ln: ln.replace("alpha", "intercept"))
    capsys.readouterr()

    assert main(["diagnose", "--run", str(out)]) == 2
    assert "chain_2.tsv: header differs" in capsys.readouterr().err
    assert (out / "summary.tsv").read_bytes() == written


def test_diagnose_rejects_an_iteration_column_other_than_1_to_n(
    data_file, tmp_path, capsys
):
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    _edit_line(out / "chains" / "chain_2.tsv", 3,
               lambda ln: "7" + ln[ln.index("\t"):])
    capsys.readouterr()

    assert main(["diagnose", "--run", str(out)]) == 2
    assert "chain_2.tsv: iteration column is not 1..150" in (
        capsys.readouterr().err
    )


def test_diagnose_of_an_infinite_draw_prints_no_warning(data_file, tmp_path):
    # inf - inf in the shrink-factor arithmetic gives the parameter's nan
    # R-hat, and nothing on stderr (a child process shows what the
    # interpreter's default warning filters let through).
    out = tmp_path / "run"
    assert main(fast_fit_args(data_file, out)) == 0
    _edit_line(out / "chains" / "chain_2.tsv", 5,
               lambda ln: ln.rsplit("\t", 1)[0] + "\tinf\n")

    result = subprocess.run(
        [sys.executable, "-m", "featmeta", "diagnose", "--run", str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    last = (out / "summary.tsv").read_text().splitlines()[-1]
    assert last.split("\t")[-1] == "nan"


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "featmeta" in capsys.readouterr().out


def test_module_entry_point(data_file):
    result = subprocess.run(
        [sys.executable, "-m", "featmeta", "validate", "--data", str(data_file)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "0 violations" in result.stdout


def test_fit_and_diagnose_leave_numpy_ma_unimported(data_file, tmp_path):
    # The first np.unique call in a process imports numpy.ma, about 9 ms
    # of a command that uses no masked array.
    out = tmp_path / "run"
    code = (
        "import sys\n"
        "from featmeta.cli import main\n"
        f"assert main({fast_fit_args(data_file, out)!r}) == 0\n"
        f"assert main(['diagnose', '--run', {str(out)!r}]) == 0\n"
        "print([m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_a_library_warning_prints_as_one_line(data_file, tmp_path):
    # At a prior sd of 1e-100 only the prior constrains the coefficients,
    # so fit warns once. The warning prints as one "warning:" line, and
    # the fit writes what it writes with the warning ignored.
    def fit(out, *options):
        return subprocess.run(
            [sys.executable, *options, "-m", "featmeta",
             *fast_fit_args(data_file, tmp_path / out, coeff_sd="1e-100")],
            capture_output=True, text=True,
        )

    shown, quiet = fit("shown"), fit("quiet", "-W", "ignore::UserWarning")
    assert shown.returncode == quiet.returncode == 0
    [line] = shown.stderr.splitlines()
    assert line.startswith("warning: weakly identified coefficient(s) alpha")
    assert "cli.py" not in shown.stderr and quiet.stderr == ""
    assert shown.stdout == quiet.stdout.replace("quiet", "shown")
    files = sorted(p.relative_to(tmp_path / "shown")
                   for p in (tmp_path / "shown").rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(tmp_path / "quiet")
                           for p in (tmp_path / "quiet").rglob("*") if p.is_file())
    for name in files:
        assert (tmp_path / "shown" / name).read_bytes() == (
            tmp_path / "quiet" / name
        ).read_bytes(), name
