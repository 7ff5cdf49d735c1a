"""End-to-end CLI behavior through in-process main() calls."""

import gc
import json
import subprocess
import sys
import warnings

import pytest

from featmeta import dataset_to_dict, save_dataset
from featmeta.cli import main

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


def test_validate_unreadable_file_is_usage_error(tmp_path, capsys):
    assert main(["validate", "--data", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_validate_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": [unclosed')
    assert main(["validate", "--data", str(path)]) == 2
    assert "parse error at line" in capsys.readouterr().err


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


def test_fit_parallel_flag_and_manifest_setting_change_nothing(
    data_file, tmp_path
):
    plain = tmp_path / "plain"
    flagged = tmp_path / "flagged"
    replayed = tmp_path / "replayed"
    assert main(fast_fit_args(data_file, plain)) == 0
    assert main(fast_fit_args(data_file, flagged, parallel=None)) == 0
    manifest = json.loads((flagged / "manifest.json").read_text())
    assert manifest["settings"]["parallel"] is True
    assert main([
        "fit", "--from-manifest", str(flagged / "manifest.json"),
        "--out", str(replayed),
    ]) == 0
    for k in (1, 2):
        expected = (plain / f"chains/chain_{k}.tsv").read_bytes()
        for run in (flagged, replayed):
            assert (run / f"chains/chain_{k}.tsv").read_bytes() == expected


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


def test_fit_single_chain_with_diagnostics_is_config_error(
    data_file, tmp_path, capsys
):
    code = main(fast_fit_args(data_file, tmp_path / "run", chains=1))
    assert code == 2
    assert "R-hat requires >= 2 chains" in capsys.readouterr().err


def test_fit_single_chain_without_diagnostics_runs(data_file, tmp_path):
    out = tmp_path / "run"
    args = fast_fit_args(data_file, out, chains=1)
    args.append("--no-diagnostics")
    assert main(args) == 0
    assert not (out / "rhat_trace.tsv").exists()
    summary = (out / "summary.tsv").read_text().splitlines()
    assert all(line.split("\t")[-1] == "nan" for line in summary[1:])


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
    assert "at least one trial" in capsys.readouterr().err


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
        "chain_1.tsv", "chain_2.tsv",
    ]

    assert main(["diagnose", "--run", str(out)]) == 0
    assert (out / "summary.tsv").read_bytes() == written


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
