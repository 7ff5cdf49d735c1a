"""End-to-end CLI behavior through in-process main() calls."""

import json
import subprocess
import sys

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
