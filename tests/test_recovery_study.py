"""Smoke test of scripts/recovery_study.py at a tiny scale."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "recovery_study.py"


@pytest.fixture(scope="module")
def study():
    spec = importlib.util.spec_from_file_location("recovery_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_study_writes_its_table(study, tmp_path, capsys):
    out = tmp_path / "study.tsv"
    # Twelve trials leave phi_2 to the prior.
    with pytest.warns(UserWarning, match="weakly identified"):
        assert study.main([
            "--replicates", "2", "--trials", "12", "--adapt", "100",
            "--burn-in", "50", "--samples", "100", "--out", str(out),
        ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "parameter\tcoverage\tmean_bias\tbias_sd"
    assert len(lines) == 1 + 11  # alpha, 4 beta, gamma, 2 phi, 2 eta, tau
    assert "replicate   2/2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["--parallel"], ["--replicates", "1"], ["--replicates", "0"]]
)
def test_bad_arguments_are_usage_errors(study, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        study.main(argv)
    assert exc.value.code == 2
