"""The library's surface: every exported name resolves, and the helpers
only the tests use live in tests/reference.py, not in the package."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import featmeta
from featmeta import ParameterVector, TrialRecord
from featmeta.covariance import ensure_positive_semidefinite

MODULES = (
    "featmeta",
    "featmeta.cli",
    "featmeta.covariance",
    "featmeta.data",
    "featmeta.design",
    "featmeta.diagnostics",
    "featmeta.pipeline",
    "featmeta.posterior",
    "featmeta.sampler",
    "featmeta.simulate",
)

# Test-only helpers, by the module that used to define them.
MOVED = {
    "featmeta.design": ("fixed_effects",),
    "featmeta.diagnostics": ("gelman_rubin", "mcse_mean", "effective_sample_size"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("module_name", sorted(MOVED))
def test_test_only_helpers_are_not_in_the_package(module_name):
    module = importlib.import_module(module_name)
    for name in MOVED[module_name]:
        assert not hasattr(module, name)
        assert not hasattr(featmeta, name)
        assert name not in featmeta.__all__


def test_the_retired_sampler_entry_points_are_gone():
    # featmeta.fit replaced sample_posterior and its McmcRun record;
    # run_chain is reached through featmeta.sampler.
    for name in MODULES:
        module = importlib.import_module(name)
        assert not hasattr(module, "sample_posterior"), name
        assert not hasattr(module, "McmcRun"), name
    assert {"fit", "Fit", "FitSettings"} <= set(featmeta.__all__)
    assert "run_chain" not in featmeta.__all__
    assert "run_chain" in importlib.import_module("featmeta.sampler").__all__


def test_pipeline_imports_no_cli_code_and_writes_no_file():
    # fit is the library's pipeline: the CLI writes its files.
    path = Path(importlib.import_module("featmeta.pipeline").__file__)
    imported, written = set(), []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            package = "featmeta" if node.level else ""
            module = ".".join(filter(None, (package, node.module)))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", ""
            )
            if name.startswith("write"):
                written.append(name)
    assert [n for n in imported if n.startswith("featmeta.cli")] == []
    assert written == []


def test_test_only_methods_are_not_on_the_records():
    assert not hasattr(TrialRecord, "arm_count")
    assert not hasattr(TrialRecord, "n_followups")
    assert not hasattr(ParameterVector, "zeros")


def test_positive_semidefinite_check_has_one_tolerance():
    parameters = inspect.signature(ensure_positive_semidefinite).parameters
    assert list(parameters) == ["matrix", "context"]


def test_posterior_imports_no_chain_code():
    # The model stands without the chains, the diagnostics and the CLI;
    # _kinds, the settings records' kind rule, imports no module of the
    # package.
    path = Path(importlib.import_module("featmeta.posterior").__file__)
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    own = {name for name in imported if name.startswith((".", "featmeta"))}
    assert own <= {"._kinds", ".covariance", ".data", ".design"}


def test_diagnostics_imports_no_chain_or_cli_code():
    # The records diagnostics reads come from the model, so any engine's
    # chains can be summarized and written without the sampler.
    path = Path(importlib.import_module("featmeta.diagnostics").__file__)
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            # Absolute names, so "from . import sampler" counts too.
            package = "featmeta" if node.level else ""
            module = ".".join(filter(None, (package, node.module)))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    chain_code = ("featmeta.sampler", "featmeta.cli")
    assert [n for n in imported if n.startswith(chain_code)] == []


def test_cli_knows_nothing_of_the_chain_file_layout():
    # diagnostics.py alone names, writes, finds and checks the chain
    # files: cli.py takes none of its private names and spells no chain
    # file name, in a string or in a part of an f-string.
    path = Path(importlib.import_module("featmeta.cli").__file__)
    private, literals = [], []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "featmeta." * bool(node.level) + (node.module or "")
            private += [
                f"{module}.{alias.name}" for alias in node.names
                if module == "featmeta.diagnostics" and alias.name.startswith("_")
            ]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name)
              and node.value.id == "diagnostics"):
            private.append(f"diagnostics.{node.attr}")
        elif isinstance(node, ast.Constant) and "chain_" in str(node.value):
            literals.append(node.value)
    assert private == []
    assert literals == []


def test_cli_holds_no_range_rule_of_the_fit_settings():
    # FitSettings checks its fields by constructing McmcConfig and
    # PriorSpec; cli.py neither imports nor names them, so it cannot
    # check those fields again.
    path = Path(importlib.import_module("featmeta.cli").__file__)
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
    assert named & {"McmcConfig", "PriorSpec"} == set()


def test_the_settings_records_own_the_one_kind_rule():
    # _kinds holds the one table of checks keyed by a field's annotation;
    # cli.py imports no JSON kind of a setting and no check, and pipeline.py
    # keeps no table of its own.
    from featmeta._kinds import _ANNOTATION_CHECKS

    package = Path(featmeta.__file__).parent
    tables = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value in _ANNOTATION_CHECKS
                for key in node.keys
            ):
                tables.add(path.name)
    assert tables == {"_kinds.py"}
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert imported & {"_INTEGER", "_NUMBER", "_BOOL", "_NUMBER_OR_NULL", "_LIST",
                       "_checked", "_items"} == set()
    tree = ast.parse((package / "pipeline.py").read_text(encoding="utf-8"))
    assigned = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert "_KINDS" not in assigned


def test_only_the_data_module_decodes_json():
    # data.read_json is the one decoder of datasets, manifests and
    # generator configs; no other module calls json.load or json.loads.
    callers = set()
    for path in Path(featmeta.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                callers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                if {alias.name for alias in node.names} & {"load", "loads"}:
                    callers.add(path.name)
    assert callers == {"data.py"}


def test_the_package_imports_only_the_standard_library_and_numpy():
    # pyproject.toml declares numpy as the one runtime dependency; scipy
    # and the other test dependencies must not reach the package.
    allowed = set(sys.stdlib_module_names) | {"numpy", "featmeta"}
    outside = set()
    for path in Path(featmeta.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            outside.update(
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in allowed
            )
    assert outside == set()
