"""The per-layer contract between featmeta and perfbench/spans.py.

The benchmark's per-layer metrics come from spans recorded around the
functions named in ``spans.TRACED``. A rename, or a call that bypasses
the module attribute, would leave a metric such as ``design.matrix_s``
reading zero without any error, so these checks fail first.
"""

import importlib
import sys
from pathlib import Path

import featmeta
import featmeta.cli
from featmeta import center_covariates

from conftest import build_basic_dataset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def test_every_traced_name_resolves():
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_assemble_spans_one_design_and_one_covariance_call_per_trial():
    centered, _ = center_covariates(build_basic_dataset())
    tracer = spans.Tracer()
    tracer.install()
    try:
        featmeta.sampler.assemble(centered)
    finally:
        tracer.remove()
    [top] = tracer.named("sampler.assemble")
    children = [tracer.spans[i].name for i in tracer.children(top)]
    assert children.count("design.trial_design_matrix") == centered.n_trials
    assert children.count("covariance.build_within_covariance") == (
        centered.n_trials
    )


def test_fit_and_diagnose_span_one_chain_file_call_per_chain(tmp_path, capsys):
    # perfbench/run.py reads diagnostics.write_chain_s and read_chain_s
    # from these spans; without them it has no measurement of either.
    data = tmp_path / "trials.json"
    featmeta.save_dataset(build_basic_dataset(), data)
    out = tmp_path / "run"
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("fit"):
            assert featmeta.cli.main([
                "fit", "--data", str(data), "--out", str(out), "--chains", "3",
                "--adapt", "100", "--burn-in", "50", "--samples", "60",
            ]) == 0
        with tracer.span("diagnose"):
            assert featmeta.cli.main(["diagnose", "--run", str(out)]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    for command, name in (("fit", "diagnostics.write_chain_tsv"),
                          ("diagnose", "diagnostics.read_chain_tsv")):
        [top] = tracer.named(command)
        calls = [i for i in tracer.named(name) if tracer.spans[i].parent == top]
        assert len(calls) == 3, (command, name)
        assert len(tracer.named(name)) == 3


def _traced_commands(tmp_path, chains):
    """A fit of ``chains`` chains, then (for 2 or more) a diagnose of its
    run directory, each under a span named after the command."""
    data = tmp_path / "trials.json"
    featmeta.save_dataset(build_basic_dataset(), data)
    out = tmp_path / "run"
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("fit"):
            assert featmeta.cli.main([
                "fit", "--data", str(data), "--out", str(out),
                "--chains", str(chains), "--adapt", "100", "--burn-in", "50",
                "--samples", "60",
            ]) == 0
        if chains >= 2:
            with tracer.span("diagnose"):
                assert featmeta.cli.main(["diagnose", "--run", str(out)]) == 0
    finally:
        tracer.remove()
    return tracer


def test_fit_and_diagnose_span_one_summary_and_one_trace(tmp_path, capsys):
    # perfbench/run.py reads diagnostics.summarize_s and rhat_trace_s
    # from these spans.
    tracer = _traced_commands(tmp_path, chains=3)
    capsys.readouterr()
    for command in ("fit", "diagnose"):
        [top] = tracer.named(command)
        for name in ("diagnostics.summarize", "diagnostics.shrink_factor_trace"):
            calls = [i for i in tracer.named(name)
                     if tracer.spans[i].parent == top]
            assert len(calls) == 1, (command, name)
    for name in ("diagnostics.summarize", "diagnostics.shrink_factor_trace"):
        assert len(tracer.named(name)) == 2, name


def test_one_chain_fit_spans_no_trace(tmp_path, capsys):
    tracer = _traced_commands(tmp_path, chains=1)
    capsys.readouterr()
    assert len(tracer.named("diagnostics.summarize")) == 1
    assert tracer.named("diagnostics.shrink_factor_trace") == []
