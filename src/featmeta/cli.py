"""Command-line interface: validate, fit, simulate, diagnose.

Exit codes: 0 on success; 1 when the inputs are well-formed but the run
fails on their content (validation violations, covariance or sampler
failures); 2 for usage errors, unreadable or unparseable files (chain
files included), and inconsistent settings.

Every fit writes a manifest.json capturing the exact settings and
per-chain seeds; ``fit --from-manifest`` replays it bit for bit.
``featmeta.pipeline.FitSettings`` is the one table of fit settings:
each field's name, type and default serve the ``fit`` flags, the
manifest's ``settings`` and the checks on a replayed manifest.
The settings records (``FitSettings``, ``SimConfig``,
``ParameterVector``) check the kinds and ranges of their own fields;
this module checks each file's objects and keys and, when a record
refuses a value, names the flag or the file's key it came from.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from . import __version__
from ._kinds import _OBJECT, _STRING
from .covariance import CovarianceError
from .data import (
    DataError,
    DataFormatError,
    DataValidationError,
    _object,
    load_dataset,
    read_json,
    save_dataset,
    schema_from_dict,
    validate_dataset,
)
from .design import ParameterVector
from .diagnostics import (
    CHAINS_DIR,
    read_chain_files,
    summarize_chains,
    write_chain_files,
    write_rhat_trace_tsv,
    write_summary_tsv,
)
from .pipeline import FitSettings, fit
from .posterior import SamplerError
from .sampler import DEFENSIVE_WEIGHT
from .simulate import SimConfig, simulate_dataset

__all__ = ["main", "cmd_validate", "cmd_fit", "cmd_simulate", "cmd_diagnose"]


class ConfigError(Exception):
    """Settings are inconsistent or a configuration file is unusable."""


# Settings that older manifests record and that replay ignores.
RETIRED_SETTINGS = frozenset(
    {"diagnostics", "likelihood", "parallel", "trace_points"}
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featmeta",
        description=(
            "Feature-level Bayesian meta-regression for multi-arm, "
            "multi-follow-up trials"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser(
        "validate", help="check a dataset file against every invariant"
    )
    p_val.add_argument("--data", required=True, help="dataset file (JSON)")
    p_val.set_defaults(func=cmd_validate)

    p_fit = sub.add_parser("fit", help="sample the posterior for a dataset")
    p_fit.add_argument("--data", help="dataset file (JSON)")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument(
        "--from-manifest",
        metavar="MANIFEST",
        help="reuse data path and settings from a previous run's manifest "
        "(explicit flags still take precedence)",
    )
    p_fit.add_argument("--chains", type=int)
    p_fit.add_argument("--adapt", type=int, help="proposal adaptation iterations")
    p_fit.add_argument("--burn-in", type=int, dest="burn_in")
    p_fit.add_argument("--samples", type=int, help="retained draws per chain")
    p_fit.add_argument("--thin", type=int)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--tau-upper", type=float, dest="tau_upper",
                       help="upper bound of the uniform prior on tau")
    p_fit.add_argument("--coeff-sd", type=float, dest="coeff_sd",
                       help="prior standard deviation of the coefficients")
    p_fit.add_argument("--rho-y", type=float, dest="rho_y",
                       help="override the dataset's same-arm correlation")
    p_fit.add_argument("--rho-d", type=float, dest="rho_d",
                       help="override the dataset's reference-change correlation")
    p_fit.add_argument("--center", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="center covariates before fitting (default: on)")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser(
        "simulate", help="generate a synthetic dataset from known parameters"
    )
    p_sim.add_argument("--config", required=True,
                       help="generator settings (JSON)")
    p_sim.add_argument("--out", required=True, help="dataset file to write")
    p_sim.add_argument("--trials", type=int, help="override trial count")
    p_sim.add_argument("--seed", type=int, help="override the generator seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser(
        "diagnose", help="recompute summaries and shrink factors for a run"
    )
    p_diag.add_argument("--run", required=True,
                        help="output directory of a previous fit")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    with _readable(args.data) as fh:
        dataset = load_dataset(fh, validate=False)
    violations = validate_dataset(dataset)
    if violations:
        for v in violations:
            print(v)
        print(f"{len(violations)} violation(s) found", file=sys.stderr)
        return 1
    schema = dataset.schema
    print(
        f"0 violations: {dataset.n_trials} trials against schema "
        f"(n={schema.n}, p={schema.p}, q={schema.q}, l={schema.l})"
    )
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _reading(path):
    """Raise a data error or a value a record refuses, met within, as a
    usage error that names ``path``, the file being read."""
    try:
        yield
    except (DataError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def _constructed(cls, values: dict, sources: dict[str, str]):
    """``cls(**values)``. A ValueError whose message starts with a field
    named in ``sources`` is raised as a usage error that names the
    field's source, a flag or a file's key, in its place."""
    try:
        return cls(**values)
    except ValueError as e:
        name = re.match(r"[A-Za-z_]\w*", str(e))
        if name is None or name[0] not in sources:
            raise
        raise ConfigError(sources[name[0]] + str(e)[name.end():]) from e


def _resolve_fit_settings(args) -> tuple[str, FitSettings]:
    """Merge explicit flags over manifest values over the defaults.

    Every settings error is raised here, before the data file is read
    or anything is written.
    """
    explicit = {
        field.name: getattr(args, field.name)
        for field in fields(FitSettings)
        if getattr(args, field.name) is not None
    }
    recorded: dict = {}
    data_path = args.data
    if args.from_manifest:
        manifest = _load_json(
            args.from_manifest, "manifest", {"data": _STRING, "settings": _OBJECT}
        )
        with _reading(args.from_manifest):
            known = {field.name for field in fields(FitSettings)} | RETIRED_SETTINGS
            settings = _object(manifest["settings"], "settings", {},
                               dict.fromkeys(known), "unknown settings")
            # Manifests written before the latent-effects sampler was
            # removed record the likelihood; only the marginal one can be
            # replayed.
            likelihood = settings.get("likelihood")
            if likelihood not in (None, "marginal"):
                raise ValueError(
                    f"settings.likelihood is {likelihood!r}, but the "
                    "latent-effects sampler was removed; only the marginal "
                    "likelihood can be sampled"
                )
            recorded = {k: v for k, v in settings.items() if k not in RETIRED_SETTINGS}
        if data_path is None:
            # Relative to the working directory, as for the fit that
            # recorded it.
            data_path = manifest["data"]
    if data_path is None:
        raise ConfigError("fit needs --data (or --from-manifest)")
    sources = {
        **{name: f"{args.from_manifest}: settings.{name}" for name in recorded},
        **{name: "--" + name.replace("_", "-") for name in explicit},
    }
    settings = _constructed(FitSettings, {**recorded, **explicit}, sources)
    return data_path, settings


def cmd_fit(args) -> int:
    data_path, st = _resolve_fit_settings(args)
    out = Path(args.out)
    try:
        (out / CHAINS_DIR).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(
            f"--out {out}: cannot make {out / CHAINS_DIR}: {e.strerror or e}"
        ) from e
    with _readable(data_path) as fh:
        dataset = load_dataset(fh)
    result = fit(dataset, st)
    chains, pre, centering = result.chains, result.preconditioner, result.centering
    written = write_chain_files(out, chains)
    outputs = _write_results(out, written, result.trace, result.summaries)

    manifest = {
        "package": "featmeta",
        "version": __version__,
        "command": "fit",
        "data": os.path.abspath(data_path),
        "settings": asdict(st),
        "centering": centering.as_dict() if centering is not None else None,
        "parameters": list(chains[0].parameter_names),
        "zeroed_eigenvalues": result.zeroed_eigenvalues,
        "weakly_identified": list(result.weak_coefficients),
        "preconditioner": {
            "tau_mode": pre.tau_mode,
            "log_tau_sd": pre.log_tau_sd,
            "condition_number": pre.condition_number,
            # The tau grid the independence proposals are drawn from.
            "grid_nodes": int(pre.grid.nodes.size),
            "grid_log_tau": [float(pre.grid.nodes[0]), float(pre.grid.nodes[-1])],
            "grid_spacing_sd": pre.grid.spacing / pre.log_tau_sd,
            "defensive_weight": DEFENSIVE_WEIGHT,
        },
        "chains": [
            {
                "index": c.chain_index,
                "file": files[0],
                **{name: _known(getattr(c, name)) for name in _CHAIN_STATISTICS},
            }
            for c, files in written
        ],
        "outputs": outputs,
    }
    _write_manifest(out / "manifest.json", manifest)

    print(format_summary_table(result.summaries))
    rates = ", ".join(f"{c.accept_rate:.3f}" for c in chains)
    print(f"acceptance rates: {rates}")
    print(f"results written to {out}")
    return 0


# ---------------------------------------------------------------------------
# run directory
# ---------------------------------------------------------------------------

def _write_results(run_dir: Path, held, trace, summaries) -> list[str]:
    """Write ``rhat_trace.tsv`` from ``trace`` (delete it for None, the
    trace of one chain), then ``summary.tsv``, for ``held``: each chain
    with its files, as the diagnostics module writes or reads them.
    Returns the run's files: the chain files, ``summary.tsv``, then the
    trace."""
    outputs = [*(file for _, files in held for file in files), "summary.tsv"]
    if trace is not None:
        chains = [chain for chain, _ in held]
        write_rhat_trace_tsv(chains, run_dir / "rhat_trace.tsv", trace)
        outputs.append("rhat_trace.tsv")
    else:
        print("single chain: shrink factors unavailable", file=sys.stderr)
        (run_dir / "rhat_trace.tsv").unlink(missing_ok=True)
    write_summary_tsv(summaries, run_dir / "summary.tsv")
    return outputs


# The statistics of ``ChainOutput`` that the manifest records per chain.
_CHAIN_STATISTICS = (
    "seed_used", "accept_rate", "proposal_log_scale", "nonfinite_rejections",
    "adapt_accept_rate", "independence_accept_rate", "density_evaluations",
)


def _known(value: float | int) -> float | int | None:
    """A chain statistic for JSON: null where it is unknown, a NaN float
    or a -1 int (see ``ChainOutput``)."""
    if isinstance(value, float):
        return None if math.isnan(value) else value
    return None if value == -1 else value


def _write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def format_summary_table(summaries) -> str:
    header = f"{'parameter':<16}{'median':>12}{'2.5%':>12}{'97.5%':>12}" \
             f"{'P(<0)':>9}{'P(>0)':>9}{'R-hat':>9}"
    lines = [header]
    for s in summaries:
        lines.append(
            f"{s.name:<16}{s.median:>12.4g}{s.ci_low:>12.4g}"
            f"{s.ci_high:>12.4g}{s.p_below:>9.3f}{s.p_above:>9.3f}"
            f"{s.r_hat:>9.4f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _params_from_dict(raw, path) -> ParameterVector:
    """The generator's true parameters, from the file ``path``; a block
    the schema sizes at 0 may be left out."""
    blocks = ("beta", "gamma", "phi", "eta")
    _object(raw, "params", {"alpha": None, "tau": None}, dict.fromkeys(blocks))
    sources = {f.name: f"{path}: params.{f.name}" for f in fields(ParameterVector)}
    return _constructed(ParameterVector, {**dict.fromkeys(blocks, []), **raw}, sources)


def cmd_simulate(args) -> int:
    required = {f.name: None for f in fields(SimConfig) if f.default is MISSING}
    optional = {f.name: None for f in fields(SimConfig) if f.name not in required}
    raw = _load_json(args.config, "generator config", required, optional)
    with _reading(args.config):
        schema = schema_from_dict(raw["schema"])
        params = _params_from_dict(raw["params"], args.config)
        settings = {k: v for k, v in raw.items() if k not in ("schema", "params")}
        # A flag's value replaces the file's, and a message names the flag.
        flags = {}
        for name, flag, value in (("n_trials", "--trials", args.trials),
                                  ("seed", "--seed", args.seed)):
            if value is not None:
                settings[name], flags[name] = value, flag
        config = _constructed(
            SimConfig, dict(settings, schema=schema, params=params), flags
        )

    dataset = simulate_dataset(config)
    violations = validate_dataset(dataset)
    if violations:  # would indicate a generator bug; never silently emit
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    try:
        save_dataset(dataset, args.out)
    except OSError as e:
        raise ConfigError(
            f"--out {args.out}: cannot write: {e.strerror or e}"
        ) from e
    print(f"wrote {dataset.n_trials} trials to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def cmd_diagnose(args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    manifest = (_load_json(manifest_path, "manifest", {})
                if manifest_path.exists() else None)
    try:
        held = read_chain_files(run_dir)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    kept = [file for _, files in held for file in files]
    _, trace, summaries = summarize_chains([chain for chain, _ in held])
    outputs = _write_results(run_dir, held, trace, summaries)
    if manifest is not None:
        # The manifest lists the files now held, and the recorded chains
        # whose file was read; it is rewritten only when that changes it.
        current = dict(manifest, outputs=outputs)
        if isinstance(manifest.get("chains"), list):
            current["chains"] = [c for c in manifest["chains"]
                                 if isinstance(c, dict) and c.get("file") in kept]
        if current != manifest:
            _write_manifest(manifest_path, current)
    print(format_summary_table(summaries))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _readable(path: str):
    """Open a UTF-8 file for reading, mapping OS errors to usage errors."""
    try:
        return open(path, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror or e}") from e


def _load_json(path: str | Path, what: str, required, optional=None) -> dict:
    """The JSON object, ``what``, in the file ``path``; see ``_object``."""
    with _readable(path) as fh:
        raw = read_json(fh, what)
    with _reading(path):
        return _object(raw, "", required, optional)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A warning the filters let through prints as one line, as errors
    # do; a recording caller (catch_warnings(record=True)) still records
    # it, since only the format changes.
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, OSError) as e:
        # An OSError left is a run file fit or diagnose cannot write or
        # delete, such as a directory named summary.tsv; it names the file.
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataValidationError, CovarianceError, SamplerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
