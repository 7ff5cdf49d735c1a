"""Command-line interface: validate, fit, simulate, diagnose.

Exit codes: 0 on success; 1 when the inputs are well-formed but the run
fails on their content (validation violations, covariance or sampler
failures); 2 for usage errors, unreadable or unparseable files (chain
files included), and inconsistent settings.

Every fit writes a manifest.json capturing the exact settings and
per-chain seeds; ``fit --from-manifest`` replays it bit for bit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .covariance import CovarianceError
from .data import (
    DataFormatError,
    DataValidationError,
    center_covariates,
    load_dataset,
    save_dataset,
    schema_from_dict,
    validate_dataset,
)
from .design import ParameterVector
from .diagnostics import (
    read_chain_tsv,
    summarize,
    write_chain_tsv,
    write_rhat_trace_tsv,
    write_summary_tsv,
)
from .sampler import McmcConfig, PriorSpec, SamplerError, run_mcmc
from .simulate import SimConfig, simulate_dataset

__all__ = ["main", "cmd_validate", "cmd_fit", "cmd_simulate", "cmd_diagnose"]


class ConfigError(Exception):
    """Settings are inconsistent or a configuration file is unusable."""


FIT_DEFAULTS = {
    "chains": 4,
    "adapt": 10_000,
    "burn_in": 10_000,
    "samples": 20_000,
    "thin": 1,
    "seed": 0,
    "tau_upper": 5.0,
    "coeff_sd": 100.0,
    "rho_y": None,
    "rho_d": None,
    "center": True,
    "parallel": False,
    "diagnostics": True,
    "trace_points": 20,
}
# Settings that older manifests record and that replay ignores.
RETIRED_SETTINGS = frozenset({"likelihood"})


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
    p_fit.add_argument("--parallel", action=argparse.BooleanOptionalAction,
                       default=None, help="accepted; has no effect (all "
                       "chains advance together)")
    p_fit.add_argument("--diagnostics", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="compute shrink factors (default: on; needs >= 2 "
                       "chains)")
    p_fit.add_argument("--trace-points", type=int, dest="trace_points",
                       help="rows in the shrink-factor trace")
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
    p_diag.add_argument("--trace-points", type=int, dest="trace_points",
                        default=20)
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


@dataclass(frozen=True)
class FitSettings:
    chains: int
    adapt: int
    burn_in: int
    samples: int
    thin: int
    seed: int
    tau_upper: float
    coeff_sd: float
    rho_y: float | None
    rho_d: float | None
    center: bool
    parallel: bool
    diagnostics: bool
    trace_points: int


def _resolve_fit_settings(args) -> tuple[str, FitSettings]:
    """Merge explicit flags over manifest values over built-in defaults."""
    manifest_settings: dict = {}
    data_path = args.data
    if args.from_manifest:
        manifest = _load_json(args.from_manifest, "manifest")
        if "settings" not in manifest or "data" not in manifest:
            raise ConfigError(
                f"{args.from_manifest}: not a fit manifest "
                "(missing 'settings' or 'data')"
            )
        manifest_settings = dict(manifest["settings"])
        unknown = sorted(
            set(manifest_settings) - set(FIT_DEFAULTS) - RETIRED_SETTINGS
        )
        if unknown:
            raise ConfigError(
                f"{args.from_manifest}: unknown settings "
                + ", ".join(repr(name) for name in unknown)
            )
        # Manifests written before the latent-effects sampler was removed
        # record the likelihood; only the marginal one can be replayed.
        likelihood = manifest_settings.get("likelihood")
        if likelihood not in (None, "marginal"):
            raise ConfigError(
                f"{args.from_manifest}: settings.likelihood is "
                f"{likelihood!r}, but the latent-effects sampler was "
                "removed; only the marginal likelihood can be sampled"
            )
        if data_path is None:
            recorded = Path(manifest["data"])
            if not recorded.is_absolute():
                recorded = Path(args.from_manifest).parent / recorded
            data_path = str(recorded)
    if data_path is None:
        raise ConfigError("fit needs --data (or --from-manifest)")

    def pick(name):
        value = getattr(args, name)
        if value is not None:
            return value
        if name in manifest_settings and manifest_settings[name] is not None:
            return manifest_settings[name]
        return FIT_DEFAULTS[name]

    settings = FitSettings(
        **{name: pick(name) for name in FIT_DEFAULTS}
    )
    for name in ("rho_y", "rho_d"):
        rho = getattr(settings, name)
        if rho is not None and not 0.0 <= rho < 1.0:
            raise ConfigError(f"--{name.replace('_', '-')} must lie in [0, 1)")
    if settings.diagnostics and settings.chains < 2:
        raise ConfigError(
            "R-hat requires >= 2 chains; add chains or pass --no-diagnostics"
        )
    return data_path, settings


def cmd_fit(args) -> int:
    data_path, st = _resolve_fit_settings(args)
    with _readable(data_path) as fh:
        dataset = load_dataset(fh)
    if st.rho_y is not None:
        dataset = replace(dataset, base_rho_y=st.rho_y)
    if st.rho_d is not None:
        dataset = replace(dataset, base_rho_d=st.rho_d)
    centering = None
    if st.center:
        dataset, centering = center_covariates(dataset)

    try:
        config = McmcConfig(
            chains=st.chains,
            adapt=st.adapt,
            burn_in=st.burn_in,
            samples=st.samples,
            thin=st.thin,
            seed=st.seed,
        )
        prior = PriorSpec(coeff_sd=st.coeff_sd, tau_upper=st.tau_upper)
    except ValueError as e:
        raise ConfigError(str(e)) from e

    chains = run_mcmc(dataset, config, prior)
    summaries = summarize(chains)

    out = Path(args.out)
    (out / "chains").mkdir(parents=True, exist_ok=True)
    outputs = []
    for chain in chains:
        rel = f"chains/chain_{chain.chain_index + 1}.tsv"
        write_chain_tsv(chain, out / rel)
        outputs.append(rel)
    # Chain files of an earlier fit into the same directory would be
    # read by diagnose as part of this run.
    for path in (out / "chains").glob("chain_*.tsv"):
        if f"chains/{path.name}" not in outputs:
            path.unlink()
    write_summary_tsv(summaries, out / "summary.tsv")
    outputs.append("summary.tsv")
    if st.diagnostics:
        write_rhat_trace_tsv(chains, out / "rhat_trace.tsv",
                             n_points=st.trace_points)
        outputs.append("rhat_trace.tsv")

    manifest = {
        "package": "featmeta",
        "version": __version__,
        "command": "fit",
        "data": str(data_path),
        "settings": {
            name: getattr(st, name) for name in FIT_DEFAULTS
        },
        "centering": centering.as_dict() if centering is not None else None,
        "parameters": list(chains[0].parameter_names),
        "chains": [
            {
                "index": c.chain_index,
                "file": f"chains/chain_{c.chain_index + 1}.tsv",
                "seed_used": c.seed_used,
                "accept_rate": c.accept_rate,
                "proposal_log_scale": c.proposal_log_scale,
                "nonfinite_rejections": c.nonfinite_rejections,
            }
            for c in chains
        ],
        "outputs": outputs,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    print(format_summary_table(summaries))
    rates = ", ".join(f"{c.accept_rate:.3f}" for c in chains)
    print(f"acceptance rates: {rates}")
    print(f"results written to {out}")
    return 0


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


def _params_from_dict(raw: dict, schema) -> ParameterVector:
    def block(key, count):
        values = raw.get(key, [])
        if len(values) != count:
            raise ConfigError(
                f"params.{key}: expected {count} value(s), got {len(values)}"
            )
        return tuple(float(v) for v in values)

    missing = {"alpha", "tau"} - set(raw)
    if missing:
        raise ConfigError(f"params: missing {sorted(missing)}")
    return ParameterVector(
        alpha=float(raw["alpha"]),
        beta=block("beta", schema.n),
        gamma=block("gamma", schema.p),
        phi=block("phi", schema.q - 1),
        eta=block("eta", schema.l),
        tau=float(raw["tau"]),
    )


def cmd_simulate(args) -> int:
    raw = _load_json(args.config, "generator config")
    for key in ("schema", "params", "n_trials"):
        if key not in raw:
            raise ConfigError(f"{args.config}: missing {key!r}")
    try:
        schema = schema_from_dict(raw["schema"])
    except (DataFormatError, DataValidationError) as e:
        raise ConfigError(f"{args.config}: {e}") from e
    params = _params_from_dict(raw["params"], schema)

    optional = {
        key: raw[key]
        for key in (
            "control_fraction",
            "max_coded_arms",
            "variance_range",
            "ref_var_fraction_range",
            "rho_y",
            "rho_d",
            "feature_prob",
            "z_sd",
            "pattern_weights",
        )
        if key in raw
    }
    if "followup_patterns" in raw:
        optional["followup_patterns"] = tuple(
            tuple(int(c) for c in p) for p in raw["followup_patterns"]
        )
    for key in ("variance_range", "ref_var_fraction_range"):
        if key in optional:
            optional[key] = tuple(float(v) for v in optional[key])
    if "pattern_weights" in optional:
        optional["pattern_weights"] = tuple(
            float(v) for v in optional["pattern_weights"]
        )
    try:
        config = SimConfig(
            schema=schema,
            params=params,
            n_trials=args.trials if args.trials is not None else int(raw["n_trials"]),
            seed=args.seed if args.seed is not None else int(raw.get("seed", 0)),
            **optional,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{args.config}: {e}") from e

    dataset = simulate_dataset(config)
    violations = validate_dataset(dataset)
    if violations:  # would indicate a generator bug; never silently emit
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n_trials} trials to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def cmd_diagnose(args) -> int:
    run_dir = Path(args.run)
    numbered = {}
    for path in run_dir.glob("chains/chain_*.tsv"):
        match = re.fullmatch(r"chain_([1-9]\d*)\.tsv", path.name)
        if match is None:
            raise ConfigError(f"{path}: not a chain file name (chain_<k>.tsv)")
        numbered[int(match.group(1))] = path
    chain_files = [numbered[k] for k in sorted(numbered)]
    if not chain_files:
        raise ConfigError(f"{run_dir}: no chain files under chains/")
    chains = []
    for i, path in enumerate(chain_files):
        try:
            chain = read_chain_tsv(path, chain_index=i)
        except OSError as e:
            raise ConfigError(f"{path}: {e.strerror or e}") from e
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from e
        if chain.n_samples < 2:
            raise ConfigError(
                f"{path}: {chain.n_samples} draw(s); diagnose needs at least 2"
            )
        if chains and chain.parameter_names != chains[0].parameter_names:
            raise ConfigError(
                f"{path}: header differs from that of {chain_files[0]}"
            )
        chains.append(chain)
    lengths = {c.n_samples for c in chains}
    if len(lengths) > 1:
        raise ConfigError(f"{run_dir}: chains have unequal lengths {lengths}")
    summaries = summarize(chains)
    write_summary_tsv(summaries, run_dir / "summary.tsv")
    if len(chains) >= 2:
        write_rhat_trace_tsv(chains, run_dir / "rhat_trace.tsv",
                             n_points=args.trace_points)
    else:
        print("single chain: shrink factors unavailable", file=sys.stderr)
    print(format_summary_table(summaries))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _readable(path: str):
    """Open a file for reading, mapping OS errors to usage errors."""
    try:
        return open(path, "r")
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror or e}") from e


def _load_json(path: str, what: str) -> dict:
    with _readable(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"{path}: {what} parse error at line {e.lineno}: {e.msg}"
            ) from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return raw


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CovarianceError, SamplerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
