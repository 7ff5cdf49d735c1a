#!/usr/bin/env python3
"""Simulate-and-refit study: how well does the model recover known values?

Generates replicate datasets from a fixed "true" parameter vector,
refits each with the default pipeline (centering on, marginal
likelihood), and tabulates credible-interval coverage and shrink
factors across replicates. The defaults mirror the desk-scale recovery
setup used in the acceptance tests; crank --trials / --samples up for a
slower, tighter study.

Usage:
    python3 scripts/recovery_study.py --replicates 20 --out results.tsv
"""

import argparse
import sys
import time

import numpy as np

from featmeta import (
    CovariateSchema,
    Factor,
    McmcConfig,
    ParameterVector,
    PriorSpec,
    SimConfig,
    center_covariates,
    run_mcmc,
    simulate_dataset,
    summarize,
)

SCHEMA = CovariateSchema(
    n=4, p=1, q=3,
    interactions=(
        (Factor("intervention", 0), Factor("study", 0)),
        (Factor("intervention", 1), Factor("followup", 0)),
    ),
)

TRUE = ParameterVector(
    alpha=-0.04,
    beta=(0.004, 0.01, -0.02, 0.003),
    gamma=(-0.035,),
    phi=(-0.0085, -0.007),
    eta=(0.089, 0.04),
    tau=0.05,
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicates", type=int, default=20,
                        help="replicate datasets (at least 2, for the bias sd)")
    parser.add_argument("--trials", type=int, default=150,
                        help="trials per replicate dataset")
    parser.add_argument("--chains", type=int, default=4)
    parser.add_argument("--adapt", type=int, default=2_000)
    parser.add_argument("--burn-in", type=int, default=2_000, dest="burn_in")
    parser.add_argument("--samples", type=int, default=5_000)
    parser.add_argument("--seed", type=int, default=5_000,
                        help="base seed; replicate r uses seed + r")
    parser.add_argument("--out", help="write the per-parameter table as TSV")
    args = parser.parse_args(argv)
    if args.replicates < 2:
        parser.error("--replicates must be at least 2")
    return args


def run_replicate(rep, args):
    config = SimConfig(
        schema=SCHEMA,
        params=TRUE,
        n_trials=args.trials,
        seed=args.seed + rep,
        control_fraction=0.5,
        max_coded_arms=3,
    )
    dataset = simulate_dataset(config)
    centered, record = center_covariates(dataset)
    chains = run_mcmc(
        centered,
        McmcConfig(
            chains=args.chains, adapt=args.adapt, burn_in=args.burn_in,
            samples=args.samples, seed=rep,
        ),
        PriorSpec(),
    )
    summaries = summarize(chains)

    # The fit is on centered covariates, so the recoverable intercept is
    # the raw one plus the recorded column-mean shift.
    alpha_centered = TRUE.alpha + float(
        record.intercept_shift(TRUE.beta, TRUE.gamma, TRUE.phi, TRUE.eta)
    )
    targets = np.array([
        alpha_centered, *TRUE.beta, *TRUE.gamma, *TRUE.phi, *TRUE.eta,
        TRUE.tau,
    ])
    covered = np.array([
        s.ci_low <= t <= s.ci_high for s, t in zip(summaries, targets)
    ])
    bias = np.array([s.median - t for s, t in zip(summaries, targets)])
    r_hats = np.array([s.r_hat for s in summaries])
    return [s.name for s in summaries], covered, bias, r_hats


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    names = None
    coverage = None
    biases = []
    worst_r_hats = []

    for rep in range(args.replicates):
        names, covered, bias, r_hats = run_replicate(rep, args)
        coverage = covered.astype(int) if coverage is None else coverage + covered
        biases.append(bias)
        worst_r_hats.append(r_hats.max())
        print(
            f"replicate {rep + 1:3d}/{args.replicates}: "
            f"covered {covered.sum()}/{len(covered)}, "
            f"max R-hat {r_hats.max():.3f}",
            flush=True,
        )

    biases = np.vstack(biases)
    print()
    print(f"{'parameter':<12}{'coverage':>10}{'mean bias':>12}{'|bias| sd':>12}")
    rows = []
    for j, name in enumerate(names):
        rows.append((
            name,
            f"{coverage[j]}/{args.replicates}",
            f"{biases[:, j].mean():+.5f}",
            f"{biases[:, j].std(ddof=1):.5f}",
        ))
        print(f"{rows[-1][0]:<12}{rows[-1][1]:>10}{rows[-1][2]:>12}{rows[-1][3]:>12}")

    converged = sum(1 for r in worst_r_hats if r < 1.1)
    elapsed = time.perf_counter() - started
    print()
    print(f"replicates with all R-hat < 1.1: {converged}/{args.replicates}")
    print(f"total time: {elapsed:.1f}s")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("parameter\tcoverage\tmean_bias\tbias_sd\n")
            for row in rows:
                fh.write("\t".join(row) + "\n")
        print(f"table written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
