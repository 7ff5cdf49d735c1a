"""Acceptance gate: the eight release criteria, one test per criterion.

Each test prints a single PASS/FAIL line (straight to the terminal,
bypassing capture) so a full run yields an eight-line scorecard.
Tolerances are part of the release contract and must not be loosened.
"""

import math
import time

import numpy as np
import pytest

from featmeta import (
    CovariateSchema,
    Dataset,
    Factor,
    McmcConfig,
    ParameterVector,
    PriorSpec,
    SimConfig,
    assemble,
    between_structure,
    build_within_covariance,
    center_covariates,
    log_likelihood_marginal,
    run_chain,
    run_mcmc,
    simulate_dataset,
    summarize,
    validate_trial,
)

from conftest import arm, grid_trial
from reference import (
    build_between_covariance,
    effective_sample_size,
    fixed_effects,
    gelman_rubin,
    log_likelihood_latent,
    mcse_mean,
)


@pytest.fixture
def report(capsys):
    def _report(number, description, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# ---------------------------------------------------------------------------
# shared constructions (criteria 2, 5, and 8 must see identical structures)
# ---------------------------------------------------------------------------

PROJECTION_SCHEMA = CovariateSchema(
    n=3, p=1, q=3,
    interactions=((Factor("intervention", 0), Factor("study", 0)),),
)

RECOVERY_SCHEMA = CovariateSchema(
    n=4, p=1, q=3,
    interactions=(
        (Factor("intervention", 0), Factor("study", 0)),
        (Factor("intervention", 1), Factor("followup", 0)),
    ),
)

RECOVERY_TRUE = ParameterVector(
    alpha=-0.04,
    beta=(0.004, 0.01, -0.02, 0.003),
    gamma=(-0.035,),
    phi=(-0.0085, -0.007),
    eta=(0.089, 0.04),
    tau=0.05,
)

N_PROJECTION_CASES = 1000
N_REPLICATES = 20


def projection_cases(n_cases=N_PROJECTION_CASES, seed=971):
    """Randomized (A+1)-arm control trials with full variance decompositions.

    Arm-level change scores are d_{k,t} with variance f_k * g_t (index 0
    is the control arm), correlated rho^|dt| across time within an arm
    and independent across arms. Yields the control-comparison trial,
    its active projection onto reference arm 1, and the pieces needed to
    compute covariances from the decomposition directly.
    """
    rng = np.random.default_rng(seed)
    for rep in range(n_cases):
        n_active = int(rng.integers(2, 5))  # arms besides control: 2..4
        n_times = int(rng.integers(1, 4))
        cats = tuple(range(1, n_times + 1))
        rho = float(rng.uniform(0.0, 0.95))
        f = rng.uniform(0.2, 1.5, size=n_active + 1)
        g = rng.uniform(0.5, 2.0, size=n_times)
        xs = [
            tuple(float(b) for b in rng.random(3) < 0.5)
            for _ in range(n_active)
        ]
        z = (float(rng.standard_normal()),)

        arm_ids = [f"a{k}" for k in range(1, n_active + 1)]
        control = grid_trial(
            f"ctl-{rep}", "control",
            [arm(a, x) for a, x in zip(arm_ids, xs)],
            categories=cats, z=z,
            v={(a, t): (f[k + 1] + f[0]) * g[t - 1]
               for k, a in enumerate(arm_ids) for t in cats},
            ref_change_var={t: f[0] * g[t - 1] for t in cats},
        )
        projection = grid_trial(
            f"act-{rep}", "active",
            [arm(a, x) for a, x in zip(arm_ids, xs)],
            categories=cats, z=z,
            v={(a, t): (f[k + 1] + f[1]) * g[t - 1]
               for k, a in enumerate(arm_ids) for t in cats if k >= 1},
            ref_change_var={t: f[1] * g[t - 1] for t in cats},
            reference_arm="a1",
        )
        yield rep, control, projection, n_active, cats, rho, f, g, rng


def decomposition_covariance(n_active, cats, rho, f, g):
    """Brute-force covariance of d_k - d_1 for k = 2..A from first principles."""
    order = [(t, k) for t in cats for k in range(2, n_active + 1)]
    dim = len(order)
    out = np.empty((dim, dim))
    for i, (t, k) in enumerate(order):
        for j, (u, m) in enumerate(order):
            decay = rho ** abs(t - u)
            shared = f[1]  # the projection reference arm's own change score
            same = f[k] if k == m else 0.0
            out[i, j] = decay * math.sqrt(g[t - 1] * g[u - 1]) * (shared + same)
    return out


def recovery_sim_config(rep):
    return SimConfig(
        schema=RECOVERY_SCHEMA,
        params=RECOVERY_TRUE,
        n_trials=150,
        seed=5_000 + rep,
        control_fraction=0.5,
        max_coded_arms=3,
    )


def recovery_mcmc_config(rep):
    return McmcConfig(
        chains=4, adapt=2_000, burn_in=2_000, samples=5_000, seed=rep
    )


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------


def test_criterion_1_pairwise_difference_invariant(report):
    started = time.perf_counter()
    worst = 0.0
    for dim in range(1, 11):
        for tau in (0.01, 0.05, 1.0):
            matrix = build_between_covariance(dim, tau).matrix
            for k in range(dim):
                for m in range(dim):
                    if k == m:
                        continue
                    gap = abs(
                        matrix[k, k] + matrix[m, m] - 2.0 * matrix[k, m]
                        - tau**2
                    )
                    worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    report(
        1,
        "between-trial pairwise contrast variance equals tau^2 "
        "(dims 1-10, tau in {0.01, 0.05, 1}, tolerance 1e-14)",
        worst <= 1e-14 and elapsed < 1.0,
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------


def test_criterion_2_projection_equivalence(report):
    started = time.perf_counter()
    worst_cov = 0.0
    worst_theta = 0.0
    for case in projection_cases():
        rep, control, projection, n_active, cats, rho, f, g, rng = case
        direct = build_within_covariance(projection, rho, rho).matrix
        brute = decomposition_covariance(n_active, cats, rho, f, g)
        worst_cov = max(worst_cov, float(np.max(np.abs(direct - brute))))

        values = rng.normal(0.0, 0.5, size=PROJECTION_SCHEMA.n_parameters)
        values[-1] = abs(values[-1])
        params = ParameterVector.from_array(values, PROJECTION_SCHEMA)
        theta_control = fixed_effects(params, control, PROJECTION_SCHEMA)
        theta_active = fixed_effects(params, projection, PROJECTION_SCHEMA)
        for ti in range(len(cats)):
            ref_row = ti * n_active
            for k in range(2, n_active + 1):
                expected = (
                    theta_control[ti * n_active + (k - 1)]
                    - theta_control[ref_row]
                )
                got = theta_active[ti * (n_active - 1) + (k - 2)]
                worst_theta = max(worst_theta, abs(got - expected))
    elapsed = time.perf_counter() - started
    report(
        2,
        f"{N_PROJECTION_CASES} randomized control trials: active-projection "
        "V matches the variance-decomposition covariance and theta is "
        "transitive (tolerance 1e-12)",
        worst_cov <= 1e-12 and worst_theta <= 1e-12 and elapsed < 10.0,
        f"worst V gap {worst_cov:.2e}, worst theta gap {worst_theta:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------


def test_criterion_3_marginal_matches_quadrature(report):
    quad = pytest.importorskip("scipy.integrate").quad
    started = time.perf_counter()
    schema = CovariateSchema(n=1, p=0, q=1, interactions=())
    trials = (
        grid_trial("c1", "control", [arm("a", (1.0,))],
                   categories=(1,), v=0.006, y=0.035),
        grid_trial("c2", "control", [arm("b", (0.0,))],
                   categories=(1,), v=0.004, y=-0.01),
        grid_trial("a1", "active", [arm("r", (0.0,)), arm("k", (1.0,))],
                   categories=(1,), v=0.008, y=0.02,
                   reference_arm="r"),
    )
    dataset = Dataset(schema=schema, trials=trials, base_rho_y=0.8,
                      base_rho_d=0.64)
    singles = [
        Dataset(schema=schema, trials=(t,), base_rho_y=0.8, base_rho_d=0.64)
        for t in trials
    ]

    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        params = ParameterVector(
            alpha=float(rng.normal(0.0, 0.2)),
            beta=(float(rng.normal(0.0, 0.2)),),
            gamma=(), phi=(), eta=(),
            tau=float(rng.uniform(0.05, 0.5)),
        )
        marginal = log_likelihood_marginal(dataset, params)
        by_quadrature = 0.0
        for single, trial in zip(singles, trials):
            y = trial.y_vector()[0]
            theta = fixed_effects(params, trial, schema)[0]

            def integrand(delta, _single=single):
                return math.exp(
                    log_likelihood_latent(_single, params, np.array([delta]))
                )

            integral, _ = quad(
                integrand, -4.0, 4.0,
                points=[y, theta], limit=200,
                epsabs=1e-14, epsrel=1e-10,
            )
            by_quadrature += math.log(integral)
        worst = max(worst, abs(marginal - by_quadrature))
    elapsed = time.perf_counter() - started
    report(
        3,
        "marginal log-likelihood equals 1-D quadrature over the latent "
        "effects on dim-1 trials (20 parameter points, tolerance 1e-6)",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------


def test_criterion_4_conjugate_posterior(report):
    started = time.perf_counter()
    y, v = 0.03, 0.005
    schema = CovariateSchema(n=0, p=0, q=1, interactions=())
    trial = grid_trial("toy", "control", [arm("a", ())],
                       categories=(1,), v=v, y=y)
    dataset = Dataset(schema=schema, trials=(trial,), base_rho_y=0.8,
                      base_rho_d=0.64)

    sigma0 = 1e8  # flat-limit prior on the intercept
    prior = PriorSpec(coeff_sd=sigma0, tau_upper=1e-6)  # pins tau near 0
    expected_mean = y * sigma0**2 / (sigma0**2 + v)
    expected_sd = math.sqrt(1.0 / (1.0 / sigma0**2 + 1.0 / v))

    chains = run_mcmc(
        dataset,
        McmcConfig(chains=2, adapt=3_000, burn_in=2_000, samples=10_000,
                   seed=29),
        prior,
    )
    alpha = [c.draws[:, 0] for c in chains]
    pooled = np.concatenate(alpha)
    assert pooled.shape[0] == 20_000

    mean_se = 0.5 * math.hypot(mcse_mean(alpha[0]), mcse_mean(alpha[1]))
    ess = effective_sample_size(alpha[0]) + effective_sample_size(alpha[1])
    sd = float(np.std(pooled, ddof=1))
    sd_se = sd / math.sqrt(2.0 * ess)

    mean_gap = abs(float(pooled.mean()) - expected_mean)
    sd_gap = abs(sd - expected_sd)
    elapsed = time.perf_counter() - started
    report(
        4,
        "conjugate toy: sampled posterior mean and SD of the intercept "
        "match the closed form within 3 Monte-Carlo SEs (20k draws)",
        mean_gap <= 3.0 * mean_se and sd_gap <= 3.0 * sd_se
        and elapsed < 30.0,
        f"mean gap {mean_gap:.2e} vs 3se {3 * mean_se:.2e}, "
        f"sd gap {sd_gap:.2e} vs 3se {3 * sd_se:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------


def test_criterion_5_parameter_recovery(report, capsys):
    started = time.perf_counter()
    n_params = RECOVERY_SCHEMA.n_parameters
    covered = np.zeros(n_params, dtype=int)
    replicates_converged = 0

    for rep in range(N_REPLICATES):
        dataset = simulate_dataset(recovery_sim_config(rep))
        centered, record = center_covariates(dataset)
        chains = run_mcmc(centered, recovery_mcmc_config(rep), PriorSpec())
        summaries = summarize(chains)

        alpha_centered = RECOVERY_TRUE.alpha + float(
            record.intercept_shift(
                RECOVERY_TRUE.beta, RECOVERY_TRUE.gamma,
                RECOVERY_TRUE.phi, RECOVERY_TRUE.eta,
            )
        )
        targets = np.array([
            alpha_centered, *RECOVERY_TRUE.beta, *RECOVERY_TRUE.gamma,
            *RECOVERY_TRUE.phi, *RECOVERY_TRUE.eta, RECOVERY_TRUE.tau,
        ])
        for j, summary in enumerate(summaries):
            if summary.ci_low <= targets[j] <= summary.ci_high:
                covered[j] += 1
        r_hats = [s.r_hat for s in summaries]
        if max(r_hats) < 1.1:
            replicates_converged += 1
        with capsys.disabled():
            print(
                f"  replicate {rep + 1:2d}/{N_REPLICATES}: "
                f"max r_hat {max(r_hats):.3f}, "
                f"covered {sum(summaries[j].ci_low <= targets[j] <= summaries[j].ci_high for j in range(n_params))}"
                f"/{n_params}",
                flush=True,
            )

    elapsed = time.perf_counter() - started
    names = summaries and [s.name for s in summaries]
    coverage_ok = bool(np.all(covered >= 15))
    detail_cov = ", ".join(
        f"{name}:{count}" for name, count in zip(names, covered)
    )
    report(
        5,
        f"recovery over {N_REPLICATES} replicates of 150 trials: 95% CI "
        "covers each true value in >= 15/20 and all R-hat < 1.1 in >= 18/20",
        coverage_ok and replicates_converged >= 18 and elapsed < 1800.0,
        f"coverage [{detail_cov}], converged {replicates_converged}/20, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------


def test_criterion_6_determinism(report):
    config = SimConfig(
        schema=CovariateSchema(n=2, p=1, q=2, interactions=()),
        params=ParameterVector(
            alpha=-0.02, beta=(0.01, 0.0), gamma=(0.02,), phi=(-0.01,),
            eta=(), tau=0.04,
        ),
        n_trials=20,
        seed=61,
    )
    dataset, _ = center_covariates(simulate_dataset(config))
    mcmc = McmcConfig(chains=3, adapt=500, burn_in=200, samples=600, seed=77)

    first = run_mcmc(dataset, mcmc, PriorSpec())
    second = run_mcmc(dataset, mcmc, PriorSpec())
    # The same three chains, run as the groups {2, 0} and {1}.
    assembled = assemble(dataset)
    regrouped = {
        c.chain_index: c
        for group in ([2, 0], [1])
        for c in run_chain(assembled, mcmc, PriorSpec(), group)
    }
    rerun_ok = all(
        np.array_equal(a.draws, b.draws) and a.seed_used == b.seed_used
        for a, b in zip(first, second)
    )
    grouping_ok = sorted(regrouped) == [0, 1, 2] and all(
        np.array_equal(a.draws, regrouped[k].draws)
        and a.seed_used == regrouped[k].seed_used
        for k, a in enumerate(first)
    )
    report(
        6,
        "identical seeds give bit-identical draws across reruns and across "
        "chain groupings",
        rerun_ok and grouping_ok,
        f"rerun identical: {rerun_ok}, across chain groupings identical: "
        f"{grouping_ok}",
    )


def test_criterion_6_chain_subsets_agree_bitwise():
    # Additive to criterion 6: chains share batched density evaluations,
    # yet chain k's draws depend on (seed, k) alone, never on which chains
    # run with it.
    config = SimConfig(
        schema=CovariateSchema(n=2, p=1, q=2, interactions=()),
        params=ParameterVector(
            alpha=-0.02, beta=(0.01, 0.0), gamma=(0.02,), phi=(-0.01,),
            eta=(), tau=0.04,
        ),
        n_trials=20,
        seed=61,
    )
    dataset, _ = center_covariates(simulate_dataset(config))
    assembled = assemble(dataset)
    mcmc = McmcConfig(chains=4, adapt=500, burn_in=200, samples=600, seed=77)
    full = run_chain(assembled, mcmc, PriorSpec(), range(4))
    pair = dict(zip([1, 3], run_chain(assembled, mcmc, PriorSpec(), [1, 3])))
    for k in range(4):
        [alone] = run_chain(assembled, mcmc, PriorSpec(), [k])
        for other in [full[k]] + ([pair[k]] if k in pair else []):
            assert np.array_equal(alone.draws, other.draws), f"chain {k}"
            assert alone.seed_used == other.seed_used, f"chain {k}"
            assert alone.accept_rate == other.accept_rate, f"chain {k}"


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------


def test_criterion_7_shrink_factor_bounds(report):
    rng = np.random.default_rng(404)
    draws = rng.standard_normal(2_000)
    duplicated = gelman_rubin([draws, draws.copy()])
    disjoint = gelman_rubin([draws, draws + 100.0])
    report(
        7,
        "R-hat of duplicated chains lies in [0.99, 1.01]; disjoint-support "
        "chains exceed 2",
        0.99 <= duplicated <= 1.01 and disjoint > 2.0,
        f"duplicated {duplicated:.6f}, disjoint {disjoint:.2f}",
    )


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------


def test_criterion_8_psd_guardrails(report):
    checked = 0
    failures = 0

    def factorizes(matrix):
        try:
            np.linalg.cholesky(matrix)
            return True
        except np.linalg.LinAlgError:
            return False

    guard_tau = RECOVERY_TRUE.tau
    for rep, control, projection, _a, _c, rho, _f, _g, _r in projection_cases():
        for trial in (control, projection):
            within = build_within_covariance(trial, rho, rho).matrix
            sigma = guard_tau**2 * between_structure(within.shape[0])
            checked += 1
            if not (factorizes(within) and factorizes(within + sigma)):
                failures += 1

    for rep in range(N_REPLICATES):
        dataset = simulate_dataset(recovery_sim_config(rep))
        for trial in dataset.trials:
            within = build_within_covariance(
                trial, dataset.base_rho_y, dataset.base_rho_d
            ).matrix
            sigma = guard_tau**2 * between_structure(within.shape[0])
            checked += 1
            if not (factorizes(within) and factorizes(within + sigma)):
                failures += 1

    corrupted = grid_trial(
        "bad", "control", [arm("a", (1.0, 0.0, 0.0)), arm("b", (0.0, 1.0, 0.0))],
        categories=(1,), z=(0.0,), v=0.01,
        ref_change_var={1: 0.02},  # exceeds every observation variance
    )
    violations = validate_trial(corrupted, PROJECTION_SCHEMA)
    rejected = any("exceeds" in v for v in violations)

    report(
        8,
        "every V and V + Sigma from criteria 2 and 5 factorizes; a trial "
        "with ref_change_var above min(v) is rejected at validation",
        failures == 0 and rejected,
        f"{checked} covariance pairs checked, {failures} failures, "
        f"corrupted trial rejected: {rejected}",
    )
