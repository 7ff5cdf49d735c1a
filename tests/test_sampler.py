"""Posterior density pieces and the adaptive Metropolis sampler."""

import dataclasses
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import featmeta.diagnostics as diagnostics
import featmeta.posterior as posterior
import featmeta.sampler as sampler
from featmeta import (
    ChainOutput,
    CovarianceError,
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
    save_dataset,
    simulate_dataset,
    trial_design_matrix,
    validate_dataset,
)
from featmeta.cli import main

import reference
from conftest import arm, build_basic_dataset, build_basic_schema, grid_trial
from reference import (
    conditional_coefficients,
    fixed_effects,
    log_likelihood_latent,
    log_likelihood_marginal_direct,
    log_prior,
    mcse_mean,
    mvn_logpdf,
    reference_assemble,
    reference_run_chain,
)


def scalar_schema():
    return CovariateSchema(n=1, p=0, q=1, interactions=())


def scalar_trial(trial_id, y, v=0.01, x=(1.0,), comparison="control"):
    arms = [arm("a", x)]
    if comparison == "active":
        arms = [arm("ref", (0.0,) * len(x)), arm("a", x)]
    return grid_trial(
        trial_id, comparison, arms, categories=(1,), v=v, y=y,
        reference_arm="ref" if comparison == "active" else None,
    )


def scalar_dataset(trials):
    return Dataset(
        schema=scalar_schema(), trials=tuple(trials),
        base_rho_y=0.8, base_rho_d=0.64,
    )


def basic_params(schema, coeffs=None, tau=0.1):
    values = np.zeros(schema.n_parameters)
    if coeffs is not None:
        values[: len(coeffs)] = coeffs
    values[-1] = tau
    return ParameterVector.from_array(values, schema)


# ---------------------------------------------------------------------------
# log_prior
# ---------------------------------------------------------------------------


def test_prior_tau_outside_support_is_minus_inf():
    schema = build_basic_schema()
    prior = PriorSpec()
    assert log_prior(basic_params(schema, tau=6.0), prior) == -math.inf
    assert log_prior(basic_params(schema, tau=0.0), prior) == -math.inf
    assert log_prior(basic_params(schema, tau=-1.0), prior) == -math.inf


def test_prior_closed_form_at_zero_coefficients():
    schema = build_basic_schema()
    n_coeff = schema.n_parameters - 1
    expected = n_coeff * (-0.5 * math.log(2 * math.pi * 100.0**2)) + math.log(
        1.0 / 5.0
    )
    assert log_prior(basic_params(schema, tau=1.0), PriorSpec()) == pytest.approx(
        expected, rel=1e-12
    )


def test_prior_flat_in_tau_inside_support():
    schema = build_basic_schema()
    coeffs = 0.3 * np.ones(schema.n_parameters - 1)
    a = log_prior(basic_params(schema, coeffs, tau=2.5), PriorSpec())
    b = log_prior(basic_params(schema, coeffs, tau=1.0), PriorSpec())
    assert a == b


def test_prior_gaussian_part_quadratic_in_coefficient():
    schema = scalar_schema()
    prior = PriorSpec(coeff_sd=2.0, tau_upper=5.0)
    base = log_prior(basic_params(schema, [0.0, 0.0], tau=1.0), prior)
    moved = log_prior(basic_params(schema, [2.0, 0.0], tau=1.0), prior)
    assert base - moved == pytest.approx(0.5 * (2.0 / 2.0) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# marginal likelihood
# ---------------------------------------------------------------------------


def test_marginal_tau_zero_reduces_to_scalar_normal():
    data = scalar_dataset([scalar_trial("t1", y=0.02)])
    params = basic_params(scalar_schema(), tau=0.0)
    expected = -0.5 * (math.log(2 * math.pi * 0.01) + 0.02**2 / 0.01)
    assert log_likelihood_marginal(data, params) == pytest.approx(
        expected, rel=1e-12
    )


def test_marginal_nonzero_theta_and_tau_scalar_case():
    # dim-1: y ~ N(alpha + beta, v + tau^2) exactly.
    data = scalar_dataset([scalar_trial("t1", y=0.05, v=0.004)])
    params = ParameterVector(
        alpha=0.01, beta=(0.02,), gamma=(), phi=(), eta=(), tau=0.3
    )
    var = 0.004 + 0.3**2
    expected = -0.5 * (math.log(2 * math.pi * var) + (0.05 - 0.03) ** 2 / var)
    assert log_likelihood_marginal(data, params) == pytest.approx(
        expected, rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(-0.5, 0.5, allow_nan=False), min_size=7, max_size=7
    ),
    tau=st.floats(0.001, 1.0, allow_nan=False),
)
def test_marginal_matches_direct_cholesky_route(coeffs, tau):
    dataset = build_basic_dataset()
    params = basic_params(dataset.schema, coeffs, tau=tau)
    fast = log_likelihood_marginal(dataset, params)
    direct = log_likelihood_marginal_direct(dataset, params)
    assert fast == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_marginal_accepts_preassembled_dataset():
    dataset = build_basic_dataset()
    params = basic_params(dataset.schema, tau=0.2)
    assert log_likelihood_marginal(
        assemble(dataset), params
    ) == log_likelihood_marginal(dataset, params)


def test_duplicating_trials_doubles_marginal():
    dataset = build_basic_dataset()
    doubled = Dataset(
        schema=dataset.schema,
        trials=dataset.trials + dataset.trials,
        base_rho_y=dataset.base_rho_y,
        base_rho_d=dataset.base_rho_d,
        centering=dataset.centering,
    )
    params = basic_params(dataset.schema, 0.05 * np.ones(7), tau=0.15)
    one = log_likelihood_marginal(dataset, params)
    two = log_likelihood_marginal(doubled, params)
    assert two == pytest.approx(2.0 * one, rel=1e-10)


def test_marginal_continuous_at_tau_zero():
    dataset = build_basic_dataset()
    at_zero = log_likelihood_marginal(dataset, basic_params(dataset.schema, tau=0.0))
    near_zero = log_likelihood_marginal(
        dataset, basic_params(dataset.schema, tau=1e-8)
    )
    assert near_zero == pytest.approx(at_zero, abs=1e-6)


def test_active_only_dataset_constant_in_alpha_gamma_phi():
    # Differencing cancels intercept, study covariates, and follow-up
    # terms, so the likelihood must not move at all.
    schema = build_basic_schema()
    trial = grid_trial(
        "a1", "active",
        [arm("ref", (0.0, 1.0)), arm("k", (1.0, 1.0)), arm("m", (1.0, 0.0))],
        categories=(1, 2), z=(0.7,), v=0.01, y=0.03,
        reference_arm="ref", ref_change_var={1: 0.004, 2: 0.004},
    )
    data = Dataset(schema=schema, trials=(trial,), base_rho_y=0.8, base_rho_d=0.64)
    beta = (0.1, -0.2)
    eta = (0.05,)
    base = log_likelihood_marginal(
        data,
        ParameterVector(0.0, beta, (0.0,), (0.0, 0.0), eta, tau=0.1),
    )
    moved = log_likelihood_marginal(
        data,
        ParameterVector(3.0, beta, (-2.0,), (1.5, -4.0), eta, tau=0.1),
    )
    assert moved == base  # exact: the design columns are identically zero


# ---------------------------------------------------------------------------
# latent likelihood
# ---------------------------------------------------------------------------


def test_latent_scalar_formula_at_mode():
    v, tau = 0.01, 0.2
    y = 0.04
    data = scalar_dataset([scalar_trial("t1", y=y, v=v)])
    params = ParameterVector(
        alpha=y, beta=(0.0,), gamma=(), phi=(), eta=(), tau=tau
    )
    # y = delta = theta: both layers sit at their modes.
    value = log_likelihood_latent(data, params, np.array([y]))
    expected = -0.5 * math.log(2 * math.pi * v) - 0.5 * math.log(
        2 * math.pi * tau**2
    )
    assert value == pytest.approx(expected, rel=1e-12)


def test_latent_decomposes_at_delta_equal_theta():
    dataset = build_basic_dataset()
    params = basic_params(dataset.schema, 0.02 * np.ones(7), tau=0.12)
    deltas = [
        fixed_effects(params, trial, dataset.schema, dataset.centering)
        for trial in dataset.trials
    ]
    value = log_likelihood_latent(dataset, params, deltas)
    expected = 0.0
    for trial, delta in zip(dataset.trials, deltas):
        within = build_within_covariance(
            trial, dataset.base_rho_y, dataset.base_rho_d
        ).matrix
        dim = within.shape[0]
        sigma = params.tau**2 * between_structure(dim)
        expected += mvn_logpdf(trial.y_vector(), delta, within)
        expected += mvn_logpdf(delta, delta, sigma)
    assert value == pytest.approx(expected, rel=1e-10)


def test_latent_accepts_stacked_vector():
    dataset = build_basic_dataset()
    params = basic_params(dataset.schema, tau=0.1)
    per_trial = [trial.y_vector() for trial in dataset.trials]
    stacked = np.concatenate(per_trial)
    assert log_likelihood_latent(dataset, params, per_trial) == pytest.approx(
        log_likelihood_latent(dataset, params, stacked), rel=1e-12
    )


def test_latent_rejects_tau_zero():
    dataset = build_basic_dataset()
    params = basic_params(dataset.schema, tau=0.0)
    deltas = [trial.y_vector() for trial in dataset.trials]
    with pytest.raises(CovarianceError, match="tau"):
        log_likelihood_latent(dataset, params, deltas)


def test_latent_rejects_wrong_delta_shape():
    dataset = build_basic_dataset()
    params = basic_params(dataset.schema, tau=0.1)
    bad = [np.zeros(99) for _ in dataset.trials]
    with pytest.raises(ValueError, match="shape"):
        log_likelihood_latent(dataset, params, bad)


def test_latent_quadrature_matches_marginal_dim_one():
    # Integrate the latent density over delta on a 1-dimensional trial
    # and compare with the closed-form marginal.
    quad = pytest.importorskip("scipy.integrate")
    data = scalar_dataset([scalar_trial("t1", y=0.03, v=0.008)])
    params = ParameterVector(
        alpha=0.01, beta=(0.005,), gamma=(), phi=(), eta=(), tau=0.15
    )

    def integrand(delta):
        return math.exp(log_likelihood_latent(data, params, np.array([delta])))

    integral, _ = quad.quad(integrand, -2.0, 2.0, epsabs=1e-13, epsrel=1e-11)
    assert math.log(integral) == pytest.approx(
        log_likelihood_marginal(data, params), abs=1e-6
    )


def test_latent_factors_into_delta_conditional_and_marginal():
    # For every delta, p(y, delta | c, tau) = p(delta | y, c, tau) p(y | c, tau)
    # with delta_i | y, c, tau ~ N(m_i, C_i), C_i = (V_i^-1 + (tau^2 S_i)^-1)^-1
    # and m_i = C_i (V_i^-1 y_i + (tau^2 S_i)^-1 X_i c). The basic dataset
    # has multi-arm, multi-follow-up trials of dimension 4, 3 and 2.
    dataset = build_basic_dataset()
    assert [t.dimension for t in dataset.trials] == [4, 3, 2]
    rng = np.random.default_rng(41)
    for _ in range(6):
        params = basic_params(
            dataset.schema, rng.normal(0.0, 0.2, size=7),
            tau=float(rng.uniform(0.05, 0.6)),
        )
        deltas = [
            t.y_vector() + rng.normal(0.0, 0.2, size=t.dimension)
            for t in dataset.trials
        ]
        conditional = 0.0
        for trial, delta in zip(dataset.trials, deltas):
            within = build_within_covariance(
                trial, dataset.base_rho_y, dataset.base_rho_d
            ).matrix
            prec_v = np.linalg.inv(within)
            prec_h = np.linalg.inv(
                params.tau**2 * between_structure(trial.dimension)
            )
            cov = np.linalg.inv(prec_v + prec_h)
            theta = trial_design_matrix(dataset.schema, trial) @ (
                params.coefficients()
            )
            mean = cov @ (prec_v @ trial.y_vector() + prec_h @ theta)
            conditional += mvn_logpdf(delta, mean, cov)
        joint = log_likelihood_latent(dataset, params, deltas)
        assert joint - conditional == pytest.approx(
            log_likelihood_marginal(dataset, params), rel=1e-9
        )


def singular_within_dataset():
    # Two arms at one follow-up with ref_change_var == v: V = [[v, v], [v, v]].
    trial = grid_trial(
        "s1", "control", [arm("a", (1.0, 0.0)), arm("b", (0.0, 1.0))],
        categories=(1,), z=(0.2,), v=0.01,
        y={("a", 1): 0.03, ("b", 1): -0.01}, ref_change_var={1: 0.01},
    )
    return Dataset(
        schema=build_basic_schema(), trials=(trial,),
        base_rho_y=0.8, base_rho_d=0.64,
    )


def test_singular_within_covariance_marginal_matches_direct():
    dataset = singular_within_dataset()
    [trial] = dataset.trials
    within = build_within_covariance(trial, 0.8, 0.64).matrix
    assert np.array_equal(within, np.full((2, 2), 0.01))
    assert validate_dataset(dataset) == []
    assembled = assemble(dataset)
    assert np.all(assembled.stacked_eigenvalues >= 0.0)
    for tau in (0.05, 0.1, 0.7):
        params = basic_params(dataset.schema, 0.03 * np.ones(7), tau=tau)
        assert log_likelihood_marginal(assembled, params) == pytest.approx(
            log_likelihood_marginal_direct(dataset, params), rel=1e-12
        )


def test_singular_within_covariance_is_minus_inf_at_tau_zero():
    # The zero eigenvalue of V = [[v, v], [v, v]] comes out of eigh as
    # rounding noise; assemble sets it to 0 and counts it, so the density
    # at tau = 0 is -inf, not a huge finite number.
    dataset = singular_within_dataset()
    assembled = assemble(dataset)
    assert assembled.zeroed_eigenvalues == 1
    assert np.count_nonzero(assembled.stacked_eigenvalues == 0.0) == 1
    params = basic_params(dataset.schema, 0.03 * np.ones(7), tau=0.0)
    assert log_likelihood_marginal(assembled, params) == -math.inf
    for tau in (0.01, 0.05):
        params = basic_params(dataset.schema, 0.03 * np.ones(7), tau=tau)
        assert log_likelihood_marginal(assembled, params) == pytest.approx(
            log_likelihood_marginal_direct(dataset, params), rel=1e-12
        )
    # tau = exp(-400) lies inside the support, but tau^2 underflows to 0.
    log_post = sampler._Evaluator(
        assembled, PriorSpec(), posterior.precondition(assembled, PriorSpec())
    )
    coeffs = 0.03 * np.ones(7)
    with np.errstate(all="ignore"):  # as in run_chain
        assert log_post(np.append(coeffs, -400.0)) == -math.inf
        assert math.isfinite(log_post(np.append(coeffs, math.log(0.05))))
    f = posterior._Collapsed(assembled, PriorSpec()).moments([-3.0, 0.0])[0]
    assert np.all(np.isfinite(f))


def test_regular_datasets_zero_no_eigenvalue():
    assert assemble(build_basic_dataset()).zeroed_eigenvalues == 0
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    assert assemble(centered).zeroed_eigenvalues == 0


def test_singular_within_covariance_has_no_latent_density():
    dataset = singular_within_dataset()
    params = basic_params(dataset.schema, tau=0.1)
    [trial] = dataset.trials
    with pytest.raises(CovarianceError, match="not positive definite"):
        log_likelihood_latent(dataset, params, [trial.y_vector()])


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def recovery_sim_config(seed):
    """A 150-trial dataset of the recovery schema (3 follow-ups, 2
    interactions, up to 3 coded arms), as in the benchmark's inputs."""
    schema = CovariateSchema(
        n=4, p=1, q=3,
        interactions=(
            (Factor("intervention", 0), Factor("study", 0)),
            (Factor("intervention", 1), Factor("followup", 0)),
        ),
    )
    truth = ParameterVector(
        alpha=-0.04, beta=(0.004, 0.01, -0.02, 0.003), gamma=(-0.035,),
        phi=(-0.0085, -0.007), eta=(0.089, 0.04), tau=0.05,
    )
    return SimConfig(
        schema=schema, params=truth, n_trials=150, seed=seed,
        control_fraction=0.5, max_coded_arms=3,
    )


def assembled_digest(assembled):
    digest = hashlib.sha256()
    for array in (
        assembled.stacked_y,
        assembled.stacked_design,
        assembled.stacked_eigenvalues,
    ):
        digest.update(array.tobytes())
    return digest.hexdigest(), assembled.log_density_const.hex()


# The stacked arrays of the two centered 150-trial datasets (generator
# seeds 1000 and 1001) as assembled with S factored once per trial
# (numpy 2.4, x86-64); factoring once per dimension must keep every bit.
ASSEMBLED_DIGESTS = {
    1000: (
        "684cd10e7838b5173849baa77582ca947f2b80557f5cb3c703ba4df9fc328f8c",
        "0x1.6e016b0f81743p+9",
    ),
    1001: (
        "d40ffc082ea916691aada567348ab684f8503d0f6f8a0a9a4d1bd4ea2b16429a",
        "0x1.938128f46a235p+9",
    ),
}


@pytest.mark.parametrize("seed", sorted(ASSEMBLED_DIGESTS))
def test_assemble_keeps_every_bit_of_the_stacked_arrays(seed):
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(seed)))
    assembled = assemble(centered)
    want = reference_assemble(centered)
    for name in ("stacked_y", "stacked_design", "stacked_eigenvalues"):
        got = getattr(assembled, name)
        assert np.array_equal(
            got.view(np.int64), getattr(want, name).view(np.int64)
        ), name
    assert assembled.log_density_const == want.log_density_const
    assert assembled_digest(assembled) == ASSEMBLED_DIGESTS[seed]


# SHA-256 of the benchmark's seed-1 input files, as perfbench/inputs.py
# writes them (sim_config, then save_dataset), taken before the
# simulator was batched by dimension: the generator must keep every byte.
# fit150's two datasets share their generator settings with recovery's
# first two.
INPUT_DIGESTS = {
    ("fit150", 0): "cad77f3ed5a0c0510aa5ab887e5feef1971e03d77a85bcb8c8c336863ac42149",
    ("fit150", 1): "36f16e2d9c61631bb2ed7c2708f1d76cc941b85615c510eec96b21b15ae075e1",
    ("recovery", 0): "cad77f3ed5a0c0510aa5ab887e5feef1971e03d77a85bcb8c8c336863ac42149",
    ("recovery", 1): "36f16e2d9c61631bb2ed7c2708f1d76cc941b85615c510eec96b21b15ae075e1",
    ("recovery", 2): "5791c7dee582c16038a782e097bea940597027b1d4d49444e9efdd3278e19ff7",
    ("recovery", 3): "35b207477ee1578428b5ec03841e824b5a613852028e488e245ee1cbc5b56bb3",
    ("recovery", 4): "1cb7195ac8fc1639f9599d0dd7fa7093fec4e0aa717404d8a6a367a33360027c",
    ("recovery", 5): "4ccdf72dd41d5677f48953df20a373cdcdafa2e432c0214e4d6883cf2762dd9c",
}


def save_benchmark_input(path, workload, index):
    """Write seed-1 dataset ``index`` of a workload as perfbench/inputs.py
    does."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from inputs import sim_config
    finally:
        sys.path.pop(0)
    save_dataset(simulate_dataset(sim_config(workload, 1, index)), path)


@pytest.mark.parametrize("workload, index", sorted(INPUT_DIGESTS))
def test_benchmark_inputs_keep_every_byte(tmp_path, workload, index):
    path = tmp_path / "data.json"
    save_benchmark_input(path, workload, index)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == INPUT_DIGESTS[workload, index]


# SHA-256 of every file that `featmeta fit --seed 1 --adapt 2000
# --burn-in 2000 --samples 5000` writes for fit150's seed-1 data0
# (numpy 2.4, x86-64), manifest.json without its line of the absolute
# `data` path. A change that alters the draws must update them and say
# so in CHANGES.md.
RUN_DIGESTS = {
    "chains/chain_1.npz": "dc95e3fafb4491b0c661ad3e4b81f390c7539717440e46e90c36463b6438c510",
    "chains/chain_1.tsv": "b71009f5f4f151dba41194a7e5e716e4324058d0913dc6d47c0474978302c028",
    "chains/chain_2.npz": "080273c9e82472584832d6ec98df0c5619ce5a29568f53b325c8a1cd33b8ec38",
    "chains/chain_2.tsv": "a5517df3690f686f0d0423c3356a64351d60e8c7ebdac3f5cf8da903a9d82d03",
    "chains/chain_3.npz": "1641ab742b25a8d1b396c953826d2eb9e16d8f7e2cedb7be4332eeb82b4d2ec0",
    "chains/chain_3.tsv": "dc9c72e3145ba08544951973a991f8d3b376e990fce36566e7c9cbd87b5483df",
    "chains/chain_4.npz": "459773ccc298a5d47e9d197928e0e7aebf9fa3e46ad25f1aa551497762aff77e",
    "chains/chain_4.tsv": "0407bd0dbf5bfe92a06a628ebef2287109f8cc8cb52a4c3c380a56a94d8ca2d8",
    "manifest.json": "901464b99d7398857fdb7c3ed28ded02f33cc19800189bb7d30f25782488c757",
    "rhat_trace.tsv": "f7db5b1e4d6fc312feb24a9685329ef061a7bf4690098728b74f6c4d70d9cb51",
    "summary.tsv": "1297390199a3f1e2e2a3a8a1024f6362ab2c3fcccad559e4ade002ce4e97c12b",
}


@pytest.fixture(scope="module")
def fit150_run(tmp_path_factory):
    """The run directory that RUN_DIGESTS pin, written once per module;
    a test that changes it works on a copy."""
    root = tmp_path_factory.mktemp("fit150")
    data, out = root / "data.json", root / "run"
    save_benchmark_input(data, "fit150", 0)
    assert main([
        "fit", "--data", str(data), "--out", str(out), "--seed", "1",
        "--adapt", "2000", "--burn-in", "2000", "--samples", "5000",
    ]) == 0
    return out


def run_digests(out):
    digests = {}
    for path in out.rglob("*.*"):
        content = path.read_bytes()
        if path.name == "manifest.json":
            content = b"".join(
                line for line in content.splitlines(keepends=True)
                if not line.startswith(b'  "data": ')
            )
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(
            content
        ).hexdigest()
    return digests


def test_fit_run_directory_keeps_every_byte(fit150_run):
    assert run_digests(fit150_run) == RUN_DIGESTS


def test_diagnose_of_the_fit_run_directory_keeps_every_byte(
    fit150_run, tmp_path, monkeypatch, capsys
):
    # Every copy holds its chain's trace moments, so diagnose computes
    # none from the draws, and writes the fit's bytes.
    out = tmp_path / "run"
    shutil.copytree(fit150_run, out)

    def computed(*args):
        raise AssertionError("trace moments computed from the draws")

    monkeypatch.setattr(diagnostics, "_prefix_moments", computed)
    assert main(["diagnose", "--run", str(out)]) == 0
    capsys.readouterr()
    assert run_digests(out) == RUN_DIGESTS


# RUN_DIGESTS hold at two BLAS threads, and the draws differ at one,
# which is what perfbench/run.py runs at. So this pins one thread too:
# the SHA-256 of the four chains' draws of `run_chain` at the paper's
# default protocol, seed 1000, on fit150's seed-1 data0, centered
# (numpy 2.4, x86-64, OpenBLAS at one thread).
ONE_THREAD_DRAWS = "b080d676103325548e6a8c26d0a5382c3fa2fb8733e7c812566bf5f56b1247dc"
ONE_THREAD_SCRIPT = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
from inputs import sim_config
from featmeta import (
    McmcConfig, PriorSpec, assemble, center_covariates, run_chain,
    simulate_dataset,
)
centered, _ = center_covariates(simulate_dataset(sim_config("fit150", 1, 0)))
digest = hashlib.sha256()
for chain in run_chain(
    assemble(centered), McmcConfig(seed=1000), PriorSpec(), range(4)
):
    digest.update(chain.draws.tobytes())
print(digest.hexdigest())
"""


def test_run_chain_keeps_every_byte_at_one_blas_thread():
    # A fresh interpreter, since BLAS reads its thread count at load.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    result = subprocess.run(
        [
            sys.executable, "-c", ONE_THREAD_SCRIPT,
            str(root / "src"), str(root / "perfbench"),
        ],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ONE_THREAD_DRAWS


# ---------------------------------------------------------------------------
# the collapsed density of log(tau) and the proposal built on it
# ---------------------------------------------------------------------------


def log_conditional_density(c, mean, precision):
    """log N(c; mean, precision^-1)."""
    resid = c - mean
    _, log_det = np.linalg.slogdet(precision)
    return -0.5 * (
        c.size * math.log(2.0 * math.pi) - log_det + resid @ precision @ resid
    )


@pytest.mark.parametrize("which", ["basic", "recovery"])
def test_collapsed_density_matches_the_dense_identity(which):
    # log p(tau | y) = log p(y | c, tau) + log p(c) - log p(c | tau, y)
    # + const at any c; f adds the Jacobian u = log tau. Differences of f
    # between tau pairs must match the right side at two different c.
    if which == "basic":
        dataset = centered_basic_dataset()
    else:
        dataset, _ = center_covariates(
            simulate_dataset(recovery_sim_config(1000))
        )
    prior = PriorSpec()
    assembled = assemble(dataset)
    k = assembled.n_coefficients
    rng = np.random.default_rng(7)
    taus = np.exp(rng.uniform(math.log(0.01), math.log(1.0), size=6))
    f, means, _ = posterior._Collapsed(assembled, prior).moments(np.log(taus))
    coeffs = [rng.normal(0.0, 0.05, size=k) for _ in range(2)]
    rights = []
    for c in coeffs:
        right = []
        for i, tau in enumerate(taus):
            mean, precision = conditional_coefficients(
                dataset, float(tau), prior.coeff_sd
            )
            np.testing.assert_allclose(means[i], mean, rtol=1e-8, atol=1e-12)
            params = ParameterVector.from_array(np.append(c, tau), dataset.schema)
            right.append(
                log_likelihood_marginal_direct(dataset, params)
                + log_prior(params, prior)
                - log_conditional_density(c, mean, precision)
            )
        rights.append(np.array(right))
    for i, j in [(0, 1), (2, 3), (4, 5), (1, 4)]:
        want = f[i] - f[j] - (math.log(taus[i]) - math.log(taus[j]))
        for right in rights:
            assert want == pytest.approx(right[i] - right[j], abs=1e-9)


def test_collapsed_density_alone_equals_that_of_the_moments():
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    assembled = assemble(centered)
    assembled.stacked_eigenvalues[0] = -0.2  # -inf below tau^2 = 0.2
    collapsed = posterior._Collapsed(assembled, PriorSpec())
    u = np.linspace(-6.0, 1.5, 2 * collapsed.per_u + 3)  # three blocks
    f, mean, lower = collapsed.moments(u)
    bad = f == -math.inf
    assert 0 < bad.sum() < u.size
    assert np.isnan(mean[bad]).all() and np.isnan(lower[bad]).all()
    assert np.isfinite(mean[~bad]).all() and np.isfinite(lower[~bad]).all()


def test_preconditioner_sits_at_a_local_maximum_of_f():
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    prior = PriorSpec()
    assembled = assemble(centered)
    pre = posterior.precondition(assembled, prior)
    mode = math.log(pre.tau_mode)
    collapsed = posterior._Collapsed(assembled, prior)
    f = collapsed.moments(mode + np.array([-1e-3, 0.0, 1e-3]))[0]
    assert f[1] >= f[0] and f[1] >= f[2]
    assert 0.0 < pre.log_tau_sd < 1.0
    # The factor reproduces the stated covariance, rebuilt from the dense
    # conditional moments: Lambda^-1 + s^2 g g', s^2 g and s^2. The
    # parabola through the dense f at the best grid node and its two
    # neighbours gives the mode and s, and g is the slope at the mode of
    # the parabola through the dense conditional means at those nodes.
    grid = posterior._tau_grid(collapsed, prior)
    nodes, values = grid.nodes, grid.log_density
    assert np.array_equal(pre.grid.nodes, nodes)
    best = int(np.argmax(values))
    assert 0 < best < nodes.size - 1
    around = nodes[best - 1 : best + 2]
    left, peak, right = (dense_collapsed_density(centered, u, prior) for u in around)
    h = 0.5 * (around[2] - around[0])
    second = left - 2.0 * peak + right
    offset = 0.5 * (left - right) / second
    assert mode == pytest.approx(around[1] + offset * h, abs=1e-6 * h)
    s2 = h * h / -second
    below, at, above = (
        conditional_coefficients(centered, math.exp(u), 100.0)[0] for u in around
    )
    g = ((above - below) / 2.0 + offset * (above - 2.0 * at + below)) / h
    _, precision = conditional_coefficients(centered, pre.tau_mode, 100.0)
    k = assembled.n_coefficients
    sigma = np.empty((k + 1, k + 1))
    sigma[:k, :k] = np.linalg.inv(precision) + s2 * np.outer(g, g)
    sigma[:k, k] = sigma[k, :k] = s2 * g
    sigma[k, k] = s2
    np.testing.assert_allclose(
        pre.factor @ pre.factor.T, sigma, rtol=1e-6, atol=1e-12
    )
    assert np.array_equal(pre.factor, np.tril(pre.factor))
    assert pre.condition_number == pytest.approx(np.linalg.cond(sigma), rel=1e-6)
    np.testing.assert_allclose(
        pre.conditional_sd, np.sqrt(np.diag(np.linalg.inv(precision))),
        rtol=1e-9,
    )


def dense_collapsed_density(dataset, u, prior):
    """f(u) up to a constant by the dense identity of
    ``test_collapsed_density_matches_the_dense_identity``, at the
    conditional mean of c."""
    tau = math.exp(u)
    mean, precision = conditional_coefficients(dataset, tau, prior.coeff_sd)
    params = ParameterVector.from_array(np.append(mean, tau), dataset.schema)
    return (
        log_likelihood_marginal_direct(dataset, params)
        + log_prior(params, prior)
        - log_conditional_density(mean, mean, precision)
        + u
    )


@pytest.mark.parametrize("which", ["basic", "recovery"])
def test_preconditioner_matches_an_independent_search_of_f(which):
    # The tolerances were fixed before the first run: the mode within
    # 0.01 of the reference s, s within 1 % and g within 1 % of the
    # largest entry of the reference g.
    from scipy.optimize import minimize_scalar

    if which == "basic":
        dataset = centered_basic_dataset()
    else:
        dataset, _ = center_covariates(
            simulate_dataset(recovery_sim_config(1000))
        )
    prior = PriorSpec()
    assembled = assemble(dataset)
    collapsed = posterior._Collapsed(assembled, prior)
    top = math.log(prior.tau_upper)
    ref = minimize_scalar(
        lambda u: -collapsed.moments([u])[0][0],
        bounds=(top - 12.0, top), method="bounded", options={"xatol": 1e-10},
    ).x
    h = 1e-3
    f = collapsed.moments(ref + h * np.array([-1.0, 0.0, 1.0]))[0]
    s_ref = h / math.sqrt(-(f[0] - 2.0 * f[1] + f[2]))
    lower, _ = conditional_coefficients(dataset, math.exp(ref - h), prior.coeff_sd)
    upper, _ = conditional_coefficients(dataset, math.exp(ref + h), prior.coeff_sd)
    g_ref = (upper - lower) / (2.0 * h)

    pre = posterior.precondition(assembled, prior)
    k = assembled.n_coefficients
    sigma = pre.factor @ pre.factor.T
    g = sigma[:k, k] / sigma[k, k]  # Sigma_cu / Sigma_uu
    assert abs(math.log(pre.tau_mode) - ref) <= 0.01 * s_ref
    assert abs(pre.log_tau_sd / s_ref - 1.0) <= 0.01
    assert np.max(np.abs(g - g_ref)) <= 0.01 * np.max(np.abs(g_ref))


def test_preconditioner_mean_is_the_conditional_mean_at_the_mode():
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    pre = posterior.precondition(assemble(centered), PriorSpec())
    want, _ = conditional_coefficients(centered, pre.tau_mode, 100.0)
    np.testing.assert_allclose(pre.mean[:-1], want, rtol=1e-8, atol=1e-12)
    assert pre.mean[-1] == math.log(pre.tau_mode)


def test_preconditioner_falls_back_to_unit_log_tau_sd_at_the_bracket_edge():
    # Criterion 4's toy: tau_upper = 1e-6 makes the posterior of log(tau)
    # proportional to tau, so f rises up to the top of the bracket.
    schema = CovariateSchema(n=0, p=0, q=1, interactions=())
    trial = grid_trial("toy", "control", [arm("a", ())],
                       categories=(1,), v=0.005, y=0.03)
    dataset = Dataset(schema=schema, trials=(trial,), base_rho_y=0.8,
                      base_rho_d=0.64)
    pre = posterior.precondition(
        assemble(dataset), PriorSpec(coeff_sd=1e8, tau_upper=1e-6)
    )
    assert pre.log_tau_sd == 1.0
    assert pre.tau_mode == pytest.approx(1e-6)
    assert pre.conditional_sd[0] == pytest.approx(math.sqrt(0.005), rel=1e-6)


def test_preconditioner_survives_nan_densities():
    # With an eigenvalue of -0.2, f is NaN for tau^2 < 0.2: the mode sits
    # on the edge of the region where f is finite, and the factor stays
    # finite.
    assembled = assemble(centered_basic_dataset())
    assembled.stacked_eigenvalues[0] = -0.2
    pre = posterior.precondition(assembled, PriorSpec())
    assert np.all(np.isfinite(pre.factor))
    assert pre.tau_mode**2 > 0.2
    assert pre.log_tau_sd == 1.0
    f = posterior._Collapsed(assembled, PriorSpec()).moments(
        [math.log(0.3), math.log(0.5)]
    )[0]
    assert f[0] == -math.inf and math.isfinite(f[1])


def test_preconditioner_refuses_a_density_finite_nowhere():
    assembled = assemble(centered_basic_dataset())
    assembled.stacked_eigenvalues[0] = -30.0  # NaN below tau^2 = 30 > 5^2
    with pytest.raises(posterior.SamplerError, match="not finite anywhere"):
        posterior.precondition(assembled, PriorSpec())


def with_scaled_outcomes(dataset, k):
    """The dataset with every outcome times k and every variance times
    k^2, whose posterior of tau is that of the dataset times k."""
    def trial(t):
        observations = tuple(
            dataclasses.replace(o, y=o.y * k, v=o.v * k * k)
            for o in t.observations
        )
        variances = None if t.ref_change_var is None else {
            c: v * k * k for c, v in t.ref_change_var.items()
        }
        return dataclasses.replace(
            t, observations=observations, ref_change_var=variances
        )

    return dataclasses.replace(
        dataset, trials=tuple(trial(t) for t in dataset.trials)
    )


@pytest.mark.parametrize("tau_upper, k", [
    (1e12, 1.0), (1e20, 1.0), (1e200, 1.0), (5.0, 1e-14),
])
def test_preconditioner_finds_a_posterior_far_below_tau_upper(tau_upper, k):
    # The bulk of f lies more than LOG_TAU_SPAN below log tau_upper, or
    # f is not finite at the top of the scan (tau^2 overflows at 1e200).
    # The approximation must match that of tau_upper = 5 on the
    # unscaled outcomes, its mode moved by log k: within 0.01 s for the
    # mode and 1 % for s. The bounds were fixed before the first run.
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    want = posterior.precondition(assemble(centered), PriorSpec())
    got = posterior.precondition(
        assemble(with_scaled_outcomes(centered, k)),
        PriorSpec(tau_upper=tau_upper),
    )
    s = want.log_tau_sd
    assert s < 1.0
    shift = math.log(got.tau_mode) - math.log(want.tau_mode) - math.log(k)
    assert abs(shift) <= 0.01 * s
    assert got.log_tau_sd == pytest.approx(s, rel=0.01)


def test_unadapted_chain_keeps_the_initial_scale():
    assembled = assemble(centered_basic_dataset())
    config = small_config(adapt=0, burn_in=0, samples=50)
    [chain] = run_chain(assembled, config, PriorSpec(), [0])
    dim = assembled.n_parameters
    assert chain.proposal_log_scale == math.log(2.38 / math.sqrt(dim))


def with_constant_feature(dataset, j):
    """The dataset with intervention feature j set to 1 in every arm."""
    def constant(arm_):
        x = list(arm_.x)
        x[j] = 1.0
        return dataclasses.replace(arm_, x=tuple(x))

    return dataclasses.replace(dataset, trials=tuple(
        dataclasses.replace(t, arms=tuple(constant(a) for a in t.arms))
        for t in dataset.trials
    ))


def test_feature_that_never_varies_is_reported_weakly_identified():
    raw = with_constant_feature(simulate_dataset(recovery_sim_config(1000)), 3)
    centered, _ = center_covariates(raw)
    config = small_config(adapt=100, burn_in=0, samples=50)
    with pytest.warns(UserWarning, match="weakly identified coefficient.*beta_4"):
        run = sampler.sample_posterior(centered, config, PriorSpec())
    assert run.weak_coefficients == ("beta_4",)
    assert run.preconditioner.conditional_sd[4] == pytest.approx(100.0)


def test_recovery_schema_raises_no_identifiability_warning(recwarn):
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    config = small_config(adapt=100, burn_in=0, samples=50)
    run = sampler.sample_posterior(centered, config, PriorSpec())
    assert run.weak_coefficients == ()
    assert run.zeroed_eigenvalues == 0
    assert not [w for w in recwarn if "weakly identified" in str(w.message)]
    assert len(run.chains) == config.chains


# ---------------------------------------------------------------------------
# run_chain / run_mcmc mechanics
# ---------------------------------------------------------------------------


def small_config(**overrides):
    base = dict(
        chains=2, adapt=300, burn_in=200, samples=400, thin=1, seed=11
    )
    base.update(overrides)
    return McmcConfig(**base)


def centered_basic_dataset():
    centered, _ = center_covariates(build_basic_dataset())
    return centered


def test_identical_seeds_bitwise_identical_draws():
    assembled = assemble(centered_basic_dataset())
    config = small_config()
    [first] = run_chain(assembled, config, PriorSpec(), [0])
    [second] = run_chain(assembled, config, PriorSpec(), [0])
    assert np.array_equal(first.draws, second.draws)
    assert first.seed_used == second.seed_used
    assert first.accept_rate == second.accept_rate


def test_chains_have_distinct_streams():
    assembled = assemble(centered_basic_dataset())
    config = small_config()
    chains = run_chain(assembled, config, PriorSpec(), range(3))
    assert not np.array_equal(chains[0].draws, chains[1].draws)
    assert not np.array_equal(chains[1].draws, chains[2].draws)
    assert len({c.seed_used for c in chains}) == 3


def test_draw_shape_names_and_tau_support():
    dataset = centered_basic_dataset()
    prior = PriorSpec(tau_upper=5.0)
    chains = run_mcmc(dataset, small_config(), prior)
    names = dataset.schema.parameter_names()
    for chain in chains:
        assert chain.parameter_names == tuple(names)
        assert chain.draws.shape == (400, len(names))
        assert np.all(np.isfinite(chain.draws))
        tau_draws = chain.draws[:, -1]
        assert np.all(tau_draws > 0.0)
        assert np.all(tau_draws < prior.tau_upper)


def test_accept_rate_lands_near_target():
    dataset = centered_basic_dataset()
    config = small_config(adapt=2000, burn_in=500, samples=2000, seed=3)
    chains = run_mcmc(dataset, config, PriorSpec())
    for chain in chains:
        assert 0.1 <= chain.accept_rate <= 0.5


PERIOD = sampler.INDEPENDENCE_PERIOD


@pytest.mark.parametrize(
    "adapt, burn_in, samples, steps",
    [(0, 0, PERIOD - 1, 0), (0, 0, PERIOD, 1), (0, 0, 2 * PERIOD - 1, 1),
     (0, 0, 2 * PERIOD, 2), (5, 3, PERIOD - 8 % PERIOD, 1),
     (5, 3, PERIOD - 8 % PERIOD - 1, 0),
     (300, 200, 400, 900 // PERIOD - 500 // PERIOD)],
)
def test_independence_acceptance_counts_the_sampling_phase_steps(
    adapt, burn_in, samples, steps
):
    # Iterations PERIOD, 2 PERIOD, ... (counting from 1) are independence
    # steps; the rate is over those that fall in the sampling phase. After
    # 8 warm-up iterations, PERIOD - 8 % PERIOD samples end on the first
    # step of the sampling phase.
    assembled = assemble(centered_basic_dataset())
    config = small_config(adapt=adapt, burn_in=burn_in, samples=samples)
    for chain in run_chain(assembled, config, PriorSpec(), [0, 1]):
        rate = chain.independence_accept_rate
        if steps == 0:
            assert math.isnan(rate)
        else:
            assert 0.0 <= rate <= 1.0
            assert rate * steps == pytest.approx(round(rate * steps))


def test_thinning_keeps_every_kth_draw():
    assembled = assemble(centered_basic_dataset())
    [thin] = run_chain(
        assembled, small_config(samples=100, thin=3), PriorSpec(), [0]
    )
    assert thin.draws.shape[0] == 100


def test_chain_draws_do_not_depend_on_other_chains():
    # Chains share batched density evaluations, but chain k's draws must
    # depend on (seed, k) alone: alone, in a subset, or among all of
    # them. Six chains span two padded blocks of the batched design
    # product.
    assembled = assemble(centered_basic_dataset())
    config = small_config(chains=6)
    full = run_chain(assembled, config, PriorSpec(), range(6))
    subset = dict(
        zip([1, 3, 5], run_chain(assembled, config, PriorSpec(), [1, 3, 5]))
    )
    for k in range(6):
        [alone] = run_chain(assembled, config, PriorSpec(), [k])
        runs = [alone, full[k]] + ([subset[k]] if k in subset else [])
        for other in runs[1:]:
            assert other.chain_index == k
            assert np.array_equal(alone.draws, other.draws)
            assert alone.seed_used == other.seed_used
            assert alone.accept_rate == other.accept_rate


def test_run_chain_rejects_repeated_or_missing_chains():
    assembled = assemble(centered_basic_dataset())
    for chains in ([], [0, 0]):
        with pytest.raises(ValueError, match="distinct chain indices"):
            run_chain(assembled, small_config(), PriorSpec(), chains)


def test_nonfinite_proposals_are_rejected_and_counted():
    # A negative eigenvalue -e makes the density NaN for tau^2 < e. Such
    # proposals must be rejected and counted, never accepted.
    config = small_config(adapt=500, burn_in=0, samples=2000)
    assembled = assemble(centered_basic_dataset())
    [clean] = run_chain(assembled, config, PriorSpec(), [0])
    assert clean.nonfinite_rejections == 0
    # -0.2 as first seen, then a cut through the bulk of the posterior.
    for cut in (0.2, float(np.quantile(clean.draws[:, -1] ** 2, 0.25))):
        assembled.stacked_eigenvalues[0] = -cut
        [chain] = run_chain(assembled, config, PriorSpec(), [0])
        assert chain.accept_rate < 1.0
        assert chain.nonfinite_rejections > 0
        assert np.all(np.isfinite(chain.draws))
        assert np.all(chain.draws[:, -1] ** 2 > cut)


def count_one_row_calls(monkeypatch) -> list[int]:
    """A 1 for each one-state call of ``_Evaluator``, recorded as it
    happens."""
    calls = []
    evaluate = sampler._Evaluator.__call__

    def counted(self, state):
        calls.append(1)
        return evaluate(self, state)

    monkeypatch.setattr(sampler._Evaluator, "__call__", counted)
    return calls


class CountedReads(list):
    """A block's log posteriors that record each read of a row from
    ``first`` on."""

    def __init__(self, values, first, reads):
        super().__init__(values)
        self.first, self.reads = first, reads

    def __getitem__(self, index):
        if index >= self.first:
            self.reads.append(index)
        return super().__getitem__(index)


def count_prefetched_reads(monkeypatch) -> tuple[list, list, list]:
    """Per block, the number of independence proposals and of the rows
    evaluated with them, and a 1 for each read of a prefetched
    random-walk proposal's log posterior, recorded as they happen."""
    windows, rows, reads = [], [], []
    draw = sampler._IndependenceProposal.draw
    block = sampler._Evaluator.block

    def drawn(self, *args):
        proposals, log_grid = draw(self, *args)
        windows.append(proposals.shape[0])
        return proposals, log_grid

    def evaluated(self, proposals):
        rows.append(proposals.shape[0])
        return CountedReads(block(self, proposals), windows[-1], reads)

    monkeypatch.setattr(sampler._IndependenceProposal, "draw", drawn)
    monkeypatch.setattr(sampler._Evaluator, "block", evaluated)
    return windows, rows, reads


def test_a_screened_out_proposal_is_never_evaluated(monkeypatch):
    # One chain: each random-walk proposal it evaluates is either a
    # call of its one-row log posterior or a read of one prefetched
    # with its block, and their number is the count of proposals that
    # pass the screen in the reference loop. A block prefetches at most
    # one proposal per independence step.
    assembled = assemble(centered_basic_dataset())
    config = small_config(chains=1, adapt=300, burn_in=0, samples=2000)
    calls = count_one_row_calls(monkeypatch)
    windows, rows, reads = count_prefetched_reads(monkeypatch)
    [chain] = run_chain(assembled, config, PriorSpec(), [0])
    screened_in = []
    [want] = reference_run_chain(
        assembled, config, PriorSpec(), [0], screened_in=screened_in
    )
    period = sampler.INDEPENDENCE_PERIOD
    total = config.adapt + config.samples
    independent = total // period - config.adapt // period  # after adaptation
    after_adaptation = want.density_evaluations - independent
    random_walk = total - config.adapt - independent
    assert 0 < after_adaptation < random_walk
    assert after_adaptation < screened_in[0]
    assert chain.density_evaluations == want.density_evaluations
    # The first call evaluates the start.
    assert calls.count(1) + len(reads) == 1 + screened_in[0]
    assert len(reads) > 0
    assert all(n <= 2 * m for n, m in zip(rows, windows, strict=True))


def test_most_random_walk_evaluations_come_with_the_block(monkeypatch):
    # One chain without adaptation makes at most half of its random-walk
    # evaluations through the one-row log posterior; the rest are
    # prefetched with the independence proposals of their block. The
    # bound was fixed before the first run.
    assembled = assemble(centered_basic_dataset())
    config = small_config(chains=1, adapt=0, burn_in=0, samples=2000)
    calls = count_one_row_calls(monkeypatch)
    [chain] = run_chain(assembled, config, PriorSpec(), [0])
    independent = config.samples // sampler.INDEPENDENCE_PERIOD
    random_walk = chain.density_evaluations - independent
    one_row = calls.count(1) - 1  # the first call evaluates the start
    assert random_walk > 0
    assert one_row <= 0.5 * random_walk


def test_adaptation_is_screened(monkeypatch):
    # One chain adapting for 2000 iterations evaluates at most half of
    # its random-walk proposals; an unscreened adaptation evaluates
    # every one. The bound was fixed before the first run.
    assembled = assemble(centered_basic_dataset())
    config = small_config(chains=1, adapt=2000, burn_in=0, samples=1)
    calls = count_one_row_calls(monkeypatch)
    [chain] = run_chain(assembled, config, PriorSpec(), [0])
    random_walk = config.adapt - config.adapt // sampler.INDEPENDENCE_PERIOD
    # The first call evaluates the start; the last iteration, after
    # adaptation, is a random-walk step evaluated or not.
    evaluated = calls.count(1) - 1 - chain.density_evaluations
    assert 0 < evaluated <= 0.5 * random_walk


def test_a_start_that_is_never_finite_names_every_chain():
    # Every log posterior is NaN, so no chain finds a finite start.
    assembled = assemble(centered_basic_dataset())
    prior = PriorSpec(tau_upper=1.0)
    preconditioner = posterior.precondition(assembled, prior)
    assembled.stacked_eigenvalues[0] = -10.0  # NaN below tau^2 = 10 > 1
    with pytest.raises(
        posterior.SamplerError,
        match=r"chain\(s\) \[0, 1, 2\]: no finite starting point",
    ):
        run_chain(
            assembled, small_config(chains=3), prior, range(3),
            preconditioner=preconditioner,
        )


def test_a_failed_start_stops_the_run_before_any_block(monkeypatch):
    # Every start chain 2 draws puts u = log(tau) 1000 above mu's, where
    # tau overflows and lies outside the prior's support. Chains 0 and 1
    # find finite starts, but none of them may draw a block.
    assembled = assemble(centered_basic_dataset())
    prior = PriorSpec()
    preconditioner = posterior.precondition(assembled, prior)
    shift = np.zeros(preconditioner.mean.size)
    shift[-1] = 1000.0
    outside = np.linalg.solve(preconditioner.factor, shift)  # R z = shift

    class OutsideSupport:
        def standard_normal(self, size):
            return outside.copy()

    chain_rng = sampler._chain_rng
    monkeypatch.setattr(
        sampler, "_chain_rng",
        lambda seed, k: (OutsideSupport(), 0) if k == 2 else chain_rng(seed, k),
    )
    blocks = []
    draw = sampler._IndependenceProposal.draw

    def counted(self, *args):
        blocks.append(1)
        return draw(self, *args)

    monkeypatch.setattr(sampler._IndependenceProposal, "draw", counted)
    with pytest.raises(
        posterior.SamplerError, match=r"chain\(s\) \[2\]: no finite starting point"
    ):
        run_chain(
            assembled, small_config(chains=3), prior, range(3),
            preconditioner=preconditioner,
        )
    assert blocks == []


def test_the_screen_spares_most_evaluations_after_adaptation():
    # On the recovery schema at the recovery protocol, at most 40 % of
    # the iterations after adaptation evaluate the log posterior, and
    # the sampling acceptance stays in the benchmark's band.
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    assembled = assemble(centered)
    config = McmcConfig(chains=4, adapt=2000, burn_in=2000, samples=5000, seed=3)
    for chain in run_chain(assembled, config, PriorSpec(), range(4)):
        assert chain.density_evaluations <= 0.4 * 7000, chain.chain_index
        assert 0.08 <= chain.accept_rate <= 0.40, chain.chain_index


def test_run_chain_memory_does_not_grow_with_the_run():
    # The per-block state (normals, uniforms, independence proposals and
    # their windows) is fixed in size; only the draws grow with the run.
    # The bound was fixed before the first run.
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    assembled = assemble(centered)
    preconditioner = posterior.precondition(assembled, PriorSpec())
    config = McmcConfig(
        chains=4, adapt=1000, burn_in=1000, samples=20_000, seed=3
    )
    tracemalloc.start()
    try:
        chains = run_chain(
            assembled, config, PriorSpec(), range(4), preconditioner
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    draws = sum(c.draws.nbytes for c in chains)
    assert draws == 4 * 20_000 * assembled.n_parameters * 8
    assert peak - draws < 1 << 22


def assert_same_chains(got, want):
    """Bit-equal draws and equal values of every other ChainOutput field."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.draws.shape == w.draws.shape
        assert np.array_equal(g.draws.view(np.int64), w.draws.view(np.int64))
        for field in dataclasses.fields(ChainOutput):
            if field.name == "draws":
                continue
            a, b = getattr(g, field.name), getattr(w, field.name)
            same_nan = isinstance(a, float) and math.isnan(a) and math.isnan(b)
            assert a == b or same_nan, (field.name, a, b)
            assert type(a) is type(b), field.name


def draw_block(assembled):
    return max(1, sampler.DRAW_BLOCK_VALUES // assembled.n_parameters)


# Each case names the chains and the run lengths; "edge" and "mid" put
# the end of adaptation on a refill of the random blocks or inside one.
REFERENCE_CASES = {
    "group [2, 0]": ([2, 0], dict(chains=3)),
    "group [1]": ([1], dict(chains=3)),
    "six chains, two lane blocks": (range(6), dict(chains=6)),
    "no adaptation or burn-in": ([0, 1], dict(adapt=0, burn_in=0)),
    "no burn-in": ([0, 1], dict(burn_in=0)),
    "adaptation ends at a block edge": ([0, 1], dict(adapt="edge")),
    "adaptation ends mid-block": ([0, 1], dict(adapt="mid")),
    "thin 3": ([0, 1], dict(thin=3)),
    "samples not a multiple of the block": (
        [0, 1], dict(adapt=0, burn_in=0, samples="uneven")
    ),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_run_chain_matches_reference_loop_bit_for_bit(case):
    assembled = assemble(centered_basic_dataset())
    block = draw_block(assembled)
    chains, overrides = REFERENCE_CASES[case]
    lengths = {"edge": block, "mid": block + block // 3, "uneven": 2 * block + 5}
    overrides = {k: lengths.get(v, v) for k, v in overrides.items()}
    config = small_config(**overrides)
    got = run_chain(assembled, config, PriorSpec(), chains)
    assert_same_chains(
        got, reference_run_chain(assembled, config, PriorSpec(), chains)
    )
    assert [c.chain_index for c in got] == list(chains)


def test_run_chain_matches_reference_loop_with_nan_densities():
    # The eigenvalue -0.2 of test_nonfinite_proposals_are_rejected_and_counted:
    # NaN proposals are rejected, counted and score 0 in the adaptation.
    config = small_config(adapt=500, burn_in=0, samples=2000)
    assembled = assemble(centered_basic_dataset())
    assembled.stacked_eigenvalues[0] = -0.2
    got = run_chain(assembled, config, PriorSpec(), [0])
    assert got[0].nonfinite_rejections > 0
    assert_same_chains(
        got, reference_run_chain(assembled, config, PriorSpec(), [0])
    )


def test_run_chain_ignores_an_outer_errstate():
    # The NaN densities of the eigenvalue -0.2 raise under an outer
    # errstate unless every step of every chain runs in run_chain's own.
    config = small_config(adapt=500, burn_in=0, samples=2000)
    assembled = assemble(centered_basic_dataset())
    assembled.stacked_eigenvalues[0] = -0.2
    plain = run_chain(assembled, config, PriorSpec(), [0, 1])
    with np.errstate(all="raise"):
        got = run_chain(assembled, config, PriorSpec(), [0, 1])
    assert all(chain.nonfinite_rejections > 0 for chain in got)
    assert_same_chains(got, plain)


@settings(max_examples=40, deadline=None)
@given(
    chains=st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
    adapt=st.integers(0, 150),
    burn_in=st.integers(0, 60),
    samples=st.integers(1, 120),
    thin=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    block_values=st.sampled_from([7, 40, 8192]),
    tau_upper=st.sampled_from([0.3, 5.0]),
)
def test_run_chain_matches_reference_loop_property(
    chains, adapt, burn_in, samples, thin, seed, block_values, tau_upper
):
    # Small random blocks put the refills and the end of adaptation
    # anywhere in the run.
    assembled = assemble(centered_basic_dataset())
    config = McmcConfig(
        chains=8, adapt=adapt, burn_in=burn_in, samples=samples, thin=thin,
        seed=seed,
    )
    prior = PriorSpec(tau_upper=tau_upper)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "DRAW_BLOCK_VALUES", block_values)
        mp.setattr(reference, "DRAW_BLOCK_VALUES", block_values)
        got = run_chain(assembled, config, prior, chains)
        want = reference_run_chain(assembled, config, prior, chains)
    assert_same_chains(got, want)


def conjugate_toy():
    """Three dim-1 trials, their prior and the exact posterior means.

    With c ~ N(0, sd^2 I) integrated out, y | tau ~ N(0, sd^2 X X' + D),
    D = diag(v + tau^2), and E[c | tau, y] = sd^2 X' (sd^2 X X' + D)^-1 y.
    Weighting a fine tau grid by that density gives the exact posterior
    means.
    """
    trials = [
        scalar_trial("c1", y=0.05, v=0.004),
        scalar_trial("c2", y=0.02, v=0.006),
        scalar_trial("a1", y=0.01, v=0.005, comparison="active"),
    ]
    data = scalar_dataset(trials)
    prior = PriorSpec(coeff_sd=1.0, tau_upper=1.0)
    y = np.concatenate([t.y_vector() for t in data.trials])
    design = np.vstack(
        [trial_design_matrix(data.schema, t) for t in data.trials]
    )
    v = np.array([
        build_within_covariance(t, data.base_rho_y, data.base_rho_d).matrix[0, 0]
        for t in data.trials
    ])
    taus = (np.arange(4000) + 0.5) / 4000 * prior.tau_upper
    log_weights = np.empty(taus.size)
    conditional_means = np.empty((taus.size, design.shape[1]))
    for i, tau in enumerate(taus):
        cov = prior.coeff_sd**2 * design @ design.T + np.diag(v + tau**2)
        log_weights[i] = mvn_logpdf(y, np.zeros_like(y), cov)
        conditional_means[i] = prior.coeff_sd**2 * design.T @ np.linalg.solve(
            cov, y
        )
    weights = np.exp(log_weights - log_weights.max())
    weights /= weights.sum()
    return data, prior, np.append(weights @ conditional_means, weights @ taus)


@pytest.mark.filterwarnings("ignore:fitting on uncentered")
def test_marginal_sampler_matches_exact_posterior():
    data, prior, exact = conjugate_toy()
    chains = run_mcmc(
        data,
        McmcConfig(chains=2, adapt=3000, burn_in=2000, samples=10_000, seed=5),
        prior,
    )
    pooled = np.vstack([c.draws for c in chains])
    for j, name in enumerate(chains[0].parameter_names):
        se = mcse_mean(pooled[:, j])
        gap = abs(pooled[:, j].mean() - exact[j])
        assert gap < 3.0 * se, f"{name}: gap {gap:.3g} vs mcse {se:.3g}"


@pytest.mark.filterwarnings("ignore:fitting on uncentered")
@pytest.mark.parametrize("seed", range(101, 113))
def test_marginal_sampler_matches_exact_posterior_over_seeds(seed):
    # The toy above, where the posterior of tau reaches 0 and the
    # independence proposals' tails matter, on twelve more seeds. The
    # seeds and the bound were fixed before the first run.
    data, prior, exact = conjugate_toy()
    chains = run_mcmc(
        data,
        McmcConfig(chains=2, adapt=3000, burn_in=2000, samples=10_000, seed=seed),
        prior,
    )
    pooled = np.vstack([c.draws for c in chains])
    for j, name in enumerate(chains[0].parameter_names):
        se = mcse_mean(pooled[:, j])
        gap = abs(pooled[:, j].mean() - exact[j])
        assert gap < 4.0 * se, f"{name}: gap {gap:.3g} vs mcse {se:.3g}"


def recovery_proposal():
    """The recovery dataset of seed 1000, its approximation and the
    independence proposal built on it."""
    centered, _ = center_covariates(simulate_dataset(recovery_sim_config(1000)))
    pre = posterior.precondition(assemble(centered), PriorSpec())
    return pre, sampler._IndependenceProposal(pre)


def block_proposals(pre, proposal, rows, rng, choices=None):
    """``rows`` proposals drawn as the sampler draws a block's, and
    their log q_grid."""
    normals = rng.standard_normal((rows, pre.mean.size))
    if choices is None:
        choices = rng.random((3, rows))
    return proposal.draw(
        normals, normals @ pre.factor.T,
        rng.standard_gamma(0.5 * sampler.INDEPENDENCE_DOF, rows), choices,
    )


def grid_cells(grid, u):
    """The node whose cell [u_n - h/2, u_n + h/2] holds each u, or -1."""
    nearest = np.abs(u[:, None] - grid.nodes).argmin(axis=1)
    inside = np.abs(u - grid.nodes[nearest]) <= 0.5 * grid.spacing
    return np.where(inside, nearest, -1)


def test_independence_log_q_is_the_mixture_density():
    # log q, taken alone and for a block, against (1 - eps) w_n / h
    # N(c; m_n, Lambda_n^-1) + eps times scipy's multivariate t with the
    # approximation's centre and scale, at points near the centre, in
    # the tails and outside the bracket of the grid, to 1e-10 relative.
    # The tolerance was fixed before the first run.
    from scipy.stats import multivariate_normal, multivariate_t

    pre, proposal = recovery_proposal()
    grid, eps = pre.grid, sampler.DEFENSIVE_WEIGHT
    dim = pre.mean.size
    t = multivariate_t(
        loc=pre.mean, shape=pre.factor @ pre.factor.T,
        df=sampler.INDEPENDENCE_DOF,
    )
    rng = np.random.default_rng(11)
    drawn, drawn_grid = block_proposals(pre, proposal, 40, rng)
    points = [drawn]
    for spread in (0.5, 1.0, 3.0, 30.0):
        points.append(pre.mean + spread * rng.standard_normal((5, dim)) @ pre.factor.T)
    outside = pre.mean + rng.standard_normal((4, dim)) @ pre.factor.T
    outside[:, -1] = [
        grid.nodes[0] - grid.spacing, grid.nodes[0] - 0.51 * grid.spacing,
        grid.nodes[-1] + 0.51 * grid.spacing, grid.nodes[-1] + 5.0,
    ]
    points = np.vstack(points + [outside])
    cells = grid_cells(grid, points[:, -1])
    assert (cells[-4:] == -1).all() and (cells[:-4] >= 0).sum() > 40
    # A drawn proposal's log q_grid is read off its normals.
    looked_up = [grid.log_pdf(x) for x in points]
    assert drawn_grid == pytest.approx(looked_up[:40], rel=1e-10)
    # So is the batched one, row by row, -inf outside the cells.
    batched = grid.log_pdf_rows(points)
    assert np.isneginf(batched[-4:]).all()
    np.testing.assert_allclose(batched, looked_up, rtol=1e-12)
    offsets = np.linalg.solve(pre.factor, (points - pre.mean).T).T
    w_sq = np.add.reduce(offsets * offsets, axis=1)
    block = proposal.log_q_block(np.array(looked_up), w_sq)
    for x, n, log_grid, sq, in_block in zip(points, cells, looked_up, w_sq, block):
        want_t = math.log(eps) + t.logpdf(x)
        if n < 0:
            want = want_t
        else:
            lower = grid.factors[n]
            normal = multivariate_normal(
                grid.means[n], np.linalg.inv(lower @ lower.T)
            )
            want = np.logaddexp(
                math.log(1.0 - eps) + math.log(grid.weights[n] / grid.spacing)
                + normal.logpdf(x[:-1]),
                want_t,
            )
        got = proposal.log_q(log_grid, float(sq))
        assert got == pytest.approx(want, rel=1e-10), (x, n)
        assert in_block == pytest.approx(want, rel=1e-10), (x, n)


def test_grid_proposals_fall_in_each_cell_with_its_weight():
    # Of 10^5 block proposals, those of the grid component fall in the
    # cell of node n in proportion to w_n: a chi-squared test over the
    # cells expected to hold at least 5 (the rest pooled) with p > 1e-3,
    # and none in a cell of weight 0 or outside the cells. The bounds
    # were fixed before the first run.
    from scipy.stats import chisquare

    pre, proposal = recovery_proposal()
    grid = pre.grid
    rng = np.random.default_rng(12)
    choices = rng.random((3, 100_000))
    proposals, _ = block_proposals(pre, proposal, 100_000, rng, choices)
    from_grid = choices[0] >= sampler.DEFENSIVE_WEIGHT
    assert abs(from_grid.mean() - (1.0 - sampler.DEFENSIVE_WEIGHT)) < 0.005
    cells = grid_cells(grid, proposals[from_grid, -1])
    assert (cells >= 0).all()
    counts = np.bincount(cells, minlength=grid.nodes.size)
    assert (counts[grid.weights == 0.0] == 0).all()
    expected = from_grid.sum() * grid.weights
    big = expected >= 5.0
    observed = np.append(counts[big], counts[~big].sum())
    expected = np.append(expected[big], expected[~big].sum())
    assert big.sum() > 20
    assert chisquare(observed, expected).pvalue > 1e-3


def test_grid_proposals_in_one_cell_have_its_conditional_moments():
    # 10^5 grid proposals in the cell of the heaviest node n: u uniform
    # on the cell (Kolmogorov-Smirnov p > 1e-3) and z = L_n' (c - m_n)
    # standard normal, its mean within 5/sqrt(N) and its covariance
    # within 0.03 of the identity in every entry, that is c with mean
    # m_n and covariance Lambda_n^-1. The bounds were fixed before the
    # first run.
    from scipy.stats import kstest

    pre, proposal = recovery_proposal()
    grid = pre.grid
    n = int(np.argmax(grid.weights))
    rows = 100_000
    rng = np.random.default_rng(13)
    low, high = grid.cdf[n - 1], grid.cdf[n]
    choices = np.vstack([
        np.full(rows, 0.5), low + (high - low) * rng.random(rows),
        rng.random(rows),
    ])
    proposals, _ = block_proposals(pre, proposal, rows, rng, choices)
    assert (grid_cells(grid, proposals[:, -1]) == n).all()
    place = (proposals[:, -1] - grid.nodes[n]) / grid.spacing + 0.5
    assert kstest(place, "uniform").pvalue > 1e-3
    z = (proposals[:, :-1] - grid.means[n]) @ grid.factors[n]
    assert np.abs(z.mean(axis=0)).max() < 5.0 / math.sqrt(rows)
    cov = np.cov(z, rowvar=False)
    assert np.abs(cov - np.eye(cov.shape[0])).max() < 0.03


def test_a_replaced_grid_draws_and_weighs_by_its_own_weights():
    # The grid of a recovery dataset, its arrays derived by a draw, then
    # replaced by a grid whose weights are 1 on its lowest node of
    # positive weight: every draw of the new grid lands in that node's
    # cell, with the log density its draw reports, and a state in any
    # other cell has density 0.
    pre, _ = recovery_proposal()
    grid = pre.grid
    k = grid.means.shape[1]
    rng = np.random.default_rng(14)
    grid.draw(rng.standard_normal((10, k)), rng.random((2, 10)))
    n = int(np.flatnonzero(grid.weights > 0.0)[0])
    assert grid.weights[n] < 1e-6
    one_hot = np.zeros_like(grid.weights)
    one_hot[n] = 1.0
    single = dataclasses.replace(grid, weights=one_hot)
    states, log_q = single.draw(rng.standard_normal((1000, k)), rng.random((2, 1000)))
    assert (grid_cells(grid, states[:, -1]) == n).all()
    np.testing.assert_allclose(single.log_pdf_rows(states), log_q, rtol=1e-12)
    assert single.log_pdf(states[0]) == pytest.approx(log_q[0], rel=1e-12)
    elsewhere = np.repeat(states[:1], grid.nodes.size, axis=0)
    elsewhere[:, -1] = grid.nodes
    others = np.arange(grid.nodes.size) != n
    assert np.isneginf(single.log_pdf_rows(elsewhere)[others]).all()
    assert all(single.log_pdf(x) == -math.inf for x in elsewhere[others])
    assert np.isfinite(grid.log_pdf_rows(elsewhere)[grid.weights > 0.0]).all()


def test_sampler_matches_exact_posterior_on_realistic_data():
    # 40 trials of the recovery schema against the benchmark's exact
    # collapsed posterior, computed by quadrature over tau. Thresholds
    # and seeds were fixed before the first run.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from oracle import CollapsedPosterior
    finally:
        sys.path.pop(0)
    config = dataclasses.replace(recovery_sim_config(40), n_trials=40)
    centered, _ = center_covariates(simulate_dataset(config))
    prior = PriorSpec()
    exact = CollapsedPosterior(
        centered, coeff_sd=prior.coeff_sd, tau_upper=prior.tau_upper
    )
    chains = run_mcmc(
        centered,
        McmcConfig(chains=4, adapt=1000, burn_in=1000, samples=4000, seed=7),
        prior,
    )
    for chain in chains:
        assert chain.independence_accept_rate > 0.5, chain.chain_index
        # The grid proposals fit the posterior; the bound was fixed
        # before the first run.
        assert chain.independence_accept_rate >= 0.85, chain.chain_index
    pooled = np.vstack([c.draws for c in chains])
    for j, name in enumerate(chains[0].parameter_names):
        se = mcse_mean(pooled[:, j])
        gap = abs(pooled[:, j].mean() - exact.mean[j])
        assert gap < 4.0 * se, f"{name}: gap {gap:.3g} vs mcse {se:.3g}"
        sd = pooled[:, j].std(ddof=1)
        assert abs(sd / exact.sd[j] - 1.0) < 0.10, f"{name}: sd {sd:.3g}"


def test_a_wrong_approximation_changes_efficiency_not_the_target():
    # The data of the test above, with the approximation's centre moved
    # 2 sds in log(tau) and its factor tripled: the screen and the
    # independence steps then fit the posterior poorly, but the chains
    # must still sample it. Thresholds and seeds were fixed before the
    # first run.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from oracle import CollapsedPosterior
    finally:
        sys.path.pop(0)
    config = dataclasses.replace(recovery_sim_config(40), n_trials=40)
    centered, _ = center_covariates(simulate_dataset(config))
    prior = PriorSpec()
    exact = CollapsedPosterior(
        centered, coeff_sd=prior.coeff_sd, tau_upper=prior.tau_upper
    )
    assembled = assemble(centered)
    right = posterior.precondition(assembled, prior)
    mean = right.mean.copy()
    mean[-1] += 2.0 * right.log_tau_sd
    wrong = dataclasses.replace(right, mean=mean, factor=3.0 * right.factor)
    chains = run_chain(
        assembled,
        McmcConfig(chains=4, adapt=1000, burn_in=1000, samples=4000, seed=7),
        prior, range(4), wrong,
    )
    pooled = np.vstack([c.draws for c in chains])
    for j, name in enumerate(chains[0].parameter_names):
        se = mcse_mean(pooled[:, j])
        gap = abs(pooled[:, j].mean() - exact.mean[j])
        assert gap < 4.0 * se, f"{name}: gap {gap:.3g} vs mcse {se:.3g}"
        sd = pooled[:, j].std(ddof=1)
        assert abs(sd / exact.sd[j] - 1.0) < 0.10, f"{name}: sd {sd:.3g}"


def test_a_wrong_grid_changes_efficiency_not_the_target():
    # The data of the test above, with the grid's weights tilted by
    # exp(2 (u_n - mode) / s), which moves their centre 2 sds s in
    # log(tau), and every conditional mean m_n moved by one conditional
    # sd of each coefficient: the independence proposals then fit the
    # posterior poorly, but the chains must still sample it. Thresholds
    # and seeds were fixed before the first run.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from oracle import CollapsedPosterior
    finally:
        sys.path.pop(0)
    config = dataclasses.replace(recovery_sim_config(40), n_trials=40)
    centered, _ = center_covariates(simulate_dataset(config))
    prior = PriorSpec()
    exact = CollapsedPosterior(
        centered, coeff_sd=prior.coeff_sd, tau_upper=prior.tau_upper
    )
    assembled = assemble(centered)
    right = posterior.precondition(assembled, prior)
    grid = right.grid
    mode = math.log(right.tau_mode)
    weights = grid.weights * np.exp(2.0 * (grid.nodes - mode) / right.log_tau_sd)
    precisions = grid.factors @ grid.factors.transpose(0, 2, 1)
    sds = np.sqrt(np.diagonal(np.linalg.inv(precisions), axis1=1, axis2=2))
    wrong = dataclasses.replace(
        grid, weights=weights / weights.sum(), means=grid.means + sds
    )
    chains = run_chain(
        assembled,
        McmcConfig(chains=4, adapt=1000, burn_in=1000, samples=4000, seed=7),
        prior, range(4), dataclasses.replace(right, grid=wrong),
    )
    pooled = np.vstack([c.draws for c in chains])
    for j, name in enumerate(chains[0].parameter_names):
        se = mcse_mean(pooled[:, j])
        gap = abs(pooled[:, j].mean() - exact.mean[j])
        assert gap < 4.0 * se, f"{name}: gap {gap:.3g} vs mcse {se:.3g}"
        sd = pooled[:, j].std(ddof=1)
        assert abs(sd / exact.sd[j] - 1.0) < 0.10, f"{name}: sd {sd:.3g}"


def test_uncentered_fit_warns():
    dataset = build_basic_dataset()
    assert dataset.centering is None
    with pytest.warns(UserWarning, match="uncentered"):
        run_mcmc(dataset, small_config(samples=20, adapt=20, burn_in=10))


@pytest.mark.parametrize("entry", [sampler.sample_posterior, run_mcmc])
def test_warnings_name_the_line_that_called_the_sampler(entry):
    # Uncentered covariates, and a prior sd small enough that it alone
    # constrains the coefficients, raise both warnings.
    config = small_config(chains=1, samples=20, adapt=20, burn_in=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = sys._getframe().f_lineno + 1
        entry(build_basic_dataset(), config, PriorSpec(coeff_sd=0.1))
    kinds = sorted(str(w.message).split()[0] for w in caught)
    assert kinds == ["fitting", "weakly"]
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, line)}


def test_centered_fit_does_not_warn(recwarn):
    run_mcmc(
        centered_basic_dataset(),
        small_config(samples=20, adapt=20, burn_in=10),
    )
    assert not [w for w in recwarn if "uncentered" in str(w.message)]


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(chains=0),
        dict(samples=0),
        dict(thin=0),
        dict(adapt=-1),
        dict(burn_in=-1),
        dict(seed=-1),
    ],
)
def test_config_rejects_bad_values(kwargs):
    # The message starts with the field's name, which the CLI replaces
    # with the value's source.
    [name] = kwargs
    with pytest.raises(ValueError, match=f"^{name} "):
        McmcConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(coeff_sd=0.0),
        dict(coeff_sd=-1.0),
        dict(tau_upper=0.0),
        dict(coeff_sd=math.inf),
        dict(tau_upper=math.nan),
        # sd^2 overflows, 2 pi sd^2 overflows, 1 / sd^2 overflows, and
        # sd^2 underflows to 0.
        dict(coeff_sd=1e300),
        dict(coeff_sd=1e154),
        dict(coeff_sd=1e-160),
        dict(coeff_sd=1e-200),
        dict(tau_upper=5e-324),  # a tenth of it underflows to 0
    ],
)
def test_prior_spec_rejects_bad_values(kwargs):
    [name] = kwargs
    with pytest.raises(ValueError, match=f"^{name} "):
        PriorSpec(**kwargs)

