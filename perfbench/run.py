#!/usr/bin/env python3
"""Benchmark featmeta end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 perfbench/run.py --workload fit150 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout: featmeta is imported from the
checkout's ``src``. One invocation runs one workload in this process
(``--workload all`` runs each in a fresh child process, one at a time).
Set-up runs a few times in fresh interpreters; then a fixed number of
whole rounds of the workload run, as many as fill ``--seconds`` at the
reference speed, so a run's work depends on its arguments alone. Every
output is checked:
draws against the exact collapsed posterior (perfbench/oracle.py), the
convergence estimators of perfbench/estimators.py, ``diagnose`` against
the fit's own files. Each metric is printed with its unit, and the last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The README in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so runs do not depend on the machine's
# default BLAS thread count; recorded in every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from estimators import effective_sample_size, split_rhat  # noqa: E402
from inputs import SRC, WORKLOADS, input_paths  # noqa: E402
from meter import SpeedMeter  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
RUNS = HERE.parent / ".perfbench"

SETUP_REPEATS = 5
DIAGNOSE_REPEATS = 3
LOGLIK_BATCHES = 7

# Correctness thresholds. Over seeds 1-12 the largest values seen were
# |z| 2.7, sd ratio off by 0.06, split R-hat 1.04, acceptance 0.126-0.277.
Z_MAX = 5.0  # posterior mean within Z_MAX Monte Carlo SEs of the exact mean
SD_RTOL = 0.25  # posterior sd within this relative distance of the exact sd
RHAT_MAX = 1.1
ACCEPT_BAND = (0.08, 0.40)  # around the sampler's 0.234 target
LOGLIK_RTOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "diagnose_s": "s",
    "study_s": "s",
    "min_ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "simulate.simulate_s": "s",
    "data.save_s": "s",
    "data.load_s": "s",
    "data.center_s": "s",
    "data.input_mb": "MB",
    "covariance.within_s": "s",
    "design.matrix_s": "s",
    "sampler.assemble_s": "s",
    "sampler.assemble_self_s": "s",
    "sampler.loglik_us": "us",
    "sampler.chain_s": "s",
    "sampler.iter_us": "us",
    "sampler.accept_rate": "ratio",
    "sampler.ess_min": "draws",
    "diagnostics.write_chain_s": "s",
    "diagnostics.chain_mb": "MB",
    "diagnostics.read_chain_s": "s",
    "diagnostics.summarize_s": "s",
    "diagnostics.rhat_trace_s": "s",
    "cli.fit_self_s": "s",
    "cli.diagnose_self_s": "s",
    "cli.fit_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def _mb(path: Path) -> float:
    return path.stat().st_size / 1e6


class Bench:
    def __init__(self, featmeta, workload: str, seed: int, trace: bool, work: Path):
        self.fm = featmeta
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.oracles: dict[int, object] = {}  # per dataset, built when first needed
        self.peak_rss_mb: float | None = None
        self.samples: dict[str, list[float]] = {}  # at reference speed
        self.raw: dict[str, list[float]] = {}  # measured seconds
        self.meter = SpeedMeter(work / "speed.txt")

    # -- bookkeeping --------------------------------------------------------

    def record(self, name: str, value: float, raw: float | None = None) -> None:
        self.samples.setdefault(name, []).append(float(value))
        if raw is not None:
            self.raw.setdefault(name, []).append(float(raw))

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def add_fit(self, timing, ess: np.ndarray) -> None:
        self.record("fit_s", timing.seconds, timing.raw)
        if self.tracer:  # against the untraced fit_s, the tracing overhead
            self.record("cli.fit_s", timing.seconds, timing.raw)
        self.record("min_ess_per_s", ess.min() / timing.seconds, ess.min() / timing.raw)

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time one stage, with garbage collected first.

        Yields a namespace whose ``raw`` (measured seconds) and ``seconds``
        (at the reference speed) are set when the block ends.
        """
        timing = types.SimpleNamespace(raw=math.nan, seconds=math.nan)
        gc.collect()
        with self.span(name):
            t0 = time.perf_counter()
            try:
                yield timing
            finally:
                t1 = time.perf_counter()
                timing.raw = t1 - t0
                timing.seconds = timing.raw / self.meter.slowdown(t0, t1)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def mcmc_seed(self, index: int) -> int:
        return 1000 * self.seed + index

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Time set-up in fresh interpreters; load the inputs."""
        for k in range(SETUP_REPEATS):
            out = self.work / f"setup{k}"
            with self.stage("setup") as timing:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "inputs.py"), "--workload",
                     self.name, "--seed", str(self.seed), "--out", str(out)],
                    capture_output=True, text=True, timeout=120, check=False,
                )
            if proc.returncode != 0:
                raise BenchError(f"set-up failed:\n{proc.stderr}")
            run = json.loads(proc.stdout.splitlines()[-1])
            if Path(run["featmeta"]).resolve().parent.parent != SRC:
                raise BenchError(f"set-up imported featmeta from {run['featmeta']}")
            # The child times itself from its import on, at the speed
            # measured while it ran.
            slowdown = timing.raw / timing.seconds
            for key, metric in (("setup_s", "setup_s"),
                                ("simulate_s", "simulate.simulate_s"),
                                ("save_s", "data.save_s")):
                self.record(metric, run[key] / slowdown, run[key])

        self.inputs = input_paths(self.name, self.work / "setup0")
        for k in range(1, SETUP_REPEATS):
            for path, other in zip(self.inputs, input_paths(self.name, self.work / f"setup{k}")):
                self.check(path.read_bytes() == other.read_bytes(),
                           f"set-up {k} wrote different bytes to {other.name}")
        for path in self.inputs:
            self.record("data.input_mb", _mb(path))

        self.datasets = [self.fm.load_dataset(p) for p in self.inputs]

    def oracle(self, dataset: int):
        """The exact posterior of one dataset, built when first needed: after
        the first fit, so its memory is not in ``peak_rss_mb``."""
        if dataset not in self.oracles:
            from oracle import CollapsedPosterior  # imports featmeta

            centered, _ = self.fm.center_covariates(self.datasets[dataset])
            self.oracles[dataset] = CollapsedPosterior(centered)
        return self.oracles[dataset]

    def note_peak_rss(self) -> None:
        """Peak resident set so far; kept from the first call, which comes
        right after the first program call and before any check."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check_loglik(self) -> None:
        """The program's marginal density against the oracle's, then its cost."""
        fm = self.fm
        centered, _ = fm.center_covariates(self.datasets[0])
        oracle = self.oracle(0)
        assembled = fm.assemble(centered)
        rng = np.random.default_rng(self.seed)
        points = [oracle.mean] + [
            oracle.mean + rng.normal(0.0, 3.0, oracle.mean.shape) * oracle.sd
            for _ in range(4)
        ]
        for point in points:
            point = np.append(point[:-1], abs(point[-1]))
            params = fm.ParameterVector.from_array(point, centered.schema)
            got = fm.log_likelihood_marginal(assembled, params)
            want = oracle.log_likelihood(point[:-1], point[-1])
            self.check(abs(got - want) <= LOGLIK_RTOL * abs(want),
                       f"log_likelihood_marginal {got!r} != oracle {want!r}")
        if self.tracer is None:
            return
        params = fm.ParameterVector.from_array(oracle.mean, centered.schema)
        t0 = time.perf_counter()
        fm.log_likelihood_marginal(assembled, params)
        calls = max(100, int(0.05 / max(time.perf_counter() - t0, 1e-7)))
        for _ in range(LOGLIK_BATCHES):
            with self.stage("loglik") as timing:
                for _ in range(calls):
                    fm.log_likelihood_marginal(assembled, params)
            self.record("sampler.loglik_us", timing.seconds / calls * 1e6,
                        timing.raw / calls * 1e6)

    # -- checks -------------------------------------------------------------

    def check_draws(self, draws: np.ndarray, rates, oracle, label: str) -> np.ndarray:
        """Check (chains, samples, params) draws; return the ESS per parameter."""
        w = self.w
        self.check(draws.shape == (w.chains, w.samples, oracle.mean.shape[0]),
                   f"{label}: draws have shape {draws.shape}")
        for k, rate in enumerate(rates):
            self.check(ACCEPT_BAND[0] <= rate <= ACCEPT_BAND[1],
                       f"{label}: chain {k} acceptance {rate:.3f} outside {ACCEPT_BAND}")
        n_params = draws.shape[2]
        ess = np.array([effective_sample_size(draws[:, :, j]) for j in range(n_params)])
        rhat = np.array([split_rhat(draws[:, :, j]) for j in range(n_params)])
        pooled = draws.reshape(-1, n_params)
        mean = pooled.mean(axis=0)
        sd = pooled.std(axis=0, ddof=1)
        z = (mean - oracle.mean) / (sd / np.sqrt(ess))
        for j in range(n_params):
            self.check(abs(z[j]) <= Z_MAX,
                       f"{label}: parameter {j} mean {mean[j]:.6g} is {z[j]:.1f} "
                       f"MCSE from the exact {oracle.mean[j]:.6g}")
            self.check(abs(sd[j] / oracle.sd[j] - 1.0) <= SD_RTOL,
                       f"{label}: parameter {j} sd {sd[j]:.6g} vs exact {oracle.sd[j]:.6g}")
            self.check(rhat[j] < RHAT_MAX,
                       f"{label}: parameter {j} split R-hat {rhat[j]:.4f}")
        self.record("sampler.accept_rate", min(rates))
        self.record("sampler.ess_min", ess.min())
        return ess

    # -- fit150 / fit1500: the CLI on files ---------------------------------

    def command(self, label: str, argv: list[str]):
        """One timed ``featmeta`` command, in process; its timing, or None."""
        self.attempted += 1
        rc = None
        with self.stage(label) as timing:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.fm.cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
        if rc != 0:
            self.failed += 1
            print(f"featmeta {' '.join(argv)} exited with {rc}", file=sys.stderr)
            return None
        return timing

    def read_fit(self, out: Path, label: str) -> tuple[dict, np.ndarray]:
        """A fit's manifest and its (chains, samples, params) draws, checked
        by a reader of the benchmark's own."""
        manifest = json.loads((out / "manifest.json").read_text())
        for rel in manifest["outputs"]:
            self.check((out / rel).is_file(), f"{label}: {rel} is missing")
        header = "\t".join(["iteration"] + manifest["parameters"])
        draws = []
        for entry in manifest["chains"]:
            path = out / entry["file"]
            with path.open() as f:
                self.check(f.readline().rstrip("\n") == header,
                           f"{label}: {entry['file']} has another header")
            table = np.loadtxt(path, delimiter="\t", skiprows=1, ndmin=2)
            self.check(np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)),
                       f"{label}: {entry['file']} iterations are not 1..{table.shape[0]}")
            draws.append(table[:, 1:])
            self.record("diagnostics.chain_mb", _mb(path))
        return manifest, np.stack(draws)

    def fit_round(self, index: int) -> None:
        for dataset in range(len(self.inputs)):
            self.fit_one(index * len(self.inputs) + dataset, dataset)

    def fit_one(self, index: int, dataset: int) -> None:
        w = self.w
        out = self.work / f"fit{index}"  # always fresh: see FOUND (a) in CHANGES.md
        fit = self.command("fit", [
            "fit", "--data", str(self.inputs[dataset]), "--out", str(out),
            "--chains", str(w.chains), "--adapt", str(w.adapt),
            "--burn-in", str(w.burn_in), "--samples", str(w.samples),
            "--seed", str(self.mcmc_seed(index)),
        ])
        self.note_peak_rss()
        if fit is None:
            return
        label = f"fit {index}"
        try:
            manifest, draws = self.read_fit(out, label)
        except (OSError, ValueError, KeyError) as e:
            self.check(False, f"{label}: unreadable output: {e!r}")
            return
        ess = self.check_draws(
            draws, [c["accept_rate"] for c in manifest["chains"]], self.oracle(dataset),
            label,
        )
        self.add_fit(fit, ess)

        written = {name: (out / name).read_bytes()
                   for name in ("summary.tsv", "rhat_trace.tsv")}
        diagnose = []
        for _ in range(DIAGNOSE_REPEATS):
            timing = self.command("diagnose", ["diagnose", "--run", str(out)])
            if timing is None:
                continue
            diagnose.append(timing)
            self.record("diagnose_s", timing.seconds, timing.raw)
            for name, data in written.items():
                self.check((out / name).read_bytes() == data,
                           f"{label}: diagnose rewrote {name} differently")
        if diagnose:
            # The analysis a user runs: the fit, then one diagnose.
            self.record("study_s",
                        fit.seconds + statistics.median(t.seconds for t in diagnose),
                        fit.raw + statistics.median(t.raw for t in diagnose))
        shutil.rmtree(out)

    # -- recovery: the library in process, no files -------------------------

    def recovery_round(self, index: int) -> None:
        fm = self.fm
        w = self.w
        fits = []
        for k, dataset in enumerate(self.datasets):
            self.attempted += 1
            config = fm.McmcConfig(
                chains=w.chains, adapt=w.adapt, burn_in=w.burn_in,
                samples=w.samples, seed=self.mcmc_seed(index * len(self.datasets) + k),
            )
            outcome = None
            with self.stage("fit") as timing:
                try:
                    centered, _ = fm.center_covariates(dataset)
                    chains = fm.run_mcmc(centered, config, fm.PriorSpec())
                    outcome = chains, fm.summarize(chains)
                except Exception:  # a crash is a failed operation, not the end of the run
                    traceback.print_exc()
            if outcome is None:
                self.failed += 1
                continue
            fits.append((k, *outcome, timing))
        self.note_peak_rss()
        if len(fits) == len(self.datasets):
            # The loop's wall time, less the garbage collection before each fit.
            self.record("study_s", sum(t.seconds for *_, t in fits),
                        sum(t.raw for *_, t in fits))

        for k, chains, summaries, fit in fits:
            label = f"round {index} dataset {k}"
            self.attempted += 1
            with self.stage("diagnose") as timing:
                again = fm.summarize(chains)
                fm.shrink_factor_trace(chains)
            self.record("diagnose_s", timing.seconds, timing.raw)
            self.check(again == summaries, f"{label}: summaries differ on recomputation")
            ess = self.check_draws(
                np.stack([c.draws for c in chains]), [c.accept_rate for c in chains],
                self.oracle(k), label,
            )
            self.add_fit(fit, ess)
        self.last_chains = fits[-1][1] if fits else None

    def recovery_probe(self) -> None:
        """Traced only: the file layers recovery bypasses, on its own data."""
        fm = self.fm
        with self.span("probe"):
            for path, dataset in zip(self.inputs, self.datasets):
                self.check(fm.load_dataset(path) == dataset, f"{path.name} reloads differently")
            if self.last_chains is None:
                return
            probe = self.work / "probe"
            probe.mkdir()
            for chain in self.last_chains:
                path = probe / f"chain_{chain.chain_index + 1}.tsv"
                fm.write_chain_tsv(chain, path)
                self.record("diagnostics.chain_mb", _mb(path))
                back = fm.read_chain_tsv(path, chain_index=chain.chain_index)
                self.check(np.array_equal(back.draws, chain.draws),
                           f"{path.name} does not round-trip")

    # -- the run ------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        with self.meter:
            return self._run(seconds)

    def rounds(self, seconds: float) -> int:
        """Whole rounds that fill ``seconds`` at the reference speed. Fixed by
        the arguments, so a faster program does the same fits, not more."""
        return max(1, round(seconds / self.w.round_s))

    def _run(self, seconds: float) -> dict:
        self.setup()
        round_fn = self.recovery_round if self.name == "recovery" else self.fit_round
        if self.tracer:
            self.tracer.install()
        try:
            for index in range(self.rounds(seconds)):
                round_fn(index)
            if self.tracer and self.name == "recovery":
                self.recovery_probe()
        finally:
            if self.tracer:
                self.tracer.remove()
        self.check_loglik()
        if self.peak_rss_mb is not None:
            self.record("peak_rss_mb", self.peak_rss_mb)
        if self.tracer:
            self.layer_metrics()
        return self.result()

    def layer_metrics(self) -> None:
        """Per-layer figures from the spans, at the speed around each."""
        t = self.tracer

        def put(metric: str, seconds: float, span: int) -> None:
            s = t.spans[span]
            self.record(metric, seconds / self.meter.slowdown(s.start, s.end), seconds)

        for name, metric in (
            ("data.load_dataset", "data.load_s"),
            ("data.center_covariates", "data.center_s"),
            ("sampler.assemble", "sampler.assemble_s"),
            ("sampler.run_chain", "sampler.chain_s"),
            ("diagnostics.write_chain_tsv", "diagnostics.write_chain_s"),
            ("diagnostics.read_chain_tsv", "diagnostics.read_chain_s"),
            ("diagnostics.summarize", "diagnostics.summarize_s"),
            ("diagnostics.shrink_factor_trace", "diagnostics.rhat_trace_s"),
        ):
            for i in t.named(name):
                put(metric, t.duration(i), i)
        for i in t.named("sampler.run_chain"):
            put("sampler.iter_us", t.duration(i) / self.w.iterations * 1e6, i)
        for i in t.named("sampler.assemble"):
            put("sampler.assemble_self_s", t.self_time(i), i)
            children = t.children(i)
            for child, metric in (("covariance.build_within_covariance", "covariance.within_s"),
                                  ("design.trial_design_matrix", "design.matrix_s")):
                put(metric, sum(t.duration(c) for c in children if t.spans[c].name == child), i)
        for name, metric in (("fit", "cli.fit_self_s"), ("diagnose", "cli.diagnose_self_s")):
            for i in t.named(name):
                put(metric, t.self_time(i), i)

    def result(self) -> dict:
        wanted = PER_LAYER if self.tracer else END_TO_END
        metrics = {}
        for name, unit in wanted.items():
            values = self.samples.get(name)
            if not values:
                raise BenchError(f"no measurement of {name}: every operation failed")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_all(args) -> int:
    """Each workload of BENCHMARK.json in a fresh child process, one at a time."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="run the whole rounds that fill this much time at reference speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "featmeta" / "__init__.py").is_file():
        print(f"error: no featmeta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import featmeta
    import featmeta.cli  # noqa: F401  (the command-line entry point under test)

    # One core for the program, its set-ups and the speed meter, so the
    # meter samples the core the program runs on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = run_dir / "work"
    work.mkdir(parents=True)
    bench = Bench(featmeta, args.workload, args.seed, bool(args.trace), work)
    try:
        result = bench.run(args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if bench.tracer:
            bench.tracer.write(run_dir / "spans.jsonl")

    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {os.cpu_count()} cores (ran on {cpu}), "
          f"Python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"BLAS threads {BLAS_THREADS}; slowdown {bench.meter.slowdown():.3f} "
          f"against the reference speed (times below are at reference speed)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28}{metric['value']:>14.6g} {metric['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    line = json.dumps(result)
    (run_dir / "result.json").write_text(line + "\n")
    (run_dir / "samples.json").write_text(json.dumps(
        {"slowdown": bench.meter.samples, "samples": bench.samples, "raw": bench.raw}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
