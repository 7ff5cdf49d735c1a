"""Workload inputs: the recovery schema, simulated from the workload seed.

Run as a script, it is one set-up of a workload: import featmeta, then
simulate and save the workload's datasets. It prints a JSON object of
its timings, so the benchmark can repeat set-up in fresh interpreters:

    python3 perfbench/inputs.py --workload fit150 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Workload:
    trials: int  # per dataset
    datasets: int
    adapt: int
    burn_in: int
    samples: int
    round_s: float  # one round (every dataset once) at the reference speed
    chains: int = 4

    @property
    def iterations(self) -> int:
        """Iterations per chain."""
        return self.adapt + self.burn_in + self.samples


# fit150 runs the paper's default protocol; fit1500 and recovery the
# acceptance-gate protocol of criterion 5 and scripts/recovery_study.py.
# How well a dataset mixes varies from dataset to dataset, so each
# workload fits more than one; a round fits each of them once.
WORKLOADS = {
    "fit150": Workload(150, 2, 10_000, 10_000, 20_000, round_s=19.0),
    "fit1500": Workload(1500, 2, 2_000, 2_000, 5_000, round_s=10.0),
    "recovery": Workload(150, 6, 2_000, 2_000, 5_000, round_s=9.0),
}


def sim_config(workload: str, seed: int, index: int):
    """Generator settings of dataset ``index`` of a workload."""
    from featmeta import (
        CovariateSchema, Factor, ParameterVector, SimConfig,
    )

    schema = CovariateSchema(
        n=4, p=1, q=3,
        interactions=(
            (Factor("intervention", 0), Factor("study", 0)),
            (Factor("intervention", 1), Factor("followup", 0)),
        ),
    )
    truth = ParameterVector(
        alpha=-0.04,
        beta=(0.004, 0.01, -0.02, 0.003),
        gamma=(-0.035,),
        phi=(-0.0085, -0.007),
        eta=(0.089, 0.04),
        tau=0.05,
    )
    return SimConfig(
        schema=schema,
        params=truth,
        n_trials=WORKLOADS[workload].trials,
        seed=1000 * seed + index,
        control_fraction=0.5,
        max_coded_arms=3,
    )


def input_paths(workload: str, out: Path) -> list[Path]:
    return [out / f"data{i}.json" for i in range(WORKLOADS[workload].datasets)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import featmeta

    simulate_s = save_s = 0.0
    for i, path in enumerate(input_paths(args.workload, out)):
        t0 = time.perf_counter()
        dataset = featmeta.simulate_dataset(sim_config(args.workload, args.seed, i))
        t1 = time.perf_counter()
        featmeta.save_dataset(dataset, path)
        t2 = time.perf_counter()
        simulate_s += t1 - t0
        save_s += t2 - t1
    setup_s = time.perf_counter() - started
    print(json.dumps({
        "setup_s": setup_s, "simulate_s": simulate_s, "save_s": save_s,
        "featmeta": featmeta.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
