#!/usr/bin/env python3
"""How well the speed meter's slowdown tracks a program on its core.

    python3 perfbench/meter_check.py --seconds 280

A stand-in for featmeta's sampler (a Metropolis loop over a 480x11
design, of the same shape as ``run_chain``) runs on the benchmark's core
next to the meter, in cycles of four phases: idle, the stand-in, idle
again, and the stand-in while it also streams a 64 MB array every 400
iterations (a larger working set). It prints, over the cycles:

- the spread (quartile distance over median) of the stand-in's wall time,
  raw and divided by the slowdown, with the window's samples reduced by
  their median, mean or harmonic mean;
- the meter's reading while the stand-in runs, over its reading while the
  core is idle, with and without the larger working set.

A divisor that tracks the program cuts the spread; one that the program's
own work moves shows a ratio away from 1. Nothing of featmeta is used.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from meter import MARGIN_S, SpeedMeter

REDUCERS = {
    "median": statistics.median,
    "mean": statistics.fmean,
    "harmonic": statistics.harmonic_mean,
}


def stand_in(iterations: int, stream: np.ndarray | None) -> None:
    rng = np.random.default_rng(5)
    x = rng.normal(size=(480, 11))
    y = x[:, 0] + rng.normal(size=480)
    lam = np.full(480, 0.7)
    step = np.random.default_rng(2)
    state = np.zeros(11)
    current = -math.inf
    for i in range(iterations):
        proposal = state + step.normal(size=11) * 0.01
        resid = y - x @ proposal
        lp = float(-0.5 * (np.sum(np.log(lam)) + np.sum(resid * resid / lam)))
        if step.random() < math.exp(min(lp - current, 0.0)):
            state, current = proposal, lp
        if stream is not None and i % 400 == 0:
            stream.sum()


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=280.0)
    parser.add_argument("--iterations", type=int, default=100_000,
                        help="stand-in iterations per phase")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # as run.py does
    big = np.ones(8_000_000)

    cycles = []
    with tempfile.TemporaryDirectory() as tmp:
        with SpeedMeter(Path(tmp) / "speed.txt") as meter:
            end = time.perf_counter() + args.seconds
            while time.perf_counter() < end or len(cycles) < 4:
                cycle = {}
                for phase in ("idle", "plain", "idle2", "stream"):
                    t0 = time.perf_counter()
                    if phase.startswith("idle"):
                        time.sleep(1.5)
                    else:
                        stand_in(args.iterations, big if phase == "stream" else None)
                    t1 = time.perf_counter()
                    meter.slowdown()  # takes in the samples written so far
                    window = [s for t, s in meter.samples if t0 - MARGIN_S <= t <= t1]
                    cycle[phase] = (t1 - t0, window)
                cycles.append(cycle)

    print(f"{len(cycles)} cycles")
    for phase in ("plain", "stream"):
        raw = [c[phase][0] for c in cycles]
        scaled = "  ".join(
            f"{name} {spread([c[phase][0] / f(c[phase][1]) for c in cycles]):.3f}"
            for name, f in REDUCERS.items()
        )
        print(f"{phase:<7} wall {statistics.median(raw):.3f} s  spread raw {spread(raw):.3f}  "
              f"divided by {scaled}")
    for name, f in REDUCERS.items():
        ratios = {
            phase: statistics.median(
                f(c[phase][1]) / ((f(c["idle"][1]) + f(c["idle2"][1])) / 2) for c in cycles
            )
            for phase in ("plain", "stream")
        }
        print(f"{name:<9} meter busy/idle: plain {ratios['plain']:.3f}  stream {ratios['stream']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
