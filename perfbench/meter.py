"""The machine's speed, sampled all through a run by a separate process.

The machines this benchmark runs on share cores with other tenants, and
their speed swings by tens of percent over seconds to minutes: a fit
that takes 6 s in one minute takes 8 s in the next. ``SpeedMeter``
starts this file as a child process that, every PERIOD_S, times a fixed
piece of work shaped like a Metropolis step (a small matrix-vector
product, array logs, scalar Python) in its own CPU time, and appends
the time to a file. The slowdown of a stage is the harmonic mean of
those times around it over REFERENCE_S; the benchmark divides the
stage's wall time by it, so its figures are seconds at a reference
speed. The samples are spaced evenly in time, and a fixed amount of
work takes the time-weighted harmonic mean of the slowdown, not the
median, so the harmonic mean tracks a stage best (README, Speed).

A process rather than a thread, so the sampling never waits on the
benchmark's interpreter lock; it takes about 3 % of one core.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.03
MARGIN_S = 0.3  # a stage also counts the samples this long before it
STEPS = 40
REFERENCE_S = 0.0013  # CPU seconds of one sample at the reference speed


class SpeedMeter:
    def __init__(self, path: Path):
        self.path = path
        self.samples: list[tuple[float, float]] = []  # (perf_counter, slowdown)
        self._proc = None
        self._file = None
        self._partial = ""

    def __enter__(self) -> "SpeedMeter":
        self.path.write_text("")
        self._proc = subprocess.Popen([sys.executable, __file__, str(self.path)])
        self._file = open(self.path)
        while not self._read():
            if self._proc.poll() is not None:
                raise RuntimeError("the speed meter exited at start")
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=10)
        self._read()
        self._file.close()
        self._file = None

    def _read(self) -> int:
        """Take in the samples written since the last call; how many."""
        if self._file is None:
            return 0
        lines = (self._partial + self._file.read()).split("\n")
        self._partial = lines.pop()  # a line the meter is still writing
        for line in lines:
            stamp, cpu = line.split()
            self.samples.append((float(stamp), float(cpu) / REFERENCE_S))
        return len(lines)

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Slowdown over [start - MARGIN_S, end]; the whole run by default."""
        self._read()
        window = []
        if start is not None:
            window = [s for t, s in self.samples if start - MARGIN_S <= t <= end]
        if not window:
            window = [s for _, s in self.samples]
        return len(window) / sum(1.0 / s for s in window)


def _sample_forever(path: str) -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 11))
    y = x[:, 0] + rng.normal(size=500)
    lam = np.full(500, 0.5)
    parent = os.getppid()
    with open(path, "a", buffering=1) as out:
        while os.getppid() == parent:  # ends with the benchmark, even if it dies
            time.sleep(PERIOD_S)
            t0 = time.process_time()
            step_rng = np.random.default_rng(1)
            state = np.zeros(11)
            current = -math.inf
            for _ in range(STEPS):
                proposal = state + step_rng.normal(size=11) * 0.01
                resid = y - x @ proposal
                lp = float(-0.5 * (np.sum(np.log(lam)) + np.sum(resid * resid / lam)))
                if step_rng.random() < math.exp(min(lp - current, 0.0)):
                    state, current = proposal, lp
            out.write(f"{time.perf_counter()!r} {time.process_time() - t0!r}\n")


if __name__ == "__main__":
    _sample_forever(sys.argv[1])
