"""In-memory span tracing around featmeta's public functions.

``Tracer.install`` replaces each named function, in every featmeta
module that refers to it, with a wrapper that records a span: name,
start, end and the index of the enclosing span. The program itself is
not modified; ``Tracer.remove`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Public functions on the paths that featmeta.cli and featmeta.sampler
# take. log_likelihood_marginal is absent on purpose: the chains call
# the density at every iteration, and it is timed in its own loop.
TRACED = {
    "featmeta.data": ("load_dataset", "center_covariates"),
    "featmeta.sampler": ("run_mcmc", "assemble", "run_chain"),
    "featmeta.covariance": ("build_within_covariance",),
    "featmeta.design": ("trial_design_matrix",),
    "featmeta.diagnostics": (
        "summarize", "shrink_factor_trace", "write_chain_tsv",
        "read_chain_tsv", "write_summary_tsv", "write_rhat_trace_tsv",
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "featmeta" or key.startswith("featmeta.")]
        for module_name, names in TRACED.items():
            layer = module_name.split(".")[1]
            for name in names:
                original = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def duration(self, index: int) -> float:
        return self.spans[index].end - self.spans[index].start

    def children(self, index: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == index]

    def self_time(self, index: int) -> float:
        """Duration minus that of the direct children (which never overlap)."""
        return self.duration(index) - sum(
            self.duration(i) for i in self.children(index)
        )

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
