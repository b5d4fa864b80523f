"""In-memory span tracing of fplogistic's layers, installed from outside.

``traced(tracer)`` replaces every module attribute of the loaded fplogistic
modules that is bound to a traced public function with a wrapper recording a
span (name, start, end, parent, run id), and puts the originals back on exit.
The Functional objects built by the logistic constructors are wrapped too, so
that each energy and gradient evaluation is its own span.  Spans live in
columnar arrays so that a run with a few hundred thousand evaluations stays
small; ``write_spans`` dumps them once the run has ended.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.runs = array("l")
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self.last_weights = None  # (KernelWeights, grid, params) last assembled or loaded
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _functional_maker(tracer: Tracer, fn):
    """Wrap a Functional constructor so its evaluations become spans."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        func = fn(*args, **kwargs)
        energy, gradient = func.energy, func.gradient
        return dataclasses.replace(
            func,
            energy=lambda v: tracer.call("logistic.energy", energy, v),
            gradient=lambda v: tracer.call("logistic.grad", gradient, v))
    return wrapper


def _weights_seen(tracer: Tracer, args, kw) -> None:
    # grid and params of assemble(grid, params) / load_weights(path, grid, params)
    tracer.last_weights = (kw, args[-2], args[-1])


def _count_iterations(key: str):
    def after(tracer: Tracer, args, report) -> None:
        tracer.count(key, report.iterations)
    return after


def _count_checks(tracer: Tracer, args, results) -> None:
    tracer.count("verify.checks", len(results))
    tracer.count("verify.failed", sum(r.passed is False for r in results))


# (defining module, attribute, span name, hook run on the result)
SPANNED = [
    ("fplogistic.kernel", "assemble", "kernel.assemble", _weights_seen),
    ("fplogistic.kernel", "save_weights", "kernel.save", None),
    ("fplogistic.kernel", "load_weights", "kernel.load", _weights_seen),
    ("fplogistic.eigen", "principal_eigenpair", "eigen.principal_eigenpair",
     _count_iterations("eigen.iterations")),
    ("fplogistic.solve", "minimize", "solve.minimize",
     _count_iterations("solve.iterations")),
    ("fplogistic.solve", "torsion_solve", "solve.torsion_solve", None),
    ("fplogistic.solve", "solve_branch_point", "solve.solve_branch_point", None),
    ("fplogistic.solve", "detect_threshold", "solve.detect_threshold", None),
    ("fplogistic.solve", "mountain_pass", "solve.mountain_pass",
     _count_iterations("solve.mp_iterations")),
    ("fplogistic.verify", "run_suite", "verify.run_suite", _count_checks),
    ("fplogistic.config", "write_report", "config.write_report", None),
    ("fplogistic.config", "write_solution_csv", "config.write_solution_csv", None),
    ("fplogistic.config", "write_branch_csv", "config.write_branch_csv", None),
]
FUNCTIONAL_MAKERS = [
    ("fplogistic.logistic", "phi_functional"),
    ("fplogistic.logistic", "truncated_functional"),
    ("fplogistic.logistic", "torsion_functional"),
]


def _package_modules():
    import fplogistic.cli  # noqa: F401  (loads every module the CLI binds)
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "fplogistic" or name.startswith("fplogistic.")]


@contextmanager
def traced(tracer: Tracer):
    """Route the traced functions through span wrappers; restore on exit."""
    modules = _package_modules()
    replacements = {}
    for modname, attr, span, after in SPANNED:
        original = getattr(sys.modules[modname], attr)
        replacements[id(original)] = (original, _spanned(tracer, span, original, after))
    for modname, attr in FUNCTIONAL_MAKERS:
        original = getattr(sys.modules[modname], attr)
        replacements[id(original)] = (original, _functional_maker(tracer, original))
    patched = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((mod, key, value))
                setattr(mod, key, hit[1])
    try:
        yield tracer
    finally:
        for mod, key, original in patched:
            setattr(mod, key, original)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    Spans come from one stack per process, so children are disjoint and
    lie inside their parent.
    """
    own = [ends[i] - starts[i] for i in range(len(starts))]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[idx] - starts[idx]
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts from the spans and counters of one run."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    n = len(names)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    solve_parent = [-1] * n     # nearest enclosing solve-layer span
    in_threshold = [False] * n  # inside detect_threshold
    in_mp = [False] * n         # inside mountain_pass
    for i in range(n):
        name = names[i]
        total[name] = total.get(name, 0.0) + (ends[i] - starts[i])
        calls[name] = calls.get(name, 0) + 1
        p = parents[i]
        if p >= 0:
            solve_parent[i] = p if names[p].startswith("solve.") else solve_parent[p]
            in_threshold[i] = in_threshold[p] or names[p] == "solve.detect_threshold"
            in_mp[i] = in_mp[p] or names[p] == "solve.mountain_pass"

    energy_in_minimize = sum(
        1 for i in range(n) if names[i] == "logistic.energy"
        and solve_parent[i] >= 0 and names[solve_parent[i]] == "solve.minimize")
    own = self_times(starts, ends, parents)
    counts = tracer.counts
    iterations = counts.get("solve.iterations", 0)
    return {
        "kernel.assemble_s": total.get("kernel.assemble", 0.0),
        "kernel.assemble_calls": calls.get("kernel.assemble", 0),
        "kernel.flow_save_s": total.get("kernel.save", 0.0),
        "kernel.flow_load_s": total.get("kernel.load", 0.0),
        "logistic.energy_calls": calls.get("logistic.energy", 0),
        "logistic.grad_calls": calls.get("logistic.grad", 0),
        "logistic.energy_s": total.get("logistic.energy", 0.0),
        "logistic.grad_s": total.get("logistic.grad", 0.0),
        "eigen.calls": calls.get("eigen.principal_eigenpair", 0),
        "eigen.iterations": counts.get("eigen.iterations", 0),
        "eigen.s": total.get("eigen.principal_eigenpair", 0.0),
        "solve.minimize_calls": calls.get("solve.minimize", 0),
        "solve.iterations": iterations,
        "solve.accept_ratio": (iterations / energy_in_minimize
                               if energy_in_minimize else 0.0),
        "solve.threshold_s": total.get("solve.detect_threshold", 0.0),
        "solve.threshold_probes": sum(
            1 for i in range(n) if names[i] == "solve.minimize" and in_threshold[i]),
        "solve.mp_s": total.get("solve.mountain_pass", 0.0),
        "solve.mp_iterations": counts.get("solve.mp_iterations", 0),
        "solve.mp_energy_calls": sum(
            1 for i in range(n) if names[i] == "logistic.energy" and in_mp[i]),
        "solve.self_s": sum(own[i] for i in range(n) if names[i].startswith("solve.")),
        "verify.suite_s": total.get("verify.run_suite", 0.0),
        "verify.checks": counts.get("verify.checks", 0),
        "verify.failed": counts.get("verify.failed", 0),
        "config.io_s": sum(t for name, t in total.items() if name.startswith("config.")),
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "name", "start", "end", "parent", "run"])
        for i, name in enumerate(tracer.names):
            writer.writerow([i, name, repr(tracer.starts[i]), repr(tracer.ends[i]),
                             tracer.parents[i], tracer.runs[i]])
