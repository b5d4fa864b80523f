"""The package calls the benchmark makes, run as perfbench/ makes them.

A traced benchmark run records (weights, grid, params) from every
``assemble(grid, params)`` and ``load_weights(path, grid, params)`` call of
the CLI (``perfbench/tracing.py``), and ``perfbench/child.py``'s
``layer_probes`` then times ``apply_operator``, ``gagliardo_energy``,
``save_weights`` and ``load_weights`` on them.  Each workload of
``perfbench/workloads.py`` must give the answers recorded in
``perfbench/references.json``.  The benchmark's files are not edited here:
they are loaded as they are, and only the timing loop is replaced by a
single call.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fplogistic.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PROBES = {"operator.apply_ms", "operator.energy_ms", "operator.cells",
          "kernel.save_s", "kernel.load_s", "kernel.weights_bytes",
          "kernel.cache_bytes"}

CFG = """\
s = 0.4
p = 2.0
q = 1.5
r = 3.0
lam = 1.0
"""


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks up the module it is defined in
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def child():
    return _load("child")


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 8)])
@pytest.mark.parametrize("source", ["assemble", "load"])
def test_layer_probes_run_on_the_recorded_weights(child, tracing, monkeypatch,
                                                  tmp_path, dim, n, source):
    def once(fn):
        fn()
        return 1.0

    monkeypatch.setattr(child, "per_call_s", once)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG + f"dim = {dim}\nn = {n}\n"
                   f"domain.lo = {','.join(['0.0'] * dim)}\n"
                   f"domain.hi = {','.join(['1.0'] * dim)}\n")
    argv = ["eigen", "--config", str(cfg),
            "--weights-cache", str(tmp_path / "weights.npz")]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        # the second run finds the cache the first one wrote
        for run in range(1 if source == "assemble" else 2):
            assert main([*argv, "--out", str(tmp_path / f"out{run}")]) == 0
    assert tracer.names.count(f"kernel.{source}") == 1

    kw, grid, params = tracer.last_weights
    assert kw.grid is grid and (params.s, params.p) == (kw.s, kw.p)
    probes = child.layer_probes(tracer.last_weights, 0, tmp_path)
    assert set(probes) == PROBES
    m = n ** dim
    assert probes["operator.cells"] == m == kw.ncells
    assert probes["kernel.weights_bytes"] == 8 * (m * m + m)
    assert probes["kernel.cache_bytes"] \
        == (tmp_path / "probe_weights.npz").stat().st_size
    assert probes["operator.apply_ms"] == probes["operator.energy_ms"] == 1e3


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["verify_1d", "assemble_2d"])
def test_workload_answers_match_the_references(workloads, tmp_path, name,
                                               seed):
    wl = workloads.WORKLOADS[name]
    (tmp_path / "workload.cfg").write_text(workloads.config_text(wl, seed))
    refs = workloads.load_references()[name]
    argvs = workloads.command_argvs(wl, tmp_path)
    assert len(argvs) == len(refs)
    for argv, ref in zip(argvs, refs):
        assert main(argv) == 0
        out = Path(argv[argv.index("--out") + 1])
        report = json.loads((out / "report.json").read_text())
        answers = workloads.extract_answers(report)
        assert workloads.check_answers(argv[0], answers, ref,
                                       report["config"]) == []
