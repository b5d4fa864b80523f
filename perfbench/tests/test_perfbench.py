"""Fast checks of the benchmark's own machinery (tracing, inputs, answer gate)."""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from workloads import (WORKLOADS, check_answers, config_text,  # noqa: E402
                       extract_answers, load_references, sup_tol)

from fplogistic.cli import main as cli_main  # noqa: E402
from fplogistic.config import load_config, to_problem  # noqa: E402

TINY_CFG = """\
dim = 1
s = 0.4
p = 2.0
q = 1.5
r = 3.0
lam = 1.0
n = 12
domain.lo = 0.0
domain.hi = 1.0
solver.seed = 5
"""


def _bindings():
    return {(mod.__name__, key): value
            for mod in tracing._package_modules()
            for key, value in vars(mod).items() if callable(value)}


def test_wrappers_restore_originals():
    import fplogistic.cli
    import fplogistic.solve

    before = _bindings()
    with tracing.traced(tracing.Tracer()):
        assert fplogistic.cli.assemble is not before[("fplogistic.cli", "assemble")]
        assert fplogistic.solve.minimize is not before[("fplogistic.solve", "minimize")]
        assert (fplogistic.solve.phi_functional
                is not before[("fplogistic.solve", "phi_functional")])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _run_cli(out: Path, cfg: Path, tracer=None) -> None:
    argvs = [["eigen", "--weights-cache", str(out / "w.npz")],
             ["solve", "--weights-cache", str(out / "w.npz")],
             ["torsion"],
             ["verify", "--regime", "sub"]]
    out.mkdir()
    for i, argv in enumerate(argvs):
        argv = [*argv, "--config", str(cfg), "--out", str(out / f"o{i}")]
        if tracer is None:
            assert cli_main(argv) == 0
        else:
            with tracing.traced(tracer):
                assert cli_main(argv) == 0


def _outputs(out: Path) -> dict:
    files = {}
    for path in sorted(out.rglob("*")):
        if path.suffix == ".csv":
            files[path.relative_to(out)] = path.read_bytes()
        elif path.name == "report.json":
            doc = json.loads(path.read_text())
            doc.pop("created")
            files[path.relative_to(out)] = doc
    return files


def test_traced_run_matches_untraced_and_repeats_counts(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    _run_cli(tmp_path / "plain", cfg)
    tracers = [tracing.Tracer(), tracing.Tracer()]
    for k, tracer in enumerate(tracers):
        _run_cli(tmp_path / f"traced{k}", cfg, tracer)
    plain = _outputs(tmp_path / "plain")
    assert len(plain) == 4 + 3 + 3  # reports, solution tables, verify witnesses
    assert _outputs(tmp_path / "traced0") == plain

    first, second = (tracing.layer_metrics(t) for t in tracers)
    counts = [key for key in first
              if key.endswith(("_calls", "iterations", "_probes", "checks", "failed"))]
    assert {key: first[key] for key in counts} == {key: second[key] for key in counts}
    assert first["kernel.assemble_calls"] == 3  # all but solve, which reads the cache
    assert first["eigen.calls"] >= 3 and first["verify.checks"] == 3
    assert first["logistic.energy_calls"] > first["solve.iterations"] > 0
    assert 0.0 < first["solve.accept_ratio"] <= 1.0


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children [1, 3] and [4, 9]; [1, 3] has a child [1.5, 2.5]
    starts = array("d", [0.0, 1.0, 4.0, 1.5])
    ends = array("d", [10.0, 3.0, 9.0, 2.5])
    parents = array("l", [-1, 0, 0, 1])
    assert tracing.self_times(starts, ends, parents) == pytest.approx(
        [10.0 - 2.0 - 5.0, 2.0 - 1.0, 5.0, 1.0])


def test_span_records_name_parent_and_run(tmp_path):
    tracer = tracing.Tracer()
    tracer.run_id = 3
    tracer.call("outer", tracer.call, "inner", lambda: None)
    assert tracer.names == ["outer", "inner"]
    assert list(tracer.parents) == [-1, 0] and list(tracer.runs) == [3, 3]
    assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] <= tracer.ends[0]
    tracing.write_spans(tracer, tmp_path / "spans.csv")
    assert (tmp_path / "spans.csv").read_text().splitlines()[0] == \
        "span,name,start,end,parent,run"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_parse(tmp_path, name):
    path = tmp_path / "workload.cfg"
    path.write_text(config_text(WORKLOADS[name], seed=11))
    cfg = load_config(path)
    params, grid = to_problem(cfg)
    assert cfg.solver_seed == 11
    assert grid.n == int(WORKLOADS[name].config["n"])
    assert len(load_references()[name]) == len(WORKLOADS[name].commands)


def test_benchmark_json_lists_the_workloads_and_metrics():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS


def _report_config(name: str) -> dict:
    wl = WORKLOADS[name]
    config = {key: [float(v) for v in value.split(",")] if "," in value else float(value)
              for key, value in wl.config.items() if key in ("p", "domain.lo", "domain.hi")}
    return {**config, "n": int(wl.config["n"]), "solver.residual_tol": 1e-8}


def test_reference_gate_flags_moved_answers():
    config = _report_config("assemble_2d")
    ref = load_references()["assemble_2d"][1]  # solve
    tol = sup_tol(config)
    near = {**ref, "sup_norm": ref["sup_norm"] + 0.5 * tol}
    assert check_answers("solve", near, ref, config) == []
    moved = {**ref, "sup_norm": ref["sup_norm"] + 2.0 * tol}
    assert len(check_answers("solve", moved, ref, config)) == 1
    stalled = {**ref, "status": "max_iters", "residual": 1e-6}
    assert len(check_answers("solve", stalled, ref, config)) == 2

    config = _report_config("verify_1d")
    vref = load_references()["verify_1d"][0]
    flipped = {**vref, "verdicts": {**vref["verdicts"], "sub/strict_order": "FAIL"}}
    assert len(check_answers("verify", flipped, vref, config)) == 1
    assert check_answers("verify", vref, vref, config) == []

    # what run_suite reports when the saddle search does not converge: no
    # super/strict_order check and a saddle check skipped without a witness
    witnesses = {"super/threshold_above_lower_bound": {
        "lambda_star_h": vref["lambda_star_h"], "bracket_width": vref["bracket_width"]}}
    checks = [{"regime": key.split("/")[0], "name": key.split("/")[1],
               "verdict": verdict, "witness": witnesses.get(key, {})}
              for key, verdict in vref["verdicts"].items() if key != "super/strict_order"]
    saddle = next(c for c in checks if c["name"] == "saddle_between_zero_and_branch")
    saddle["verdict"] = "SKIP"
    answers = extract_answers({"command": "verify", "results": {"checks": checks}})
    assert answers["sup_saddle"] is None and answers["saddle_residual"] is None
    errors = check_answers("verify", answers, vref, config)
    assert len(errors) == 3  # verdicts, saddle sup norm, saddle residual
