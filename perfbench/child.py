"""One workload repetition in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The first statement imports the CLI, so the ``ready`` time it reports closes
the set-up interval that the parent opened when it launched the process.
Mode ``setup`` stops there.  Mode ``workload`` runs the spec's CLI argument
lists through ``fplogistic.cli.main`` one after another and records each
exit code and duration.  With ``trace`` set it records spans of every layer,
then times the operator and the weights storage on the workload's own
weights.  The result goes to ``result.json`` beside the spec.
"""

from fplogistic.cli import main as cli_main  # closes the set-up interval
import time  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def per_call_s(fn, batches: int = 5, batch_s: float = 0.1) -> float:
    """Median over batches of the mean time of one call of fn()."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= 0.02:
            break
        calls *= 2
    calls = max(1, round(calls * batch_s / elapsed))
    means = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append((time.perf_counter() - t0) / calls)
    return statistics.median(means)


def layer_probes(weights, seed: int, rep_dir: Path) -> dict:
    """Operator and weights-storage timings on the workload's own weights."""
    import numpy as np

    from fplogistic import (DiscreteFunction, apply_operator, gagliardo_energy,
                            load_weights, save_weights)

    kw, grid, params = weights
    u = DiscreteFunction(np.random.default_rng(seed).uniform(0.5, 1.5, grid.ncells),
                         grid)
    path = rep_dir / "probe_weights.npz"
    save_weights(path, kw, grid)
    return {
        "operator.apply_ms": 1e3 * per_call_s(lambda: apply_operator(u, kw, kw.p)),
        "operator.energy_ms": 1e3 * per_call_s(lambda: gagliardo_energy(u, kw, kw.p)),
        "operator.cells": grid.ncells,
        "kernel.save_s": per_call_s(lambda: save_weights(path, kw, grid)),
        "kernel.load_s": per_call_s(lambda: load_weights(path, grid, params)),
        "kernel.weights_bytes": kw.W.nbytes + kw.V.nbytes,
        "kernel.cache_bytes": path.stat().st_size,
    }


def run_commands(argvs: list[list[str]], rep_dir: Path, tracer=None) -> list[dict]:
    done = []
    with (rep_dir / "cli_stdout.txt").open("w") as log:
        for run_id, argv in enumerate(argvs):
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log):
                    if tracer is None:
                        code = cli_main(argv)
                    else:
                        tracer.run_id = run_id
                        code = tracer.call(f"cli.{argv[0]}", cli_main, argv)
            except Exception:
                code, error = None, traceback.format_exc()
            done.append({"command": argv[0], "code": code, "error": error,
                         "start": t0, "end": time.perf_counter()})
    return done


def main() -> int:
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text())
    rep_dir = spec_path.parent
    result = {"ready": READY}
    if spec["mode"] == "workload":
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                commands = run_commands(spec["argvs"], rep_dir, tracer)
            result["layers"] = tracing.layer_metrics(tracer)
            if tracer.last_weights is not None:
                result["layers"].update(
                    layer_probes(tracer.last_weights, spec["seed"], rep_dir))
            tracing.write_spans(tracer, rep_dir / "spans.csv")
        else:
            commands = run_commands(spec["argvs"], rep_dir)
            # ru_maxrss is in KiB on Linux
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["commands"] = commands
        result["wall_s"] = commands[-1]["end"] - commands[0]["start"]
    (rep_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
