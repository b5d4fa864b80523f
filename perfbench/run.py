"""fplogistic benchmark: CLI time-to-answer on fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's CLI commands in a closed loop: each
repetition is a fresh interpreter started on an empty directory with no
weights cache, and the next one starts only after it ends.  Another round
of repetitions starts while at least half of it fits in S seconds, judged by
the median round so far, so that runs last S seconds on average; there is
always at least one round.  Every command's answers are checked against
``references.json``.

The work a command does depends on ``solver.seed`` through its random
starts: on verify_1d, seeds 0 to 9 take from 17k to 32k gradient calls.
So repetition k of an untraced run gets ``solver.seed`` =
1000 * SEED + k, and the run's median covers several seeds, not one.  A
traced run keeps k = 0 for every repetition, so that its counts repeat
exactly.  Without tracing, each round starts with two set-up
probes.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s`` (first
command start to last command end), ``setup_s`` (interpreter start to the
end of importing the CLI, in the repetitions and the probes) and
``peak_rss_mb``, each the median over the run's samples.  With ``--trace 1``
untraced and traced repetitions alternate and the result holds the per-layer
metrics of the traced ones, plus ``trace.overhead_s``, the traced minus the
untraced median wall time.

The last line of standard output is the result object; the line before it
is a JSON document with the samples, per-command times, reference checks and
the environment, also written under ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import (WORKLOADS, check_answers, command_argvs, config_text,
                       extract_answers, load_references)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
SETUP_PROBES_PER_ROUND = 2
SEED_STRIDE = 1000  # solver seeds of one run never meet those of another
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "kernel.assemble_s": "s", "kernel.assemble_calls": "count",
    "kernel.save_s": "s", "kernel.load_s": "s",
    "kernel.weights_bytes": "B", "kernel.cache_bytes": "B",
    "operator.apply_ms": "ms", "operator.energy_ms": "ms", "operator.cells": "count",
    "logistic.energy_calls": "count", "logistic.grad_calls": "count",
    "logistic.energy_s": "s", "logistic.grad_s": "s",
    "eigen.calls": "count", "eigen.iterations": "count", "eigen.s": "s",
    "solve.minimize_calls": "count", "solve.iterations": "count",
    "solve.accept_ratio": "ratio", "solve.threshold_probes": "count",
    "solve.mp_iterations": "count", "solve.mp_energy_calls": "count",
    "solve.self_s": "s",
    "verify.checks": "count", "verify.failed": "count",
    "config.io_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("FPLOG_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({name: "1" for name in THREAD_VARS})
    return env


def launch(spec: dict, rep_dir: Path) -> tuple[dict, float]:
    """Run child.py on spec in rep_dir; return its result and set-up time."""
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                          env=child_env(), cwd=rep_dir, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads((rep_dir / "result.json").read_text())
    return result, result["ready"] - t0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_probe() -> float:
    _, setup = launch({"mode": "setup"}, fresh_dir(WORK / "rep"))
    return setup


def run_rep(name: str, seed: int, trace: bool, refs: dict) -> dict:
    """One repetition of a workload from a fresh state, answers checked."""
    wl = WORKLOADS[name]
    rep_dir = fresh_dir(WORK / "rep")
    (rep_dir / "workload.cfg").write_text(config_text(wl, seed))
    argvs = command_argvs(wl, rep_dir)
    result, setup = launch({"mode": "workload", "argvs": argvs, "trace": trace,
                            "seed": seed}, rep_dir)
    for i, (argv, cmd) in enumerate(zip(argvs, result["commands"])):
        cmd["seconds"] = cmd.pop("end") - cmd.pop("start")
        if cmd["code"] != 0:
            cmd["errors"] = [f"exit code {cmd['code']}"]
            continue
        report = json.loads((Path(argv[argv.index("--out") + 1]) / "report.json").read_text())
        cmd["answers"] = extract_answers(report)
        cmd["errors"] = (check_answers(cmd["command"], cmd["answers"],
                                       refs[name][i], report["config"])
                         if refs is not None else [])
    result["setup_s"] = setup
    return result


def percentile_summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return out


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    model = None
    cpuinfo = _read_text("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_text(str(index / f)) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "child_thread_vars": {name: "1" for name in THREAD_VARS},
        "byte_figures": "computed from array and file sizes, not measured "
                        "bandwidth; the 2 MiB dense W at n=512 fits in L2",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fplogistic" / "cli.py").is_file():
        print(f"error: no fplogistic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = load_references()
    trace = bool(args.trace)

    start = time.perf_counter()
    setup_probe()  # untimed: fills the bytecode cache a user's second call finds
    setups, reps, round_seconds = [], [], []
    order = [False, True] if trace else [False]
    while True:
        t0 = time.perf_counter()
        if not trace:
            # spread over the run so one slow moment of the host weighs less
            setups += [setup_probe() for _ in range(SETUP_PROBES_PER_ROUND)]
        for traced_rep in order:
            solver_seed = SEED_STRIDE * args.seed + (0 if trace else len(reps))
            reps.append((traced_rep, run_rep(args.workload, solver_seed, traced_rep, refs)))
        round_seconds.append(time.perf_counter() - t0)
        if (time.perf_counter() - start + 0.5 * statistics.median(round_seconds)
                > args.seconds):
            break

    plain = [rep for traced_rep, rep in reps if not traced_rep]
    traced = [rep for traced_rep, rep in reps if traced_rep]
    setups += [rep["setup_s"] for rep in plain]
    commands = [cmd for _, rep in reps for cmd in rep["commands"]]
    failed = sum(1 for cmd in commands if cmd["errors"])
    walls = [rep["wall_s"] for rep in plain]

    if trace:
        values = {key: statistics.median(rep["layers"][key] for rep in traced)
                  for key in PER_LAYER_UNITS if key != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(rep["wall_s"] for rep in traced)
                                      - statistics.median(walls))
        units = PER_LAYER_UNITS
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain)}
        units = END_TO_END_UNITS

    per_command: dict[str, list[float]] = {}
    for cmd in (cmd for rep in plain for cmd in rep["commands"]):
        per_command.setdefault(f"{cmd['command']}_s", []).append(cmd["seconds"])
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "loop": "closed, one client, no threads; one fresh interpreter per repetition",
        "round_seconds": round_seconds,
        "wall_s": percentile_summary(walls),
        "setup_s": percentile_summary(setups),
        "commands": {key: percentile_summary(v) for key, v in per_command.items()},
        "fail_ratio": {"failed": failed, "attempted": len(commands)},
        "failures": [{"command": cmd["command"], "errors": cmd["errors"],
                      "error": cmd.get("error")} for cmd in commands if cmd["errors"]],
        "answers": [cmd.get("answers") for cmd in plain[0]["commands"]],
        "layers": [rep["layers"] for rep in traced],
    }
    detail_line = json.dumps(detail, sort_keys=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        detail_line + "\n")
    print(detail_line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
