"""Benchmark workloads, their generated inputs, and the reference-answer gate.

A workload is a fixed configuration plus the CLI commands run on it, one
after another, in one interpreter.  Its inputs are generated from the seed,
which becomes ``solver.seed``; the program sees only the config file.

Answers are read from each command's ``report.json`` and compared with the
answers recorded in ``references.json``.  Tolerances come from the solver
settings, never from run-to-run spread, and CSV bytes are not compared, so a
reordered sum or a different operator algorithm does not count as a miss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# run_suite brackets the superdiffusive threshold to this width.
VERIFY_BRACKET_TOL = 1e-2
# The solvers stop once the mass norm of the gradient is below residual_tol.
# Where the linearised operator at the solution has no eigenvalue of modulus
# below MU in the mass metric, the solution then lies within
# residual_tol / MU of the exact discrete one in the mass norm.  The
# workloads' principal eigenvalues lie between 11 and 53.
MU = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict[str, str]
    commands: tuple[tuple[str, ...], ...]  # subcommand and its own flags
    weights_cache: bool = False


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("verify_1d",
             {"dim": "1", "domain.lo": "0.0", "domain.hi": "1.0", "n": "64",
              "s": "0.4", "p": "2.0", "q": "1.5", "r": "3.0", "lam": "1.0"},
             (("verify", "--regime", "all"),)),
    Workload("assemble_2d",
             {"dim": "2", "domain.lo": "0.0,0.0", "domain.hi": "1.0,1.0",
              "n": "16", "s": "0.4", "p": "2.0", "q": "1.5", "r": "3.0",
              "lam": "1.0"},
             (("eigen",), ("solve",), ("torsion",)),
             weights_cache=True),
)}


def config_text(wl: Workload, seed: int) -> str:
    lines = [f"{key} = {value}" for key, value in wl.config.items()]
    lines.append(f"solver.seed = {seed}")
    return "\n".join(lines) + "\n"


def command_argvs(wl: Workload, rep_dir: Path) -> list[list[str]]:
    """CLI argument lists of the workload, writing under rep_dir."""
    argvs = []
    for i, (command, *flags) in enumerate(wl.commands):
        argv = [command, "--config", str(rep_dir / "workload.cfg"),
                "--out", str(rep_dir / f"out{i}_{command}"), *flags]
        if wl.weights_cache:
            argv += ["--weights-cache", str(rep_dir / "weights.npz")]
        argvs.append(argv)
    return argvs


def extract_answers(report: dict) -> dict:
    """The answers of one command, read from its report.json document.

    An answer the report lacks reads as None and fails its check.
    """
    command, res = report["command"], report["results"]
    if command == "eigen":
        return {"lambda1": res["lambda1"], "residual": res["residual"]}
    if command in ("solve", "torsion"):
        return {"status": res["status"], "sup_norm": res["sup_norm"],
                "residual": res["residual"]}
    if command == "verify":
        checks = {f"{c['regime']}/{c['name']}": c for c in res["checks"]}

        def witness(key: str) -> dict:
            return checks.get(key, {}).get("witness") or {}

        threshold = witness("super/threshold_above_lower_bound")
        # mountain_pass leaves no witness when it does not converge
        saddle = witness("super/saddle_between_zero_and_branch")
        return {"verdicts": {key: c["verdict"] for key, c in checks.items()},
                "lambda_star_h": threshold.get("lambda_star_h"),
                "bracket_width": threshold.get("bracket_width"),
                "sup_saddle": saddle.get("sup_v"),
                "saddle_residual": saddle.get("residual")}
    raise ValueError(f"no answers defined for command {command!r}")


def eigen_tol(p: float) -> float:
    """Residual tolerance principal_eigenpair uses by default."""
    return 1e-8 if p == 2.0 else 1e-6


def _coords(value) -> list[float]:
    return value if isinstance(value, list) else [value]


def sup_tol(config: dict) -> float:
    """How far apart the sup norms of two converged solutions may lie.

    Each is within residual_tol / MU of the exact discrete solution in the
    mass norm, and every cell has measure h, so |e_i| <= |e|_M / sqrt(h).
    """
    h = 1.0
    for lo, hi in zip(_coords(config["domain.lo"]), _coords(config["domain.hi"])):
        h *= (hi - lo) / config["n"]
    return 2.0 * config["solver.residual_tol"] / (MU * h ** 0.5)


def _close(errors: list[str], key: str, got, want: float, tol: float) -> None:
    if got is None or not abs(got - want) <= tol:
        errors.append(f"{key} = {got!r}, reference {want!r}, tolerance {tol:.3g}")


def _at_most(errors: list[str], key: str, got, bound: float) -> None:
    if got is None or not got <= bound:
        errors.append(f"{key} = {got!r} exceeds {bound:.3g}")


def check_answers(command: str, answers: dict, ref: dict, config: dict) -> list[str]:
    """Mismatches between answers and their reference; empty when they agree."""
    p, res_tol = config["p"], config["solver.residual_tol"]
    errors: list[str] = []
    if command == "eigen":
        tol = eigen_tol(p)
        # for p = 2 a residual r puts the Rayleigh quotient within r of lambda1
        _close(errors, "lambda1", answers["lambda1"], ref["lambda1"],
               2.0 * tol * max(1.0, abs(ref["lambda1"])))
        _at_most(errors, "residual", answers["residual"], tol)
    elif command in ("solve", "torsion"):
        if answers["status"] != ref["status"]:
            errors.append(f"status {answers['status']!r}, reference {ref['status']!r}")
        _close(errors, "sup_norm", answers["sup_norm"], ref["sup_norm"],
               sup_tol(config))
        _at_most(errors, "residual", answers["residual"], res_tol)
    elif command == "verify":
        if answers["verdicts"] != ref["verdicts"]:
            errors.append(f"verdicts {answers['verdicts']}, reference {ref['verdicts']}")
        # both brackets hold the discrete threshold and are at most this wide
        _close(errors, "lambda_star_h", answers["lambda_star_h"],
               ref["lambda_star_h"], VERIFY_BRACKET_TOL)
        _at_most(errors, "bracket_width", answers["bracket_width"], VERIFY_BRACKET_TOL)
        _close(errors, "sup_saddle", answers["sup_saddle"], ref["sup_saddle"],
               sup_tol(config))
        _at_most(errors, "saddle_residual", answers["saddle_residual"], res_tol)
    else:
        raise ValueError(f"no reference check for command {command!r}")
    return errors


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
