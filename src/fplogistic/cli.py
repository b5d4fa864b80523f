"""Command-line interface.

Subcommands cover the eigenvalue, torsion, single solves, branch sweeps,
threshold detection, the saddle search, verification bundles, and
refinement studies.  Configuration comes from a key=value file overridden
by FPLOG_ environment variables and then by flags.  Exit codes: 0 success
or all checks passing, 1 validation error (bad usage, configuration, or
parameters), 2 solver non-convergence or an unusable weights cache,
3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .config import (ConfigError, RunConfig, load_config, positive_float,
                     to_problem, write_branch_csv, write_report,
                     write_solution_csv)
from .domain import GridError, ParamError, classify_regime
from .eigen import EigenError, EigenOptions, principal_eigenpair
from .kernel import KernelError, assemble, load_weights, save_weights
from .solve import (BranchPoint, SolveOptions, SolverError, Status,
                    detect_threshold, mountain_pass, solve_branch_point,
                    torsion_solve)
from .verify import refinement_study, run_suite

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fplogistic",
        description="Nonlocal logistic solver and verification harness.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="key=value configuration file")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    common.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides output.dir)")
    common.add_argument("--weights-cache", type=Path, default=None,
                        help="npz file holding assembled kernel weights")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("eigen", parents=[common],
                   help="principal eigenpair of the nonlocal operator")
    sub.add_parser("torsion", parents=[common],
                   help="solve the unit-source barrier problem")
    sub.add_parser("solve", parents=[common],
                   help="solve the logistic problem at the configured intensity")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="solve along a list of intensities")
    p_sweep.add_argument("--lams", type=str, default=None,
                         help="comma-separated intensities; default halves "
                              "lam six times")
    sub.add_parser("threshold", parents=[common],
                   help="bracket the smallest solvable intensity")
    sub.add_parser("mountain-pass", parents=[common],
                   help="search for the second solution below the branch")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the structural checks for a regime")
    p_verify.add_argument("--regime", choices=["sub", "equi", "super", "all"],
                          default=None,
                          help="override q and r to canonical values for the "
                               "chosen regime; default uses the configured q")
    p_ref = sub.add_parser("refine", parents=[common],
                           help="grid refinement study")
    p_ref.add_argument("--ns", type=str, default="32,64,128",
                       help="comma-separated grid sizes")
    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        out[key.strip()] = raw.strip()
    return out


def _parse_list(raw: str, flag: str, parse) -> list:
    try:
        return [parse(part) for part in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: bad value {raw!r} ({exc})") from exc


def _get_weights(args, grid, params):
    cache = args.weights_cache
    if cache is not None and cache.exists():
        return load_weights(cache, grid, params)
    kw = assemble(grid, params)
    if cache is not None:
        save_weights(cache, kw, grid)
    return kw


def _solve_options(cfg: RunConfig) -> SolveOptions:
    return SolveOptions(
        residual_tol=cfg.solver_residual_tol,
        max_iters=cfg.solver_max_iters,
        seed=cfg.solver_seed,
        initial=cfg.solver_initial,
    )


def _eigen_options(cfg: RunConfig) -> EigenOptions:
    return EigenOptions(seed=cfg.solver_seed, restarts=cfg.eigen_restarts)


def _run(args) -> int:
    cfg = load_config(args.config, env=dict(os.environ),
                      flags=_parse_overrides(args.set))
    params, grid = to_problem(cfg)
    outdir = args.out if args.out is not None else Path(cfg.output_dir)
    opts = _solve_options(cfg)
    command = args.command

    if command == "refine":
        return _run_refine(args, cfg, params, opts, outdir)
    if command == "threshold" and params.q <= params.p:
        raise ConfigError(f"threshold needs q > p, got q = {params.q}, "
                          f"p = {params.p}")

    kw = _get_weights(args, grid, params)
    # one eigenpair, solved with the configured options, serves the command:
    # the eigen start of every solve that starts cold and the threshold walk
    ep = None
    if command in ("eigen", "threshold", "verify") or (
            command != "torsion" and opts.initial == "eigen"):
        ep = principal_eigenpair(kw, grid, params.p, _eigen_options(cfg))

    if command == "eigen":
        print(f"lambda1 = {ep.lambda1!r}  residual = {ep.residual:.3e}  "
              f"iterations = {ep.iterations}")
        outdir.mkdir(parents=True, exist_ok=True)
        write_solution_csv(outdir / "eigen.csv", grid, ep.u1.values, params.s)
        write_report(outdir, cfg, command,
                     {"lambda1": ep.lambda1, "residual": ep.residual,
                      "iterations": ep.iterations,
                      "restarts_agreement": ep.restarts_agreement,
                      "discarded_restarts": ep.discarded_restarts})
        return 0

    if command == "torsion":
        rep = torsion_solve(kw, grid, params.p, opts)
        print(f"sup = {rep.u.sup_norm()!r}  residual = {rep.residual:.3e}  "
              f"iterations = {rep.iterations}")
        outdir.mkdir(parents=True, exist_ok=True)
        write_solution_csv(outdir / "solution.csv", grid, rep.u.values, params.s)
        write_report(outdir, cfg, command,
                     {"sup_norm": rep.u.sup_norm(), "energy": rep.energy,
                      "residual": rep.residual, "iterations": rep.iterations,
                      "status": rep.status.value})
        return 0

    if command == "solve":
        rep = solve_branch_point(cfg.lam, None, params, kw, grid, opts,
                                 eigen=ep)
        print(f"status = {rep.status.value}  sup = {rep.u.sup_norm()!r}  "
              f"residual = {rep.residual:.3e}  iterations = {rep.iterations}")
        outdir.mkdir(parents=True, exist_ok=True)
        write_solution_csv(outdir / "solution.csv", grid, rep.u.values, params.s)
        write_report(outdir, cfg, command,
                     {"lam": cfg.lam, "status": rep.status.value,
                      "sup_norm": rep.u.sup_norm(), "energy": rep.energy,
                      "residual": rep.residual, "iterations": rep.iterations})
        return 0 if rep.status is not Status.MAX_ITERS else 2

    if command == "sweep":
        if args.lams is not None:
            lams = sorted(_parse_list(args.lams, "--lams", positive_float))
        else:
            lams = sorted(cfg.lam * 2.0 ** (-k) for k in range(7))
        points = []
        warm = None
        for lam in lams:
            rep = solve_branch_point(lam, warm, params, kw, grid, opts,
                                     eigen=ep)
            if rep.status is Status.CONVERGED:
                warm = rep.u
            points.append(BranchPoint(lam=lam, sup_norm=rep.u.sup_norm(),
                                      energy=rep.energy,
                                      status=rep.status.value))
            print(f"lam={lam!r} sup={rep.u.sup_norm()!r} "
                  f"status={rep.status.value}")
        outdir.mkdir(parents=True, exist_ok=True)
        write_branch_csv(outdir / "branch.csv", points)
        write_report(outdir, cfg, command,
                     {"points": [{"lambda": pt.lam, "sup_norm": pt.sup_norm,
                                  "energy": pt.energy, "status": pt.status}
                                 for pt in points]})
        capped = any(pt.status == Status.MAX_ITERS.value for pt in points)
        return 2 if capped else 0

    if command == "threshold":
        thr = detect_threshold(params, kw, grid, opts,
                               bracket_tol=cfg.threshold_bracket_tol,
                               lambda_high=cfg.threshold_lambda_high,
                               eigen=ep)
        print(f"lambda_star_h = {thr.lambda_star_h!r}  "
              f"lambda_0 = {thr.lambda_0!r}  "
              f"bracket_width = {thr.bracket_width!r}")
        outdir.mkdir(parents=True, exist_ok=True)
        write_branch_csv(outdir / "branch.csv", thr.branch)
        write_solution_csv(outdir / "solution.csv", grid, thr.u_star.values,
                           params.s)
        write_report(outdir, cfg, command,
                     {"lambda_star_h": thr.lambda_star_h,
                      "lambda_0": thr.lambda_0,
                      "bracket_width": thr.bracket_width,
                      "sup_norm": thr.u_star.sup_norm()})
        return 0

    if command == "mountain-pass":
        rep = solve_branch_point(cfg.lam, None, params, kw, grid, opts,
                                 eigen=ep)
        if rep.status is not Status.CONVERGED:
            raise SolverError(
                f"no branch solution at lam = {cfg.lam:.6g} to anchor the "
                f"saddle search (status {rep.status.value})")
        mp = mountain_pass(cfg.lam, params, kw, grid, rep.u, opts)
        print(f"status = {mp.status.value}  sup_saddle = {mp.u.sup_norm()!r}  "
              f"sup_branch = {rep.u.sup_norm()!r}  "
              f"residual = {mp.residual:.3e}")
        outdir.mkdir(parents=True, exist_ok=True)
        write_solution_csv(outdir / "solution.csv", grid, rep.u.values, params.s)
        write_solution_csv(outdir / "saddle.csv", grid, mp.u.values, params.s)
        write_report(outdir, cfg, command,
                     {"lam": cfg.lam, "status": mp.status.value,
                      "sup_branch": rep.u.sup_norm(),
                      "sup_saddle": mp.u.sup_norm(),
                      "residual": mp.residual, "iterations": mp.iterations})
        return 0 if mp.status is not Status.MAX_ITERS else 2

    if command == "verify":
        return _run_verify(args, cfg, params, grid, kw, opts, outdir, ep)

    raise ConfigError(f"unknown command {command!r}")


def _canonical_regime_params(base, regime: str):
    """Shift q and r relative to p to force the requested regime.

    The super r = p + 2 reaches p_star = N p / (N - p s) whenever
    p s <= 2N / (p + 2), which in 2D holds for every valid p = 2 problem.
    There q and r split (p, p_star) into thirds instead: with q = p + 1
    kept, r - q < p_star - p - 1 is so small that the threshold solutions
    grow like lam^(1/(r - q)), past where the residual tolerance is reached.
    """
    from .domain import validate_params

    p = base.p
    if regime == "sub":
        q, r = (1.0 + p) / 2.0, p + 1.0
    elif regime == "equi":
        q, r = p, p + 1.0
    elif p + 2.0 < base.p_star:
        q, r = p + 1.0, p + 2.0
    else:
        third = (base.p_star - p) / 3.0
        q, r = p + third, p + 2.0 * third
    return validate_params(base.dim, base.s, p, q, r)


def _write_witness_csv(path: Path, check) -> None:
    import csv
    import json as jsonlib

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["verdict", check.verdict])
        for key, value in {**check.witness, **check.thresholds}.items():
            writer.writerow([key, jsonlib.dumps(value)])
        if check.notes:
            writer.writerow(["notes", check.notes])


def _run_verify(args, cfg, params, grid, kw, opts, outdir: Path, ep) -> int:
    # the canonical regimes move only q and r, so kw and its eigenpair ep
    # serve every bundle
    if args.regime is None:
        bundles = [(classify_regime(params).value, params, cfg.lam)]
    else:
        regimes = ["sub", "equi", "super"] if args.regime == "all" else [args.regime]
        bundles = [(regime, _canonical_regime_params(params, regime), None)
                   for regime in regimes]
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    failed = False
    for regime, rp, lam in bundles:
        results = run_suite(rp, grid, kw, lam, opts, eigen=ep)
        for res in results:
            line = f"{regime}/{res.name}: {res.verdict}"
            if res.notes:
                line += f"  ({res.notes})"
            print(line)
            _write_witness_csv(outdir / f"verify_{regime}_{res.name}.csv", res)
            entries.append({"regime": regime, "name": res.name,
                            "verdict": res.verdict, "witness": res.witness,
                            "thresholds": res.thresholds, "notes": res.notes})
            failed = failed or res.passed is False
    write_report(outdir, cfg, "verify", {"checks": entries})
    return 3 if failed else 0


def _run_refine(args, cfg, params, opts, outdir: Path) -> int:
    import csv

    from .domain import Regime

    ns = _parse_list(args.ns, "--ns", int)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"--ns must be strictly increasing, got {args.ns!r}")
    is_super = classify_regime(params) is Regime.SUPER
    rows = []
    for n in ns:
        _, gn = to_problem(RunConfig(**{**cfg.__dict__, "n": n}))
        kwn = assemble(gn, params)
        ep = principal_eigenpair(kwn, gn, params.p, _eigen_options(cfg))
        row = {"n": n, "lambda1": ep.lambda1, "lambda_star_h": None,
               "sup_norm": None, "status": ""}
        if is_super:
            thr = detect_threshold(params, kwn, gn, opts,
                                   bracket_tol=cfg.threshold_bracket_tol,
                                   eigen=ep)
            row["lambda_star_h"] = thr.lambda_star_h
        rep = solve_branch_point(cfg.lam, None, params, kwn, gn, opts,
                                 eigen=ep)
        row["sup_norm"] = rep.u.sup_norm()
        row["status"] = rep.status.value
        rows.append(row)
        print(f"n={n} lambda1={ep.lambda1!r}"
              + (f" lambda_star_h={row['lambda_star_h']!r}" if is_super else "")
              + f" sup={row['sup_norm']!r} ({row['status']})")
    checks = [refinement_study(ns, [row["lambda1"] for row in rows],
                               name="eigenvalue_refinement")]
    if is_super:
        checks.append(refinement_study(ns, [row["lambda_star_h"] for row in rows],
                                       name="threshold_refinement"))
    for check in checks:
        print(f"{check.name}: {check.verdict}")
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "refine.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda1", "lambda_star_h", "sup_norm", "status"])
        for row in rows:
            writer.writerow([row["n"], repr(row["lambda1"]),
                             "" if row["lambda_star_h"] is None
                             else repr(row["lambda_star_h"]),
                             repr(row["sup_norm"]), row["status"]])
    write_report(outdir, cfg, "refine",
                 {"rows": rows,
                  "checks": [{"name": c.name, "verdict": c.verdict,
                              "witness": c.witness} for c in checks]})
    return 3 if any(c.passed is False for c in checks) else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 1 if code not in (0,) else 0
    try:
        return _run(args)
    except (ConfigError, ParamError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, EigenError, KernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
