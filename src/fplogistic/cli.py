"""Command-line interface.

Subcommands cover the eigenvalue, torsion, single solves, branch sweeps,
threshold detection, the saddle search, verification bundles, and
refinement studies.  Every command solves the problem folded onto the
mirror-even functions (``kernel.fold``) and writes its functions unfolded,
one row per cell of the grid.  The output directory is made once the inputs
are valid, before any assembly.  Each command prints as it goes and ends
with its files, report results and exit code, which ``_run`` writes in one
place, so a command that ends in an error writes no file.  Configuration
comes from a key=value file overridden by ``--set`` flags, nothing else, and
the output directory from ``--out``.  Exit codes: 0 success or all checks
passing and 3 a failed check, both with every file written; 1 validation
error (bad usage, configuration, parameters, or an output path that cannot
be written) and 2 a solver failure (a solve that stopped short, whichever
it was) or an unusable weights cache, both with one ``error:`` line on
stderr and nothing else.  The warnings of a command that returns reach the
caller's warning filters when it ends.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from pathlib import Path

from . import __version__
from .config import (ConfigError, load_config, positive_float, to_problem,
                     write_branch_csv, write_report, write_solution_csv)
from .domain import (GridError, ParamError, Regime, build_grid,
                     classify_regime, validate_params)
from .eigen import EigenError, principal_eigenpair
from .kernel import KernelError, assemble, fold, load_weights, save_weights
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
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: out)")
    common.add_argument("--weights-cache", type=Path, default=None,
                        help=".npy file holding assembled kernel weights")
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
        key = key.strip()
        if key in out:
            raise ConfigError(f"--set: duplicate key {key!r}")
        out[key] = raw.strip()
    return out


def _parse_list(raw: str, flag: str, parse) -> list:
    try:
        return [parse(part) for part in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: bad value {raw!r} ({exc})") from exc


def _run(args) -> int:
    cfg = load_config(args.config, flags=_parse_overrides(args.set))
    params, full = to_problem(cfg)
    opts = SolveOptions(residual_tol=cfg.solver_residual_tol,
                        max_iters=cfg.solver_max_iters, seed=cfg.solver_seed,
                        initial=cfg.solver_initial)
    command = args.command
    cache = args.weights_cache
    if command == "refine":
        if cache is not None:
            raise ConfigError("refine assembles one grid per n and takes no "
                              "--weights-cache")
        ns = _parse_list(args.ns, "--ns", int)
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError(f"--ns must be strictly increasing, got {args.ns!r}")
        grids = [build_grid(full.domain, n) for n in ns]
    if command == "sweep":
        if args.lams is not None:
            lams = sorted(_parse_list(args.lams, "--lams", positive_float))
        else:
            lams = sorted(cfg.lam * 2.0 ** (-k) for k in range(7))
    if command == "threshold" and params.q <= params.p:
        raise ConfigError(f"threshold needs q > p, got q = {params.q}, "
                          f"p = {params.p}")
    # every input is valid: an unwritable --out fails before any assembly
    args.out.mkdir(parents=True, exist_ok=True)

    if command != "refine":
        if cache is not None and cache.exists():
            kw = load_weights(cache, full, params)
        else:
            kw = assemble(full, params)
            if cache is not None:
                save_weights(cache, kw, full)
        kw = fold(kw)
    # one eigenpair, solved with the configured options, serves the command:
    # the eigen start of every solve that starts cold and the threshold walk
    ep = None
    if command in ("eigen", "threshold", "verify") or (
            command not in ("torsion", "refine") and opts.initial == "eigen"):
        ep = principal_eigenpair(kw, opts)

    # each command prints as it goes and leaves its files (by name: a folded
    # function, branch points or a (header, rows) table), results and code
    code = 0
    if command == "refine":
        files, results, code = _run_refine(cfg, params, grids, opts)
    elif command == "verify":
        files, results, code = _run_verify(args, cfg, params, opts, ep)
    elif command == "eigen":
        print(f"lambda1 = {ep.lambda1!r}  residual = {ep.residual:.3e}  "
              f"iterations = {ep.iterations}")
        files = {"eigen.csv": ep.u1}
        results = {"lambda1": ep.lambda1, "residual": ep.residual,
                   "iterations": ep.iterations}
    elif command == "torsion":
        rep = torsion_solve(kw, opts)
        print(f"sup = {rep.u.sup_norm()!r}  residual = {rep.residual:.3e}  "
              f"iterations = {rep.iterations}")
        files = {"solution.csv": rep.u}
        results = {"sup_norm": rep.u.sup_norm(), "energy": rep.energy,
                   "residual": rep.residual, "iterations": rep.iterations,
                   "status": rep.status.value}
    elif command == "solve":
        rep = solve_branch_point(cfg.lam, None, params, kw, opts, eigen=ep)
        print(f"status = {rep.status.value}  sup = {rep.u.sup_norm()!r}  "
              f"residual = {rep.residual:.3e}  iterations = {rep.iterations}")
        files = {"solution.csv": rep.u}
        results = {"lam": cfg.lam, "status": rep.status.value,
                   "sup_norm": rep.u.sup_norm(), "energy": rep.energy,
                   "residual": rep.residual, "iterations": rep.iterations}
    elif command == "sweep":
        points = []
        warm = None
        for lam in lams:
            rep = solve_branch_point(lam, warm, params, kw, opts, eigen=ep)
            if rep.status is Status.CONVERGED:
                warm = rep.u
            points.append(BranchPoint(lam=lam, sup_norm=rep.u.sup_norm(),
                                      energy=rep.energy,
                                      status=rep.status.value))
            print(f"lam={lam!r} sup={rep.u.sup_norm()!r} "
                  f"status={rep.status.value}")
        files = {"branch.csv": points}
        results = {"points": [{"lambda": pt.lam, "sup_norm": pt.sup_norm,
                               "energy": pt.energy, "status": pt.status}
                              for pt in points]}
    elif command == "threshold":
        thr = detect_threshold(params, ep, opts,
                               bracket_tol=cfg.threshold_bracket_tol)
        print(f"lambda_star_h = {thr.lambda_star_h!r}  "
              f"lambda_0 = {thr.lambda_0!r}  "
              f"lambda_ray = {thr.lambda_ray!r}  "
              f"bracket_width = {thr.bracket_width!r}")
        files = {"branch.csv": thr.branch, "solution.csv": thr.u_star}
        results = {"lambda_star_h": thr.lambda_star_h,
                   "lambda_0": thr.lambda_0,
                   "lambda_ray": thr.lambda_ray,
                   "bracket_width": thr.bracket_width,
                   "sup_norm": thr.u_star.sup_norm()}
    elif command == "mountain-pass":
        rep = solve_branch_point(cfg.lam, None, params, kw, opts, eigen=ep)
        if rep.status is not Status.CONVERGED:
            raise SolverError(
                f"no branch solution at lam = {cfg.lam:.6g} to anchor the "
                f"saddle search (status {rep.status.value})")
        mp = mountain_pass(cfg.lam, params, kw, rep.u, opts)
        print(f"status = {mp.status.value}  sup_saddle = {mp.u.sup_norm()!r}  "
              f"sup_branch = {rep.u.sup_norm()!r}  "
              f"residual = {mp.residual:.3e}")
        files = {"solution.csv": rep.u, "saddle.csv": mp.u}
        found = mp.status is Status.CONVERGED
        results = {"lam": cfg.lam, "status": mp.status.value,
                   "sup_branch": rep.u.sup_norm(), "sup_saddle": mp.u.sup_norm(),
                   "residual": mp.residual if found else None,
                   "iterations": mp.iterations}

    # a command that raised has written nothing; one that returned writes
    # every file and the report, and exits 0 or, on a failed check, 3
    for name, data in files.items():
        if isinstance(data, tuple):
            header, rows = data
            with (args.out / name).open("w", newline="") as fh:
                csv.writer(fh).writerows([header, *rows])
        elif isinstance(data, list):
            write_branch_csv(args.out / name, data)
        else:
            data = data.unfold()
            write_solution_csv(args.out / name, data.grid, data.values, params.s)
    write_report(args.out, cfg, command, results)
    return code


def _canonical_regime_params(base, regime: str):
    """Shift q and r relative to p to force the requested regime.

    The super r = p + 2 reaches p_star = N p / (N - p s) whenever
    p s <= 2N / (p + 2), which in 2D holds for every valid p = 2 problem.
    There q and r split (p, p_star) into thirds instead: with q = p + 1
    kept, r - q < p_star - p - 1 is so small that the threshold solutions
    grow like lam^(1/(r - q)), past where the residual tolerance is reached.
    """
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


def _run_verify(args, cfg, params, opts, ep):
    # the canonical regimes move only q and r, so the eigenpair ep and the
    # weights it carries serve every bundle
    if args.regime is None:
        bundles = [(classify_regime(params).value, params, cfg.lam)]
    else:
        regimes = ["sub", "equi", "super"] if args.regime == "all" else [args.regime]
        bundles = [(regime, _canonical_regime_params(params, regime), None)
                   for regime in regimes]
    files = {}
    entries = []
    failed = False
    for regime, rp, lam in bundles:
        results = run_suite(rp, ep, lam, opts)
        for res in results:
            notes = f"  ({res.notes})" if res.notes else ""
            print(f"{regime}/{res.name}: {res.verdict}{notes}")
            rows = [["verdict", res.verdict]]
            rows += [[key, json.dumps(value)]
                     for key, value in {**res.witness, **res.thresholds}.items()]
            if res.notes:
                rows.append(["notes", res.notes])
            files[f"verify_{regime}_{res.name}.csv"] = (["key", "value"], rows)
            entries.append({"regime": regime, "name": res.name,
                            "verdict": res.verdict, "witness": res.witness,
                            "thresholds": res.thresholds, "notes": res.notes})
            failed = failed or res.passed is False
    return files, {"checks": entries}, 3 if failed else 0


def _run_refine(cfg, params, grids, opts):
    is_super = classify_regime(params) is Regime.SUPER
    rows = []
    for gn in grids:
        ep = principal_eigenpair(fold(assemble(gn, params)), opts)
        lambda_star_h = None
        if is_super:
            lambda_star_h = detect_threshold(
                params, ep, opts, cfg.threshold_bracket_tol).lambda_star_h
        rep = solve_branch_point(cfg.lam, None, params, ep.weights, opts, eigen=ep)
        rows.append({"n": gn.n, "lambda1": ep.lambda1,
                     "lambda_star_h": lambda_star_h,
                     "sup_norm": rep.u.sup_norm(), "status": rep.status.value})
        print(f"n={gn.n} lambda1={ep.lambda1!r}"
              + (f" lambda_star_h={lambda_star_h!r}" if is_super else "")
              + f" sup={rep.u.sup_norm()!r} ({rep.status.value})")
    ns = [row["n"] for row in rows]
    checks = [refinement_study(ns, [row["lambda1"] for row in rows],
                               name="eigenvalue_refinement")]
    if is_super:
        checks.append(refinement_study(ns, [row["lambda_star_h"] for row in rows],
                                       name="threshold_refinement"))
    for check in checks:
        print(f"{check.name}: {check.verdict}")
    # csv writes floats as their repr and None as an empty field
    header = ["n", "lambda1", "lambda_star_h", "sup_norm", "status"]
    table = (header, [[row[key] for key in header] for row in rows])
    results = {"rows": rows,
               "checks": [{"name": c.name, "verdict": c.verdict,
                           "witness": c.witness} for c in checks]}
    return ({"refine.csv": table}, results,
            3 if any(c.passed is False for c in checks) else 0)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if isinstance(exc.code, int) and exc.code != 0 else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = _run(args)
        except (ConfigError, ParamError, GridError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (SolverError, EigenError, KernelError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # one registry per file, as each module keeps its own
    registries: dict[str, dict] = {}
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               registry=registries.setdefault(w.filename, {}),
                               source=w.source)
    return code


if __name__ == "__main__":
    sys.exit(main())
