"""Structural checks on computed solutions.

Each check returns a CheckResult whose ``passed`` field is True, False, or
None; None means the check's precondition does not hold for the supplied
data, which is reported rather than silently skipped.  Witnesses carry the
numbers behind every verdict so a failure can be inspected directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import Grid, Regime, classify_regime
from .eigen import EigenOptions, EigenPair, principal_eigenpair
from .kernel import KernelWeights
from .logistic import LogisticParams, phi_functional
from .operator import DiscreteFunction, lp_norm, mass_norm

__all__ = [
    "CheckResult",
    "check_hopf",
    "check_strict_order",
    "check_nonexistence_equi",
    "check_limit_branch",
    "refinement_study",
    "run_suite",
]


@dataclass(eq=False)
class CheckResult:
    name: str
    passed: bool | None
    witness: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def check_hopf(u: DiscreteFunction, s: float, hopf_frac: float = 0.1) -> CheckResult:
    """Boundary growth check: u should dominate a multiple of d(x)^s.

    Verifies that the ratio u_i / d_i^s is strictly positive on every cell
    and that its minimum over boundary-adjacent cells is at least hopf_frac
    times the median ratio, so the profile does not flatten at the boundary.
    """
    grid = u.grid
    ratios = u.values / grid.boundary_dist ** s
    mask = grid.boundary_adjacent()
    rmin = float(ratios.min())
    bmin = float(ratios[mask].min())
    # not np.median, whose first call imports numpy.ma; imported here so that
    # commands that never check do not pay for importing statistics
    import statistics

    med = float(statistics.median(ratios.tolist()))
    ok = rmin > 0.0 and med > 0.0 and bmin >= hopf_frac * med
    return CheckResult(
        name="hopf_boundary_growth",
        passed=bool(ok),
        witness={
            "min_ratio": rmin,
            "argmin_cell": int(np.argmin(ratios)),
            "boundary_min_ratio": bmin,
            "median_ratio": med,
        },
        thresholds={"hopf_frac": hopf_frac},
    )


def check_strict_order(u_low: DiscreteFunction,
                       u_high: DiscreteFunction) -> CheckResult:
    """Strict componentwise ordering u_high > u_low on every cell."""
    gap = u_high.values - u_low.values
    gmin = float(gap.min())
    return CheckResult(
        name="strict_order",
        passed=bool(gmin > 0.0),
        witness={"min_gap": gmin, "argmin_cell": int(np.argmin(gap))},
        thresholds={},
    )


def check_nonexistence_equi(params, lam: float, kw: KernelWeights,
                            grid: Grid, trials: int = 5, opts=None,
                            lambda1: float | None = None) -> CheckResult:
    """Certify absence of solutions at or below the eigenvalue (q = p).

    Runs ``trials`` descents from seeded random positive starts; every one
    must stop, collapsed or converged, before the iteration cap.  Each
    returned iterate u is certified through the coercive identity, whose
    left side (lambda1 - lam) |u|_p^p + |u|_r^r is nonnegative for
    lam <= lambda1 and at most res * |u|, so it also bounds a converged
    iterate.  Outside the q = p or lam <= lambda1 range the result is None.
    """
    from .solve import SolveOptions, Status, minimize

    if params.q != params.p:
        return CheckResult(name="nonexistence_below_eigenvalue", passed=None,
                           notes=f"requires q = p, got q = {params.q}, p = {params.p}")
    opts = opts or SolveOptions()
    if lambda1 is None:
        lambda1 = principal_eigenpair(kw, grid, params.p,
                                      EigenOptions(seed=opts.seed)).lambda1
    if lam > lambda1:
        return CheckResult(name="nonexistence_below_eigenvalue", passed=None,
                           notes=f"requires lam <= lambda1, got lam = {lam:.6g}, "
                                 f"lambda1 = {lambda1:.6g}")
    lp = LogisticParams(lam=lam, p=params.p, q=params.q, r=params.r)
    func = phi_functional(kw, grid, lp)
    sups, coercives, residuals, statuses = [], [], [], []
    all_ok = True
    for k in range(trials):
        rng = np.random.default_rng(opts.seed + k)
        u0 = DiscreteFunction(rng.uniform(0.1, 1.0, size=grid.ncells), grid)
        rep = minimize(func, u0, opts)
        u = rep.u
        lhs = ((lambda1 - lam) * lp_norm(u, params.p) ** params.p
               + lp_norm(u, params.r) ** params.r)
        slack = (max(rep.residual, opts.residual_tol)
                 * max(mass_norm(u.values, grid.measures), 1.0))
        sups.append(u.sup_norm())
        coercives.append(lhs)
        residuals.append(rep.residual)
        statuses.append(rep.status.value)
        if rep.status is Status.MAX_ITERS or lhs > slack:
            all_ok = False
    return CheckResult(
        name="nonexistence_below_eigenvalue",
        passed=bool(all_ok),
        witness={"sup_norms": sups, "coercive_parts": coercives,
                 "residuals": residuals, "statuses": statuses,
                 "lambda1": lambda1},
        thresholds={"residual_tol": opts.residual_tol, "trials": trials},
    )


def check_limit_branch(points: Sequence[tuple[float, float]], limit: float,
                       tol: float) -> CheckResult:
    """Monotone approach of branch sup-norms to a limit value.

    ``points`` are (parameter, sup_norm) pairs ordered along the branch.
    Requires at least three points, distances to the limit nonincreasing,
    and the final distance within tol.
    """
    if len(points) < 3:
        return CheckResult(name="limit_branch", passed=None,
                           notes=f"needs at least 3 branch points, got {len(points)}")
    dists = [abs(s - limit) for _, s in points]
    mono = all(b <= a for a, b in zip(dists, dists[1:]))
    ok = mono and dists[-1] <= tol
    return CheckResult(
        name="limit_branch",
        passed=bool(ok),
        witness={"distances": dists,
                 "params": [p for p, _ in points],
                 "final_distance": dists[-1]},
        thresholds={"tol": tol},
    )


def refinement_study(ns: Sequence[int], values: Sequence[float],
                     name: str = "refinement") -> CheckResult:
    """Consistency of a scalar quantity under grid refinement.

    Requires at least three grid sizes and consecutive differences that
    shrink strictly, the plain signature of a converging discretization.
    """
    if len(ns) != len(values):
        raise ValueError(f"got {len(ns)} grid sizes but {len(values)} values")
    if len(ns) < 3:
        return CheckResult(name=name, passed=None,
                           notes=f"needs at least 3 grid sizes, got {len(ns)}")
    deltas = [abs(b - a) for a, b in zip(values, values[1:])]
    ok = all(b < a for a, b in zip(deltas, deltas[1:]))
    return CheckResult(
        name=name,
        passed=bool(ok),
        witness={"ns": list(ns), "values": list(values), "deltas": deltas},
        thresholds={},
    )


def run_suite(params, grid: Grid, kw: KernelWeights, lam: float | None = None,
              opts=None, eigen: EigenPair | None = None) -> list[CheckResult]:
    """Run the checks appropriate to the regime of the given parameters.

    With lam = None a regime-appropriate default intensity is chosen: 1 in
    the subdiffusive regime and 0.9 times the eigenvalue in the
    equidiffusive one; the superdiffusive checks locate their own
    intensities from the detected threshold.  ``eigen``, the principal
    eigenpair of kw, is solved here when not given.
    """
    from .solve import (DISTINCT_TOL, SolveOptions, Status, detect_threshold,
                        mountain_pass, solve_branch_point)

    opts = opts or SolveOptions()
    regime = classify_regime(params)
    ep = eigen if eigen is not None else principal_eigenpair(
        kw, grid, params.p, EigenOptions(seed=opts.seed))
    results: list[CheckResult] = []

    if regime is Regime.SUB:
        if lam is None:
            lam = 1.0
        rep_lo = solve_branch_point(lam, None, params, kw, grid, opts, eigen=ep)
        rep_hi = solve_branch_point(2.0 * lam, rep_lo.u, params, kw, grid, opts)
        results.append(check_strict_order(rep_lo.u, rep_hi.u))
        results.append(check_hopf(rep_hi.u, params.s))
        branch = [(lam, rep_lo.u.sup_norm())]
        for k in range(1, 5):
            lk = lam * 2.0 ** (-k)
            rk = solve_branch_point(lk, None, params, kw, grid, opts, eigen=ep)
            branch.append((lk, rk.u.sup_norm()))
        results.append(check_limit_branch(branch, 0.0, tol=branch[0][1]))
    elif regime is Regime.EQUI:
        if lam is None:
            lam = 0.9 * ep.lambda1
        results.append(check_nonexistence_equi(params, lam, kw, grid,
                                               opts=opts, lambda1=ep.lambda1))
        if lam > ep.lambda1:
            rep = solve_branch_point(lam, None, params, kw, grid, opts, eigen=ep)
            results.append(check_hopf(rep.u, params.s))
    else:
        thr = detect_threshold(params, kw, grid, opts, bracket_tol=1e-2, eigen=ep)
        results.append(CheckResult(
            name="threshold_above_lower_bound",
            passed=bool(thr.lambda_star_h >= thr.lambda_0),
            witness={"lambda_star_h": thr.lambda_star_h,
                     "lambda_0": thr.lambda_0,
                     "bracket_width": thr.bracket_width},
            thresholds={},
        ))
        results.append(check_hopf(thr.u_star, params.s))
        lam_mp = 1.5 * thr.lambda_star_h
        rep = solve_branch_point(lam_mp, None, params, kw, grid, opts, eigen=ep)
        mp = mountain_pass(lam_mp, params, kw, grid, rep.u, opts)
        if mp.status is Status.CONVERGED:
            results.append(check_strict_order(mp.u, rep.u))
            ok = bool(mp.u.values.min() >= 0.0
                      and mp.u.sup_norm() > DISTINCT_TOL)
            results.append(CheckResult(
                name="saddle_between_zero_and_branch",
                passed=ok,
                witness={"sup_v": mp.u.sup_norm(), "sup_u": rep.u.sup_norm(),
                         "residual": mp.residual},
                thresholds={"distinct_tol": DISTINCT_TOL},
            ))
        else:
            results.append(CheckResult(
                name="saddle_between_zero_and_branch",
                passed=None,
                notes=f"saddle search ended with status {mp.status.value}",
            ))
    return results
