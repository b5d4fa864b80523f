"""Structural checks on computed solutions.

Each check returns a CheckResult whose ``passed`` field is True, False, or
None; None means the check's precondition does not hold for the supplied
data, which is reported rather than silently skipped.  Witnesses carry the
numbers behind every verdict so a failure can be inspected directly.  The
checks that solve take the caller's principal eigenpair alone and run on
the weights it carries (``EigenPair.weights``), full or folded
(``kernel.fold``); parameters of another s or p raise GridMismatchError.
The witnesses that name cells unfold the functions first, so they index
the cells of the full grid either way.  A solve that stops short is no
ground for a verdict: it raises SolverError (``descent.descend``), so every
verdict rests on finished solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import Regime, classify_regime
from .eigen import EigenPair, seeded_uniform
from .logistic import LogisticParams, phi_functional
from .operator import DiscreteFunction, _check_params, lp_norm, mass_norm
from .solve import (DISTINCT_TOL, SolveOptions, Status, detect_threshold,
                    minimize, mountain_pass, solve_branch_point)

__all__ = ["CheckResult", "check_hopf", "check_strict_order",
           "check_nonexistence_equi", "check_limit_branch", "refinement_study",
           "run_suite"]


# check_hopf passes when the boundary minimum of u / d^s is at least this
# share of the median ratio
HOPF_FRAC = 0.1
# run_suite's superdiffusive threshold bracket, whatever threshold.bracket_tol is
SUPER_BRACKET_TOL = 1e-2
# seeded random starts that check_nonexistence_equi descends from
EQUI_TRIALS = 5


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


def check_hopf(u: DiscreteFunction, s: float) -> CheckResult:
    """Boundary growth check: u should dominate a multiple of d(x)^s.

    Verifies that the ratio u_i / d_i^s is strictly positive on every cell
    and that its minimum over boundary-adjacent cells is at least HOPF_FRAC
    times the median ratio, so the profile does not flatten at the boundary.
    A folded function is judged on every cell (``DiscreteFunction.unfold``),
    so the median counts each cell and ``argmin_cell`` is a full-grid cell.
    """
    u = u.unfold()
    grid = u.grid
    ratios = u.values / grid.boundary_dist ** s
    mask = grid.boundary_adjacent()
    rmin = float(ratios.min())
    bmin = float(ratios[mask].min())
    # statistics.median's formula, without np.median, whose first call
    # imports numpy.ma, or statistics, which imports decimal and fractions
    srt = sorted(ratios.tolist())
    mid = len(srt) // 2
    med = srt[mid] if len(srt) % 2 else (srt[mid - 1] + srt[mid]) / 2
    ok = rmin > 0.0 and med > 0.0 and bmin >= HOPF_FRAC * med
    return CheckResult(
        name="hopf_boundary_growth",
        passed=bool(ok),
        witness={
            "min_ratio": rmin,
            "argmin_cell": int(np.argmin(ratios)),
            "boundary_min_ratio": bmin,
            "median_ratio": med,
        },
        thresholds={"hopf_frac": HOPF_FRAC},
    )


def check_strict_order(u_low: DiscreteFunction,
                       u_high: DiscreteFunction) -> CheckResult:
    """Strict componentwise ordering u_high > u_low on every cell.

    ``argmin_cell`` is a cell of the full grid, also for folded functions.
    """
    gap = u_high.unfold().values - u_low.unfold().values
    gmin = float(gap.min())
    return CheckResult(
        name="strict_order",
        passed=bool(gmin > 0.0),
        witness={"min_gap": gmin, "argmin_cell": int(np.argmin(gap))},
        thresholds={},
    )


def check_nonexistence_equi(params, lam: float, eigen: EigenPair,
                            opts=None) -> CheckResult:
    """Certify absence of solutions on ``eigen.weights`` up to lambda1 (q = p).

    Runs ``EQUI_TRIALS`` descents from seeded random positive starts; one
    that stops short raises SolverError naming its trial.  Each returned
    iterate u is certified through the coercive identity, whose
    left side (lambda1 - lam) |u|_p^p + |u|_r^r is nonnegative for
    lam <= lambda1 and at most res * |u|, so it also bounds a converged
    iterate.  Outside the q = p or lam <= lambda1 range the result is None.
    """
    kw, lambda1 = eigen.weights, eigen.lambda1
    _check_params(params, kw)
    if params.q != params.p:
        return CheckResult(name="nonexistence_below_eigenvalue", passed=None,
                           notes=f"requires q = p, got q = {params.q}, p = {params.p}")
    opts = opts or SolveOptions()
    if lam > lambda1:
        return CheckResult(name="nonexistence_below_eigenvalue", passed=None,
                           notes=f"requires lam <= lambda1, got lam = {lam:.6g}, "
                                 f"lambda1 = {lambda1:.6g}")
    lp = LogisticParams(lam=lam, q=params.q, r=params.r)
    func = phi_functional(kw, lp)
    sups, coercives, residuals, statuses = [], [], [], []
    all_ok = True
    for k in range(EQUI_TRIALS):
        u0 = DiscreteFunction(seeded_uniform(opts.seed + k, 0.1, 1.0, kw.ncells),
                              kw.grid)
        rep = minimize(func, u0, opts, f"equi trial {k} at lam = {lam:.6g}")
        u = rep.u
        lhs = ((lambda1 - lam) * lp_norm(u, params.p) ** params.p
               + lp_norm(u, params.r) ** params.r)
        slack = (max(rep.residual, opts.residual_tol)
                 * max(mass_norm(u.values, kw.measures), 1.0))
        sups.append(u.sup_norm())
        coercives.append(lhs)
        residuals.append(rep.residual)
        statuses.append(rep.status.value)
        if lhs > slack:
            all_ok = False
    return CheckResult(
        name="nonexistence_below_eigenvalue",
        passed=bool(all_ok),
        witness={"sup_norms": sups, "coercive_parts": coercives,
                 "residuals": residuals, "statuses": statuses,
                 "lambda1": lambda1},
        thresholds={"residual_tol": opts.residual_tol, "trials": EQUI_TRIALS},
    )


def check_limit_branch(points: Sequence[tuple[float, float]],
                       tol: float) -> CheckResult:
    """Monotone approach of branch sup-norms to zero.

    ``points`` are (parameter, sup_norm) pairs ordered along the branch.
    Requires at least three points, distances to zero nonincreasing, and
    the final distance within tol.
    """
    if len(points) < 3:
        return CheckResult(name="limit_branch", passed=None,
                           notes=f"needs at least 3 branch points, got {len(points)}")
    dists = [abs(s) for _, s in points]
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


def run_suite(params, eigen: EigenPair, lam: float | None = None,
              opts=None) -> list[CheckResult]:
    """Run the checks appropriate to the regime of the given parameters.

    Every check solves on ``eigen.weights``.  With lam = None a
    regime-appropriate default intensity is chosen: 1 in the subdiffusive
    regime and 0.9 times the eigenvalue in the equidiffusive one; the
    superdiffusive checks locate theirs from the threshold.  Any solve that
    stops short raises SolverError naming the solve and the intensity.

    The saddle check searches at 1.5 lambda*_h, where the paper proves a
    second, mountain-pass solution exists.  A NOT_FOUND search (no barrier
    between zero and u_lam, or a result within ``DISTINCT_TOL`` of either)
    leaves that claim unchecked, not refuted: the saddle check is SKIP and
    its ordering check is not run.
    """
    kw = eigen.weights
    opts = opts or SolveOptions()
    regime = classify_regime(params)
    results: list[CheckResult] = []

    if regime is Regime.SUB:
        if lam is None:
            lam = 1.0
        rep_lo = solve_branch_point(lam, None, params, kw, opts, eigen=eigen)
        rep_hi = solve_branch_point(2.0 * lam, rep_lo.u, params, kw, opts,
                                    eigen=eigen)
        results.append(check_strict_order(rep_lo.u, rep_hi.u))
        results.append(check_hopf(rep_hi.u, params.s))
        branch = [(lam, rep_lo.u.sup_norm())]
        for k in range(1, 5):
            lk = lam * 2.0 ** (-k)
            rep = solve_branch_point(lk, None, params, kw, opts, eigen=eigen)
            branch.append((lk, rep.u.sup_norm()))
        results.append(check_limit_branch(branch, tol=branch[0][1]))
    elif regime is Regime.EQUI:
        if lam is None:
            lam = 0.9 * eigen.lambda1
        results.append(check_nonexistence_equi(params, lam, eigen, opts=opts))
        if lam > eigen.lambda1:
            rep = solve_branch_point(lam, None, params, kw, opts, eigen=eigen)
            results.append(check_hopf(rep.u, params.s))
    else:
        thr = detect_threshold(params, eigen, opts, SUPER_BRACKET_TOL)
        # a collapsed bracket end above lambda_ray is a certified solvable
        # intensity judged unsolvable
        results.append(CheckResult(
            name="threshold_above_lower_bound",
            passed=bool(thr.lambda_0 <= thr.lambda_star_h
                        <= thr.lambda_ray + thr.bracket_width),
            witness={"lambda_star_h": thr.lambda_star_h,
                     "lambda_0": thr.lambda_0,
                     "lambda_ray": thr.lambda_ray,
                     "bracket_width": thr.bracket_width},
            thresholds={},
        ))
        results.append(check_hopf(thr.u_star, params.s))
        lam_mp = 1.5 * thr.lambda_star_h
        rep = solve_branch_point(lam_mp, None, params, kw, opts, eigen=eigen)
        mp = mountain_pass(lam_mp, params, kw, rep.u, opts)
        if mp.status is Status.CONVERGED:
            results.append(check_strict_order(mp.u, rep.u))
            # a mountain-pass level lies above Phi(0) = 0 and Phi(u_lam)
            ok = bool(mp.u.values.min() >= 0.0
                      and mp.u.sup_norm() > DISTINCT_TOL
                      and mp.energy > max(0.0, rep.energy))
            results.append(CheckResult(
                name="saddle_between_zero_and_branch",
                passed=ok,
                witness={"sup_v": mp.u.sup_norm(), "sup_u": rep.u.sup_norm(),
                         "residual": mp.residual, "energy_v": mp.energy,
                         "energy_u": rep.energy},
                thresholds={"distinct_tol": DISTINCT_TOL},
            ))
        else:
            results.append(CheckResult(
                name="saddle_between_zero_and_branch",
                passed=None,
                notes=f"saddle search ended with status {mp.status.value}",
            ))
    return results
