"""Energy minimization, branch continuation, threshold detection, saddle search.

Every solve here runs the package's one descent engine (``descent.descend``),
which stops it on the ``SolveOptions`` it is given, reports it in one
``SolveReport`` (both defined in ``descent``, importable from here) and
raises SolverError, naming the solve, when it stops short:
``minimize`` on an energy functional,
``mountain_pass`` on the free energy restricted to the energy peaks of rays
t * v, the move of a point to the peak of its own ray serving as the
retraction.  For the logistic energy the zero function is always a critical
point, and below the existence threshold it is the only one; a converged
minimization that lies in the zero basin of its own ray t * u (the
``collapsed`` test of ``logistic.phi_functional``, free of any absolute
scale) is reported as collapsed.  ``detect_threshold`` finds that threshold
in one walk down the branch, from the last point of its grid above the
analytic bound ``upper_bound_lambda_ray``: warm-started probes at
geometrically falling intensities until the first collapse, then bisection
of the bracket.  The weights bring s, p and the grid of every answer, the
eigenpair its weights; other weights, s or p, or a start on another grid,
raise GridMismatchError.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .descent import (Functional, SolveOptions, SolveReport, SolverError,
                      Status, descend)
from .eigen import EigenPair, seeded_uniform
from .kernel import KernelWeights
from .logistic import (LogisticParams, _fiber_extrema, phi_functional,
                       torsion_functional)
from .operator import (DiscreteFunction, GridMismatchError, _check_grid,
                       _check_params, _energy)

__all__ = [
    "SolverError", "Status", "SolveOptions", "SolveReport", "BranchPoint",
    "ThresholdReport", "minimize", "torsion_solve",
    "initial_values", "solve_branch_point", "lower_bound_lambda0",
    "upper_bound_lambda_ray", "detect_threshold", "mountain_pass",
]

# each continuation step of detect_threshold scales the intensity by this
CONTINUATION_FACTOR = 0.9
# detect_threshold's default width of the final bracket
BRACKET_TOL = 1e-3
# a saddle within this sup distance of zero or of u_lam is not a second solution
DISTINCT_TOL = 1e-6


@dataclass(frozen=True)
class BranchPoint:
    lam: float
    sup_norm: float
    energy: float
    status: str


@dataclass(eq=False)
class ThresholdReport:
    lambda_star_h: float
    lambda_0: float
    lambda_ray: float
    bracket_width: float
    u_star: DiscreteFunction
    branch: list[BranchPoint] = field(default_factory=list)


def minimize(func: Functional, u0: DiscreteFunction,
             opts: SolveOptions | None = None,
             what: str = "descent") -> SolveReport:
    """Descend an energy functional from u0 to a nonnegative critical point.

    The energy sequence is nonincreasing up to the rounding floor of the
    energy evaluation.  An exact critical point returns immediately with
    zero iterations.  ``descend`` decides convergence at the clipped point
    and raises SolverError naming ``what`` when it stops short; the result
    is COLLAPSED when the functional's ``collapsed`` test finds it in the
    zero basin of its own ray.
    """
    rep = descend(func, u0, opts or SolveOptions(), what)
    if func.collapsed is not None and func.collapsed(rep.u.values):
        rep.status = Status.COLLAPSED
    return rep


def torsion_solve(kw: KernelWeights,
                  opts: SolveOptions | None = None) -> SolveReport:
    """Solve L u = 1: the positive barrier whose profile matches d(x)^s."""
    opts = opts or SolveOptions()
    u0 = DiscreteFunction(np.full(kw.ncells, 0.1), kw.grid)
    return minimize(torsion_functional(kw), u0, opts, "torsion solve")


def initial_values(kind: str, kw: KernelWeights, lp: LogisticParams,
                   opts: SolveOptions,
                   eigen: EigenPair | None = None) -> DiscreteFunction:
    """Build a starting iterate: seeded random, or a point on the ray of u1.

    The eigen start needs ``eigen`` and returns t * u1 at the valley of the
    free energy along the ray (``_fiber_extrema``), the last local minimum,
    which lands the descent in the nontrivial basin even where that minimum
    has positive energy.  Without a valley it returns the origin, from
    which the solve collapses cleanly.  Another pair raises GridMismatchError.
    """
    if eigen is not None and eigen.weights is not kw:
        raise GridMismatchError("the eigenpair was solved on other weights")
    if kind == "random":
        values = seeded_uniform(opts.seed, 0.1, 1.0, kw.ncells)
    elif kind == "eigen":
        if eigen is None:
            raise ValueError("the eigen start needs the principal eigenpair")
        t = _fiber_extrema(eigen.u1.values, kw, lp)[1]
        values = t * eigen.u1.values if t > 0.0 else np.zeros(kw.ncells)
    else:
        raise ValueError(f"unknown initial guess kind: {kind}")
    return DiscreteFunction(values, kw.grid)


def solve_branch_point(lam: float, warm: DiscreteFunction | None, params,
                       kw: KernelWeights, opts: SolveOptions | None = None,
                       eigen: EigenPair | None = None) -> SolveReport:
    """Solve the logistic problem at one intensity; eigen must be kw's pair.

    Without a warm start the descent of Phi begins at ``initial_values``.
    A warm start is a converged solution at a smaller intensity, and the
    descent begins at it.  The branch is ordered, so the solution lies above
    the warm profile; one that ends below it by more than 1e-6 of the sup
    norm has left the branch, and SolverError is raised.
    """
    _check_params(params, kw)
    opts = opts or SolveOptions()
    lp = LogisticParams(lam=lam, q=params.q, r=params.r)
    func = phi_functional(kw, lp)
    what = f"branch solve at lam = {lam:.6g}"
    if warm is None:
        return minimize(func, initial_values(opts.initial, kw, lp, opts, eigen),
                        opts, what)

    rep = minimize(func, warm, opts, what)
    gap = float((warm.values - rep.u.values).max())
    if gap > 1e-6 * max(rep.u.sup_norm(), warm.sup_norm()):
        raise SolverError(
            f"warm-started solve lost the branch ordering (max violation {gap:.3e})")
    return rep


def _ray_minimum(alpha: float, beta: float, params, bound: str) -> float:
    """min over t > 0 of alpha t^(p-q) + beta t^(r-q), in closed form (q > p)."""
    p, q, r = params.p, params.q, params.r
    if q <= p:
        raise ValueError(f"{bound} bound requires q > p, got q = {q}, p = {p}")
    try:
        t = (alpha * (q - p) / (beta * (r - q))) ** (1.0 / (r - p))
        value = alpha * t ** (p - q) + beta * t ** (r - q)
    except (OverflowError, ZeroDivisionError):
        value = float("inf")
    if not value < float("inf"):
        raise SolverError(f"the threshold {bound} bound overflows float64 "
                          f"(q = {q!r}, r = {r!r})")
    return value


def lower_bound_lambda0(params, lambda1: float) -> float:
    """Analytic positive lower bound for the existence threshold (q > p).

    The reaction stays below lambda1 * t^(p-1) for every t > 0 exactly when
    lam <= min over t of [lambda1 t^(p-q) + t^(r-q)]; below the bound any
    nonnegative critical point is zero.
    """
    if lambda1 <= 0.0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    return _ray_minimum(lambda1, 1.0, params, "lower")


def upper_bound_lambda_ray(params, eigen: EigenPair) -> float:
    """Analytic upper bound for the existence threshold, on the ray of u1.

    Phi(t u1) = t^p E/p - lam t^q A/q + t^r B/r (``_fiber_extrema``) is
    negative for some t exactly when lam exceeds the minimum over t of
    q (t^(p-q) E/p + t^(r-q) B/r) / A; there the coercive Phi has a
    minimizer of negative energy, a solution.
    """
    kw = eigen.weights
    _check_params(params, kw)
    u1, p, q, r = eigen.u1.values, params.p, params.q, params.r
    qa = q / float(u1 ** q @ kw.measures)
    return _ray_minimum(qa * _energy(u1, kw) / p,
                        qa * float(u1 ** r @ kw.measures) / r, params, "upper")


def detect_threshold(params, eigen: EigenPair, opts: SolveOptions | None = None,
                     bracket_tol: float = BRACKET_TOL) -> ThresholdReport:
    """Walk down the branch on ``eigen.weights`` to the smallest solvable lam.

    Each probe descends the free energy from the last solvable solution and
    is solvable when ``minimize`` reports it converged rather than collapsed,
    that is past the energy peak of its own ray; a tiny iterate has that
    peak far beyond t = 1.  Every lam above lambda_ray
    (``upper_bound_lambda_ray``) is solvable, so of the grid 4 lambda0 2^k
    CONTINUATION_FACTOR^j, doubled until it lies above lambda_ray, the walk
    solves first the last point above it, from the eigen start, and raises
    SolverError unless that ends at negative energy.  It then scales lam by
    ``CONTINUATION_FACTOR`` until the first collapse and bisects the bracket
    down to ``bracket_tol``; ``branch`` lists the probes it solved.  A
    solvable probe below lambda0 (``lower_bound_lambda0``) raises at once.
    """
    kw = eigen.weights
    _check_params(params, kw)
    opts = opts or SolveOptions()
    lam0 = lower_bound_lambda0(params, eigen.lambda1)
    lam_ray = upper_bound_lambda_ray(params, eigen)

    def probe(lam: float, u_start: DiscreteFunction | None) -> SolveReport | None:
        lp = LogisticParams(lam=lam, q=params.q, r=params.r)
        if u_start is None:
            u_start = initial_values("eigen", kw, lp, opts, eigen)
        rep = minimize(phi_functional(kw, lp), u_start, opts,
                       f"threshold probe at lam = {lam:.6g}")
        if rep.status is Status.COLLAPSED:
            return None
        if lam < lam0 * (1.0 - 1e-9):
            raise SolverError(
                f"threshold {lam:.6g} fell below the analytic bound {lam0:.6g}")
        return rep

    lam = 4.0 * lam0
    while lam <= lam_ray:
        lam *= 2.0
    # the same products as a walk that solved every grid point above lam_ray
    while CONTINUATION_FACTOR * lam > lam_ray:
        lam = CONTINUATION_FACTOR * lam
    rep = probe(lam, None)
    if rep is None or not rep.energy < 0.0:
        raise SolverError(
            f"the threshold probe at lam = {lam:.6g}, above the ray bound "
            f"lambda_ray = {lam_ray:.6g}, found no solution of negative energy")

    walk = [(lam, rep)]  # the solvable probes, lam strictly decreasing
    lam_no = None
    while lam_no is None or walk[-1][0] - lam_no > bracket_tol:
        lam_yes, rep_yes = walk[-1]
        lam = (CONTINUATION_FACTOR * lam_yes if lam_no is None
               else 0.5 * (lam_yes + lam_no))
        rep = probe(lam, rep_yes.u)
        if rep is None:
            lam_no = lam
        else:
            walk.append((lam, rep))

    lam_star, rep_star = walk[-1]
    return ThresholdReport(
        lambda_star_h=lam_star,
        lambda_0=lam0,
        lambda_ray=lam_ray,
        bracket_width=lam_star - lam_no,
        u_star=rep_star.u,
        branch=[BranchPoint(lam=l, sup_norm=r.u.sup_norm(), energy=r.energy,
                            status=r.status.value) for l, r in reversed(walk)],
    )


def mountain_pass(lam: float, params, kw: KernelWeights, u_lam: DiscreteFunction,
                  opts: SolveOptions | None = None) -> SolveReport:
    """Search for the second solution between zero and the branch solution.

    Along each ray t * v the free energy rises to one peak and then falls
    when q > p; the mountain-pass solution is the lowest such peak.  The
    search descends Phi from the peak of the ray through u_lam, moving every
    trial point to the peak of its own ray, and clips the result between
    zero and u_lam.  When that first peak is missing or does not lie before
    u_lam there is no barrier between zero and u_lam, and the search reports
    NOT_FOUND at once with the zero function and a NaN residual, as no
    descent ran; a result within ``DISTINCT_TOL`` of either end is NOT_FOUND
    as well, and a search that stops short raises SolverError.
    """
    _check_params(params, kw)
    _check_grid(u_lam, kw)
    opts = opts or SolveOptions()
    lp = LogisticParams(lam=lam, q=params.q, r=params.r)
    t0 = _fiber_extrema(u_lam.values, kw, lp)[0]
    if not t0 < 1.0:
        return SolveReport(DiscreteFunction(np.zeros(kw.ncells), kw.grid),
                           0.0, float("nan"), 0, Status.NOT_FOUND)
    func = replace(
        phi_functional(kw, lp),
        retract=lambda v: _fiber_extrema(v, kw, lp)[0] * v,
        clip=lambda v: np.minimum(np.maximum(v, 0.0), u_lam.values))
    rep = descend(func, DiscreteFunction(t0 * u_lam.values, kw.grid), opts,
                  f"saddle search at lam = {lam:.6g}")
    gap = min(rep.u.sup_norm(), float(np.abs(u_lam.values - rep.u.values).max()))
    if gap <= DISTINCT_TOL:
        rep.status = Status.NOT_FOUND
    return rep
