"""Energy minimization, branch continuation, threshold detection, saddle search.

Every solve here runs the package's one descent engine (``descent.descend``):
``minimize`` on an energy functional, ``mountain_pass`` on the free energy
restricted to the energy peaks of rays t * v, the move of a point to the
peak of its own ray serving as the retraction.  For the logistic energy the
zero function is always a critical point, and below the existence threshold
it is the only one; a converged minimization that lies in the zero basin of
its own ray t * u (the ``collapsed`` test of ``logistic.phi_functional``,
free of any absolute scale) is reported as collapsed.  ``detect_threshold`` finds that threshold
in one walk down the branch: warm-started probes at geometrically falling
intensities until the first collapse, then bisection of the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .descent import SolverError, Status, descend
from .domain import Grid
from .eigen import EigenOptions, EigenPair, principal_eigenpair, seeded_uniform
from .kernel import KernelWeights
from .logistic import (Functional, LogisticParams, _fiber_extrema,
                       phi_functional, torsion_functional)
from .operator import DiscreteFunction, mass_norm

__all__ = [
    "SolverError",
    "Status",
    "SolveOptions",
    "SolveReport",
    "BranchPoint",
    "ThresholdReport",
    "minimize",
    "torsion_solve",
    "initial_values",
    "solve_branch_point",
    "lower_bound_lambda0",
    "detect_threshold",
    "mountain_pass",
]

# each continuation step of detect_threshold scales the intensity by this
CONTINUATION_FACTOR = 0.9
# a saddle within this sup distance of zero or of u_lam is not a second solution
DISTINCT_TOL = 1e-6


@dataclass
class SolveOptions:
    residual_tol: float = 1e-8
    max_iters: int = 50_000
    seed: int = 0
    initial: str = "eigen"          # eigen | random


@dataclass(eq=False)
class SolveReport:
    u: DiscreteFunction
    energy: float
    residual: float
    iterations: int
    status: Status


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
    bracket_width: float
    u_star: DiscreteFunction
    branch: list[BranchPoint] = field(default_factory=list)


def minimize(func: Functional, u0: DiscreteFunction,
             opts: SolveOptions | None = None) -> SolveReport:
    """Descend an energy functional from u0 to a nonnegative critical point.

    The energy sequence is nonincreasing up to the rounding floor of the
    energy evaluation.  An exact critical point returns immediately with
    zero iterations.  The result is clipped to be nonnegative, and its
    energy and residual are those of the clipped function.  A converged
    result is COLLAPSED when the functional's ``collapsed`` test finds it in
    the zero basin of its own ray.
    """
    opts = opts or SolveOptions()
    meas = u0.grid.measures
    u, energy, res, it, status = descend(
        func.energy, func.gradient, u0.values, meas, opts.residual_tol,
        opts.max_iters, precondition=func.precondition, newton=func.newton)
    clipped = np.maximum(u, 0.0)
    if not np.array_equal(clipped, u):
        u = clipped
        energy = func.energy(u)
        res = mass_norm(func.gradient(u), meas)
    if status is Status.CONVERGED and res > opts.residual_tol:
        status = Status.MAX_ITERS
    if status is Status.CONVERGED and func.collapsed is not None \
            and func.collapsed(u):
        status = Status.COLLAPSED
    return SolveReport(
        u=DiscreteFunction(u, u0.grid),
        energy=energy,
        residual=res,
        iterations=it,
        status=status,
    )


def torsion_solve(kw: KernelWeights, grid: Grid, p: float,
                  opts: SolveOptions | None = None,
                  u0: DiscreteFunction | None = None) -> SolveReport:
    """Solve L u = 1: the positive barrier whose profile matches d(x)^s."""
    opts = opts or SolveOptions()
    func = torsion_functional(kw, grid, p)
    if u0 is None:
        u0 = DiscreteFunction(np.full(grid.ncells, 0.1), grid)
    rep = minimize(func, u0, opts)
    if rep.status is not Status.CONVERGED:
        raise SolverError(
            f"torsion solve did not converge: status {rep.status.value}, "
            f"residual {rep.residual:.3e}")
    return rep


def initial_values(kind: str, grid: Grid, kw: KernelWeights,
                   lp: LogisticParams, opts: SolveOptions,
                   eigen: EigenPair | None = None) -> np.ndarray:
    """Build a starting iterate: seeded random, or a point on the ray of u1.

    The eigen start returns t * u1 at the valley of the free energy along
    the ray (``_fiber_extrema``), the last local minimum, which lands the
    descent in the nontrivial basin even where that minimum has positive
    energy.  Without one it returns the origin, from which the solve
    collapses cleanly.
    """
    if kind == "random":
        return seeded_uniform(opts.seed, 0.1, 1.0, grid.ncells)
    if kind == "eigen":
        if eigen is None:
            eigen = principal_eigenpair(kw, grid, lp.p, EigenOptions(seed=opts.seed))
        t = _fiber_extrema(eigen.u1.values, kw, lp, grid.measures)[1]
        return t * eigen.u1.values if t > 0.0 else np.zeros(grid.ncells)
    raise ValueError(f"unknown initial guess kind: {kind}")


def solve_branch_point(lam: float, warm: DiscreteFunction | None, params,
                       kw: KernelWeights, grid: Grid,
                       opts: SolveOptions | None = None,
                       eigen: EigenPair | None = None) -> SolveReport:
    """Solve the logistic problem at one intensity.

    Without a warm start the descent of Phi begins at ``initial_values``.
    A warm start is a converged solution at a smaller intensity, and the
    descent begins at it.  The branch is ordered, so the solution lies above
    the warm profile; one that ends below it by more than 1e-6 of the sup
    norm has left the branch, and SolverError is raised.
    """
    opts = opts or SolveOptions()
    lp = LogisticParams(lam=lam, p=params.p, q=params.q, r=params.r)
    func = phi_functional(kw, grid, lp)
    if warm is None:
        u0 = initial_values(opts.initial, grid, kw, lp, opts, eigen)
        return minimize(func, DiscreteFunction(u0, grid), opts)

    rep = minimize(func, warm, opts)
    gap = float((warm.values - rep.u.values).max())
    if gap > 1e-6 * max(rep.u.sup_norm(), warm.sup_norm()):
        raise SolverError(
            f"warm-started solve lost the branch ordering (max violation {gap:.3e})")
    return rep


def lower_bound_lambda0(params, lambda1: float) -> float:
    """Analytic positive lower bound for the existence threshold (q > p).

    The reaction stays below lambda1 * t^(p-1) for every t > 0 exactly when
    lam <= min over t of [lambda1 t^(p-q) + t^(r-q)], minimized in closed
    form; below the bound any nonnegative critical point is zero.
    """
    p, q, r = params.p, params.q, params.r
    if q <= p:
        raise ValueError(f"lower bound requires q > p, got q = {q}, p = {p}")
    if lambda1 <= 0.0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    try:
        t_star = (lambda1 * (q - p) / (r - q)) ** (1.0 / (r - p))
    except OverflowError:
        raise SolverError(f"the minimizer t* of the threshold lower bound "
                          f"overflows float64 (q = {q!r}, r = {r!r})") from None
    return lambda1 * t_star ** (p - q) + t_star ** (r - q)


def detect_threshold(params, kw: KernelWeights, grid: Grid,
                     opts: SolveOptions | None = None,
                     bracket_tol: float = 1e-3,
                     lambda_high: float | None = None,
                     eigen: EigenPair | None = None) -> ThresholdReport:
    """Locate the smallest solvable intensity in one walk down the branch.

    Each probe descends the free energy from the last solvable solution and
    is solvable when ``minimize`` reports it converged rather than collapsed,
    that is past the energy peak of its own ray; a tiny iterate has that
    peak far beyond t = 1.  From a solvable high intensity the walk scales
    lam by ``CONTINUATION_FACTOR`` until the first collapse, then bisects
    the bracket down to ``bracket_tol``.  A solvable probe below the
    analytic lower bound raises at once, so the walk ends.
    """
    opts = opts or SolveOptions()
    if eigen is None:
        eigen = principal_eigenpair(kw, grid, params.p, EigenOptions(seed=opts.seed))
    lam0 = lower_bound_lambda0(params, eigen.lambda1)

    def probe(lam: float, u_start: np.ndarray | None) -> SolveReport | None:
        lp = LogisticParams(lam=lam, p=params.p, q=params.q, r=params.r)
        if u_start is None:
            u_start = initial_values("eigen", grid, kw, lp, opts, eigen)
        rep = minimize(phi_functional(kw, grid, lp),
                       DiscreteFunction(u_start, grid), opts)
        if rep.status is Status.MAX_ITERS and rep.iterations < opts.max_iters:
            raise SolverError(
                f"threshold probe at lam = {lam:.6g} stopped after "
                f"{rep.iterations} of {opts.max_iters} iterations "
                f"(residual {rep.residual:.3e})")
        if rep.status is Status.MAX_ITERS:
            raise SolverError(
                f"threshold probe at lam = {lam:.6g} hit the iteration cap "
                f"(residual {rep.residual:.3e}); raise max_iters")
        if rep.status is Status.COLLAPSED:
            return None
        if lam < lam0 * (1.0 - 1e-9):
            raise SolverError(
                f"threshold {lam:.6g} fell below the analytic bound {lam0:.6g}")
        return rep

    lam = 4.0 * lam0 if lambda_high is None else lambda_high
    rep = probe(lam, None)
    while rep is None:
        if lambda_high is not None:
            raise SolverError(
                f"no solvable starting point: lam_high = {lam:.6g} collapsed")
        lam *= 2.0
        if lam > 1024.0 * lam0:
            raise SolverError(
                "no solvable starting point found; pass lambda_high explicitly")
        rep = probe(lam, None)

    walk = [(lam, rep)]  # the solvable probes, lam strictly decreasing
    lam_no = None
    while lam_no is None or walk[-1][0] - lam_no > bracket_tol:
        lam_yes, rep_yes = walk[-1]
        lam = (CONTINUATION_FACTOR * lam_yes if lam_no is None
               else 0.5 * (lam_yes + lam_no))
        rep = probe(lam, rep_yes.u.values)
        if rep is None:
            lam_no = lam
        else:
            walk.append((lam, rep))

    lam_star, rep_star = walk[-1]
    return ThresholdReport(
        lambda_star_h=lam_star,
        lambda_0=lam0,
        bracket_width=lam_star - lam_no,
        u_star=rep_star.u,
        branch=[BranchPoint(lam=l, sup_norm=r.u.sup_norm(), energy=r.energy,
                            status=r.status.value) for l, r in reversed(walk)],
    )


def mountain_pass(lam: float, params, kw: KernelWeights, grid: Grid,
                  u_lam: DiscreteFunction,
                  opts: SolveOptions | None = None) -> SolveReport:
    """Search for the second solution between zero and the branch solution.

    Along each ray t * v the free energy rises to one peak and then falls
    when q > p; the mountain-pass solution is the lowest such peak.  The
    search descends Phi from the peak of the ray through u_lam, moving every
    trial point to the peak of its own ray, and stops once the residual
    |grad Phi| is at most ``residual_tol``.  When that first peak is missing
    or does not lie before u_lam there is no barrier between zero and u_lam,
    and the search reports NOT_FOUND at once with the zero function.
    """
    opts = opts or SolveOptions()
    lp = LogisticParams(lam=lam, p=params.p, q=params.q, r=params.r)
    func = phi_functional(kw, grid, lp)
    meas = grid.measures

    t0 = _fiber_extrema(u_lam.values, kw, lp, meas)[0]
    if not t0 < 1.0:
        return SolveReport(u=DiscreteFunction(np.zeros(grid.ncells), grid),
                           energy=0.0, residual=float("nan"), iterations=0,
                           status=Status.NOT_FOUND)
    u, _, _, it, _ = descend(
        func.energy, func.gradient, t0 * u_lam.values, meas, opts.residual_tol,
        opts.max_iters, retract=lambda v: _fiber_extrema(v, kw, lp, meas)[0] * v,
        precondition=func.precondition, newton=func.newton)

    v = np.minimum(np.maximum(u, 0.0), u_lam.values)
    res = mass_norm(func.gradient(v), meas)
    energy = func.energy(v)
    status = Status.CONVERGED if res <= opts.residual_tol else Status.MAX_ITERS
    gap_zero = float(np.abs(v).max())
    gap_top = float(np.abs(u_lam.values - v).max())
    if status is Status.CONVERGED and (gap_zero <= DISTINCT_TOL
                                       or gap_top <= DISTINCT_TOL):
        status = Status.NOT_FOUND
    return SolveReport(u=DiscreteFunction(v, grid), energy=energy,
                       residual=res, iterations=it, status=status)
