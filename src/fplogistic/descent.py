"""The package's one descent engine and its one stop rule.

Every iterative answer of the package comes from ``descend``: the branch
minimizers of the logistic energy (``solve.minimize``), the principal
eigenpair (``eigen``, on the p-sphere, normalization as the retraction) and
the mountain-pass saddle (``solve.mountain_pass``, the free energy on the
energy peaks of rays, the move of a point to the peak of its ray as the
retraction).  Each starts on the grid of its ``Functional``, stops on the
command's ``SolveOptions`` and ends in one ``SolveReport``; ``descend``
alone decides whether it converged: its residual is at most
``residual_tol`` within ``max_iters`` iterations, at the clipped point when
the functional clips.  A descent that stops short raises SolverError, in
one wording for every solve, so every report a caller sees has finished.
For p = 2 the steps are taken in a metric built on K, the Hessian of E/2:
on the free energy with q >= 2 the full Hessian at the iterate (inexact
Newton steps, ``operator.newton_direction``), elsewhere K itself
(``operator.sobolev_preconditioner``).  For every other p they are taken
in the mass inner product of the cell measures.  The residual is the mass
norm of the gradient in every case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Grid
from .operator import DiscreteFunction, _check_grid, mass_dot, mass_norm

# Armijo sufficient-decrease constant and backtracking factor of descend
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
# unit roundoff of the energy evaluation, scaled into the Armijo slack
_EPS = float(np.finfo(float).eps)


class SolverError(RuntimeError):
    """Hard solver failure (non-finite energy, broken ordering, no start)."""


class Status(enum.Enum):
    CONVERGED = "converged"
    COLLAPSED = "collapsed"
    NOT_FOUND = "not_found"


@dataclass
class SolveOptions:
    """The stop rule of every descent; the seed of every random start."""

    residual_tol: float = 1e-8
    max_iters: int = 50_000
    seed: int = 0
    initial: str = "eigen"          # eigen | random


@dataclass(eq=False)
class SolveReport:
    """Where a descent ended, on the grid of its functional, and how."""

    u: DiscreteFunction
    energy: float
    residual: float
    iterations: int
    status: Status


@dataclass(eq=False)
class Functional:
    """An energy and what ``descend`` needs to descend it (raw value arrays).

    ``precondition`` maps the iterate u and its mass gradient g to a
    descent direction, or is None for the plain mass gradient.  With
    ``newton`` it is the inexact Newton direction of
    ``operator.newton_direction``, in the metric of the Hessian at u;
    without it is a fixed metric, for p = 2 the Sobolev preconditioner of
    the diffusion part (``operator.sobolev_preconditioner``).
    ``retract`` maps every trial point back onto a constraint set, and
    ``clip`` maps the final point into the admissible set.  ``collapsed``
    tells whether a critical point lies in the zero basin of its own ray;
    only Phi has one, and None means never.
    """

    energy: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    precondition: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    grid: Grid  # of the weights, and of the answers; its measures weigh every pairing
    collapsed: Callable[[np.ndarray], bool] | None = None
    newton: bool = False
    retract: Callable[[np.ndarray], np.ndarray] | None = None
    clip: Callable[[np.ndarray], np.ndarray] | None = None

    measures = property(lambda self: self.grid.measures)


def descend(func: Functional, u0: DiscreteFunction, opts: SolveOptions,
            what: str = "descent") -> SolveReport:
    """Monotone descent from u0 on ``func.grid`` (else GridMismatchError).

    Returns CONVERGED once the mass norm of the gradient is at most
    ``opts.residual_tol``.  Raises SolverError "<what> stopped after k of N
    iterations (residual r)" at ``opts.max_iters`` iterations (adding
    "; raise solver.max_iters"), at a non-finite residual, when the line
    search fails far from a minimum, or when ``clip`` moves the converged
    point to one above the tolerance (energy and residual are evaluated
    again there); and SolverError at a non-finite energy or residual at u0.
    Whether a converged point is the zero solution is the caller's question
    (``solve.minimize``).  ``gradient`` is called once per iterate, right
    after ``energy`` was evaluated at that same point, so a caller may carry
    work from one to the other.

    ``precondition`` maps the iterate u and its mass gradient g to the
    search direction d = P^-1 (M g) of a symmetric positive definite metric
    P, which may depend on u, M the diagonal of ``func.measures``.  The
    Armijo test then uses <g, d>_M.  For a fixed metric the
    Barzilai-Borwein step is measured in P.  With ``newton`` the metric is
    the Hessian at the iterate, or stands in for it where that is not
    positive definite, so it changes from step to step and no
    Barzilai-Borwein pairing applies; every line search then starts from
    the unit step.  Without
    ``precondition``, d = g.  Each mass pairing is one dot against M g,
    formed once per iterate.
    """
    energy, gradient, precondition = func.energy, func.gradient, func.precondition
    tol, newton, measures = opts.residual_tol, func.newton, func.measures
    move = func.retract or (lambda v: v)
    _check_grid(u0, func)
    u = u0.values.copy()
    value = energy(u)
    if not math.isfinite(value):
        raise SolverError(f"non-finite energy at the initial point ({value})")
    g = gradient(u)
    mg = measures * g
    d = g if precondition is None else precondition(u, g)
    res = float(g @ mg) ** 0.5
    if not math.isfinite(res):
        raise SolverError(f"non-finite residual at the initial point ({res})")

    prev_u = prev_mg = prev_d = None
    step = 1.0
    it = 0
    free = False
    endgame_res = 1e3 * tol
    while not res <= tol:
        # a non-finite residual is never converged
        if it >= opts.max_iters or not math.isfinite(res):
            break
        if prev_u is not None and not newton:
            du = u - prev_u
            dmg = mg - prev_mg
            denom = float(du @ dmg)
            if denom > 0.0:
                if precondition is None:
                    step = mass_dot(du, du, measures) / denom
                else:
                    # <du, dd>_P / <dd, dd>_P with dd = d - prev_d = P^-1 M dg,
                    # so that P itself is never applied
                    curv = float((d - prev_d) @ dmg)
                    step = denom / curv if curv > 0.0 else step
                step = min(max(step, 1e-14), 1e8)
        gg = res * res if precondition is None else float(d @ mg)
        slack = 8.0 * _EPS * max(1.0, abs(value))
        # near a minimum the energy decrease per step drops below the
        # rounding floor of the energy evaluation, whose cancellation noise
        # swamps the sufficient-decrease test; once the residual is small,
        # drop the line search and iterate plain Barzilai-Borwein steps,
        # which contract on the local quadratic basin without monotonicity
        if not free and res <= endgame_res \
                and ARMIJO_C * step * gg < 64.0 * slack:
            free = True
        if free:
            v = move(u - step * d)
            ev = energy(v)
            if not math.isfinite(ev) or res > max(1e6 * endgame_res, 1.0):
                break
        else:
            t = step
            accepted = False
            for _ in range(60):
                v = move(u - t * d)
                ev = energy(v)
                if math.isfinite(ev) and ev <= value - ARMIJO_C * t * gg + slack:
                    accepted = True
                    break
                t *= ARMIJO_SHRINK
            if not accepted:
                if res <= endgame_res:
                    free = True
                    continue
                break
        prev_u, prev_mg, prev_d = u, mg, d
        u, value = v, ev
        g = gradient(u)
        mg = measures * g
        d = g if precondition is None else precondition(u, g)
        res = float(g @ mg) ** 0.5
        it += 1
    else:
        clipped = u if func.clip is None else func.clip(u)
        if not np.array_equal(clipped, u):
            u, value = clipped, energy(clipped)
            res = mass_norm(gradient(u), measures)
    if not res <= tol:
        cap = "; raise solver.max_iters" if it >= opts.max_iters else ""
        raise SolverError(f"{what} stopped after {it} of {opts.max_iters} "
                          f"iterations (residual {res:.3e}){cap}")
    return SolveReport(DiscreteFunction(u, func.grid), value, res, it,
                       Status.CONVERGED)
