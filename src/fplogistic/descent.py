"""The package's one descent engine: Barzilai-Borwein steps, Armijo safeguard.

Every iterative answer of the package comes from ``descend``: the branch
minimizers of the logistic energy (``solve.minimize``), the principal
eigenpair (``eigen``, on the p-sphere, normalization as the retraction) and
the mountain-pass saddle (``solve.mountain_pass``, the free energy on the
energy peaks of rays, the move of a point to the peak of its ray as the
retraction).  For p = 2 the callers pass ``operator.sobolev_preconditioner``
and the steps are taken in the metric of K, the Hessian of E/2; for every
other p they are taken in the mass inner product of the cell measures.  The
residual is the mass norm of the gradient in both cases.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from .operator import mass_dot, mass_norm

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
    MAX_ITERS = "max_iters"
    NOT_FOUND = "not_found"


def descend(energy: Callable[[np.ndarray], float],
            gradient: Callable[[np.ndarray], np.ndarray],
            u0: np.ndarray, measures: np.ndarray, tol: float, max_iters: int,
            *, retract: Callable[[np.ndarray], np.ndarray] | None = None,
            precondition: Callable[[np.ndarray], np.ndarray] | None = None,
            ) -> tuple[np.ndarray, float, float, int, Status]:
    """Monotone descent from u0; returns (u, energy, residual, iterations, status).

    Stops with CONVERGED once the mass norm of the gradient is at most tol,
    and with MAX_ITERS at the iteration cap or when the line search fails
    far from a minimum; at MAX_ITERS the iterate of smallest residual is
    returned.  Whether a converged point is the zero solution is the
    caller's question (``solve.minimize``).  ``retract`` maps every trial
    point back onto a constraint set.  ``gradient`` is called once per
    iterate, right after ``energy`` was evaluated at that same point, so a
    caller may carry work from one to the other.

    ``precondition`` maps the mass gradient g to the search direction
    d = K^-1 (M g) of a symmetric positive definite metric K, M the
    diagonal of the cell measures; the Armijo test then uses <g, d>_M and
    the Barzilai-Borwein step is measured in K.  Without it d = g.
    """
    move = retract or (lambda v: v)
    u = np.asarray(u0, dtype=float).copy()
    value = energy(u)
    if not np.isfinite(value):
        raise SolverError(f"non-finite energy at the initial point ({value})")
    g = gradient(u)
    d = g if precondition is None else precondition(g)
    res = mass_norm(g, measures)

    prev_u = prev_g = prev_d = None
    step = 1.0
    it = 0
    free = False
    endgame_res = 1e3 * tol
    best_u, best_res, best_value = u, res, value
    status = Status.CONVERGED
    while res > tol:
        if it >= max_iters:
            status = Status.MAX_ITERS
            break
        if prev_u is not None:
            du = u - prev_u
            dg = g - prev_g
            denom = mass_dot(du, dg, measures)
            if denom > 0.0:
                if precondition is None:
                    step = mass_dot(du, du, measures) / denom
                else:
                    # <du, dd>_K / <dd, dd>_K with dd = d - prev_d = K^-1 M dg,
                    # so that K itself is never applied
                    curv = mass_dot(dg, d - prev_d, measures)
                    step = denom / curv if curv > 0.0 else step
                step = min(max(step, 1e-14), 1e8)
        gg = res * res if precondition is None else mass_dot(g, d, measures)
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
            if not np.isfinite(ev) or res > max(1e6 * endgame_res, 1.0):
                status = Status.MAX_ITERS
                break
        else:
            t = step
            accepted = False
            for _ in range(60):
                v = move(u - t * d)
                ev = energy(v)
                if np.isfinite(ev) and ev <= value - ARMIJO_C * t * gg + slack:
                    accepted = True
                    break
                t *= ARMIJO_SHRINK
            if not accepted:
                if res <= endgame_res:
                    free = True
                    continue
                status = Status.MAX_ITERS
                break
        prev_u, prev_g, prev_d = u, g, d
        u, value = v, ev
        g = gradient(u)
        d = g if precondition is None else precondition(g)
        res = mass_norm(g, measures)
        if res < best_res:
            best_u, best_res, best_value = u, res, value
        it += 1

    if status is Status.MAX_ITERS and best_res < res:
        u, res, value = best_u, best_res, best_value
    return u, value, res, it, status
