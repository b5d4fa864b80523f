"""Principal eigenpair of the nonlocal operator by Rayleigh-quotient descent.

The first eigenvalue is the minimum of R(u) = E(u) / ||u||_p^p over nonzero
cell functions.  On the sphere ||u||_p = 1 the mass-gradient of E/p is
Lu - R(u) u^(p-1), which vanishes exactly at an eigenpair; the solver runs
normalized gradient descent with Barzilai-Borwein trial steps and an Armijo
backtracking safeguard, restarted from strictly positive seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Grid
from .kernel import KernelWeights
from .operator import (DiscreteFunction, _apply, _energy, _check_weights,
                       mass_dot, mass_norm, signed_power)

__all__ = ["EigenError", "EigenOptions", "EigenPair", "rayleigh_quotient",
           "principal_eigenpair"]

# Armijo sufficient-decrease constant and backtracking factor, shared by
# every descent loop of the package
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5


class EigenError(RuntimeError):
    """No restart of the eigen iteration converged."""


@dataclass
class EigenOptions:
    residual_tol: float | None = None   # default 1e-8 for p = 2, else 1e-6
    max_iters: int = 50_000
    restarts: int = 1
    seed: int = 0


@dataclass(eq=False)
class EigenPair:
    lambda1: float
    u1: DiscreteFunction
    residual: float
    iterations: int
    restarts_agreement: float
    discarded_restarts: int = 0


def rayleigh_quotient(u: DiscreteFunction, kw: KernelWeights, p: float) -> float:
    """E(u) / ||u||_p^p; rejects the zero function."""
    _check_weights(u.values, kw)
    denom = float((np.abs(u.values) ** p * u.grid.measures).sum())
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero function")
    return _energy(u.values, kw, p) / denom


def _normalize(v: np.ndarray, p: float, measures: np.ndarray) -> np.ndarray:
    nrm = float((np.abs(v) ** p * measures).sum() ** (1.0 / p))
    if nrm == 0.0:
        raise EigenError("iterate collapsed to zero")
    return v / nrm


def _descend_quotient(kw: KernelWeights, grid: Grid, p: float, u0: np.ndarray,
                      tol: float, opts: EigenOptions) -> tuple[np.ndarray, float, float, int]:
    meas = grid.measures
    u = _normalize(u0, p, meas)
    lam = _energy(u, kw, p)

    def grad(v: np.ndarray, ray: float) -> np.ndarray:
        return _apply(v, kw, p, meas) - ray * signed_power(v, p - 1.0)

    g = grad(u, lam)
    res = mass_norm(g, meas)
    prev_u = prev_g = None
    step = 1.0 / (1.0 + lam)
    it = 0
    while it < opts.max_iters and res > tol:
        if prev_u is not None:
            du = u - prev_u
            dg = g - prev_g
            denom = mass_dot(du, dg, meas)
            if denom > 0.0:
                step = min(max(mass_dot(du, du, meas) / denom, 1e-12), 1e6)
        gg = res * res
        t = step
        # Armijo decrease up to the rounding floor of the quotient; near the
        # minimum the theoretical decrease c*t*|g|^2 underflows relative to
        # lam, and the plain two-point step must be allowed through.
        slack = 8.0 * np.finfo(float).eps * max(1.0, abs(lam))
        accepted = False
        for _ in range(60):
            v = _normalize(u - t * g, p, meas)
            lam_v = _energy(v, kw, p)
            if np.isfinite(lam_v) and lam_v <= lam - ARMIJO_C * t * gg + slack:
                accepted = True
                break
            t *= ARMIJO_SHRINK
        if not accepted:
            break
        prev_u, prev_g = u, g
        u, lam = v, lam_v
        g = grad(u, lam)
        res = mass_norm(g, meas)
        it += 1
    return u, lam, res, it


def principal_eigenpair(kw: KernelWeights, grid: Grid, p: float,
                        opts: EigenOptions | None = None) -> EigenPair:
    """First eigenpair (lambda1, u1) with u1 > 0 and ||u1||_p = 1.

    Runs opts.restarts strictly positive seeds; restarts that converge to a
    sign-changing function are discarded and counted.  The smallest converged
    eigenvalue wins, ties resolved by restart order.
    """
    opts = opts or EigenOptions()
    tol = opts.residual_tol
    if tol is None:
        tol = 1e-8 if p == 2.0 else 1e-6
    rng = np.random.default_rng(opts.seed)

    accepted: list[tuple[float, np.ndarray, float, int]] = []
    discarded = 0
    last_res = None
    for _ in range(max(opts.restarts, 1)):
        u0 = rng.uniform(0.5, 1.5, size=grid.ncells)
        u, lam, res, it = _descend_quotient(kw, grid, p, u0, tol, opts)
        last_res = res
        if res > tol:
            continue
        if float((u * grid.measures).sum()) < 0.0:
            u = -u
        if np.any(u <= 0.0):
            discarded += 1
            continue
        accepted.append((lam, u, res, it))

    if not accepted:
        raise EigenError(
            f"no eigen restart converged (last residual {last_res:.3e}, "
            f"tolerance {tol:.1e})")

    lams = [a[0] for a in accepted]
    best = min(range(len(accepted)), key=lambda k: lams[k])
    agreement = (max(lams) - min(lams)) / abs(lams[best]) if len(lams) > 1 else 0.0
    lam, u, res, it = accepted[best]
    return EigenPair(
        lambda1=lam,
        u1=DiscreteFunction(u, grid),
        residual=res,
        iterations=it,
        restarts_agreement=agreement,
        discarded_restarts=discarded,
    )
