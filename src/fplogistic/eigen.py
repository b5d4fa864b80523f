"""Principal eigenpair of the nonlocal operator by Rayleigh-quotient descent.

The first eigenvalue is the minimum of R(u) = E(u) / ||u||_p^p over nonzero
cell functions.  On the sphere ||u||_p = 1 the quotient is E(u) and the
mass-gradient of E/p there is Lu - R(u) u^(p-1), which vanishes exactly at an
eigenpair.  The package's descent engine (``descent.descend``) minimizes E on
the sphere, with normalization as its retraction, from strictly positive
starts that ``seeded_uniform`` draws with the standard library's ``random``.
For p = 2 it steps in the metric of K, the Hessian of E/2, which makes it a
preconditioned inverse iteration.  Callers pass the pair to the solvers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .descent import descend
from .domain import Grid
from .kernel import KernelWeights
from .operator import (DiscreteFunction, _apply, _energy, _check_weights,
                       signed_power, sobolev_preconditioner)

__all__ = ["EigenError", "EigenOptions", "EigenPair", "rayleigh_quotient",
           "principal_eigenpair", "seeded_uniform"]


class EigenError(RuntimeError):
    """No restart of the eigen iteration converged."""


@dataclass
class EigenOptions:
    residual_tol: float | None = None   # default 1e-8 for p = 2, else 1e-6
    max_iters: int = 50_000
    restarts: int = 1
    seed: int = 0   # random.Random seed of the restart starts (seeded_uniform)


@dataclass(eq=False)
class EigenPair:
    lambda1: float
    u1: DiscreteFunction
    residual: float
    iterations: int
    restarts_agreement: float
    discarded_restarts: int = 0


def seeded_uniform(seed: int, lo: float, hi: float, size: int) -> np.ndarray:
    """size draws from [lo, hi) by random.Random(seed).

    Python keeps the stream of random() fixed for integer seeds.
    """
    draw = random.Random(seed).random
    return lo + (hi - lo) * np.array([draw() for _ in range(size)])


def rayleigh_quotient(u: DiscreteFunction, kw: KernelWeights) -> float:
    """E(u) / ||u||_p^p with p = kw.p; rejects the zero function."""
    _check_weights(u.values, kw)
    denom = float((np.abs(u.values) ** kw.p * u.grid.measures).sum())
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero function")
    return _energy(u.values, kw) / denom


def _normalize(v: np.ndarray, p: float, measures: np.ndarray) -> np.ndarray:
    nrm = float((np.abs(v) ** p * measures).sum() ** (1.0 / p))
    if nrm == 0.0:
        raise EigenError("iterate collapsed to zero")
    return v / nrm


def principal_eigenpair(kw: KernelWeights, grid: Grid,
                        opts: EigenOptions | None = None) -> EigenPair:
    """First eigenpair (lambda1, u1) with u1 > 0 and ||u1||_p = 1, p = kw.p.

    Runs opts.restarts strictly positive seeds; restarts that converge to a
    sign-changing function are discarded and counted.  The smallest converged
    eigenvalue wins, ties resolved by restart order.  For p = 2 the descent
    is preconditioned with ``operator.sobolev_preconditioner``, so that its
    iteration count does not grow with the number of cells.
    """
    opts = opts or EigenOptions()
    p = kw.p
    if opts.restarts < 1:
        raise ValueError(f"restarts must be positive, got {opts.restarts}")
    tol = opts.residual_tol
    if tol is None:
        tol = 1e-8 if p == 2.0 else 1e-6
    starts = seeded_uniform(opts.seed, 0.5, 1.5, opts.restarts * grid.ncells)
    meas = grid.measures
    precondition = sobolev_preconditioner(kw, meas)
    last_quotient = [0.0]

    def quotient(v: np.ndarray) -> float:
        last_quotient[0] = _energy(v, kw)
        return last_quotient[0]

    def gradient(v: np.ndarray) -> np.ndarray:
        # the engine asks for the gradient where it last evaluated the quotient
        return _apply(v, kw, meas) - last_quotient[0] * signed_power(v, p - 1.0)

    accepted: list[tuple[float, np.ndarray, float, int]] = []
    discarded = 0
    last_res = None
    for start in starts.reshape(opts.restarts, -1):
        u0 = _normalize(start, p, meas)
        u, lam, res, it, _ = descend(quotient, gradient, u0, meas, tol,
                                     opts.max_iters,
                                     retract=lambda v: _normalize(v, p, meas),
                                     precondition=precondition)
        last_res = res
        if res > tol:
            continue
        if float((u * meas).sum()) < 0.0:
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
