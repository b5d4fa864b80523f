"""Principal eigenpair of the nonlocal operator by Rayleigh-quotient descent.

The first eigenvalue is the minimum of R(u) = E(u) / ||u||_p^p over nonzero
cell functions.  On the sphere ||u||_p = 1 the quotient is E(u) and the
mass-gradient of E/p there is Lu - R(u) u^(p-1), which vanishes exactly at an
eigenpair.  The package's descent engine (``descent.descend``) minimizes E on
the sphere, with normalization as its retraction, once, from the strictly
positive start that ``seeded_uniform`` draws with the standard library's
``random``, and stops it on the caller's ``SolveOptions`` like every other
descent: it converges or raises SolverError.
For p = 2 it steps in the metric of K, the Hessian of E/2, which makes it a
preconditioned inverse iteration.  The pair carries the weights it was
solved on (``EigenPair.weights``), which the solvers read off it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .descent import Functional, SolveOptions, descend
from .kernel import KernelWeights
from .operator import (DiscreteFunction, _apply, _energy, _check_grid,
                       signed_power, sobolev_preconditioner)

__all__ = ["EigenError", "EigenPair", "rayleigh_quotient",
           "principal_eigenpair", "seeded_uniform"]


class EigenError(RuntimeError):
    """The eigen descent converged to no positive eigenfunction."""


@dataclass(eq=False)
class EigenPair:
    lambda1: float
    u1: DiscreteFunction
    residual: float
    iterations: int
    weights: KernelWeights  # solved on, full or folded; u1 lives on their grid

    def __post_init__(self) -> None:
        _check_grid(self.u1, self.weights)


def seeded_uniform(seed: int, lo: float, hi: float, size: int) -> np.ndarray:
    """size draws from [lo, hi) by random.Random(seed).

    Python keeps the stream of random() fixed for integer seeds.
    """
    draw = random.Random(seed).random
    return lo + (hi - lo) * np.array([draw() for _ in range(size)])


def rayleigh_quotient(u: DiscreteFunction, kw: KernelWeights) -> float:
    """E(u) / ||u||_p^p, p and measures of kw; rejects the zero function."""
    _check_grid(u, kw)
    denom = float((np.abs(u.values) ** kw.p * kw.measures).sum())
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero function")
    return _energy(u.values, kw) / denom


def _normalize(v: np.ndarray, p: float, measures: np.ndarray) -> np.ndarray:
    nrm = float((np.abs(v) ** p * measures).sum() ** (1.0 / p))
    if nrm == 0.0:
        raise EigenError("iterate collapsed to zero")
    return v / nrm


def principal_eigenpair(kw: KernelWeights,
                        opts: SolveOptions | None = None) -> EigenPair:
    """First eigenpair (lambda1, u1) of kw, u1 > 0 and ||u1||_p = 1, p = kw.p.

    One descent, on the grid of the weights, from the strictly positive
    start that ``opts.seed`` draws; the pair records kw as its ``weights``.
    The principal eigenvalue is simple and its eigenfunction has one sign,
    so the limit, flipped to positive mass, must be positive; a limit
    that is not positive raises EigenError, and a descent that stops short
    SolverError, as the "eigen solve" (``descent.descend``).
    For p = 2 the descent is preconditioned with
    ``operator.sobolev_preconditioner``, so that its iteration count does
    not grow with the number of cells.
    """
    opts = opts or SolveOptions()
    p, meas = kw.p, kw.measures
    last_quotient = [0.0]

    def quotient(v: np.ndarray) -> float:
        last_quotient[0] = _energy(v, kw)
        return last_quotient[0]

    def gradient(v: np.ndarray) -> np.ndarray:
        # the engine asks for the gradient where it last evaluated the quotient
        return _apply(v, kw) - last_quotient[0] * signed_power(v, p - 1.0)

    func = Functional(quotient, gradient, sobolev_preconditioner(kw), kw.grid,
                      retract=lambda v: _normalize(v, p, meas))
    start = _normalize(seeded_uniform(opts.seed, 0.5, 1.5, kw.ncells), p, meas)
    rep = descend(func, DiscreteFunction(start, kw.grid), opts, "eigen solve")
    u, res = rep.u.values, rep.residual
    if float((u * meas).sum()) < 0.0:
        u = -u
    if np.any(u <= 0.0):
        raise EigenError(
            f"eigen solve converged to a function that is not positive "
            f"(min {u.min():.3e}, residual {res:.3e})")
    return EigenPair(lambda1=rep.energy, u1=DiscreteFunction(u, kw.grid),
                     residual=res, iterations=rep.iterations, weights=kw)
