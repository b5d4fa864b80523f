"""Discrete functions, the nonlocal energy, and the cell-averaged operator.

A discrete function is piecewise constant on the grid cells and extended by
zero outside the domain.  Its nonlocal energy is

    E(u) = sum_{i != j} W_ij |u_i - u_j|^p  +  2 sum_i V_i |u_i|^p,

which is the exact Gagliardo double integral of the piecewise-constant
extension.  The operator below is the exact gradient of E/p with respect to
the mass inner product <u, v> = sum_i u_i v_i |C_i|, so the discrete
integration-by-parts identity <Lu, u> = E(u) holds to rounding.

For p = 2 the energy is quadratic, E(u) = u^T K u with

    K = 2 (diag(sum_j W_ij + V_i) - W),

symmetric positive definite, and the descent solvers step in its metric
(``sobolev_preconditioner``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Grid
from .kernel import KernelWeights

__all__ = [
    "GridMismatchError",
    "DiscreteFunction",
    "signed_power",
    "gagliardo_energy",
    "apply_operator",
    "lp_norm",
    "mass_dot",
    "mass_norm",
    "sobolev_preconditioner",
]


class GridMismatchError(ValueError):
    """Cell values do not match their grid or the weight table."""


@dataclass(eq=False)
class DiscreteFunction:
    """Cell values together with the grid they live on."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ncells,):
            raise GridMismatchError(
                f"expected {self.grid.ncells} cell values, got shape "
                f"{self.values.shape}")

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def signed_power(a, nu: float):
    """Odd power |a|^(nu-1) * a, elementwise; maps 0 to 0 for any nu > 0."""
    arr = np.asarray(a, dtype=float)
    out = np.sign(arr) * np.abs(arr) ** nu
    return out if arr.ndim else float(out)


def _check_weights(values: np.ndarray, kw: KernelWeights) -> None:
    if kw.ncells != values.shape[0]:
        raise GridMismatchError(
            f"weight table for {kw.ncells} cells, function has "
            f"{values.shape[0]}")


# The m x m pair terms are built in place in one or two buffers, so that an
# operator call allocates no further m x m temporaries.

def _energy(values: np.ndarray, kw: KernelWeights, p: float) -> float:
    diff = np.subtract.outer(values, values)
    np.abs(diff, out=diff)
    diff **= p
    diff *= kw.W
    pair = float(diff.sum())
    ext = 2.0 * float((kw.V * np.abs(values) ** p).sum())
    return pair + ext


def _apply(values: np.ndarray, kw: KernelWeights, p: float,
           measures: np.ndarray) -> np.ndarray:
    diff = np.subtract.outer(values, values)
    mag = np.abs(diff)
    mag **= p - 1.0
    np.copysign(mag, diff, out=mag)
    mag *= kw.W
    row = 2.0 * mag.sum(axis=1)
    row += 2.0 * kw.V * signed_power(values, p - 1.0)
    return row / measures


def gagliardo_energy(u: DiscreteFunction, kw: KernelWeights, p: float) -> float:
    """Exact nonlocal p-energy of the zero-extended piecewise-constant function."""
    _check_weights(u.values, kw)
    return _energy(u.values, kw, p)


def apply_operator(u: DiscreteFunction, kw: KernelWeights, p: float) -> DiscreteFunction:
    """Cell averages of the nonlocal operator applied to u.

    (Lu)_i = [2 sum_j W_ij (u_i - u_j)^(p-1) + 2 V_i u_i^(p-1)] / |C_i|
    with signed powers, so that |C_i| (Lu)_i is the partial derivative of
    E(u)/p in u_i.
    """
    _check_weights(u.values, kw)
    return DiscreteFunction(_apply(u.values, kw, p, u.grid.measures), u.grid)


def lp_norm(u: DiscreteFunction, nu: float) -> float:
    """Mass-weighted L^nu norm of the cell function; nu = inf gives the sup norm."""
    if np.isinf(nu):
        return u.sup_norm()
    if nu <= 0.0:
        raise ValueError(f"norm exponent must be positive, got {nu}")
    return float((np.abs(u.values) ** nu * u.grid.measures).sum() ** (1.0 / nu))


def mass_dot(a: np.ndarray, b: np.ndarray, measures: np.ndarray) -> float:
    """L^2 pairing sum_i a_i b_i |C_i| on raw value arrays."""
    return float((a * b * measures).sum())


def mass_norm(a: np.ndarray, measures: np.ndarray) -> float:
    return mass_dot(a, a, measures) ** 0.5


def sobolev_preconditioner(kw: KernelWeights, p: float, measures: np.ndarray
                           ) -> Callable[[np.ndarray], np.ndarray] | None:
    """The map g -> K^-1 (M g) for p = 2, None for any other p.

    K = 2 (diag(sum_j W_ij + V_i) - W) is the Hessian of E/2 and M the
    diagonal of the cell measures, so that the map sends the mass gradient
    of an energy to its gradient in the metric of K (a Sobolev gradient).
    """
    if p != 2.0:
        return None
    kinv = kw.k_inverse
    return lambda g: kinv @ (measures * g)
