"""Discrete functions, the nonlocal energy, and the cell-averaged operator.

A discrete function is piecewise constant on the grid cells and extended by
zero outside the domain.  Its nonlocal energy, for the p of the weights, is

    E(u) = sum_{i != j} W_ij |u_i - u_j|^p  +  2 sum_i V_i |u_i|^p,

which is the exact Gagliardo double integral of the piecewise-constant
extension.  The operator below is the exact gradient of E/p with respect to
the mass inner product <u, v> = sum_i u_i v_i |C_i|, so the discrete
integration-by-parts identity <Lu, u> = E(u) holds to rounding.

For p = 2 the energy is quadratic, E(u) = u^T K u with

    K = 2 (diag(sum_j W_ij + V_i) - W) = 2 (T I - W),

symmetric positive definite, and the descent solvers step in its metric
(``sobolev_preconditioner``), or in that of K - diag(c), the Hessian of a
free energy whose reaction contributes the curvature c
(``newton_direction``).  The diagonal is the constant 2T by
construction (V_i = T - sum_j W_ij), so the p = 2 operator is applied as
one matrix-vector product, |C| Lu = 2 (T u - W u), with no m x m
temporary.  Its rounding is about eps T |u| per cell, far below the
solvers' residual tolerances.  The p = 2 energy stays the pairwise sum:
u^T K u would subtract 2 T |u|^2 down to E(u), about two digits smaller,
and that cancellation noise exceeds the Armijo slack of the descent engine.
Each energy term is one dot: the m x m difference buffer against W, and
|u|^p against V.

Everything here also runs on the weights of ``kernel.fold``, the problem on
the mirror-even functions: there W carries its orbit sums on the diagonal
(a zero difference meets them), T is a vector, and the measures of their
grid are those of the orbits, so energies and mass norms are those of the
full problem.  ``DiscreteFunction.unfold`` gives the function on every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Grid, GridMismatchError
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
    "newton_direction",
]

# relative residual, in the K^-1 norm, at which newton_direction stops
NEWTON_FORCING = 0.01


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

    def unfold(self) -> DiscreteFunction:
        """The function on every cell of the grid its grid folds; else itself."""
        grid = self.grid
        if grid.full is None:
            return self
        return DiscreteFunction(self.values[grid.full_index], grid.full)


def signed_power(a, nu: float):
    """Odd power |a|^(nu-1) * a, elementwise; maps 0 to 0 for any nu > 0."""
    arr = np.asarray(a, dtype=float)
    out = np.sign(arr) * np.abs(arr) ** nu
    return out if arr.ndim else float(out)


def _check_grid(u: DiscreteFunction, owner) -> None:
    """u must live on the grid of owner, weights or a Functional, or GridMismatchError."""
    if u.grid is not owner.grid:
        raise GridMismatchError(
            f"expected a function on the grid of the weights ({owner.grid.ncells} "
            f"cells), got one on another grid ({u.grid.ncells} cells)")


def _check_params(params, kw: KernelWeights) -> None:
    """params (anything with .p and .s) must describe the p and s of the weights."""
    for name in ("p", "s"):
        want, got = getattr(kw, name), getattr(params, name)
        if got != want:
            raise GridMismatchError(
                f"weights assembled for {name} = {want}, got {name} = {got}")


# The m x m pair terms are built in place in one or two buffers, so that an
# operator call allocates no further m x m temporaries; the p = 2 operator
# needs none.

def _energy(values: np.ndarray, kw: KernelWeights) -> float:
    diff = np.subtract.outer(values, values)
    if kw.p == 2.0:
        diff *= diff
    else:
        np.abs(diff, out=diff)
        diff **= kw.p
    power = values * values if kw.p == 2.0 else np.abs(values) ** kw.p
    return float(diff.ravel() @ kw.W.ravel() + 2.0 * (kw.V @ power))


def _apply(values: np.ndarray, kw: KernelWeights) -> np.ndarray:
    if kw.p == 2.0:
        return 2.0 * (kw.T * values - kw.W @ values) / kw.measures
    diff = np.subtract.outer(values, values)
    mag = np.abs(diff)
    mag **= kw.p - 1.0
    np.copysign(mag, diff, out=mag)
    mag *= kw.W
    row = 2.0 * mag.sum(axis=1)
    row += 2.0 * kw.V * signed_power(values, kw.p - 1.0)
    return row / kw.measures


def gagliardo_energy(u: DiscreteFunction, kw: KernelWeights, p: float) -> float:
    """Exact nonlocal energy of the zero-extended function; p must be kw.p."""
    _check_grid(u, kw)
    if p != kw.p:
        raise GridMismatchError(f"weights assembled for p = {kw.p}, got p = {p}")
    return _energy(u.values, kw)


def apply_operator(u: DiscreteFunction, kw: KernelWeights, p: float) -> DiscreteFunction:
    """Cell averages of the nonlocal operator applied to u.

    (Lu)_i = [2 sum_j W_ij (u_i - u_j)^(p-1) + 2 V_i u_i^(p-1)] / |C_i|
    with signed powers and |C_i| the measures of kw, so that |C_i| (Lu)_i is
    the partial derivative of E(u)/p in u_i.  u must live on the grid of kw and
    p be kw.p (GridMismatchError otherwise).
    """
    _check_grid(u, kw)
    if p != kw.p:
        raise GridMismatchError(f"weights assembled for p = {kw.p}, got p = {p}")
    return DiscreteFunction(_apply(u.values, kw), u.grid)


def lp_norm(u: DiscreteFunction, nu: float) -> float:
    """Mass-weighted L^nu norm of the cell function; nu = inf gives the sup norm."""
    if np.isinf(nu):
        return u.sup_norm()
    if nu <= 0.0:
        raise ValueError(f"norm exponent must be positive, got {nu}")
    return float((np.abs(u.values) ** nu * u.grid.measures).sum() ** (1.0 / nu))


def mass_dot(a: np.ndarray, b: np.ndarray, measures: np.ndarray) -> float:
    """L^2 pairing sum_i a_i b_i |C_i| on raw value arrays."""
    return float((a * b) @ measures)


def mass_norm(a: np.ndarray, measures: np.ndarray) -> float:
    return mass_dot(a, a, measures) ** 0.5


def sobolev_preconditioner(
        kw: KernelWeights) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
    """The map (u, g) -> K^-1 (M g) when kw.p = 2, None for any other p.

    K = 2 (T I - W) is the Hessian of E/2 and M the diagonal of the cell
    measures of the weights, so that the map sends the mass gradient g of
    an energy at any iterate u to its gradient in the metric of K (a
    Sobolev gradient).
    """
    if kw.p != 2.0:
        return None
    kinv, measures = kw.k_inverse, kw.measures
    return lambda u, g: kinv @ (measures * g)


def newton_direction(kw: KernelWeights, shift: np.ndarray, b: np.ndarray
                     ) -> np.ndarray:
    """Inexact solve of H d = b, H = K - diag(shift), by truncated CG.

    With shift = M f'(u) and b = M g, H is the Hessian of the p = 2 free
    energy at u and d its inexact Newton direction (Dembo, Eisenstat &
    Steihaug 1982).  CG preconditioned by K^-1 starts at d = 0 and stops
    once the residual r = b - H d has |r|_{K^-1} <= NEWTON_FORCING |b|_{K^-1}.
    Each step multiplies by K^-1 once and needs no product with W: K p
    follows from p = z + beta p and K z = r.  Nothing is factorized.  A
    search direction p with p^T H p <= 0 shows that H is not positive
    definite there; the solve is then truncated (Steihaug 1983) and returns
    the iterate so far, or K^-1 b at the first step.  Every CG iterate from
    0 and K^-1 b itself have <d, b> > 0, so d is always a descent direction.
    """
    kinv = kw.k_inverse
    z = kinv @ b
    rz = float(b @ z)
    stop = NEWTON_FORCING * NEWTON_FORCING * rz
    r, p, kp, d = b, z, b, None  # kp = K p
    for _ in range(b.size):
        hp = kp - shift * p
        curv = float(p @ hp)
        if not curv > 0.0:
            break
        alpha = rz / curv
        d = alpha * p if d is None else d + alpha * p
        r = r - alpha * hp
        z = kinv @ r
        rz_next = float(r @ z)
        if rz_next <= stop:
            break
        beta = rz_next / rz
        p = z + beta * p
        kp = r + beta * kp
        rz = rz_next
    return z if d is None else d
