"""Logistic reaction, its primitive, the energy functional, and truncations.

The reaction is f(t) = lam * (t+)^(q-1) - (t+)^(r-1) with primitive
F(t) = lam * (t+)^q / q - (t+)^r / r.  The free energy of a cell function is

    Phi(u) = E(u)/p - sum_i F(u_i) |C_i|,

whose mass-gradient is Lu - f(u).  For branch continuation the reaction is
truncated cellwise around a positive anchor function: frozen at its anchor
value below the anchor, so that minimizers of the truncated energy dominate
the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernel import KernelWeights
from .operator import (DiscreteFunction, _apply, _energy, _check_weights,
                       sobolev_preconditioner)

__all__ = [
    "LogisticParams",
    "TruncatedReaction",
    "Functional",
    "reaction",
    "reaction_primitive",
    "truncated_reaction",
    "truncated_primitive",
    "phi_functional",
    "truncated_functional",
    "torsion_functional",
]


@dataclass(frozen=True)
class LogisticParams:
    """Reaction exponents and intensity: f(t) = lam (t+)^{q-1} - (t+)^{r-1}."""

    lam: float
    p: float
    q: float
    r: float

    def __post_init__(self) -> None:
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")


def _pos_pow(t, expo: float):
    return np.maximum(np.asarray(t, dtype=float), 0.0) ** expo


def reaction(lp: LogisticParams, t):
    """f(t); vanishes identically for t <= 0."""
    out = lp.lam * _pos_pow(t, lp.q - 1.0) - _pos_pow(t, lp.r - 1.0)
    return out if np.ndim(t) else float(out)


def reaction_primitive(lp: LogisticParams, t):
    """F(t) = int_0^t f; bounded above since r > q."""
    out = lp.lam * _pos_pow(t, lp.q) / lp.q - _pos_pow(t, lp.r) / lp.r
    return out if np.ndim(t) else float(out)


@dataclass(eq=False)
class TruncatedReaction:
    """Reaction frozen at its value on a strictly positive anchor below it."""

    anchor: DiscreteFunction
    base: LogisticParams
    # anchor-only terms f(a), F(a) and f(a) a, computed once
    f_anchor: np.ndarray = field(init=False, repr=False)
    F_anchor: np.ndarray = field(init=False, repr=False)
    fa_anchor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = self.anchor.values
        if not np.all(a > 0.0):
            raise ValueError("truncation anchor must be strictly positive on all cells")
        self.f_anchor = reaction(self.base, a)
        self.F_anchor = reaction_primitive(self.base, a)
        self.fa_anchor = self.f_anchor * a


def truncated_reaction(tr: TruncatedReaction, t) -> np.ndarray:
    """Truncated reaction evaluated cellwise; t broadcasts against the anchor."""
    a = tr.anchor.values
    t = np.broadcast_to(np.asarray(t, dtype=float), a.shape)
    return np.where(t <= a, tr.f_anchor, reaction(tr.base, t))


def truncated_primitive(tr: TruncatedReaction, t) -> np.ndarray:
    """Cellwise primitive of the truncated reaction, vanishing at t = 0."""
    a = tr.anchor.values
    t = np.broadcast_to(np.asarray(t, dtype=float), a.shape)
    low = tr.f_anchor * t
    high = tr.fa_anchor + reaction_primitive(tr.base, t) - tr.F_anchor
    return np.where(t <= a, low, high)


@dataclass(eq=False)
class Functional:
    """Energy/gradient pair consumed by the descent solver (raw value arrays).

    ``precondition`` is the Sobolev preconditioner of the energy's diffusion
    part (``operator.sobolev_preconditioner``) for p = 2, under which the
    descent steps in the metric of the Hessian of E/2, and None otherwise.
    """

    energy: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    precondition: Callable[[np.ndarray], np.ndarray] | None


def _functional(kw: KernelWeights, grid, p: float, primitive, rxn) -> Functional:
    """E(u)/p - sum_i primitive(u)_i |C_i|, whose mass-gradient is Lu - rxn(u)."""
    _check_weights(grid.measures, kw)
    m = grid.measures
    return Functional(
        energy=lambda v: _energy(v, kw, p) / p - float((primitive(v) * m).sum()),
        gradient=lambda v: _apply(v, kw, p, m) - rxn(v),
        precondition=sobolev_preconditioner(kw, p, m),
    )


def phi_functional(kw: KernelWeights, grid, lp: LogisticParams) -> Functional:
    """Free energy Phi(u) = E(u)/p - sum F(u_i)|C_i|, gradient Lu - f(u)."""
    return _functional(kw, grid, lp.p, lambda v: reaction_primitive(lp, v),
                       lambda v: reaction(lp, v))


def truncated_functional(kw: KernelWeights, grid, tr: TruncatedReaction) -> Functional:
    """Phi with the reaction replaced by its truncation around the anchor."""
    return _functional(kw, grid, tr.base.p, lambda v: truncated_primitive(tr, v),
                       lambda v: truncated_reaction(tr, v))


def torsion_functional(kw: KernelWeights, grid, p: float) -> Functional:
    """Energy E(u)/p - sum_i u_i |C_i| whose critical point solves L u = 1."""
    return _functional(kw, grid, p, lambda v: v, lambda v: 1.0)
