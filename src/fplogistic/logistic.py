"""Logistic reaction, its primitive, the energy functional, and truncations.

The reaction is f(t) = lam * (t+)^(q-1) - (t+)^(r-1) with primitive
F(t) = lam * (t+)^q / q - (t+)^r / r.  The free energy of a cell function is

    Phi(u) = E(u)/p - sum_i F(u_i) |C_i|,

whose mass-gradient is Lu - f(u), p and |C_i| those of the kernel weights.
Each energy here is a ``descent.Functional`` (importable from this module
too) whose final point ``descent.descend`` clips to u >= 0.

The truncation freezes the reaction cellwise at its value on a positive
anchor function, below the anchor.  No solver uses it: the branch is
continued by descending Phi from the warm profile
(``solve.solve_branch_point``).  It stays because the benchmark's tracer
(``perfbench/tracing.py``) wraps ``truncated_functional`` by name; it can
be deleted together with that entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descent import _EPS, Functional, SolverError
from .kernel import KernelWeights
from .operator import (DiscreteFunction, _apply, _energy, _check_grid,
                       newton_direction, sobolev_preconditioner)

__all__ = [
    "LogisticParams", "TruncatedReaction", "Functional", "reaction",
    "reaction_primitive", "truncated_reaction", "truncated_primitive",
    "phi_functional", "truncated_functional", "torsion_functional",
]


@dataclass(frozen=True)
class LogisticParams:
    """Reaction exponents and intensity: f(t) = lam (t+)^{q-1} - (t+)^{r-1}."""

    lam: float
    q: float
    r: float

    def __post_init__(self) -> None:
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")


def _reaction_pair(lp: LogisticParams, v: np.ndarray):
    """(F(v), f(v)) from one max(v, 0) and its (q-1)- and (r-1)-powers."""
    vp = np.maximum(v, 0.0)
    a, b = vp ** (lp.q - 1.0), vp ** (lp.r - 1.0)
    return vp * (lp.lam / lp.q * a - b / lp.r), lp.lam * a - b


def _reaction_slope(lp: LogisticParams, v: np.ndarray) -> np.ndarray:
    """f'(v), bounded for q >= 2; at q = 2 it takes lam on v <= 0."""
    vp = np.maximum(v, 0.0)
    return (lp.lam * (lp.q - 1.0)) * vp ** (lp.q - 2.0) \
        - (lp.r - 1.0) * vp ** (lp.r - 2.0)


def reaction(lp: LogisticParams, t):
    """f(t); vanishes identically for t <= 0."""
    out = _reaction_pair(lp, np.asarray(t, dtype=float))[1]
    return out if np.ndim(t) else float(out)


def reaction_primitive(lp: LogisticParams, t):
    """F(t) = int_0^t f; bounded above since r > q."""
    tp = np.maximum(np.asarray(t, dtype=float), 0.0)
    out = lp.lam * tp ** lp.q / lp.q - tp ** lp.r / lp.r
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
        self.F_anchor, self.f_anchor = _reaction_pair(self.base, a)
        self.fa_anchor = self.f_anchor * a


def _truncated_pair(tr: TruncatedReaction, v: np.ndarray):
    """(truncated primitive, truncated reaction) from one _reaction_pair."""
    F, f = _reaction_pair(tr.base, v)
    low = v <= tr.anchor.values
    return (np.where(low, tr.f_anchor * v, tr.fa_anchor + F - tr.F_anchor),
            np.where(low, tr.f_anchor, f))


def truncated_reaction(tr: TruncatedReaction, t) -> np.ndarray:
    """Truncated reaction evaluated cellwise; t broadcasts against the anchor."""
    return _truncated_pair(tr, np.asarray(t, dtype=float))[1]


def truncated_primitive(tr: TruncatedReaction, t) -> np.ndarray:
    """Cellwise primitive of the truncated reaction, vanishing at t = 0."""
    return _truncated_pair(tr, np.asarray(t, dtype=float))[0]


def _functional(kw: KernelWeights, pair,
                collapsed=None, slope=None) -> Functional:
    """E(u)/p - sum_i F(u)_i |C_i|, mass-gradient Lu - f(u), (F, f) = pair(u).

    ``energy(v)`` keeps f(v) for ``gradient`` on the same array (``is``).
    With ``slope`` (f', for p = 2) the precondition is the Newton direction
    at the iterate.  The clip is to u >= 0.
    """
    m, p = kw.measures, kw.p
    # the array of the last energy call and its f
    last = [None, None]

    def energy(v: np.ndarray) -> float:
        F, last[1] = pair(v)
        last[0] = v
        return _energy(v, kw) / p - float(m @ F)

    def gradient(v: np.ndarray) -> np.ndarray:
        return _apply(v, kw) - (last[1] if v is last[0] else pair(v)[1])

    def precondition(v: np.ndarray, g: np.ndarray) -> np.ndarray:
        return newton_direction(kw, m * slope(v), m * g)

    newton = slope is not None
    return Functional(energy, gradient,
                      precondition if newton else sobolev_preconditioner(kw),
                      kw.grid, collapsed, newton, clip=lambda v: np.maximum(v, 0.0))


def _fiber_extrema(v: np.ndarray, kw: KernelWeights,
                   lp: LogisticParams) -> tuple[float, float]:
    """Peak and valley t > 0 of Phi(t v), where it turns down and back up.

    Along the ray, Phi(t v) = t^p E/p - lam t^q A/q + t^r B/r with A and B
    the q- and r-masses of v+, so d/dt Phi(t v) = t^(q-1) h(log t) for
    h(x) = E e^((p-q)x) - lam A + B e^((r-q)x).  A sum of exponentials is
    convex, so h falls to its infimum (its value at the stationary point
    when q > p, else its limit as x -> -inf) and rises after it.  When the
    infimum is negative, the valley is the zero of h after it and, for
    q > p, the peak the zero before it; the other is nan, and both are nan
    when the infimum is not negative.  Each zero is reached by Newton's
    method, monotonically, from the x where one outer term of h alone
    cancels lam A, which lies on the zero's side of the infimum.  An
    extremum beyond the float64 range raises SolverError.
    """
    p, q, r, measures = kw.p, lp.q, lp.r, kw.measures
    nan = float("nan")
    vp = np.maximum(v, 0.0)
    la = lp.lam * float((vp ** q * measures).sum())
    b = float((vp ** r * measures).sum())
    if b == 0.0:
        return nan, nan
    e = _energy(v, kw)

    def h(x: float) -> tuple[float, float]:
        low, high = e * math.exp((p - q) * x), b * math.exp((r - q) * x)
        return low - la + high, (p - q) * low + (r - q) * high

    def zero(x: float, way: float) -> float:
        for _ in range(200):
            value, slope = h(x)
            x_next = x - value / slope
            if not (x_next - x) * way > 0.0:
                break
            x = x_next
        return math.exp(x)

    try:
        if q > p:
            low = h(math.log((q - p) * e / ((r - q) * b)) / (r - p))[0]
        else:
            low = (e if q == p else 0.0) - la
        # zero to rounding (q = p, lam = lambda1, v = u1) is not negative
        if not low < -16.0 * _EPS * (e + la):
            return nan, nan
        peak = zero(math.log(e / la) / (q - p), 1.0) if q > p else nan
        return peak, zero(math.log(la / b) / (r - q), -1.0)
    except OverflowError:
        raise SolverError(f"the extrema t of Phi along a ray overflow float64 "
                          f"(lam = {lp.lam:.6g}, q = {q!r}, r = {r!r})") from None


def phi_functional(kw: KernelWeights, lp: LogisticParams) -> Functional:
    """Free energy Phi(u) = E(u)/p - sum F(u_i)|C_i|, gradient Lu - f(u).

    A critical point u is collapsed when Phi(t u) has no valley, or (q > p)
    when t = 1 lies before its peak.  The test has no absolute scale: a tiny
    solution of a sublinear reaction sits at the valley of its ray.

    For p = 2 and q >= 2 the descent takes inexact Newton steps on the full
    Hessian K - M f'(u) (``Functional.newton``).  For q < 2, f'(t) grows
    like t^(q-2) as t -> 0+, so there it keeps the fixed metric K.
    """
    def collapsed(v: np.ndarray) -> bool:
        peak, valley = _fiber_extrema(v, kw, lp)
        return math.isnan(valley) or peak >= 1.0

    newton = kw.p == 2.0 and lp.q >= 2.0
    return _functional(kw, lambda v: _reaction_pair(lp, v),
                       collapsed,
                       (lambda v: _reaction_slope(lp, v)) if newton else None)


def truncated_functional(kw: KernelWeights, tr: TruncatedReaction) -> Functional:
    """Phi with the reaction truncated around an anchor on the cells of kw."""
    _check_grid(tr.anchor, kw)
    return _functional(kw, lambda v: _truncated_pair(tr, v))


def torsion_functional(kw: KernelWeights) -> Functional:
    """Energy E(u)/p - sum_i u_i |C_i| whose critical point solves L u = 1."""
    return _functional(kw, lambda v: (v, 1.0))
