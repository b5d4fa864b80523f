"""Problem parameters, domain geometry, and the uniform cell grid."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParamError",
    "GridError",
    "Regime",
    "ProblemParams",
    "DomainSpec",
    "Grid",
    "validate_params",
    "classify_regime",
    "build_grid",
]


class ParamError(ValueError):
    """An exponent tuple violates one of the validity constraints."""


class GridError(ValueError):
    """Invalid grid construction request."""


class Regime(enum.Enum):
    SUB = "sub"
    EQUI = "equi"
    SUPER = "super"


@dataclass(frozen=True)
class ProblemParams:
    """Validated exponent tuple (dim, s, p, q, r) plus the derived critical exponent.

    Validity: p >= 2, s in (0, 1), p*s < dim, p*s < 1 in 2D (the limit of
    piecewise-constant cells), and 1 < q < r < p_star where
    p_star = dim*p / (dim - p*s).
    """

    dim: int
    s: float
    p: float
    q: float
    r: float
    p_star: float

    @property
    def ps(self) -> float:
        return self.p * self.s


def validate_params(dim: int, s: float, p: float, q: float, r: float) -> ProblemParams:
    """Check an exponent tuple and return validated parameters.

    Raises ParamError naming the violated constraint.
    """
    dim = int(dim)
    s, p, q, r = float(s), float(p), float(q), float(r)
    if dim not in (1, 2):
        raise ParamError(f"dim must be 1 or 2, got {dim}")
    if not 0.0 < s < 1.0:
        raise ParamError(f"s not in (0,1): s = {s}")
    if not p >= 2.0:
        raise ParamError(f"p < 2: p = {p}")
    ps = p * s
    if not ps < dim:
        raise ParamError(f"ps >= N: p*s = {ps}, N = {dim}")
    if dim == 2 and not ps < 1.0:
        raise ParamError(
            f"ps >= 1 in 2D: p*s = {ps}; piecewise-constant cells have "
            "infinite W^{s,p} energy there")
    p_star = dim * p / (dim - ps)
    if not q > 1.0:
        raise ParamError(f"q <= 1: q = {q}")
    if not r > q:
        raise ParamError(f"r <= q: r = {r}, q = {q}")
    if not r < p_star:
        raise ParamError(f"r >= p_star: r = {r}, p_star = {p_star}")
    return ProblemParams(dim=dim, s=s, p=p, q=q, r=r, p_star=p_star)


def classify_regime(params: ProblemParams) -> Regime:
    """Subdiffusive (q < p), equidiffusive (q = p), or superdiffusive (q > p)."""
    if params.q < params.p:
        return Regime.SUB
    if params.q == params.p:
        return Regime.EQUI
    return Regime.SUPER


@dataclass(frozen=True)
class DomainSpec:
    """Interval (dim 1) or axis-aligned rectangle (dim 2) with nonempty interior."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or len(lo) not in (1, 2):
            raise GridError(f"domain must have 1 or 2 axes, got lo={lo}, hi={hi}")
        for a, b in zip(lo, hi):
            if not (b > a and math.isfinite(b - a)):
                raise GridError(f"domain side not finite and positive: [{a}, {b}]")

    @classmethod
    def interval(cls, a: float, b: float) -> "DomainSpec":
        return cls((a,), (b,))

    @classmethod
    def rectangle(cls, ax: float, bx: float, ay: float, by: float) -> "DomainSpec":
        return cls((ax, ay), (bx, by))

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell decomposition of a domain.

    Cells are ordered lexicographically by axis (x-major in 2D).  Cell edges
    coincide exactly with the domain boundary, and shared edges between
    neighbouring cells are identical floats.
    """

    domain: DomainSpec
    n: int
    centers: np.ndarray        # (ncells, dim)
    lows: np.ndarray           # (ncells, dim) cell lower corners
    highs: np.ndarray          # (ncells, dim) cell upper corners
    measures: np.ndarray       # (ncells,)
    boundary_dist: np.ndarray  # (ncells,) distance of each center to the exterior

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def ncells(self) -> int:
        return self.centers.shape[0]

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(w / self.n for w in self.domain.sides)

    def boundary_adjacent(self) -> np.ndarray:
        """Mask of cells that touch the domain boundary."""
        lo = np.asarray(self.domain.lo)
        hi = np.asarray(self.domain.hi)
        return ((self.lows == lo) | (self.highs == hi)).any(axis=1)


def build_grid(domain: DomainSpec, n: int) -> Grid:
    """Build the uniform grid with n cells per axis."""
    if int(n) != n or n < 1:
        raise GridError(f"n must be a positive integer, got {n}")
    n = int(n)
    axis_edges = [np.linspace(a, b, n + 1) for a, b in zip(domain.lo, domain.hi)]
    axis_lows = [e[:-1] for e in axis_edges]
    axis_highs = [e[1:] for e in axis_edges]
    axis_centers = [0.5 * (lo + hi) for lo, hi in zip(axis_lows, axis_highs)]

    if domain.dim == 1:
        lows = axis_lows[0][:, None]
        highs = axis_highs[0][:, None]
        centers = axis_centers[0][:, None]
    else:
        cx, cy = np.meshgrid(axis_centers[0], axis_centers[1], indexing="ij")
        lx, ly = np.meshgrid(axis_lows[0], axis_lows[1], indexing="ij")
        hx, hy = np.meshgrid(axis_highs[0], axis_highs[1], indexing="ij")
        centers = np.column_stack([cx.ravel(), cy.ravel()])
        lows = np.column_stack([lx.ravel(), ly.ravel()])
        highs = np.column_stack([hx.ravel(), hy.ravel()])

    cell_measure = 1.0
    for w in domain.sides:
        cell_measure *= w / n
    measures = np.full(centers.shape[0], cell_measure)

    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    boundary_dist = np.minimum(centers - lo, hi - centers).min(axis=1)

    return Grid(
        domain=domain,
        n=n,
        centers=centers,
        lows=lows,
        highs=highs,
        measures=measures,
        boundary_dist=boundary_dist,
    )
