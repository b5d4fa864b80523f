"""Problem parameters, domain geometry, and the uniform cell grid."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParamError",
    "GridError",
    "GridMismatchError",
    "Regime",
    "ProblemParams",
    "DomainSpec",
    "Grid",
    "validate_params",
    "classify_regime",
    "build_grid",
]

# Cap on the dense weights of the folded problem (kernel.fold): its cell
# count squared, at 8 bytes each (4096 cells = 128 MiB per m x m array).
MAX_DENSE_CELLS = 4096
# Cap on the side ratio of a 2D domain, which is the aspect ratio of its
# cells.  The 2D tensor rule (kernel._tensor_table) integrates the touching
# columns on ceil(ratio) panels per hat half, and holds the kernel values of
# at least one panel of x nodes at once: 3 order^2 ceil(ratio) floats there,
# 19.7 MB at Gauss order 20 and ratio 2048, inside the 128 MiB of one dense
# array at the cap above.  (The other columns take order^2 (n - 1) floats
# per panel, 406 KB at the 2D cap n = 128.)
MAX_ASPECT_RATIO = 2048


class ParamError(ValueError):
    """An exponent tuple violates one of the validity constraints."""


class GridError(ValueError):
    """Invalid grid construction request."""


class GridMismatchError(ValueError):
    """Cell values do not match their grid, or a function, grid or p the weights."""


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
    neighbouring cells are identical floats.  The grid of a folded problem
    (``kernel.fold``) holds one cell per mirror orbit of ``full``, measured
    by the orbit's total measure; ``full_index`` gives, for each cell of
    ``full``, its orbit's cell here.
    """

    domain: DomainSpec
    n: int
    centers: np.ndarray        # (ncells, dim)
    lows: np.ndarray           # (ncells, dim) cell lower corners
    highs: np.ndarray          # (ncells, dim) cell upper corners
    measures: np.ndarray       # (ncells,)
    boundary_dist: np.ndarray  # (ncells,) distance of each center to the exterior
    full: Grid | None = None              # the grid folded into this one
    full_index: np.ndarray | None = None  # (full.ncells,) cell here of each

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
    """Build the uniform grid with n cells per axis.

    The command line solves on the mirror-even functions, one cell per
    mirror orbit (``kernel.fold``), so the cap MAX_DENSE_CELLS applies to
    the ceil(n/2)^dim orbits.  A 2D domain whose long side exceeds its
    short side by more than MAX_ASPECT_RATIO is rejected before assembly.
    """
    if int(n) != n or n < 1:
        raise GridError(f"n must be a positive integer, got {n}")
    n = int(n)
    orbits = ((n + 1) // 2) ** domain.dim
    if orbits > MAX_DENSE_CELLS:
        raise GridError(
            f"grid of {n} cells per axis folds to {orbits} mirror orbits; "
            f"dense weights capped at {MAX_DENSE_CELLS}")
    ratio = max(domain.sides) / min(domain.sides)
    if ratio > MAX_ASPECT_RATIO:
        raise GridError(
            f"domain sides {domain.sides} have ratio {ratio:.6g}; the 2D "
            f"kernel rule is capped at {MAX_ASPECT_RATIO}")
    edges = [np.linspace(a, b, n + 1) for a, b in zip(domain.lo, domain.hi)]
    # lower and upper corners (ncells, dim), x-major: all combinations of axis edges
    lows, highs = (np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, domain.dim)
                   for axes in ([e[:-1] for e in edges], [e[1:] for e in edges]))
    centers = 0.5 * (lows + highs)
    measures = np.full(centers.shape[0], math.prod(w / n for w in domain.sides))

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
