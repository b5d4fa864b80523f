"""Kernel weights for the nonlocal cell energy.

For cells C_i the discrete energy needs the pair weights

    W_ij = int_{C_i} int_{C_j} |x - y|^(-(N + p*s)) dy dx,   i != j,

and the exterior weights

    V_i = int_{C_i} int_{complement of the domain} |x - y|^(-(N + p*s)) dy dx.

In one dimension both are exact twice-iterated antiderivatives of the kernel.
In two dimensions the double integral over a cell pair is reduced to

    int k(t) * C(t) dt,   C(t) = |A ∩ (B + t)| = c_1(t_1) * c_2(t_2),

where each c_d is a piecewise-linear interval-overlap profile.  Along any ray
from the origin the product profile is piecewise quadratic in the radius, so
the radial integral against r^(-1-ps) has a closed form; only the angular
integral is numerical (adaptive Gauss panels split at the profile corner
directions).  Each sweep of the angular rule evaluates the closed form on
all of its rays, every panel times every Gauss node, as one numpy batch.
The exterior weight uses the same machinery with
C(t) = |cell| - |cell ∩ (domain + t)|, whose radial tail gives the analytic
far-field term |cell| * R^(-ps) / ps.

On a uniform grid W_ij depends only on the cell offset, so the kernel is
stored as its offset table (Toeplitz in 1D, block-Toeplitz in 2D), one pair
weight per offset (|di|, |dj|), and T: the integral of the kernel over
C_i x (R^N minus C_i), the same number on every cell.  The cells tile the
domain, so V_i = T - sum_j W_ij.  The dense W and V are derived on first use.
"""

from __future__ import annotations

import functools
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec, Grid

__all__ = [
    "KernelError",
    "KernelWeights",
    "pair_weight_1d",
    "exterior_weight_1d",
    "pair_weight_2d",
    "exterior_weight_2d",
    "assemble",
    "save_weights",
    "load_weights",
]

# Cap on the dense view W: ncells**2 weights at 8 bytes each (4096 cells = 128 MiB).
MAX_DENSE_CELLS = 4096
# Relative accuracy of the 2D angular quadrature during assembly.
ASSEMBLY_REL_TOL = 1e-7


class KernelError(RuntimeError):
    """A singular weight integral diverged or failed to converge."""


@dataclass(frozen=True, eq=False)
class KernelWeights:
    """The kernel as its offset table and T, with a parameter snapshot."""

    table: np.ndarray  # (n,) or (n, n): weight per cell offset, 0 at offset 0
    T: float           # kernel over one cell against its complement
    dim: int
    s: float
    p: float

    @property
    def ncells(self) -> int:
        return self.table.size

    @property
    def ps(self) -> float:
        return self.p * self.s

    @functools.cached_property
    def W(self) -> np.ndarray:
        """(m, m) pair weights W_ij = table[|i - j| per axis]."""
        idx = np.indices(self.table.shape).reshape(self.dim, -1)
        return self.table[tuple(np.abs(a[:, None] - a[None, :]) for a in idx)]

    @functools.cached_property
    def V(self) -> np.ndarray:
        """(m,) exterior weights V_i = T - sum_j W_ij."""
        return self.T - self.W.sum(axis=1)

    @functools.cached_property
    def k_inverse(self) -> np.ndarray:
        """Inverse of K = 2 (diag(sum_j W_ij + V_i) - W), formed on first use.

        K is the Hessian of E/2 for p = 2.  It is built in one m x m buffer
        and dropped once inverted, so the weights keep one extra m x m
        array, and the inverse lives exactly as long as they do.
        """
        k = self.W * -2.0
        k.flat[::self.ncells + 1] = 2.0 * (self.W.sum(axis=1) + self.V)
        return np.linalg.inv(k)


# ----------------------------------------------------------------------
# one dimension: exact antiderivatives
# ----------------------------------------------------------------------

def _k2(t: float, beta: float) -> float:
    """Second antiderivative of t^(-beta), vanishing at 0 (beta in (1,2))."""
    if t <= 0.0:
        return 0.0
    return t ** (2.0 - beta) / ((1.0 - beta) * (2.0 - beta))


def pair_weight_1d(cell_a: tuple[float, float], cell_b: tuple[float, float],
                   beta: float) -> float:
    """Exact double integral of |x-y|^(-beta) over two disjoint intervals.

    beta = 1 + p*s must lie in (1, 2); touching intervals are allowed.
    """
    if not 1.0 < beta < 2.0:
        raise ValueError(f"beta must lie in (1,2), got {beta}")
    a1, a2 = float(cell_a[0]), float(cell_a[1])
    b1, b2 = float(cell_b[0]), float(cell_b[1])
    if not (a2 > a1 and b2 > b1):
        raise ValueError(f"degenerate cell: {cell_a}, {cell_b}")
    if b1 < a1:
        a1, a2, b1, b2 = b1, b2, a1, a2
    gap_tol = 1e-12 * max(a2 - a1, b2 - b1)
    if b1 < a2 - gap_tol:
        raise ValueError(f"cells overlap: {cell_a}, {cell_b}")
    b1 = max(b1, a2)
    return (_k2(b2 - a1, beta) - _k2(b2 - a2, beta)
            - _k2(b1 - a1, beta) + _k2(b1 - a2, beta))


def exterior_weight_1d(cell: tuple[float, float], domain: tuple[float, float],
                       beta: float) -> float:
    """Exact integral of the kernel between an interior cell and the exterior.

    The inner integral over each exterior tail of (a, b) is d^(-ps)/ps with d
    the distance to the nearer endpoint; the outer integral over the cell is
    again exact.  Requires ps = beta - 1 in (0, 1).
    """
    if not 1.0 < beta < 2.0:
        raise ValueError(f"beta must lie in (1,2), got {beta}")
    ps = beta - 1.0
    c1, c2 = float(cell[0]), float(cell[1])
    a, b = float(domain[0]), float(domain[1])
    if not (c2 > c1 and b > a):
        raise ValueError(f"degenerate cell or domain: {cell}, {domain}")
    tol = 1e-12 * (b - a)
    if c1 < a - tol or c2 > b + tol:
        raise ValueError(f"cell {cell} not contained in domain {domain}")

    def a1(t: float) -> float:
        # antiderivative of t^(-ps), vanishing at 0
        return 0.0 if t <= 0.0 else t ** (1.0 - ps) / (1.0 - ps)

    left = a1(c2 - a) - a1(c1 - a)
    right = a1(b - c1) - a1(b - c2)
    return (left + right) / ps


# ----------------------------------------------------------------------
# two dimensions: exact radial integrals, adaptive angular panels
# ----------------------------------------------------------------------

def _overlap_profile(cl: float, ch: float, dl: float, dh: float):
    """Piecewise-linear profile tau -> |[cl,ch] ∩ [dl+tau, dh+tau]|.

    Returns (breaks, value0, slope): the sorted kink locations and the
    pieces value0 + slope*tau, indexed by np.searchsorted(breaks, tau), so
    that piece k covers (breaks[k-1], breaks[k]].  Pieces 0 and len(breaks)
    are the zero profile outside (breaks[0], breaks[-1]).
    """
    def overlap(tau: float) -> float:
        return min(ch, dh + tau) - max(cl, dl + tau)

    ks = sorted({cl - dh, cl - dl, ch - dh, ch - dl})
    value0, slope = [0.0], [0.0]
    for k0, k1 in zip(ks[:-1], ks[1:]):
        tm = 0.5 * (k0 + k1)
        if overlap(tm) <= 0.0:
            value0.append(0.0)
            slope.append(0.0)
            continue
        sl = (1.0 if dh + tm < ch else 0.0) - (1.0 if dl + tm > cl else 0.0)
        # anchor the line at the piece end nearer tau = 0: near the origin
        # the kernel is largest, and a profile that vanishes at a contact
        # then gets value0 = 0 exactly instead of rounding dust, which
        # r^(-ps) would amplify on a ray through a nearby tiny kink
        ka = k0 if abs(k0) < abs(k1) else k1
        value0.append(overlap(ka) - sl * ka)
        slope.append(sl)
    value0.append(0.0)
    slope.append(0.0)
    return np.asarray(ks), np.asarray(value0), np.asarray(slope)


def _pieces(prof, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value0, slope) of the profile pieces containing each tau."""
    breaks, value0, slope = prof
    idx = np.searchsorted(breaks, tau)
    idx[tau >= breaks[-1]] = len(breaks)
    return value0[idx], slope[idx]


def _pow0(r: np.ndarray, mu: float) -> np.ndarray:
    """r^mu elementwise, read as 0 where r = 0."""
    return np.power(r, mu, out=np.zeros_like(r), where=r > 0.0)


def _ray_integrals(prof1, prof2, dx: np.ndarray, dy: np.ndarray, ps: float,
                   area: float | None, fscale: float) -> np.ndarray:
    """Closed-form integrals of r^(-1-ps) * F(r*dir) dr along a batch of rays.

    dx, dy hold the ray directions.  F is the product profile c1*c2 when
    area is None (pair weight), otherwise area - c1*c2 (exterior weight,
    integrated to infinity with an exact tail).  Raises KernelError when a
    non-integrable term survives at r = 0.
    """
    nray = dx.shape[0]
    # radial events: the radii where a ray crosses a profile kink
    breaks = np.concatenate((prof1[0], prof2[0]))
    dirs = np.where(np.arange(len(breaks)) < len(prof1[0]), dx[:, None], dy[:, None])
    ev = np.divide(breaks, dirs, out=np.full(dirs.shape, np.inf), where=dirs != 0.0)
    ev[~(ev > 0.0)] = np.inf
    ev.sort(axis=1)
    ev[:, 1:][ev[:, 1:] == ev[:, :-1]] = np.inf
    ev.sort(axis=1)
    # segments (r0, r1] between consecutive events, starting at r = 0; rows
    # are padded with empty segments at the last event (0 without events)
    finite = np.isfinite(ev)
    r_last = np.where(finite, ev, 0.0).max(axis=1)
    r1 = np.where(finite, ev, r_last[:, None])
    r0 = np.concatenate((np.zeros((nray, 1)), r1[:, :-1]), axis=1)
    rm = 0.5 * (r0 + r1)
    a1, b1 = _pieces(prof1, rm * dx[:, None])
    a2, b2 = _pieces(prof2, rm * dy[:, None])
    s1 = b1 * dx[:, None]
    s2 = b2 * dy[:, None]
    alpha = a1 * a2
    beta = a1 * s2 + a2 * s1
    gamma = s1 * s2
    if area is not None:
        alpha, beta, gamma = area - alpha, -beta, -gamma

    empty = r1 <= r0
    total = np.zeros(nray)
    for coef, mu in ((alpha, -ps), (beta, 1.0 - ps), (gamma, 2.0 - ps)):
        coef[empty] = 0.0
        if mu <= 0.0:
            # the first segment starts at r = 0, where r^(mu-1) is not integrable
            if np.any(np.abs(coef[:, 0]) > 1e-10 * fscale):
                raise KernelError(
                    "divergent cell weight: the kernel is not integrable at the "
                    f"contact (p*s = {ps})")
            coef[:, 0] = 0.0  # floating-point dust on an exactly vanishing coefficient
        if mu == 0.0:
            ratio = np.divide(r1, r0, out=np.ones_like(r0), where=r0 > 0.0)
            total += (coef * np.log(ratio)).sum(axis=1)
        else:
            total += (coef * (_pow0(r1, mu) - _pow0(r0, mu)) / mu).sum(axis=1)

    if area is not None:
        # beyond the last profile corner the product vanishes: exact far field
        if np.any(r_last == 0.0):
            raise KernelError("exterior profile has no radial events")
        total += area * r_last ** (-ps) / ps
    return total


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def _angular_integral(prof1, prof2, ps: float, area: float | None,
                      fscale: float, rel_tol: float, label: str) -> float:
    """Integrate the per-ray closed form over all directions.

    Panels are split at the corner directions of the profile grid, inside
    which the integrand is analytic.  Convergence is verified by comparing
    two Gauss orders; panels are halved until agreement or a depth cap.
    Each sweep evaluates all panels x nodes rays in one batch.
    """
    two_pi = 2.0 * math.pi
    angles = {0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi}
    for kx in prof1[0]:
        for ky in prof2[0]:
            if kx == 0.0 and ky == 0.0:
                continue
            angles.add(math.atan2(ky, kx) % two_pi)
    panels = sorted(angles)
    panels.append(panels[0] + two_pi)

    def sweep(bounds: np.ndarray, order: int) -> float:
        nodes, wts = _gauss(order)
        half = 0.5 * (bounds[1:] - bounds[:-1])
        mid = 0.5 * (bounds[:-1] + bounds[1:])
        keep = half > 0.0
        half, mid = half[keep, None], mid[keep, None]
        theta = (mid + half * nodes).ravel()
        val = _ray_integrals(prof1, prof2, np.cos(theta), np.sin(theta), ps,
                             area, fscale)
        return float(((wts * half).ravel() * val).sum())

    bounds = np.asarray(panels)
    for _ in range(7):
        coarse = sweep(bounds, 12)
        fine = sweep(bounds, 20)
        scale = max(abs(fine), abs(coarse), 1e-300)
        if abs(fine - coarse) <= rel_tol * scale:
            return fine
        refined = np.empty(2 * len(bounds) - 1)
        refined[0::2] = bounds
        refined[1::2] = 0.5 * (bounds[:-1] + bounds[1:])
        bounds = refined
    raise KernelError(f"weight quadrature did not converge for {label}")


def _as_box(cell) -> tuple[tuple[float, float], tuple[float, float]]:
    lo, hi = cell
    lo = (float(lo[0]), float(lo[1]))
    hi = (float(hi[0]), float(hi[1]))
    if not (hi[0] > lo[0] and hi[1] > lo[1]):
        raise ValueError(f"degenerate rectangle: {cell}")
    return lo, hi


def pair_weight_2d(cell_a, cell_b, ps: float, rel_tol: float = 1e-7) -> float:
    """Double integral of |x-y|^(-(2+ps)) over two disjoint rectangles.

    Cells are (lo, hi) corner pairs.  Touching cells are allowed; cells that
    share an edge have a finite weight only for ps < 1 (a divergent contact
    raises KernelError naming the pair).
    """
    if not 0.0 < ps < 2.0:
        raise ValueError(f"ps must lie in (0,2), got {ps}")
    (al, ah) = _as_box(cell_a)
    (bl, bh) = _as_box(cell_b)
    ox = min(ah[0], bh[0]) - max(al[0], bl[0])
    oy = min(ah[1], bh[1]) - max(al[1], bl[1])
    tol = 1e-12 * max(ah[0] - al[0], ah[1] - al[1], bh[0] - bl[0], bh[1] - bl[1])
    if ox > tol and oy > tol:
        raise ValueError(f"cells overlap: {cell_a}, {cell_b}")
    label = f"cells {cell_a} and {cell_b}"
    prof1 = _overlap_profile(al[0], ah[0], bl[0], bh[0])
    prof2 = _overlap_profile(al[1], ah[1], bl[1], bh[1])
    fscale = (min(ah[0] - al[0], bh[0] - bl[0])
              * min(ah[1] - al[1], bh[1] - bl[1]))
    try:
        return _angular_integral(prof1, prof2, ps, None, fscale, rel_tol, label)
    except KernelError as exc:
        raise KernelError(f"{exc} [{label}]") from None


def exterior_weight_2d(cell, domain, ps: float, rel_tol: float = 1e-7) -> float:
    """Integral of the kernel between a cell and the domain complement.

    domain is a DomainSpec or a (lo, hi) corner pair containing the cell.
    Cells touching the boundary have a finite weight only for ps < 1.
    """
    if not 0.0 < ps < 2.0:
        raise ValueError(f"ps must lie in (0,2), got {ps}")
    if isinstance(domain, DomainSpec):
        dom = (domain.lo, domain.hi)
    else:
        dom = domain
    (cl, ch) = _as_box(cell)
    (dl, dh) = _as_box(dom)
    tol = 1e-12 * max(dh[0] - dl[0], dh[1] - dl[1])
    if (cl[0] < dl[0] - tol or cl[1] < dl[1] - tol
            or ch[0] > dh[0] + tol or ch[1] > dh[1] + tol):
        raise ValueError(f"cell {cell} not contained in domain {dom}")
    label = f"cell {cell} in domain {dom}"
    prof1 = _overlap_profile(cl[0], ch[0], dl[0], dh[0])
    prof2 = _overlap_profile(cl[1], ch[1], dl[1], dh[1])
    # exact cell area from the profiles at zero shift
    area = ((min(ch[0], dh[0]) - max(cl[0], dl[0]))
            * (min(ch[1], dh[1]) - max(cl[1], dl[1])))
    try:
        return _angular_integral(prof1, prof2, ps, area, area, rel_tol, label)
    except KernelError as exc:
        raise KernelError(f"{exc} [{label}]") from None


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def _assemble_1d(grid: Grid, ps: float) -> tuple[np.ndarray, float]:
    n = grid.ncells
    beta = 1.0 + ps
    h = grid.spacing[0]

    # pair weights depend only on the cell offset k on a uniform grid:
    # c h^gamma ((k+1)^gamma - 2 k^gamma + (k-1)^gamma), with the second
    # difference in expm1/log1p form so that it does not cancel for large k
    gamma = 2.0 - beta
    c = 1.0 / ((1.0 - beta) * (2.0 - beta))
    table = np.zeros(n)
    if n > 1:
        table[1] = c * h ** gamma * (2.0 ** gamma - 2.0)
        k = np.arange(2, n, dtype=float)
        table[2:] = c * (k * h) ** gamma * (np.expm1(gamma * np.log1p(1.0 / k))
                                            + np.expm1(gamma * np.log1p(-1.0 / k)))
    return table, exterior_weight_1d((0.0, h), (0.0, h), beta)


def _assemble_2d(grid: Grid, ps: float) -> tuple[np.ndarray, float]:
    n = grid.n
    hx, hy = grid.spacing

    # offset table: weight for cell displacement (|di|, |dj|); on square
    # cells the reflection in the diagonal gives table[dj, di] = table[di, dj]
    square_cells = hx == hy
    base = ((0.0, 0.0), (hx, hy))
    table = np.zeros((n, n))
    for di in range(n):
        for dj in range(di if square_cells else 0, n):
            if di == 0 and dj == 0:
                continue
            other = ((di * hx, dj * hy), (di * hx + hx, dj * hy + hy))
            table[di, dj] = pair_weight_2d(base, other, ps, ASSEMBLY_REL_TOL)
    if square_cells:
        table += np.triu(table, 1).T
    return table, exterior_weight_2d(base, base, ps, ASSEMBLY_REL_TOL)


def assemble(grid: Grid, params) -> KernelWeights:
    """Assemble the offset table and T for a grid.

    params supplies s and p (ProblemParams or anything with .s and .p).
    Deterministic: repeated assembly yields bit-identical arrays.
    """
    s, p = float(params.s), float(params.p)
    ps = p * s
    if grid.ncells > MAX_DENSE_CELLS:
        raise KernelError(
            f"grid has {grid.ncells} cells; dense weights capped at "
            f"{MAX_DENSE_CELLS} cells")
    if grid.dim == 1:
        table, T = _assemble_1d(grid, ps)
    else:
        table, T = _assemble_2d(grid, ps)
    return KernelWeights(table=table, T=T, dim=grid.dim, s=s, p=p)


def save_weights(path, kw: KernelWeights, grid: Grid) -> None:
    """Dump the offset table and T with their identifying key."""
    np.savez(
        path,
        table=kw.table,
        T=kw.T,
        key=np.array([float(kw.dim), kw.s, kw.p, float(grid.n)]),
        dom_lo=np.asarray(grid.domain.lo),
        dom_hi=np.asarray(grid.domain.hi),
    )


def load_weights(path, grid: Grid, params) -> KernelWeights:
    """Load cached weights, checking the (dim, s, p, domain, n) key and arrays.

    A file that cannot be read as a weights archive raises KernelError
    naming the file, like a cache built for another problem.
    """
    try:
        with np.load(path) as data:
            key, lo, hi, table, T = (data[k] for k in
                                     ("key", "dom_lo", "dom_hi", "table", "T"))
    # TypeError: np.load returned a bare array, which is no archive
    except (OSError, EOFError, ValueError, KeyError, TypeError,
            zipfile.BadZipFile) as exc:
        raise KernelError(f"weight cache {path} cannot be read: {exc}") from exc
    want = np.array([float(grid.dim), float(params.s), float(params.p), float(grid.n)])
    if (key.shape != want.shape or not np.array_equal(key, want)
            or not np.array_equal(lo, np.asarray(grid.domain.lo))
            or not np.array_equal(hi, np.asarray(grid.domain.hi))
            or table.shape != (grid.n,) * grid.dim or T.shape != ()
            or table.dtype != float or T.dtype != float):
        raise KernelError(f"weight cache {path} does not match the requested problem")
    return KernelWeights(table=table, T=float(T), dim=grid.dim,
                         s=float(params.s), p=float(params.p))
