"""Independent reference computations used by the tests.

The scipy and Monte-Carlo oracles deliberately avoid the package's own
closed forms: weights come from scipy adaptive quadrature or plain
Monte-Carlo, and the reference eigenvalue comes from a dense symmetric
eigensolve.

The per-weight integrators at the end compute one weight for any pair of
cells, or any cell against a domain complement, which assembly does not
need: in 1D the exact antiderivatives, in 2D the closed-form radial
integral along rays from the origin with adaptive Gauss panels over the
angle.  They are the references that the assembled tables are checked
against, and are themselves checked against the oracles above.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from fplogistic.domain import DomainSpec
from fplogistic.kernel import _GAUSS_ORDERS, KernelError, _gauss


def oracle_pair_1d(cell_a, cell_b, ps):
    a1, a2 = cell_a
    b1, b2 = cell_b

    def inner(x):
        val, _ = quad(lambda y: abs(x - y) ** (-1.0 - ps), b1, b2,
                      epsabs=1e-14, epsrel=1e-12, limit=200)
        return val

    val, _ = quad(inner, a1, a2, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


def oracle_exterior_1d(cell, domain, ps):
    c1, c2 = cell
    a, b = domain

    def inner(x):
        left, _ = quad(lambda y: (x - y) ** (-1.0 - ps), -np.inf, a,
                       epsabs=1e-14, epsrel=1e-12, limit=400)
        right, _ = quad(lambda y: (y - x) ** (-1.0 - ps), b, np.inf,
                        epsabs=1e-14, epsrel=1e-12, limit=400)
        return left + right

    val, _ = quad(inner, c1, c2, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


def _overlap_1d(al, ah, bl, bh, t):
    return max(0.0, min(ah, bh + t) - max(al, bl + t))


def oracle_pair_2d(cell_a, cell_b, ps):
    """Reduce the 4d integral to 2d via the interval correlation profiles."""
    (al, ah), (bl, bh) = cell_a, cell_b
    lo1, hi1 = al[0] - bh[0], ah[0] - bl[0]
    lo2, hi2 = al[1] - bh[1], ah[1] - bl[1]

    def inner(t1):
        c1 = _overlap_1d(al[0], ah[0], bl[0], bh[0], t1)
        if c1 == 0.0:
            return 0.0
        f = lambda t2: ((t1 * t1 + t2 * t2) ** (-(2.0 + ps) / 2.0)
                        * c1 * _overlap_1d(al[1], ah[1], bl[1], bh[1], t2))
        pts = [0.0] if lo2 < 0.0 < hi2 else None
        val, _ = quad(f, lo2, hi2, epsabs=1e-14, epsrel=1e-10, limit=300,
                      points=pts)
        return val

    pts = [0.0] if lo1 < 0.0 < hi1 else None
    val, _ = quad(inner, lo1, hi1, epsabs=1e-13, epsrel=1e-9, limit=300,
                  points=pts)
    return val


def exit_distance(x, y, theta, dom_lo, dom_hi):
    """Distance from an interior point to the rectangle boundary along theta."""
    c, s = math.cos(theta), math.sin(theta)
    best = math.inf
    if c > 0.0:
        best = min(best, (dom_hi[0] - x) / c)
    elif c < 0.0:
        best = min(best, (dom_lo[0] - x) / c)
    if s > 0.0:
        best = min(best, (dom_hi[1] - y) / s)
    elif s < 0.0:
        best = min(best, (dom_lo[1] - y) / s)
    return best


def oracle_exterior_2d(cell, dom, ps):
    """Polar form: the inner radial integral is exact, angles by quadrature."""
    (cl, ch) = cell
    (dl, dh) = dom

    def intensity(x, y):
        f = lambda th: exit_distance(x, y, th, dl, dh) ** (-ps) / ps
        val, _ = quad(f, 0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-10,
                      limit=400)
        return val

    def inner(x):
        val, _ = quad(lambda y: intensity(x, y), cl[1], ch[1],
                      epsabs=1e-11, epsrel=1e-8, limit=100)
        return val

    val, _ = quad(inner, cl[0], ch[0], epsabs=1e-10, epsrel=1e-7, limit=100)
    return val


def mc_pair_2d(cell_a, cell_b, ps, nsamp, seed):
    """Plain uniform sampling; valid for cells at positive distance."""
    rng = np.random.default_rng(seed)
    (al, ah), (bl, bh) = cell_a, cell_b
    x = rng.uniform(al, ah, size=(nsamp, 2))
    y = rng.uniform(bl, bh, size=(nsamp, 2))
    d = np.hypot(*(x - y).T)
    vals = d ** (-2.0 - ps)
    area = (ah[0] - al[0]) * (ah[1] - al[1]) * (bh[0] - bl[0]) * (bh[1] - bl[1])
    est = area * vals.mean()
    se = area * vals.std(ddof=1) / math.sqrt(nsamp)
    return est, se


def mc_exterior_2d(cell, dom, ps, nsamp, seed):
    """Radial importance sampling from each sample's own boundary distance.

    Sampling the radius with density ps * r0^ps * R^(-1-ps) on (r0, inf)
    makes the integrand-to-density ratio a constant times the outside
    indicator, so the estimator is bounded whenever the cell keeps a
    positive distance r0 to the complement.
    """
    rng = np.random.default_rng(seed)
    (cl, ch), (dl, dh) = cell, dom
    x = rng.uniform(cl, ch, size=(nsamp, 2))
    r0 = np.minimum(np.minimum(x[:, 0] - dl[0], dh[0] - x[:, 0]),
                    np.minimum(x[:, 1] - dl[1], dh[1] - x[:, 1]))
    if r0.min() <= 0.0:
        raise ValueError("importance sampler needs an interior cell")
    radius = r0 * rng.uniform(0.0, 1.0, nsamp) ** (-1.0 / ps)
    theta = rng.uniform(0.0, 2.0 * math.pi, nsamp)
    y = x + radius[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    outside = ((y[:, 0] < dl[0]) | (y[:, 0] > dh[0])
               | (y[:, 1] < dl[1]) | (y[:, 1] > dh[1]))
    vals = 2.0 * math.pi / (ps * r0 ** ps) * outside
    area = (ch[0] - cl[0]) * (ch[1] - cl[1])
    est = area * vals.mean()
    se = area * vals.std(ddof=1) / math.sqrt(nsamp)
    return est, se


def dense_reference_lambda1(kw, grid):
    """Smallest eigenvalue of the p = 2 quadratic form via a dense solve.

    The quadratic form matrix has diagonal 2(sum_j W_ij + V_i) and
    off-diagonal -2 W_ij; dividing by the cell measures turns the
    generalized problem into an ordinary symmetric one.
    """
    diag = 2.0 * (kw.W.sum(axis=1) + kw.V)
    a = np.diag(diag) - 2.0 * kw.W
    m = grid.measures
    b = a / np.sqrt(np.outer(m, m))
    vals, vecs = np.linalg.eigh(b)
    return float(vals[0]), vecs[:, 0] / np.sqrt(m)


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
        coarse, fine = (sweep(bounds, order) for order in _GAUSS_ORDERS)
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
