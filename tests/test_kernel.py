from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fplogistic.cli import main
from fplogistic.domain import (MAX_DENSE_CELLS, DomainSpec, GridError,
                               build_grid, validate_params)
from fplogistic.kernel import (KernelError, KernelWeights, _gauss,
                               _tensor_table, assemble, fold, load_weights,
                               save_weights)
from fplogistic.operator import DiscreteFunction, GridMismatchError

from oracles import (exit_distance, exterior_weight_1d, exterior_weight_2d,
                     mc_exterior_2d, oracle_exterior_1d, oracle_exterior_2d,
                     oracle_pair_1d, oracle_pair_2d, pair_weight_1d,
                     pair_weight_2d)

# the reference quadratures push scipy's subdivision limits near the kernel
# singularities; the returned values are still well within test tolerance
pytestmark = pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning")


# ---------------------------------------------------------------------
# one dimension
# ---------------------------------------------------------------------

def test_pair_weight_1d_matches_quadrature(rng):
    ps = 0.8
    for _ in range(10):
        a1 = rng.uniform(-1.0, 1.0)
        a2 = a1 + rng.uniform(0.05, 0.5)
        gap = rng.choice([0.0, rng.uniform(0.01, 1.0)])
        b1 = a2 + gap
        b2 = b1 + rng.uniform(0.05, 0.5)
        w = pair_weight_1d((a1, a2), (b1, b2), 1.0 + ps)
        ref = oracle_pair_1d((a1, a2), (b1, b2), ps)
        assert w == pytest.approx(ref, rel=1e-9)


def test_exterior_weight_1d_matches_quadrature(rng):
    ps = 0.8
    cells = [(0.0, 0.125), (0.4, 0.55), (0.875, 1.0)]
    for _ in range(3):
        c1 = rng.uniform(0.0, 0.8)
        cells.append((c1, c1 + rng.uniform(0.05, 1.0 - c1 - 0.05)))
    for cell in cells:
        v = exterior_weight_1d(cell, (0.0, 1.0), 1.0 + ps)
        ref = oracle_exterior_1d(cell, (0.0, 1.0), ps)
        assert v == pytest.approx(ref, rel=1e-9)


def test_full_cell_exterior_closed_form():
    # integrating both tails over the whole interval gives 2/(ps*(1-ps))
    ps = 0.8
    v = exterior_weight_1d((0.0, 1.0), (0.0, 1.0), 1.0 + ps)
    assert v == pytest.approx(2.0 / (ps * (1.0 - ps)), rel=1e-13)


def test_pair_weight_symmetry_translation_scaling():
    beta = 1.8
    a, b = (0.1, 0.3), (0.5, 0.9)
    w = pair_weight_1d(a, b, beta)
    assert pair_weight_1d(b, a, beta) == w
    shift = 2.7
    ws = pair_weight_1d((a[0] + shift, a[1] + shift),
                        (b[0] + shift, b[1] + shift), beta)
    assert ws == pytest.approx(w, rel=1e-12)
    c = 3.0
    wc = pair_weight_1d((c * a[0], c * a[1]), (c * b[0], c * b[1]), beta)
    assert wc == pytest.approx(c ** (2.0 - beta) * w, rel=1e-12)


def test_pair_weight_1d_validation():
    with pytest.raises(ValueError, match="overlap"):
        pair_weight_1d((0.0, 0.5), (0.4, 0.9), 1.8)
    with pytest.raises(ValueError, match="degenerate"):
        pair_weight_1d((0.5, 0.5), (0.6, 0.9), 1.8)
    with pytest.raises(ValueError, match="beta"):
        pair_weight_1d((0.0, 0.1), (0.2, 0.3), 2.5)
    with pytest.raises(ValueError, match="contained"):
        exterior_weight_1d((-0.5, 0.5), (0.0, 1.0), 1.8)


def test_assemble_1d_matches_direct_weights(sub_params):
    grid = build_grid(DomainSpec.interval(0.0, 1.0), 6)
    kw = assemble(grid, sub_params)
    beta = 1.0 + sub_params.ps
    # T is the closed form of one cell against its complement, to the bit
    assert kw.T == exterior_weight_1d((0.0, grid.spacing[0]),
                                      (0.0, grid.spacing[0]), beta)
    for i in range(6):
        ci = (grid.lows[i, 0], grid.highs[i, 0])
        v = exterior_weight_1d(ci, (0.0, 1.0), beta)
        assert kw.V[i] == pytest.approx(v, rel=1e-12, abs=0.0)
        for j in range(6):
            if i == j:
                assert kw.W[i, j] == 0.0
                continue
            cj = (grid.lows[j, 0], grid.highs[j, 0])
            assert kw.W[i, j] == pytest.approx(pair_weight_1d(ci, cj, beta),
                                               rel=1e-12, abs=0.0)
    # the exterior weights come from the row sums of W, which cancel most
    # of the one-cell weight on interior cells; check them on a fine grid
    grid = build_grid(DomainSpec.interval(0.0, 1.0), 1024)
    for ps in (0.8, 0.99):
        kw = assemble(grid, validate_params(1, ps / 2.0, 2.0, 1.5, 2.5))
        v = [exterior_weight_1d((grid.lows[i, 0], grid.highs[i, 0]),
                                (0.0, 1.0), 1.0 + ps) for i in range(1024)]
        assert kw.V == pytest.approx(np.array(v), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("ps", [0.8, 0.99])
def test_assemble_1d_pair_weights_match_mpmath(ps):
    # W[0, k] = c h^gamma ((k+1)^gamma - 2 k^gamma + (k-1)^gamma) loses most
    # of its digits to cancellation for large k unless written with expm1
    n = 1024
    grid = build_grid(DomainSpec.interval(0.0, 1.0), n)
    kw = assemble(grid, validate_params(1, ps / 2.0, 2.0, 1.5, 2.5))
    with mpmath.workdps(50):
        beta = 1 + mpmath.mpf(ps)
        gamma = 2 - beta
        c = 1 / ((1 - beta) * (2 - beta))
        h = mpmath.mpf(1) / n
        ref = [float(c * h ** gamma
                     * ((k + 1) ** gamma - 2 * mpmath.mpf(k) ** gamma
                        + (k - 1) ** gamma)) for k in range(1, n)]
    assert kw.W[0, 1:] == pytest.approx(np.array(ref), rel=1e-11, abs=0.0)


def test_assembled_weights_structure(kw64):
    assert np.array_equal(kw64.W, kw64.W.T)
    assert np.all(np.diag(kw64.W) == 0.0)
    off = kw64.W[~np.eye(kw64.ncells, dtype=bool)]
    assert off.min() > 0.0
    assert kw64.V.min() > 0.0


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 5)])
def test_dense_view_matches_the_index_formula(dim, n):
    table = np.random.default_rng(n).uniform(1.0, 2.0, size=(n,) * dim)
    grid = build_grid(DomainSpec((0.0,) * dim, (1.0,) * dim), n)
    kw = KernelWeights(grid=grid, table=table, T=1.0, s=0.4, p=2.0)
    idx = np.indices(table.shape).reshape(dim, -1)
    ref = table[tuple(np.abs(a[:, None] - a[None, :]) for a in idx)]
    assert np.array_equal(kw.W, ref)


@pytest.mark.parametrize("order", [1, 2, 5, 12, 20])
def test_gauss_rule_matches_leggauss_and_is_exact(order):
    nodes, weights = _gauss(order)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
    assert np.allclose(nodes, ref_nodes, rtol=0.0, atol=1e-14)
    assert np.allclose(weights, ref_weights, rtol=0.0, atol=1e-14)
    for k in range(2 * order):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(weights @ nodes ** k - exact) <= 1e-14


# ---------------------------------------------------------------------
# two dimensions
# ---------------------------------------------------------------------

def test_pair_weight_2d_separated_matches_quadrature():
    ps = 0.8
    a = ((0.0, 0.0), (0.2, 0.25))
    b = ((0.5, 0.4), (0.75, 0.6))
    w = pair_weight_2d(a, b, ps, rel_tol=1e-9)
    assert w == pytest.approx(oracle_pair_2d(a, b, ps), rel=1e-8)


def test_pair_weight_2d_edge_touching_matches_quadrature():
    ps = 0.8
    a = ((0.0, 0.0), (0.25, 0.25))
    b = ((0.25, 0.0), (0.5, 0.25))
    w = pair_weight_2d(a, b, ps, rel_tol=1e-9)
    assert w == pytest.approx(oracle_pair_2d(a, b, ps), rel=1e-6)
    # offset edge contact, different heights
    c = ((0.25, 0.1), (0.5, 0.6))
    w2 = pair_weight_2d(a, c, ps, rel_tol=1e-9)
    assert w2 == pytest.approx(oracle_pair_2d(a, c, ps), rel=1e-6)


def test_pair_weight_2d_corner_touching_matches_quadrature():
    a = ((0.0, 0.0), (0.25, 0.25))
    b = ((0.25, 0.25), (0.5, 0.5))
    for ps in (0.8, 1.2):
        w = pair_weight_2d(a, b, ps, rel_tol=1e-9)
        assert w == pytest.approx(oracle_pair_2d(a, b, ps), rel=1e-6)


def test_pair_weight_2d_divergent_edge_contact_raises():
    a = ((0.0, 0.0), (0.25, 0.25))
    b = ((0.25, 0.0), (0.5, 0.25))
    with pytest.raises(KernelError, match="divergent"):
        pair_weight_2d(a, b, 1.2)


def test_pair_weight_2d_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        pair_weight_2d(((0.0, 0.0), (0.3, 0.3)), ((0.2, 0.2), (0.5, 0.5)), 0.8)


def test_exterior_weight_2d_matches_quadrature():
    ps = 0.8
    dom = ((0.0, 0.0), (1.0, 1.0))
    inner_cell = ((0.375, 0.5), (0.5, 0.625))
    v = exterior_weight_2d(inner_cell, dom, ps, rel_tol=1e-9)
    assert v == pytest.approx(oracle_exterior_2d(inner_cell, dom, ps), rel=1e-6)


def test_exterior_weight_2d_boundary_cell_matches_importance_mc():
    # the boundary-touching weight is finite for ps < 1; with 2*ps < 1 the
    # plain inverse-power radial sampler from the cell interior keeps finite
    # variance, which pins the closed form against an independent oracle
    ps = 0.4
    dom = ((0.0, 0.0), (1.0, 1.0))
    cell = ((0.0, 0.25), (0.125, 0.5))
    v = exterior_weight_2d(cell, dom, ps, rel_tol=1e-9)
    rng = np.random.default_rng(7)
    # radial density from each sample's own distance would be zero at the
    # boundary; instead average the exact polar intensity over cell samples
    area = 0.125 * 0.25

    def intensity(px, py):
        f = lambda th: exit_distance(px, py, th, dom[0], dom[1]) ** (-ps) / ps
        val, _ = quad(f, 0.0, 2.0 * math.pi, epsabs=1e-11, epsrel=1e-9,
                      limit=400)
        return val

    sub = rng.uniform(cell[0], cell[1], size=(2000, 2))
    vals = np.array([intensity(px, py) for px, py in sub])
    est = vals.mean() * area
    se = vals.std(ddof=1) / math.sqrt(len(sub)) * area
    assert abs(v - est) <= 4.0 * se


def test_exterior_weight_2d_separated_matches_importance_mc():
    ps = 0.8
    dom = ((0.0, 0.0), (1.0, 1.0))
    cell = ((0.5, 0.375), (0.625, 0.5))
    v = exterior_weight_2d(cell, dom, ps, rel_tol=1e-9)
    est, se = mc_exterior_2d(cell, dom, ps, 400_000, seed=11)
    assert abs(v - est) <= 3.0 * se


def test_assemble_2d_matches_direct_weights(params2d):
    # every table entry, from the tensor rule or the angular quadrature,
    # against the angular quadrature of the cell pair itself, on square
    # cells (unit square) and on cells with hx != hy (2 x 1 rectangle)
    ps = params2d.ps
    for dom in (((0.0, 0.0), (1.0, 1.0)), ((0.0, 0.0), (2.0, 1.0))):
        grid = build_grid(DomainSpec(*dom), 3)
        kw = assemble(grid, params2d)
        for i in range(grid.ncells):
            ci = (tuple(grid.lows[i]), tuple(grid.highs[i]))
            assert kw.V[i] == pytest.approx(
                exterior_weight_2d(ci, dom, ps, rel_tol=1e-7), rel=1e-6)
            for j in range(i + 1, grid.ncells):
                cj = (tuple(grid.lows[j]), tuple(grid.highs[j]))
                assert kw.W[i, j] == pytest.approx(
                    pair_weight_2d(ci, cj, ps, rel_tol=1e-7), rel=1e-6)


def test_assemble_2d_tall_cells_match_the_angular_reference(params2d):
    # on cells ten times taller than wide the integrand at offsets (2, 0)
    # and (2, 1) varies fast along y; the tensor rule takes ten panels per
    # hat half along y on the columns dj <= 1
    dom = DomainSpec((0.0, 0.0), (1.0, 10.0))
    grid = build_grid(dom, 8)
    kw = assemble(grid, params2d)
    hx, hy = grid.spacing
    for di in range(8):
        for dj in range(8):
            if di == dj == 0:
                continue
            other = ((di * hx, dj * hy), ((di + 1) * hx, (dj + 1) * hy))
            assert kw.table[di, dj] == pytest.approx(
                pair_weight_2d(((0.0, 0.0), (hx, hy)), other, params2d.ps,
                               rel_tol=1e-7), rel=1e-6)


@pytest.mark.parametrize("aspect", [0.1, 1.0 / 3.0, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("ps", [0.1, 0.5, 0.98])
def test_touching_weights_and_T_match_the_angular_reference(ps, aspect):
    # the touching weights come from the self-similar 3 x 3 solve and T
    # from the identity; both against the angular quadrature of the cells
    domain = DomainSpec((0.0, 0.0), (1.0, aspect))
    params = validate_params(2, ps / 2.0, 2.0, 1.2, 1.5)
    for n in (1, 2, 3, 16):
        grid = build_grid(domain, n)
        kw = assemble(grid, params)
        hx, hy = grid.spacing
        base = ((0.0, 0.0), (hx, hy))
        assert kw.T == pytest.approx(
            exterior_weight_2d(base, base, ps, rel_tol=1e-12), rel=1e-12), n
        for di, dj in ((0, 1), (1, 0), (1, 1)) if n > 1 else ():
            other = ((di * hx, dj * hy), ((di + 1) * hx, (dj + 1) * hy))
            assert kw.table[di, dj] == pytest.approx(
                pair_weight_2d(base, other, ps, rel_tol=1e-12),
                rel=1e-12), (n, di, dj)


def test_tensor_rule_order_disagreement_raises(monkeypatch, unit_square,
                                               params2d):
    # a 2-point rule cannot meet the 20-point one on the near offsets
    import fplogistic.kernel as kernel
    monkeypatch.setattr(kernel, "_GAUSS_ORDERS", (2, 20))
    with pytest.raises(KernelError, match="disagree"):
        assemble(build_grid(unit_square, 4), params2d)


def test_assemble_2d_far_offsets_match_mpmath(unit_square):
    # W(di, dj) = h^(2-ps) int int (1-|a|)(1-|b|) |(di+a, dj+b)|^(-(2+ps))
    # over a, b in [-1, 1]: the hat profiles of the cell overlap
    n, s = 64, 0.4
    kw = assemble(build_grid(unit_square, n), validate_params(2, s, 2.0, 1.5, 2.0))
    with mpmath.workdps(30):
        ps = 2 * mpmath.mpf(s)
        h = mpmath.mpf(1) / n
        for di, dj in ((2, 0), (3, 2), (20, 7), (40, 63), (63, 63)):
            def f(a, b):
                return ((1 - abs(a)) * (1 - abs(b))
                        * ((di + a) ** 2 + (dj + b) ** 2) ** (-1 - ps / 2))
            ref = h ** (2 - ps) * mpmath.quad(f, [-1, 0, 1], [-1, 0, 1],
                                              method="gauss-legendre")
            assert kw.table[di, dj] == pytest.approx(float(ref), rel=1e-13,
                                                     abs=0.0), (di, dj)


@st.composite
def _disjoint_rectangles(draw):
    """Two rectangles separated along x, y or both; touching allowed.

    Along an axis that does not separate them the lower edges either
    coincide, so that some offsets lie on a coordinate axis, or are shifted.
    """
    size = st.floats(0.05, 1.0)
    gap = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    shift = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    lo_a = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    wa = (draw(size), draw(size))
    wb = (draw(size), draw(size))
    split = draw(st.sampled_from(((True, False), (False, True), (True, True))))
    lo_b = tuple(lo_a[d] + (wa[d] + draw(gap) if split[d] else draw(shift))
                 for d in range(2))
    a = (lo_a, (lo_a[0] + wa[0], lo_a[1] + wa[1]))
    b = (lo_b, (lo_b[0] + wb[0], lo_b[1] + wb[1]))
    return a, b


@settings(max_examples=25, deadline=None)
@given(cells=_disjoint_rectangles(), ps=st.floats(0.1, 0.95),
       shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       c=st.floats(0.25, 4.0))
# edge contact whose side edges are offset by far less than a rounding unit:
# the kink at tau = -5e-83 once turned rounding dust into weights of 1e25
@example(cells=(((0.0, 0.0), (1.0, 0.75)),
                ((5.237372017527842e-83, 0.75), (1.0, 0.8995591946993741))),
         ps=0.5, shift=(0.0, 1.0), c=1.5)
def test_pair_weight_2d_symmetry_translation_scaling(cells, ps, shift, c):
    a, b = cells

    def moved(cell, f):
        return tuple(tuple(f(v, d) for d, v in enumerate(corner))
                     for corner in cell)

    w = pair_weight_2d(a, b, ps)
    assert pair_weight_2d(b, a, ps) == pytest.approx(w, rel=1e-9)
    ws = pair_weight_2d(moved(a, lambda v, d: v + shift[d]),
                        moved(b, lambda v, d: v + shift[d]), ps)
    assert ws == pytest.approx(w, rel=1e-9)
    wc = pair_weight_2d(moved(a, lambda v, d: c * v),
                        moved(b, lambda v, d: c * v), ps)
    assert wc == pytest.approx(c ** (2.0 - ps) * w, rel=1e-9)


def test_assemble_2d_symmetries(kw2d, grid2d):
    assert np.array_equal(kw2d.W, kw2d.W.T)
    # exterior weights inherit the square's reflection symmetry
    v = kw2d.V.reshape(grid2d.n, grid2d.n)
    assert v == pytest.approx(v[::-1, :], rel=1e-9)
    assert v == pytest.approx(v[:, ::-1], rel=1e-9)
    assert v == pytest.approx(v.T, rel=1e-9)


def _self_similarity_gap(T: float, unit: float, ps: float) -> float:
    """Relative distance of T from 2^ps/(2^ps - 1) * unit.

    Split one cell into its 2^N half-size cells: each ordered pair of them
    at offset delta in {0,1}^N minus 0 occurs 2^N times, and T and every
    pair weight scale as h^(N - ps), so that T = 2^ps/(2^ps - 1) * unit,
    unit being the sum of the pair weights of those offsets delta.
    """
    scale = 2.0 ** ps
    return abs(scale / (scale - 1.0) * unit - T) / T


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.01, 0.49), n=st.integers(2, 1024))
@example(s=0.4, n=2)
@example(s=0.49, n=1024)
def test_1d_exterior_weight_is_self_similar_to_the_pair_weights(unit_interval,
                                                               s, n):
    params = validate_params(1, s, 2.0, 1.5, 2.0)
    kw = assemble(build_grid(unit_interval, n), params)
    assert _self_similarity_gap(kw.T, kw.table[1], kw.ps) <= 1e-12


@pytest.mark.parametrize("hi", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)],
                         ids=["square", "rect_2x1", "rect_1x3"])
def test_2d_exterior_quadrature_is_self_similar_to_the_pair_quadrature(hi):
    # assembly takes T from the touching weights by this identity; the
    # reference quadratures compute T and those weights independently, so
    # the identity ties the two together, and the assembled T meets both
    domain = DomainSpec((0.0, 0.0), hi)
    for s in (0.05, 0.2, 0.35, 0.49):
        ps = 2.0 * s
        grid = build_grid(domain, 2)
        kw = assemble(grid, validate_params(2, s, 2.0, 1.5, 2.0))
        hx, hy = grid.spacing
        base = ((0.0, 0.0), (hx, hy))
        ref = exterior_weight_2d(base, base, ps, rel_tol=1e-12)
        unit = sum(pair_weight_2d(base, ((di * hx, dj * hy),
                                         ((di + 1) * hx, (dj + 1) * hy)),
                                  ps, rel_tol=1e-12)
                   for di, dj in ((1, 0), (0, 1), (1, 1)))
        assert _self_similarity_gap(ref, unit, ps) <= 1e-12
        assert kw.T == pytest.approx(ref, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------
# persistence and guards
# ---------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, kw32, grid32, sub_params):
    path = tmp_path / "weights.npz"
    save_weights(path, kw32, grid32)
    back = load_weights(path, grid32, sub_params)
    assert np.array_equal(back.W, kw32.W)
    assert np.array_equal(back.V, kw32.V)


def test_2d_cache_stores_the_offset_table(tmp_path, unit_square, params2d):
    # the cache holds O(m) numbers: 2D n=16 is 256 cells, whose dense W alone
    # would take 512 KiB
    grid = build_grid(unit_square, 16)
    kw = assemble(grid, params2d)
    path = tmp_path / "weights.npz"
    save_weights(path, kw, grid)
    assert path.stat().st_size < 16 * 1024
    back = load_weights(path, grid, params2d)
    assert np.array_equal(back.W, kw.W)
    assert np.array_equal(back.V, kw.V)


def test_load_rejects_mismatch(tmp_path, kw32, grid32, sub_params, p3_params):
    path = tmp_path / "weights.npz"
    save_weights(path, kw32, grid32)
    other_grid = build_grid(DomainSpec.interval(0.0, 1.0), 16)
    with pytest.raises(KernelError):
        load_weights(path, other_grid, sub_params)
    with pytest.raises(KernelError):
        load_weights(path, grid32, p3_params)
    # a key that matches the grid over tables of the wrong size
    with np.load(path) as data:
        arrays = dict(data)
    np.savez(path, **{**arrays, "table": kw32.table[:16]})
    with pytest.raises(KernelError, match="does not match"):
        load_weights(path, grid32, sub_params)


def test_weights_hold_their_grid(tmp_path, kw32, grid32, sub_params):
    assert kw32.grid is grid32 and kw32.measures is grid32.measures
    fkw = fold(kw32)
    assert fkw.grid.full is grid32 and fkw.ncells == 16
    assert fkw.measures.sum() == pytest.approx(grid32.measures.sum(),
                                               rel=1e-15)
    path = tmp_path / "weights.npz"
    # the key is that of the weights' grid; another grid is rejected, an
    # equal one built again is the same grid
    for other in (build_grid(DomainSpec.interval(0.0, 1.0), 16),
                  build_grid(DomainSpec.interval(0.0, 2.0), 32), fkw.grid):
        with pytest.raises(GridMismatchError, match="other than their own"):
            save_weights(path, kw32, other)
    assert not path.exists()
    save_weights(path, kw32, build_grid(DomainSpec.interval(0.0, 1.0), 32))
    back = load_weights(path, grid32, sub_params)
    assert np.array_equal(back.table, kw32.table)
    # an offset table fits only the unfolded grid of its size
    with pytest.raises(GridMismatchError, match="unfolded grid"):
        KernelWeights(grid=grid32, table=kw32.table[:16], T=kw32.T,
                      s=kw32.s, p=kw32.p)
    with pytest.raises(GridMismatchError, match="unfolded grid"):
        assemble(fkw.grid, sub_params)


def test_dense_cap_enforced():
    # the cap counts the ceil(n/2)^dim mirror orbits the solvers run on,
    # and the grid is checked before anything is assembled
    for dim, n in ((1, 2 * MAX_DENSE_CELLS), (2, 128)):
        domain = DomainSpec((0.0,) * dim, (1.0,) * dim)
        assert build_grid(domain, n).ncells == n ** dim
        with pytest.raises(GridError, match=str(MAX_DENSE_CELLS)):
            build_grid(domain, n + 1)


# ---------------------------------------------------------------------
# the p = 2 metric K^-1
# ---------------------------------------------------------------------

def _weights(dim, hi, n, ps):
    grid = build_grid(DomainSpec((0.0,) * dim, hi), n)
    return assemble(grid, validate_params(dim, ps / 2.0, 2.0, 1.5, 2.0))


def _dense_k(kw):
    k = -2.0 * kw.W
    k.flat[::kw.ncells + 1] = 2.0 * kw.T
    return k


# odd n have a middle cell that is its own mirror image
@pytest.mark.parametrize("ps", [0.1, 0.8, 0.98])
@pytest.mark.parametrize("dim, hi, n", [(1, (1.0,), n) for n in (1, 2, 3, 63, 64)]
                         + [(2, hi, n)
                            for hi in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0))
                            for n in (1, 2, 3, 15, 16)])
def test_k_inverse_matches_the_dense_inverse(dim, hi, n, ps):
    kw = _weights(dim, hi, n, ps)
    kinv = kw.k_inverse
    k = _dense_k(kw)
    assert np.abs(k @ kinv - np.eye(kw.ncells)).max() <= 1e-12
    ref = np.linalg.inv(k)
    assert np.abs(kinv - ref).max() <= 1e-12 * np.abs(ref).max()
    scale = np.abs(kinv).max()
    assert np.abs(kinv - kinv.T).max() <= 1e-14 * scale
    # K commutes with the flip i -> n-1-i of each axis, so K^-1 does too
    cells = kinv.reshape((n,) * (2 * dim))
    for axis in range(dim):
        flipped = np.flip(cells, (axis, dim + axis))
        assert np.abs(flipped - cells).max() <= 1e-14 * scale
    # the folded K_f = diag(orbit) K on mirror-even functions, so
    # U K_f^-1 w = K^-1 U (w / orbit), U the unfold
    fkw = fold(kw)
    fgrid, finv = fkw.grid, fkw.k_inverse
    assert np.abs(finv - finv.T).max() <= 1e-14 * np.abs(finv).max()
    orbit = fgrid.measures / fgrid.full.measures[0]
    for w in np.eye(fkw.ncells):
        got = DiscreteFunction(finv @ w, fgrid).unfold().values
        want = ref @ DiscreteFunction(w / orbit, fgrid).unfold().values
        assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("dim, n", [(1, 63), (1, 64), (2, 15), (2, 16)])
def test_k_inverse_inverts_only_half_size_blocks(monkeypatch, tmp_path, dim, n):
    # a command inverts the folded K alone, once, with ceil(n/2)^dim rows,
    # and never forms the dense W of every cell
    rows, full_w = [], []
    inv = np.linalg.inv

    def spy(a):
        rows.append(a.shape[0])
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    monkeypatch.setattr(KernelWeights, "W",
                        property(lambda kw: full_w.append(kw) or None))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dim = {dim}\ns = 0.4\np = 2.0\nq = 1.5\nr = 3.0\n"
                   f"lam = 1.0\nn = {n}\ndomain.lo = {','.join(['0.0'] * dim)}\n"
                   f"domain.hi = {','.join(['1.0'] * dim)}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert rows == [math.ceil(n / 2) ** dim]
    assert full_w == []


@pytest.mark.parametrize("dim, n", [(1, 1024), (2, 32)])
def test_k_inverse_allocates_at_most_two_dense_arrays(dim, n):
    # the folded K_f and its inverse are the only dense arrays, each a
    # quarter (1D) or a sixteenth (2D) of one m x m array; the rest is a
    # few small numpy objects
    fkw = fold(_weights(dim, (1.0,) * dim, n, 0.8))
    size = 8 * fkw.ncells ** 2
    tracemalloc.start()
    try:
        fkw.k_inverse
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fkw.ncells == math.ceil(n / 2) ** dim
    assert peak <= 2 * size + 4096


def test_tensor_table_holds_one_row_of_the_touching_columns():
    # the touching columns of a long cell take ceil(ratio) panels per hat
    # half: one row of 2 x (2 order)^2 x ratio floats, refilled for every
    # offset di (two rows were alive at once before)
    ratio, order = 256, 20
    _gauss(order)
    row = 2 * (2 * order) ** 2 * ratio * 8
    tracemalloc.start()
    try:
        _tensor_table(4, float(ratio), 0.8, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * row


@pytest.mark.parametrize("dim, n, arrays", [(1, 2048, 1.1), (2, 32, 1.5)])
def test_fold_allocates_about_one_folded_array(dim, n, arrays):
    # the folded W is read through views of the offset table; in 2D the
    # block of the first axis and numpy's iteration buffers add 0.44 of it
    # at n = 32, a share that falls as n grows
    kw = _weights(dim, (1.0,) * dim, n, 0.8)
    tracemalloc.start()
    try:
        fkw = fold(kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * fkw.ncells ** 2
