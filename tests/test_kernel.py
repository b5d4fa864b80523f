from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fplogistic.domain import DomainSpec, build_grid, validate_params
from fplogistic.kernel import (KernelError, KernelWeights, MAX_DENSE_CELLS,
                               assemble, exterior_weight_1d,
                               exterior_weight_2d, load_weights,
                               pair_weight_1d, pair_weight_2d, save_weights)

from oracles import (exit_distance, mc_exterior_2d, oracle_exterior_1d,
                     oracle_exterior_2d, oracle_pair_1d, oracle_pair_2d)

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


def test_assemble_runs_one_exterior_quadrature(monkeypatch, sub_params,
                                               params2d):
    # V_i = T - sum_j W_ij with T the exterior weight of one cell alone
    import fplogistic.kernel as kernel
    calls = []
    for name in ("exterior_weight_1d", "exterior_weight_2d"):
        original = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda *a, _f=original, **k:
                            calls.append(a) or _f(*a, **k))
    assemble(build_grid(DomainSpec.interval(0.0, 1.0), 8), sub_params)
    assert len(calls) == 1
    assemble(build_grid(DomainSpec.rectangle(0.0, 2.0, 0.0, 1.0), 4), params2d)
    assert len(calls) == 2


def test_assembled_weights_structure(kw64):
    assert np.array_equal(kw64.W, kw64.W.T)
    assert np.all(np.diag(kw64.W) == 0.0)
    off = kw64.W[~np.eye(kw64.ncells, dtype=bool)]
    assert off.min() > 0.0
    assert kw64.V.min() > 0.0


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
    # the unit square takes the diagonal-symmetry shortcuts; the 2 x 1
    # rectangle (hx != hy) must compute every entry
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


def _self_similarity_gap(kw) -> float:
    """Relative distance of T from 2^ps/(2^ps - 1) * sum of the unit offsets.

    Split one cell into its 2^N half-size cells: each ordered pair of them
    at offset delta in {0,1}^N minus 0 occurs 2^N times, and T and every
    pair weight scale as h^(N - ps), so that
    T = 2^ps/(2^ps - 1) * sum over those delta of table[delta].
    """
    unit = kw.table[1] if kw.dim == 1 else kw.table[:2, :2].sum()
    scale = 2.0 ** kw.ps
    return abs(scale / (scale - 1.0) * unit - kw.T) / kw.T


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.01, 0.49), n=st.integers(2, 1024))
@example(s=0.4, n=2)
@example(s=0.49, n=1024)
def test_1d_exterior_weight_is_self_similar_to_the_pair_weights(unit_interval,
                                                               s, n):
    params = validate_params(1, s, 2.0, 1.5, 2.0)
    kw = assemble(build_grid(unit_interval, n), params)
    assert _self_similarity_gap(kw) <= 1e-12


@pytest.mark.parametrize("hi", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)],
                         ids=["square", "rect_2x1", "rect_1x3"])
def test_2d_exterior_quadrature_is_self_similar_to_the_pair_quadrature(hi):
    # T comes from the exterior quadrature and the table from the pair
    # quadrature, so the identity ties the two together
    domain = DomainSpec((0.0, 0.0), hi)
    for s in (0.05, 0.2, 0.35, 0.49):
        kw = assemble(build_grid(domain, 2), validate_params(2, s, 2.0, 1.5, 2.0))
        assert _self_similarity_gap(kw) <= 1e-12


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
    short = KernelWeights(table=kw32.table[:16], T=kw32.T, dim=1,
                          s=kw32.s, p=kw32.p)
    save_weights(path, short, grid32)
    with pytest.raises(KernelError, match="does not match"):
        load_weights(path, grid32, sub_params)


def test_dense_cap_enforced(sub_params):
    grid = build_grid(DomainSpec.interval(0.0, 1.0), MAX_DENSE_CELLS + 1)
    with pytest.raises(KernelError, match=str(MAX_DENSE_CELLS)):
        assemble(grid, sub_params)
