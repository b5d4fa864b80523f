from __future__ import annotations

import itertools

import numpy as np
import pytest

from fplogistic import domain
from fplogistic.domain import (DomainSpec, GridError, ParamError, Regime,
                               build_grid, classify_regime, validate_params)


def test_validate_accepts_reference_parameters():
    params = validate_params(1, 0.4, 2.0, 1.5, 3.0)
    assert params.ps == pytest.approx(0.8)
    assert params.p_star == pytest.approx(2.0 / 0.2)


@pytest.mark.parametrize("dim,s,p,q,r,fragment", [
    (1, 0.5, 2.0, 1.5, 3.0, "ps >= N"),
    (2, 0.6, 2.0, 1.5, 3.0, "infinite W"),
    (1, 0.0, 2.0, 1.5, 3.0, "s"),
    (1, 1.0, 2.0, 1.5, 3.0, "s"),
    (1, 0.4, 1.5, 1.2, 1.4, "p"),
    (1, 0.4, 2.0, 1.0, 3.0, "q"),
    (1, 0.4, 2.0, 3.0, 3.0, "r"),
    (1, 0.4, 2.0, 1.5, 11.0, "p_star"),
    (3, 0.4, 2.0, 1.5, 3.0, "dim"),
])
def test_validate_rejects_and_names_the_constraint(dim, s, p, q, r, fragment):
    with pytest.raises(ParamError, match=fragment):
        validate_params(dim, s, p, q, r)


def test_regime_classification():
    assert classify_regime(validate_params(1, 0.4, 2.0, 1.5, 3.0)) is Regime.SUB
    assert classify_regime(validate_params(1, 0.4, 2.0, 2.0, 3.0)) is Regime.EQUI
    assert classify_regime(validate_params(1, 0.4, 2.0, 3.0, 4.0)) is Regime.SUPER


def test_interval_grid_geometry():
    grid = build_grid(DomainSpec.interval(0.0, 1.0), 8)
    assert grid.ncells == 8
    assert grid.measures.sum() == pytest.approx(1.0, rel=1e-15)
    # shared edges are exact: the high edge of one cell is the low edge
    # of the next, bitwise
    assert np.array_equal(grid.highs[:-1], grid.lows[1:])
    x = grid.centers[:, 0]
    assert grid.boundary_dist == pytest.approx(np.minimum(x, 1.0 - x))


@pytest.mark.parametrize("lo,hi,n", [((-0.3,), (2.7,), 7),
                                     ((0.0,), (1.0,), 64),
                                     ((-1.0, 0.2), (3.0, 0.9), 5),
                                     ((0.0, 0.0), (1.0, 1.0), 16)])
def test_grid_fields_are_the_per_axis_formulas(lo, hi, n):
    # one construction for every dimension: each field is, bit for bit, the
    # per-axis formula at every cell, cells x-major
    grid = build_grid(DomainSpec(lo, hi), n)
    edges = [np.linspace(a, b, n + 1) for a, b in zip(lo, hi)]
    cells = list(itertools.product(range(n), repeat=len(lo)))
    lows = np.array([[e[i] for e, i in zip(edges, c)] for c in cells])
    highs = np.array([[e[i + 1] for e, i in zip(edges, c)] for c in cells])
    centers = np.array([[0.5 * (e[i] + e[i + 1]) for e, i in zip(edges, c)]
                        for c in cells])
    measure = 1.0
    for a, b in zip(lo, hi):
        measure *= (b - a) / n
    dist = np.array([min(min(x - a, b - x) for x, a, b in zip(ctr, lo, hi))
                     for ctr in centers])
    for got, want in ((grid.lows, lows), (grid.highs, highs),
                      (grid.centers, centers),
                      (grid.measures, np.full(len(cells), measure)),
                      (grid.boundary_dist, dist)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_refinement_nests_cells():
    coarse = build_grid(DomainSpec.interval(0.0, 1.0), 16)
    fine = build_grid(DomainSpec.interval(0.0, 1.0), 32)
    # every coarse edge appears among the fine edges bitwise, so coarse
    # cell functions lie in the fine space exactly
    assert set(np.asarray(coarse.lows).ravel()) <= set(np.asarray(fine.lows).ravel())


def test_rectangle_grid_ordering_and_distance():
    grid = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 0.5), 4)
    assert grid.dim == 2
    assert grid.ncells == 16
    assert grid.measures.sum() == pytest.approx(0.5, rel=1e-14)
    # x-major ordering: consecutive cells advance y first
    assert grid.centers[0][0] == grid.centers[1][0]
    assert grid.centers[0][1] < grid.centers[1][1]
    x, y = grid.centers[:, 0], grid.centers[:, 1]
    expected = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 0.5 - y))
    assert grid.boundary_dist == pytest.approx(expected)


def test_boundary_adjacent_mask():
    grid1 = build_grid(DomainSpec.interval(0.0, 1.0), 8)
    mask1 = grid1.boundary_adjacent()
    assert mask1.sum() == 2 and mask1[0] and mask1[-1]
    grid2 = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 4)
    assert grid2.boundary_adjacent().sum() == 12


def test_bad_domains_rejected():
    with pytest.raises(GridError):
        build_grid(DomainSpec.interval(0.0, 1.0), 0)
    with pytest.raises(GridError):
        DomainSpec.interval(1.0, 1.0)
    with pytest.raises(GridError):
        DomainSpec.rectangle(0.0, 1.0, 0.0, -1.0)


@pytest.mark.parametrize("lo,hi", [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                                   ((0.0, 0.0), (1.0,)), ((), ())])
def test_domains_of_other_than_one_or_two_axes_are_rejected(lo, hi):
    with pytest.raises(GridError, match="1 or 2 axes"):
        DomainSpec(lo, hi)


def test_long_thin_2d_domain_is_rejected_before_assembly():
    # the 2D rule's touching columns take ceil(ratio) panels per hat half,
    # so its memory grows with the side ratio: 1e9 would ask for 14.9 GiB
    cap = domain.MAX_ASPECT_RATIO
    for lo, hi in (((0.0, 0.0), (1.0, 1e9)), ((0.0, 0.0), (2.0 * cap, 1.0))):
        with pytest.raises(GridError, match=f"capped at {cap}"):
            build_grid(DomainSpec(lo, hi), 4)
    assert build_grid(DomainSpec((0.0, 0.0), (1.0, float(cap))), 4).ncells == 16
    assert build_grid(DomainSpec.interval(0.0, 1e9), 4).ncells == 4
