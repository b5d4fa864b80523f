"""The problem folded onto mirror-even functions (kernel.fold) is the full one."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplogistic.cli import _canonical_regime_params, main
from fplogistic.domain import DomainSpec, build_grid, validate_params
from fplogistic.eigen import principal_eigenpair
from fplogistic.kernel import assemble, fold
from fplogistic.logistic import LogisticParams, phi_functional
from fplogistic.operator import DiscreteFunction, _apply, _energy, mass_norm
from fplogistic.solve import (SolveOptions, Status, detect_threshold, minimize,
                              solve_branch_point, torsion_solve)
from fplogistic.verify import check_hopf, check_strict_order, run_suite


def _problem(dim, n, s, p, q, r, hi=None):
    grid = build_grid(DomainSpec((0.0,) * dim, hi or (1.0,) * dim), n)
    params = validate_params(dim, s, p, q, r)
    return params, grid, assemble(grid, params)


def _flips_apart(values, n, dim):
    """Largest change of the cell values under the flip of any axis."""
    cells = values.reshape((n,) * dim)
    return max(np.abs(cells - np.flip(cells, axis)).max() for axis in range(dim))


# odd n have a middle row or cell that is its own mirror image; the 2D
# rectangle has cells of aspect ratio 2
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("dim, n, hi", [(1, 63, None), (1, 64, None),
                                        (2, 9, None), (2, 16, (1.0, 2.0)),
                                        (1, 1, None), (2, 2, None)])
def test_folded_energy_operator_and_mass_are_those_of_the_unfold(dim, n, hi, p):
    _, grid, kw = _problem(dim, n, 0.3, p, 1.5, 2.5, hi)
    fkw = fold(kw)
    fgrid = fkw.grid
    rng = np.random.default_rng(n)
    v = rng.uniform(-1.0, 1.0, fkw.ncells)
    u = DiscreteFunction(v, fgrid).unfold()
    assert u.grid is grid
    # the unfold is even under every flip, and the folded grid holds the
    # first occurrence of each mirror orbit
    assert _flips_apart(u.values, n, dim) == 0.0
    cells = np.unique(fgrid.full_index, return_index=True)[1]
    assert np.array_equal(fgrid.centers, grid.centers[cells])
    assert fkw.ncells == ((n + 1) // 2) ** dim

    energy = _energy(u.values, kw)
    assert _energy(v, fkw) == pytest.approx(energy, rel=1e-14, abs=1e-300)
    lu = _apply(u.values, kw)
    assert np.abs(_apply(v, fkw) - lu[cells]).max() \
        <= 1e-14 * np.abs(lu).max()
    assert mass_norm(v, fgrid.measures) == pytest.approx(
        mass_norm(u.values, grid.measures), rel=1e-15)
    assert fgrid.measures.sum() == pytest.approx(grid.measures.sum(), rel=1e-15)

    assert np.array_equal(fkw.W, fkw.W.T)
    assert np.abs(fkw.W.sum(axis=1) + fkw.V - fkw.T).max() <= 1e-14 * kw.T


@pytest.mark.parametrize("dim, n, q, r, lam", [(1, 63, 3.0, 4.0, 10.0),
                                               (2, 9, 2.5, 3.2, 30.0)])
def test_folded_answers_match_the_full_grid(dim, n, q, r, lam):
    params, _, kw = _problem(dim, n, 0.4, 2.0, q, r)
    opts = SolveOptions()
    answers = []
    for k in (kw, fold(kw)):
        ep = principal_eigenpair(k, SolveOptions(seed=0))
        answers.append([
            ep.lambda1,
            torsion_solve(k, opts).u.sup_norm(),
            solve_branch_point(lam, None, params, k, opts, eigen=ep).u.sup_norm(),
            detect_threshold(params, ep, opts,
                             bracket_tol=1e-3).lambda_star_h,
        ])
    full, folded = answers
    assert folded == pytest.approx(full, rel=1e-12)


# The minimizer is not proven unique for q > p, so the fold rests there on
# the descent: from starts that are not mirror-even, every converged answer
# on the full grid must be even to the accuracy the residual test allows.
@settings(max_examples=6, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(8, 16),
       regime=st.sampled_from(["sub", "super"]), seed=st.integers(0, 2 ** 16))
def test_converged_solutions_from_uneven_starts_are_even(dim, n, regime, seed):
    # the super starts lie beyond the mountain-pass barrier of their rays
    q, r, lam, scale = {("sub", 1): (1.5, 3.0, 1.0, 1.0),
                        ("sub", 2): (1.5, 3.0, 1.0, 1.0),
                        ("super", 1): (3.0, 4.0, 12.0, 10.0),
                        ("super", 2): (2.5, 3.2, 45.0, 10.0)}[regime, dim]
    _, grid, kw = _problem(dim, n, 0.4, 2.0, q, r)
    u0 = scale * np.random.default_rng(seed).uniform(0.0, 1.0, grid.ncells)
    assert _flips_apart(u0, n, dim) > 0.01 * scale
    opts = SolveOptions()
    rep = minimize(phi_functional(kw, LogisticParams(lam, q, r)),
                   DiscreteFunction(u0, grid), opts)
    assert rep.status is Status.CONVERGED
    assert _flips_apart(rep.u.values, n, dim) \
        <= opts.residual_tol / grid.measures[0] ** 0.5


def test_the_folded_eigenpair_lives_on_the_folded_grid():
    # the folded weights of 1D n = 7 have 4 cells, like a full n = 4 grid;
    # paired with that grid's measures the eigen solve gave 16.822048180083566
    grid = build_grid(DomainSpec.interval(0.0, 1.0), 7)
    fkw = fold(assemble(grid, validate_params(1, 0.4, 2.0, 1.5, 3.0)))
    pair = principal_eigenpair(fkw)
    assert fkw.ncells == build_grid(DomainSpec.interval(0.0, 1.0), 4).ncells
    assert pair.lambda1 == 18.60650506087675
    assert pair.u1.grid is fkw.grid and pair.u1.unfold().grid is grid


def test_cell_witnesses_of_folded_functions_are_those_of_the_unfold():
    # 2D n = 5: orbit cell (1, 2) is cell 5 of the folded grid and cells 7
    # and 17 of the full one, and the middle row and column are single
    _, grid, kw = _problem(2, 5, 0.4, 2.0, 1.5, 3.0)
    fgrid = fold(kw).grid
    high = np.ones(fgrid.ncells)
    high[5] = 0.5
    low, high = (DiscreteFunction(v, fgrid) for v in (np.zeros(fgrid.ncells), high))
    assert check_strict_order(low, high).witness == {"min_gap": 0.5,
                                                     "argmin_cell": 7}
    values = np.random.default_rng(5).uniform(0.5, 1.5, fgrid.ncells)
    u = DiscreteFunction(values * fgrid.boundary_dist ** 0.4, fgrid)
    assert check_hopf(u, 0.4).witness == check_hopf(u.unfold(), 0.4).witness


def _csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def test_verify_witnesses_are_those_of_the_full_grid(tmp_path):
    # an odd n: the middle cell is its own orbit, and the witnesses that
    # name cells or take a median must count every cell of the full grid
    n = 15
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 1\ns = 0.4\np = 2.0\nq = 1.5\nr = 3.0\nlam = 1.0\n"
                   f"n = {n}\ndomain.lo = 0.0\ndomain.hi = 1.0\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--regime", "all",
                 "--out", str(out)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert len(_csv_rows(tmp_path / "s" / "solution.csv")) == 1 + n

    base, grid, kw = _problem(1, n, 0.4, 2.0, 1.5, 3.0)
    ep = principal_eigenpair(kw, SolveOptions(seed=0))
    entries = json.loads((out / "report.json").read_text())["results"]["checks"]
    got = {(e["regime"], e["name"]): e for e in entries}
    mirror = (lambda i: min(i, n - 1 - i))
    compared = 0
    for regime in ("sub", "equi", "super"):
        rp = _canonical_regime_params(base, regime)
        for res in run_suite(rp, ep, None, SolveOptions()):
            entry = got.pop((regime, res.name))
            assert entry["verdict"] == res.verdict
            rows = _csv_rows(out / f"verify_{regime}_{res.name}.csv")
            assert len(rows) == (2 + len(res.witness) + len(res.thresholds)
                                 + bool(res.notes))
            assert entry["witness"].keys() == res.witness.keys()
            for key, want in res.witness.items():
                have = entry["witness"][key]
                if key == "argmin_cell":
                    # the full grid's answer is even only to rounding
                    assert mirror(have) == mirror(want)
                elif key in ("min_ratio", "boundary_min_ratio", "median_ratio",
                             "min_gap", "lambda_star_h", "lambda_0", "sup_v",
                             "sup_u", "final_distance", "distances", "params",
                             "lambda1", "bracket_width"):
                    assert have == pytest.approx(want, rel=1e-10), key
                    compared += 1
    assert got == {}
    assert compared >= 15
