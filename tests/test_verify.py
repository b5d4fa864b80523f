from __future__ import annotations

import dataclasses
import statistics

import numpy as np
import pytest

import fplogistic.verify as verify_module
from fplogistic.domain import build_grid, validate_params
from fplogistic.eigen import principal_eigenpair
from fplogistic.kernel import assemble, fold
from fplogistic.operator import DiscreteFunction, GridMismatchError
from fplogistic.solve import (SolveOptions, SolveReport, SolverError, Status,
                              detect_threshold)
from fplogistic.verify import (EQUI_TRIALS, CheckResult, check_hopf,
                               check_limit_branch, check_nonexistence_equi,
                               check_strict_order, refinement_study, run_suite)


def test_check_result_verdicts():
    assert CheckResult(name="x", passed=True).verdict == "PASS"
    assert CheckResult(name="x", passed=False).verdict == "FAIL"
    assert CheckResult(name="x", passed=None).verdict == "SKIP"


def test_hopf_passes_on_eigenfunction(eig64, sub_params):
    res = check_hopf(eig64.u1, sub_params.s)
    assert res.passed
    assert res.witness["min_ratio"] > 0.0


def test_hopf_fails_on_flattened_profile(grid64, sub_params):
    # a profile decaying like d^(3s) has a boundary ratio far below the
    # median ratio, which is exactly the degeneracy the check rejects
    flat = DiscreteFunction(grid64.boundary_dist ** (3.0 * sub_params.s),
                            grid64)
    res = check_hopf(flat, sub_params.s)
    assert res.passed is False
    assert res.witness["boundary_min_ratio"] < res.thresholds["hopf_frac"] * \
        res.witness["median_ratio"]


@pytest.mark.parametrize("n", [63, 64])
def test_hopf_median_is_the_statistics_median(unit_interval, sub_params, n):
    # odd and even cell counts: the middle ratio, or the mean of the two
    grid = build_grid(unit_interval, n)
    vals = np.random.default_rng(n).uniform(0.1, 2.0, n)
    res = check_hopf(DiscreteFunction(vals, grid), sub_params.s)
    ratios = vals / grid.boundary_dist ** sub_params.s
    assert res.witness["median_ratio"] == statistics.median(ratios.tolist())


def test_hopf_fails_on_sign_change(grid64, sub_params):
    vals = np.ones(grid64.ncells)
    vals[0] = -0.5
    res = check_hopf(DiscreteFunction(vals, grid64), sub_params.s)
    assert res.passed is False
    assert res.witness["min_ratio"] < 0.0
    assert res.witness["argmin_cell"] == 0


def test_strict_order_branches(grid32, rng):
    low = DiscreteFunction(rng.uniform(0.1, 0.5, grid32.ncells), grid32)
    high = DiscreteFunction(low.values + 0.05, grid32)
    assert check_strict_order(low, high).passed
    touching = DiscreteFunction(low.values.copy(), grid32)
    res = check_strict_order(low, touching)
    assert res.passed is False
    assert res.witness["min_gap"] == 0.0


def test_nonexistence_skips_outside_scope(grid32, kw32, sub_params,
                                          equi_params):
    res = check_nonexistence_equi(sub_params, 1.0, principal_eigenpair(
        kw32, SolveOptions(seed=0)))
    assert res.passed is None
    assert "q = p" in res.notes

    kw_eq = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw_eq, SolveOptions(seed=0))
    res = check_nonexistence_equi(equi_params, 2.0 * eig.lambda1, eig)
    assert res.passed is None
    assert "lambda1" in res.notes


def test_nonexistence_passes_below_eigenvalue(grid32, equi_params):
    kw = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    res = check_nonexistence_equi(equi_params, 0.9 * eig.lambda1, eig)
    assert res.passed
    assert max(res.witness["sup_norms"]) <= 1e-6
    assert max(res.witness["coercive_parts"]) <= 1e-6


def test_nonexistence_fails_when_descent_is_cut_short(grid32, equi_params):
    # an iteration cap leaves the trials unfinished, which the check must
    # refuse
    kw = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    res = check_nonexistence_equi(equi_params, 0.9 * eig.lambda1, eig,
                                  opts=SolveOptions(max_iters=2))
    assert res.passed is False
    assert res.witness["statuses"] == ["max_iters"] * EQUI_TRIALS


@pytest.mark.parametrize("check", ["check_nonexistence_equi", "run_suite"])
def test_parameters_must_have_the_exponent_of_the_weights(grid32, check):
    # an equidiffusive p = q = 3 problem on p = 2 weights used to be
    # certified: the p = 2 problem it actually solved is superdiffusive
    kw = assemble(grid32, validate_params(1, 0.3, 2.0, 3.0, 4.0))
    eigen = principal_eigenpair(kw, SolveOptions(seed=0))
    params = validate_params(1, 0.3, 3.0, 3.0, 4.0)
    run = {
        "check_nonexistence_equi": lambda: check_nonexistence_equi(
            params, 0.9 * eigen.lambda1, eigen),
        "run_suite": lambda: run_suite(params, eigen),
    }[check]
    with pytest.raises(GridMismatchError,
                       match="assembled for p = 2.0, got p = 3.0"):
        run()


@pytest.mark.parametrize("check", ["check_nonexistence_equi", "run_suite"])
def test_parameters_must_have_the_s_of_the_weights(grid32, check):
    # fold used to drop s, so s = 0.45 checks ran on the s = 0.3 weights:
    # the Hopf witness read boundary_min_ratio 0.0517 against the 0.0277
    # of the weights' own s
    kw = fold(assemble(grid32, validate_params(1, 0.3, 2.0, 1.5, 3.0)))
    assert kw.s == 0.3
    eigen = principal_eigenpair(kw, SolveOptions(seed=0))
    params = validate_params(1, 0.45, 2.0, 1.5, 3.0)
    run = {
        "check_nonexistence_equi": lambda: check_nonexistence_equi(
            params, 1.0, eigen),
        "run_suite": lambda: run_suite(params, eigen),
    }[check]
    with pytest.raises(GridMismatchError,
                       match="assembled for s = 0.3, got s = 0.45"):
        run()


def test_limit_branch_branches():
    pts = [(1.0, 0.8), (0.5, 0.3), (0.25, 0.05)]
    assert check_limit_branch(pts, 0.0, tol=0.1).passed
    res = check_limit_branch(pts, 0.0, tol=0.01)
    assert res.passed is False
    wob = [(1.0, 0.8), (0.5, 0.9), (0.25, 0.05)]
    assert check_limit_branch(wob, 0.0, tol=0.1).passed is False
    short = check_limit_branch(pts[:2], 0.0, tol=0.1)
    assert short.passed is None


def test_refinement_study_branches():
    with pytest.raises(ValueError, match="grid sizes"):
        refinement_study([8, 16], [1.0])
    assert refinement_study([8, 16], [1.0, 0.9]).passed is None
    good = refinement_study([8, 16, 32, 64], [2.0, 1.5, 1.3, 1.25])
    assert good.passed
    assert good.witness["deltas"] == pytest.approx([0.5, 0.2, 0.05])
    bad = refinement_study([8, 16, 32], [2.0, 1.9, 1.7])
    assert bad.passed is False


def test_run_suite_sub(kw32, sub_params):
    results = run_suite(sub_params, principal_eigenpair(
        kw32, SolveOptions(seed=0)))
    names = [r.name for r in results]
    assert names == ["strict_order", "hopf_boundary_growth", "limit_branch"]
    assert all(r.passed for r in results)


def test_run_suite_equi(grid32, equi_params):
    kw = assemble(grid32, equi_params)
    results = run_suite(equi_params, principal_eigenpair(
        kw, SolveOptions(seed=0)))
    assert [r.name for r in results] == ["nonexistence_below_eigenvalue"]
    assert results[0].passed


def test_run_suite_super(super_params, unit_interval):
    grid = build_grid(unit_interval, 16)
    kw = assemble(grid, super_params)
    results = run_suite(super_params, principal_eigenpair(
        kw, SolveOptions(seed=0)))
    names = [r.name for r in results]
    assert names[0] == "threshold_above_lower_bound"
    assert "hopf_boundary_growth" in names
    assert "saddle_between_zero_and_branch" in names
    assert all(r.passed for r in results if r.passed is not None)
    assert results[0].passed


@pytest.mark.parametrize("mutate", [
    # the collapsed end of the bracket above the ray bound: a certified
    # solvable intensity judged unsolvable
    lambda thr: {"lambda_ray": thr.lambda_star_h - 2.0 * thr.bracket_width},
    lambda thr: {"lambda_0": thr.lambda_star_h + 1.0},
], ids=["collapse_above_lambda_ray", "threshold_below_lambda_0"])
def test_the_threshold_check_fails_on_a_bracket_outside_its_bounds(
        monkeypatch, super_params, unit_interval, mutate):
    kw = assemble(build_grid(unit_interval, 16), super_params)

    def walk(*args):
        thr = detect_threshold(*args)
        return dataclasses.replace(thr, **mutate(thr))

    monkeypatch.setattr(verify_module, "detect_threshold", walk)
    check = run_suite(super_params, principal_eigenpair(kw))[0]
    assert (check.name, check.passed) == ("threshold_above_lower_bound", False)
    assert set(check.witness) == {"lambda_star_h", "lambda_0", "lambda_ray",
                                  "bracket_width"}


def test_run_suite_equi_above_the_eigenvalue(grid32, equi_params):
    # above lambda1 the nonexistence check is out of scope, and the branch
    # solution there gets the Hopf check
    kw = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    results = run_suite(equi_params, eig, lam=1.5 * eig.lambda1)
    assert [(r.name, r.passed) for r in results] == [
        ("nonexistence_below_eigenvalue", None), ("hopf_boundary_growth", True)]


@pytest.mark.parametrize("regime", ["sub", "equi"])
def test_run_suite_judges_no_branch_solve_that_stopped_short(
        kw64, eig64, sub_params, equi_params, regime):
    # one iteration leaves every branch solve at max_iters (residual 1.6e-3
    # at lam = 1 on the sub bundle); the checks used to pass on them
    params, lam = {"sub": (sub_params, 1.0),
                   "equi": (equi_params, 1.5 * eig64.lambda1)}[regime]
    with pytest.raises(SolverError, match=(
            rf"^{regime} branch solve at lam = {lam:.6g} stopped after 1 of 1 "
            r"iterations \(residual \S+\); raise solver\.max_iters$")):
        run_suite(params, eig64, lam, SolveOptions(max_iters=1))


def test_run_suite_super_skips_an_unconverged_saddle(monkeypatch,
                                                     super_params,
                                                     unit_interval):
    kw = assemble(build_grid(unit_interval, 16), super_params)

    def capped(lam, params, kw, u_lam, opts):
        return SolveReport(u_lam, 0.0, 1.0, opts.max_iters, Status.MAX_ITERS)

    monkeypatch.setattr(verify_module, "mountain_pass", capped)
    results = run_suite(super_params, principal_eigenpair(
        kw, SolveOptions(seed=0)))
    saddle = results[-1]
    assert (saddle.name, saddle.passed) == ("saddle_between_zero_and_branch",
                                            None)
    assert saddle.notes == "saddle search ended with status max_iters"
    assert "strict_order" not in [r.name for r in results]
