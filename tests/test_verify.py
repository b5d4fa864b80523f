from __future__ import annotations

import dataclasses
import statistics

import numpy as np
import pytest

import fplogistic.verify as verify_module
from fplogistic.domain import build_grid, validate_params
from fplogistic.eigen import principal_eigenpair
from fplogistic.kernel import assemble, fold
from fplogistic.logistic import LogisticParams, phi_functional
from fplogistic.operator import DiscreteFunction, GridMismatchError
from fplogistic.solve import (SolveOptions, SolveReport, SolverError, Status,
                              detect_threshold, mountain_pass)
from fplogistic.verify import (CheckResult, check_hopf,
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
    # an iteration cap leaves the first trial unfinished: no ground for a
    # verdict either way, so the check raises rather than FAIL
    kw = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    lam = 0.9 * eig.lambda1
    with pytest.raises(SolverError, match=(
            rf"^equi trial 0 at lam = {lam:.6g} stopped after 2 of 2 "
            r"iterations \(residual \S+\); raise solver\.max_iters$")):
        check_nonexistence_equi(equi_params, lam, eig,
                                opts=SolveOptions(max_iters=2))


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
    assert check_limit_branch(pts, tol=0.1).passed
    res = check_limit_branch(pts, tol=0.01)
    assert res.passed is False
    wob = [(1.0, 0.8), (0.5, 0.9), (0.25, 0.05)]
    assert check_limit_branch(wob, tol=0.1).passed is False
    short = check_limit_branch(pts[:2], tol=0.1)
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
    # one iteration leaves every branch solve at the cap (residual 1.6e-3
    # at lam = 1 on the sub bundle); the checks used to pass on them
    params, lam = {"sub": (sub_params, 1.0),
                   "equi": (equi_params, 1.5 * eig64.lambda1)}[regime]
    with pytest.raises(SolverError, match=(
            rf"^branch solve at lam = {lam:.6g} stopped after 1 of 1 "
            r"iterations \(residual \S+\); raise solver\.max_iters$")):
        run_suite(params, eig64, lam, SolveOptions(max_iters=1))


def test_run_suite_super_raises_on_an_unconverged_saddle(monkeypatch, super16):
    # a saddle search cut short used to be SKIP, with exit 0: the paper's
    # second solution went unchecked because a solve stopped short
    params, eig, thr = super16
    monkeypatch.setattr(verify_module, "detect_threshold", lambda *args: thr)
    monkeypatch.setattr(verify_module, "mountain_pass",
                        lambda *args: mountain_pass(*args[:-1],
                                                    SolveOptions(max_iters=2)))
    with pytest.raises(SolverError, match=(
            rf"^saddle search at lam = {1.5 * thr.lambda_star_h:.6g} stopped "
            r"after 2 of 2 iterations \(residual \S+\); "
            r"raise solver\.max_iters$")):
        run_suite(params, eig)


def test_run_suite_super_skips_a_saddle_not_found(monkeypatch, super16):
    # a search with no barrier leaves the second solution unchecked: SKIP
    params, eig, thr = super16
    monkeypatch.setattr(verify_module, "detect_threshold", lambda *args: thr)
    monkeypatch.setattr(verify_module, "mountain_pass", lambda *args: (
        SolveReport(DiscreteFunction(np.zeros(16), eig.u1.grid), 0.0,
                    float("nan"), 0, Status.NOT_FOUND)))
    results = run_suite(params, eig)
    saddle = results[-1]
    assert (saddle.name, saddle.passed) == ("saddle_between_zero_and_branch",
                                            None)
    assert saddle.notes == "saddle search ended with status not_found"
    assert "strict_order" not in [r.name for r in results]


@pytest.fixture(scope="module")
def super16(super_params, unit_interval):
    """The super parameters, their n = 16 eigenpair and threshold report."""
    kw = assemble(build_grid(unit_interval, 16), super_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    return super_params, eig, detect_threshold(super_params, eig, SolveOptions(),
                                               verify_module.SUPER_BRACKET_TOL)


def _zero_first_cell(u: DiscreteFunction) -> DiscreteFunction:
    # a profile that vanishes on a boundary cell has no Hopf growth
    return DiscreteFunction(np.concatenate([[0.0], u.values[1:]]), u.grid)


def _edited_branch(edit):
    """A stand-in for solve_branch_point: its report, u = edit(warm, u)."""
    def make(real):
        def stand_in(lam, warm, *args, **kwargs):
            rep = real(lam, warm, *args, **kwargs)
            rep.u = edit(warm, rep.u)
            return rep
        return stand_in
    return make


def _edited_threshold(edit):
    """A stand-in for detect_threshold: its report with edit(report) replaced."""
    def make(real):
        def stand_in(*args):
            thr = real(*args)
            return dataclasses.replace(thr, **edit(thr))
        return stand_in
    return make


def _saddle_at(scale):
    """A stand-in for mountain_pass: converged at scale * u_lam, at its energy."""
    def make(real):
        def stand_in(lam, params, kw, u_lam, opts):
            v = scale * u_lam.values
            lp = LogisticParams(lam=lam, q=params.q, r=params.r)
            return SolveReport(DiscreteFunction(v, u_lam.grid),
                               phi_functional(kw, lp).energy(v), 0.0, 1,
                               Status.CONVERGED)
        return stand_in
    return make


# every check run_suite can emit, as regime/name, with a mutant that FAILs
# it: lam / lambda1 to run at (None: the default), and the function of the
# verify module to stand in for, with make(real) giving the stand-in
MUTANTS = {
    # the warm-started, higher solution touches the lower one
    "sub/strict_order": (None, "solve_branch_point", _edited_branch(
        lambda warm, u: u if warm is None else warm)),
    "sub/hopf_boundary_growth": (None, "solve_branch_point", _edited_branch(
        lambda warm, u: u if warm is None else _zero_first_cell(u))),
    # the branch read backwards: lam below 1 is solved at 1 / lam, so the
    # sup norm grows as lam falls
    "sub/limit_branch": (None, "solve_branch_point", lambda real: (
        lambda lam, *args, **kwargs: real(max(lam, 1.0 / lam), *args, **kwargs))),
    # a descent that calls its random start, nonzero at lam <= lambda1, a
    # critical point
    "equi/nonexistence_below_eigenvalue": (None, "minimize", lambda real: (
        lambda func, u0, opts, what: SolveReport(
            u0, func.energy(u0.values), 0.0, 1, Status.CONVERGED))),
    "equi/hopf_boundary_growth": (1.5, "solve_branch_point", _edited_branch(
        lambda warm, u: _zero_first_cell(u))),
    # the collapsed end of the bracket above the ray bound
    "super/threshold_above_lower_bound": (
        None, "detect_threshold", _edited_threshold(lambda thr: {
            "lambda_ray": thr.lambda_star_h - 2.0 * thr.bracket_width})),
    "super/hopf_boundary_growth": (None, "detect_threshold", _edited_threshold(
        lambda thr: {"u_star": _zero_first_cell(thr.u_star)})),
    # a saddle that touches the branch solution
    "super/strict_order": (None, "mountain_pass", _saddle_at(1.0)),
    # just below the branch solution: nonnegative, apart from zero and
    # ordered, but of negative energy, so no mountain-pass level
    "super/saddle_between_zero_and_branch": (None, "mountain_pass",
                                             _saddle_at(0.99)),
}


@pytest.mark.parametrize("key", list(MUTANTS))
def test_every_check_of_run_suite_fails_on_its_mutant(
        monkeypatch, grid32, kw32, sub_params, equi_params, super16, key):
    regime = key.split("/")[0]
    if regime == "super":
        params, eig, thr = super16
        # the threshold walk, solved once for the module
        monkeypatch.setattr(verify_module, "detect_threshold", lambda *args: thr)
    else:
        params = {"sub": sub_params, "equi": equi_params}[regime]
        kw = kw32 if regime == "sub" else assemble(grid32, equi_params)
        eig = principal_eigenpair(kw, SolveOptions(seed=0))
    factor, attr, make = MUTANTS[key]
    monkeypatch.setattr(verify_module, attr, make(getattr(verify_module, attr)))
    results = run_suite(params, eig, None if factor is None
                        else factor * eig.lambda1)
    verdicts = {f"{regime}/{r.name}": r.verdict for r in results}
    assert verdicts[key] == "FAIL"
    # the table leaves out no check that run_suite emits
    assert set(verdicts) <= set(MUTANTS)
