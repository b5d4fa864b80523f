from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fplogistic.solve as solve_module
from fplogistic.descent import Functional, descend
from fplogistic.domain import DomainSpec, build_grid, validate_params
from fplogistic.eigen import principal_eigenpair
from fplogistic.kernel import assemble, fold
from fplogistic.logistic import LogisticParams, phi_functional
from fplogistic.operator import (DiscreteFunction, GridMismatchError, _energy,
                                 apply_operator, mass_dot, mass_norm)
from fplogistic.solve import (CONTINUATION_FACTOR, SolveOptions, SolveReport,
                              SolverError, Status, _fiber_extrema,
                              detect_threshold, initial_values,
                              lower_bound_lambda0, minimize, mountain_pass,
                              solve_branch_point, torsion_solve,
                              upper_bound_lambda_ray)
from fplogistic.verify import SUPER_BRACKET_TOL


@pytest.fixture(scope="module")
def grid16(unit_interval):
    return build_grid(unit_interval, 16)


@pytest.fixture(scope="module")
def kw16_super(grid16, super_params):
    return assemble(grid16, super_params)


@pytest.fixture(scope="module")
def eig32(kw32):
    return principal_eigenpair(kw32, SolveOptions(seed=0))


# four cells of measure 1, the grid of _half_square and _quadratic
_GRID4 = build_grid(DomainSpec.interval(0.0, 4.0), 4)


def _on4(values) -> DiscreteFunction:
    return DiscreteFunction(values, _GRID4)


def _half_square(nan_below: float) -> Functional:
    """|u|^2 / 2, whose gradient is NaN wherever max |u| < nan_below."""
    def gradient(u):
        return np.full_like(u, np.nan) if np.abs(u).max() < nan_below else u.copy()

    return Functional(lambda u: 0.5 * float(u @ u), gradient, None, _GRID4)


def test_descend_never_converges_at_a_non_finite_residual():
    # NaN > tol is False: the stop test must not read NaN as converged
    opts = SolveOptions(residual_tol=1e-8, max_iters=100)
    with pytest.raises(SolverError, match="non-finite residual"):
        descend(_half_square(np.inf), _on4(np.ones(4)), opts)
    # the first step lands on 0, where the gradient is NaN: the descent
    # stops there, short of the cap, and says so
    with pytest.raises(SolverError, match=(
            r"^descent stopped after 1 of 100 iterations \(residual nan\)$")):
        descend(_half_square(0.5), _on4(np.ones(4)), opts)


def _quadratic(energy, clip=None) -> Functional:
    """The given energy with the gradient u of |u|^2 / 2, on _half_square's grid."""
    func = _half_square(0.0)
    return dataclasses.replace(func, energy=energy, clip=clip)


def test_descend_rejects_a_non_finite_initial_energy():
    with pytest.raises(SolverError, match="non-finite energy"):
        descend(_quadratic(lambda u: float("inf")), _on4(np.ones(4)),
                SolveOptions())


def test_descend_free_step_guard_stops_at_a_non_finite_energy():
    # 4e-7 < 1e3 residual_tol and the expected decrease is below the
    # rounding floor, so the first step is free; it lands on 0, where the
    # energy is not finite, and the guard stops the descent at the start
    u0 = np.full(4, 2e-7)
    func = _quadratic(lambda u: 0.5 * float(u @ u) if u.any() else float("inf"))
    with pytest.raises(SolverError, match=(
            r"^descent stopped after 0 of 50000 iterations "
            r"\(residual 4\.000e-07\)$")):
        descend(func, _on4(u0), SolveOptions())


@pytest.mark.parametrize("tol,status,iters", [(1e-2, Status.CONVERGED, 1),
                                              (1e-8, SolverError, 0)])
def test_descend_failed_line_search(tol, status, iters):
    # every trial point reports one unit more energy than |u|^2 / 2, so all
    # 60 backtracks fail; at residual 1 <= 1e3 tol (near a minimum) the
    # descent goes on with free steps and reaches 0, far from one it stops
    # short of the cap and says so
    u0 = np.full(4, 0.5)
    calls = []

    def energy(u):
        calls.append(u)
        return 0.5 * float(u @ u) + (0.0 if u is calls[0] else 1.0)

    def run():
        return descend(_quadratic(energy), _on4(u0),
                       SolveOptions(residual_tol=tol), "the probe")

    if status is SolverError:
        with pytest.raises(SolverError, match=(
                r"^the probe stopped after 0 of 50000 iterations "
                r"\(residual 1\.000e\+00\)$")):
            run()
    else:
        rep = run()
        assert (rep.status, rep.iterations) == (status, iters)
        assert np.array_equal(rep.u.values, np.zeros(4))
    assert len(calls) == 1 + 60 + iters


def test_descend_clipped_point_above_tolerance_raises():
    # the descent converges to 0 in one step, and the clip moves it to 1,
    # where the residual is 2
    func = _quadratic(lambda u: 0.5 * float(u @ u), clip=lambda v: v + 1.0)
    with pytest.raises(SolverError, match=(
            r"^descent stopped after 1 of 50000 iterations "
            r"\(residual 2\.000e\+00\)$")):
        descend(func, _on4(np.full(4, 0.5)), SolveOptions())


def test_answers_live_on_the_grid_of_the_weights(unit_interval, sub_params):
    # the folded weights of n = 7 have 4 cells: every answer lives on their
    # grid, and unfolds to the 7 cells of the full problem
    kw = fold(assemble(build_grid(unit_interval, 7), sub_params))
    start = DiscreteFunction(np.full(4, 1e-3), kw.grid)
    lp = LogisticParams(lam=1.0, q=1.5, r=3.0)
    func = phi_functional(kw, lp)
    assert func.grid is kw.grid and func.measures is kw.measures
    for rep in (minimize(func, start),
                solve_branch_point(1.0, start, sub_params, kw)):
        assert rep.status is Status.CONVERGED
        assert rep.u.grid is kw.grid
        assert rep.u.unfold().values.shape == (7,)


@pytest.mark.parametrize("entry", ["minimize", "warm", "u_lam"])
def test_a_start_on_another_grid_of_as_many_cells_is_rejected(
        unit_interval, sub_params, entry):
    # the folded weights of n = 7 have 4 cells, as the full n = 4 grid has;
    # a function on that grid used to be read cell by cell as one on the
    # folded grid, and its answer labelled with the grid of the weights
    kw = fold(assemble(build_grid(unit_interval, 7), sub_params))
    other = DiscreteFunction(np.full(4, 1e-3), build_grid(unit_interval, 4))
    lp = LogisticParams(lam=1.0, q=1.5, r=3.0)
    run = {
        "minimize": lambda: minimize(phi_functional(kw, lp), other),
        "warm": lambda: solve_branch_point(1.0, other, sub_params, kw),
        "u_lam": lambda: mountain_pass(1.0, sub_params, kw, other),
    }[entry]
    with pytest.raises(GridMismatchError, match="on another grid"):
        run()


def test_the_threshold_walk_takes_the_pair_of_its_weights(unit_interval):
    # the walk reads its weights and lambda1 off one pair; given the pair of
    # the s = 0.2 weights beside the s = 0.3 ones it used to return
    # lambda*_h = 6.98622 and lambda_0 = 6.87041 with no error
    grid = build_grid(unit_interval, 32)
    params = validate_params(1, 0.3, 3.0, 4.0, 5.0)
    kw = fold(assemble(grid, params))
    thr = detect_threshold(params, principal_eigenpair(kw))
    assert thr.lambda_star_h == pytest.approx(6.891244355531519, rel=1e-9)
    assert thr.lambda_0 == pytest.approx(6.77627149659275, rel=1e-9)
    other = principal_eigenpair(
        fold(assemble(grid, validate_params(1, 0.2, 3.0, 4.0, 5.0))))
    lp = LogisticParams(lam=8.0, q=4.0, r=5.0)
    for run in (lambda: solve_branch_point(8.0, None, params, kw, eigen=other),
                lambda: initial_values("eigen", kw, lp, SolveOptions(), other)):
        with pytest.raises(GridMismatchError, match="other weights"):
            run()


@pytest.mark.parametrize("solver", ["solve_branch_point", "detect_threshold",
                                    "mountain_pass"])
def test_parameters_must_have_the_exponent_of_the_weights(grid32, solver):
    # p = 3 parameters on p = 2 weights: the threshold walk used to end in
    # "threshold 9.73202 fell below the analytic bound 10.6353", an error
    # about the answer, and the other two solved the p = 2 problem
    kw = assemble(grid32, validate_params(1, 0.3, 2.0, 3.5, 4.5))
    eigen = principal_eigenpair(kw, SolveOptions(seed=0))
    params = validate_params(1, 0.3, 3.0, 3.5, 4.5)
    run = {
        "solve_branch_point": lambda: solve_branch_point(
            20.0, None, params, kw, eigen=eigen),
        "detect_threshold": lambda: detect_threshold(params, eigen),
        "mountain_pass": lambda: mountain_pass(20.0, params, kw,
                                               eigen.u1),
    }[solver]
    with pytest.raises(GridMismatchError,
                       match="assembled for p = 2.0, got p = 3.0"):
        run()


@pytest.mark.parametrize("start", ["minimize", "warm", "u_lam",
                                   "eigen_start"])
def test_functions_of_another_cell_count_are_rejected(kw32, sub_params,
                                                      eig32, start):
    # starts, warm profiles and the branch solution under the saddle come
    # from outside the weights; a wrong count is named, not a numpy error
    grid = build_grid(DomainSpec.interval(0.0, 1.0), 16)
    other = DiscreteFunction(np.full(16, 0.5), grid)
    lp = LogisticParams(lam=1.0, q=1.5, r=3.0)
    run = {
        "minimize": lambda: minimize(phi_functional(kw32, lp), other),
        "warm": lambda: solve_branch_point(1.0, other, sub_params, kw32),
        "u_lam": lambda: mountain_pass(1.0, sub_params, kw32, other),
        "eigen_start": lambda: solve_branch_point(
            1.0, None, sub_params, kw32,
            eigen=dataclasses.replace(eig32, u1=other)),
    }[start]
    with pytest.raises(GridMismatchError,
                       match=r"weights \(32 cells\), got one on another grid"
                             r" \(16 cells\)"):
        run()


def test_status_labels():
    assert Status.CONVERGED.value == "converged"
    assert Status.COLLAPSED.value == "collapsed"
    assert Status.NOT_FOUND.value == "not_found"


def test_zero_start_is_exact_critical_point(grid32, kw32):
    lp = LogisticParams(lam=1.0, q=1.5, r=3.0)
    func = phi_functional(kw32, lp)
    rep = minimize(func, DiscreteFunction(np.zeros(32), grid32))
    assert rep.iterations == 0
    assert rep.status is Status.COLLAPSED
    assert rep.u.sup_norm() == 0.0


def test_minimize_at_the_iteration_cap_raises(grid32, kw32, rng):
    lp = LogisticParams(lam=1.0, q=1.5, r=3.0)
    func = phi_functional(kw32, lp)
    u0 = DiscreteFunction(rng.uniform(0.1, 1.0, 32), grid32)
    with pytest.raises(SolverError, match=(
            r"^branch solve stopped after 1 of 1 iterations "
            r"\(residual \S+\); raise solver\.max_iters$")):
        minimize(func, u0, SolveOptions(max_iters=1), "branch solve")


def test_sub_regime_starts_agree(kw32, sub_params, eig32):
    sups = []
    for seed in range(3):
        opts = SolveOptions(seed=seed, initial="random")
        rep = solve_branch_point(1.0, None, sub_params, kw32, opts,
                                 eigen=eig32)
        assert rep.status is Status.CONVERGED
        assert rep.u.values.min() > 0.0
        sups.append(rep.u.values.copy())
    for other in sups[1:]:
        assert other == pytest.approx(sups[0], rel=1e-6, abs=1e-8)


def test_restart_from_solution_is_immediate(kw32, sub_params, eig32):
    rep = solve_branch_point(1.0, None, sub_params, kw32,
                             SolveOptions(), eigen=eig32)
    again = solve_branch_point(1.0, None, sub_params, kw32,
                               SolveOptions(initial="eigen"), eigen=eig32)
    lp = LogisticParams(lam=1.0, q=1.5, r=3.0)
    func = phi_functional(kw32, lp)
    refined = minimize(func, rep.u, SolveOptions())
    assert refined.iterations == 0
    assert refined.status is Status.CONVERGED
    assert again.u.values == pytest.approx(rep.u.values, rel=1e-6)


def test_warm_start_preserves_ordering(kw32, sub_params, eig32):
    low = solve_branch_point(1.0, None, sub_params, kw32,
                             SolveOptions(), eigen=eig32)
    high = solve_branch_point(2.0, low.u, sub_params, kw32,
                              SolveOptions(), eigen=eig32)
    assert high.status is Status.CONVERGED
    assert np.all(high.u.values >= low.u.values)
    assert high.u.sup_norm() > low.u.sup_norm()


# (dim, n, q, r, intensities): 1D just above lambda*_h = 7.543, and the 2D
# fold config just above lambda*_h = 22.39; q >= 2 takes Newton steps
NEWTON_BRANCHES = {
    "1d_n64": (1, 64, 3.0, 4.0, [7.55, 7.6, 8.0, 12.0, 24.0]),
    "2d_n8": (2, 8, 2.5, 3.2, [22.4, 22.5, 25.0, 40.0]),
}


@pytest.mark.parametrize("case", sorted(NEWTON_BRANCHES))
def test_warm_start_on_the_newton_branches(monkeypatch, case):
    dim, n, q, r, lams = NEWTON_BRANCHES[case]
    domain = (DomainSpec.interval(0.0, 1.0) if dim == 1
              else DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0))
    grid = build_grid(domain, n)
    params = validate_params(dim, 0.4, 2.0, q, r)
    kw = assemble(grid, params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    opts = SolveOptions()
    # the benchmark's sup gate: two solutions within residual_tol of the
    # exact one in the mass norm, each cell of measure h
    gate = 2.0 * opts.residual_tol / np.sqrt(grid.measures.min())
    calls = []
    minimize_ = solve_module.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return minimize_(*args, **kwargs)

    monkeypatch.setattr(solve_module, "minimize", counting)
    warm = solve_branch_point(lams[0], None, params, kw, opts, eigen=eig)
    assert warm.status is Status.CONVERGED
    for lam in lams[1:]:
        cold = solve_branch_point(lam, None, params, kw, opts, eigen=eig)
        assert cold.status is Status.CONVERGED
        before = len(calls)
        rep = solve_branch_point(lam, warm.u, params, kw, opts, eigen=eig)
        assert len(calls) - before == 1
        assert rep.status is Status.CONVERGED
        assert np.all(rep.u.values >= warm.u.values)
        assert np.abs(rep.u.values - cold.u.values).max() <= gate
        warm = rep


def test_warm_start_ordering_violation_raises(grid32, kw32, sub_params, eig32):
    huge = DiscreteFunction(np.full(32, 50.0), grid32)
    with pytest.raises(SolverError, match="ordering"):
        solve_branch_point(0.5, huge, sub_params, kw32,
                           SolveOptions(), eigen=eig32)


def test_collapse_below_linear_threshold(grid32, equi_params, eig32):
    kw = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    lam = 0.5 * eig.lambda1
    rep = solve_branch_point(lam, None, equi_params, kw,
                             SolveOptions(initial="random", seed=3), eigen=eig)
    assert rep.status is Status.COLLAPSED
    assert rep.u.sup_norm() <= 1e-6


def test_initial_values_kinds(kw32):
    lp = LogisticParams(lam=1.0, q=1.5, r=3.0)
    opts = SolveOptions(seed=5)
    r1 = initial_values("random", kw32, lp, opts).values
    r2 = initial_values("random", kw32, lp, SolveOptions(seed=5)).values
    assert np.array_equal(r1, r2)
    assert r1.min() >= 0.1 and r1.max() < 1.0
    with pytest.raises(ValueError, match="unknown"):
        initial_values("best", kw32, lp, opts)


def test_eigen_start_needs_the_eigenpair(kw32, sub_params):
    # the eigenpair is solved by the caller, once, never inside a solve
    lp = LogisticParams(lam=1.0, q=1.5, r=3.0)
    with pytest.raises(ValueError, match="eigenpair"):
        initial_values("eigen", kw32, lp, SolveOptions())
    with pytest.raises(ValueError, match="eigenpair"):
        solve_branch_point(1.0, None, sub_params, kw32, SolveOptions())


def test_eigen_start_returns_zero_without_negative_dip(grid32, equi_params):
    # below the linear threshold the energy is positive along the whole ray,
    # so the scan hands back the origin and the solve collapses cleanly
    kw = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    lp = LogisticParams(lam=0.9 * eig.lambda1, q=2.0, r=3.0)
    u0 = initial_values("eigen", kw, lp, SolveOptions(), eigen=eig)
    assert u0.grid is kw.grid
    assert np.all(u0.values == 0.0)


@pytest.mark.parametrize("k", range(-4, 5))
def test_eigen_start_at_the_eigenvalue_is_zero_to_rounding(grid64, kw64,
                                                           eig64, k):
    # at q = p and lam = lambda1 the infimum E(u) - lam ||u||_p^p along the
    # ray of u1 is zero up to rounding, so no valley may be found however
    # u1 is rounded; slightly above lambda1 the dip is real
    eps = np.finfo(float).eps
    eig = dataclasses.replace(eig64, u1=DiscreteFunction(
        eig64.u1.values * (1.0 + k * eps), grid64))
    lam1 = eig64.lambda1
    for lam, dip in ((lam1, False), ((1.0 + 1e-9) * lam1, True)):
        lp = LogisticParams(lam=lam, q=2.0, r=3.0)
        u0 = initial_values("eigen", kw64, lp, SolveOptions(),
                            eigen=eig).values
        assert bool(u0.any()) is dip


def test_eigen_start_is_the_last_valley_of_the_ray(monkeypatch, grid32, kw32,
                                                  eig32):
    # kw32 depends on s and p only, so it serves every reaction with p = 2
    # _fiber_extrema, which the eigen start calls, lives in logistic
    import fplogistic.logistic as logistic
    meas = grid32.measures
    u1 = eig32.u1.values
    energy_calls = []
    monkeypatch.setattr(logistic, "_energy", lambda *a: energy_calls.append(a)
                        or _energy(*a))
    lam1 = eig32.lambda1
    for lp in (LogisticParams(lam=1.0, q=1.5, r=3.0),
               LogisticParams(lam=1.5 * lam1, q=2.0, r=3.0),
               LogisticParams(lam=8.0, q=3.0, r=4.0),
               LogisticParams(lam=40.0, q=3.0, r=4.0)):
        energy_calls.clear()
        u0 = initial_values("eigen", kw32, lp, SolveOptions(),
                            eigen=eig32).values
        assert len(energy_calls) <= 1
        t = u0.max() / u1.max()
        assert t > 0.0
        assert u0 == pytest.approx(t * u1, rel=1e-14, abs=0.0)
        phi = phi_functional(kw32, lp)

        def slope(tau):
            # d/dtau Phi(tau u1), and the size of its largest term
            scale = tau * _energy(u1, kw32) + lp.lam * tau ** (lp.q - 1.0)
            return mass_dot(phi.gradient(tau * u1), u1, meas), scale

        d, scale = slope(t)
        assert abs(d) <= 1e-12 * scale
        assert slope((1.0 - 1e-4) * t)[0] < 0.0 < slope((1.0 + 1e-4) * t)[0]


def test_lower_bound_closed_form(super_params):
    # p = 2, q = 3, r = 4 gives min_t [lambda1 / t + t] = 2 sqrt(lambda1)
    assert lower_bound_lambda0(super_params, 25.0) == pytest.approx(10.0,
                                                                    rel=1e-14)
    assert lower_bound_lambda0(super_params, 4.0) == pytest.approx(4.0,
                                                                   rel=1e-14)


def test_lower_bound_rejects_bad_inputs(sub_params, super_params):
    with pytest.raises(ValueError, match="q > p"):
        lower_bound_lambda0(sub_params, 10.0)
    with pytest.raises(ValueError, match="lambda1"):
        lower_bound_lambda0(super_params, 0.0)


def test_detect_threshold_invariants(kw16_super, super_params):
    eig = principal_eigenpair(kw16_super, SolveOptions(seed=0))
    report = detect_threshold(super_params, eig,
                              SolveOptions(), bracket_tol=1e-2)
    assert report.lambda_star_h >= report.lambda_0
    assert 0.0 < report.bracket_width <= 1e-2
    lams = [pt.lam for pt in report.branch]
    assert lams == sorted(lams)
    assert all(pt.status == "converged" for pt in report.branch)
    sups = [pt.sup_norm for pt in report.branch]
    assert all(b < a for a, b in zip(sups[::-1], sups[::-1][1:]))
    assert report.u_star.values.min() > 0.0
    assert report.branch[0].lam == pytest.approx(report.lambda_star_h)


@settings(max_examples=20, deadline=None)
@given(s=st.floats(0.25, 0.45), data=st.data(), n=st.integers(8, 16))
def test_threshold_invariants_for_random_parameters(unit_interval, s, data, n):
    # p = 2 < q < r < p* = 2 / (1 - 2s), so every draw is superdiffusive.
    # q down to 2.05 reaches the flat folds next to q = p, where steps in
    # the fixed metric K stalled or left the basin.  The draws leave out
    # large q or r - q < 1, where the reaction at the solutions, about
    # lam^((r-1)/(r-q)), is so large that its rounding exceeds the absolute
    # residual tolerance
    p_star = 2.0 / (1.0 - 2.0 * s)
    q = data.draw(st.floats(2.05, min(p_star - 1.5, 4.0)), label="q")
    r = data.draw(st.floats(q + 1.0, min(q + 3.0, p_star - 0.05)), label="r")
    params = validate_params(1, s, 2.0, q, r)
    grid = build_grid(unit_interval, n)
    kw = assemble(grid, params)
    rep = detect_threshold(params, principal_eigenpair(kw, SolveOptions(seed=0)),
                           SolveOptions(), bracket_tol=1e-2)
    assert rep.lambda_star_h >= rep.lambda_0
    lams = [b.lam for b in rep.branch]
    sups = [b.sup_norm for b in rep.branch]
    assert lams[0] == rep.lambda_star_h
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert all(a < b for a, b in zip(sups, sups[1:]))


def test_threshold_probe_iteration_cap_raises(kw16_super,
                                              super_params):
    eig = principal_eigenpair(kw16_super, SolveOptions(seed=0))
    with pytest.raises(SolverError, match="max_iters"):
        detect_threshold(super_params, eig,
                         SolveOptions(max_iters=3), bracket_tol=1e-2)


@pytest.mark.parametrize("iterations, message", [
    (633, r"stopped after 633 of 50000 iterations \(residual 3\.790e\+02\)"),
    pytest.param(50_000, r"stopped after 50000 of 50000 iterations "
                 r"\(residual 3\.790e\+02\); raise solver\.max_iters",
                 id="50000-at the cap"),
])
def test_threshold_probe_failure_names_where_it_stopped(
        monkeypatch, kw16_super, super_params, iterations, message):
    # a descent that gives up early is not one that ran out of iterations.
    # The stand-in energy is linear, of mass gradient 379 (norm 379 on the
    # 16 cells of measure 1/16), so every step is accepted, until the energy
    # turns infinite after the given number of iterations and every
    # backtrack fails
    eig = principal_eigenpair(kw16_super, SolveOptions(seed=0))
    calls = []

    def energy(v):
        calls.append(None)
        finite = len(calls) <= iterations + 1
        return 379.0 * float(v @ kw16_super.measures) if finite else np.inf

    def linear(kw, lp):
        return Functional(energy, lambda v: np.full_like(v, 379.0), None,
                          kw.grid)

    monkeypatch.setattr(solve_module, "phi_functional", linear)
    with pytest.raises(SolverError, match=message) as raised:
        detect_threshold(super_params, eig, SolveOptions(),
                         bracket_tol=1e-2)
    # only a descent stopped by the cap asks for a larger one
    assert str(raised.value).endswith("raise solver.max_iters") == (
        iterations == 50_000)


@pytest.mark.parametrize("n", [64, 256])
def test_newton_probes_take_few_iterations(monkeypatch, unit_interval,
                                           super_params, n):
    # inexact Newton steps on the full Hessian take about 6.5 iterations per
    # converging probe here at both n, and at most 20 on a collapsing one,
    # where the Hessian is indefinite; steps in the fixed metric K take 50
    # per converging probe, and up to 145
    probes = []

    def recorded(func, u0, opts, what):
        rep = minimize(func, u0, opts, what)
        probes.append(rep)
        return rep

    monkeypatch.setattr(solve_module, "minimize", recorded)
    grid = build_grid(unit_interval, n)
    kw = assemble(grid, super_params)
    detect_threshold(super_params, principal_eigenpair(kw, SolveOptions(seed=0)),
                     SolveOptions(), bracket_tol=1e-2)
    converged = [r.iterations for r in probes if r.status is Status.CONVERGED]
    assert converged
    assert sum(converged) / len(converged) <= 12.0
    assert max(r.iterations for r in probes) <= 30


def test_threshold_below_analytic_bound_raises(kw16_super,
                                               super_params):
    # an inflated lambda1 lifts lambda0 above the true threshold, so the walk
    # meets a solvable probe below the bound and stops there
    eig = principal_eigenpair(kw16_super, SolveOptions(seed=0))
    inflated = dataclasses.replace(eig, lambda1=2.0 * eig.lambda1)
    with pytest.raises(SolverError, match="analytic bound"):
        detect_threshold(super_params, inflated, SolveOptions(),
                         bracket_tol=1e-2)


def _recorded_probes(monkeypatch, minimize=None):
    """The lam of every threshold probe, in order; minimize stands in if given."""
    lams = []
    phi = solve_module.phi_functional

    def recording_phi(kw, lp):
        lams.append(lp.lam)
        return phi(kw, lp)

    monkeypatch.setattr(solve_module, "phi_functional", recording_phi)
    if minimize is not None:
        monkeypatch.setattr(solve_module, "minimize", minimize)
    return lams


@pytest.mark.parametrize("status, energy", [
    (Status.COLLAPSED, -1.0), (Status.CONVERGED, 0.0)],
    ids=["collapsed", "energy_zero"])
def test_a_certified_probe_that_finds_no_solution_names_lambda_ray(
        monkeypatch, kw16_super, super_params, status, energy):
    # above lambda_ray the ray of u1 reaches negative energy, so a first
    # probe there that collapses, or ends at energy >= 0, is a solver fault
    eig = principal_eigenpair(kw16_super, SolveOptions(seed=0))
    lam_ray = upper_bound_lambda_ray(super_params, eig)

    def probe(func, u0, opts, what):
        return SolveReport(u0, energy, 0.0, 1, status)

    lams = _recorded_probes(monkeypatch, probe)
    with pytest.raises(SolverError) as raised:
        detect_threshold(super_params, eig, SolveOptions(), bracket_tol=1e-2)
    assert len(lams) == 1
    assert lam_ray < lams[0] and CONTINUATION_FACTOR * lams[0] <= lam_ray
    assert str(raised.value) == (
        f"the threshold probe at lam = {lams[0]:.6g}, above the ray bound "
        f"lambda_ray = {lam_ray:.6g}, found no solution of negative energy")


def _grid_points_above(lam0: float, lam_ray: float) -> list[float]:
    """The points of the 0.9 grid from 4 lam0 down to the last above lam_ray."""
    points = [4.0 * lam0]
    while CONTINUATION_FACTOR * points[-1] > lam_ray:
        points.append(CONTINUATION_FACTOR * points[-1])
    return points


def test_the_walk_solves_one_probe_above_lambda_ray(monkeypatch, grid64,
                                                    super_params):
    # the verify_1d super bundle: the walk used to solve 21 probes, 12 of
    # them above lambda_ray = 7.98, where a solution is certified
    eig = principal_eigenpair(fold(assemble(grid64, super_params)))
    lam0 = lower_bound_lambda0(super_params, eig.lambda1)
    lam_ray = upper_bound_lambda_ray(super_params, eig)
    lams = _recorded_probes(monkeypatch)
    report = detect_threshold(super_params, eig, SolveOptions(),
                              SUPER_BRACKET_TOL)
    assert sum(lam > lam_ray for lam in lams) == 1
    assert len(lams) <= 9
    # the first probe is the grid point a walk from 4 lam0 would reach
    assert lams[0] == _grid_points_above(lam0, lam_ray)[-1]
    assert report.lambda_0 == lam0 and report.lambda_ray == lam_ray
    assert report.branch[-1].lam == lams[0] and report.branch[-1].energy < 0.0


@pytest.mark.parametrize("params", [(1, 0.4, 2.0, 3.0, 4.0),
                                    (1, 0.3, 3.0, 4.0, 5.0)],
                         ids=["super", "p3"])
def test_the_ray_bound_is_sharp(grid32, params):
    # the valley of Phi along the ray of u1 is negative just above
    # lambda_ray and not below it
    params = validate_params(*params)
    kw = fold(assemble(grid32, params))
    eig = principal_eigenpair(kw)
    lam_ray = upper_bound_lambda_ray(params, eig)
    assert lower_bound_lambda0(params, eig.lambda1) < lam_ray
    u1 = eig.u1.values
    for factor, negative in [(1.0 + 1e-9, True), (1.0 - 1e-9, False)]:
        lp = LogisticParams(lam=factor * lam_ray, q=params.q, r=params.r)
        valley = _fiber_extrema(u1, kw, lp)[1]
        assert (phi_functional(kw, lp).energy(valley * u1) < 0.0) is negative


def test_the_ray_bound_needs_q_above_p(kw32, eig32, sub_params):
    with pytest.raises(ValueError, match="q > p"):
        upper_bound_lambda_ray(sub_params, eig32)


# lambda*_h and bracket_width of the walk that solved every probe from
# 4 lambda0 down: the certified start leaves them bit-identical
@pytest.mark.parametrize("dim, n, params, tol, lambda_star_h, width", [
    (1, 64, (0.4, 2.0, 3.0, 4.0), 1e-2, 7.54329029363438, 0.00653664670158971),
    (1, 64, (0.4, 2.0, 3.0, 4.0), 1e-3,
     7.542473212796681, 0.0008170808376988248),
    (2, 8, (0.4, 2.0, 2.5, 3.2), 1e-2,
     22.388474722173136, 0.009713004217864807),
    (2, 8, (0.4, 2.0, 2.5, 3.2), 1e-3,
     22.383618220064204, 0.0006070627636169945),
    (1, 32, (0.3, 3.0, 4.0, 5.0), 1e-3,
     6.891244355531519, 0.0007475856319736351),
    (1, 64, (0.3, 3.0, 4.0, 5.0), 1e-3,
     6.795064087514965, 0.0007369118411792996),
], ids=["super-n64-1e-2", "super-n64-1e-3", "2d-n8-1e-2", "2d-n8-1e-3",
        "p3-n32", "p3-n64"])
def test_the_certified_start_keeps_the_threshold_bits(
        unit_interval, unit_square, dim, n, params, tol, lambda_star_h, width):
    params = validate_params(dim, *params)
    domain = unit_interval if dim == 1 else unit_square
    eig = principal_eigenpair(fold(assemble(build_grid(domain, n), params)))
    report = detect_threshold(params, eig, SolveOptions(), bracket_tol=tol)
    assert (report.lambda_star_h, report.bracket_width) == (lambda_star_h,
                                                             width)
    assert report.lambda_0 <= report.lambda_star_h <= report.lambda_ray


@pytest.fixture(scope="module")
def super_branch16(kw16_super, super_params):
    """Intensity 1.5 lambda*_h and the branch solution there, on grid16."""
    eig = principal_eigenpair(kw16_super, SolveOptions(seed=0))
    report = detect_threshold(super_params, eig,
                              SolveOptions(), bracket_tol=1e-2)
    lam = 1.5 * report.lambda_star_h
    big = solve_branch_point(lam, report.u_star, super_params, kw16_super,
                             SolveOptions(), eigen=eig)
    return lam, big


def test_mountain_pass_finds_saddle(grid16, kw16_super, super_params,
                                    super_branch16):
    lam, big = super_branch16
    rep = mountain_pass(lam, super_params, kw16_super, big.u,
                        SolveOptions())
    assert rep.status is Status.CONVERGED
    v = rep.u.values
    assert 0.0 < rep.u.sup_norm() < big.u.sup_norm()
    assert np.all(v >= 0.0)
    assert np.all(v <= big.u.values + 1e-12)
    _assert_mountain_pass_level(rep, big, super_params, kw16_super, grid16, lam)


def test_mountain_pass_iteration_cap(kw16_super, super_params,
                                     super_branch16):
    # a search stopped by the cap is an error that names it
    lam, big = super_branch16
    with pytest.raises(SolverError, match=(
            rf"^saddle search at lam = {lam:.6g} stopped after 5 of 5 "
            r"iterations \(residual \S+\); raise solver\.max_iters$")):
        mountain_pass(lam, super_params, kw16_super, big.u,
                      SolveOptions(max_iters=5))


@pytest.mark.parametrize("end", ["zero", "u_lam"])
def test_mountain_pass_converged_next_to_an_end_is_not_found(
        monkeypatch, kw16_super, super_params, super_branch16, end):
    # a search that converges within DISTINCT_TOL of zero or of u_lam has
    # found no second solution
    lam, big = super_branch16
    half = 0.5 * solve_module.DISTINCT_TOL
    point = {"zero": np.full(big.u.values.size, half),
             "u_lam": big.u.values - half}[end]
    monkeypatch.setattr(solve_module, "descend", lambda func, u0, opts, what: (
        SolveReport(DiscreteFunction(point, u0.grid), 1.0, 0.0, 3,
                    Status.CONVERGED)))
    rep = mountain_pass(lam, super_params, kw16_super, big.u, SolveOptions())
    assert (rep.status, rep.iterations) == (Status.NOT_FOUND, 3)
    assert np.array_equal(rep.u.values, point)


def _assert_mountain_pass_level(rep, big, params, kw, grid, lam):
    # the mountain-pass level lies above both ends of the segment
    lp = LogisticParams(lam=lam, q=params.q, r=params.r)
    phi = phi_functional(kw, lp).energy
    assert rep.energy == pytest.approx(phi(rep.u.values), rel=1e-14)
    assert rep.energy > max(phi(np.zeros(grid.ncells)), phi(big.u.values))


def test_mountain_pass_finds_saddle_2d(grid2d, kw2d):
    # weights depend on s and p only, so the sublinear kw2d serves here
    params = validate_params(2, 0.4, 2.0, 2.5, 3.2)
    lam = 40.0
    big = solve_branch_point(lam, None, params, kw2d, SolveOptions(),
                             eigen=principal_eigenpair(kw2d,
                                                       SolveOptions(seed=0)))
    assert big.status is Status.CONVERGED
    rep = mountain_pass(lam, params, kw2d, big.u, SolveOptions())
    assert rep.status is Status.CONVERGED
    v = rep.u.values
    assert 0.0 < v.min() and rep.u.sup_norm() < big.u.sup_norm()
    assert np.all(v <= big.u.values + 1e-12)
    _assert_mountain_pass_level(rep, big, params, kw2d, grid2d, lam)


def test_mountain_pass_not_found_without_barrier(kw32, sub_params,
                                                 eig32):
    # in the sublinear regime zero is not a separated local minimum: the
    # ray through the solution has no energy peak before it
    rep = solve_branch_point(1.0, None, sub_params, kw32,
                             SolveOptions(), eigen=eig32)
    mp = mountain_pass(1.0, sub_params, kw32, rep.u, SolveOptions())
    assert mp.status is Status.NOT_FOUND


def test_torsion_solve(grid32, kw32):
    rep = torsion_solve(kw32, SolveOptions())
    assert rep.status is Status.CONVERGED
    assert rep.u.values.min() > 0.0
    lu = apply_operator(rep.u, kw32, 2.0)
    assert mass_norm(lu.values - 1.0, grid32.measures) <= 1e-6


def test_torsion_solve_raises_on_cap(kw32):
    with pytest.raises(SolverError, match="torsion"):
        torsion_solve(kw32, SolveOptions(max_iters=0))


def test_torsion_solve_p2_is_one_newton_step(kw32):
    # L u = 1 is linear for p = 2, so a step in the metric of K solves it
    rep = torsion_solve(kw32, SolveOptions())
    assert rep.status is Status.CONVERGED
    assert rep.iterations <= 2


def test_logistic_iterations_do_not_grow_with_the_mesh(unit_interval,
                                                       sub_params):
    # steps in the metric of K do not depend on the condition number of
    # the discrete operator, which grows with n; in the mass metric this
    # solve takes 129 and 245 iterations
    iterations = []
    for n in (64, 256):
        grid = build_grid(unit_interval, n)
        kw = assemble(grid, sub_params)
        rep = solve_branch_point(20.0, None, sub_params, kw,
                                 eigen=principal_eigenpair(
                                     kw, SolveOptions(seed=0)))
        assert rep.status is Status.CONVERGED
        iterations.append(rep.iterations)
    assert max(iterations) < 1.5 * min(iterations)


def test_fiber_peak_is_the_first_critical_point_of_the_ray(grid32, kw32, rng):
    # kw32 depends on s and p only, so it serves the superlinear reaction
    lp = LogisticParams(lam=40.0, q=3.0, r=4.0)
    phi = phi_functional(kw32, lp)
    meas = grid32.measures
    v = rng.uniform(0.1, 1.0, grid32.ncells)
    t = _fiber_extrema(v, kw32, lp)[0]
    assert 0.0 < t
    u = t * v
    assert abs(mass_dot(phi.gradient(u), u, meas)) <= 1e-12 * _energy(u, kw32)
    assert phi.energy(u) >= phi.energy((1.0 + 1e-3) * u)
    assert phi.energy(u) >= phi.energy((1.0 - 1e-3) * u)
    # no peak when the reaction does not outgrow the diffusion, or when
    # the intensity is too weak for the energy to turn down along the ray
    assert np.isnan(_fiber_extrema(v, kw32, LogisticParams(
        lam=40.0, q=1.5, r=3.0))[0])
    assert np.isnan(_fiber_extrema(v, kw32, LogisticParams(
        lam=1.0, q=3.0, r=4.0))[0])


def test_mountain_pass_barrier_near_zero(grid64):
    # the barrier lies at t = 0.0072 along the ray through the branch
    # solution, below any fixed sampling of the segment from zero to it
    params = validate_params(1, 0.3, 3.0, 4.0, 5.0)
    kw = assemble(grid64, params)
    lam = 60.0
    big = solve_branch_point(lam, None, params, kw, SolveOptions(),
                             eigen=principal_eigenpair(kw,
                                                       SolveOptions(seed=0)))
    assert big.status is Status.CONVERGED
    rep = mountain_pass(lam, params, kw, big.u, SolveOptions())
    assert rep.status is Status.CONVERGED
    v = rep.u.values
    assert 0.0 < rep.u.sup_norm() and np.all(v >= 0.0)
    assert np.all(v <= big.u.values)
    _assert_mountain_pass_level(rep, big, params, kw, grid64, lam)
