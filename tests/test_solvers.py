from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fplogistic.solve as solve_module
from fplogistic.domain import DomainSpec, build_grid, validate_params
from fplogistic.eigen import EigenOptions, principal_eigenpair
from fplogistic.kernel import assemble
from fplogistic.logistic import LogisticParams, phi_functional
from fplogistic.operator import (DiscreteFunction, _energy, apply_operator,
                                 mass_dot, mass_norm)
from fplogistic.solve import (SolveOptions, SolveReport, SolverError, Status,
                              _fiber_extrema, detect_threshold, initial_values,
                              lower_bound_lambda0, minimize, mountain_pass,
                              solve_branch_point, torsion_solve)


@pytest.fixture(scope="module")
def grid16(unit_interval):
    return build_grid(unit_interval, 16)


@pytest.fixture(scope="module")
def kw16_super(grid16, super_params):
    return assemble(grid16, super_params)


@pytest.fixture(scope="module")
def eig32(kw32, grid32):
    return principal_eigenpair(kw32, grid32, 2.0, EigenOptions(seed=0))


def test_status_labels():
    assert Status.CONVERGED.value == "converged"
    assert Status.COLLAPSED.value == "collapsed"
    assert Status.MAX_ITERS.value == "max_iters"
    assert Status.NOT_FOUND.value == "not_found"


def test_zero_start_is_exact_critical_point(grid32, kw32):
    lp = LogisticParams(lam=1.0, p=2.0, q=1.5, r=3.0)
    func = phi_functional(kw32, grid32, lp)
    rep = minimize(func, DiscreteFunction(np.zeros(32), grid32))
    assert rep.iterations == 0
    assert rep.status is Status.COLLAPSED
    assert rep.u.sup_norm() == 0.0


def test_max_iters_status(grid32, kw32, rng):
    lp = LogisticParams(lam=1.0, p=2.0, q=1.5, r=3.0)
    func = phi_functional(kw32, grid32, lp)
    u0 = DiscreteFunction(rng.uniform(0.1, 1.0, 32), grid32)
    rep = minimize(func, u0, SolveOptions(max_iters=1))
    assert rep.status is Status.MAX_ITERS
    assert rep.iterations == 1


def test_sub_regime_starts_agree(grid32, kw32, sub_params, eig32):
    sups = []
    for seed in range(3):
        opts = SolveOptions(seed=seed, initial="random")
        rep = solve_branch_point(1.0, None, sub_params, kw32, grid32, opts,
                                 eigen=eig32)
        assert rep.status is Status.CONVERGED
        assert rep.u.values.min() > 0.0
        sups.append(rep.u.values.copy())
    for other in sups[1:]:
        assert other == pytest.approx(sups[0], rel=1e-6, abs=1e-8)


def test_restart_from_solution_is_immediate(grid32, kw32, sub_params, eig32):
    rep = solve_branch_point(1.0, None, sub_params, kw32, grid32,
                             SolveOptions(), eigen=eig32)
    again = solve_branch_point(1.0, None, sub_params, kw32, grid32,
                               SolveOptions(initial="eigen"), eigen=eig32)
    lp = LogisticParams(lam=1.0, p=2.0, q=1.5, r=3.0)
    func = phi_functional(kw32, grid32, lp)
    refined = minimize(func, rep.u, SolveOptions())
    assert refined.iterations == 0
    assert refined.status is Status.CONVERGED
    assert again.u.values == pytest.approx(rep.u.values, rel=1e-6)


def test_warm_start_preserves_ordering(grid32, kw32, sub_params, eig32):
    low = solve_branch_point(1.0, None, sub_params, kw32, grid32,
                             SolveOptions(), eigen=eig32)
    high = solve_branch_point(2.0, low.u, sub_params, kw32, grid32,
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
    eig = principal_eigenpair(kw, grid, 2.0, EigenOptions(seed=0))
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
    warm = solve_branch_point(lams[0], None, params, kw, grid, opts, eigen=eig)
    assert warm.status is Status.CONVERGED
    for lam in lams[1:]:
        cold = solve_branch_point(lam, None, params, kw, grid, opts, eigen=eig)
        assert cold.status is Status.CONVERGED
        before = len(calls)
        rep = solve_branch_point(lam, warm.u, params, kw, grid, opts, eigen=eig)
        assert len(calls) - before == 1
        assert rep.status is Status.CONVERGED
        assert np.all(rep.u.values >= warm.u.values)
        assert np.abs(rep.u.values - cold.u.values).max() <= gate
        warm = rep


def test_warm_start_ordering_violation_raises(grid32, kw32, sub_params, eig32):
    huge = DiscreteFunction(np.full(32, 50.0), grid32)
    with pytest.raises(SolverError, match="ordering"):
        solve_branch_point(0.5, huge, sub_params, kw32, grid32,
                           SolveOptions(), eigen=eig32)


def test_collapse_below_linear_threshold(grid32, equi_params, eig32):
    kw = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw, grid32, 2.0, EigenOptions(seed=0))
    lam = 0.5 * eig.lambda1
    rep = solve_branch_point(lam, None, equi_params, kw, grid32,
                             SolveOptions(initial="random", seed=3), eigen=eig)
    assert rep.status is Status.COLLAPSED
    assert rep.u.sup_norm() <= 1e-6


def test_initial_values_kinds(grid32, kw32):
    lp = LogisticParams(lam=1.0, p=2.0, q=1.5, r=3.0)
    opts = SolveOptions(seed=5)
    r1 = initial_values("random", grid32, kw32, lp, opts)
    r2 = initial_values("random", grid32, kw32, lp, SolveOptions(seed=5))
    assert np.array_equal(r1, r2)
    assert r1.min() >= 0.1 and r1.max() < 1.0
    with pytest.raises(ValueError, match="unknown"):
        initial_values("best", grid32, kw32, lp, opts)


def test_eigen_start_returns_zero_without_negative_dip(grid32, equi_params):
    # below the linear threshold the energy is positive along the whole ray,
    # so the scan hands back the origin and the solve collapses cleanly
    kw = assemble(grid32, equi_params)
    eig = principal_eigenpair(kw, grid32, 2.0, EigenOptions(seed=0))
    lp = LogisticParams(lam=0.9 * eig.lambda1, p=2.0, q=2.0, r=3.0)
    u0 = initial_values("eigen", grid32, kw, lp, SolveOptions(), eigen=eig)
    assert np.all(u0 == 0.0)


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
        lp = LogisticParams(lam=lam, p=2.0, q=2.0, r=3.0)
        u0 = initial_values("eigen", grid64, kw64, lp, SolveOptions(),
                            eigen=eig)
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
    for lp in (LogisticParams(lam=1.0, p=2.0, q=1.5, r=3.0),
               LogisticParams(lam=1.5 * lam1, p=2.0, q=2.0, r=3.0),
               LogisticParams(lam=8.0, p=2.0, q=3.0, r=4.0),
               LogisticParams(lam=40.0, p=2.0, q=3.0, r=4.0)):
        energy_calls.clear()
        u0 = initial_values("eigen", grid32, kw32, lp, SolveOptions(),
                            eigen=eig32)
        assert len(energy_calls) <= 1
        t = u0.max() / u1.max()
        assert t > 0.0
        assert u0 == pytest.approx(t * u1, rel=1e-14, abs=0.0)
        phi = phi_functional(kw32, grid32, lp)

        def slope(tau):
            # d/dtau Phi(tau u1), and the size of its largest term
            scale = tau * _energy(u1, kw32, 2.0) + lp.lam * tau ** (lp.q - 1.0)
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


def test_detect_threshold_invariants(grid16, kw16_super, super_params):
    report = detect_threshold(super_params, kw16_super, grid16,
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
    rep = detect_threshold(params, assemble(grid, params), grid,
                           SolveOptions(), bracket_tol=1e-2)
    assert rep.lambda_star_h >= rep.lambda_0
    lams = [b.lam for b in rep.branch]
    sups = [b.sup_norm for b in rep.branch]
    assert lams[0] == rep.lambda_star_h
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert all(a < b for a, b in zip(sups, sups[1:]))


def test_threshold_probe_iteration_cap_raises(grid16, kw16_super,
                                              super_params):
    eig = principal_eigenpair(kw16_super, grid16, 2.0, EigenOptions(seed=0))
    with pytest.raises(SolverError, match="max_iters"):
        detect_threshold(super_params, kw16_super, grid16,
                         SolveOptions(max_iters=3), bracket_tol=1e-2,
                         eigen=eig)


@pytest.mark.parametrize("iterations, message", [
    (633, r"stopped after 633 of 50000 iterations \(residual 3\.790e\+02\)"),
    (50_000,
     r"hit the iteration cap \(residual 3\.790e\+02\); raise max_iters"),
])
def test_threshold_probe_failure_names_where_it_stopped(
        monkeypatch, grid16, kw16_super, super_params, iterations, message):
    # a descent that gives up early is not one that ran out of iterations
    eig = principal_eigenpair(kw16_super, grid16, 2.0, EigenOptions(seed=0))

    def stopped(func, u0, opts=None):
        return SolveReport(u=u0, energy=0.0, residual=379.0,
                           iterations=iterations, status=Status.MAX_ITERS)

    monkeypatch.setattr(solve_module, "minimize", stopped)
    with pytest.raises(SolverError, match=message):
        detect_threshold(super_params, kw16_super, grid16, SolveOptions(),
                         bracket_tol=1e-2, eigen=eig)


@pytest.mark.parametrize("n", [64, 256])
def test_newton_probes_take_few_iterations(monkeypatch, unit_interval,
                                           super_params, n):
    # inexact Newton steps on the full Hessian take about 6.5 iterations per
    # converging probe here at both n, and at most 20 on a collapsing one,
    # where the Hessian is indefinite; steps in the fixed metric K take 50
    # per converging probe, and up to 145
    probes = []

    def recorded(func, u0, opts=None):
        rep = minimize(func, u0, opts)
        probes.append(rep)
        return rep

    monkeypatch.setattr(solve_module, "minimize", recorded)
    grid = build_grid(unit_interval, n)
    detect_threshold(super_params, assemble(grid, super_params), grid,
                     SolveOptions(), bracket_tol=1e-2)
    converged = [r.iterations for r in probes if r.status is Status.CONVERGED]
    assert converged
    assert sum(converged) / len(converged) <= 12.0
    assert max(r.iterations for r in probes) <= 30


def test_detect_threshold_accepts_explicit_start(grid16, kw16_super,
                                                 super_params):
    eig = principal_eigenpair(kw16_super, grid16, 2.0, EigenOptions(seed=0))
    lam0 = lower_bound_lambda0(super_params, eig.lambda1)
    report = detect_threshold(super_params, kw16_super, grid16,
                              SolveOptions(), bracket_tol=5e-2,
                              lambda_high=3.0 * lam0, eigen=eig)
    assert report.lambda_star_h >= lam0
    with pytest.raises(SolverError, match="collapsed"):
        detect_threshold(super_params, kw16_super, grid16, SolveOptions(),
                         lambda_high=0.5 * lam0, eigen=eig)


def test_threshold_below_analytic_bound_raises(grid16, kw16_super,
                                               super_params):
    # an inflated lambda1 lifts lambda0 above the true threshold, so the walk
    # meets a solvable probe below the bound and stops there
    eig = principal_eigenpair(kw16_super, grid16, 2.0, EigenOptions(seed=0))
    inflated = dataclasses.replace(eig, lambda1=2.0 * eig.lambda1)
    with pytest.raises(SolverError, match="analytic bound"):
        detect_threshold(super_params, kw16_super, grid16, SolveOptions(),
                         bracket_tol=1e-2, eigen=inflated)


@pytest.fixture(scope="module")
def super_branch16(grid16, kw16_super, super_params):
    """Intensity 1.5 lambda*_h and the branch solution there, on grid16."""
    eig = principal_eigenpair(kw16_super, grid16, 2.0, EigenOptions(seed=0))
    report = detect_threshold(super_params, kw16_super, grid16,
                              SolveOptions(), bracket_tol=1e-2, eigen=eig)
    lam = 1.5 * report.lambda_star_h
    big = solve_branch_point(lam, report.u_star, super_params, kw16_super,
                             grid16, SolveOptions(), eigen=eig)
    return lam, big


def test_mountain_pass_finds_saddle(grid16, kw16_super, super_params,
                                    super_branch16):
    lam, big = super_branch16
    rep = mountain_pass(lam, super_params, kw16_super, grid16, big.u,
                        SolveOptions())
    assert rep.status is Status.CONVERGED
    v = rep.u.values
    assert 0.0 < rep.u.sup_norm() < big.u.sup_norm()
    assert np.all(v >= 0.0)
    assert np.all(v <= big.u.values + 1e-12)
    _assert_mountain_pass_level(rep, big, super_params, kw16_super, grid16, lam)


def test_mountain_pass_iteration_cap(grid16, kw16_super, super_params,
                                     super_branch16):
    # the search stops at the cap and hands back its best iterate, clipped
    lam, big = super_branch16
    opts = SolveOptions(max_iters=5)
    rep = mountain_pass(lam, super_params, kw16_super, grid16, big.u, opts)
    assert rep.status is Status.MAX_ITERS
    assert rep.iterations == 5
    assert rep.residual > opts.residual_tol
    assert np.all(rep.u.values >= 0.0)
    assert np.all(rep.u.values <= big.u.values)


def _assert_mountain_pass_level(rep, big, params, kw, grid, lam):
    # the mountain-pass level lies above both ends of the segment
    lp = LogisticParams(lam=lam, p=params.p, q=params.q, r=params.r)
    phi = phi_functional(kw, grid, lp).energy
    assert rep.energy == pytest.approx(phi(rep.u.values), rel=1e-14)
    assert rep.energy > max(phi(np.zeros(grid.ncells)), phi(big.u.values))


def test_mountain_pass_finds_saddle_2d(grid2d, kw2d):
    # weights depend on s and p only, so the sublinear kw2d serves here
    params = validate_params(2, 0.4, 2.0, 2.5, 3.2)
    lam = 40.0
    big = solve_branch_point(lam, None, params, kw2d, grid2d, SolveOptions())
    assert big.status is Status.CONVERGED
    rep = mountain_pass(lam, params, kw2d, grid2d, big.u, SolveOptions())
    assert rep.status is Status.CONVERGED
    v = rep.u.values
    assert 0.0 < v.min() and rep.u.sup_norm() < big.u.sup_norm()
    assert np.all(v <= big.u.values + 1e-12)
    _assert_mountain_pass_level(rep, big, params, kw2d, grid2d, lam)


def test_mountain_pass_not_found_without_barrier(grid32, kw32, sub_params,
                                                 eig32):
    # in the sublinear regime zero is not a separated local minimum: the
    # ray through the solution has no energy peak before it
    rep = solve_branch_point(1.0, None, sub_params, kw32, grid32,
                             SolveOptions(), eigen=eig32)
    mp = mountain_pass(1.0, sub_params, kw32, grid32, rep.u, SolveOptions())
    assert mp.status is Status.NOT_FOUND


def test_torsion_solve(grid32, kw32):
    rep = torsion_solve(kw32, grid32, 2.0, SolveOptions())
    assert rep.status is Status.CONVERGED
    assert rep.u.values.min() > 0.0
    lu = apply_operator(rep.u, kw32, 2.0)
    assert mass_norm(lu.values - 1.0, grid32.measures) <= 1e-6


def test_torsion_solve_raises_on_cap(grid32, kw32):
    with pytest.raises(SolverError, match="torsion"):
        torsion_solve(kw32, grid32, 2.0, SolveOptions(max_iters=0))


def test_torsion_solve_p2_is_one_newton_step(grid32, kw32):
    # L u = 1 is linear for p = 2, so a step in the metric of K solves it
    rep = torsion_solve(kw32, grid32, 2.0, SolveOptions())
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
        rep = solve_branch_point(20.0, None, sub_params,
                                 assemble(grid, sub_params), grid)
        assert rep.status is Status.CONVERGED
        iterations.append(rep.iterations)
    assert max(iterations) < 1.5 * min(iterations)


def test_fiber_peak_is_the_first_critical_point_of_the_ray(grid32, kw32, rng):
    # kw32 depends on s and p only, so it serves the superlinear reaction
    lp = LogisticParams(lam=40.0, p=2.0, q=3.0, r=4.0)
    phi = phi_functional(kw32, grid32, lp)
    meas = grid32.measures
    v = rng.uniform(0.1, 1.0, grid32.ncells)
    t = _fiber_extrema(v, kw32, lp, meas)[0]
    assert 0.0 < t
    u = t * v
    assert abs(mass_dot(phi.gradient(u), u, meas)) <= 1e-12 * _energy(u, kw32, 2.0)
    assert phi.energy(u) >= phi.energy((1.0 + 1e-3) * u)
    assert phi.energy(u) >= phi.energy((1.0 - 1e-3) * u)
    # no peak when the reaction does not outgrow the diffusion, or when
    # the intensity is too weak for the energy to turn down along the ray
    assert np.isnan(_fiber_extrema(v, kw32, LogisticParams(
        lam=40.0, p=2.0, q=1.5, r=3.0), meas)[0])
    assert np.isnan(_fiber_extrema(v, kw32, LogisticParams(
        lam=1.0, p=2.0, q=3.0, r=4.0), meas)[0])


def test_mountain_pass_barrier_near_zero(grid64):
    # the barrier lies at t = 0.0072 along the ray through the branch
    # solution, below any fixed sampling of the segment from zero to it
    params = validate_params(1, 0.3, 3.0, 4.0, 5.0)
    kw = assemble(grid64, params)
    lam = 60.0
    big = solve_branch_point(lam, None, params, kw, grid64, SolveOptions())
    assert big.status is Status.CONVERGED
    rep = mountain_pass(lam, params, kw, grid64, big.u, SolveOptions())
    assert rep.status is Status.CONVERGED
    v = rep.u.values
    assert 0.0 < rep.u.sup_norm() and np.all(v >= 0.0)
    assert np.all(v <= big.u.values)
    _assert_mountain_pass_level(rep, big, params, kw, grid64, lam)
