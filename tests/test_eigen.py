from __future__ import annotations

import numpy as np
import pytest

from fplogistic import eigen
from fplogistic.domain import DomainSpec, build_grid, validate_params
from fplogistic.eigen import (EigenError, EigenPair,
                              principal_eigenpair, rayleigh_quotient,
                              seeded_uniform)
from fplogistic.kernel import assemble
from fplogistic.operator import DiscreteFunction, lp_norm
from fplogistic.solve import SolveOptions, SolveReport, SolverError, Status

from oracles import dense_reference_lambda1


def test_linear_case_matches_dense_eigensolver(kw64, grid64, eig64):
    lam_ref, vec_ref = dense_reference_lambda1(kw64, grid64)
    assert eig64.lambda1 == pytest.approx(lam_ref, rel=1e-8)
    u = eig64.u1.values
    v = vec_ref * np.sign(vec_ref[len(vec_ref) // 2])
    v /= lp_norm(DiscreteFunction(v, grid64), 2.0)
    assert u == pytest.approx(v, rel=1e-4, abs=1e-6)


def test_linear_case_matches_dense_eigensolver_2d(kw2d, grid2d):
    pair = principal_eigenpair(kw2d, SolveOptions(seed=0))
    lam_ref, _ = dense_reference_lambda1(kw2d, grid2d)
    assert pair.lambda1 == pytest.approx(lam_ref, rel=1e-8)


def test_a_limit_of_negative_mass_is_flipped(monkeypatch, kw64, eig64):
    # a descent from the positive start ends positive in practice; a limit
    # of negative mass, -u1, is the same eigenpair
    descend = eigen.descend

    def negated(func, u0, opts, what):
        rep = descend(func, u0, opts, what)
        rep.u = DiscreteFunction(-rep.u.values, rep.u.grid)
        return rep

    monkeypatch.setattr(eigen, "descend", negated)
    pair = principal_eigenpair(kw64, SolveOptions(seed=0))
    assert pair.lambda1 == eig64.lambda1
    assert np.array_equal(pair.u1.values, eig64.u1.values)
    assert pair.weights is kw64


@pytest.mark.parametrize("s,p", [(0.4, 2.0), (0.3, 3.0), (0.25, 2.5)])
def test_single_cell_closed_form(s, p):
    # with one cell on (0, 1) the quotient is constant in u:
    # lambda1 = 2 V = 4 / (ps (1 - ps))
    ps = p * s
    grid = build_grid(DomainSpec.interval(0.0, 1.0), 1)
    params = validate_params(1, s, p, (1.0 + p) / 2.0, p + 1.0)
    kw = assemble(grid, params)
    pair = principal_eigenpair(kw, SolveOptions(seed=0))
    assert pair.lambda1 == pytest.approx(4.0 / (ps * (1.0 - ps)), rel=1e-13)


def test_nonlinear_case_with_restarts(kw32_p3):
    # the principal eigenpair is simple and positive: every seed's start
    # descends to it
    pairs = [principal_eigenpair(kw32_p3,
                                 SolveOptions(seed=seed, residual_tol=1e-6))
             for seed in (1, 2, 3)]
    lams = [pair.lambda1 for pair in pairs]
    assert (max(lams) - min(lams)) / min(lams) <= 1e-6
    for pair in pairs:
        assert pair.residual <= 1e-6
        assert np.all(pair.u1.values > 0.0)
        assert lp_norm(pair.u1, 3.0) == pytest.approx(1.0, rel=1e-12)


def test_eigenvalue_is_rayleigh_minimum(kw32, grid32, rng):
    pair = principal_eigenpair(kw32, SolveOptions(seed=0))
    for _ in range(20):
        trial = DiscreteFunction(rng.uniform(-1.0, 1.0, grid32.ncells), grid32)
        assert rayleigh_quotient(trial, kw32) >= pair.lambda1 - 1e-10


def test_rayleigh_quotient_rejects_zero(grid32, kw32):
    zero = DiscreteFunction(np.zeros(grid32.ncells), grid32)
    with pytest.raises(ValueError, match="zero"):
        rayleigh_quotient(zero, kw32)


def test_eigenfunction_scaling_invariance(kw32, grid32):
    pair = principal_eigenpair(kw32, SolveOptions(seed=0))
    for c in (0.5, 3.0, -2.0):
        scaled = DiscreteFunction(c * pair.u1.values, grid32)
        assert rayleigh_quotient(scaled, kw32) == pytest.approx(
            pair.lambda1, rel=1e-12)


def test_domain_scaling_law(sub_params):
    # shrinking the interval by half scales lambda1 by 2^(ps) exactly,
    # because the energy scales by c^(1-ps) and the mass by c under x -> c x
    n = 16
    grid_a = build_grid(DomainSpec.interval(0.0, 1.0), n)
    grid_b = build_grid(DomainSpec.interval(0.0, 0.5), n)
    kw_a = assemble(grid_a, sub_params)
    kw_b = assemble(grid_b, sub_params)
    lam_a = principal_eigenpair(kw_a, SolveOptions(seed=0)).lambda1
    lam_b = principal_eigenpair(kw_b, SolveOptions(seed=0)).lambda1
    assert lam_b == pytest.approx(2.0 ** sub_params.ps * lam_a, rel=1e-8)


def test_eigen_error_when_iterations_exhausted(kw32):
    # the one wording of every solve that stopped short
    with pytest.raises(SolverError, match=(
            r"^eigen solve stopped after 2 of 2 iterations \(residual \S+\); "
            r"raise solver\.max_iters$")):
        principal_eigenpair(kw32, SolveOptions(max_iters=2, seed=0))


def test_eigen_error_when_the_limit_changes_sign(kw32, monkeypatch):
    # a converged limit that is not positive is no principal eigenfunction
    def sign_changing(func, u0, opts, what):
        v = u0.values
        u = np.where(np.arange(v.size) % 2, v, -0.5 * v)
        return SolveReport(DiscreteFunction(u, u0.grid), 1.0, 0.0, 1,
                           Status.CONVERGED)

    monkeypatch.setattr(eigen, "descend", sign_changing)
    with pytest.raises(EigenError, match="not positive"):
        principal_eigenpair(kw32, SolveOptions(seed=0))


def test_normalizing_a_zero_iterate_raises(grid32):
    # the sphere has no point on the ray of zero
    with pytest.raises(EigenError, match="collapsed to zero"):
        eigen._normalize(np.zeros(grid32.ncells), 2.0, grid32.measures)


@pytest.mark.parametrize("lo,hi,size", [(0.5, 1.5, 64), (0.1, 1.0, 1000)])
def test_seeded_uniform_repeats_per_seed_and_stays_in_range(lo, hi, size):
    a, b = seeded_uniform(3, lo, hi, size), seeded_uniform(3, lo, hi, size)
    assert a.shape == (size,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, seeded_uniform(4, lo, hi, size))
    assert lo <= a.min() and a.max() < hi


def test_refinement_monotonicity(sub_params):
    # halving the cells enlarges the trial space, so lambda1 decreases
    lams = []
    for n in (8, 16, 32, 64):
        grid = build_grid(DomainSpec.interval(0.0, 1.0), n)
        kw = assemble(grid, sub_params)
        lams.append(principal_eigenpair(kw,
                                        SolveOptions(seed=0)).lambda1)
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_eigenfunction_positive_and_symmetric(eig64):
    u = eig64.u1.values
    assert u.min() > 0.0
    assert u == pytest.approx(u[::-1], rel=1e-6, abs=1e-8)
    # interior maximum, decaying toward the boundary
    assert np.argmax(u) in (31, 32)
