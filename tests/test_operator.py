from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplogistic.domain import DomainSpec, build_grid, validate_params
from fplogistic.kernel import assemble
from fplogistic.operator import (DiscreteFunction, GridMismatchError,
                                 apply_operator, gagliardo_energy, lp_norm,
                                 mass_dot, mass_norm, signed_power,
                                 sobolev_preconditioner)


def _random_function(grid, rng, lo=-1.0, hi=1.0):
    return DiscreteFunction(rng.uniform(lo, hi, grid.ncells), grid)


def test_signed_power_values():
    assert signed_power(-2.0, 3.0) == -8.0
    assert signed_power(2.0, 3.0) == 8.0
    assert signed_power(0.0, 0.5) == 0.0
    assert signed_power(-4.0, 0.5) == -2.0
    arr = signed_power(np.array([-1.0, 0.0, 1.0, -8.0]), 1.0 / 3.0)
    assert arr == pytest.approx([-1.0, 0.0, 1.0, -2.0])
    t = np.linspace(-2.0, 2.0, 41)
    assert signed_power(-t, 1.7) == pytest.approx(-signed_power(t, 1.7))


def test_discrete_function_arithmetic(grid32, rng):
    # arithmetic lives on the values arrays, which the function holds as floats
    u = DiscreteFunction([1, -3, 2] + [0] * 29, grid32)
    assert u.values.dtype == float
    assert u.sup_norm() == 3.0
    v = _random_function(grid32, rng)
    assert DiscreteFunction(-2.0 * v.values, grid32).sup_norm() == 2.0 * v.sup_norm()


def test_discrete_function_shape_and_grid_guards(grid32):
    with pytest.raises(GridMismatchError):
        DiscreteFunction(np.zeros(31), grid32)
    with pytest.raises(GridMismatchError):
        DiscreteFunction(np.zeros((32, 1)), grid32)


def test_apply_operator_rejects_foreign_weights(grid64, kw32, rng):
    u = _random_function(grid64, rng)
    with pytest.raises(GridMismatchError):
        apply_operator(u, kw32, 2.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_pairing_identity(grid32, kw32, kw32_p3, rng, p):
    # <Lu, u> in the mass inner product reproduces the energy exactly
    kw = kw32 if p == 2.0 else kw32_p3
    for _ in range(5):
        u = _random_function(grid32, rng)
        lu = apply_operator(u, kw, p)
        pairing = mass_dot(lu.values, u.values, grid32.measures)
        energy = gagliardo_energy(u, kw, p)
        assert pairing == pytest.approx(energy, rel=1e-10)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_operator_is_energy_gradient(grid32, kw32, kw32_p3, rng, p):
    # |C_i| (Lu)_i is the partial derivative of E(u)/p in u_i
    kw = kw32 if p == 2.0 else kw32_p3
    u = _random_function(grid32, rng)
    lu = apply_operator(u, kw, p)
    eps = 1e-6
    for i in (0, 7, 15, 31):
        vp = u.values.copy()
        vm = u.values.copy()
        vp[i] += eps
        vm[i] -= eps
        fd = (gagliardo_energy(DiscreteFunction(vp, grid32), kw, p)
              - gagliardo_energy(DiscreteFunction(vm, grid32), kw, p)) / (
                  2.0 * eps * p)
        assert lu.values[i] * grid32.measures[i] == pytest.approx(fd, rel=1e-5)


def test_operator_linearity_for_p_two(grid32, kw32, rng):
    u = _random_function(grid32, rng)
    v = _random_function(grid32, rng)
    w = DiscreteFunction(2.0 * u.values + (-3.0) * v.values, grid32)
    lhs = apply_operator(w, kw32, 2.0).values
    rhs = (2.0 * apply_operator(u, kw32, 2.0).values
           - 3.0 * apply_operator(v, kw32, 2.0).values)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_energy_homogeneity_and_positivity(grid32, kw32, kw32_p3, rng, p):
    kw = kw32 if p == 2.0 else kw32_p3
    u = _random_function(grid32, rng)
    e = gagliardo_energy(u, kw, p)
    assert e > 0.0
    scaled = DiscreteFunction((-2.0) * u.values, grid32)
    assert gagliardo_energy(scaled, kw, p) == pytest.approx(2.0 ** p * e,
                                                            rel=1e-12)
    zero = DiscreteFunction(np.zeros(grid32.ncells), grid32)
    assert gagliardo_energy(zero, kw, p) == 0.0


def test_lp_norm_constant_function(grid64):
    # the unit interval has total measure one, so every L^nu norm of a
    # constant equals its absolute value
    c = DiscreteFunction(np.full(grid64.ncells, -0.75), grid64)
    for nu in (1.0, 2.0, 3.5):
        assert lp_norm(c, nu) == pytest.approx(0.75, rel=1e-13)
    assert lp_norm(c, np.inf) == 0.75
    with pytest.raises(ValueError, match="positive"):
        lp_norm(c, 0.0)


def test_mass_dot_and_norm(grid32, rng):
    a = rng.uniform(-1.0, 1.0, grid32.ncells)
    b = rng.uniform(-1.0, 1.0, grid32.ncells)
    ref = float(np.sum(a * b * grid32.measures))
    assert mass_dot(a, b, grid32.measures) == pytest.approx(ref, rel=1e-14)
    assert mass_norm(a, grid32.measures) == pytest.approx(
        np.sqrt(np.sum(a * a * grid32.measures)), rel=1e-14)


def test_pairing_identity_2d(grid2d, kw2d, rng):
    u = _random_function(grid2d, rng)
    lu = apply_operator(u, kw2d, 2.0)
    assert mass_dot(lu.values, u.values, grid2d.measures) == pytest.approx(
        gagliardo_energy(u, kw2d, 2.0), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(2.0, 4.0), data=st.data(), n=st.integers(2, 48),
       c=st.floats(0.25, 4.0), flip=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_discrete_identities_for_random_1d_parameters(p, data, n, c, flip,
                                                      seed):
    # 1D cells need ps < 1, so s is drawn below 1/p
    s = data.draw(st.floats(0.05, min(0.95, 0.999 / p)), label="s")
    params = validate_params(1, s, p, 1.5, p)
    grid = build_grid(DomainSpec.interval(0.0, 1.0), n)
    kw = assemble(grid, params)
    assert np.array_equal(kw.W, kw.W.T)
    assert kw.W.min() >= 0.0
    assert np.all(np.diag(kw.W) == 0.0)

    u = DiscreteFunction(np.random.default_rng(seed).uniform(-1.0, 1.0, n),
                         grid)
    e = gagliardo_energy(u, kw, p)
    pairing = mass_dot(apply_operator(u, kw, p).values, u.values,
                       grid.measures)
    assert pairing == pytest.approx(e, rel=1e-10)
    c = -c if flip else c
    scaled = DiscreteFunction(c * u.values, grid)
    assert gagliardo_energy(scaled, kw, p) == pytest.approx(abs(c) ** p * e,
                                                            rel=1e-12)


def _assert_sobolev_identities(kw, grid, seed):
    # sum_j W_ij + V_i integrates the kernel over the cell against all of
    # the space outside it, so on a uniform grid translation invariance
    # makes it the same on every cell and K Toeplitz (block-Toeplitz in 2D)
    diag = kw.W.sum(axis=1) + kw.V
    assert np.ptp(diag) <= 1e-12 * diag.max()
    k = 2.0 * (np.diag(diag) - kw.W)
    assert np.array_equal(k, k.T)
    assert np.linalg.eigvalsh(k).min() > 0.0
    g = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.ncells)
    assert g @ k @ g == pytest.approx(
        gagliardo_energy(DiscreteFunction(g, grid), kw, 2.0), rel=1e-10)
    d = sobolev_preconditioner(kw, 2.0, grid.measures)(g)
    mg = grid.measures * g
    assert np.abs(k @ d - mg).max() <= 1e-10 * np.abs(mg).max()


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.05, 0.499), n=st.integers(2, 64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sobolev_metric_identities_1d(s, n, seed):
    grid = build_grid(DomainSpec.interval(0.0, 1.0), n)
    kw = assemble(grid, validate_params(1, s, 2.0, 1.5, 2.0))
    _assert_sobolev_identities(kw, grid, seed)


def test_sobolev_metric_identities_2d(grid2d, kw2d):
    _assert_sobolev_identities(kw2d, grid2d, 7)


def test_sobolev_preconditioner_only_for_p_two(grid32, kw32_p3):
    assert sobolev_preconditioner(kw32_p3, 3.0, grid32.measures) is None
