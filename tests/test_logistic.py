from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import fplogistic.logistic as logistic
from fplogistic.logistic import (LogisticParams, TruncatedReaction,
                                 _reaction_pair,
                                 phi_functional, reaction, reaction_primitive,
                                 torsion_functional, truncated_functional,
                                 truncated_primitive, truncated_reaction)
from fplogistic.domain import build_grid
from fplogistic.kernel import assemble
from fplogistic.operator import (NEWTON_FORCING, DiscreteFunction,
                                 GridMismatchError, _apply)


@pytest.fixture()
def lp():
    return LogisticParams(lam=2.0, q=1.5, r=3.0)


def test_logistic_params_guard():
    with pytest.raises(ValueError, match="lam"):
        LogisticParams(lam=0.0, q=1.5, r=3.0)


def test_reaction_vanishes_on_nonpositive(lp):
    assert reaction(lp, 0.0) == 0.0
    assert reaction(lp, -1.3) == 0.0
    assert reaction_primitive(lp, -1.3) == 0.0


def test_reaction_closed_form(lp):
    t = 0.7
    assert reaction(lp, t) == pytest.approx(2.0 * t ** 0.5 - t ** 2.0, rel=1e-14)
    assert reaction_primitive(lp, t) == pytest.approx(
        2.0 * t ** 1.5 / 1.5 - t ** 3.0 / 3.0, rel=1e-14)


def test_reaction_is_primitive_derivative(lp):
    eps = 1e-6
    for t in np.linspace(0.1, 3.0, 13):
        fd = (reaction_primitive(lp, t + eps)
              - reaction_primitive(lp, t - eps)) / (2.0 * eps)
        assert reaction(lp, t) == pytest.approx(fd, rel=1e-7)


def test_phi_gradient_matches_finite_differences(grid32, kw32, rng, lp):
    f = phi_functional(kw32, lp)
    v = rng.uniform(-0.5, 1.5, grid32.ncells)
    g = f.gradient(v)
    eps = 1e-6
    for i in (0, 11, 31):
        vp, vm = v.copy(), v.copy()
        vp[i] += eps
        vm[i] -= eps
        fd = (f.energy(vp) - f.energy(vm)) / (2.0 * eps)
        assert g[i] * grid32.measures[i] == pytest.approx(fd, rel=1e-5,
                                                          abs=1e-9)


def test_functionals_take_the_measures_of_their_weights(kw32, kw2d, lp,
                                                        anchor):
    # the grid comes with the weights, so no builder can pair them with the
    # measures of another grid; the anchor of a truncation is checked
    tr = TruncatedReaction(anchor, lp)
    for func in (phi_functional(kw32, lp), truncated_functional(kw32, tr),
                 torsion_functional(kw32)):
        assert func.measures is kw32.grid.measures
    with pytest.raises(GridMismatchError, match=r"weights \(64 cells\)"):
        truncated_functional(kw2d, tr)


def test_truncation_requires_positive_anchor(grid32, lp):
    anchor = DiscreteFunction(np.zeros(grid32.ncells), grid32)
    with pytest.raises(ValueError, match="positive"):
        TruncatedReaction(anchor, lp)


@pytest.fixture()
def anchor(grid32, rng):
    return DiscreteFunction(rng.uniform(0.4, 0.9, grid32.ncells), grid32)


def test_lower_truncation_freezes_below_anchor(anchor, lp):
    tr = TruncatedReaction(anchor, lp)
    a = anchor.values
    low = truncated_reaction(tr, 0.25 * a)
    assert low == pytest.approx(reaction(lp, a), rel=1e-14)
    high = truncated_reaction(tr, 2.0 * a)
    assert high == pytest.approx(reaction(lp, 2.0 * a), rel=1e-14)
    at = truncated_reaction(tr, a)
    assert at == pytest.approx(reaction(lp, a), rel=1e-14)


def test_truncated_primitive_differentiates_to_reaction(anchor, lp):
    tr = TruncatedReaction(anchor, lp)
    eps = 1e-6
    for factor in (0.3, 0.96, 1.04, 1.8):
        t = factor * anchor.values
        fd = (truncated_primitive(tr, t + eps)
              - truncated_primitive(tr, t - eps)) / (2.0 * eps)
        assert fd == pytest.approx(truncated_reaction(tr, t), rel=1e-5,
                                   abs=1e-7)


def test_truncated_primitive_continuous_at_anchor(anchor, lp):
    tr = TruncatedReaction(anchor, lp)
    a = anchor.values
    eps = 1e-9
    below = truncated_primitive(tr, a - eps)
    above = truncated_primitive(tr, a + eps)
    assert above == pytest.approx(below, rel=1e-7, abs=1e-8)


def test_truncated_gradient_matches_finite_differences(grid32, kw32, anchor,
                                                       lp, rng):
    tr = TruncatedReaction(anchor, lp)
    f = truncated_functional(kw32, tr)
    v = rng.uniform(0.0, 1.6, grid32.ncells)
    g = f.gradient(v)
    eps = 1e-6
    for i in (3, 17, 29):
        vp, vm = v.copy(), v.copy()
        vp[i] += eps
        vm[i] -= eps
        fd = (f.energy(vp) - f.energy(vm)) / (2.0 * eps)
        assert g[i] * grid32.measures[i] == pytest.approx(fd, rel=1e-4,
                                                          abs=1e-8)


def test_torsion_functional_gradient(grid32, kw32, rng):
    f = torsion_functional(kw32)
    v = rng.uniform(0.0, 0.1, grid32.ncells)
    eps = 1e-7
    g = f.gradient(v)
    for i in (0, 16, 31):
        vp, vm = v.copy(), v.copy()
        vp[i] += eps
        vm[i] -= eps
        fd = (f.energy(vp) - f.energy(vm)) / (2.0 * eps)
        assert g[i] * grid32.measures[i] == pytest.approx(fd, rel=1e-5,
                                                          abs=1e-9)


def _functional_and_reaction(kind, kw, lp, anchor):
    if kind == "phi":
        return phi_functional(kw, lp), lambda v: reaction(lp, v)
    if kind == "truncated":
        tr = TruncatedReaction(anchor, lp)
        return (truncated_functional(kw, tr),
                lambda v: truncated_reaction(tr, v))
    return torsion_functional(kw), lambda v: 1.0


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "replaced"])
@pytest.mark.parametrize("kind", ["phi", "truncated", "torsion"])
def test_gradient_reuses_the_reaction_of_the_energy_call(monkeypatch, grid32,
                                                         kw32, lp, anchor,
                                                         rng, kind, wrapped):
    func, rxn = _functional_and_reaction(kind, kw32, lp, anchor)
    if wrapped:
        # the wrapper a tracer puts around every evaluation
        energy, gradient = func.energy, func.gradient
        func = dataclasses.replace(func, energy=lambda v: energy(v),
                                   gradient=lambda v: gradient(v))
    calls = []
    pair = logistic._reaction_pair
    monkeypatch.setattr(logistic, "_reaction_pair",
                        lambda lp_, v: calls.append(1) or pair(lp_, v))

    def evaluations(call, v):
        # the call's result and how many reaction evaluations it made
        before = len(calls)
        out = call(v)
        return out, len(calls) - before

    def expected(v):
        return _apply(v, kw32) - rxn(v)

    a = rng.uniform(-0.5, 1.6, grid32.ncells)
    b = rng.uniform(-0.5, 1.6, grid32.ncells)
    once = 0 if kind == "torsion" else 1
    assert evaluations(func.energy, a)[1] == once
    g, evals = evaluations(func.gradient, a)
    assert evals == 0
    assert np.array_equal(g, expected(a))
    # another array after energy(a) gets its own powers, not a's
    g, evals = evaluations(func.gradient, b)
    assert evals == once
    assert np.array_equal(g, expected(b))
    assert np.array_equal(func.gradient(a.copy()), expected(a))


@pytest.mark.parametrize("q, r, lam", [(1.5, 3.0, 2.0), (3.0, 4.0, 8.0),
                                       (1.01, 4.9, 0.001), (2.7, 2.71, 900.0)])
def test_shared_primitive_is_within_four_ulps(grid32, anchor, rng, q, r, lam):
    # ulps of the size of the terms, which may cancel in F
    lp = LogisticParams(lam=lam, q=q, r=r)
    tr = TruncatedReaction(anchor, lp)
    a = anchor.values
    for v in (rng.uniform(-1.0, 4.0, grid32.ncells),
              10.0 ** rng.uniform(-8.0, 2.0, grid32.ncells)):
        vp = np.maximum(v, 0.0)
        size = lam * vp ** q / q + vp ** r / r
        F, f = _reaction_pair(lp, v)
        assert np.array_equal(f, reaction(lp, v))
        assert np.all(np.abs(F - reaction_primitive(lp, v))
                      <= 4.0 * np.spacing(size))
        # the truncation adds f(a) a - F(a) above the anchor
        oracle = np.where(v <= a, tr.f_anchor * v, tr.f_anchor * a
                          + reaction_primitive(lp, v) - reaction_primitive(lp, a))
        size += np.abs(tr.fa_anchor) + np.abs(tr.F_anchor)
        assert np.all(np.abs(truncated_primitive(tr, v) - oracle)
                      <= 4.0 * np.spacing(size))


def _hessian(kw, grid, lp, u):
    # K - diag(M f'(u)) from the dense weights and f' in closed form
    k = 2.0 * (kw.T * np.eye(grid.ncells) - kw.W)
    slope = lp.lam * (lp.q - 1.0) * u ** (lp.q - 2.0) \
        - (lp.r - 1.0) * u ** (lp.r - 2.0)
    return k, k - np.diag(grid.measures * slope)


@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("case", ["1d-16", "1d-64", "2d-8"])
def test_newton_direction_descends_and_meets_the_forcing_term(
        unit_interval, kw64, grid64, kw2d, grid2d, sub_params, case, q):
    if case == "1d-16":
        grid = build_grid(unit_interval, 16)
        kw = assemble(grid, sub_params)
    else:
        kw, grid = (kw64, grid64) if case == "1d-64" else (kw2d, grid2d)
    lp = LogisticParams(lam=200.0, q=q, r=q + 1.0)
    func = phi_functional(kw, lp)
    assert func.newton
    m = grid.measures
    rng = np.random.default_rng(sum(map(ord, case)) + int(q))
    definite = indefinite = 0
    for scale in (1e-3, 0.1, 1.0, 10.0, 100.0, 1e3):
        for _ in range(4):
            u = scale * rng.uniform(0.1, 1.0, grid.ncells)
            g = func.gradient(u)
            d = func.precondition(u, g)
            b = m * g
            assert d @ b > 0.0
            k, h = _hessian(kw, grid, lp, u)
            if np.linalg.eigvalsh(h).min() <= 0.0:
                indefinite += 1
                continue
            definite += 1
            r = h @ d - b
            eta = NEWTON_FORCING * (1.0 + 1e-9)
            assert r @ np.linalg.solve(k, r) <= \
                eta * eta * (b @ np.linalg.solve(k, b))
    # both branches of the truncated solve were exercised
    assert definite and indefinite


def test_newton_metric_only_for_phi_at_p_two_and_q_at_least_two(
        grid32, kw32, kw32_p3, anchor):
    def newton(q, p=2.0):
        kw = kw32 if p == 2.0 else kw32_p3
        return phi_functional(kw,
                              LogisticParams(lam=2.0, q=q, r=4.0)).newton

    assert newton(2.0) and newton(3.0)
    assert not newton(1.5) and not newton(3.0, p=3.0)
    lp3 = LogisticParams(lam=2.0, q=3.0, r=4.0)
    assert not truncated_functional(kw32,
                                    TruncatedReaction(anchor, lp3)).newton
    assert not torsion_functional(kw32).newton
    # below q = 2 the metric is the fixed K of the diffusion part, the same
    # at every iterate
    g = np.linspace(-1.0, 1.0, grid32.ncells)
    d = phi_functional(kw32, LogisticParams(
        lam=2.0, q=1.5, r=4.0)).precondition(np.ones_like(g), g)
    assert np.array_equal(d, kw32.k_inverse @ (grid32.measures * g))
