"""Top-level acceptance criteria.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE Cn: PASS" or "ACCEPTANCE Cn: FAIL" line directly to the
terminal, then asserts every named sub-condition.  Scale is the unit
interval at n = 64 unless a criterion states otherwise.
"""
from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
import pytest

from fplogistic.cli import main as cli_main
from fplogistic.domain import DomainSpec, build_grid, validate_params
from fplogistic.eigen import principal_eigenpair
from fplogistic.kernel import assemble
from fplogistic.logistic import (LogisticParams, phi_functional,
                                 torsion_functional)
from fplogistic.operator import (DiscreteFunction, apply_operator,
                                 gagliardo_energy, mass_dot, signed_power)
from fplogistic.solve import (SolveOptions, Status, detect_threshold, minimize,
                              mountain_pass, solve_branch_point, torsion_solve)
from fplogistic.verify import check_hopf

from oracles import (dense_reference_lambda1, exterior_weight_1d,
                     mc_exterior_2d, mc_pair_2d, oracle_exterior_1d,
                     oracle_pair_1d, pair_weight_1d)

pytestmark = pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning")


@pytest.fixture()
def criterion(capsys):
    """Collect named boolean sub-conditions and print one verdict line."""

    @contextmanager
    def _criterion(number: int):
        checks: dict[str, bool] = {}
        try:
            yield checks
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE C{number}: FAIL")
            raise
        ok = bool(checks) and all(checks.values())
        with capsys.disabled():
            print(f"ACCEPTANCE C{number}: {'PASS' if ok else 'FAIL'}")
        failed = sorted(name for name, good in checks.items() if not good)
        assert not failed, f"criterion {number} failed: {failed}"

    return _criterion


@pytest.fixture(scope="module")
def equi64(grid64, equi_params):
    kw = assemble(grid64, equi_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    return kw, eig


@pytest.fixture(scope="module")
def super64(grid64, super_params):
    kw = assemble(grid64, super_params)
    eig = principal_eigenpair(kw, SolveOptions(seed=0))
    return kw, eig


def test_c01_kernel_weights_match_oracles(criterion, unit_square):
    with criterion(1) as checks:
        ps = 0.8
        rng = np.random.default_rng(101)
        worst = 0.0
        for k in range(100):
            if k < 60:
                a1 = rng.uniform(-1.0, 1.0)
                wa = rng.uniform(0.02, 0.4)
                gap = 0.0 if rng.random() < 0.3 else rng.uniform(0.005, 0.8)
                b1 = a1 + wa + gap
                cell_a, cell_b = (a1, a1 + wa), (b1, b1 + rng.uniform(0.02, 0.4))
                w = pair_weight_1d(cell_a, cell_b, 1.0 + ps)
                ref = oracle_pair_1d(cell_a, cell_b, ps)
            else:
                c1 = rng.uniform(0.0, 0.9)
                cell = (c1, c1 + rng.uniform(0.02, 1.0 - c1))
                w = exterior_weight_1d(cell, (0.0, 1.0), 1.0 + ps)
                ref = oracle_exterior_1d(cell, (0.0, 1.0), ps)
            worst = max(worst, abs(w / ref - 1.0))
        checks["hundred_1d_weights_within_1e8"] = worst <= 1e-8

        # the 2D weights the solver uses: the assembled W and V of a 5 x 5 grid
        grid = build_grid(unit_square, 5)
        kw = assemble(grid, validate_params(2, ps / 2.0, 2.0, 1.5, 3.0))
        dom = ((0.0, 0.0), (1.0, 1.0))
        worst_z = 0.0
        drawn = 0
        while drawn < 12:
            i, j = rng.integers(0, grid.ncells, size=2)
            di = np.abs(grid.centers[i] - grid.centers[j]) / 0.2
            if di.max() < 1.5:
                continue
            cell_i = (tuple(grid.lows[i]), tuple(grid.highs[i]))
            cell_j = (tuple(grid.lows[j]), tuple(grid.highs[j]))
            est, se = mc_pair_2d(cell_i, cell_j, ps, 150_000,
                                 seed=1000 + drawn)
            worst_z = max(worst_z, abs(kw.W[i, j] - est) / se)
            drawn += 1
        interior = [i for i in range(grid.ncells)
                    if 1 <= i // 5 <= 3 and 1 <= i % 5 <= 3]
        for k, i in enumerate(rng.choice(interior, size=8, replace=False)):
            cell = (tuple(grid.lows[i]), tuple(grid.highs[i]))
            est, se = mc_exterior_2d(cell, dom, ps, 150_000, seed=2000 + k)
            worst_z = max(worst_z, abs(kw.V[i] - est) / se)
        checks["twenty_2d_weights_within_3_sigma"] = worst_z <= 3.0


def test_c02_operator_consistency(criterion, grid64, kw64, kw64_p3):
    with criterion(2) as checks:
        rng = np.random.default_rng(202)
        worst_pair = 0.0
        worst_fd = 0.0
        for p, kw, (q, r) in ((2.0, kw64, (1.5, 3.0)), (3.0, kw64_p3, (2.0, 4.0))):
            phi = phi_functional(kw, LogisticParams(lam=1.0, q=q, r=r))
            for _ in range(10):
                u = DiscreteFunction(rng.uniform(-1.0, 1.0, 64), grid64)
                lu = apply_operator(u, kw, p)
                pairing = mass_dot(lu.values, u.values, grid64.measures)
                energy = gagliardo_energy(u, kw, p)
                worst_pair = max(worst_pair, abs(pairing / energy - 1.0))
                g = phi.gradient(u.values)
                eps = 1e-6
                for i in rng.integers(0, 64, size=3):
                    vp, vm = u.values.copy(), u.values.copy()
                    vp[i] += eps
                    vm[i] -= eps
                    fd = (phi.energy(vp) - phi.energy(vm)) / (2.0 * eps)
                    got = g[i] * grid64.measures[i]
                    worst_fd = max(worst_fd,
                                   abs(got - fd) / max(abs(fd), 1e-6))
        checks["pairing_identity_within_1e10"] = worst_pair <= 1e-10
        checks["gradient_fd_within_1e5"] = worst_fd <= 1e-5


def test_c03_structural_inequalities(criterion, grid64, kw64, kw64_p3):
    with criterion(3) as checks:
        rng = np.random.default_rng(303)
        pnp_ok = True
        tmono_ok = True
        for p, kw in ((2.0, kw64), (3.0, kw64_p3)):
            for _ in range(100):
                u = rng.uniform(-1.0, 1.0, 64)
                v = rng.uniform(-1.0, 1.0, 64)
                du = DiscreteFunction(u, grid64)
                dv = DiscreteFunction(v, grid64)
                lu = apply_operator(du, kw, p).values
                lv = apply_operator(dv, kw, p).values
                up = np.maximum(u, 0.0)
                um = np.maximum(-u, 0.0)
                m = grid64.measures
                slack = 1e-10 * max(1.0, gagliardo_energy(du, kw, p))
                for part, sign in ((up, 1.0), (um, -1.0)):
                    e_part = gagliardo_energy(DiscreteFunction(part, grid64),
                                              kw, p)
                    pairing = mass_dot(lu, sign * part, m)
                    if e_part > pairing + slack:
                        pnp_ok = False
                w = np.maximum(u - v, 0.0)
                pairing = mass_dot(lu - lv, w, m)
                if w.max() > 0.0:
                    if pairing <= 0.0:
                        tmono_ok = False
                elif pairing > 1e-14:
                    tmono_ok = False
        checks["pnp_positive_negative_parts"] = pnp_ok
        checks["strict_t_monotonicity"] = tmono_ok

        scalar_ok = True
        for p in (2.0, 2.5, 3.0):
            a = rng.uniform(-5.0, 5.0, 100_000)
            x = rng.uniform(-5.0, 5.0, 100_000)
            y = rng.uniform(-5.0, 5.0, 100_000)
            b, c = np.maximum(x, y), np.minimum(x, y)
            lhs = signed_power(a - b, p - 1.0) - signed_power(a - c, p - 1.0)
            rhs = 2.0 ** (2.0 - p) * signed_power(c - b, p - 1.0)
            if np.any(lhs > rhs + 1e-12 * (1.0 + np.abs(rhs))):
                scalar_ok = False
        checks["scalar_power_inequality_1e5_triples"] = scalar_ok


def test_c04_eigenvalue_oracles(criterion, grid64, kw64, kw64_p3, eig64):
    with criterion(4) as checks:
        lam_ref, _ = dense_reference_lambda1(kw64, grid64)
        checks["dense_match_within_1e8"] = \
            abs(eig64.lambda1 / lam_ref - 1.0) <= 1e-8

        closed_ok = True
        for p, s in ((2.0, 0.4), (3.0, 0.3), (2.5, 0.25)):
            ps = p * s
            g1 = build_grid(DomainSpec.interval(0.0, 1.0), 1)
            prm = validate_params(1, s, p, (1.0 + p) / 2.0, p + 1.0)
            pair = principal_eigenpair(assemble(g1, prm),
                                       SolveOptions(seed=0))
            exact = 4.0 / (ps * (1.0 - ps))
            if abs(pair.lambda1 / exact - 1.0) > 1e-13:
                closed_ok = False
        checks["single_cell_closed_form"] = closed_ok

        # the eigenvalue is simple with a positive eigenfunction, so the
        # starts of five distinct seeds all descend to it
        pairs = [principal_eigenpair(kw64_p3,
                                     SolveOptions(seed=seed, residual_tol=1e-6))
                 for seed in range(2, 7)]
        lams = [pair.lambda1 for pair in pairs]
        checks["p3_all_seeds_positive"] = all(
            pair.u1.values.min() > 0.0 for pair in pairs)
        checks["p3_seeds_agree_1e6"] = \
            (max(lams) - min(lams)) / min(lams) <= 1e-6


def test_c05_subdiffusive_regime(criterion, kw64, sub_params, eig64):
    with criterion(5) as checks:
        sols = []
        for seed in range(10):
            rep = solve_branch_point(1.0, None, sub_params, kw64,
                                     SolveOptions(initial="random", seed=seed),
                                     eigen=eig64)
            if rep.status is not Status.CONVERGED:
                sols = []
                break
            sols.append(rep.u.values)
        spread = (max(np.abs(s - sols[0]).max() for s in sols[1:])
                  if len(sols) == 10 else np.inf)
        checks["ten_random_starts_agree_1e5"] = spread <= 1e-5

        rep1 = solve_branch_point(1.0, None, sub_params, kw64,
                                  SolveOptions(), eigen=eig64)
        rep2 = solve_branch_point(2.0, rep1.u, sub_params, kw64,
                                  SolveOptions(), eigen=eig64)
        gap = float((rep2.u.values - rep1.u.values).min())
        checks["strict_componentwise_ordering"] = gap > 0.0
        checks["hopf_ratio_gap"] = bool(check_hopf(rep2.u, sub_params.s).passed)

        sups = []
        converged = True
        for k in range(7):
            rep = solve_branch_point(2.0 ** (-k), None, sub_params, kw64,
                                     SolveOptions(), eigen=eig64)
            converged = converged and rep.status is Status.CONVERGED
            sups.append(rep.u.sup_norm())
        checks["branch_all_converged"] = converged
        checks["branch_strictly_decreasing"] = \
            all(b < a for a, b in zip(sups, sups[1:]))
        checks["branch_tail_below_1e3"] = sups[-1] < 1e-3


def test_c06_equidiffusive_regime(criterion, equi_params, equi64):
    kw, eig = equi64
    lam1 = eig.lambda1
    with criterion(6) as checks:
        collapse_ok = True
        for frac in (0.5, 0.9, 1.0):
            rep = solve_branch_point(frac * lam1, None, equi_params, kw,
                                     SolveOptions(), eigen=eig)
            if rep.status is not Status.COLLAPSED or rep.u.sup_norm() >= 1e-6:
                collapse_ok = False
        # random starts cover the strictly subcritical intensities; at the
        # exact eigenvalue the gradient flow decays only algebraically, so
        # the zero basin there is certified by the amplitude scan above
        for frac in (0.5, 0.9):
            for seed in (0, 1, 2):
                rep = solve_branch_point(
                    frac * lam1, None, equi_params, kw,
                    SolveOptions(initial="random", seed=seed), eigen=eig)
                if (rep.status is not Status.COLLAPSED
                        or rep.u.sup_norm() >= 1e-6):
                    collapse_ok = False
        checks["all_subcritical_trials_collapse"] = collapse_ok

        rep = solve_branch_point(1.2 * lam1, None, equi_params, kw,
                                 SolveOptions(), eigen=eig)
        checks["supercritical_solution_exists"] = (
            rep.status is Status.CONVERGED and rep.u.sup_norm() > 1e-3)

        sups = []
        converged = True
        for delta in (0.32, 0.16, 0.08, 0.04, 0.02):
            rep = solve_branch_point((1.0 + delta) * lam1, None, equi_params,
                                     kw, SolveOptions(), eigen=eig)
            converged = converged and rep.status is Status.CONVERGED
            sups.append(rep.u.sup_norm())
        checks["branch_toward_eigenvalue_converged"] = converged
        checks["branch_decays_monotonically"] = \
            all(b < a for a, b in zip(sups, sups[1:]))
        checks["branch_vanishes_at_eigenvalue"] = sups[-1] <= 0.1 * sups[0]


def test_c07_superdiffusive_regime(criterion, super_params, super64):
    kw, eig = super64
    with criterion(7) as checks:
        thr = detect_threshold(super_params, eig, SolveOptions(),
                               bracket_tol=1e-3)
        checks["bracket_within_relative_1e3"] = \
            thr.bracket_width <= 1e-3 * thr.lambda_star_h
        checks["threshold_above_lower_bound"] = \
            thr.lambda_star_h >= thr.lambda_0

        below_ok = True
        for seed in (0, 1, 2):
            rep = solve_branch_point(0.9 * thr.lambda_0, None, super_params,
                                     kw,
                                     SolveOptions(initial="random", seed=seed),
                                     eigen=eig)
            if rep.status is not Status.COLLAPSED or rep.u.sup_norm() >= 1e-6:
                below_ok = False
        checks["nonexistence_below_lower_bound"] = below_ok

        lam = 1.5 * thr.lambda_star_h
        big = solve_branch_point(lam, None, super_params, kw,
                                 SolveOptions(), eigen=eig)
        mp = mountain_pass(lam, super_params, kw, big.u,
                           SolveOptions())
        checks["mountain_pass_converged"] = mp.status is Status.CONVERGED
        checks["saddle_residual_below_1e6"] = mp.residual <= 1e-6
        checks["saddle_strictly_between"] = \
            0.0 < mp.u.sup_norm() < big.u.sup_norm()
        checks["saddle_below_branch"] = \
            bool(np.all(mp.u.values <= big.u.values + 1e-12)
                 and mp.u.values.min() >= 0.0)

        sup_star = thr.u_star.sup_norm()
        dists = [abs(pt.sup_norm - sup_star) for pt in thr.branch[:4]]
        checks["branch_has_enough_points"] = len(thr.branch) >= 4
        checks["branch_approaches_u_star"] = (
            all(b <= a for a, b in zip(dists[::-1], dists[::-1][1:]))
            and dists[1] <= 0.05 * sup_star)


def test_c08_torsion_and_hopf(criterion, grid64, kw64, sub_params):
    with criterion(8) as checks:
        rep_a = torsion_solve(kw64, SolveOptions())
        rep_b = minimize(torsion_functional(kw64),
                         DiscreteFunction(np.full(64, 1.0), grid64))
        diff = np.abs(rep_a.u.values - rep_b.u.values).max()
        checks["two_starts_agree_1e6"] = diff <= 1e-6 * rep_a.u.sup_norm()
        checks["strictly_positive"] = bool(rep_a.u.values.min() > 0.0)
        hopf = check_hopf(rep_a.u, sub_params.s)
        checks["hopf_ratio_positive"] = hopf.witness["min_ratio"] > 0.0
        checks["boundary_ratio_above_tenth_median"] = bool(hopf.passed)


def test_c09_refinement_and_scaling(criterion, super_params):
    with criterion(9) as checks:
        lam1s = []
        stars = []
        for n in (32, 64, 128):
            g = build_grid(DomainSpec.interval(0.0, 1.0), n)
            kw = assemble(g, super_params)
            eig = principal_eigenpair(kw, SolveOptions(seed=0))
            thr = detect_threshold(super_params, eig, SolveOptions(),
                                   bracket_tol=1e-3)
            lam1s.append(eig.lambda1)
            stars.append(thr.lambda_star_h)
        d1 = [abs(b - a) / abs(a) for a, b in zip(lam1s, lam1s[1:])]
        d2 = [abs(b - a) / abs(a) for a, b in zip(stars, stars[1:])]
        checks["eigenvalue_deltas_shrink"] = d1[1] < d1[0]
        checks["threshold_deltas_shrink"] = d2[1] < d2[0]

        g2 = build_grid(DomainSpec.interval(0.0, 2.0), 64)
        kw2 = assemble(g2, super_params)
        lam_wide = principal_eigenpair(kw2,
                                       SolveOptions(seed=0)).lambda1
        ratio = lam1s[1] / lam_wide
        expected = 2.0 ** super_params.ps
        checks["length_scaling_within_2pct"] = \
            abs(ratio / expected - 1.0) <= 0.02


def test_c10_cli_determinism(criterion, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dim = 1\ns = 0.4\np = 2.0\nq = 1.5\nr = 3.0\nlam = 1.0\nn = 64\n"
        "domain.lo = 0.0\ndomain.hi = 1.0\n"
        "solver.initial = random\nsolver.seed = 3\n")
    sup_cfg = tmp_path / "super.cfg"
    sup_cfg.write_text(
        "dim = 1\ns = 0.4\np = 2.0\nq = 3.0\nr = 4.0\nlam = 12.0\nn = 32\n"
        "domain.lo = 0.0\ndomain.hi = 1.0\n")
    with criterion(10) as checks:
        outs = [tmp_path / name for name in ("a", "b")]
        codes = [cli_main(["solve", "--config", str(cfg), "--out", str(out)])
                 for out in outs]
        checks["solve_exit_zero"] = codes == [0, 0]
        checks["solve_csv_bytes_identical"] = (
            (outs[0] / "solution.csv").read_bytes()
            == (outs[1] / "solution.csv").read_bytes())

        eouts = [tmp_path / name for name in ("ea", "eb")]
        for out in eouts:
            assert cli_main(["eigen", "--config", str(cfg),
                             "--out", str(out)]) == 0
        checks["eigen_csv_bytes_identical"] = (
            (eouts[0] / "eigen.csv").read_bytes()
            == (eouts[1] / "eigen.csv").read_bytes())

        touts = [tmp_path / name for name in ("ta", "tb")]
        for out in touts:
            assert cli_main(["threshold", "--config", str(sup_cfg),
                             "--out", str(out)]) == 0
        checks["threshold_csv_bytes_identical"] = (
            (touts[0] / "branch.csv").read_bytes()
            == (touts[1] / "branch.csv").read_bytes()
            and (touts[0] / "solution.csv").read_bytes()
            == (touts[1] / "solution.csv").read_bytes())

        sweep_out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg), "--lams", "0.5,1.0",
                         "--out", str(sweep_out)]) == 0
        rows = (sweep_out / "branch.csv").read_text().splitlines()
        checks["sweep_row_count_matches_steps"] = len(rows) == 3

        doc = json.loads((outs[0] / "report.json").read_text())
        checks["report_embeds_config_and_version"] = (
            doc["config"]["n"] == 64 and bool(doc["version"]))
