from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fplogistic
from fplogistic import __version__
from fplogistic.cli import main
from fplogistic.eigen import EigenError

SUB_CFG = """\
dim = 1
s = 0.4
p = 2.0
q = 1.5
r = 3.0
lam = 1.0
n = 16
domain.lo = 0.0
domain.hi = 1.0
"""

SUPER_CFG = SUB_CFG.replace("q = 1.5", "q = 3.0").replace("r = 3.0", "r = 4.0")

P3_CFG = (SUB_CFG.replace("s = 0.4", "s = 0.3").replace("p = 2.0", "p = 3.0")
          .replace("q = 1.5", "q = 4.0").replace("r = 3.0", "r = 5.0")
          .replace("n = 16", "n = 32"))


@pytest.fixture()
def sub_cfg(tmp_path):
    path = tmp_path / "sub.cfg"
    path.write_text(SUB_CFG)
    return path


@pytest.fixture()
def super_cfg(tmp_path):
    path = tmp_path / "super.cfg"
    path.write_text(SUPER_CFG + "threshold.bracket_tol = 0.05\n")
    return path


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_module_entry_point_runs_from_a_checkout():
    # python -m fplogistic with only the source tree on the path
    src = str(Path(fplogistic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "fplogistic", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


def test_cli_import_loads_no_heavy_modules():
    # every command pays for what importing the CLI loads
    src = str(Path(fplogistic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    heavy = ("numpy.random", "numpy.polynomial", "scipy", "statistics")
    code = ("import sys, fplogistic.cli; print(' '.join(sorted(m for m in "
            f"sys.modules if m.split('.')[0] == 'scipy' or m in {heavy!r})))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_commands_import_no_numpy_submodules(tmp_path):
    # numpy imports numpy.random and numpy.polynomial lazily, on first use,
    # so a command that touched either would pay for the import in its run
    cfg1, cfg2 = tmp_path / "one.cfg", tmp_path / "two.cfg"
    cfg1.write_text(SUB_CFG)
    cfg2.write_text(SUB_CFG.replace("dim = 1", "dim = 2").replace("n = 16", "n = 4")
                    .replace("domain.lo = 0.0", "domain.lo = 0.0,0.0")
                    .replace("domain.hi = 1.0", "domain.hi = 1.0,1.0"))
    supers = {cfg1: ["--set", "q=3.0", "--set", "r=4.0"],
              cfg2: ["--set", "q=2.5", "--set", "r=3.2"]}
    argvs = []
    for i, cfg in enumerate((cfg1, cfg2)):
        common = ["--config", str(cfg), "--out", str(tmp_path / f"out{i}")]
        cache = ["--weights-cache", str(tmp_path / f"weights{i}.npz")]
        argvs += [["eigen", *common, *cache],
                  ["solve", *common, *cache, "--set", "solver.initial=random"],
                  ["torsion", *common],
                  ["threshold", *common, *supers[cfg],
                   "--set", "threshold.bracket_tol=0.05"]]
    argvs += [["verify", "--config", str(cfg1), "--out", str(tmp_path / "v1"),
               "--regime", "all"],
              ["verify", "--config", str(cfg2), "--out", str(tmp_path / "v2")]]
    code = ("import contextlib, io, json, sys\n"
            "from fplogistic.cli import main\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in set(sys.modules) - before\n"
            "                                if m.split('.')[0] == 'numpy')]))\n")
    src = str(Path(fplogistic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, imported = json.loads(done.stdout)
    assert codes == [0] * len(argvs)
    assert imported == []


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path / "out")]) == 1
    assert "missing required key" in capsys.readouterr().err


def test_bad_override_exits_one(sub_cfg, tmp_path, capsys):
    code = main(["solve", "--config", str(sub_cfg), "--set", "lam=abc",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "bad value" in capsys.readouterr().err


def test_eigen_command_outputs(sub_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["eigen", "--config", str(sub_cfg), "--out", str(out)]) == 0
    assert "lambda1 = " in capsys.readouterr().out
    assert (out / "eigen.csv").exists()
    doc = json.loads((out / "report.json").read_text())
    assert doc["command"] == "eigen"
    assert doc["results"]["lambda1"] > 0.0
    assert doc["config"]["n"] == 16


def test_solve_reruns_are_byte_identical(sub_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(sub_cfg), "--out", str(out_a)]) == 0
    assert main(["solve", "--config", str(sub_cfg), "--out", str(out_b)]) == 0
    csv_a = (out_a / "solution.csv").read_bytes()
    csv_b = (out_b / "solution.csv").read_bytes()
    assert csv_a == csv_b


def test_solve_iteration_cap_exits_two(sub_cfg, tmp_path, capsys):
    # a capped solve is an error like any other: one line and no file
    out = tmp_path / "out"
    code = main(["solve", "--config", str(sub_cfg),
                 "--set", "solver.initial=random",
                 "--set", "solver.max_iters=1",
                 "--out", str(out)])
    assert code == 2
    assert re.fullmatch(
        r"error: branch solve at lam = 1 stopped after 1 of 1 iterations "
        r"\(residual \S+\); raise solver\.max_iters\n", capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_torsion_cap_exits_two(sub_cfg, tmp_path, capsys):
    code = main(["torsion", "--config", str(sub_cfg),
                 "--set", "solver.max_iters=0",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "torsion" in capsys.readouterr().err


def test_weights_cache_created_and_reused(sub_cfg, tmp_path, capsys):
    cache = tmp_path / "weights.npz"
    out = tmp_path / "out"
    assert main(["eigen", "--config", str(sub_cfg), "--out", str(out),
                 "--weights-cache", str(cache)]) == 0
    first = capsys.readouterr().out
    assert cache.exists()
    stamp = cache.stat().st_mtime_ns
    assert main(["eigen", "--config", str(sub_cfg), "--out", str(out),
                 "--weights-cache", str(cache)]) == 0
    second = capsys.readouterr().out
    assert cache.stat().st_mtime_ns == stamp
    assert first == second


def test_weights_cache_keeps_the_name_it_is_given(sub_cfg, tmp_path,
                                                  monkeypatch):
    # np.savez appends ".npz" to a path without it: the first run used to
    # write w.cache.npz, so that every later run missed w.cache and
    # assembled again
    import fplogistic.cli
    from fplogistic.kernel import assemble

    assembled = []
    monkeypatch.setattr(fplogistic.cli, "assemble",
                        lambda *args: assembled.append(args) or assemble(*args))
    cache = tmp_path / "w.cache"
    for run in range(2):
        assert main(["eigen", "--config", str(sub_cfg), "--weights-cache",
                     str(cache), "--out", str(tmp_path / f"out{run}")]) == 0
    assert len(assembled) == 1
    assert cache.exists() and not (tmp_path / "w.cache.npz").exists()


def _save_record(path, record):
    # np.save appends ".npy" to a name, not to an open file
    with open(path, "wb") as fh:
        np.save(fh, record)


# the key of SUB_CFG's weights: dim, s, p, n, then domain.lo and domain.hi
_SUB_KEY = [1.0, 0.4, 2.0, 16.0, 0.0, 1.0]


def _write_record_without_key(path):
    _save_record(path, np.concatenate([[1.0], np.full(16, 0.5)]))


def _write_dense_format(path):
    # the dense W and V of the layout before the offset table, behind the key
    _save_record(path, np.concatenate([_SUB_KEY, [1.0], np.zeros(16 * 16 + 16)]))


def _write_text_table(path):
    _save_record(path, np.array([str(v) for v in _SUB_KEY] + ["1.0"] + ["0.5"] * 16))


def _write_truncated_record(path):
    _write_sub_weights(path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _sub_weights():
    return fplogistic.assemble(
        fplogistic.build_grid(fplogistic.DomainSpec.interval(0.0, 1.0), 16),
        fplogistic.validate_params(1, 0.4, 2.0, 1.5, 3.0))


def _write_sub_weights(path, table=lambda t: t, T=lambda t: t, key=_SUB_KEY):
    # the right weights of SUB_CFG, with the key, table and T passed through edits
    kw = _sub_weights()
    _save_record(path, np.concatenate([key, [T(kw.T)], table(kw.table.copy())]))


def _write_old_npz(path):
    # the right weights of SUB_CFG in the npz archive of earlier versions
    kw = _sub_weights()
    with open(path, "wb") as fh:
        np.savez(fh, table=kw.table, T=kw.T, key=np.array(_SUB_KEY[:4]),
                 dom_lo=np.array([0.0]), dom_hi=np.array([1.0]))


def _offset_zero_weighted(table):
    table[0] = table[1]
    return table


def _nan_entry(table):
    table[3] = float("nan")
    return table


@pytest.mark.parametrize("write", [
    lambda path: path.write_text("not an archive\n"),
    _write_truncated_record,
    _write_record_without_key,
    _write_dense_format,
    _write_text_table,
    lambda path: _write_sub_weights(path, T=lambda t: float("nan")),
    lambda path: _write_sub_weights(path, table=np.negative),
    lambda path: _write_sub_weights(path, T=lambda t: 0.0),
    lambda path: _write_sub_weights(path, T=lambda t: float("inf")),
    lambda path: _write_sub_weights(path, table=_offset_zero_weighted),
    lambda path: _write_sub_weights(path, table=_nan_entry),
    lambda path: _write_sub_weights(path, key=[1.0, 0.3, 2.0, 16.0, 0.0, 1.0]),
    lambda path: _save_record(path, np.float64(1.0)),
    _write_old_npz,
], ids=["not_zip", "truncated_zip", "missing_key", "dense_format",
        "text_table", "nan_T", "negative_table", "zero_T", "inf_T",
        "offset_zero_weighted", "nan_table", "other_s", "scalar_record",
        "old_npz"])
def test_corrupt_weights_cache_exits_two(sub_cfg, tmp_path, capsys, write):
    cache = tmp_path / "weights.npz"
    write(cache)
    assert main(["eigen", "--config", str(sub_cfg), "--out",
                 str(tmp_path / "out"), "--weights-cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: weight cache {cache}")
    assert err.count("\n") == 1


def test_a_good_record_is_read(sub_cfg, tmp_path, capsys):
    # the writer the cases above edit makes a cache the command line reads
    cache = tmp_path / "weights.npz"
    _write_sub_weights(cache)
    assert main(["eigen", "--config", str(sub_cfg), "--out",
                 str(tmp_path / "out"), "--weights-cache", str(cache)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag, target", [
    ("--out", "taken"),
    ("--weights-cache", "taken/weights.npz"),
], ids=["out_is_a_file", "cache_below_a_file"])
def test_unwritable_output_path_exits_one_in_one_line(sub_cfg, tmp_path,
                                                      capsys, flag, target):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    # of two --out flags the last one counts
    argv = ["eigen", "--config", str(sub_cfg), "--out", str(tmp_path / "out"),
            flag, str(tmp_path / target)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert "taken" in err


def test_environment_variables_do_not_reach_the_run(sub_cfg, tmp_path,
                                                    monkeypatch):
    # the file and --set are the only sources of a run's values
    monkeypatch.setenv("FPLOG_TYPO", "1")
    monkeypatch.setenv("FPLOG_LAM", "5")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(sub_cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["lam"] == 1.0
    assert doc["results"]["lam"] == 1.0


def test_out_defaults_to_out_in_the_working_directory(sub_cfg, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["eigen", "--config", str(sub_cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["command"] == "eigen"
    assert (tmp_path / "out" / "eigen.csv").is_file()


def test_sweep_rows_sorted(sub_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(sub_cfg),
                 "--lams", "2.0,0.5,1.0", "--out", str(out)])
    assert code == 0
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == "lambda,sup_norm,energy,status"
    lams = [float(line.split(",")[0]) for line in lines[1:]]
    assert lams == [0.5, 1.0, 2.0]
    sups = [float(line.split(",")[1]) for line in lines[1:]]
    assert sups == sorted(sups)


def test_sweep_iteration_cap_exits_two(sub_cfg, tmp_path, capsys):
    # like solve and mountain-pass, a point that ends at the cap exits 2
    # with one line and no file; the random start needs no eigenpair, whose
    # solve would hit the same cap first
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(sub_cfg), "--lams", "0.5,1.0",
                 "--set", "solver.initial=random",
                 "--set", "solver.max_iters=0", "--out", str(out)])
    assert code == 2
    assert re.fullmatch(
        r"error: branch solve at lam = 0\.5 stopped after 0 of 0 iterations "
        r"\(residual \S+\); raise solver\.max_iters\n", capsys.readouterr().err)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [["eigen"], ["sweep", "--lams", "0.5,1.0"]],
                         ids=["eigen", "sweep_eigen_start"])
def test_eigen_solve_at_the_iteration_cap_exits_two(sub_cfg, tmp_path, capsys,
                                                    argv):
    # the eigen solve stops on solver.max_iters like every other descent
    out = tmp_path / "out"
    code = main([*argv, "--config", str(sub_cfg),
                 "--set", "solver.max_iters=0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "eigen solve stopped after 0 of 0 iterations" in captured.err
    assert captured.err.rstrip().endswith("; raise solver.max_iters")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("max_iters, what", [
    (10, "eigen solve"), (12, "threshold probe at lam = 7.53022")])
def test_every_solve_that_stops_short_has_one_wording(tmp_path, capsys,
                                                      max_iters, what):
    # on the n = 64 sub config the eigen solve needs 12 iterations, and the
    # super bundle's threshold probe next to the fold more; the eigen solve
    # used to word its own error
    cfg = tmp_path / "v.cfg"
    cfg.write_text(SUB_CFG.replace("n = 16", "n = 64"))
    code = main(["verify", "--config", str(cfg), "--regime", "all",
                 "--set", f"solver.max_iters={max_iters}",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert re.fullmatch(
        rf"error: {what} stopped after {max_iters} of {max_iters} iterations "
        r"\(residual \S+\); raise solver\.max_iters\n", capsys.readouterr().err)


def test_eigen_with_a_nan_residual_exits_two(sub_cfg, tmp_path):
    # on a side of 1e-300 the weights overflow: the energy at the start is
    # finite and its gradient NaN, which is no converged residual
    out = tmp_path / "out"
    src = str(Path(fplogistic.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "fplogistic", "eigen", "--config", str(sub_cfg),
         "--set", "domain.hi=1e-300", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 2, done.stdout
    assert done.stderr.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in done.stderr
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [["eigen", "--set", "domain.hi=1e-300"],
                                  ["solve", "--set", "lam=1e300"]],
                         ids=["eigen_tiny_domain", "solve_huge_lam"])
def test_error_exit_prints_only_its_error_line(sub_cfg, tmp_path, argv):
    # both overflow in numpy first; its RuntimeWarnings came before the line
    src = str(Path(fplogistic.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "fplogistic", *argv, "--config", str(sub_cfg),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 2, done.stdout
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: non-finite ")


def _warning_eigenpair(monkeypatch, then=None):
    """principal_eigenpair that warns first, then raises ``then`` if given."""
    import fplogistic.cli

    solve = fplogistic.cli.principal_eigenpair

    def warning_solve(kw, opts=None):
        warnings.warn("probe warning", RuntimeWarning)
        if then is not None:
            raise then
        return solve(kw, opts)

    monkeypatch.setattr(fplogistic.cli, "principal_eigenpair", warning_solve)


def test_successful_run_passes_its_warnings_on(sub_cfg, tmp_path, monkeypatch):
    _warning_eigenpair(monkeypatch)
    argv = ["eigen", "--config", str(sub_cfg), "--out", str(tmp_path / "out")]
    with pytest.warns(RuntimeWarning, match="probe warning"):
        assert main(argv) == 0
    # under the test suite's error filter the warning still raises
    with pytest.raises(RuntimeWarning, match="probe warning"):
        main(argv)


def test_error_exit_drops_its_warnings(sub_cfg, tmp_path, monkeypatch, capsys):
    _warning_eigenpair(monkeypatch, then=EigenError("no eigenpair"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eigen", "--config", str(sub_cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert caught == []
    assert capsys.readouterr().err == "error: no eigenpair\n"


def test_eigen_p3_meets_the_residual_tolerance(tmp_path, capsys):
    cfg = P3_CFG.replace("q = 4.0", "q = 3.5").replace("r = 5.0", "r = 4.0") \
        .replace("n = 32", "n = 64")
    res = _report(tmp_path, cfg, ["eigen"])
    assert res["residual"] <= 1e-8
    res = _report(tmp_path, cfg, ["eigen", "--set", "solver.residual_tol=1e-10"])
    assert res["residual"] <= 1e-10


@pytest.fixture()
def descend_options(monkeypatch):
    """(residual_tol, max_iters) of every descend call, in order."""
    import fplogistic.descent

    descend = fplogistic.descent.descend
    seen = []

    def spy(func, u0, opts, what):
        seen.append((opts.residual_tol, opts.max_iters))
        return descend(func, u0, opts, what)

    for name, module in list(sys.modules.items()):
        if name.startswith("fplogistic") and \
                getattr(module, "descend", None) is descend:
            monkeypatch.setattr(module, "descend", spy)
    return seen


@pytest.mark.parametrize("argv", [["verify", "--regime", "all"],
                                  ["refine", "--ns", "8,16,32"]],
                         ids=["verify_all", "refine"])
def test_every_descent_stops_on_the_solver_options(sub_cfg, tmp_path, capsys,
                                                   descend_options, argv):
    code = main([*argv, "--config", str(sub_cfg),
                 "--set", "solver.residual_tol=1e-9",
                 "--set", "solver.max_iters=40000",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(descend_options) > 3
    assert set(descend_options) == {(1e-9, 40000)}


@pytest.mark.parametrize("seed", range(4))
def test_sweep_from_random_starts_with_zero_cells_exits_zero(sub_cfg, tmp_path,
                                                             capsys, seed):
    # the random start descends to a profile with zero cells at the smallest
    # intensity, and that profile warm-starts the next point; the values are
    # not pinned, since the chain stops at sup ~1e-19 below the absolute
    # residual_tol
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(sub_cfg),
                 "--set", "solver.initial=random", "--set", f"solver.seed={seed}",
                 "--lams", "0.0625,0.125,0.25,0.5,1", "--out", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len((out / "branch.csv").read_text().splitlines()) == 6


@pytest.fixture()
def eigen_solves(monkeypatch):
    """The seed of every principal_eigenpair call, in order."""
    import fplogistic.cli
    from fplogistic.eigen import principal_eigenpair

    seen = []

    def spy(kw, opts=None):
        seen.append(opts.seed)
        return principal_eigenpair(kw, opts)

    monkeypatch.setattr(fplogistic.cli, "principal_eigenpair", spy)
    return seen


@pytest.mark.parametrize("argv, solves", [
    (["solve"], 1),
    (["sweep", "--lams", "1,2,3,4,5,6,8"], 1),
    (["sweep", "--lams", "1,2,8", "--set", "solver.initial=random"], 0),
    (["threshold"], 1),
    (["mountain-pass", "--set", "lam=10"], 1),
], ids=["solve", "sweep", "sweep_random", "threshold", "mountain_pass"])
def test_one_eigenpair_per_command_with_the_configured_restarts(
        super_cfg, tmp_path, capsys, eigen_solves, argv, solves):
    # below lambda*_h every sweep point collapses and the next starts cold;
    # the one eigen descent starts from the configured seed
    code = main([*argv, "--config", str(super_cfg), "--set", "solver.seed=4",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert eigen_solves == [4] * solves


def test_threshold_command_super(super_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["threshold", "--config", str(super_cfg),
                 "--out", str(out)]) == 0
    assert "lambda_star_h" in capsys.readouterr().out
    doc = json.loads((out / "report.json").read_text())
    assert doc["results"]["lambda_star_h"] >= doc["results"]["lambda_0"]
    assert (out / "branch.csv").exists()
    assert (out / "solution.csv").exists()


def test_mountain_pass_not_found_in_sub(sub_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["mountain-pass", "--config", str(sub_cfg),
                 "--out", str(out)])
    assert code == 0
    assert "not_found" in capsys.readouterr().out
    doc = json.loads((out / "report.json").read_text())
    assert doc["results"]["status"] == "not_found"
    # no barrier: the search ran no descent and has no residual
    assert doc["results"]["residual"] is None


@pytest.mark.parametrize("nodes", [2, 1, 0, -1])
def test_mountain_pass_too_few_nodes_exits_one(super_cfg, tmp_path, capsys,
                                               nodes):
    # the saddle search no longer samples the segment, so mp.nodes is gone:
    # a config that still sets it exits 1 on the unknown key, in one line
    code = main(["mountain-pass", "--config", str(super_cfg),
                 "--set", f"mp.nodes={nodes}", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "mp.nodes" in err
    assert "unknown key" in err


def test_threshold_p3_collapses_past_the_fold(tmp_path, capsys):
    # past the fold the warm descent stalls at a tiny iterate whose absolute
    # residual is already below tolerance; it must not count as solvable
    cfg = tmp_path / "p3.cfg"
    cfg.write_text(P3_CFG)
    out = tmp_path / "out"
    assert main(["threshold", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["results"]["lambda_star_h"] >= doc["results"]["lambda_0"]


def test_threshold_2d_passes_the_fold(tmp_path, capsys):
    # the probe just above lambda*_h = 22.39 starts next to the fold, where
    # mass-metric steps creep until the iteration cap; steps in the metric
    # of K, and Newton steps on the full Hessian, converge there as fast as
    # at the probes before it
    cfg = tmp_path / "fold2d.cfg"
    cfg.write_text(SUB_CFG.replace("dim = 1", "dim = 2")
                   .replace("q = 1.5", "q = 2.5").replace("r = 3.0", "r = 3.2")
                   .replace("n = 16", "n = 8")
                   .replace("domain.lo = 0.0", "domain.lo = 0.0,0.0")
                   .replace("domain.hi = 1.0", "domain.hi = 1.0,1.0")
                   + "threshold.bracket_tol = 1e-2\n")
    out = tmp_path / "out"
    assert main(["threshold", "--config", str(cfg), "--out", str(out)]) == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["lambda_star_h"] >= res["lambda_0"]
    assert abs(res["lambda_star_h"] - 22.388) <= 1e-2


def test_verify_all_p3_certifies_equi_nonexistence(tmp_path, capsys):
    # for p = 3 the equi trials reach the residual tolerance at sup ~1e-4,
    # where the gradient, which scales like u^(p-1), is already that small;
    # the energy only rises along their rays, so they are reported
    # collapsed, and the coercive certificate bounds them
    cfg = tmp_path / "p3.cfg"
    cfg.write_text(P3_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--regime", "all",
                 "--out", str(out)]) == 0
    assert "equi/nonexistence_below_eigenvalue: PASS" in capsys.readouterr().out
    witness = (out / "verify_equi_nonexistence_below_eigenvalue.csv").read_text()
    assert witness.count('""collapsed""') == 5


def test_solve_between_threshold_and_zero_energy_crossing(tmp_path, capsys):
    # lambda*_h = 7.543 here; at lam = 8 the free energy along the
    # eigenfunction ray has a local minimum past its peak, but a positive
    # one, and the eigen start must still pick it up
    cfg = tmp_path / "super64.cfg"
    cfg.write_text(SUPER_CFG.replace("n = 16", "n = 64")
                   .replace("lam = 1.0", "lam = 8.0"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["results"]["status"] == "converged"
    assert doc["results"]["sup_norm"] > 1.0


# the benchmark's verify_1d configuration: q < p, so every lam > 0 has a
# positive solution, of sup norm below 1e-6 once lam <= 0.01
V1D_CFG = SUB_CFG.replace("n = 16", "n = 64")


def _report(tmp_path, cfg_text, argv):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["results"]


@pytest.mark.parametrize("lam", [0.01, 0.003, 0.001])
def test_tiny_sublinear_solution_is_converged(tmp_path, capsys, lam):
    res = _report(tmp_path, V1D_CFG, ["solve", "--set", f"lam={lam}"])
    assert res["status"] == "converged"
    assert 0.0 < res["sup_norm"] < 1e-6


def test_sublinear_sweep_down_to_tiny_intensities_converges(tmp_path, capsys):
    res = _report(tmp_path, V1D_CFG,
                  ["sweep", "--lams", "0.0005,0.001,0.002,0.004,0.01,0.03"])
    points = res["points"]
    assert [pt["status"] for pt in points] == ["converged"] * 6
    sups = [pt["sup_norm"] for pt in points]
    assert 0.0 < sups[0] and all(a < b for a, b in zip(sups, sups[1:]))


def test_2d_tiny_sublinear_solution_reaches_the_residual_tolerance(tmp_path,
                                                                   capsys):
    cfg = (V1D_CFG.replace("dim = 1", "dim = 2").replace("n = 64", "n = 16")
           .replace("domain.lo = 0.0", "domain.lo = 0.0,0.0")
           .replace("domain.hi = 1.0", "domain.hi = 1.0,1.0"))
    res = _report(tmp_path, cfg, ["solve", "--set", "lam=0.03"])
    assert res["status"] == "converged"
    assert res["residual"] <= 1e-8
    assert res["sup_norm"] > 0.0


@pytest.mark.parametrize("lam", [3.0, 5.0])
def test_linear_reaction_below_eigenvalue_collapses(tmp_path, capsys, lam):
    # q = p = 3: no positive solution below lambda1 = 11.48; the random start
    # reaches the residual tolerance at sup ~4e-5, where the gradient
    # (of order u^(p-1)) is already that small, and must not count as one
    cfg = (P3_CFG.replace("q = 4.0", "q = 3.0").replace("r = 5.0", "r = 4.0")
           + "solver.initial = random\n")
    res = _report(tmp_path, cfg, ["solve", "--set", f"lam={lam}"])
    assert res["status"] == "collapsed"


@pytest.mark.parametrize("argv, needle", [
    (["solve", "--set", "q=1.0000000001", "--set", "r=1.0000000002"],
     "extrema t of Phi along a ray"),
    (["threshold", "--set", "q=2.001", "--set", "r=2.002"],
     "threshold lower bound"),
], ids=["solve_ray_extrema", "threshold_lower_bound"])
def test_solution_scale_overflow_exits_two_in_one_line(tmp_path, capsys, argv,
                                                       needle):
    # the solution scale lam^(1/(r - q)) lies beyond float64
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(SUB_CFG.replace("lam = 1.0", "lam = 12.0"))
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "overflow" in err
    assert needle in err


@pytest.mark.parametrize("argv, needle", [
    (["threshold"], "q = 1.5, p = 2.0"),
    (["sweep", "--lams", "abc"], "--lams"),
    (["sweep", "--lams", "1,,2"], "--lams"),
    (["sweep", "--lams=-1,2"], "--lams"),
    (["refine", "--ns", "4,x"], "--ns"),
    (["refine", "--ns", "64,32,16"], "--ns"),
    (["refine", "--ns", "16,16,32"], "--ns"),
    (["solve", "--set", "lam=-1"], "lam"),
    (["solve", "--set", "solver.initial=bogus"], "solver.initial"),
    (["solve", "--set", "solver.initial=zero"], "solver.initial"),
    (["solve", "--set", "solver.seed=-1"], "solver.seed"),
    (["solve", "--set", "threshold.bracket_tol=0"], "bracket_tol"),
    # a removed key: the walk starts where the ray bound certifies a solution
    (["solve", "--set", "threshold.lambda_high=-1"],
     "unknown key 'threshold.lambda_high'"),
    (["solve", "--set", "p=nan"], "p = nan"),
    (["solve", "--set", "q=nan"], "q = nan"),
    (["solve", "--set", "r=nan"], "r = nan"),
    (["solve", "--set", "lam=inf"], "lam"),
    (["solve", "--set", "solver.residual_tol=nan"], "residual_tol"),
    (["torsion", "--set", "solver.residual_tol=nan"], "residual_tol"),
    (["solve", "--set", "solver.residual_tol=0"], "residual_tol"),
    (["solve", "--set", "solver.residual_tol=-1"], "residual_tol"),
    (["solve", "--set", "solver.max_iters=-1"], "max_iters"),
    (["solve", "--set", "solver.collapse_tol=1e-6"], "unknown key"),
    (["solve", "--set", "domain.hi=inf"], "domain side"),
    (["solve", "--set", "eigen.restarts=0"], "unknown key 'eigen.restarts'"),
    (["solve", "--set", "eigen.restarts=-1"], "unknown key 'eigen.restarts'"),
    # --out is the one way to name the output directory
    (["solve", "--set", "output.dir=elsewhere"], "unknown key 'output.dir'"),
    # a key given twice is refused, by flags as in the file
    (["solve", "--set", "lam=2.0", "--set", "lam=3.0"], "duplicate key 'lam'"),
    (["eigen", "--set", "n=8193"], "4096"),
    (["eigen", "--set", "dim=2", "--set", "domain.lo=0,0",
      "--set", "domain.hi=1,1e9", "--set", "n=4"], "capped at 2048"),
], ids=["threshold_sub", "lams_text", "lams_empty", "lams_negative",
        "ns_text", "ns_decreasing", "ns_repeated", "lam_negative",
        "initial_bogus", "initial_zero", "seed_negative", "bracket_tol_zero",
        "lambda_high_negative", "p_nan", "q_nan", "r_nan", "lam_inf",
        "residual_tol_nan", "torsion_residual_tol_nan", "residual_tol_zero",
        "residual_tol_negative", "max_iters_negative", "collapse_tol_key",
        "domain_hi_inf", "restarts_zero", "restarts_negative", "output_dir_key",
        "set_key_twice", "dense_cap", "aspect_cap"])
def test_bad_input_exits_one_in_one_line(sub_cfg, tmp_path, capsys, argv,
                                         needle):
    code = main([*argv, "--config", str(sub_cfg),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert needle in err
    # inputs are checked before the output directory is made
    assert not (tmp_path / "out").exists()


def test_2d_ps_at_least_one_exits_one(tmp_path, capsys):
    # piecewise-constant cells cannot represent 2D p*s >= 1: rejected with
    # the parameters, before any assembly
    cfg = tmp_path / "ps12.cfg"
    cfg.write_text(SUB_CFG.replace("dim = 1", "dim = 2")
                   .replace("s = 0.4", "s = 0.6")
                   .replace("domain.lo = 0.0", "domain.lo = 0.0,0.0")
                   .replace("domain.hi = 1.0", "domain.hi = 1.0,1.0"))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "infinite W^{s,p} energy" in err


SQUARE_CFG = (SUB_CFG.replace("dim = 1", "dim = 2").replace("n = 16", "n = 4")
              .replace("domain.lo = 0.0", "domain.lo = 0.0,0.0")
              .replace("domain.hi = 1.0", "domain.hi = 1.0,1.0"))


def test_verify_all_2d_p2_runs_every_bundle(tmp_path, capsys):
    # the canonical super r = p + 2 = 4 lies above p_star = 10/3 here, so
    # the bundle's q and r split (p, p_star) = (2, 10/3) into thirds
    cfg = tmp_path / "square.cfg"
    cfg.write_text(SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--regime", "all",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for regime in ("sub", "equi", "super"):
        assert f"{regime}/" in text
    assert "FAIL" not in text


def test_kernel_order_disagreement_exits_two_in_one_line(monkeypatch, tmp_path,
                                                         capsys):
    import fplogistic.kernel as kernel
    monkeypatch.setattr(kernel, "_GAUSS_ORDERS", (2, 20))
    cfg = tmp_path / "square.cfg"
    cfg.write_text(SQUARE_CFG)
    code = main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "disagree" in err


def test_verify_sub_bundle(sub_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify", "--config", str(sub_cfg), "--regime", "sub",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "sub/strict_order: PASS" in text
    assert "sub/hopf_boundary_growth: PASS" in text
    assert (out / "verify_sub_strict_order.csv").exists()
    doc = json.loads((out / "report.json").read_text())
    assert all(c["verdict"] == "PASS" for c in doc["results"]["checks"])


def test_refine_study(sub_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["refine", "--config", str(sub_cfg), "--ns", "8,16,32",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "eigenvalue_refinement: PASS" in text
    lines = (out / "refine.csv").read_text().splitlines()
    assert lines[0] == "n,lambda1,lambda_star_h,sup_norm,status"
    assert len(lines) == 4


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("argv, files, keys", [
    (["eigen"], ["eigen.csv"],
     ["iterations", "lambda1", "residual"]),
    (["torsion"], ["solution.csv"],
     ["energy", "iterations", "residual", "status", "sup_norm"]),
    (["solve"], ["solution.csv"],
     ["energy", "iterations", "lam", "residual", "status", "sup_norm"]),
    (["sweep", "--lams", "0.5,1"], ["branch.csv"], ["points"]),
    (["threshold", "--set", "q=3.0", "--set", "r=4.0",
      "--set", "threshold.bracket_tol=0.05"], ["branch.csv", "solution.csv"],
     ["bracket_width", "lambda_0", "lambda_ray", "lambda_star_h", "sup_norm"]),
    (["mountain-pass"], ["saddle.csv", "solution.csv"],
     ["iterations", "lam", "residual", "status", "sup_branch", "sup_saddle"]),
    (["verify"], ["verify_sub_hopf_boundary_growth.csv",
                  "verify_sub_limit_branch.csv", "verify_sub_strict_order.csv"],
     ["checks"]),
    (["refine", "--ns", "8,16"], ["refine.csv"], ["checks", "rows"]),
], ids=["eigen", "torsion", "solve", "sweep", "threshold", "mountain_pass",
        "verify", "refine"])
def test_each_command_writes_its_files_and_report(sub_cfg, tmp_path, capsys,
                                                  argv, files, keys):
    out = tmp_path / "out"
    assert main([*argv, "--config", str(sub_cfg), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(
        [*files, "report.json"])
    # strict JSON (RFC 8259): NaN and Infinity are no JSON numbers
    doc = json.loads((out / "report.json").read_text(),
                     parse_constant=_no_constant)
    assert doc["command"] == argv[0]
    assert sorted(doc["results"]) == keys


def test_error_exit_writes_no_file(tmp_path, capsys):
    # the super bundle's threshold walk hits the iteration cap after the
    # sub and equi bundles have printed their verdicts
    cfg = tmp_path / "p3.cfg"
    cfg.write_text(P3_CFG.replace("s = 0.3", "s = 0.1").replace("n = 32", "n = 6")
                   .replace("q = 4.0", "q = 2.0").replace("r = 5.0", "r = 4.0")
                   + "solver.max_iters = 50\n")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--regime", "all",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "equi/nonexistence_below_eigenvalue: PASS" in captured.out
    assert captured.err.startswith("error: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["eigen", "solve", "verify", "refine"])
def test_out_that_is_a_file_exits_one_before_assembly(sub_cfg, tmp_path, capsys,
                                                      monkeypatch, command):
    import fplogistic.cli
    from fplogistic.kernel import assemble

    assembled = []
    monkeypatch.setattr(fplogistic.cli, "assemble",
                        lambda *args: assembled.append(args) or assemble(*args))
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    code = main([command, "--config", str(sub_cfg), "--out", str(taken)])
    captured = capsys.readouterr()
    assert code == 1
    assert assembled == []
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_refine_exits_two_on_a_capped_solve(tmp_path, capsys):
    # the n = 16 branch solve stops at the cap, at residual 4.2e-8; refine
    # used to record its row as max_iters and pass the eigenvalue check
    cfg = tmp_path / "p3.cfg"
    cfg.write_text(P3_CFG.replace("n = 32", "n = 16").replace("q = 4.0", "q = 2.0")
                   .replace("r = 5.0", "r = 4.0"))
    out = tmp_path / "out"
    code = main(["refine", "--config", str(cfg), "--ns", "4,8,16",
                 "--set", "solver.max_iters=48", "--out", str(out)])
    assert code == 2
    assert re.fullmatch(
        r"error: branch solve at lam = 1 stopped after 48 of 48 iterations "
        r"\(residual \S+\); raise solver\.max_iters\n", capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_refine_checks_every_grid_before_solving(sub_cfg, tmp_path, capsys):
    # n = 9000 folds past the dense cap; no smaller n is solved first
    out = tmp_path / "out"
    code = main(["refine", "--config", str(sub_cfg), "--ns", "8,16,9000",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "4096" in captured.err
    assert not out.exists()


def test_refine_rejects_a_weights_cache(sub_cfg, tmp_path, capsys):
    cache = tmp_path / "weights.npz"
    code = main(["refine", "--config", str(sub_cfg), "--ns", "8,16",
                 "--weights-cache", str(cache), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: refine assembles one grid per n")
    assert captured.err.count("\n") == 1
    assert not cache.exists()


def test_set_without_equals_exits_one(sub_cfg, tmp_path, capsys):
    code = main(["eigen", "--config", str(sub_cfg), "--set", "lam",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: --set expects KEY=VALUE, got 'lam'\n"


def test_sweep_without_lams_halves_lam_six_times(sub_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sub_cfg), "--out", str(out)]) == 0
    points = json.loads((out / "report.json").read_text())["results"]["points"]
    assert [pt["lambda"] for pt in points] == [2.0 ** -k for k in range(6, -1, -1)]
    assert all(pt["status"] == "converged" for pt in points)


@pytest.mark.parametrize("argv, needle", [
    (["--set", "solver.initial=random", "--set", "solver.max_iters=1"],
     "error: branch solve at lam = 1 stopped after 1 of 1 iterations "
     "(residual "),
    (["--set", "q=3.0", "--set", "r=4.0"],
     "error: no branch solution at lam = 1 to anchor the saddle search "
     "(status collapsed)\n"),
], ids=["stopped_short", "collapsed"])
def test_mountain_pass_without_an_anchor_exits_two_in_one_line(
        sub_cfg, tmp_path, capsys, argv, needle):
    out = tmp_path / "out"
    code = main(["mountain-pass", "--config", str(sub_cfg), *argv,
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(needle) and captured.err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_verify_writes_the_notes_of_a_skipped_check(tmp_path, capsys):
    # above lambda1 the equi nonexistence check is out of scope
    cfg = tmp_path / "equi.cfg"
    cfg.write_text(SUB_CFG.replace("q = 1.5", "q = 2.0")
                   .replace("lam = 1.0", "lam = 100.0"))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert "equi/nonexistence_below_eigenvalue: SKIP  (requires lam <= " \
        "lambda1" in capsys.readouterr().out
    rows = (out / "verify_equi_nonexistence_below_eigenvalue.csv") \
        .read_text().splitlines()
    assert rows[:2] == ["key,value", "verdict,SKIP"]
    assert rows[-1] == ('notes,"requires lam <= lambda1, got lam = 100, '
                        'lambda1 = 15.6522"')


def test_refine_super_refines_the_threshold(super_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["refine", "--config", str(super_cfg), "--ns", "8,16,32",
                 "--set", "lam=30", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "threshold_refinement: PASS" in text
    lines = (out / "refine.csv").read_text().splitlines()
    assert len(lines) == 4
    assert all(float(line.split(",")[2]) > 0.0 for line in lines[1:])
    doc = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in doc["results"]["checks"]]
    assert names == ["eigenvalue_refinement", "threshold_refinement"]
