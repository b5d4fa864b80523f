from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from fplogistic import __version__
from fplogistic.config import (ConfigError, RunConfig, SCHEMA_VERSION,
                               config_dict, load_config,
                               to_problem, write_branch_csv, write_report,
                               write_solution_csv)
from fplogistic.domain import Regime, classify_regime
from fplogistic.solve import BranchPoint

MINIMAL = """\
# logistic run on the unit interval
dim = 1
s = 0.4
p = 2.0
q = 1.5
r = 3.0
lam = 1.0
n = 64
domain.lo = 0.0
domain.hi = 1.0
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_loads(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.dim == 1
    assert cfg.n == 64
    assert cfg.domain_lo == (0.0,)
    assert cfg.solver_max_iters == 50_000
    params, grid = to_problem(cfg)
    assert classify_regime(params) is Regime.SUB
    assert grid.ncells == 64


def test_unknown_key_reports_line(tmp_path):
    path = _write(tmp_path, MINIMAL + "sover.seed = 3\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:11: unknown key 'sover.seed'"):
        load_config(path)


def test_duplicate_key_reports_line(tmp_path):
    path = _write(tmp_path, MINIMAL + "lam = 2.0\n")
    with pytest.raises(ConfigError, match=r":11: duplicate key 'lam'"):
        load_config(path)


def test_bad_value_reports_line_and_value(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("n = 64", "n = sixty"))
    with pytest.raises(ConfigError, match=r":8: bad value for 'n': 'sixty'"):
        load_config(path)


def test_missing_required_key(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("p = 2.0\n", ""))
    with pytest.raises(ConfigError, match="missing required key: p"):
        load_config(path)


def test_non_kv_line_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "just words\n")
    with pytest.raises(ConfigError, match=":11: expected key = value"):
        load_config(path)


def test_domain_length_must_match_dim(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("domain.hi = 1.0",
                                            "domain.hi = 1.0, 1.0"))
    with pytest.raises(ConfigError, match="dim = 1 coordinates"):
        load_config(path)


def test_env_overrides_file(tmp_path):
    path = _write(tmp_path, MINIMAL)
    env = {"FPLOG_SOLVER__MAX_ITERS": "123", "FPLOG_LAM": "4.5",
           "UNRELATED": "x"}
    cfg = load_config(path, env=env)
    assert cfg.solver_max_iters == 123
    assert cfg.lam == 4.5


def test_unknown_env_key_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL)
    with pytest.raises(ConfigError, match="FPLOG_TYPO"):
        load_config(path, env={"FPLOG_TYPO": "1"})


def test_flag_precedence_over_env_and_file(tmp_path):
    path = _write(tmp_path, MINIMAL)
    cfg = load_config(path, env={"FPLOG_LAM": "4.5"}, flags={"lam": "9.0"})
    assert cfg.lam == 9.0
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path, flags={"lambda": "9.0"})


def test_comments_and_blank_lines_ignored(tmp_path):
    noisy = MINIMAL.replace("lam = 1.0", "lam = 1.0   # intensity\n\n")
    cfg = load_config(_write(tmp_path, noisy))
    assert cfg.lam == 1.0


def test_config_dict_uses_file_keys(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    d = config_dict(cfg)
    assert d["solver.max_iters"] == 50_000
    assert d["domain.lo"] == [0.0]
    assert d["threshold.lambda_high"] is None


def test_report_json_holds_timestamp_and_schema(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    path = write_report(tmp_path / "out", cfg, "solve", {"sup": 1.25})
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["version"] == __version__
    assert doc["results"] == {"sup": 1.25}
    assert doc["command"] == "solve"
    assert "created" in doc
    assert doc["config"]["n"] == 64


def test_solution_csv_reproducible_and_timestamp_free(tmp_path, grid32):
    values = np.linspace(0.0, 1.0, grid32.ncells) ** 2
    p1 = write_solution_csv(tmp_path / "a.csv", grid32, values, 0.4)
    p2 = write_solution_csv(tmp_path / "b.csv", grid32, values, 0.4)
    assert p1.read_bytes() == p2.read_bytes()
    head = p1.read_text().splitlines()
    assert head[0] == "cell_index,x,value,d,ratio"
    assert len(head) == 1 + grid32.ncells
    cells = head[1].split(",")
    assert cells[1] == repr(float(grid32.centers[0, 0]))


def test_solution_csv_2d_columns(tmp_path, grid2d):
    values = np.ones(grid2d.ncells)
    path = write_solution_csv(tmp_path / "c.csv", grid2d, values, 0.4)
    assert path.read_text().splitlines()[0] == "cell_index,x,y,value,d,ratio"


def _per_cell_solution_csv(path, grid, values, s):
    # one cell at a time, every number through float and repr
    d = grid.boundary_dist
    ratio = values / d ** s
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_index", *["x", "y"][:grid.dim], "value", "d",
                         "ratio"])
        for i in range(grid.ncells):
            coords = [repr(float(c)) for c in np.atleast_1d(grid.centers[i])]
            writer.writerow([i, *coords, repr(float(values[i])),
                             repr(float(d[i])), repr(float(ratio[i]))])
    return path


@pytest.mark.parametrize("dim", [1, 2])
def test_solution_csv_bytes_match_a_per_cell_writer(tmp_path, grid32, grid2d,
                                                    dim):
    grid = grid32 if dim == 1 else grid2d
    values = np.random.default_rng(dim).uniform(-1e-300, 1e3, grid.ncells)
    values[:3] = [0.0, 1e-17, 1.0 / 3.0]
    ours = write_solution_csv(tmp_path / "a.csv", grid, values, 0.4)
    ref = _per_cell_solution_csv(tmp_path / "b.csv", grid, values, 0.4)
    assert ours.read_bytes() == ref.read_bytes()


def test_branch_csv_layout(tmp_path):
    pts = [BranchPoint(lam=1.0, sup_norm=0.5, energy=-0.25,
                       status="converged"),
           BranchPoint(lam=0.5, sup_norm=0.1, energy=-0.01,
                       status="collapsed")]
    path = write_branch_csv(tmp_path / "branch.csv", pts)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,sup_norm,energy,status"
    assert lines[1] == "1.0,0.5,-0.25,converged"
    assert len(lines) == 3


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_default_config_requires_explicit_problem():
    with pytest.raises(ConfigError, match="missing required key"):
        load_config(None, env={}, flags={})
