"""Run configuration and report output.

Configuration lives in a flat key=value file with '#' comments.  Dotted key
names group related settings; the attribute of a key is its name with the
dots replaced by underscores.  Command-line ``--set`` flags override file
values, and nothing else does.  Reports are a JSON document plus CSV tables
whose float columns use repr formatting, so rerunning a configuration
reproduces the CSV bytes exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .descent import SolveOptions
from .domain import DomainSpec, Grid, ProblemParams, build_grid, validate_params
from .solve import BRACKET_TOL

__all__ = [
    "ConfigError",
    "RunConfig",
    "SCHEMA_VERSION",
    "load_config",
    "positive_float",
    "config_dict",
    "to_problem",
    "write_report",
    "write_solution_csv",
    "write_branch_csv",
]

SCHEMA_VERSION = 3


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, or missing requirement."""


@dataclass
class RunConfig:
    """One run's settings; a field without a default is a required key."""

    dim: int
    s: float
    p: float
    q: float
    r: float
    lam: float
    n: int
    domain_lo: tuple[float, ...]
    domain_hi: tuple[float, ...]
    # the solver and threshold defaults are those of the library
    solver_residual_tol: float = SolveOptions.residual_tol
    solver_max_iters: int = SolveOptions.max_iters
    solver_seed: int = SolveOptions.seed
    solver_initial: str = SolveOptions.initial
    threshold_bracket_tol: float = BRACKET_TOL


def positive_float(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < float("inf"):
        raise ValueError("must be positive and finite")
    return value


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("must be nonnegative")
    return value


def _parse_initial(raw: str) -> str:
    if raw not in ("eigen", "random"):
        raise ValueError("must be eigen or random")
    return raw


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


# key name in file -> parser of its value; the attribute is the key with
# '.' replaced by '_'
_KEYS = {
    "dim": int,
    "s": float,
    "p": float,
    "q": float,
    "r": float,
    "lam": positive_float,
    "n": int,
    "domain.lo": _parse_floats,
    "domain.hi": _parse_floats,
    "solver.residual_tol": positive_float,
    "solver.max_iters": _nonnegative_int,
    "solver.seed": _nonnegative_int,
    "solver.initial": _parse_initial,
    "threshold.bracket_tol": positive_float,
}


def _parse_kv_lines(text: str, origin: str) -> dict[str, tuple[str, str]]:
    """Parse key=value lines; values keep their origin for error messages."""
    out: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, "
                              f"got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = (raw, f"{origin}:{lineno}")
    return out


def load_config(path: str | Path | None = None,
                flags: dict[str, str] | None = None) -> RunConfig:
    """Assemble a RunConfig from the file, then the flag overrides."""
    merged: dict[str, tuple[str, str]] = {}
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        merged.update(_parse_kv_lines(text, str(path)))
    for key, raw in (flags or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"flag override: unknown key {key!r}")
        merged[key] = (raw, f"flag {key}")

    values = {}
    for key, (raw, origin) in merged.items():
        try:
            values[key.replace(".", "_")] = _KEYS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{origin}: bad value for {key!r}: {raw!r} "
                              f"({exc})") from exc
    required = {f.name for f in fields(RunConfig) if f.default is MISSING}
    for key in _KEYS:
        if key.replace(".", "_") in required and key not in merged:
            raise ConfigError(f"missing required key: {key}")
    cfg = RunConfig(**values)
    if len(cfg.domain_lo) != cfg.dim or len(cfg.domain_hi) != cfg.dim:
        raise ConfigError(
            f"domain.lo/domain.hi must have dim = {cfg.dim} coordinates, got "
            f"{len(cfg.domain_lo)} and {len(cfg.domain_hi)}")
    return cfg


def config_dict(cfg: RunConfig) -> dict:
    """Config as a JSON-ready mapping keyed by the file key names."""
    out = {}
    for key in _KEYS:
        value = getattr(cfg, key.replace(".", "_"))
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def to_problem(cfg: RunConfig) -> tuple[ProblemParams, Grid]:
    params = validate_params(cfg.dim, cfg.s, cfg.p, cfg.q, cfg.r)
    domain = DomainSpec(lo=cfg.domain_lo, hi=cfg.domain_hi)
    return params, build_grid(domain, cfg.n)


def write_report(outdir: str | Path, cfg: RunConfig, command: str,
                 results: dict) -> Path:
    """Write report.json; the timestamp lives only here, never in the CSVs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": config_dict(cfg),
        "results": results,
    }
    path = outdir / "report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def write_solution_csv(path: str | Path, grid: Grid, values: np.ndarray,
                       s: float) -> Path:
    """Cell table with centers, value, boundary distance, and value/d^s."""
    path = Path(path)
    d = grid.boundary_dist
    ratio = values / d ** s
    coord_cols = ["x"] if grid.dim == 1 else ["x", "y"]
    table = np.column_stack([grid.centers, values, d, ratio])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_index", *coord_cols, "value", "d", "ratio"])
        writer.writerows([i, *map(repr, row.tolist())]
                         for i, row in enumerate(table))
    return path


def write_branch_csv(path: str | Path, points) -> Path:
    """Branch table: one row per intensity with sup norm, energy, status."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "sup_norm", "energy", "status"])
        for pt in points:
            writer.writerow([repr(pt.lam), repr(pt.sup_norm),
                             repr(pt.energy), pt.status])
    return path
