"""Run configuration and report output.

Configuration lives in a flat key=value file with '#' comments.  Dotted key
names group related settings.  Environment variables prefixed FPLOG_
override file values (double underscore encodes the dot), and command-line
flags override both.  Reports are a JSON document plus CSV tables whose
float columns use repr formatting, so rerunning a configuration reproduces
the CSV bytes exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .domain import DomainSpec, Grid, ProblemParams, build_grid, validate_params

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

SCHEMA_VERSION = 1
ENV_PREFIX = "FPLOG_"


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, or missing requirement."""


@dataclass
class RunConfig:
    dim: int = 1
    s: float = 0.4
    p: float = 2.0
    q: float = 1.5
    r: float = 3.0
    lam: float = 1.0
    n: int = 64
    domain_lo: tuple[float, ...] = (0.0,)
    domain_hi: tuple[float, ...] = (1.0,)
    solver_residual_tol: float = 1e-8
    solver_max_iters: int = 50_000
    solver_seed: int = 0
    solver_initial: str = "eigen"
    eigen_restarts: int = 1
    threshold_bracket_tol: float = 1e-3
    threshold_lambda_high: float | None = None
    output_dir: str = "out"


def positive_float(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < float("inf"):
        raise ValueError("must be positive and finite")
    return value


def _parse_optional_positive_float(raw: str) -> float | None:
    return None if raw == "" else positive_float(raw)


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("must be nonnegative")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be positive")
    return value


def _parse_initial(raw: str) -> str:
    if raw not in ("eigen", "random"):
        raise ValueError("must be eigen or random")
    return raw


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


# key name in file -> (attribute, parser, required)
_KEYS: dict[str, tuple[str, object, bool]] = {
    "dim": ("dim", int, True),
    "s": ("s", float, True),
    "p": ("p", float, True),
    "q": ("q", float, True),
    "r": ("r", float, True),
    "lam": ("lam", positive_float, True),
    "n": ("n", int, True),
    "domain.lo": ("domain_lo", _parse_floats, True),
    "domain.hi": ("domain_hi", _parse_floats, True),
    "solver.residual_tol": ("solver_residual_tol", positive_float, False),
    "solver.max_iters": ("solver_max_iters", _nonnegative_int, False),
    "solver.seed": ("solver_seed", _nonnegative_int, False),
    "solver.initial": ("solver_initial", _parse_initial, False),
    "eigen.restarts": ("eigen_restarts", _positive_int, False),
    "threshold.bracket_tol": ("threshold_bracket_tol", positive_float, False),
    "threshold.lambda_high": ("threshold_lambda_high",
                              _parse_optional_positive_float, False),
    "output.dir": ("output_dir", str, False),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _, _) in _KEYS.items()}


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


def _env_overrides(env: dict[str, str]) -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for name, raw in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        if key not in _KEYS:
            raise ConfigError(f"environment variable {name}: unknown key {key!r}")
        out[key] = (raw, f"environment variable {name}")
    return out


def load_config(path: str | Path | None = None,
                env: dict[str, str] | None = None,
                flags: dict[str, str] | None = None) -> RunConfig:
    """Assemble a RunConfig with precedence file < environment < flags."""
    merged: dict[str, tuple[str, str]] = {}
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        merged.update(_parse_kv_lines(text, str(path)))
    if env is not None:
        merged.update(_env_overrides(env))
    for key, raw in (flags or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"flag override: unknown key {key!r}")
        merged[key] = (raw, f"flag {key}")

    cfg = RunConfig()
    seen = set()
    for key, (raw, origin) in merged.items():
        attr, parser, _ = _KEYS[key]
        try:
            setattr(cfg, attr, parser(raw))
        except ValueError as exc:
            raise ConfigError(f"{origin}: bad value for {key!r}: {raw!r} "
                              f"({exc})") from exc
        seen.add(key)
    for key, (_, _, required) in _KEYS.items():
        if required and key not in seen:
            raise ConfigError(f"missing required key: {key}")
    if len(cfg.domain_lo) != cfg.dim or len(cfg.domain_hi) != cfg.dim:
        raise ConfigError(
            f"domain.lo/domain.hi must have dim = {cfg.dim} coordinates, got "
            f"{len(cfg.domain_lo)} and {len(cfg.domain_hi)}")
    return cfg


def config_dict(cfg: RunConfig) -> dict:
    """Config as a JSON-ready mapping keyed by the file key names."""
    out = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[_ATTR_TO_KEY[f.name]] = value
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
