"""README.md names only what exists: every config key, no stale dotted name."""

from __future__ import annotations

import dataclasses
import importlib
import re
from pathlib import Path

import fplogistic
from fplogistic.config import _KEYS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# inline code spans that are one dotted name, such as `kernel.fold`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
FILE_SUFFIXES = (".csv", ".json", ".cfg", ".npz")
# dotted names of other packages and of the README's own code example
ALLOWED = {"numpy.random", "kw.p"}


def _resolves(name: str) -> bool:
    """Whether name is an attribute path on fplogistic or one of its modules."""
    head, *rest = name.split(".")
    obj = getattr(fplogistic, head, None)
    if obj is None:
        try:
            obj = importlib.import_module(f"fplogistic.{head}")
        except ImportError:
            return False
    for part in rest:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {
                f.name for f in dataclasses.fields(obj)}:
            obj = None  # a field without a class-level default
        else:
            return False
    return True


def test_every_config_key_is_documented():
    missing = [key for key in _KEYS if f"`{key}`" not in README]
    assert missing == []


def test_every_dotted_name_in_the_readme_exists():
    stale = sorted({name for name in DOTTED.findall(README)
                    if name not in _KEYS and name not in ALLOWED
                    and not name.endswith(FILE_SUFFIXES)
                    and not _resolves(name)})
    assert stale == []
