"""Content-addressed character table cache.

Tables are stored one JSON document per group under a cache directory,
keyed by the group's content hash (a hash of its multiplication structure,
so relabeled copies of the same group share an entry).  The directory is
resolved from, in order: an explicit argument, the ZAMEN_CACHE_DIR
environment variable, and the default ``.zamen-cache`` under the current
directory.  Writes go through a temp file and rename, so a cache file is
always a complete document.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path

from .characters import DEFAULT_CERT_TOL, CharacterTable, _certification_residual, character_table
from .characters import _check_tolerance
from .groups import ConjugacyStructure, FiniteGroup, conjugacy_structure
from .specio import SpecError, character_table_payload, load_character_table, stable_json

__all__ = ["DEFAULT_CACHE_DIRNAME", "CACHE_ENV_VAR", "resolve_cache_dir", "cached_character_table"]

DEFAULT_CACHE_DIRNAME = ".zamen-cache"
CACHE_ENV_VAR = "ZAMEN_CACHE_DIR"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_CACHE_DIRNAME


def cached_character_table(
    group: FiniteGroup,
    cs: ConjugacyStructure | None = None,
    cache_dir: str | os.PathLike | None = None,
    *,
    certification_tol: float = DEFAULT_CERT_TOL,
) -> tuple[CharacterTable, bool]:
    """Return the group's character table and whether it came from cache.

    A readable entry that fails validation (different group, truncated
    file) is recomputed and overwritten rather than trusted.  So is an entry
    whose stored values miss the caller's ``certification_tol``: on a hit the
    row, column and conjugation residuals are recomputed from the loaded
    values, and the table carries the larger of that and the stored residual.
    A ``certification_tol`` that is not positive and finite raises ValueError.
    """
    _check_tolerance(certification_tol)
    cs = cs or conjugacy_structure(group)
    directory = resolve_cache_dir(cache_dir)
    path = directory / f"{group.content_hash}.json"
    if path.exists():
        try:
            loaded = load_character_table(json.loads(path.read_text()), cs)
            residual = max(
                loaded.residual,
                _certification_residual(
                    loaded.values, loaded.class_sizes, loaded.order, loaded.inverse_class
                ),
            )
        except (json.JSONDecodeError, SpecError, KeyError, TypeError, ValueError, IndexError):
            pass
        else:
            if residual <= certification_tol:
                return dataclasses.replace(loaded, residual=residual), True
    table = character_table(group, cs, certification_tol=certification_tol)
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(stable_json(character_table_payload(table)))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return table, False
