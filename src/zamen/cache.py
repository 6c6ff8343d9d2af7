"""Content-addressed character table cache: one ``<content_hash>.npz`` per group.

The hash covers only the multiplication structure, so copies that differ only in
their label share an entry.  An entry holds the table's ``TABLE_ARRAYS``, which
reload bit for bit; ``CharacterTable.from_arrays``, the check that
``specio.load_character_table`` applies to documents too, binds them to the
group.  It stores no residual, since a loaded table computes its own from its
values.  ``.json`` entries and ``.npz`` entries under ``group-v1`` hashes, both
of earlier versions, are never read.  The directory is an explicit argument,
else ZAMEN_CACHE_DIR, else ``.zamen-cache`` in the current directory; a temp
file and rename keep entries whole.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from .characters import DEFAULT_CERT_TOL, TABLE_ARRAYS, CharacterTable, _check_group, _check_tolerance, character_table
from .groups import ConjugacyStructure, FiniteGroup, conjugacy_structure

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


def _load_entry(path: Path, cs: ConjugacyStructure) -> CharacterTable | None:
    """The stored table, or None if unreadable or not bound to ``cs``."""
    try:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as entry:
            return CharacterTable.from_arrays(cs, entry)
    except (OSError, EOFError, RuntimeError, zipfile.BadZipFile, ValueError, KeyError, TypeError):
        return None


def cached_character_table(
    group: FiniteGroup,
    cs: ConjugacyStructure | None = None,
    cache_dir: str | os.PathLike | None = None,
    *,
    certification_tol: float = DEFAULT_CERT_TOL,
) -> tuple[CharacterTable, bool]:
    """Return the group's character table and whether it came from cache.

    An entry that is unreadable, refused by ``CharacterTable.from_arrays`` or
    above the caller's ``certification_tol`` is recomputed and overwritten; a
    table's residual is always that of its values, so a hit is certified like a
    fresh table.  A tolerance that is not positive and finite, or a ``cs``
    computed from another group, raises ValueError.
    """
    _check_tolerance(certification_tol)
    cs = cs or conjugacy_structure(group)
    _check_group(group, cs)
    path = resolve_cache_dir(cache_dir) / f"{group.content_hash}.npz"
    cached = _load_entry(path, cs)
    if cached is not None and cached.residual <= certification_tol:
        return cached, True
    table = character_table(group, cs, certification_tol=certification_tol)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        # Saving through the handle keeps numpy from appending ".npz" to the temp name.
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **{name: getattr(table, name) for name in TABLE_ARRAYS})
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return table, False
