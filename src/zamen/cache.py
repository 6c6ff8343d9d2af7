"""Content-addressed character table cache: one ``<content_hash>.table`` per group.

The hash covers only the multiplication structure, so copies that differ only in
their label share an entry.  An entry is one flat file: the 8-byte ``_MAGIC``
(which carries the format version), the CRC-32 of the payload as 8 little-endian
bytes, then the payload, the table's ``TABLE_ARRAYS`` in order: ``values`` as
little-endian complex128 (k x k, row-major) and the four int64 rows
``degrees``, ``class_sizes``, ``class_reps`` and ``inverse_class``.  k is not
stored; an entry must be exactly ``16 + 16k^2 + 32k`` bytes for the group's own
k.  The arrays reload bit for bit, but they are only as reproducible as the
computed table: a many-class table such as Z300's differs in its last bits with
the BLAS thread count, so two thread settings write different entries for it.
``CharacterTable.from_arrays``, the check that ``specio.load_character_table``
applies to documents too, binds them to the group's classes, which
``cached_character_table`` takes as ``cs`` or looks up; a ``cs`` of another
group is refused.  No residual is stored, since a loaded
table computes its own from its values.  ``.json`` and ``.npz`` entries, all of
earlier versions, are never read.  The directory is an explicit argument, else
ZAMEN_CACHE_DIR, else ``.zamen-cache`` in the current directory; a temp file and
rename keep entries whole.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .characters import DEFAULT_CERT_TOL, TABLE_ARRAYS, CharacterTable, _check_tolerance, character_table
from .groups import ConjugacyStructure, FiniteGroup, conjugacy_structure

__all__ = ["DEFAULT_CACHE_DIRNAME", "CACHE_ENV_VAR", "resolve_cache_dir", "cached_character_table"]

DEFAULT_CACHE_DIRNAME = ".zamen-cache"
CACHE_ENV_VAR = "ZAMEN_CACHE_DIR"
_MAGIC = b"ZAMTAB\x00\x01"  # the last two bytes are the format version
_HEADER = 16  # the magic, then the payload's CRC-32 as 8 little-endian bytes


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_CACHE_DIRNAME


def _encode(values: np.ndarray, *rows: np.ndarray) -> list[bytes | np.ndarray]:
    """An entry as the pieces to write in order: the header, then each array's little-endian bytes.

    Arrays that are already contiguous and little-endian are their own pieces, so
    the entry is never copied whole.
    """
    payload = [np.ascontiguousarray(values, "<c16"), *(np.ascontiguousarray(row, "<i8") for row in rows)]
    crc = 0
    for piece in payload:
        crc = zlib.crc32(piece, crc)
    return [_MAGIC + crc.to_bytes(8, "little"), *payload]


def _decode(data: bytes, k: int) -> dict[str, np.ndarray]:
    """The ``TABLE_ARRAYS`` of an entry for k classes, as read-only views of ``data``.

    A length other than ``16 + 16k^2 + 32k``, another magic or a CRC that does
    not match the payload raises ValueError.
    """
    if len(data) != _HEADER + 16 * k * k + 32 * k:
        raise ValueError(f"entry: {len(data)} bytes is not the length for {k} classes")
    if not data.startswith(_MAGIC):
        raise ValueError("entry: unknown magic")
    if int.from_bytes(data[8:_HEADER], "little") != zlib.crc32(memoryview(data)[_HEADER:]):
        raise ValueError("entry: the checksum does not match the payload")
    values = np.frombuffer(data, "<c16", k * k, _HEADER).reshape(k, k)
    rows = np.frombuffer(data, "<i8", 4 * k, _HEADER + 16 * k * k).reshape(4, k)
    return dict(zip(TABLE_ARRAYS, (values, *rows)))


def _load_entry(path: Path, cs: ConjugacyStructure) -> CharacterTable | None:
    """The stored table, or None if unreadable, damaged or not bound to ``cs``."""
    try:
        return CharacterTable.from_arrays(cs, _decode(path.read_bytes(), cs.num_classes))
    except (OSError, ValueError):
        return None


def cached_character_table(
    group: FiniteGroup,
    cs: ConjugacyStructure | None = None,
    cache_dir: str | os.PathLike | None = None,
    *,
    certification_tol: float = DEFAULT_CERT_TOL,
) -> tuple[CharacterTable, bool]:
    """Return the group's character table and whether it came from cache.

    An entry that is unreadable, damaged, refused by ``CharacterTable.from_arrays``
    or above the caller's ``certification_tol`` is recomputed and overwritten; a
    table's residual is always that of its values, so a hit is certified like a
    fresh table.  ``cs`` defaults to the group's own classes.  A tolerance that
    is not positive and finite, or a ``cs`` computed from another group, raises
    ValueError.
    """
    _check_tolerance(certification_tol)
    cs = cs or conjugacy_structure(group)
    if cs.group_hash != group.content_hash:
        raise ValueError(f"group mismatch: the conjugacy structure given for {group.label!r} is another group's")
    path = resolve_cache_dir(cache_dir) / f"{group.content_hash}.table"
    cached = _load_entry(path, cs)
    if cached is not None and cached.residual <= certification_tol:
        return cached, True
    table = character_table(group, certification_tol=certification_tol)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(_encode(*(getattr(table, name) for name in TABLE_ARRAYS)))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return table, False
