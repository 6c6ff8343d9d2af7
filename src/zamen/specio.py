"""Versioned JSON formats: group specs, character tables, experiment specs.

Three document kinds, all carrying a ``format`` name and integer ``version``:

- group specs (``zamen-group``) describe a finite group by permutation
  generators, an explicit Cayley table, a direct product of specs, or a
  semidirect product of specs;
- character-table documents (``zamen-chartable``, exported by ``group
  chartable --json``) serialize a table twice: in the group's class order
  for reloading, and in joint canonical row/column order so tables of
  isocharacteristic groups compare byte for byte;
- experiment specs (``zamen-experiment``) name a hypergroup model, a
  coefficient scheme, the truncation levels, and quadrature settings.

Values are rounded to 12 decimal places on export with negative zero
normalized, so re-serializing a loaded document is byte-stable.  A document's
``residual`` is that of the rounded values it holds, and a loaded table
recomputes it from them rather than trusting the field; it ignores ``order``
too.  ``CharacterTable.from_arrays`` checks a loaded document exactly as it
checks a cache entry.  Exports are stable only for a fixed code version: the
last decimals of a table good to about 1e-11 move when its floating-point sums
are reordered.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, replace
from typing import Any

import numpy as np

from .characters import CharacterTable, _round_array, canonical_form
from .groups import (
    ConjugacyStructure,
    FiniteGroup,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    parse_permutation,
    semidirect_product,
)
from .hypergroups import QuadratureConfig, model_by_name, scheme_by_name

__all__ = [
    "SpecError",
    "GROUP_FORMAT",
    "CHARTABLE_FORMAT",
    "EXPERIMENT_FORMAT",
    "FORMAT_VERSION",
    "stable_json",
    "sha256_hex",
    "load_group_spec",
    "group_from_json",
    "character_table_payload",
    "load_character_table",
    "load_experiment_spec",
]

GROUP_FORMAT = "zamen-group"
CHARTABLE_FORMAT = "zamen-chartable"
EXPERIMENT_FORMAT = "zamen-experiment"
FORMAT_VERSION = 1


class SpecError(ValueError):
    """A JSON document does not satisfy its declared format."""


def stable_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_header(payload: dict, expected_format: str) -> None:
    if not isinstance(payload, dict):
        raise SpecError(f"expected a JSON object, got {type(payload).__name__}")
    fmt = payload.get("format")
    if fmt != expected_format:
        raise SpecError(f"expected format {expected_format!r}, got {fmt!r}")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise SpecError(f"unsupported {expected_format} version {version!r}")


def _int_list(value: Any, what: str) -> list:
    """``value`` itself if it is a list of JSON integers in int64 range, else SpecError.

    Booleans and floats are refused rather than truncated.
    """
    if not isinstance(value, list) or any(type(v) is not int or not -(2**63) <= v < 2**63 for v in value):
        raise SpecError(f"{what} must be a list of integers")
    return value


def _int_rows(value: Any, what: str) -> list:
    if not isinstance(value, list) or not value:
        raise SpecError(f"{what} must be a nonempty list of integer lists")
    return [_int_list(row, f"each row of {what}") for row in value]


def _build_group(spec: dict, depth: int = 0) -> FiniteGroup:
    if depth > 8:
        raise SpecError("group spec nesting exceeds depth 8")
    if not isinstance(spec, dict):
        raise SpecError("group spec entries must be JSON objects")
    kind = spec.get("kind")
    label = spec.get("label")
    if "label" in spec and not isinstance(label, str):
        raise SpecError(f"a group spec label must be a string, not {label!r}")
    if kind == "perm":
        degree = spec.get("degree")
        generators = spec.get("generators")
        if type(degree) is not int or not 1 <= degree < 2**63:
            raise SpecError("perm specs need an integer degree >= 1 and below 2**63")
        if not isinstance(generators, list) or not generators:
            raise SpecError("perm specs need a nonempty generators list")
        parsed = [
            parse_permutation(g if isinstance(g, str) else _int_list(g, "a generator"), degree).tolist()
            for g in generators
        ]
        return from_permutation_generators(parsed, label=label or "G")
    if kind == "cayley":
        table = _int_rows(spec.get("table"), "a cayley table")
        if any(len(row) != len(table) for row in table):
            raise SpecError(f"a cayley table must be square: {len(table)} rows of {len(table)} entries")
        return from_cayley_table(table, label=label or "G")
    if kind == "product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise SpecError("product specs need at least two factors")
        group = _build_group(factors[0], depth + 1)
        for factor in factors[1:]:
            group = direct_product(group, _build_group(factor, depth + 1))
        return replace(group, label=label) if label else group
    if kind == "semidirect":
        normal = spec.get("normal")
        acting = spec.get("acting")
        action = spec.get("action")
        if normal is None or acting is None or action is None:
            raise SpecError("semidirect specs need normal, acting, and action")
        return semidirect_product(
            _build_group(normal, depth + 1),
            _build_group(acting, depth + 1),
            _int_rows(action, "a semidirect action"),
            label=label,
        )
    raise SpecError(f"unknown group spec kind {kind!r}")


def load_group_spec(payload: dict) -> FiniteGroup:
    """Build a group from a parsed ``zamen-group`` document."""
    _check_header(payload, GROUP_FORMAT)
    return _build_group({k: v for k, v in payload.items() if k not in ("format", "version")})


def group_from_json(text: str) -> FiniteGroup:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    return load_group_spec(payload)


def _complex_pairs(values: np.ndarray) -> np.ndarray:
    """[real, imag] pairs rounded to 12 decimals, with negative zero made positive."""
    values = np.asarray(values)
    pairs = np.stack([_round_array(values.real, 12), _round_array(values.imag, 12)], axis=-1)
    pairs[pairs == 0] = 0.0
    return pairs


def character_table_payload(table: CharacterTable) -> dict:
    """Serialize a character table to a ``zamen-chartable`` document.

    ``classes``/``rows`` follow the group's class order and reload exactly;
    ``canonical`` holds the joint row/column canonical form, which is equal
    byte for byte across groups sharing a character table.  ``residual`` is
    the residual of the exported (rounded) values, the number
    ``load_character_table`` recomputes from the document.
    """
    pairs = _complex_pairs(table.values)
    residual = replace(table, values=pairs.view(np.complex128)[..., 0]).residual
    canon_values, canon_degrees, canon_sizes = canonical_form(table)
    return {
        "format": CHARTABLE_FORMAT,
        "version": FORMAT_VERSION,
        "group_hash": table.group_hash,
        "order": table.order,
        "classes": [
            {"rep": int(r), "size": int(s)}
            for r, s in zip(table.class_reps, table.class_sizes)
        ],
        "inverse_class": [int(j) for j in table.inverse_class],
        "rows": [
            {"degree": int(d), "values": row}
            for d, row in zip(table.degrees, pairs.tolist())
        ],
        "canonical": {
            "class_sizes": [int(s) for s in canon_sizes],
            "rows": [
                {"degree": int(d), "values": row}
                for d, row in zip(canon_degrees, _complex_pairs(canon_values).tolist())
            ],
        },
        "residual": {"orthogonality": residual},
    }


def load_character_table(payload: dict, cs: ConjugacyStructure) -> CharacterTable:
    """Rebuild a character table from a document, bound to ``cs``'s group.

    The document must match the group hash, and its arrays must pass
    ``CharacterTable.from_arrays``; one that does not, or lacks a key, raises
    SpecError.  The canonical block, ``order`` and ``residual`` are ignored:
    the table computes the last two from its arrays.
    """
    _check_header(payload, CHARTABLE_FORMAT)
    if payload.get("group_hash") != cs.group_hash:
        raise SpecError("character table document belongs to a different group")
    try:
        classes, rows = payload["classes"], payload["rows"]
        pairs = np.array([row["values"] for row in rows], dtype=np.float64).reshape(len(rows), -1, 2)
        arrays = {
            "values": pairs.view(np.complex128)[..., 0],
            "degrees": np.array(_int_list([row["degree"] for row in rows], "degrees"), dtype=np.int64),
            "class_sizes": np.array(_int_list([c["size"] for c in classes], "class sizes"), dtype=np.int64),
            "class_reps": np.array(_int_list([c["rep"] for c in classes], "class reps"), dtype=np.int64),
            "inverse_class": np.array(_int_list(payload["inverse_class"], "inverse_class"), dtype=np.int64),
        }
        return CharacterTable.from_arrays(cs, arrays)
    except KeyError as exc:
        raise SpecError(f"character table document is missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed character table document: {exc}") from None


def load_experiment_spec(payload: dict) -> dict:
    """Validate a ``zamen-experiment`` document.

    Model and scheme names are resolved by ``zamen.hypergroups``; the
    quadrature settings must be accepted by ``QuadratureConfig``.
    """
    _check_header(payload, EXPERIMENT_FORMAT)
    model = payload.get("model")
    scheme = payload.get("scheme")
    try:
        scheme_by_name(model_by_name(model), scheme)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    levels = payload.get("n")
    if not isinstance(levels, list) or not levels:
        raise SpecError("experiment specs need a nonempty list of levels n")
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in levels):
        raise SpecError("levels must be nonnegative integers")
    quadrature = payload.get("quadrature", {})
    if not isinstance(quadrature, dict):
        raise SpecError("quadrature settings must be an object")
    unknown = sorted(set(quadrature) - {f.name for f in fields(QuadratureConfig)})
    if unknown:
        raise SpecError(f"unknown quadrature settings {unknown}")
    try:
        QuadratureConfig(**quadrature)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return {
        "model": model,
        "scheme": scheme,
        "n": levels,
        "quadrature": quadrature,
    }
