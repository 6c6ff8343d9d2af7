"""What every layer and the command line share, in the standard library alone.

The error types, deterministic JSON text and its hash, and the two settings
the command-line parser checks its arguments against.  The layers that raise
or use them (``groups``, ``characters``, ``specio``, ``tz2``) re-export them
as the same objects, so ``zamen.cli`` can catch and parse without importing
numpy or any layer a command does not run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = [
    "ValidationError",
    "SizeLimitError",
    "CertificationError",
    "SpecError",
    "stable_json",
    "sha256_hex",
    "DEFAULT_CERT_TOL",
    "MAX_MODE",
]

# The default tolerance of character-table certification (``characters.character_table``).
DEFAULT_CERT_TOL = 1e-9
# The highest truncation the CLI accepts: tz2.verify_identity_measure(2000), the
# 4 008 004 pairs of this cap, takes 0.32-0.35 s on a 2-vCPU x86-64 VM.
MAX_MODE = 2000


class ValidationError(ValueError):
    """Raised when input data fails a structural group axiom."""


class SizeLimitError(RuntimeError):
    """Raised when a construction exceeds one of the size caps."""


class CertificationError(RuntimeError):
    """No attempt gave a table: eigenvalues collided, degrees failed, or certification missed its tolerance."""


class SpecError(ValueError):
    """A JSON document does not satisfy its declared format."""


def stable_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
