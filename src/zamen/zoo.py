"""The desk-scale fixture zoo used by checks, tests, and the CLI --zoo flag."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    quaternion_group,
    symmetric,
)

__all__ = ["ZOO_BUILDERS", "zoo_names", "abelian_zoo_names", "nonabelian_zoo_names", "build"]


def _z2_cube() -> FiniteGroup:
    return replace(direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)), label="Z2xZ2xZ2")


ZOO_BUILDERS: dict[str, Callable[[], FiniteGroup]] = {
    **{f"Z{n}": (lambda n=n: cyclic(n)) for n in range(2, 13)},
    "Z2xZ2": lambda: direct_product(cyclic(2), cyclic(2)),
    "Z2xZ4": lambda: direct_product(cyclic(2), cyclic(4)),
    "Z2xZ2xZ2": _z2_cube,
    "S3": lambda: symmetric(3),
    "D4": lambda: dihedral(4),
    "Q8": quaternion_group,
    "D5": lambda: dihedral(5),
    "D6": lambda: dihedral(6),
    "D7": lambda: dihedral(7),
    "D8": lambda: dihedral(8),
    "A4": lambda: alternating(4),
    "S4": lambda: symmetric(4),
    "S3xS3": lambda: direct_product(symmetric(3), symmetric(3)),
}

ABELIAN_NAMES = tuple([f"Z{n}" for n in range(2, 13)] + ["Z2xZ2", "Z2xZ4", "Z2xZ2xZ2"])
NONABELIAN_NAMES = ("S3", "D4", "Q8", "D5", "D6", "D7", "D8", "A4", "S4", "S3xS3")


def zoo_names() -> tuple[str, ...]:
    return tuple(ZOO_BUILDERS)


def abelian_zoo_names() -> tuple[str, ...]:
    return ABELIAN_NAMES


def nonabelian_zoo_names() -> tuple[str, ...]:
    return NONABELIAN_NAMES


def build(name: str) -> FiniteGroup:
    try:
        builder = ZOO_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown fixture group {name!r}; known: {', '.join(ZOO_BUILDERS)}") from None
    return builder()
