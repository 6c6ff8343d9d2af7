"""Reference amenability constants for every group the benchmark runs.

AM(ZL1(G)) depends only on the isomorphism class of G, so these values hold
for every seed: the seed relabels elements and reorders classes, and the
computed constants move only in the last few floating-point digits.

Closed forms are used where they are classical; the rest were computed once
with the v0.1 library (canonical generators, BLAS pinned to one thread) and
are frozen here.  Comparisons use a relative tolerance of 1e-9.
"""

from __future__ import annotations

import math
from fractions import Fraction

REL_TOL = 1e-9

CLOSED_FORM = {
    "S3": Fraction(7, 3),
    "D4": Fraction(7, 4),
    "Q8": Fraction(7, 4),
}

# Frozen at the v0.1 library; the comment is the nearest small rational
# where one exists.
FROZEN = {
    "D5": 2.92,  # 73/25
    "D6": 2.3333333333333335,  # 7/3
    "D7": 3.2040816326530637,  # 157/49
    "D8": 2.687500000000003,  # 43/16
    "D10": 2.920000000000004,  # 73/25
    "D60": 3.8033333333334354,
    "D120": 3.9008333333344143,
    "A4": 3.000000000000001,  # 3
    "S4": 7.083333333333341,  # 85/12
    "S5": 30.08333333333344,  # 361/12
    "S6": 134.70833333333368,  # 3233/24
    "S7": 842.9821428571445,  # 47207/56
    "A5": 22.653333333333332,
    "A6": 105.80333333333334,
    "A7": 616.3573318216177,
    "A5xA5": 513.1735111111099,
}


def factors(name: str) -> list[str]:
    """Factor names of a direct-product name such as ``S3xS3xS3``."""
    return name.split("x")


def is_abelian_name(name: str) -> bool:
    return all(f.startswith("Z") for f in factors(name))


def reference_am(name: str) -> float:
    """AM(ZL1(G)) for a group name; products multiply their factors' constants."""
    if name in FROZEN:
        return FROZEN[name]
    if name in CLOSED_FORM:
        return float(CLOSED_FORM[name])
    parts = factors(name)
    if len(parts) > 1:
        return math.prod(reference_am(f) for f in parts)
    if name.startswith("Z"):
        return 1.0
    raise KeyError(f"no reference constant for {name!r}")


def close(value: float, reference: float, rel_tol: float = REL_TOL) -> bool:
    return abs(value - reference) <= rel_tol * max(1.0, abs(reference))
