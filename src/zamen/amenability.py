"""Amenability constants of centres of finite group algebras.

The centre ZL1(G) has a unique diagonal mu = sum_pi d_pi^2 chi_pi (x) chi_pi,
and its amenability constant is the L1(G x G) norm of that element:

    AM(ZL1(G)) = (1/|G|^2) sum_{C,C'} |c(C,C')| |C| |C'|,
    c(C,C') = sum_pi d_pi^2 conj(chi_pi(C)) chi_pi(C').

In the table's ``pair_basis`` A + iB, c = Q S Q^H for the real Gram
S = (dA)^T (dA) when B = 0; AM reads |c| off S without the upper classes' rows.
``diagonal`` returns c as a bare k x k matrix; it conjugates the left leg,
matching the norm formula above.  As a function on G x G the diagonal expands
over indicator products with coefficients c(Cbar, C') instead (reindex the
left leg by the class involution); ``verify_diagonal`` works with that
function view, which is what makes groups with complex characters (already
Z6) pass.  The diagonal is unique, so any matrix those identities accept is
it.  The tolerances are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import CharacterTable, _gram, _in_classes, character_table, tensor_table
from .groups import FiniteGroup, quotient_group

__all__ = [
    "AmenabilityConstant",
    "DiagonalReport",
    "MultiplicativityReport",
    "MonotonicityReport",
    "GapReport",
    "diagonal",
    "amenability_constant",
    "snap_rational",
    "verify_diagonal",
    "hilbert_schmidt_lower_bound",
    "product_multiplicativity_check",
    "quotient_monotonicity_check",
    "nonabelian_gap_check",
    "NONABELIAN_GAP",
]

# Uniform gap below norms of nontrivial central idempotent measures (Rider's
# 1/700; not sharp, but uniform over all compact groups).
NONABELIAN_GAP = 1.0 / 700.0
# Absolute tolerance of the rational snap, the diagonal's identities, the gap and the monotonicity check.
TOL = 1e-9
# The largest denominator a constant is snapped to.
SNAP_DENOMINATOR = 64
# Relative tolerance of AM(G x H) = AM(G) AM(H).
PRODUCT_REL_TOL = 1e-8
# About how many entries of the module property ``verify_diagonal`` forms at once (256 KiB, kept in cache).
MODULE_BLOCK = 1 << 14


@dataclass(frozen=True)
class AmenabilityConstant:
    """A computed constant, with the nearest small rational when one is close."""

    value: float
    rational: Fraction | None

    def __float__(self) -> float:
        return self.value


def _diagonal_gram(table: CharacterTable) -> np.ndarray:
    """S = (dA + idB)^H (dA + idB) for the table's ``pair_basis`` A + iB and degrees d: c = Q S Q^H."""
    _, _, a, b = table.pair_basis
    d = table.degrees.astype(np.float64)[:, None]
    return _gram(a * d, None if b is None else b * d)


def diagonal(table: CharacterTable) -> np.ndarray:
    """Coefficient matrix of the unique diagonal of ZL1(G): the k x k array
    c[C, C'] = sum_pi d_pi^2 conj(chi_pi(C)) chi_pi(C'), assembled from the pair basis."""
    order, s, _, _ = table.pair_basis
    c = np.empty((table.num_classes,) * 2, dtype=np.complex128)
    c[np.ix_(order, order)] = _in_classes(_diagonal_gram(table).astype(np.complex128), s)
    return c


def snap_rational(value: float) -> Fraction | None:
    """Nearest fraction with denominator <= ``SNAP_DENOMINATOR``, if within ``TOL``."""
    candidate = Fraction(value).limit_denominator(SNAP_DENOMINATOR)
    if abs(float(candidate) - value) <= TOL:
        return candidate
    return None


def _am_value(table: CharacterTable) -> float:
    """AM(ZL1(G)) as a float, evaluated from the character table and its own diagonal."""
    order, s, _, _ = table.pair_basis
    sizes = table.class_sizes[order].astype(np.float64)
    c = np.abs(_in_classes(_diagonal_gram(table), s))
    if c.shape[0] < sizes.size:  # the upper classes' rows, left out, repeat the lower ones'
        c[s:] *= 2.0
    total = float(sizes[: c.shape[0]] @ c @ sizes)
    return total / float(table.order) ** 2


def amenability_constant(table: CharacterTable) -> AmenabilityConstant:
    """AM(ZL1(G)) evaluated from the character table and its own diagonal, with its rational snap."""
    value = _am_value(table)
    return AmenabilityConstant(value=value, rational=snap_rational(value))


def hilbert_schmidt_lower_bound(table: CharacterTable) -> float:
    """(1/|G|) || diag(d) U diag(sqrt(|C|)) ||_HS^2, always <= AM(ZL1(G)).

    U is the unitary sqrt(|C|/|G|) chi_pi(C), so the bound expands to
    (1/|G|) sum_{pi,C} d_pi^2 (|C|/|G|) |chi_pi(C)|^2 |C|.
    """
    sizes = table.class_sizes.astype(np.float64)
    d2 = table.degrees.astype(np.float64) ** 2
    weights = np.abs(table.values) ** 2 * (sizes / table.order)[None, :] * sizes[None, :]
    return float((d2[:, None] * weights).sum() / table.order)


@dataclass(frozen=True)
class DiagonalReport:
    module_residual: float
    unit_residual: float
    failing: tuple[int, ...]

    @property
    def max_residual(self) -> float:
        return max(self.module_residual, self.unit_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= TOL


def verify_diagonal(table: CharacterTable, matrix: np.ndarray | None = None) -> DiagonalReport:
    """Check the two defining properties of the diagonal on ``matrix``, by default ``diagonal(table)``.

    (i) Module property: f.mu = mu.f for every basis character f, where the
        two actions convolve f into the left and right tensor legs.
    (ii) Unit property: m(mu) * f = f, with m(mu) = sum c_fun(C,C') 1_C * 1_C'
        the image of mu under the multiplication map.

    Convolution is pointwise in the Gelfand basis: with T[pi, C] the
    transform of 1_C (``CharacterTable.gelfand_matrix``), V the value matrix and
    d the degrees, f * g = V^T (d . Tf . Tg).  Row orthogonality is
    d . T V^T = I, so convolving by chi_p keeps only Gelfand coordinate p:
    the leg matrix L_p[D, C] = (chi_p * 1_C)(D) is the rank-one outer(V[p], T[p]),
    and the two actions are

        f.mu = L_p c_fun = outer(V[p], (T c_fun)[p]),
        mu.f = c_fun L_p^T = outer((c_fun T^T)[:, p], V[p]).

    Likewise T m(mu) = s with s = diag(T c_fun T^T), so m(mu) * chi_p - chi_p
    is (s_p - 1) chi_p.  The cost is two k x k products and the k pairs of
    outer products, O(k^3), formed for blocks of characters at once, about
    ``MODULE_BLOCK`` entries to a block.

    Residuals are absolute max differences of class-function values.  The
    diagonal is unique, so a k x k matrix passes exactly when it is, within
    ``TOL``, this table's diagonal, whichever table it came from; a matrix of
    another shape raises ValueError.
    """
    k = table.num_classes
    matrix = diagonal(table) if matrix is None else matrix
    if matrix.shape != (k, k):
        raise ValueError(f"expected a {k} x {k} coefficient matrix, got shape {matrix.shape}")
    # mu = sum_{C,C'} matrix[Cbar, C'] 1_C (x) 1_{C'}: the involution undoes the conjugated left leg.
    c_fun = matrix[table.inverse_class]
    values = table.values
    transform = table.gelfand_matrix
    t_c = transform @ c_fun
    c_t = c_fun @ transform.T
    step = max(1, MODULE_BLOCK // (k * k))
    blocks = []
    for p in range(0, k, step):  # f.mu - mu.f for the characters p .. p + step - 1 at once
        v = values[p : p + step]
        block = v[:, :, None] * t_c[p : p + step, None, :]
        block -= c_t[:, p : p + step].T[:, :, None] * v[:, None, :]
        blocks.append(np.abs(block).max(axis=(1, 2)))
    module = np.concatenate(blocks)
    s = (t_c * transform).sum(axis=1)
    unit = np.abs(s - 1.0) * np.abs(values).max(axis=1)
    unit_residual = max(float(np.abs(s - 1.0).max()), float(unit.max()))
    failing = np.flatnonzero((module > TOL) | (unit > TOL))

    return DiagonalReport(float(module.max()), unit_residual, tuple(int(p) for p in failing))


@dataclass(frozen=True)
class MultiplicativityReport:
    am_left: float
    am_right: float
    am_product: float
    relative_error: float
    passed: bool


def product_multiplicativity_check(left: CharacterTable, right: CharacterTable) -> MultiplicativityReport:
    """AM(G x H) = AM(G) AM(H), with the product table built as a tensor."""
    am_l = _am_value(left)
    am_r = _am_value(right)
    am_p = _am_value(tensor_table(left, right))
    rel = abs(am_p - am_l * am_r) / max(1.0, abs(am_l * am_r))
    return MultiplicativityReport(
        am_left=am_l, am_right=am_r, am_product=am_p, relative_error=rel, passed=rel <= PRODUCT_REL_TOL
    )


@dataclass(frozen=True)
class MonotonicityReport:
    am_group: float
    am_quotient: float
    slack: float
    passed: bool


def quotient_monotonicity_check(group: FiniteGroup, subgroup) -> MonotonicityReport:
    """AM(G) >= AM(G/N): quotients cannot increase the constant."""
    quo = quotient_group(group, subgroup)
    am_g = _am_value(character_table(group))
    am_q = _am_value(character_table(quo.group))
    slack = am_g - am_q
    return MonotonicityReport(am_group=am_g, am_quotient=am_q, slack=slack, passed=slack >= -TOL)


@dataclass(frozen=True)
class GapReport:
    is_abelian: bool
    am: float
    passed: bool


def nonabelian_gap_check(table: CharacterTable) -> GapReport:
    """Abelian groups sit exactly at 1; nonabelian ones at or above 1 + 1/700."""
    am = _am_value(table)
    abelian = bool((table.degrees == 1).all())
    if abelian:
        passed = abs(am - 1.0) <= TOL
    else:
        passed = am >= 1.0 + NONABELIAN_GAP - TOL
    return GapReport(is_abelian=abelian, am=am, passed=passed)
