"""Amenability constants of centres of finite group algebras.

The centre ZL1(G) has a unique diagonal mu = sum_pi d_pi^2 chi_pi (x) chi_pi,
and its amenability constant is the L1(G x G) norm of that element:

    AM(ZL1(G)) = (1/|G|^2) sum_{C,C'} |c(C,C')| |C| |C'|,
    c(C,C') = sum_pi d_pi^2 conj(chi_pi(C)) chi_pi(C').

Note the stored coefficient matrix conjugates the left leg, matching the
norm formula above.  As a function on G x G the diagonal expands over
indicator products with coefficients c(Cbar, C') instead (reindex the left
leg by the class involution); ``verify_diagonal`` works with that function
view, which is what makes groups with complex characters (already Z6) pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import CharacterTable, character_table, tensor_table
from .groups import FiniteGroup, quotient_group

__all__ = [
    "DiagonalCoefficients",
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


@dataclass(frozen=True)
class DiagonalCoefficients:
    """Expansion data of the diagonal over class-indicator pairs.

    ``matrix[C, C']`` is c(C,C') = sum_pi d_pi^2 conj(chi_pi(C)) chi_pi(C').
    """

    group_hash: str
    matrix: np.ndarray


@dataclass(frozen=True)
class AmenabilityConstant:
    """A computed constant, with the nearest small rational when one is close."""

    value: float
    rational: Fraction | None

    def __float__(self) -> float:
        return self.value


def diagonal(table: CharacterTable) -> DiagonalCoefficients:
    """Coefficient matrix of the unique diagonal of ZL1(G)."""
    weighted = table.values * (table.degrees.astype(np.float64) ** 2)[:, None]
    matrix = table.values.conj().T @ weighted
    return DiagonalCoefficients(group_hash=table.group_hash, matrix=matrix)


def snap_rational(value: float, max_denominator: int = 64, tol: float = 1e-9) -> Fraction | None:
    """Nearest fraction with denominator <= max_denominator, if within tol."""
    candidate = Fraction(value).limit_denominator(max_denominator)
    if abs(float(candidate) - value) <= tol:
        return candidate
    return None


def amenability_constant(
    table: CharacterTable, dc: DiagonalCoefficients | None = None
) -> AmenabilityConstant:
    """AM(ZL1(G)) evaluated from the character table."""
    dc = dc or diagonal(table)
    sizes = table.class_sizes.astype(np.float64)
    total = float(sizes @ np.abs(dc.matrix) @ sizes)
    value = total / float(table.order) ** 2
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
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.module_residual, self.unit_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def verify_diagonal(
    table: CharacterTable, dc: DiagonalCoefficients | None = None, *, tol: float = 1e-9
) -> DiagonalReport:
    """Check the two defining properties of the diagonal from its coefficients.

    (i) Module property: f.mu = mu.f for every basis character f, where the
        two actions convolve f into the left and right tensor legs.
    (ii) Unit property: m(mu) * f = f, with m(mu) = sum c_fun(C,C') 1_C * 1_C'
        the image of mu under the multiplication map.

    Convolution is pointwise in the Gelfand basis: with T[pi, C] the
    transform of 1_C (``CharacterTable.gelfand_matrix``), V the value matrix and
    d the degrees, f * g = V^T (d . Tf . Tg).  So the leg matrix of chi_p,
    L_p[D, C] = (chi_p * 1_C)(D), is V^T diag(w_p) T with w_p = d . T chi_p,
    and the two actions are

        f.mu = L_p c_fun = (V^T diag(w_p)) (T c_fun),
        mu.f = c_fun L_p^T = (c_fun T^T) (diag(w_p) V),

    two k x k products per basis character.  Likewise m(mu) = V^T (d . s)
    with s the row sums of (T c_fun) . T, and m(mu) * chi_p - chi_p is
    column p of V^T diag(T m(mu)) W - V^T, W having columns w_p.

    Residuals are absolute max differences of class-function values.
    """
    dc = dc or diagonal(table)
    if dc.group_hash != table.group_hash:
        raise ValueError("group mismatch: coefficients were built from a different table")
    # mu = sum_{C,C'} matrix[Cbar, C'] 1_C (x) 1_{C'}: the involution undoes the conjugated left leg.
    c_fun = dc.matrix[table.inverse_class]
    values = table.values
    d = table.degrees.astype(np.float64)
    transform = table.gelfand_matrix
    # w[:, p] = d . T chi_p, the Gelfand weights of convolving by chi_p.
    w = d[:, None] * (transform @ values.T)

    t_c = transform @ c_fun
    c_t = c_fun @ transform.T
    module = np.empty(table.num_classes)
    for p in range(table.num_classes):
        left_action = (values.T * w[:, p]) @ t_c
        right_action = c_t @ (w[:, p, None] * values)
        module[p] = np.abs(left_action - right_action).max()

    m_mu = values.T @ (d * (t_c * transform).sum(axis=1))
    m_transform = transform @ m_mu
    unit = np.abs(values.T @ (m_transform[:, None] * w) - values.T).max(axis=0)
    unit_residual = max(float(np.abs(m_transform - 1.0).max()), float(unit.max()))
    failing = np.flatnonzero((module > tol) | (unit > tol))

    return DiagonalReport(float(module.max()), unit_residual, tuple(int(p) for p in failing), tol)


@dataclass(frozen=True)
class MultiplicativityReport:
    am_left: float
    am_right: float
    am_product: float
    relative_error: float
    passed: bool


def product_multiplicativity_check(
    left: CharacterTable, right: CharacterTable, *, rel_tol: float = 1e-8
) -> MultiplicativityReport:
    """AM(G x H) = AM(G) AM(H), with the product table built as a tensor."""
    am_l = amenability_constant(left).value
    am_r = amenability_constant(right).value
    am_p = amenability_constant(tensor_table(left, right)).value
    rel = abs(am_p - am_l * am_r) / max(1.0, abs(am_l * am_r))
    return MultiplicativityReport(
        am_left=am_l, am_right=am_r, am_product=am_p, relative_error=rel, passed=rel <= rel_tol
    )


@dataclass(frozen=True)
class MonotonicityReport:
    am_group: float
    am_quotient: float
    slack: float
    passed: bool


def quotient_monotonicity_check(
    group: FiniteGroup, subgroup, *, tol: float = 1e-9
) -> MonotonicityReport:
    """AM(G) >= AM(G/N): quotients cannot increase the constant."""
    quo = quotient_group(group, subgroup)
    am_g = amenability_constant(character_table(group)).value
    am_q = amenability_constant(character_table(quo.group)).value
    slack = am_g - am_q
    return MonotonicityReport(am_group=am_g, am_quotient=am_q, slack=slack, passed=slack >= -tol)


@dataclass(frozen=True)
class GapReport:
    is_abelian: bool
    am: float
    passed: bool


def nonabelian_gap_check(table: CharacterTable, *, tol: float = 1e-9) -> GapReport:
    """Abelian groups sit exactly at 1; nonabelian ones at or above 1 + 1/700."""
    am = amenability_constant(table).value
    abelian = bool((table.degrees == 1).all())
    if abelian:
        passed = abs(am - 1.0) <= tol
    else:
        passed = am >= 1.0 + NONABELIAN_GAP - tol
    return GapReport(is_abelian=abelian, am=am, passed=passed)
