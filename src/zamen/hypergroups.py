"""Quadrature experiments on two compact conjugacy-class hypergroups.

Models (both on theta in [0, pi], Haar mass 1):

- SU(2) conjugacy classes: d(lambda) = (2/pi) sin^2(theta) dtheta with
  characters chi_k(theta) = sin((k+1) theta)/sin(theta) and dimension weight
  k+1.  The characters are orthonormal: integral chi_j chi_k dlambda =
  delta_jk (character_sq_norm = 1).
- Circle modulo conjugation/inversion (the Chebyshev hypergroup):
  d(lambda) = (1/pi) dtheta with characters cos(k theta) and dimension
  weight 1 for k = 0 and 2 for k >= 1.  Here
  integral cos^2(k theta) dlambda = 1/dimension_weight(k)
  (character_sq_norm = 1/weight), the convention recorded per model.

Both character families come from one three-term recurrence,
chi_0 = 1, chi_1 = a cos(theta), chi_{k+1} = 2 cos(theta) chi_k - chi_{k-1}:
a = 2 gives the second-kind Chebyshev polynomials U_k(cos theta), which are
the SU(2) characters (finite at theta in {0, pi}, where the sine ratio is
0/0), and a = 1 gives cos(k theta).

Norms of kernels sum_k a(k,n) chi_k and of tensor diagonals
sum_k coef(k,n) chi_k (x) chi_k are integrated with composite
Gauss-Legendre rules.  The integrands carry absolute values and are only
piecewise smooth, so every result ships with a refinement-delta error
estimate, never an order-based claim.  The grids and Haar weights are
symmetric under theta -> pi - theta, where chi_k changes by (-1)^k, so a
kernel e + o (even and odd k) takes the values e + o and e - o at mirrored
points; as |e + o| + |e - o| = 2 max(|e|, |o|), both norms are summed over
the half grid theta <= pi/2, at a quarter of the kernel's flops.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "HypergroupModel",
    "CoefficientScheme",
    "QuadratureConfig",
    "QuadratureResult",
    "DecayProbe",
    "su2_model",
    "chebyshev_model",
    "dirichlet_scheme",
    "fejer_smoothed_scheme",
    "fejer_scheme",
    "model_by_name",
    "scheme_by_name",
    "haar_mass",
    "orthogonality_residual",
    "diagonal_norm",
    "bai_norm",
    "su2_divergence_lower_bound",
    "divergence_bound_check",
    "character_decay_probe",
    "run_experiment",
]


@dataclass(frozen=True)
class HypergroupModel:
    """A hypergroup on [0, pi] with chi_1 = chi1_scale cos(theta) and a weight even about pi/2."""

    label: str
    weight: Callable[[np.ndarray], np.ndarray]
    chi1_scale: float
    dimension_weight: Callable[[int], float]
    character_sq_norm: Callable[[int], float]

    def character(self, k: int, theta):
        """chi_k at theta: a float for a scalar theta, an array otherwise."""
        theta = np.asarray(theta, dtype=np.float64)
        row = _character_rows(self, k, theta.reshape(-1))[k]
        return float(row[0]) if theta.ndim == 0 else row.reshape(theta.shape)


@dataclass(frozen=True)
class CoefficientScheme:
    """Kernel coefficients a(k, n); zero above the truncation level n.

    ``squared_in_diagonal`` records whether the tensor diagonal at level n
    uses coef = a(k,n)^2 (the convention for the SU(2) schemes) or the plain
    a(k,n) (the classical Fejer convention on the circle quotient).
    """

    name: str
    coefficient: Callable[[int, int], float]
    squared_in_diagonal: bool

    def tensor_coefficient(self, k: int, n: int) -> float:
        a = self.coefficient(k, n)
        return a * a if self.squared_in_diagonal else a


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings; the refined grid has refinement_factor x panels."""

    panels: int = 64
    nodes_per_panel: int = 16
    refinement_factor: int = 2
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        # A refinement factor of 1 would make the error estimate 0 by construction.
        for name, minimum in (("panels", 1), ("nodes_per_panel", 1), ("refinement_factor", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                raise ValueError(f"quadrature {name} must be an integer >= {minimum}, got {value!r}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0.0 < tol < np.inf:
            raise ValueError(f"quadrature tolerance must be a positive finite number, got {tol!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    converged: bool
    config_hash: str


def _character_rows(model: HypergroupModel, kmax: int, theta: np.ndarray) -> np.ndarray:
    """The (kmax+1) x len(theta) matrix of chi_0..chi_kmax, by the three-term recurrence."""
    rows = np.empty((kmax + 1, theta.size))
    rows[0] = 1.0
    if kmax == 0:
        return rows
    cos = np.cos(theta)
    rows[1] = model.chi1_scale * cos
    two_cos = 2.0 * cos
    for k in range(1, kmax):
        np.multiply(two_cos, rows[k], out=rows[k + 1])
        rows[k + 1] -= rows[k - 1]
    return rows


def su2_model() -> HypergroupModel:
    """Conjugacy-class hypergroup of SU(2); orthonormal characters."""
    return HypergroupModel(
        label="su2",
        weight=lambda theta: (2.0 / np.pi) * np.sin(theta) ** 2,
        chi1_scale=2.0,
        dimension_weight=lambda k: float(k + 1),
        character_sq_norm=lambda k: 1.0,
    )


def chebyshev_model() -> HypergroupModel:
    """The circle modulo inversion; integral of cos^2 is 1/dimension_weight."""
    return HypergroupModel(
        label="chebyshev",
        weight=lambda theta: np.full_like(np.asarray(theta, dtype=np.float64), 1.0 / np.pi),
        chi1_scale=1.0,
        dimension_weight=lambda k: 1.0 if k == 0 else 2.0,
        character_sq_norm=lambda k: 1.0 if k == 0 else 0.5,
    )


def dirichlet_scheme(model: HypergroupModel) -> CoefficientScheme:
    """Sharp truncation: a(k, n) = dimension_weight(k) for k <= n."""
    return CoefficientScheme(
        name="dirichlet",
        coefficient=lambda k, n: model.dimension_weight(k) if k <= n else 0.0,
        squared_in_diagonal=True,
    )


def fejer_smoothed_scheme(model: HypergroupModel) -> CoefficientScheme:
    """Linearly tapered truncation a(k, n) = dimension_weight(k) (1 - k/(n+1))."""
    return CoefficientScheme(
        name="fejer-smoothed",
        coefficient=lambda k, n: model.dimension_weight(k) * (1.0 - k / (n + 1.0)) if k <= n else 0.0,
        squared_in_diagonal=True,
    )


def fejer_scheme(signed_taper: bool = False) -> CoefficientScheme:
    """Circle-quotient Fejer coefficients, used unsquared in the diagonal.

    Classical weights a(0,n) = 1, a(k,n) = 2(1 - k/(n+1)) sum to the
    nonnegative Fejer kernel with L1 norm exactly 1.  With
    ``signed_taper=True`` the alternative string 1 - 2k/(n+1) is used
    instead; its coefficients go negative for k > (n+1)/2 and the resulting
    kernel is not L1-normalized, which is measurable via bai_norm and
    diagonal_norm.
    """
    if signed_taper:
        def coeff(k: int, n: int) -> float:
            return 1.0 - 2.0 * k / (n + 1.0) if k <= n else 0.0

        return CoefficientScheme(name="fejer-signed", coefficient=coeff, squared_in_diagonal=False)

    def coeff(k: int, n: int) -> float:
        if k > n:
            return 0.0
        return 1.0 if k == 0 else 2.0 * (1.0 - k / (n + 1.0))

    return CoefficientScheme(name="fejer", coefficient=coeff, squared_in_diagonal=False)


def scheme_by_name(model: HypergroupModel, name: str) -> CoefficientScheme:
    if name == "dirichlet":
        return dirichlet_scheme(model)
    if name == "fejer-smoothed":
        return fejer_smoothed_scheme(model)
    if name in ("fejer", "fejer-signed"):
        if model.label != "chebyshev":
            raise ValueError(f"scheme {name!r} is specific to the chebyshev model")
        return fejer_scheme(signed_taper=name == "fejer-signed")
    raise ValueError(f"unknown coefficient scheme {name!r}")


def _grid(panels: int, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre points and weights on [0, pi]."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    width = np.pi / panels
    starts = np.arange(panels) * width
    points = (starts[:, None] + (x[None, :] + 1.0) * (width / 2.0)).reshape(-1)
    weights = np.tile(w * (width / 2.0), panels)
    return points, weights


def _config_hash(model: HypergroupModel, scheme_name: str, n: int, quad: QuadratureConfig) -> str:
    payload = json.dumps(
        {
            "model": model.label,
            "scheme": scheme_name,
            "n": n,
            "panels": quad.panels,
            "nodes_per_panel": quad.nodes_per_panel,
            "refinement_factor": quad.refinement_factor,
            "tolerance": float(quad.tolerance),  # 1 and 1.0 are one setting
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def haar_mass(model: HypergroupModel, quad: QuadratureConfig | None = None) -> float:
    quad = quad or QuadratureConfig()
    points, weights = _grid(quad.panels, quad.nodes_per_panel)
    return float(weights @ model.weight(points))


def orthogonality_residual(
    model: HypergroupModel, kmax: int, quad: QuadratureConfig | None = None
) -> float:
    """Max deviation of integral chi_j chi_k dlambda from the model's convention."""
    quad = quad or QuadratureConfig()
    points, weights = _grid(quad.panels, quad.nodes_per_panel)
    v = _character_rows(model, kmax, points)
    u = weights * model.weight(points)
    gram = (v * u[None, :]) @ v.T
    expected = np.diag([model.character_sq_norm(k) for k in range(kmax + 1)])
    return float(np.abs(gram - expected).max())


def _two_grid(
    model: HypergroupModel,
    scheme: CoefficientScheme,
    n: int,
    quad: QuadratureConfig,
    integral: Callable[[np.ndarray, np.ndarray, np.ndarray], float],
) -> QuadratureResult:
    """Integrate on the configured grid and on the refined one.

    ``integral(even, odd, u)`` gets the half grid theta <= pi/2 only (see
    the module docstring): the rows chi_0, chi_2, ... and chi_1, chi_3, ...
    there, and the Haar quadrature weights, with a middle node at pi/2 at
    half its weight.  The refined value is reported with |refined - base|
    as the error estimate; a result whose estimate exceeds the configured
    tolerance is flagged as non-converged rather than rejected.
    """
    values = []
    for panels in (quad.panels, quad.panels * quad.refinement_factor):
        points, weights = _grid(panels, quad.nodes_per_panel)
        half = (points.size + 1) // 2
        u = weights[:half] * model.weight(points[:half])
        u[points.size // 2 :] /= 2.0  # a middle node, on an odd grid, is its own mirror
        v = _character_rows(model, n, points[:half])
        values.append(integral(v[0::2], v[1::2], u))
    base, refined = values
    err = abs(refined - base)
    return QuadratureResult(
        value=refined,
        error_estimate=err,
        converged=err <= quad.tolerance * max(1.0, abs(refined)),
        config_hash=_config_hash(model, scheme.name, n, quad),
    )


def diagonal_norm(
    model: HypergroupModel,
    scheme: CoefficientScheme,
    n: int,
    quad: QuadratureConfig | None = None,
) -> QuadratureResult:
    """L1(lambda x lambda) norm of sum_k coef(k,n) chi_k (x) chi_k, on two grids."""
    coefs = np.array([scheme.tensor_coefficient(k, n) for k in range(n + 1)])

    def integral(even: np.ndarray, odd: np.ndarray, u: np.ndarray) -> float:
        kernel = even.T @ (coefs[0::2, None] * even)
        odd_part = odd.T @ (coefs[1::2, None] * odd)
        np.maximum(np.abs(kernel, out=kernel), np.abs(odd_part, out=odd_part), out=kernel)
        return 4.0 * float(u @ kernel @ u)

    return _two_grid(model, scheme, n, quad or QuadratureConfig(), integral)


def bai_norm(
    model: HypergroupModel,
    scheme: CoefficientScheme,
    n: int,
    quad: QuadratureConfig | None = None,
) -> QuadratureResult:
    """L1(lambda) norm of the level-n kernel sum_k a(k,n) chi_k, on two grids."""
    coefs = np.array([scheme.coefficient(k, n) for k in range(n + 1)])
    return _two_grid(
        model, scheme, n, quad or QuadratureConfig(),
        lambda even, odd, u: 2.0 * float(u @ np.maximum(np.abs(coefs[0::2] @ even), np.abs(coefs[1::2] @ odd))),
    )


def su2_divergence_lower_bound(scheme: CoefficientScheme, n: int) -> float:
    """Closed-form lower bound for the SU(2) diagonal norm at level n.

    (2/pi)^2 sum over odd k = 2j+1 <= n of (a(k,n) (k+1) / (k (k+2)))^2.
    Each term is the squared pairing of the kernel against the sign-type
    test function supported on half the interval.
    """
    if n < 1:
        raise ValueError(f"divergence bound needs n >= 1, got {n}")
    total = 0.0
    j = 0
    while 2 * j + 1 <= n:
        k = 2 * j + 1
        a = scheme.coefficient(k, n)
        total += (a * (k + 1) / (k * (k + 2))) ** 2
        j += 1
    return (2.0 / np.pi) ** 2 * total


@dataclass(frozen=True)
class DivergenceCheck:
    bound: float
    norm: QuadratureResult
    passed: bool


def divergence_bound_check(
    model: HypergroupModel,
    scheme: CoefficientScheme,
    n: int,
    quad: QuadratureConfig | None = None,
) -> DivergenceCheck:
    """Assert diagonal_norm >= su2_divergence_lower_bound - tolerance."""
    quad = quad or QuadratureConfig()
    bound = su2_divergence_lower_bound(scheme, n)
    norm = diagonal_norm(model, scheme, n, quad)
    return DivergenceCheck(
        bound=bound, norm=norm, passed=norm.value >= bound - max(quad.tolerance, norm.error_estimate)
    )


@dataclass(frozen=True)
class DecayProbe:
    """Normalized character magnitudes |chi_k(theta)| / dimension_weight(k)."""

    thetas: np.ndarray
    values: np.ndarray
    tail_max: float
    bound: float
    satisfied: bool


def character_decay_probe(
    model: HypergroupModel, thetas, kmax: int
) -> DecayProbe:
    """Probe pointwise decay of normalized characters away from the endpoints.

    Checks max over k in [kmax/2, kmax] of |chi_k(theta)|/dimension_weight(k)
    against the envelope 2 / ((kmax/2 + 1) sin(theta_min)).  Models whose
    normalized characters do not decay (the circle quotient) fail the check,
    which the probe reports rather than raises.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError("thetas must be a nonempty 1-d array")
    if (thetas < 1e-3).any() or (thetas > np.pi - 1e-3).any():
        raise ValueError("theta values must stay 1e-3 away from 0 and pi")
    dims = np.array([model.dimension_weight(k) for k in range(kmax + 1)])
    values = np.abs(_character_rows(model, kmax, thetas)).T / dims
    half = kmax // 2
    tail_max = float(values[:, half:].max())
    bound = 2.0 / ((half + 1) * np.sin(thetas.min()))
    return DecayProbe(
        thetas=thetas, values=values, tail_max=tail_max, bound=bound, satisfied=tail_max <= bound
    )


def model_by_name(name: str) -> HypergroupModel:
    if name == "su2":
        return su2_model()
    if name == "chebyshev":
        return chebyshev_model()
    raise ValueError(f"unknown hypergroup model {name!r}")


def run_experiment(spec: dict) -> list[dict]:
    """Run one experiment spec: a model, a scheme, and a list of levels.

    Returns one row per level, in the order of the requested levels, with
    the diagonal norm, the kernel norm, the SU(2) lower bound where
    applicable, and reproducibility metadata.
    """
    model = model_by_name(spec["model"])
    scheme = scheme_by_name(model, spec["scheme"])
    quad = QuadratureConfig(**spec.get("quadrature", {}))
    rows = []
    for n in map(int, spec["n"]):
        dn = diagonal_norm(model, scheme, n, quad)
        bn = bai_norm(model, scheme, n, quad)
        rows.append(
            {
                "model": model.label,
                "scheme": scheme.name,
                "n": n,
                "diagonal_norm": dn.value,
                "diagonal_error_estimate": dn.error_estimate,
                "diagonal_converged": dn.converged,
                "bai_norm": bn.value,
                "bai_error_estimate": bn.error_estimate,
                "lower_bound": su2_divergence_lower_bound(scheme, n) if model.label == "su2" else "",
                "config_hash": dn.config_hash,
            }
        )
    return rows
