"""Quadrature experiments on two compact conjugacy-class hypergroups.

Models (both on theta in [0, pi], Haar mass 1), each named by its label, from
which ``HypergroupModel`` derives everything else:

- SU(2) conjugacy classes: d(lambda) = (2/pi) sin^2(theta) dtheta with
  characters chi_k(theta) = sin((k+1) theta)/sin(theta) and dimension weight
  k+1.  The characters are orthonormal: integral chi_j chi_k dlambda =
  delta_jk (character_sq_norm = 1).
- Circle modulo conjugation/inversion (the Chebyshev hypergroup):
  d(lambda) = (1/pi) dtheta with characters cos(k theta) and dimension
  weight 1 for k = 0 and 2 for k >= 1.  Here
  integral cos^2(k theta) dlambda = 1/dimension_weight(k)
  (character_sq_norm = 1/dimension_weight), the convention of each model.

Both character families come from one three-term recurrence,
chi_0 = 1, chi_1 = (1 + sigma) cos(theta), chi_{k+1} = 2 cos(theta) chi_k - chi_{k-1}:
sigma = 1 gives the second-kind Chebyshev polynomials U_k(cos theta), which
are the SU(2) characters (finite at theta in {0, pi}, where the sine ratio is
0/0), and sigma = 0 gives cos(k theta).

A coefficient scheme is a name too, "dirichlet", "fejer-smoothed", "fejer" or
"fejer-signed", whose level-n coefficients ``coefficients`` gives, so a result's
config hash (of model, scheme, level and grid) names everything that made it.
Norms of kernels sum_k a(k,n) chi_k and of tensor diagonals
sum_k coef(k,n) chi_k (x) chi_k are integrated with composite
Gauss-Legendre rules.  The integrands carry absolute values and are only
piecewise smooth, so every result ships with a refinement-delta error
estimate, never an order-based claim.

Neither norm forms character rows.  By the product-to-sum formulas,
chi_k(t) chi_k(p) S(t) S(p) = [cos l(t-p) + sign cos l(t+p)] / 2 with
l = k + sigma (SU(2): S = sin, sigma = 1, sign = -1; Chebyshev: S = 1,
sigma = 0, sign = +1), so the diagonal kernel weighted by the Haar weights
u is v(t) v(p) |F(t-p) + sign F(t+p)| / 2 with v = u/S and
F(x) = sum_k coef_k cos(l x), a function of one variable.  The grid is
theta = p h + tau_a with h = pi/N for N panels and tau_a the nodes of the
first panel, so t -/+ p is a multiple of h plus tau_a -/+ tau_b.  For each
node pair (a, b), F at every panel offset comes from the table of
e^{i l tau_a}, folded modulo 2N (one real product per residue) and an
inverse real FFT of length 2N for each of t - p and t + p, in
O(m^2 (n + N log N)) for m nodes per panel.
The pair's N x N kernel is then a Toeplitz matrix in p - q plus a Hankel
matrix in p + q, read through strided views and reduced in tiles of at
most 512 KiB against the one or two factors of v over the panels.  Only pairs a <= b with a + b <= m - 1 are formed: the grid
and the weights are symmetric under theta -> pi - theta (tau_{m-1-a} =
h - tau_a), which leaves the kernel unchanged, and the transpose gives the
rest.  The kernel norm is the same fold and FFT per node.  A study builds
its table once per grid, at its largest level, and each level reads its
first blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .base import sha256_hex, stable_json

__all__ = [
    "HypergroupModel",
    "QuadratureConfig",
    "QuadratureResult",
    "DecayProbe",
    "coefficients",
    "haar_mass",
    "orthogonality_residual",
    "diagonal_norm",
    "bai_norm",
    "su2_divergence_lower_bound",
    "divergence_bound_check",
    "character_decay_probe",
    "experiment_bytes",
    "run_experiment",
]


@dataclass(frozen=True)
class HypergroupModel:
    """One of the two hypergroups on [0, pi], named by its label, "su2" or "chebyshev".

    ``sigma`` is 1 for SU(2) and 0 for Chebyshev: chi_1 = (1 + sigma) cos(theta), and
    chi_k(theta) S(theta) is sin(l theta) or cos(l theta) with l = k + sigma (see the module
    docstring).  The weight, dimension weights and character norms follow from the label.
    """

    label: str

    def __post_init__(self) -> None:
        if self.label not in ("su2", "chebyshev"):
            raise ValueError(f"unknown hypergroup model {self.label!r}")

    @property
    def sigma(self) -> int:
        return int(self.label == "su2")

    def weight(self, theta: np.ndarray) -> np.ndarray:
        """The Haar density: (2/pi) sin^2(theta) for SU(2), 1/pi for Chebyshev."""
        if self.sigma:
            return (2.0 / np.pi) * np.sin(theta) ** 2
        return np.full_like(np.asarray(theta, dtype=np.float64), 1.0 / np.pi)

    def dimension_weight(self, k):
        """k + 1 for SU(2); 1 at k = 0 and 2 above for Chebyshev.  Elementwise over an array of k."""
        return k + 1.0 if self.sigma else np.minimum(k + 1.0, 2.0)

    def character_sq_norm(self, k: int) -> float:
        """The integral of chi_k^2 dlambda: 1 for SU(2), 1/dimension_weight(k) for Chebyshev."""
        return 1.0 if self.sigma or k == 0 else 0.5


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
    rows[1] = (1 + model.sigma) * cos
    two_cos = 2.0 * cos
    for k in range(1, kmax):
        np.multiply(two_cos, rows[k], out=rows[k + 1])
        rows[k + 1] -= rows[k - 1]
    return rows


def coefficients(model: HypergroupModel, scheme: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-n kernel's a(k, n) and the tensor diagonal's coef(k, n), for k = 0..n.

    - ``dirichlet``, sharp truncation: a = dimension_weight(k);
    - ``fejer-smoothed``, a linear taper: a = dimension_weight(k) (1 - k/(n+1));
    - ``fejer`` (Chebyshev only), the classical weights a(0) = 1 and a(k) = 2 (1 - k/(n+1)), which
      sum to the nonnegative Fejer kernel with L1 norm exactly 1;
    - ``fejer-signed`` (Chebyshev only), a = 1 - 2k/(n+1), which goes negative for k > (n+1)/2,
      so its kernel is not L1-normalized.

    ``dirichlet`` and ``fejer-smoothed`` square a in the diagonal, coef = a^2; the circle-quotient
    Fejer schemes use coef = a.  ValueError for any other scheme name, for ``fejer`` or
    ``fejer-signed`` on SU(2), and for a negative level.
    """
    if scheme not in ("dirichlet", "fejer-smoothed", "fejer", "fejer-signed"):
        raise ValueError(f"unknown coefficient scheme {scheme!r}")
    if scheme in ("fejer", "fejer-signed") and model.sigma:
        raise ValueError(f"scheme {scheme!r} is specific to the chebyshev model")
    if n < 0:
        raise ValueError(f"the level needs n >= 0, got {n}")
    k = np.arange(n + 1, dtype=np.float64)
    if scheme == "fejer-signed":
        a = 1.0 - 2.0 * k / (n + 1.0)
        return a, a
    a = model.dimension_weight(k)
    if scheme != "dirichlet":
        a = a * (1.0 - k / (n + 1.0))  # fejer is Chebyshev-only: 1 at k = 0, 2 (1 - k/(n+1)) above
    return a, (a if scheme == "fejer" else a * a)


def _grid(panels: int, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre points and weights on [0, pi]."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    width = np.pi / panels
    starts = np.arange(panels) * width
    points = (starts[:, None] + (x[None, :] + 1.0) * (width / 2.0)).reshape(-1)
    weights = np.tile(w * (width / 2.0), panels)
    return points, weights


def _config_hash(model: HypergroupModel, scheme: str, n: int, quad: QuadratureConfig) -> str:
    config = {
        "model": model.label,
        "scheme": scheme,
        "n": n,
        "panels": quad.panels,
        "nodes_per_panel": quad.nodes_per_panel,
        "refinement_factor": quad.refinement_factor,
        "tolerance": float(quad.tolerance),  # 1 and 1.0 are one setting
    }
    return sha256_hex(stable_json(config))[:16]


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


# A kernel tile holds at most _TILE float64 (512 KiB, within one core's L2 cache), and a chunk
# of fold products about 4 _TILE, for one node row at least.
_TILE = 1 << 16


def _exponential_table(tau: np.ndarray, lmax: int, period: int) -> np.ndarray:
    """(period, blocks, m) complex: e^{i l tau_a} at [r, j, a] for l = j period + r, l <= lmax at least.

    Each entry is e^{i r tau_a} e^{i j period hi_a} e^{i j period (tau_a - hi_a)}, where hi_a keeps
    24 bits of tau_a, so every angle is exact or below 2 pi and no entry loses digits as l grows.
    Each block is computed alone, so a level's blocks hold the same numbers whatever lmax the
    table was built for.
    """
    blocks = lmax // period + 1
    hi = tau.astype(np.float32).astype(np.float64)
    residues = np.exp(1j * np.multiply.outer(np.arange(period, dtype=np.float64), tau))
    table = np.empty((period, blocks, tau.size), dtype=np.complex128)
    for j in range(blocks):
        shift = np.exp(1j * (j * period * hi)) * np.exp(1j * (j * period * (tau - hi)))
        np.multiply(residues, shift, out=table[:, j])
    return table


def _by_residue(coef: np.ndarray, sigma: int, period: int) -> np.ndarray:
    """coef_k at [r, j] for l = k + sigma = j period + r, over the residues r that some l reaches."""
    blocks = (coef.size + sigma - 1) // period + 1
    padded = np.zeros(blocks * period)
    padded[sigma : sigma + coef.size] = coef
    return padded.reshape(blocks, period).T[: coef.size + sigma]


def _diagonal(table: np.ndarray, folded: np.ndarray, sign: float, factors: tuple[np.ndarray, np.ndarray]) -> float:
    """sum over node pairs (a, b) and panels (p, q) of v[p,a] v[q,b] |F(t_pa - t_qb) + sign F(t_pa + t_qb)| / 2.

    F at d h + delta is Re sum_r G_r e^{i pi r d / N}, with G_r the sum of
    t_l e^{i l delta} over l = r mod 2N: a product of the table per residue,
    then an inverse real FFT.  The pair is the innermost axis, so each tile
    row over (q, pair) of the Toeplitz-plus-Hankel kernel is one contiguous
    run, and v = panel_factors.T @ node_factors reduces a tile over p and q
    by two small products (see the module docstring).
    """
    panel_factors, node_factors = factors
    active, blocks = folded.shape
    rank, panels = panel_factors.shape
    m = node_factors.shape[1]
    period, width = 2 * panels, 2 * panels - 1
    table = table[:active, :blocks].view(np.float64)  # [r, j, (a, cos | sin)]
    minus_index = (panels - 1 - np.arange(width)) % period  # reversed: p - q = N - 1 - index
    tile = np.empty(max(_TILE, panels) + 7)  # one row over (q, pair) at least
    tile = tile[(-tile.ctypes.data % 64) // 8 :]  # from a 64-byte line: AVX-512 add and abs store 1.6x slower off one
    chunk = max(1, _TILE // (period * m))
    top = (m + 1) // 2  # a <= (m - 1) / 2
    total = 0.0
    for a0 in range(0, top, chunk):
        a1 = min(a0 + chunk, top)
        rows, cols = a1 - a0, m - 2 * a0
        local_a, local_b = np.arange(rows)[:, None], np.arange(cols)
        a, b = np.nonzero((local_b >= local_a) & (local_a + local_b < cols))  # a <= b, a + b <= m - 1
        left = (table[:, :, 2 * a0 : 2 * a1] * folded[:, :, None]).reshape(active, blocks, rows, 2)
        left = left.transpose(0, 3, 2, 1).reshape(active, 2 * rows, blocks)  # [r, (cos | sin, a), j]
        products = np.matmul(left, table[:, :, 2 * a0 : 2 * (m - a0)]).reshape(active, 2, rows * cols, 2)
        products = np.take(products, a * cols + b, axis=2)  # [r, (cos | sin) a, pair, (cos | sin) b]
        cc, cs, sc, ss = products[:, 0, :, 0], products[:, 0, :, 1], products[:, 1, :, 0], products[:, 1, :, 1]
        spectra = np.empty((2, active, a.size), dtype=np.complex128)  # [-+, r, pair]
        np.add(cc, ss, out=spectra[0].real)  # e^{i l (tau_a - tau_b)}
        np.subtract(sc, cs, out=spectra[0].imag)
        np.subtract(cc, ss, out=spectra[1].real)  # e^{i l (tau_a + tau_b)}
        np.add(sc, cs, out=spectra[1].imag)
        # Twice Re sum_r G_r w^{rd} is the inverse real FFT of Z_0 = 2 G_0, Z_N = 2 G_N and
        # Z_r = G_r + conj G_{2N-r} for 0 < r < N, zero above the last active residue.
        half, tail = spectra[:, : panels + 1], spectra[:, panels + 1 :][:, ::-1]
        half.real[:, period - active + 1 : panels] += tail.real
        half.imag[:, period - active + 1 : panels] -= tail.imag
        half[:, :: panels] *= 2.0
        offsets = np.fft.irfft(half, period, axis=1, norm="forward")  # [-+, d, pair], doubled
        minus, plus = np.take(offsets[0], minus_index, axis=0), sign * offsets[1, :width]
        a, b = a0 + a, a0 + b
        pair_factors = np.take(node_factors, a, axis=1)[:, None] * np.take(node_factors, b, axis=1)
        pair_factors *= (1.0 + (a < b)) * (1.0 + (a + b < m - 1))  # [k, k', pair], with multiplicity
        step = max(1, _TILE // panels)  # pairs per tile: all of them unless N x pairs is too large
        for s0 in range(0, a.size, step):
            pairs = slice(s0, s0 + step)
            count = min(step, a.size - s0)
            shape = (panels, panels, count)  # [p, q, pair]
            toeplitz = as_strided(minus[panels - 1 :, pairs], shape, (-minus.strides[0], *minus.strides))
            hankel = as_strided(plus[:, pairs], shape, (plus.strides[0], *plus.strides))
            reduced = np.zeros((rank, rank * count))  # [k, (k', pair)]: sum_pq phi_k(p) phi_k'(q) |kernel|
            tile_rows = max(1, _TILE // (panels * count))
            for p in range(0, panels, tile_rows):
                kernel = toeplitz[p : p + tile_rows]
                out = tile[: kernel.size].reshape(kernel.shape)
                np.abs(np.add(kernel, hankel[p : p + tile_rows], out=out), out=out)
                by_q = np.matmul(panel_factors, out).reshape(-1, rank * count)
                reduced += panel_factors[:, p : p + tile_rows] @ by_q
            total += float(np.vdot(pair_factors[:, :, pairs], reduced))
    return total / 4.0


def experiment_bytes(model: HypergroupModel, levels: list[int], quad: QuadratureConfig) -> int:
    """The bytes of the arrays an experiment over ``levels`` holds at once, counted on the refined grid.

    Its exponential table, built once at the top level n, has
    (n + sigma)//2N' + 1 blocks of 2N' x m complex128 for N' panels of m
    nodes.  The diagonal's fold products (the table's entries for a chunk of
    nodes times the folded coefficients, and their transposed copy) are two
    float64 arrays of at most the table's size each.  Every level keeps its
    coefficients, two float64 vectors of n + 1, for both grids, and its
    results and row (about 600 bytes by tracemalloc, counted as 1 KiB); the
    top level's are built through a list of Python floats, 32 bytes an entry.
    Workspace that does not grow with the levels (the grid, its rule, one
    chunk's kernel tiles) is not counted.
    """
    period, top = 2 * quad.panels * quad.refinement_factor, max(levels)
    table = 16 * ((top + model.sigma) // period + 1) * period * quad.nodes_per_panel
    return 3 * table + 32 * (top + 1) + sum(16 * (n + 1) + 1024 for n in levels)


def _bai(table: np.ndarray, folded: np.ndarray, sigma: int, v: np.ndarray) -> float:
    """sum_pa v[p,a] |B(t_pa)|, B(x) = sum_l c_l cos(l x) (sigma 0) or sin(l x) (sigma 1), by one fold and one FFT."""
    active, blocks = folded.shape
    panels, m = v.shape
    sums = np.zeros((2 * panels, m), dtype=np.complex128)
    sums[:active] = np.matmul(folded[:, None, :], table[:active, :blocks].view(np.float64)).view(np.complex128)[:, 0]
    values = np.fft.ifft(sums, axis=0, norm="forward")[:panels]
    return float(np.sum(v * np.abs(values.imag if sigma else values.real)))


def _grid_norms(
    model: HypergroupModel,
    levels: list[int],
    coefs: list[np.ndarray],
    tensors: list[np.ndarray | None],
    panels: int,
    nodes_per_panel: int,
) -> list[tuple[float, float]]:
    """(diagonal, bai) of each level on one grid, from the panel-offset tables.

    The grid is theta_{p,a} = p h + tau_a with h = pi/N, and v = u / S
    carries the Haar weights u (see the module docstring).  The exponential
    table is built once, at the largest level, and each level reads its first
    blocks, the same numbers as a table built at that level.  A level whose
    tensor is None gets no diagonal (nan).
    """
    sigma = model.sigma  # SU(2): S = sin, l = k + 1 and sign -1; Chebyshev: S = 1
    sign = -1.0 if sigma else 1.0
    points, weights = _grid(panels, nodes_per_panel)
    u = weights * model.weight(points)
    v = (u / np.sin(points) if sigma else u).reshape(panels, nodes_per_panel)
    # v[p, a] = g_a S(p h + tau_a) has rank two for SU(2), by the angle-sum formula, and one for
    # the Chebyshev hypergroup; the diagonal norm reads it through the factors of its SVD.
    panel_factors, scale, node_factors = np.linalg.svd(v, full_matrices=False)
    rank = int(np.count_nonzero(scale > scale[0] * max(v.shape) * np.finfo(float).eps))
    factors = ((panel_factors[:, :rank] * scale[:rank]).T, node_factors[:rank])
    period = 2 * panels
    table = _exponential_table(points[:nodes_per_panel], max(levels) + sigma, period)
    norms = []
    for coef, tensor in zip(coefs, tensors):
        diagonal = np.nan if tensor is None else _diagonal(table, _by_residue(tensor, sigma, period), sign, factors)
        norms.append((diagonal, _bai(table, _by_residue(coef, sigma, period), sigma, v)))
    return norms


def _norms(
    model: HypergroupModel,
    scheme: str,
    levels: list[int],
    quad: QuadratureConfig,
    with_diagonal: bool = True,
) -> list[tuple[QuadratureResult, QuadratureResult]]:
    """(diagonal_norm, bai_norm) at each level, on the configured grid and the refined one.

    One grid's character rows are alive at a time.  The refined value is
    reported with |refined - base| as the error estimate; a result whose
    estimate exceeds the configured tolerance is flagged as non-converged
    rather than rejected.  Without ``with_diagonal`` the diagonal results
    are nan.
    """
    if not levels:
        coefficients(model, scheme, 0)  # an unknown scheme is refused with no levels too
        return []
    coefs, tensors = zip(*(coefficients(model, scheme, n) for n in levels))
    if not with_diagonal:
        tensors = [None] * len(levels)
    base, refined = (
        _grid_norms(model, levels, coefs, tensors, panels, quad.nodes_per_panel)
        for panels in (quad.panels, quad.panels * quad.refinement_factor)
    )
    results = []
    for n, base_pair, refined_pair in zip(levels, base, refined):
        config_hash = _config_hash(model, scheme, n, quad)
        pair = []
        for base_value, value in zip(base_pair, refined_pair):
            err = abs(value - base_value)
            converged = err <= quad.tolerance * max(1.0, abs(value))
            pair.append(QuadratureResult(value, err, converged, config_hash))
        results.append(tuple(pair))
    return results


def diagonal_norm(
    model: HypergroupModel,
    scheme: str,
    n: int,
    quad: QuadratureConfig | None = None,
) -> QuadratureResult:
    """L1(lambda x lambda) norm of sum_k coef(k,n) chi_k (x) chi_k, on two grids."""
    return _norms(model, scheme, [n], quad or QuadratureConfig())[0][0]


def bai_norm(
    model: HypergroupModel,
    scheme: str,
    n: int,
    quad: QuadratureConfig | None = None,
) -> QuadratureResult:
    """L1(lambda) norm of the level-n kernel sum_k a(k,n) chi_k, on two grids."""
    return _norms(model, scheme, [n], quad or QuadratureConfig(), with_diagonal=False)[0][1]


def su2_divergence_lower_bound(scheme: str, n: int) -> float:
    """Closed-form lower bound for the SU(2) diagonal norm at level n.

    (2/pi)^2 sum over odd k = 2j+1 <= n of (a(k,n) (k+1) / (k (k+2)))^2.
    Each term is the squared pairing of the kernel against the sign-type
    test function supported on half the interval.  At n = 0 no odd k is
    left, so the bound is the empty sum 0.0.  Terms are squared by pow, as
    ``** 2`` on a float is (x * x can differ in the last bit), and summed in order.
    """
    a = coefficients(HypergroupModel("su2"), scheme, n)[0][1::2]
    k = np.arange(1, n + 1, 2)
    terms = np.float_power(a * (k + 1) / (k * (k + 2)), 2.0)
    return (2.0 / np.pi) ** 2 * sum(terms.tolist(), 0.0)


@dataclass(frozen=True)
class DivergenceCheck:
    bound: float
    norm: QuadratureResult
    passed: bool


def divergence_bound_check(scheme: str, n: int, quad: QuadratureConfig | None = None) -> DivergenceCheck:
    """Check SU(2)'s diagonal_norm >= su2_divergence_lower_bound - tolerance."""
    quad = quad or QuadratureConfig()
    bound = su2_divergence_lower_bound(scheme, n)
    norm = diagonal_norm(HypergroupModel("su2"), scheme, n, quad)
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
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError("thetas must be a nonempty 1-d array")
    if (thetas < 1e-3).any() or (thetas > np.pi - 1e-3).any():
        raise ValueError("theta values must stay 1e-3 away from 0 and pi")
    values = np.abs(_character_rows(model, kmax, thetas)).T / model.dimension_weight(np.arange(kmax + 1))
    half = kmax // 2
    tail_max = float(values[:, half:].max())
    bound = 2.0 / ((half + 1) * np.sin(thetas.min()))
    return DecayProbe(
        thetas=thetas, values=values, tail_max=tail_max, bound=bound, satisfied=tail_max <= bound
    )


def run_experiment(spec: dict) -> list[dict]:
    """Run one experiment spec: a model, a scheme, and a list of levels.

    Returns one row per level, in the order of the requested levels, with
    the diagonal norm, the kernel norm, the SU(2) lower bound where
    applicable, and reproducibility metadata.
    """
    model, scheme = HypergroupModel(spec["model"]), spec["scheme"]
    quad = QuadratureConfig(**spec.get("quadrature", {}))
    levels = [int(n) for n in spec["n"]]
    rows = []
    for n, (dn, bn) in zip(levels, _norms(model, scheme, levels, quad)):
        rows.append(
            {
                "model": model.label,
                "scheme": scheme,
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
