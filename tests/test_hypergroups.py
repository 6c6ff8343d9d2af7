"""Tests for the compact hypergroup quadrature experiments.

Oracles:
- Haar mass and character orthogonality have closed forms per model.
- A test-local trapezoid integrator (independent of Gauss-Legendre)
  cross-checks the diagonal norm on a small case.
- The unfolded full-grid products v.T @ (coefs[:, None] * v) and
  coefs @ v on all of [0, pi] check both norms, which integrate over the
  half grid theta <= pi/2 by the theta -> pi - theta parity.
- The circle-quotient Fejer kernel is nonnegative with unit mass, so its
  diagonal norm is exactly 1 at every level.
- The SU(2) lower bound at n = 1 is (2/pi)^2 (4/3)^2 by hand.
- A composite Gauss-Legendre rule with m nodes per panel integrates
  theta^j exactly for j < 2m.
- The characters come from one three-term recurrence; the sine ratio
  sin((k+1) theta)/sin(theta) (with U_k(cos theta) at the removable
  singularities) and cos(k theta) are the closed-form oracles.
"""

import tracemalloc

import numpy as np
import pytest

from zamen.hypergroups import (
    CoefficientScheme,
    QuadratureConfig,
    _character_rows,
    _grid,
    bai_norm,
    character_decay_probe,
    chebyshev_model,
    diagonal_norm,
    dirichlet_scheme,
    divergence_bound_check,
    fejer_scheme,
    fejer_smoothed_scheme,
    haar_mass,
    model_by_name,
    orthogonality_residual,
    run_experiment,
    scheme_by_name,
    su2_divergence_lower_bound,
    su2_model,
)


def chebyshev_u(k, x):
    """Second-kind Chebyshev polynomial U_k(x) by forward recurrence."""
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = 2.0 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def sin_ratio_character(k, theta):
    """chi_k = sin((k+1) theta)/sin(theta), and U_k(cos theta) where sin(theta) ~ 0."""
    t = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    s = np.sin(t)
    out = np.empty_like(t)
    safe = np.abs(s) > 1e-8
    out[safe] = np.sin((k + 1) * t[safe]) / s[safe]
    if not safe.all():
        out[~safe] = chebyshev_u(k, np.cos(t[~safe]))
    return out


def refined_grid_points(quad=QuadratureConfig()):
    points, _ = _grid(quad.panels * quad.refinement_factor, quad.nodes_per_panel)
    return points


def trapezoid_diagonal_norm(model, coefs, num_points=2001):
    """Dumb uniform-grid oracle for the tensor diagonal norm."""
    theta = np.linspace(0.0, np.pi, num_points)
    v = np.vstack([model.character(k, theta) for k in range(len(coefs))])
    kernel = v.T @ (np.asarray(coefs)[:, None] * v)
    w = model.weight(theta)
    inner = np.trapezoid(np.abs(kernel) * w[None, :], theta, axis=1)
    return float(np.trapezoid(inner * w, theta))


def full_grid_norms(model, scheme, n, quad):
    """(diagonal, bai) on the base and on the refined grid, from the whole of [0, pi]."""
    tensor = np.array([scheme.tensor_coefficient(k, n) for k in range(n + 1)])
    coefs = np.array([scheme.coefficient(k, n) for k in range(n + 1)])
    values = []
    for panels in (quad.panels, quad.panels * quad.refinement_factor):
        points, weights = _grid(panels, quad.nodes_per_panel)
        v = _character_rows(model, n, points)
        u = weights * model.weight(points)
        values.append((float(u @ np.abs(v.T @ (tensor[:, None] * v)) @ u), float(u @ np.abs(coefs @ v))))
    return values


STUDIES = [
    ("su2", "dirichlet"),
    ("su2", "fejer-smoothed"),
    ("chebyshev", "fejer"),
    ("chebyshev", "fejer-signed"),
]
BENCHMARK_LEVELS = [50, 100, 200, 400, 800]


@pytest.fixture(scope="module")
def benchmark_rows():
    """The four studies at the benchmark's levels on the default grid."""
    specs = [{"model": model, "scheme": scheme, "n": BENCHMARK_LEVELS} for model, scheme in STUDIES]
    return [row for spec in specs for row in run_experiment(spec)]


class TestModels:
    def test_haar_mass_is_one(self):
        assert abs(haar_mass(su2_model()) - 1.0) < 1e-12
        assert abs(haar_mass(chebyshev_model()) - 1.0) < 1e-12

    def test_su2_characters_orthonormal(self):
        assert orthogonality_residual(su2_model(), 30) < 1e-10

    def test_chebyshev_characters_orthogonal(self):
        # integral cos^2(k theta) / pi dtheta is 1 for k = 0 and 1/2 otherwise.
        assert orthogonality_residual(chebyshev_model(), 30) < 1e-10

    def test_su2_character_at_zero_is_dimension(self):
        model = su2_model()
        for k in range(6):
            assert abs(model.character(k, 0.0) - (k + 1)) < 1e-9
            # At pi the value is (k+1) times the parity sign.
            assert abs(model.character(k, np.pi) - (-1) ** k * (k + 1)) < 1e-9

    def test_su2_character_near_singularity_matches_ratio(self):
        model = su2_model()
        # Either side of the oracle's 1e-8 guard on sin(theta), where it
        # switches between the sine ratio and U_k.
        for k in (3, 10):
            for theta in (1e-8 * 0.5, 2e-8):
                assert abs(model.character(k, theta) - (k + 1)) < 1e-6
                assert abs(model.character(k, theta) - sin_ratio_character(k, theta)[0]) < 1e-6

    def test_su2_recurrence_matches_sine_ratio_on_refined_grid(self):
        # kmax = 800 is the top level of the compact studies.
        theta = refined_grid_points()
        rows = _character_rows(su2_model(), 800, theta)
        oracle = np.vstack([sin_ratio_character(k, theta) for k in range(801)])
        scale = np.arange(1, 802)[:, None]
        assert (np.abs(rows - oracle) <= 1e-9 * scale).all()

    def test_su2_recurrence_matches_u_k_at_endpoints(self):
        model = su2_model()
        endpoints = np.array([0.0, np.pi])
        for k in (0, 1, 5, 100, 800):
            got = model.character(k, endpoints)
            assert np.array_equal(got, sin_ratio_character(k, endpoints))
            assert got.tolist() == [k + 1, (-1) ** k * (k + 1)]

    def test_chebyshev_recurrence_matches_cosine(self):
        theta = np.concatenate([refined_grid_points(), [0.0, np.pi]])
        rows = _character_rows(chebyshev_model(), 800, theta)
        assert np.abs(rows - np.cos(np.arange(801)[:, None] * theta)).max() <= 1e-9

    def test_character_keeps_the_shape_of_theta(self):
        model = su2_model()
        assert isinstance(model.character(3, 0.5), float)
        theta = np.linspace(0.1, 3.0, 6).reshape(2, 3)
        assert model.character(3, theta).shape == (2, 3)

    def test_dimension_weights(self):
        su2 = su2_model()
        cheb = chebyshev_model()
        assert [su2.dimension_weight(k) for k in range(4)] == [1, 2, 3, 4]
        assert [cheb.dimension_weight(k) for k in range(4)] == [1, 2, 2, 2]


class TestGrid:
    @pytest.mark.parametrize("panels", [1, 3])
    @pytest.mark.parametrize("m", [1, 2, 16, 64])
    def test_weights_and_nodes(self, panels, m):
        points, weights = _grid(panels, m)
        assert points.shape == weights.shape == (panels * m,)
        assert (weights > 0).all()
        assert abs(weights.sum() - np.pi) < 1e-13
        assert (np.diff(points) > 0).all()
        width = np.pi / panels
        inside = points.reshape(panels, m) - (np.arange(panels) * width)[:, None]
        assert ((inside > 0) & (inside < width)).all()

    @pytest.mark.parametrize("panels", [1, 3])
    @pytest.mark.parametrize("m", [1, 2, 16, 64])
    def test_integrates_polynomials_of_degree_below_2m_exactly(self, panels, m):
        points, weights = _grid(panels, m)
        for j in range(2 * m):
            exact = np.pi ** (j + 1) / (j + 1)
            assert abs(weights @ points**j - exact) <= 1e-12 * exact, j


class TestSchemes:
    def test_dirichlet_truncates(self):
        scheme = dirichlet_scheme(su2_model())
        assert scheme.coefficient(3, 5) == 4.0
        assert scheme.coefficient(6, 5) == 0.0
        assert scheme.tensor_coefficient(3, 5) == 16.0

    def test_fejer_smoothed_taper(self):
        scheme = fejer_smoothed_scheme(su2_model())
        assert scheme.coefficient(0, 4) == 1.0
        assert abs(scheme.coefficient(4, 4) - 5.0 * (1.0 - 4.0 / 5.0)) < 1e-15
        assert scheme.coefficient(5, 4) == 0.0

    def test_fejer_classical_coefficients(self):
        scheme = fejer_scheme()
        assert scheme.coefficient(0, 4) == 1.0
        assert abs(scheme.coefficient(1, 4) - 2.0 * (1.0 - 1.0 / 5.0)) < 1e-15
        assert not scheme.squared_in_diagonal

    def test_fejer_signed_goes_negative(self):
        scheme = fejer_scheme(signed_taper=True)
        assert scheme.coefficient(0, 8) == 1.0
        assert scheme.coefficient(8, 8) < 0.0

    def test_scheme_by_name(self):
        su2 = su2_model()
        cheb = chebyshev_model()
        assert scheme_by_name(su2, "dirichlet").name == "dirichlet"
        assert scheme_by_name(cheb, "fejer").name == "fejer"
        assert scheme_by_name(cheb, "fejer-signed").name == "fejer-signed"
        with pytest.raises(ValueError, match="specific to the chebyshev model"):
            scheme_by_name(su2, "fejer")
        with pytest.raises(ValueError, match="unknown coefficient scheme"):
            scheme_by_name(su2, "nope")


class TestDiagonalNorm:
    def test_level_zero_is_constant_coefficient(self):
        result = diagonal_norm(su2_model(), dirichlet_scheme(su2_model()), 0)
        assert abs(result.value - 1.0) < 1e-9

    def test_zero_coefficients_give_zero(self):
        zero = CoefficientScheme("zero", lambda k, n: 0.0, squared_in_diagonal=True)
        result = diagonal_norm(su2_model(), zero, 4)
        assert result.value == 0.0

    def test_matches_trapezoid_oracle(self):
        model = su2_model()
        scheme = dirichlet_scheme(model)
        coefs = [scheme.tensor_coefficient(k, 2) for k in range(3)]
        oracle = trapezoid_diagonal_norm(model, coefs)
        result = diagonal_norm(model, scheme, 2)
        assert abs(result.value - oracle) < 1e-4

    def test_chebyshev_fejer_norm_is_one(self):
        # The level-n kernel is half the sum of two shifted Fejer kernels,
        # nonnegative with unit mass, so the norm is exactly 1.
        model = chebyshev_model()
        scheme = fejer_scheme()
        for n in (4, 8, 16, 32):
            result = diagonal_norm(model, scheme, n)
            assert abs(result.value - 1.0) < 1e-6, (n, result.value)
            assert result.converged

    def test_chebyshev_signed_taper_drifts_from_one(self):
        # The signed-taper coefficient string does not reproduce the unit
        # norm: the deviation grows with the level (about 0.031 at n = 16
        # and 0.101 at n = 32).
        model = chebyshev_model()
        scheme = fejer_scheme(signed_taper=True)
        assert abs(diagonal_norm(model, scheme, 16).value - 1.0) > 1e-3
        assert abs(diagonal_norm(model, scheme, 32).value - 1.0) > 0.05

    def test_refinement_invariance(self):
        model = chebyshev_model()
        scheme = fejer_scheme()
        a = diagonal_norm(model, scheme, 8, QuadratureConfig(panels=64))
        b = diagonal_norm(model, scheme, 8, QuadratureConfig(panels=96))
        assert abs(a.value - b.value) < 1e-8
        assert a.config_hash != b.config_hash

    def test_config_hash_is_stable(self):
        model = su2_model()
        scheme = dirichlet_scheme(model)
        a = diagonal_norm(model, scheme, 3)
        b = diagonal_norm(model, scheme, 3)
        assert a.config_hash == b.config_hash

    def test_default_grid_su2_dirichlet_value_is_pinned(self):
        # Frozen from scipy.special.roots_legendre nodes, independent of numpy's leggauss.
        result = diagonal_norm(su2_model(), dirichlet_scheme(su2_model()), 50)
        assert abs(result.value - 4295.705952848206) <= 1e-12 * 4295.705952848206


class TestParityFold:
    # Coefficients of both signs and no parity pattern, used unsquared.
    MIXED = CoefficientScheme("mixed", lambda k, n: (k % 3 - 1) * (k + 1.5) if k <= n else 0.0, False)
    CASES = [*STUDIES, ("su2", MIXED), ("chebyshev", MIXED)]
    # Panels and nodes_per_panel both odd put a node at pi/2 on the base grid.
    GRIDS = [
        QuadratureConfig(),
        QuadratureConfig(panels=3, nodes_per_panel=5),
        QuadratureConfig(panels=4, nodes_per_panel=5),
    ]

    @pytest.mark.parametrize("quad", GRIDS, ids=["default", "3x5-middle-node", "4x5"])
    @pytest.mark.parametrize("model_name,scheme", CASES, ids=lambda c: getattr(c, "name", c))
    def test_matches_full_grid_oracle(self, model_name, scheme, quad):
        model = model_by_name(model_name)
        if isinstance(scheme, str):
            scheme = scheme_by_name(model, scheme)
        for n in (0, 1, 7, 50):
            (base_dn, base_bn), (refined_dn, refined_bn) = full_grid_norms(model, scheme, n, quad)
            for result, base, refined in (
                (diagonal_norm(model, scheme, n, quad), base_dn, refined_dn),
                (bai_norm(model, scheme, n, quad), base_bn, refined_bn),
            ):
                tol = 1e-13 * abs(refined)
                assert abs(result.value - refined) <= tol, (n, result, refined)
                assert abs(result.error_estimate - abs(refined - base)) <= tol, (n, result, base)

    def test_benchmark_levels_are_pinned(self, benchmark_rows):
        # Frozen from the unfolded full-grid product on the default grid.
        pinned = {("su2", "dirichlet"): 1756236.150552023, ("chebyshev", "fejer-signed"): 1.6745957973992383}
        top = {(r["model"], r["scheme"]): r["diagonal_norm"] for r in benchmark_rows if r["n"] == 800}
        for study, expected in pinned.items():
            assert abs(top[study] - expected) <= 1e-12 * expected, (study, top[study])

    def test_benchmark_convergence_flags(self, benchmark_rows):
        # Only the nonnegative Fejer kernel converges at the default tolerance:
        # 15 of the 20 rows are flagged.
        converged = {(r["model"], r["scheme"], r["n"]) for r in benchmark_rows if r["diagonal_converged"]}
        assert converged == {("chebyshev", "fejer", n) for n in BENCHMARK_LEVELS}

    def test_su2_level_800_peak_memory(self):
        # Two half-grid kernels of 1024 x 1024 float64 at the refined grid, against
        # one 2048 x 2048 kernel (57.7 MiB peak) unfolded.
        model = su2_model()
        tracemalloc.start()
        try:
            diagonal_norm(model, dirichlet_scheme(model), 800)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak / 2**20


class TestBaiNorm:
    def test_chebyshev_fejer_kernel_has_unit_norm(self):
        # The classical Fejer kernel is nonnegative with unit mean.
        model = chebyshev_model()
        for n in (4, 8, 16):
            result = bai_norm(model, fejer_scheme(), n)
            assert abs(result.value - 1.0) < 1e-8

    def test_signed_taper_kernel_exceeds_unit_norm(self):
        model = chebyshev_model()
        result = bai_norm(model, fejer_scheme(signed_taper=True), 16)
        assert result.value > 1.05

    def test_su2_fejer_smoothed_kernel_stays_bounded(self):
        model = su2_model()
        scheme = fejer_smoothed_scheme(model)
        values = [bai_norm(model, scheme, n).value for n in (4, 8, 16, 32, 64)]
        assert all(v <= 3.0 for v in values), values

    def test_default_grid_fejer_signed_value_is_pinned(self):
        # Frozen from scipy.special.roots_legendre nodes, independent of numpy's leggauss.
        model = chebyshev_model()
        result = bai_norm(model, scheme_by_name(model, "fejer-signed"), 50)
        assert abs(result.value - 1.2786491398887885) <= 1e-12 * 1.2786491398887885


class TestDivergenceBound:
    def test_hand_value_at_level_one(self):
        # Single odd term k = 1 with dirichlet coefficient a = 2:
        # (2/pi)^2 (2 * 2 / (1 * 3))^2 = (2/pi)^2 (4/3)^2.
        scheme = dirichlet_scheme(su2_model())
        expected = (2.0 / np.pi) ** 2 * (4.0 / 3.0) ** 2
        assert abs(su2_divergence_lower_bound(scheme, 1) - expected) < 1e-12

    def test_dirichlet_bound_is_nondecreasing(self):
        scheme = dirichlet_scheme(su2_model())
        values = [su2_divergence_lower_bound(scheme, n) for n in range(1, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_dirichlet_bound_grows_linearly(self):
        # Each odd term tends to 1, so the bound grows like (2/pi)^2 n / 2.
        scheme = dirichlet_scheme(su2_model())
        slope = su2_divergence_lower_bound(scheme, 200) / 200
        assert 0.19 < slope < 0.22

    def test_dirichlet_bound_exceeds_five_by_level_25(self):
        scheme = dirichlet_scheme(su2_model())
        assert su2_divergence_lower_bound(scheme, 25) > 5.0

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError, match="n >= 1"):
            su2_divergence_lower_bound(dirichlet_scheme(su2_model()), 0)

    def test_diagonal_norm_dominates_bound(self):
        model = su2_model()
        for scheme in (dirichlet_scheme(model), fejer_smoothed_scheme(model)):
            for n in (2, 5, 8):
                check = divergence_bound_check(model, scheme, n)
                assert check.passed, (scheme.name, n, check)


class TestDecayProbe:
    def test_su2_normalized_characters_decay(self):
        probe = character_decay_probe(su2_model(), [0.3, 1.0, 2.0], kmax=40)
        assert probe.satisfied
        assert probe.tail_max <= probe.bound

    def test_chebyshev_normalized_characters_do_not_decay(self):
        probe = character_decay_probe(chebyshev_model(), [0.3, 1.0, 2.0], kmax=40)
        assert not probe.satisfied
        assert probe.tail_max > 0.4

    def test_rejects_endpoint_thetas(self):
        with pytest.raises(ValueError, match="away from 0 and pi"):
            character_decay_probe(su2_model(), [1e-5, 1.0], kmax=10)
        with pytest.raises(ValueError, match="away from 0 and pi"):
            character_decay_probe(su2_model(), [1.0, np.pi], kmax=10)


class TestRunExperiment:
    SPEC = {
        "model": "chebyshev",
        "scheme": "fejer",
        "n": [4, 8],
        "quadrature": {"panels": 32, "nodes_per_panel": 8},
    }

    def test_rows_in_input_order(self):
        rows = run_experiment(self.SPEC)
        assert [r["n"] for r in rows] == [4, 8]
        assert all(r["model"] == "chebyshev" for r in rows)
        assert all(abs(r["diagonal_norm"] - 1.0) < 1e-5 for r in rows)
        assert all(r["lower_bound"] == "" for r in rows)

    def test_su2_rows_carry_bound(self):
        spec = {
            "model": "su2",
            "scheme": "dirichlet",
            "n": [2],
            "quadrature": {"panels": 32, "nodes_per_panel": 8},
        }
        rows = run_experiment(spec)
        assert rows[0]["lower_bound"] > 0.0
        assert rows[0]["diagonal_norm"] >= rows[0]["lower_bound"] - 1e-6
