"""Tests for the compact hypergroup quadrature experiments.

Oracles:
- Haar mass and character orthogonality have closed forms per model.
- A test-local trapezoid integrator (independent of Gauss-Legendre)
  cross-checks the diagonal norm on a small case.
- The unfolded full-grid products v.T @ (coefs[:, None] * v) and
  coefs @ v on all of [0, pi] check both norms, which the module computes
  from panel-offset tables: the product-to-sum identity, one FFT per node
  pair, Toeplitz-plus-Hankel kernel tiles and the transpose and
  theta -> pi - theta symmetries of the node pairs.  The oracle's rows are
  closed-form characters with exactly reduced angles.
- The circle-quotient Fejer kernel is nonnegative with unit mass, so its
  diagonal norm is exactly 1 at every level.
- The SU(2) lower bound at n = 1 is (2/pi)^2 (4/3)^2 by hand.
- A composite Gauss-Legendre rule with m nodes per panel integrates
  theta^j exactly for j < 2m.
- The characters come from one three-term recurrence; the sine ratio
  sin((k+1) theta)/sin(theta) (with U_k(cos theta) at the removable
  singularities) and cos(k theta) are the closed-form oracles.
"""

import dataclasses
import inspect
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from zamen.hypergroups import (
    _TILE,
    HypergroupModel,
    QuadratureConfig,
    _character_rows,
    _grid,
    _grid_norms,
    _rule,
    _tile,
    bai_norm,
    character_decay_probe,
    coefficients,
    diagonal_norm,
    divergence_bound_check,
    experiment_bytes,
    haar_mass,
    orthogonality_residual,
    run_experiment,
    su2_divergence_lower_bound,
)
from zamen.specio import load_experiment_spec

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SU2, CHEB = HypergroupModel("su2"), HypergroupModel("chebyshev")


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


def character(model, k, theta):
    """chi_k at each angle of theta (a scalar counts as one angle), read from the recurrence rows."""
    return _character_rows(model, k, np.atleast_1d(np.asarray(theta, dtype=np.float64)))[k]


def refined_grid_points(quad=QuadratureConfig()):
    points, _ = _grid(quad.panels * quad.refinement_factor, quad.nodes_per_panel)
    return points


def trapezoid_diagonal_norm(model, coefs, num_points=2001):
    """Dumb uniform-grid oracle for the tensor diagonal norm."""
    theta = np.linspace(0.0, np.pi, num_points)
    v = np.vstack([character(model, k, theta) for k in range(len(coefs))])
    kernel = v.T @ (np.asarray(coefs)[:, None] * v)
    w = model.weight(theta)
    inner = np.trapezoid(np.abs(kernel) * w[None, :], theta, axis=1)
    return float(np.trapezoid(inner * w, theta))


def closed_form_rows(model, n, panels, nodes_per_panel):
    """chi_0..chi_n on the composite grid: sin(l theta)/sin(theta) for SU(2) (l = k+1), cos(k theta) otherwise.

    theta = p h + tau (h = pi/panels), and e^{i l theta} is the product of e^{i (l p mod 2 panels) h},
    e^{i l hi} and e^{i l (tau - hi)}, where hi keeps 24 bits of tau so that l hi is exact: every
    angle is exact or tiny, so each value carries a few roundings whatever l.  At l = 200 on the
    coarse grids below, the three-term recurrence, or sin or cos of the rounded product l theta,
    moves the kernel norm by up to 5e-13 of itself (against sums in extended precision).
    """
    points, _ = _grid(panels, nodes_per_panel)
    ell = np.arange(n + 1)[:, None] + (model.label == "su2")
    p = np.arange(panels).repeat(nodes_per_panel)
    tau = np.tile(points[:nodes_per_panel], panels)
    hi = tau.astype(np.float32).astype(np.float64)
    whole = (ell * p) % (2 * panels) * (np.pi / panels)
    phase = np.exp(1j * whole) * np.exp(1j * (ell * hi)) * np.exp(1j * (ell * (tau - hi)))
    return phase.imag / np.sin(points) if model.label == "su2" else phase.real


def full_grid_norms(model, coefs, tensor, quad):
    """(diagonal, bai) on the base and on the refined grid, from the whole of [0, pi], for the kernel
    coefficients ``coefs`` and the tensor coefficients ``tensor`` of one level."""
    values = []
    for panels in (quad.panels, quad.panels * quad.refinement_factor):
        points, weights = _grid(panels, quad.nodes_per_panel)
        v = closed_form_rows(model, coefs.size - 1, panels, quad.nodes_per_panel)
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
BENCHMARK_SPECS = [{"model": model, "scheme": scheme, "n": BENCHMARK_LEVELS} for model, scheme in STUDIES]


@pytest.fixture(scope="module")
def benchmark_rows():
    """The four studies at the benchmark's levels on the default grid."""
    return [row for spec in BENCHMARK_SPECS for row in run_experiment(spec)]


class TestModels:
    def test_haar_mass_is_one(self):
        assert abs(haar_mass(SU2) - 1.0) < 1e-12
        assert abs(haar_mass(CHEB) - 1.0) < 1e-12

    def test_su2_characters_orthonormal(self):
        assert orthogonality_residual(SU2, 30) < 1e-10

    def test_chebyshev_characters_orthogonal(self):
        # integral cos^2(k theta) / pi dtheta is 1 for k = 0 and 1/2 otherwise.
        assert orthogonality_residual(CHEB, 30) < 1e-10

    def test_su2_character_at_zero_is_dimension(self):
        model = SU2
        for k in range(6):
            assert abs(character(model, k, 0.0)[0] - (k + 1)) < 1e-9
            # At pi the value is (k+1) times the parity sign.
            assert abs(character(model, k, np.pi)[0] - (-1) ** k * (k + 1)) < 1e-9

    def test_su2_character_near_singularity_matches_ratio(self):
        model = SU2
        # Either side of the oracle's 1e-8 guard on sin(theta), where it
        # switches between the sine ratio and U_k.
        for k in (3, 10):
            for theta in (1e-8 * 0.5, 2e-8):
                assert abs(character(model, k, theta)[0] - (k + 1)) < 1e-6
                assert abs(character(model, k, theta)[0] - sin_ratio_character(k, theta)[0]) < 1e-6

    def test_su2_recurrence_matches_sine_ratio_on_refined_grid(self):
        # kmax = 800 is the top level of the compact studies.
        theta = refined_grid_points()
        rows = _character_rows(SU2, 800, theta)
        oracle = np.vstack([sin_ratio_character(k, theta) for k in range(801)])
        scale = np.arange(1, 802)[:, None]
        assert (np.abs(rows - oracle) <= 1e-9 * scale).all()

    def test_su2_recurrence_matches_u_k_at_endpoints(self):
        model = SU2
        endpoints = np.array([0.0, np.pi])
        for k in (0, 1, 5, 100, 800):
            got = character(model, k, endpoints)
            assert np.array_equal(got, sin_ratio_character(k, endpoints))
            assert got.tolist() == [k + 1, (-1) ** k * (k + 1)]

    def test_chebyshev_recurrence_matches_cosine(self):
        theta = np.concatenate([refined_grid_points(), [0.0, np.pi]])
        rows = _character_rows(CHEB, 800, theta)
        assert np.abs(rows - np.cos(np.arange(801)[:, None] * theta)).max() <= 1e-9

    def test_dimension_weights(self):
        assert [SU2.dimension_weight(k) for k in range(4)] == [1, 2, 3, 4]
        assert [CHEB.dimension_weight(k) for k in range(4)] == [1, 2, 2, 2]
        # Elementwise over an array of k, the same floats.
        assert SU2.dimension_weight(np.arange(4)).tolist() == [1.0, 2.0, 3.0, 4.0]
        assert CHEB.dimension_weight(np.arange(4)).tolist() == [1.0, 2.0, 2.0, 2.0]

    def test_a_model_is_its_label(self):
        assert [f.name for f in dataclasses.fields(HypergroupModel)] == ["label"]
        assert (SU2.sigma, CHEB.sigma) == (1, 0)
        theta = np.linspace(0.0, np.pi, 7)
        assert np.array_equal(SU2.weight(theta), (2.0 / np.pi) * np.sin(theta) ** 2)
        assert np.array_equal(CHEB.weight(theta), np.full(7, 1.0 / np.pi))
        assert [CHEB.character_sq_norm(k) for k in range(3)] == [1.0, 0.5, 0.5]
        assert [SU2.character_sq_norm(k) for k in range(3)] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("label", ["so3", "SU2", "", None])
    def test_an_unknown_label_is_refused(self, label):
        with pytest.raises(ValueError, match="unknown hypergroup model"):
            HypergroupModel(label)
        with pytest.raises(ValueError, match="unknown hypergroup model"):
            dataclasses.replace(SU2, label=label)


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

    @pytest.mark.parametrize("m", [1, 5, 16])
    def test_the_rule_is_numpys_read_only(self, m):
        x, w = _rule(m)
        expected = np.polynomial.legendre.leggauss(m)
        assert np.array_equal(x, expected[0]) and np.array_equal(w, expected[1])
        for array in (x, w):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_two_grids_solve_the_rule_once(self, monkeypatch):
        calls = []
        solve = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda m: calls.append(m) or solve(m))
        _rule.cache_clear()
        spec = {"model": "su2", "scheme": "dirichlet", "n": [4, 9], "quadrature": {"panels": 6, "nodes_per_panel": 7}}
        run_experiment(spec)
        run_experiment(spec)
        assert calls == [7]


def per_k_coefficients(model, scheme, n):
    """(a(k, n), coef(k, n)) for k = 0..n, one Python float at a time, by the formula of each scheme."""
    def a(k):
        dimension = float(k + 1) if model.label == "su2" else (1.0 if k == 0 else 2.0)
        if scheme == "dirichlet":
            return dimension
        if scheme == "fejer-smoothed":
            return dimension * (1.0 - k / (n + 1.0))
        if scheme == "fejer":
            return 1.0 if k == 0 else 2.0 * (1.0 - k / (n + 1.0))
        return 1.0 - 2.0 * k / (n + 1.0)

    kernel = [a(k) for k in range(n + 1)]
    squared = scheme in ("dirichlet", "fejer-smoothed")
    return kernel, [x * x if squared else x for x in kernel]


SCHEMES = [*STUDIES, ("chebyshev", "dirichlet"), ("chebyshev", "fejer-smoothed")]


class TestSchemes:
    def test_dirichlet_truncates(self):
        a, coef = coefficients(SU2, "dirichlet", 5)
        assert a[3] == 4.0
        assert a.shape == coef.shape == (6,)  # nothing above the level
        assert coef[3] == 16.0

    def test_fejer_smoothed_taper(self):
        a, _ = coefficients(SU2, "fejer-smoothed", 4)
        assert a[0] == 1.0
        assert abs(a[4] - 5.0 * (1.0 - 4.0 / 5.0)) < 1e-15
        assert a.shape == (5,)

    def test_fejer_classical_coefficients(self):
        a, coef = coefficients(CHEB, "fejer", 4)
        assert a[0] == 1.0
        assert abs(a[1] - 2.0 * (1.0 - 1.0 / 5.0)) < 1e-15
        assert np.array_equal(coef, a)  # not squared in the diagonal

    def test_fejer_signed_goes_negative(self):
        a, coef = coefficients(CHEB, "fejer-signed", 8)
        assert a[0] == 1.0
        assert a[8] < 0.0
        assert np.array_equal(coef, a)

    def test_scheme_by_name(self):
        for model, scheme in SCHEMES:
            a, coef = coefficients(HypergroupModel(model), scheme, 3)
            assert a.dtype == coef.dtype == np.float64 and a.shape == coef.shape == (4,)
        with pytest.raises(ValueError, match="specific to the chebyshev model"):
            coefficients(SU2, "fejer", 3)
        with pytest.raises(ValueError, match="specific to the chebyshev model"):
            coefficients(SU2, "fejer-signed", 3)
        for scheme in ("nope", "Dirichlet", "", None, 3, ["fejer"]):
            with pytest.raises(ValueError, match="unknown coefficient scheme"):
                coefficients(SU2, scheme, 3)

    def test_a_negative_level_is_refused_everywhere(self):
        # Level -1 has no coefficients; a norm of it would be a converged 0.0 with a config hash.
        for call in (
            lambda: coefficients(CHEB, "fejer", -1),
            lambda: diagonal_norm(SU2, "dirichlet", -1),
            lambda: bai_norm(CHEB, "fejer-signed", -1),
            lambda: run_experiment({"model": "su2", "scheme": "dirichlet", "n": [4, -1]}),
            lambda: su2_divergence_lower_bound("fejer-smoothed", -2),
        ):
            with pytest.raises(ValueError, match="n >= 0"):
                call()

    @pytest.mark.parametrize("model_name,scheme", SCHEMES)
    def test_coefficients_match_the_per_k_formulas(self, model_name, scheme):
        # Elementwise, in the same order of operations, so every value is the same float.
        model = HypergroupModel(model_name)
        for n in (0, 1, 2, 7, 50, 801):
            a, coef = coefficients(model, scheme, n)
            assert (a.tolist(), coef.tolist()) == per_k_coefficients(model, scheme, n)

    def test_every_entry_point_refuses_a_chebyshev_scheme_on_su2(self):
        # A scheme is only its name, so no entry point can compute with coefficients its name does
        # not give: each refuses what ``coefficients`` refuses.
        calls = [
            lambda: diagonal_norm(SU2, "fejer", 4),
            lambda: bai_norm(SU2, "fejer-signed", 4),
            lambda: run_experiment({"model": "su2", "scheme": "fejer", "n": [4]}),
            lambda: su2_divergence_lower_bound("fejer-signed", 8),
            lambda: divergence_bound_check("fejer", 8),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="specific to the chebyshev model"):
                call()


class TestDiagonalNorm:
    def test_level_zero_is_constant_coefficient(self):
        result = diagonal_norm(SU2, "dirichlet", 0)
        assert abs(result.value - 1.0) < 1e-9

    def test_zero_coefficients_give_zero(self):
        zero = np.zeros(5)
        for panels in (64, 128):  # the default grid and its refinement
            assert _grid_norms(SU2, [4], [zero], [zero], panels, 16) == [(0.0, 0.0)]

    def test_matches_trapezoid_oracle(self):
        model = SU2
        scheme = "dirichlet"
        oracle = trapezoid_diagonal_norm(model, coefficients(model, scheme, 2)[1])
        result = diagonal_norm(model, scheme, 2)
        assert abs(result.value - oracle) < 1e-4

    def test_chebyshev_fejer_norm_is_one(self):
        # The level-n kernel is half the sum of two shifted Fejer kernels,
        # nonnegative with unit mass, so the norm is exactly 1.
        model = CHEB
        scheme = "fejer"
        for n in (4, 8, 16, 32):
            result = diagonal_norm(model, scheme, n)
            assert abs(result.value - 1.0) < 1e-6, (n, result.value)
            assert result.converged

    def test_chebyshev_signed_taper_drifts_from_one(self):
        # The signed-taper coefficient string does not reproduce the unit
        # norm: the deviation grows with the level (about 0.031 at n = 16
        # and 0.101 at n = 32).
        model = CHEB
        scheme = "fejer-signed"
        assert abs(diagonal_norm(model, scheme, 16).value - 1.0) > 1e-3
        assert abs(diagonal_norm(model, scheme, 32).value - 1.0) > 0.05

    def test_refinement_invariance(self):
        model = CHEB
        scheme = "fejer"
        a = diagonal_norm(model, scheme, 8, QuadratureConfig(panels=64))
        b = diagonal_norm(model, scheme, 8, QuadratureConfig(panels=96))
        assert abs(a.value - b.value) < 1e-8
        assert a.config_hash != b.config_hash

    def test_config_hash_is_stable(self):
        model = SU2
        scheme = "dirichlet"
        a = diagonal_norm(model, scheme, 3)
        b = diagonal_norm(model, scheme, 3)
        assert a.config_hash == b.config_hash

    def test_default_grid_su2_dirichlet_value_is_pinned(self):
        # Frozen from scipy.special.roots_legendre nodes, independent of numpy's leggauss.
        result = diagonal_norm(SU2, "dirichlet", 50)
        assert abs(result.value - 4295.705952848206) <= 1e-12 * 4295.705952848206


def mixed_coefficients(n):
    """Coefficients of both signs and no parity pattern, for k = 0..n; used unsquared."""
    k = np.arange(n + 1)
    return (k % 3 - 1) * (k + 1.5)


class TestParityFold:
    CASES = [*STUDIES, ("su2", "mixed"), ("chebyshev", "mixed")]
    # Panels and nodes_per_panel both odd put a node at pi/2 on the base grid (3 x 5 and 9 x 15).
    # On 1 x 64 the base period 2N is 2, so nearly every term folds onto another residue; 2 x 33
    # has few panels and an odd node count.  Level 200 has n + 1 above 2N on every grid here.
    GRIDS = [
        QuadratureConfig(),
        QuadratureConfig(panels=3, nodes_per_panel=5),
        QuadratureConfig(panels=4, nodes_per_panel=5),
        QuadratureConfig(panels=9, nodes_per_panel=15),
        QuadratureConfig(panels=1, nodes_per_panel=64),
        QuadratureConfig(panels=2, nodes_per_panel=33),
    ]
    GRID_IDS = ["default", "3x5-middle-node", "4x5", "9x15-partial-strip", "1x64-many-folds", "2x33-odd-nodes"]

    @pytest.mark.parametrize("quad", GRIDS, ids=GRID_IDS)
    @pytest.mark.parametrize("model_name,scheme", CASES)
    def test_matches_full_grid_oracle(self, model_name, scheme, quad):
        # A scheme's norms come through diagonal_norm and bai_norm; the mixed coefficients, which
        # no scheme gives, go to the grid norms of the base and the refined grid directly.
        model = HypergroupModel(model_name)
        for n in (0, 1, 7, 50, 200):
            if scheme == "mixed":
                coefs = tensor = mixed_coefficients(n)
                (base_dn, base_bn), (dn, bn) = (
                    _grid_norms(model, [n], [coefs], [tensor], panels, quad.nodes_per_panel)[0]
                    for panels in (quad.panels, quad.panels * quad.refinement_factor)
                )
                results = [(dn, abs(dn - base_dn)), (bn, abs(bn - base_bn))]
            else:
                coefs, tensor = coefficients(model, scheme, n)
                norms = (diagonal_norm(model, scheme, n, quad), bai_norm(model, scheme, n, quad))
                results = [(r.value, r.error_estimate) for r in norms]
            (base_dn, base_bn), (refined_dn, refined_bn) = full_grid_norms(model, coefs, tensor, quad)
            for (value, error_estimate), base, refined in zip(results, (base_dn, base_bn), (refined_dn, refined_bn)):
                tol = 1e-13 * abs(refined)
                assert abs(value - refined) <= tol, (n, value, refined)
                assert abs(error_estimate - abs(refined - base)) <= tol, (n, error_estimate, base)

    # (diagonal_norm, bai_norm, lower_bound) of every benchmark row on the default grid, frozen.  The
    # two n = 800 diagonal norms agree to 1e-12 with the unfolded full-grid product, which gave
    # 1756236.150552023 and 1.6745957973992383.
    PINNED_ROWS = {
        ("su2", "dirichlet"): [
            (4295.705952848209, 41.63735316716492, 10.576813462961733),
            (19516.644442948047, 82.16146470698894, 20.712866310052224),
            (88248.50085851894, 163.1611638044178, 40.97909947393889),
            (395730.5775813864, 325.2828236728302, 81.50857859498375),
            (1756236.1505520244, 649.5502352801117, 162.56603022144236),
        ],
        ("su2", "fejer-smoothed"): [
            (236.9942533072326, 2.0692586539318585, 3.8417943926450393),
            (898.937943195855, 2.326439841305933, 7.241596081251049),
            (3495.0814168076176, 2.5897291302196965, 14.01024422427061),
            (13819.274780138829, 2.8504566384329872, 27.528059868641453),
            (54799.24959886865, 3.1236046313561596, 54.551898707301305),
        ],
        ("chebyshev", "fejer"): [
            (0.9999999999999997, 1.0, ""),
            (0.9999999999999994, 0.9999999999999999, ""),
            (0.9999999999999997, 0.9999999999999999, ""),
            (0.9999999999999997, 0.9999999999999997, ""),
            (0.9999999999999998, 0.9999999999999998, ""),
        ],
        ("chebyshev", "fejer-signed"): [
            (1.162961396496269, 1.2786491398887898, ""),
            (1.276214070812245, 1.4080872552181318, ""),
            (1.401822477810395, 1.5421507941745962, ""),
            (1.5335974929513458, 1.6760924977945082, ""),
            (1.6745957973992487, 1.807352087607268, ""),
        ],
    }

    def test_benchmark_levels_are_pinned(self, benchmark_rows):
        # Both norms to 1e-12 of themselves; the closed-form lower bound exactly.
        for (model, scheme), pinned in self.PINNED_ROWS.items():
            rows = [r for r in benchmark_rows if (r["model"], r["scheme"]) == (model, scheme)]
            assert [r["n"] for r in rows] == BENCHMARK_LEVELS
            for row, (dn, bn, bound) in zip(rows, pinned):
                where = (model, scheme, row["n"])
                assert abs(row["diagonal_norm"] - dn) <= 1e-12 * dn, (where, row["diagonal_norm"])
                assert abs(row["bai_norm"] - bn) <= 1e-12 * bn, (where, row["bai_norm"])
                assert row["lower_bound"] == bound, (where, row["lower_bound"])

    def test_benchmark_convergence_flags(self, benchmark_rows):
        # Only the nonnegative Fejer kernel converges at the default tolerance:
        # 15 of the 20 rows are flagged.
        converged = {(r["model"], r["scheme"], r["n"]) for r in benchmark_rows if r["diagonal_converged"]}
        assert converged == {("chebyshev", "fejer", n) for n in BENCHMARK_LEVELS}

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_su2_level_800_peak_memory(self):
        # The refined grid's 256 x 4 x 16 exponential table and 512 KiB kernel tiles (3.5 MiB
        # peak), against one 2048 x 2048 kernel (57.7 MiB peak) unfolded.
        model = SU2
        peak = self.peak_bytes(lambda: diagonal_norm(model, "dirichlet", 800))
        assert peak < 32 * 2**20, peak / 2**20

    def test_fine_grid_peak_memory(self):
        # 16384 refined points: a 2048 x 1 x 16 exponential table, fold products for two node
        # rows at a time and 512 KiB kernel tiles (4.3 MiB peak), where two 8192 x 8192
        # half-grid kernels took 1 GiB.
        model = SU2
        quad = QuadratureConfig(panels=512)
        peak = self.peak_bytes(lambda: diagonal_norm(model, "dirichlet", 4, quad))
        assert peak < 32 * 2**20, peak / 2**20

    @pytest.mark.parametrize("levels", [[20_000], [60_000], [20_000] * 20], ids=["20000", "60000", "20000x20"])
    def test_levels_peak_under_their_byte_count(self, levels):
        # The count that specio caps: on the default refined grid the exponential table is
        # 5.2 MB at n = 20000 and 15.4 MB at n = 60000, and with the fold products it is most of
        # the peak; the count takes each fold product at the table's size.  Twenty copies of a
        # level hold twenty sets of its coefficients, 320 kB each.
        count = experiment_bytes(SU2, levels, QuadratureConfig())
        peak = self.peak_bytes(lambda: run_experiment({"model": "su2", "scheme": "dirichlet", "n": levels}))
        assert count / 2 < peak < count, (peak, count)

    def test_many_nodes_peak_memory(self):
        # One panel of 1024 nodes: a 12.5 MiB exponential table per grid (2 x 401 x 1024, then
        # 4 x 201 x 1024) and fold products for 32 or 16 node rows at a time (about 25 MiB
        # peak).  numpy's leggauss(1024) alone peaks at 8 MiB.
        model = SU2
        quad = QuadratureConfig(panels=1, nodes_per_panel=1024)
        peak = self.peak_bytes(lambda: diagonal_norm(model, "dirichlet", 800, quad))
        assert peak < 32 * 2**20, peak / 2**20


class TestBaiNorm:
    def test_chebyshev_fejer_kernel_has_unit_norm(self):
        # The classical Fejer kernel is nonnegative with unit mean.
        model = CHEB
        for n in (4, 8, 16):
            result = bai_norm(model, "fejer", n)
            assert abs(result.value - 1.0) < 1e-8

    def test_signed_taper_kernel_exceeds_unit_norm(self):
        model = CHEB
        result = bai_norm(model, "fejer-signed", 16)
        assert result.value > 1.05

    def test_su2_fejer_smoothed_kernel_stays_bounded(self):
        model = SU2
        scheme = "fejer-smoothed"
        values = [bai_norm(model, scheme, n).value for n in (4, 8, 16, 32, 64)]
        assert all(v <= 3.0 for v in values), values

    def test_default_grid_fejer_signed_value_is_pinned(self):
        # Frozen from scipy.special.roots_legendre nodes, independent of numpy's leggauss.
        model = CHEB
        result = bai_norm(model, "fejer-signed", 50)
        assert abs(result.value - 1.2786491398887885) <= 1e-12 * 1.2786491398887885


class TestDivergenceBound:
    def test_hand_value_at_level_one(self):
        # Single odd term k = 1 with dirichlet coefficient a = 2:
        # (2/pi)^2 (2 * 2 / (1 * 3))^2 = (2/pi)^2 (4/3)^2.
        scheme = "dirichlet"
        expected = (2.0 / np.pi) ** 2 * (4.0 / 3.0) ** 2
        assert abs(su2_divergence_lower_bound(scheme, 1) - expected) < 1e-12

    def test_dirichlet_bound_is_nondecreasing(self):
        scheme = "dirichlet"
        values = [su2_divergence_lower_bound(scheme, n) for n in range(1, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_dirichlet_bound_grows_linearly(self):
        # Each odd term tends to 1, so the bound grows like (2/pi)^2 n / 2.
        scheme = "dirichlet"
        slope = su2_divergence_lower_bound(scheme, 200) / 200
        assert 0.19 < slope < 0.22

    def test_dirichlet_bound_exceeds_five_by_level_25(self):
        scheme = "dirichlet"
        assert su2_divergence_lower_bound(scheme, 25) > 5.0

    def test_level_zero_is_the_empty_sum(self):
        # No odd k <= 0 exists; only a negative level is refused.
        assert su2_divergence_lower_bound("dirichlet", 0) == 0.0
        with pytest.raises(ValueError, match="n >= 0"):
            su2_divergence_lower_bound("dirichlet", -1)

    def test_diagonal_norm_dominates_bound(self):
        for scheme in ("dirichlet", "fejer-smoothed"):
            for n in (2, 5, 8):
                check = divergence_bound_check(scheme, n)
                assert check.passed, (scheme, n, check)

    @pytest.mark.parametrize("scheme", ["dirichlet", "fejer-smoothed"])
    def test_bound_is_the_per_k_sum_exactly(self, scheme):
        # The sum over odd k in order, each term squared by Python's ** 2, as a loop over k gives it.
        # At fejer-smoothed levels 398 and 1009, squaring by x * x instead moves the bound's last bit.
        for n in [*range(0, 120), 398, 801, 1009, 5000]:
            a, _ = per_k_coefficients(SU2, scheme, n)
            total = 0.0
            for k in range(1, n + 1, 2):
                total += (a[k] * (k + 1) / (k * (k + 2))) ** 2
            assert su2_divergence_lower_bound(scheme, n) == (2.0 / np.pi) ** 2 * total, n

    def test_the_check_is_of_su2_alone(self):
        # The bound is SU(2)'s, so the check takes no model, and a Chebyshev-only scheme is refused
        # rather than compared with a bound it does not have.
        assert list(inspect.signature(divergence_bound_check).parameters) == ["scheme", "n", "quad"]
        for scheme in ("fejer", "fejer-signed"):
            with pytest.raises(ValueError, match="specific to the chebyshev model"):
                divergence_bound_check(scheme, 8)
            with pytest.raises(ValueError, match="specific to the chebyshev model"):
                su2_divergence_lower_bound(scheme, 8)


class TestDecayProbe:
    def test_su2_normalized_characters_decay(self):
        probe = character_decay_probe(SU2, [0.3, 1.0, 2.0], kmax=40)
        assert probe.satisfied
        assert probe.tail_max <= probe.bound

    def test_chebyshev_normalized_characters_do_not_decay(self):
        probe = character_decay_probe(CHEB, [0.3, 1.0, 2.0], kmax=40)
        assert not probe.satisfied
        assert probe.tail_max > 0.4

    def test_rejects_endpoint_thetas(self):
        with pytest.raises(ValueError, match="away from 0 and pi"):
            character_decay_probe(SU2, [1e-5, 1.0], kmax=10)
        with pytest.raises(ValueError, match="away from 0 and pi"):
            character_decay_probe(SU2, [1.0, np.pi], kmax=10)

    @pytest.mark.parametrize("kmax", [-1, -5])
    def test_rejects_a_negative_kmax(self, kmax):
        with pytest.raises(ValueError, match="kmax"):
            character_decay_probe(SU2, [1.0], kmax=kmax)

    def test_kmax_zero_probes_chi_0(self):
        probe = character_decay_probe(CHEB, [0.3, 1.0], kmax=0)
        assert probe.values.tolist() == [[1.0], [1.0]] and probe.tail_max == 1.0


class TestRunExperiment:
    SPEC = {
        "model": "chebyshev",
        "scheme": "fejer",
        "n": [4, 8],
        "quadrature": {"panels": 32, "nodes_per_panel": 8},
    }

    # The config_hash of every row of the experiment fixtures, frozen before the hash moved onto
    # the shared stable_json and sha256_hex helpers.
    FIXTURE_HASHES = {
        "chebyshev-fejer": [
            (4, "242f0e8f61e24115"), (8, "076e8c0912080be0"), (16, "7fe7088c75d4db63"), (32, "54068fc02b400c71")
        ],
        "chebyshev-fejer-signed": [
            (4, "dcf737a6f27b9dff"), (8, "074a293ef2a9d4ce"), (16, "01a907961812b87b"), (32, "ef593e9b19e789b1")
        ],
        "su2-dirichlet": [
            (2, "d78f1ef0167dab76"),
            (4, "6df9a2b521b0ece4"),
            (8, "d1764e485f7381a7"),
            (16, "2ced1ecb0532e83e"),
            (32, "05717873c3f80a09"),
        ],
        "su2-fejer-smoothed": [(8, "eeee0cba255da7f0"), (16, "ca4565440a850ab7"), (32, "6a9cc34b1a0562f8")],
    }

    @pytest.mark.parametrize("name", sorted(FIXTURE_HASHES))
    def test_fixture_config_hashes_are_pinned(self, name):
        spec = load_experiment_spec(json.loads((FIXTURES / f"{name}.json").read_text()))
        assert [(r["n"], r["config_hash"]) for r in run_experiment(spec)] == self.FIXTURE_HASHES[name]

    def test_rows_in_input_order(self):
        rows = run_experiment(self.SPEC)
        assert [r["n"] for r in rows] == [4, 8]
        assert all(r["model"] == "chebyshev" for r in rows)
        assert all(abs(r["diagonal_norm"] - 1.0) < 1e-5 for r in rows)
        assert all(r["lower_bound"] == "" for r in rows)

    @pytest.mark.parametrize("model_name,scheme", STUDIES)
    def test_shared_rows_match_one_level_calls_exactly(self, model_name, scheme):
        # A table built once at n = 800 and read up to each level gives the same numbers as one built at it.
        model = HypergroupModel(model_name)
        levels = [200, 7, 50, 800, 7, 0]
        rows = run_experiment({"model": model_name, "scheme": scheme, "n": levels})
        assert [r["n"] for r in rows] == levels
        for row in rows:
            dn = diagonal_norm(model, scheme, row["n"])
            bn = bai_norm(model, scheme, row["n"])
            assert (row["diagonal_norm"], row["diagonal_error_estimate"]) == (dn.value, dn.error_estimate)
            assert (row["bai_norm"], row["bai_error_estimate"]) == (bn.value, bn.error_estimate)
            assert (row["diagonal_converged"], row["config_hash"]) == (dn.converged, dn.config_hash)

    def test_threads_give_the_serial_rows_bit_for_bit(self, benchmark_rows):
        # Each thread reduces in its own kernel tile: one tile shared by the threads gave wrong rows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run_experiment, spec) for spec in BENCHMARK_SPECS * 2]
                rows = [row for future in futures for row in future.result(timeout=300)]
        finally:
            sys.setswitchinterval(interval)
        assert repr(rows) == repr(benchmark_rows * 2)

    def test_each_thread_keeps_one_aligned_tile(self):
        def tiles():
            return _tile(_TILE), _tile(_TILE + 8), _tile(_TILE)

        first, second = tiles(), tiles()
        with ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(tiles).result(timeout=60)
        for kept, grown, again in (first, other):
            assert kept.size >= _TILE and grown.size >= _TILE + 8 and again is grown
            assert kept.ctypes.data % 64 == grown.ctypes.data % 64 == 0
        assert second[0] is second[1] is second[2] is first[1]
        assert not np.shares_memory(other[1], first[1])

    def test_no_levels_give_no_rows(self):
        assert run_experiment({"model": "su2", "scheme": "dirichlet", "n": []}) == []
        with pytest.raises(ValueError, match="unknown coefficient scheme"):
            run_experiment({"model": "su2", "scheme": "nope", "n": []})

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
