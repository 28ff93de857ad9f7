"""Heightmap IO, histograms, gradients, Gaussian fits, synthetic surfaces."""

import math

import numpy as np
import pytest

from proxint import (
    FitError,
    Heightmap,
    HeightDistribution,
    InvalidParameterError,
    ParseError,
    PolySegment,
    case_number,
    convolve,
    distribution_from_histogram,
    dome_distribution,
    empirical_distribution,
    evaluate,
    fit_gaussian,
    gradient_distribution,
    load_heightmap,
    pyramid_distribution,
    save_heightmap,
    shift_to_contact,
    sphere_distribution,
    synthesize_surface,
    truncated_gaussian_distribution,
)
from proxint.heightmap import Histogram, _gaussian_bin_masses

R = 50000.0


class TestLoadSave:
    def test_header_round_trip(self, tmp_path):
        hm = Heightmap(1.0, 1.0, np.array([[0.0, 1.0], [2.0, 3.0]]))
        path = tmp_path / "map.txt"
        save_heightmap(hm, path)
        back = load_heightmap(path)
        assert back.nx == 2 and back.ny == 2
        assert not back.contact_shifted
        np.testing.assert_array_equal(back.values, hm.values)

    def test_round_trip_17_digits(self, tmp_path):
        rng = np.random.default_rng(7)
        hm = Heightmap(0.37, 1.29, rng.uniform(0.0, 1e4, (5, 9)))
        path = tmp_path / "map.txt"
        save_heightmap(hm, path)
        back = load_heightmap(path)
        np.testing.assert_array_equal(back.values, hm.values)
        assert back.dx == hm.dx and back.dy == hm.dy

    def test_headerless_csv_needs_spacings(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0,1\n2,3\n")
        with pytest.raises(ParseError, match="dx"):
            load_heightmap(path)
        hm = load_heightmap(path, dx=2.0, dy=3.0)
        assert hm.dx == 2.0 and hm.values[1, 1] == 3.0

    def test_nan_entry_names_cell(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0,1\n2,nan\n")
        with pytest.raises(ParseError, match="line 2, column 2"):
            load_heightmap(path, dx=1.0, dy=1.0)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0,1\n2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_heightmap(path, dx=1.0, dy=1.0)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# heightmap v1 nx=3 ny=2 dx=1 dy=1\n0 1\n2 3\n")
        with pytest.raises(ParseError, match="nx"):
            load_heightmap(path)


class TestShiftToContact:
    def test_min_subtraction(self):
        hm = Heightmap(1.0, 1.0, np.array([[3.0, 4.0], [5.0, 3.5]]))
        out = shift_to_contact(hm)
        assert out.contact_shifted
        np.testing.assert_allclose(out.values, [[0.0, 1.0], [2.0, 0.5]])

    def test_idempotent(self):
        hm = shift_to_contact(Heightmap(1.0, 1.0, np.array([[3.0, 4.0], [5.0, 3.5]])))
        again = shift_to_contact(hm)
        np.testing.assert_array_equal(again.values, hm.values)

    def test_first_bin_starts_at_zero(self):
        hm = shift_to_contact(Heightmap(1.0, 1.0, np.array([[3.0, 4.0], [5.0, 3.5]])))
        emp = empirical_distribution(hm, 0.25)
        assert emp.weights[0] > 0


class TestEmpiricalDistribution:
    def test_requires_shift(self):
        hm = Heightmap(1.0, 1.0, np.array([[3.0, 4.0], [5.0, 3.5]]))
        with pytest.raises(InvalidParameterError, match="contact-shifted"):
            empirical_distribution(hm, 1.0)

    def test_constant_map_single_bin(self):
        hm = Heightmap(2.0, 3.0, np.zeros((4, 5)), contact_shifted=True)
        emp = empirical_distribution(hm, 1.0)
        assert emp.weights[0] == pytest.approx(hm.area)
        assert np.count_nonzero(emp.weights) == 1

    def test_area_conservation(self):
        rng = np.random.default_rng(3)
        hm = shift_to_contact(Heightmap(0.7, 1.3, rng.uniform(0, 100, (64, 64))))
        emp = empirical_distribution(hm, 0.9)
        assert emp.total_area == pytest.approx(hm.area, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 50, (32, 32))
        a = empirical_distribution(shift_to_contact(Heightmap(1.0, 1.0, vals)), 0.5)
        b = empirical_distribution(shift_to_contact(Heightmap(1.0, 1.0, vals + 17.3)), 0.5)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_pyramid_matches_closed_form(self):
        # Single pyramid tile: bin masses follow f = 2 s l^2/h^2 up to the
        # half-cell sampling offset, bounded by 2 * bin_width * f(s).
        h = l = 5000.0
        hm = synthesize_surface([{"type": "pyramid", "height": h, "tile": l}], n=512)
        delta = h / 512
        emp = empirical_distribution(hm, delta)
        edges = np.arange(len(emp.weights) + 1) * delta
        exact = np.diff(edges**2) * l**2 / h**2
        bound = 2.0 * delta * (2 * edges[1:] * l**2 / h**2)
        assert np.all(np.abs(emp.weights - exact) <= bound + 1e-9)

    def test_cap_matches_sphere_distribution(self):
        # Empirical cap histogram against f = 2 pi (R - s), within 1% for
        # bins below R/10 (coarse bins keep granularity noise down).
        hm = synthesize_surface([{"type": "cap", "radius": R}], n=1024, extent=48000.0)
        delta = 250.0
        emp = empirical_distribution(hm, delta)
        kmax = int(R / 10 / delta)
        edges = np.arange(kmax + 1) * delta
        exact = np.diff(np.pi * (2 * R * edges - edges**2))
        rel = np.abs(emp.weights[:kmax] - exact) / exact
        assert rel.max() < 0.01


class TestGradientDistribution:
    def test_flat_map_zero(self):
        hm = Heightmap(1.0, 1.0, np.zeros((8, 8)), contact_shifted=True)
        g = gradient_distribution(hm, 1.0)
        assert np.all(g.weights == 0.0)

    def test_plane_total_mass(self):
        # A plane of slope m in x carries total gradient mass A * m^2;
        # central + one-sided differences are exact for linear fields.
        m, dx = 0.37, 2.0
        vals = np.outer(np.ones(64), np.arange(64)) * m * dx
        hm = shift_to_contact(Heightmap(dx, dx, vals))
        g = gradient_distribution(hm, 1.0)
        assert g.weights.sum() == pytest.approx(hm.area * m**2, rel=1e-12)

    def test_pyramid_gradient_identity(self):
        # g(s) = (4 h^2 / l^2) f(s) on pyramid faces; interior bins of a
        # well-resolved tiling agree within 5% (tile edges are excluded by
        # the f-threshold and the top ridge bin carries the stencil kink).
        h, l = 200.0, 500.0
        hm = synthesize_surface([{"type": "pyramid", "height": h, "tile": l}], n=1024,
                                extent=2000.0)
        delta = h / 32
        emp = empirical_distribution(hm, delta)
        g = gradient_distribution(hm, delta)
        target = 4 * h**2 / l**2
        mask = emp.weights > 0.05 * emp.weights.max()
        mask[int(h / delta) - 1:] = False  # ridge bin
        ratio = g.weights[mask] / emp.weights[mask]
        assert np.abs(ratio / target - 1).max() < 0.05

    def test_requires_shift(self):
        hm = Heightmap(1.0, 1.0, np.full((4, 4), 2.0))
        with pytest.raises(InvalidParameterError):
            gradient_distribution(hm, 1.0)


class TestFitGaussian:
    def test_recovers_exact_model(self):
        # Histogram sampled exactly from the truncated-Gaussian model.
        sigma, s0, delta = 250.0, 500.0, 25.0
        edges = np.arange(121) * delta
        masses = _gaussian_bin_masses(edges, sigma, s0) * 1e6
        fit = fit_gaussian(Histogram(delta, masses))
        assert fit.sigma == pytest.approx(sigma, rel=0.01)
        assert fit.s0 == pytest.approx(s0, rel=0.01)
        assert fit.residual < 1e-3

    def test_synthetic_rough_surface(self):
        hm = synthesize_surface(
            [{"type": "rough", "sigma": 10.0, "xi": 40.0}], n=256, extent=2560.0, seed=42
        )
        emp = empirical_distribution(hm, 2.0)
        fit = fit_gaussian(emp)
        assert fit.sigma == pytest.approx(10.0, rel=0.15)

    def test_uniform_histogram_large_residual(self):
        emp = Histogram(1.0, np.full(32, 5.0))
        fit = fit_gaussian(emp)
        assert fit.residual > 0.1  # bad fit reported, not raised

    def test_degenerate_histogram_raises(self):
        with pytest.raises(FitError):
            fit_gaussian(Histogram(1.0, np.array([10.0, 0.0, 0.0])))


class TestSynthesize:
    def test_cap_empirical_matches_sphere_form(self):
        hm = synthesize_surface([{"type": "cap", "radius": R}], n=1024, extent=20000.0)
        delta = 100.0
        emp = empirical_distribution(hm, delta)
        sag_in = 10000.0**2 / (R + math.sqrt(R**2 - 10000.0**2))
        kmax = int(0.9 * sag_in / delta)
        edges = np.arange(kmax + 1) * delta
        exact = np.diff(np.pi * (2 * R * edges - edges**2))
        rel = np.abs(emp.weights[:kmax] - exact) / exact
        assert rel.max() < 0.01

    def test_rough_deterministic(self):
        a = synthesize_surface([{"type": "rough", "sigma": 5.0, "xi": 20.0}],
                               n=128, extent=1280.0, seed=11)
        b = synthesize_surface([{"type": "rough", "sigma": 5.0, "xi": 20.0}],
                               n=128, extent=1280.0, seed=11)
        np.testing.assert_array_equal(a.values, b.values)

    def test_dome_tile_cdf(self):
        # Aligned square level sets alias per-bin masses, so the dome tile
        # generator is checked through its cumulative distribution.
        h, l = 250.0, 5000.0
        hm = synthesize_surface([{"type": "dome", "height": h, "tile": l}], n=512)
        emp = empirical_distribution(hm, h / 128)
        edges = np.arange(1, len(emp.weights) + 1) * emp.bin_width
        cdf = np.cumsum(emp.weights) / hm.area
        exact = np.clip(2 * edges / h - (edges / h) ** 2, 0.0, 1.0)
        assert np.abs(cdf - exact).max() < 0.01

    def test_cap_plus_pyramid_matches_composition(self):
        # Composed map against the sphere (x) unit-area-pyramid convolution
        # over s < h.  The sampled map's deepest pixel sits one tip quantum
        # h*dx/l above the ideal tip, so the oracle is aligned by that much.
        l, h, extent, n = 500.0, 100.0, 8000.0, 1024
        hm = synthesize_surface(
            [{"type": "cap", "radius": R}, {"type": "pyramid", "height": h, "tile": l}],
            n=n, extent=extent,
        )
        fconv = convolve(sphere_distribution(R), pyramid_distribution(h, l, per_unit_area=True))
        delta = 5.0
        emp = empirical_distribution(hm, delta)
        kmax = int(h / delta)
        s_min = h * (extent / n) / l
        s = np.linspace(s_min, s_min + kmax * delta, 20 * kmax + 1)
        dens = evaluate(fconv, s)
        masses = np.array(
            [np.trapezoid(dens[20 * k: 20 * (k + 1) + 1], dx=delta / 20) for k in range(kmax)]
        )
        l1 = np.abs(emp.weights[:kmax] - masses).sum() / masses.sum()
        assert l1 < 0.02

    def test_cap_validity_error(self):
        with pytest.raises(InvalidParameterError, match="extent"):
            synthesize_surface([{"type": "cap", "radius": 1000.0}], n=64, extent=4000.0)

    def test_unknown_layer_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown layer"):
            synthesize_surface([{"type": "cone", "height": 1.0}], n=16, extent=10.0)


class TestHistogramDensityBridge:
    def test_pyramid_classified_case_two(self):
        # Bin width must not resolve below the discrete height quantum
        # (2h/l)*dx of the sampled tiling, or alternate bins go empty.
        h = l = 5000.0
        hm = synthesize_surface([{"type": "pyramid", "height": h, "tile": l}], n=512)
        emp = empirical_distribution(hm, h / 256)
        rep = case_number(distribution_from_histogram(emp), tol=1e-2)
        assert rep.case_number == 2

    def test_exact_gaussian_histogram_classified_case_one(self):
        edges = np.arange(121) * 25.0
        masses = _gaussian_bin_masses(edges, 250.0, 500.0) * 1e6
        emp = Histogram(25.0, masses)
        rep = case_number(distribution_from_histogram(emp), tol=1e-2)
        assert rep.case_number == 1


class TestConvolutionConsistency:
    def test_composed_map_close_to_convolution(self):
        # Convolution regime: cap radius 50 um, tile 500 nm; the composed map's
        # empirical distribution tracks convolve(f_cap, f_tile) within 3% L1
        # (oracle aligned by the tip quantum, see TestSynthesize above).
        l, h, extent, n = 500.0, 200.0, 16000.0, 1024
        hm = synthesize_surface(
            [{"type": "cap", "radius": R}, {"type": "pyramid", "height": h, "tile": l}],
            n=n, extent=extent,
        )
        sag_in = 8000.0**2 / (R + math.sqrt(R**2 - 8000.0**2))
        fcap = HeightDistribution.analytic(
            [PolySegment(0.0, sag_in, (2 * math.pi * R, -2 * math.pi))]
        )
        fconv = convolve(fcap, pyramid_distribution(h, l, per_unit_area=True))
        delta = 10.0
        emp = empirical_distribution(hm, delta)
        kmax = int(550.0 / delta)
        s_min = h * (extent / n) / l
        s = np.linspace(s_min, s_min + kmax * delta, 20 * kmax + 1)
        dens = evaluate(fconv, s)
        masses = np.array(
            [np.trapezoid(dens[20 * k: 20 * (k + 1) + 1], dx=delta / 20) for k in range(kmax)]
        )
        l1 = np.abs(emp.weights[:kmax] - masses).sum() / masses.sum()
        assert l1 < 0.03
