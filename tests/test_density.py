"""Transfer-sum grid evolution, sampling, fitting, and ergodicity checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boolemaps import (
    DensityGrid,
    FitConvergenceError,
    GridResolutionWarning,
    HPoint,
    OrbitTruncationError,
    POLE_EPS,
    PoleGuardError,
    SingularInputError,
    cauchy_cdf,
    cauchy_grid,
    cauchy_pdf,
    cauchy_quantile,
    ergodic_orbit_check,
    fit_cauchy,
    fixed_point,
    iterate_parameter_map,
    ks_distance,
    parameter_step,
    pf_closed_form_check,
    pf_density_step,
    pf_monte_carlo_check,
    sample_cauchy,
)
from boolemaps.density import _grid_law, _push_forward, transfer_values

#: Relative error, against the peak, allowed after a 10-step chain on a
#: tabulated-only grid (the benchmark's bound for the same chain).
SPLINE_RTOL = 1e-5


def spline_density(rho):
    """The interpolant of a tabulated-only grid by a scipy cubic spline: the oracle."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(rho.theta(), rho.values, extrapolate=False)

    def density(xi):
        out = spline(np.arctan((np.asarray(xi, dtype=float) - rho.ref.nu) / rho.ref.gamma))
        return np.where(np.isnan(out), 0.0, np.maximum(out, 0.0))

    return density


class TestDensityGrid:
    def test_default_grid_accounts_for_all_mass(self):
        grid = cauchy_grid(HPoint(0.0, 1.0))
        assert grid.tail_mass == pytest.approx(2e-6, rel=1e-9)
        assert grid.mass() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_mass_with_mismatched_reference(self):
        law, ref = HPoint(0.25, 0.75), HPoint(1.0, 1.0)
        nodes = cauchy_grid(ref).nodes
        tail = cauchy_cdf(law, nodes[0]) + 1.0 - cauchy_cdf(law, nodes[-1])
        grid = DensityGrid(nodes, cauchy_pdf(law, nodes), tail, ref=ref)
        assert grid.mass() == pytest.approx(1.0, abs=1e-9)

    def test_mass_at_huge_reference_scale(self):
        # node offsets reach ~3e5*gamma, so their squares would overflow here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = cauchy_grid(HPoint(1.0, 1e200))
            assert grid.mass() == pytest.approx(1.0, abs=1e-9)
            tabulated = DensityGrid(grid.nodes, grid.values, grid.tail_mass, ref=grid.ref)
            assert pf_density_step(0.5, tabulated).mass() == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_grid(HPoint(0, 1), n_nodes=1)
        nodes = np.array([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            DensityGrid(nodes, np.ones(3), 0.0, ref=HPoint(0, 1))
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 1.0]), np.ones(2), -0.1, ref=HPoint(0, 1))


class TestTransferStep:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_invariant_density_is_fixed(self, alpha):
        grid = cauchy_grid(fixed_point(alpha))
        stepped = pf_density_step(alpha, grid)
        np.testing.assert_allclose(stepped.values, grid.values, rtol=1e-10)
        assert stepped.mass() == pytest.approx(1.0, abs=1e-6)

    def test_peak_of_standard_invariant_density(self):
        p = HPoint(0.0, 1.0)
        out = transfer_values(0.5, lambda xi: cauchy_pdf(p, xi), np.array([0.0]))
        assert out[0] == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_far_tails_stay_finite(self):
        # C(0, 1) steps to C(0, 2*alpha); at +-1e300 one preimage is ~2.7e300
        p = HPoint(0.0, 1.0)
        nodes = np.array([-1e300, -1e150, 1e150, 1e300])
        out = transfer_values(0.37, lambda xi: cauchy_pdf(p, xi), nodes)
        np.testing.assert_allclose(out, cauchy_pdf(HPoint(0.0, 0.74), nodes), rtol=1e-14)

    def test_tails_near_dbl_max_stay_finite(self):
        # at +-1e308 and alpha = 0.9 the larger preimage, ~1.11e308, is finite;
        # at +-1.7e308 and alpha = 0.5 it is beyond DBL_MAX, and contributes 0
        p = HPoint(0.0, 1.0)
        for alpha, edge in [(0.9, 1e308), (0.5, 1.7e308)]:
            nodes = np.array([-edge, edge])
            out = transfer_values(alpha, lambda xi: cauchy_pdf(p, xi), nodes)
            np.testing.assert_array_equal(out, cauchy_pdf(parameter_step(alpha, p), nodes))

    def test_matches_closed_form_pointwise(self):
        grid = cauchy_grid(HPoint(1.0, 1.0))
        stepped = pf_density_step(0.5, grid)
        target = parameter_step(0.5, HPoint(1.0, 1.0))
        predicted = cauchy_pdf(HPoint(target.nu, target.gamma), grid.nodes)
        window = np.abs(grid.nodes) < 1e3
        np.testing.assert_allclose(
            stepped.values[window], predicted[window], rtol=1e-10
        )
        assert stepped.mass() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "alpha, p",
        [
            (0.5, HPoint(1.0, 1.0)),
            (0.5, HPoint(0.0, 1.0)),
            (0.9, HPoint(-3.0, 0.5)),
        ],
    )
    def test_sup_error_against_closed_form(self, alpha, p):
        assert pf_closed_form_check(alpha, p) < 1e-10

    def test_stationary_sup_error_is_tiny(self):
        assert pf_closed_form_check(0.5, HPoint(0.0, 1.0)) < 1e-12

    def test_tabulated_grid_without_source(self):
        exact = cauchy_grid(fixed_point(0.5))
        tabulated = DensityGrid(
            exact.nodes, exact.values, exact.tail_mass, ref=exact.ref, source=None
        )
        stepped = pf_density_step(0.5, tabulated)
        window = np.abs(exact.nodes) < 1e3
        np.testing.assert_allclose(
            stepped.values[window], exact.values[window], atol=1e-8
        )
        spline = transfer_values(0.5, spline_density(tabulated), exact.nodes)
        np.testing.assert_allclose(stepped.values[window], spline[window], atol=1e-8)

    @given(
        st.floats(min_value=0.2, max_value=0.8),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=math.log(0.25), max_value=math.log(4.0)),
    )
    # the outer preimage of each edge node falls beyond the window, where a
    # density cut to zero lost about 2e-3 of the mass in the second step
    @example(alpha=0.75, nu=0.0, log_gamma=-1.25)
    def test_tabulated_chain_against_cubic_spline(self, alpha, nu, log_gamma):
        # ten steps on a 4096-node grid, the benchmark's chain
        grid = cauchy_grid(HPoint(nu, math.exp(log_gamma)), 4096)
        quintic = DensityGrid(grid.nodes, grid.values, grid.tail_mass, ref=grid.ref)
        spline = grid.values
        for _ in range(10):
            quintic = pf_density_step(alpha, quintic)
            spline = transfer_values(
                alpha, spline_density(DensityGrid(grid.nodes, spline, 0.0, ref=grid.ref)), grid.nodes
            )
        end = iterate_parameter_map(alpha, HPoint(nu, math.exp(log_gamma)), 10)[-1]
        exact = cauchy_pdf(HPoint(end.nu, end.gamma), grid.nodes)
        bound = SPLINE_RTOL * np.max(exact)
        assert np.max(np.abs(quintic.values - exact)) <= bound
        assert np.max(np.abs(quintic.values - spline)) <= bound

    def test_quintic_reproduces_quintics_on_uneven_nodes(self):
        # any strictly increasing nodes will do, and the local quintic through
        # six of them is exact for a polynomial of degree 5 in the arctan
        # parameter, up to the window edges
        rng = np.random.default_rng(3)
        nodes = np.sort(rng.standard_cauchy(40))
        ref = HPoint(0.2, 1.5)

        def poly(xi):
            th = np.arctan((xi - ref.nu) / ref.gamma)
            return 4.0 + th - 0.3 * th**2 + 0.1 * th**5  # positive on (-pi/2, pi/2)

        density, _ = _grid_law(DensityGrid(nodes, poly(nodes), 0.0, ref=ref))
        inside = rng.uniform(nodes[0], nodes[-1], 1000)
        np.testing.assert_allclose(density(inside), poly(inside), rtol=1e-9)
        outside = np.array([nodes[0] - 1.0, nodes[-1] + 1.0, np.nan])
        np.testing.assert_array_equal(density(outside), 0.0)

    def test_tabulated_nodes_must_stay_distinct_in_theta(self):
        # distinct doubles whose arctan parameters round to the same value
        nodes = np.array([1e20, 1e21, 1e22])
        grid = DensityGrid(nodes, np.ones(3), 0.0, ref=HPoint(0.0, 1.0))
        with pytest.raises(ValueError):
            pf_density_step(0.5, grid)

    def test_coarse_grid_warns(self):
        grid = cauchy_grid(HPoint(1.0, 1.0), n_nodes=8)
        with pytest.warns(GridResolutionWarning):
            pf_density_step(0.5, grid)


class TestSampling:
    def test_bit_identical_reproduction(self):
        a = sample_cauchy(HPoint(0, 1), 5000, seed=7)
        b = sample_cauchy(HPoint(0, 1), 5000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample_cauchy(HPoint(0, 1), 1000, seed=1)
        b = sample_cauchy(HPoint(0, 1), 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_median_accuracy_at_scale(self):
        sample = sample_cauchy(HPoint(0.0, 1.0), 10**6, seed=42)
        # 3 asymptotic standard errors of the Cauchy median
        assert abs(fit_cauchy(sample).nu) < 3.0 * (math.pi / 2.0) / math.sqrt(10**6)

    def test_half_iqr_accuracy_at_scale(self):
        sample = sample_cauchy(HPoint(5.0, 2.0), 10**6, seed=11)
        assert fit_cauchy(sample).gamma == pytest.approx(2.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_cauchy(HPoint(0, 1), 0, seed=0)


class TestFitting:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            fit_cauchy(np.zeros(999))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fit_cauchy(np.arange(2000, dtype=float), method="moments")

    @pytest.mark.parametrize("method", ["median_iqr", "mle"])
    def test_coinciding_quartiles_raise(self, method):
        # no scale fits a sample whose quartiles are the same double
        with pytest.raises(SingularInputError):
            fit_cauchy(np.full(2000, 3.0), method)

    def test_quantile_plugin_recovers_parameters(self):
        # the law's quartiles sit exactly at nu +/- gamma
        p = HPoint(0.0, 1.0)
        assert cauchy_cdf(p, -1.0) == pytest.approx(0.25, abs=1e-15)
        assert cauchy_cdf(p, 1.0) == pytest.approx(0.75, abs=1e-15)
        u = np.arange(1, 10**5) / 10**5
        fit = fit_cauchy(cauchy_quantile(p, u))
        assert fit.nu == pytest.approx(0.0, abs=1e-4)
        assert fit.gamma == pytest.approx(1.0, abs=1e-4)

    def test_mle_large_sample(self):
        sample = sample_cauchy(HPoint(3.0, 2.0), 10**6, seed=5)
        fit = fit_cauchy(sample, method="mle")
        assert fit.nu == pytest.approx(3.0, rel=0.01)
        assert fit.gamma == pytest.approx(2.0, rel=0.01)

    def test_mle_beats_quantile_fit_on_average(self):
        sq_quantile = 0.0
        sq_mle = 0.0
        for seed in range(20):
            sample = sample_cauchy(HPoint(3.0, 2.0), 10**5, seed=seed)
            quantile_fit = fit_cauchy(sample)
            mle_fit = fit_cauchy(sample, method="mle")
            sq_quantile += (quantile_fit.nu - 3.0) ** 2 + (quantile_fit.gamma - 2.0) ** 2
            sq_mle += (mle_fit.nu - 3.0) ** 2 + (mle_fit.gamma - 2.0) ** 2
        assert sq_mle < sq_quantile

    def test_mle_iteration_budget(self):
        sample = sample_cauchy(HPoint(0.0, 1.0), 5000, seed=3)
        from boolemaps.density import _cauchy_mle

        with pytest.raises(FitConvergenceError):
            _cauchy_mle(sample, HPoint(50.0, 100.0), max_iter=1)

    @pytest.mark.parametrize(
        "nu, gamma", [(1e5, 1e-3), (1e3, 1e-6), (1e8, 1e-2), (1e300, 1e290)]
    )
    def test_mle_converges_far_from_the_origin(self, nu, gamma):
        # a small scale far from 0 once stalled the absolute gradient test;
        # the oracle is the fit of the same uniforms drawn as C(0, 1)
        sample = sample_cauchy(HPoint(nu, gamma), 2000, seed=1)
        standard = sample_cauchy(HPoint(0.0, 1.0), 2000, seed=1)
        for size in (2000, 1000):
            fit = fit_cauchy(sample[:size], method="mle")
            reference = fit_cauchy(standard[:size], method="mle")
            assert (fit.nu - nu) / gamma == pytest.approx(reference.nu, abs=1e-5)
            assert fit.gamma / gamma == pytest.approx(reference.gamma, rel=1e-5)


class TestMonteCarloPushForward:
    def test_single_step_matches_prediction(self):
        report = pf_monte_carlo_check(0.5, HPoint(1, 1), 10**5, 1, seed=42)
        assert report.predicted == HPoint(0.25, 0.75)
        assert report.within_tolerance
        assert report.n_dropped == 0

    def test_stationary_input_stays_put(self):
        report = pf_monte_carlo_check(0.5, HPoint(0, 1), 10**5, 10, seed=1)
        assert report.predicted.nu == pytest.approx(0.0, abs=1e-15)
        assert report.predicted.gamma == pytest.approx(1.0, rel=1e-15)
        assert report.within_tolerance

    def test_contraction_toward_fixed_point(self):
        # |2*alpha - 1|^20 ~ 3.7e-5 leaves the prediction this close to (0, 2)
        report = pf_monte_carlo_check(0.8, HPoint(5, 3), 10**5, 20, seed=9)
        assert report.predicted.nu == pytest.approx(0.0, abs=1e-3)
        assert report.predicted.gamma == pytest.approx(2.0, abs=1e-3)
        assert report.within_tolerance

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            pf_monte_carlo_check(0.5, HPoint(1, 1), 10**3, 1, seed=0)

    def test_pole_guard_overflow_raises(self):
        # about half of a C(0, 1e-300) sample lies inside the pole guard
        with pytest.raises(PoleGuardError):
            pf_monte_carlo_check(0.5, HPoint(0, 1e-300), 10**4, 1, seed=0)

    def test_pole_hits_are_dropped_and_counted(self):
        # zeros are hit at the first step, +-1 (mapped to 0) at the second;
        # the hits straddle a block boundary
        rng = np.random.default_rng(4)
        points = rng.standard_cauchy(70_000)
        points[[5, 66_000]] = 0.0
        points[[65_535, 65_536]] = [1.0, -1.0]
        expected = points.copy()
        for _ in range(3):
            expected = expected[np.abs(expected) >= POLE_EPS]
            expected = 0.5 * (expected - 1.0 / expected)
        pushed, dropped = _push_forward(0.5, points, 3)
        assert dropped == 4
        np.testing.assert_array_equal(pushed, expected)

    @pytest.mark.parametrize("method", ["median_iqr", "mle"])
    def test_memory_holds_two_sample_copies(self, method):
        # the sample (pushed in place) and the fit's sorted copy; no
        # temporary of the sample's size, however many steps or iterations
        n = 10**6
        tracemalloc.start()
        try:
            pf_monte_carlo_check(0.5, HPoint(0.3, 1.2), n, 7, seed=3, fit_method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n


class TestErgodicity:
    def test_ks_helper_on_exact_quantiles(self):
        p = HPoint(0.0, 1.0)
        u = np.arange(1, 2001) / 2001.0
        assert ks_distance(cauchy_quantile(p, u), p) < 1.0 / 2000.0

    @pytest.mark.parametrize("p", [HPoint(0.0, 1.0), HPoint(-0.3, 2.5)])
    def test_ks_matches_direct_formula(self, p):
        samples = np.random.default_rng(7).standard_cauchy(100_001) * 1.7 + 0.4
        ordered = np.sort(samples)
        n = ordered.size
        cdf = cauchy_cdf(p, ordered)
        expected = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n))
        assert ks_distance(samples, p) == float(expected)

    def test_long_orbit_matches_invariant_law(self):
        report = ergodic_orbit_check(0.5, math.sqrt(2.0), 2 * 10**5)
        assert report.ks < 0.01
        assert report.invariant.gamma == pytest.approx(1.0)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            ergodic_orbit_check(0.5, math.sqrt(2.0), 10**4)

    def test_degenerate_seed_is_flagged(self):
        # +/-1 reach the pole in two steps; the orbit cannot be continued
        with pytest.raises(OrbitTruncationError):
            ergodic_orbit_check(0.5, 1.0, 10**5)
