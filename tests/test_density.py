"""Transfer-sum grid evolution, sampling, fitting, and ergodicity checks."""

import math

import numpy as np
import pytest

from boolemaps import (
    CauchyParams,
    DensityGrid,
    FitConvergenceError,
    GridResolutionWarning,
    HPoint,
    OrbitTruncationError,
    cauchy_cdf,
    cauchy_grid,
    cauchy_pdf,
    cauchy_quantile,
    ergodic_orbit_check,
    fit_cauchy,
    invariant_params,
    ks_distance,
    parameter_step,
    pf_closed_form_check,
    pf_density_step,
    pf_monte_carlo_check,
    sample_cauchy,
)
from boolemaps.density import transfer_values


class TestDensityGrid:
    def test_default_grid_accounts_for_all_mass(self):
        grid = cauchy_grid(CauchyParams(0.0, 1.0))
        assert grid.tail_mass == pytest.approx(2e-6, rel=1e-9)
        assert grid.mass() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_mass_with_mismatched_reference(self):
        grid = cauchy_grid(CauchyParams(0.25, 0.75), ref=CauchyParams(1.0, 1.0))
        assert grid.mass() == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_grid(CauchyParams(0, 1), n_nodes=1)
        with pytest.raises(ValueError):
            cauchy_grid(CauchyParams(0, 1), tail_prob=0.7)
        nodes = np.array([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            DensityGrid(nodes, np.ones(3), 0.0, ref=CauchyParams(0, 1))
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 1.0]), np.ones(2), -0.1, ref=CauchyParams(0, 1))


class TestTransferStep:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_invariant_density_is_fixed(self, alpha):
        grid = cauchy_grid(invariant_params(alpha))
        stepped = pf_density_step(alpha, grid)
        np.testing.assert_allclose(stepped.values, grid.values, rtol=1e-10)
        assert stepped.mass() == pytest.approx(1.0, abs=1e-6)

    def test_peak_of_standard_invariant_density(self):
        p = CauchyParams(0.0, 1.0)
        out = transfer_values(0.5, lambda xi: cauchy_pdf(p, xi), np.array([0.0]))
        assert out[0] == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_far_tails_stay_finite(self):
        # C(0, 1) steps to C(0, 2*alpha); at +-1e300 one preimage is ~2.7e300
        p = CauchyParams(0.0, 1.0)
        nodes = np.array([-1e300, -1e150, 1e150, 1e300])
        out = transfer_values(0.37, lambda xi: cauchy_pdf(p, xi), nodes)
        np.testing.assert_allclose(out, cauchy_pdf(CauchyParams(0.0, 0.74), nodes), rtol=1e-14)

    def test_matches_closed_form_pointwise(self):
        grid = cauchy_grid(CauchyParams(1.0, 1.0))
        stepped = pf_density_step(0.5, grid)
        target = parameter_step(0.5, HPoint(1.0, 1.0))
        predicted = cauchy_pdf(CauchyParams(target.nu, target.gamma), grid.nodes)
        window = np.abs(grid.nodes) < 1e3
        np.testing.assert_allclose(
            stepped.values[window], predicted[window], rtol=1e-10
        )
        assert stepped.mass() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "alpha, p",
        [
            (0.5, CauchyParams(1.0, 1.0)),
            (0.5, CauchyParams(0.0, 1.0)),
            (0.9, CauchyParams(-3.0, 0.5)),
        ],
    )
    def test_sup_error_against_closed_form(self, alpha, p):
        assert pf_closed_form_check(alpha, p) < 1e-10

    def test_stationary_sup_error_is_tiny(self):
        assert pf_closed_form_check(0.5, CauchyParams(0.0, 1.0)) < 1e-12

    def test_tabulated_grid_without_source(self):
        exact = cauchy_grid(invariant_params(0.5))
        tabulated = DensityGrid(
            exact.nodes, exact.values, exact.tail_mass, ref=exact.ref, source=None
        )
        stepped = pf_density_step(0.5, tabulated)
        window = np.abs(exact.nodes) < 1e3
        np.testing.assert_allclose(
            stepped.values[window], exact.values[window], atol=1e-8
        )

    def test_coarse_grid_warns(self):
        grid = cauchy_grid(CauchyParams(1.0, 1.0), n_nodes=8)
        with pytest.warns(GridResolutionWarning):
            pf_density_step(0.5, grid)


class TestSampling:
    def test_bit_identical_reproduction(self):
        a = sample_cauchy(CauchyParams(0, 1), 5000, seed=7)
        b = sample_cauchy(CauchyParams(0, 1), 5000, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_distinct_seeds_differ(self):
        a = sample_cauchy(CauchyParams(0, 1), 1000, seed=1)
        b = sample_cauchy(CauchyParams(0, 1), 1000, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_median_accuracy_at_scale(self):
        batch = sample_cauchy(CauchyParams(0.0, 1.0), 10**6, seed=42)
        # 3 asymptotic standard errors of the Cauchy median
        assert abs(fit_cauchy(batch.points).nu) < 3.0 * (math.pi / 2.0) / math.sqrt(10**6)

    def test_half_iqr_accuracy_at_scale(self):
        batch = sample_cauchy(CauchyParams(5.0, 2.0), 10**6, seed=11)
        assert fit_cauchy(batch.points).gamma == pytest.approx(2.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_cauchy(CauchyParams(0, 1), 0, seed=0)


class TestFitting:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            fit_cauchy(np.zeros(999))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fit_cauchy(np.arange(2000, dtype=float), method="moments")

    def test_quantile_plugin_recovers_parameters(self):
        # the law's quartiles sit exactly at nu +/- gamma
        p = CauchyParams(0.0, 1.0)
        assert cauchy_cdf(p, -1.0) == pytest.approx(0.25, abs=1e-15)
        assert cauchy_cdf(p, 1.0) == pytest.approx(0.75, abs=1e-15)
        u = np.arange(1, 10**5) / 10**5
        fit = fit_cauchy(cauchy_quantile(p, u))
        assert fit.nu == pytest.approx(0.0, abs=1e-4)
        assert fit.gamma == pytest.approx(1.0, abs=1e-4)

    def test_mle_large_sample(self):
        batch = sample_cauchy(CauchyParams(3.0, 2.0), 10**6, seed=5)
        fit = fit_cauchy(batch.points, method="mle")
        assert fit.nu == pytest.approx(3.0, rel=0.01)
        assert fit.gamma == pytest.approx(2.0, rel=0.01)

    def test_mle_beats_quantile_fit_on_average(self):
        sq_quantile = 0.0
        sq_mle = 0.0
        for seed in range(20):
            batch = sample_cauchy(CauchyParams(3.0, 2.0), 10**5, seed=seed)
            quantile_fit = fit_cauchy(batch.points)
            mle_fit = fit_cauchy(batch.points, method="mle")
            sq_quantile += (quantile_fit.nu - 3.0) ** 2 + (quantile_fit.gamma - 2.0) ** 2
            sq_mle += (mle_fit.nu - 3.0) ** 2 + (mle_fit.gamma - 2.0) ** 2
        assert sq_mle < sq_quantile

    def test_mle_iteration_budget(self):
        batch = sample_cauchy(CauchyParams(0.0, 1.0), 5000, seed=3)
        from boolemaps.density import _cauchy_mle

        with pytest.raises(FitConvergenceError):
            _cauchy_mle(batch.points, CauchyParams(50.0, 100.0), max_iter=1)


class TestMonteCarloPushForward:
    def test_single_step_matches_prediction(self):
        report = pf_monte_carlo_check(0.5, CauchyParams(1, 1), 10**5, 1, seed=42)
        assert report.predicted == CauchyParams(0.25, 0.75)
        assert report.within_tolerance
        assert report.n_dropped == 0

    def test_stationary_input_stays_put(self):
        report = pf_monte_carlo_check(0.5, CauchyParams(0, 1), 10**5, 10, seed=1)
        assert report.predicted.nu == pytest.approx(0.0, abs=1e-15)
        assert report.predicted.gamma == pytest.approx(1.0, rel=1e-15)
        assert report.within_tolerance

    def test_contraction_toward_fixed_point(self):
        # |2*alpha - 1|^20 ~ 3.7e-5 leaves the prediction this close to (0, 2)
        report = pf_monte_carlo_check(0.8, CauchyParams(5, 3), 10**5, 20, seed=9)
        assert report.predicted.nu == pytest.approx(0.0, abs=1e-3)
        assert report.predicted.gamma == pytest.approx(2.0, abs=1e-3)
        assert report.within_tolerance

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            pf_monte_carlo_check(0.5, CauchyParams(1, 1), 10**3, 1, seed=0)


class TestErgodicity:
    def test_ks_helper_on_exact_quantiles(self):
        p = CauchyParams(0.0, 1.0)
        u = np.arange(1, 2001) / 2001.0
        assert ks_distance(cauchy_quantile(p, u), p) < 1.0 / 2000.0

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
