"""Half-plane parameter map: step, fixed point, symmetries, canonical form."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boolemaps import (
    CanonicalPoint,
    HPoint,
    SingularInputError,
    asymptotic_check,
    boole_transform,
    canonical_step,
    complex_check_step,
    complex_s_step,
    convergence_bound_check,
    converge_to_fixed_point,
    finite_difference_jacobian,
    fixed_point,
    from_canonical,
    g_transform,
    invariant_scale,
    jacobian_analytic,
    orbital_from_parameter,
    parameter_step,
    picture_agreement,
    reflect,
    stability_eigenvalues,
    to_canonical,
)

alphas = st.floats(min_value=0.05, max_value=0.95)
nus = st.floats(min_value=-5.0, max_value=5.0)
gammas = st.floats(min_value=0.05, max_value=5.0)


def interior_points():
    return st.builds(HPoint, nus, gammas)


class TestHPoint:
    def test_interior_needs_positive_gamma(self):
        with pytest.raises(ValueError):
            HPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            HPoint(0.0, -1.0)

    def test_boundary_flag(self):
        b = HPoint(2.0, 0.0, boundary=True)
        assert b.boundary
        with pytest.raises(ValueError):
            HPoint(2.0, 1.0, boundary=True)


class TestParameterStep:
    @pytest.mark.parametrize(
        "alpha, point, expected",
        [
            (0.5, (0.0, 1.0), (0.0, 1.0)),
            (0.5, (1.0, 1.0), (0.25, 0.75)),
            (0.8, (0.0, 2.0), (0.0, 2.0)),
        ],
    )
    def test_known_values(self, alpha, point, expected):
        out = parameter_step(alpha, HPoint(*point))
        assert (out.nu, out.gamma) == pytest.approx(expected, abs=1e-15)

    @given(alphas, interior_points())
    def test_closure(self, alpha, x):
        assert parameter_step(alpha, x).gamma > 0.0

    def test_degenerate_origin(self):
        # gamma small enough that nu^2 + gamma^2 underflows to zero
        with pytest.raises(SingularInputError):
            parameter_step(0.5, HPoint(0.0, 1e-200))

    def test_boundary_dispatches_to_pointwise_map(self):
        out = parameter_step(0.5, HPoint(2.0, 0.0, boundary=True))
        assert out.boundary
        assert out.nu == boole_transform(0.5, 2.0)

    @given(alphas, gammas)
    def test_scale_axis_is_invariant(self, alpha, gamma):
        out = parameter_step(alpha, HPoint(0.0, gamma))
        assert out.nu == 0.0
        assert out.gamma == pytest.approx(g_transform(alpha, gamma), rel=1e-15)

    @given(alphas, interior_points())
    def test_reflection_commutes(self, alpha, x):
        left = parameter_step(alpha, reflect(x))
        right = reflect(parameter_step(alpha, x))
        assert left.nu == pytest.approx(right.nu, abs=1e-14)
        assert left.gamma == pytest.approx(right.gamma, abs=1e-14)


class TestFixedPoint:
    @pytest.mark.parametrize(
        "alpha, expected_gamma", [(0.5, 1.0), (0.8, 2.0), (0.1, 1.0 / 3.0)]
    )
    def test_location(self, alpha, expected_gamma):
        fp = fixed_point(alpha)
        assert fp.nu == 0.0
        assert fp.gamma == pytest.approx(expected_gamma, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.7, 0.9])
    def test_idempotence(self, alpha):
        fp = fixed_point(alpha)
        out = parameter_step(alpha, fp)
        assert abs(out.nu) <= 1e-14
        assert abs(out.gamma - fp.gamma) <= 1e-14 * fp.gamma

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_attracts_from_afar(self, alpha):
        run = converge_to_fixed_point(alpha, HPoint(5.0, 3.0), tol=1e-8, max_steps=500)
        assert run.converged
        assert run.steps <= 500


class TestJacobian:
    @pytest.mark.parametrize(
        "alpha, expected_diag", [(0.5, 0.0), (0.8, 0.6)]
    )
    def test_linearization_at_fixed_point(self, alpha, expected_diag):
        jac = jacobian_analytic(alpha, fixed_point(alpha))
        np.testing.assert_allclose(jac, np.eye(2) * expected_diag, atol=1e-12)

    @given(alphas, st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.2, max_value=4.0))
    def test_matches_finite_differences(self, alpha, nu, gamma):
        def step(a, b):
            out = parameter_step(alpha, HPoint(a, b))
            return out.nu, out.gamma

        fd = finite_difference_jacobian(step, nu, gamma, h=1e-6)
        np.testing.assert_allclose(jacobian_analytic(alpha, HPoint(nu, gamma)), fd, atol=1e-6)


class TestStability:
    @pytest.mark.parametrize(
        "alpha, lam, quadratic",
        [(0.5, 0.0, True), (0.9, 0.8, False), (0.25, -0.5, False)],
    )
    def test_eigenvalues(self, alpha, lam, quadratic):
        report = stability_eigenvalues(alpha)
        assert report.eigenvalues == pytest.approx((lam, lam), abs=1e-15)
        assert report.quadratic_convergence is quadratic

    @given(alphas)
    def test_always_contracting(self, alpha):
        lam = stability_eigenvalues(alpha).eigenvalues[0]
        assert abs(lam) < 1.0


class TestReflect:
    def test_values(self):
        assert reflect(HPoint(1.0, 2.0)) == HPoint(-1.0, 2.0)
        assert reflect(HPoint(0.0, 1.0)) == HPoint(0.0, 1.0)

    @given(interior_points())
    def test_involution(self, x):
        assert reflect(reflect(x)) == x


class TestComplexForms:
    def test_fixed_point_in_complex_form(self):
        s_new, w_new = complex_s_step(0.5, HPoint(0.0, 1.0))
        assert s_new == complex(0.0, -1.0)
        assert w_new == complex(0.0, 1.0)

    def test_derived_value(self):
        # oracle: 0.5*((1-1j) - 1/(1-1j)) = 0.25 - 0.75j, computed by hand
        s_new, _ = complex_s_step(0.5, HPoint(1.0, 1.0))
        assert s_new == pytest.approx(0.25 - 0.75j, abs=1e-15)

    @given(alphas, interior_points())
    def test_conjugate_symmetry(self, alpha, x):
        s_new, w_new = complex_s_step(alpha, x)
        assert w_new == pytest.approx(s_new.conjugate(), abs=1e-14)

    def test_rotated_fixed_point(self):
        rot, _ = complex_check_step(0.5, HPoint(0.0, 1.0))
        assert rot == complex(1.0, 0.0)

    def test_rotated_derived_value(self):
        # oracle: 0.5*((1+1j) + 1/(1+1j)) = 0.75 + 0.25j encodes (gamma', nu')
        rot, _ = complex_check_step(0.5, HPoint(1.0, 1.0))
        assert rot == pytest.approx(0.75 + 0.25j, abs=1e-15)

    @given(alphas, interior_points())
    def test_rotation_consistency(self, alpha, x):
        s_new, _ = complex_s_step(alpha, x)
        rot, _ = complex_check_step(alpha, x)
        assert rot == pytest.approx(1j * s_new, abs=1e-14)

    @pytest.mark.parametrize(
        "xi1, xi2, expected",
        [
            (1.0, 1.0, (0.25, 0.75)),
            (2.0, 0.0, (0.75, 0.0)),
            (0.0, 1.0, (0.0, 1.0)),
        ],
    )
    def test_component_form(self, xi1, xi2, expected):
        assert orbital_from_parameter(0.5, xi1, xi2) == pytest.approx(expected, abs=1e-15)

    def test_component_form_rejects_origin(self):
        with pytest.raises(SingularInputError):
            orbital_from_parameter(0.5, 0.0, 0.0)

    @given(alphas, nus, gammas)
    def test_component_form_matches_complex_arithmetic(self, alpha, xi1, xi2):
        re, im = orbital_from_parameter(alpha, xi1, xi2)
        z = alpha * ((xi1 + 1j * xi2) - 1.0 / (xi1 + 1j * xi2))
        assert re == pytest.approx(z.real, abs=1e-12)
        assert im == pytest.approx(z.imag, abs=1e-12)

    @given(alphas, interior_points())
    def test_all_pictures_agree(self, alpha, x):
        assert picture_agreement(alpha, x) <= 1e-12


class TestCanonicalCoordinates:
    @pytest.mark.parametrize(
        "point, expected",
        [((0.0, 1.0), (0.0, 0.5)), ((3.0, 0.25), (3.0, 2.0))],
    )
    def test_forward(self, point, expected):
        c = to_canonical(HPoint(*point))
        assert (c.q, c.p) == pytest.approx(expected, rel=1e-15)

    @given(interior_points())
    def test_round_trip(self, x):
        back = from_canonical(to_canonical(x))
        assert back.nu == x.nu
        assert back.gamma == pytest.approx(x.gamma, rel=1e-15)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            to_canonical(HPoint(1.0, 0.0, boundary=True))
        with pytest.raises(ValueError):
            CanonicalPoint(0.0, 0.0)

    def test_step_fixed_point(self):
        out = canonical_step(0.5, CanonicalPoint(0.0, 0.5))
        assert (out.q, out.p) == pytest.approx((0.0, 0.5), abs=1e-15)

    def test_step_derived_value(self):
        # oracle: conjugate the half-plane step (1,1) -> (0.25, 0.75)
        # through p = 1/(2*gamma), so p' = 1/1.5
        out = canonical_step(0.5, CanonicalPoint(1.0, 0.5))
        assert (out.q, out.p) == pytest.approx((0.25, 2.0 / 3.0), rel=1e-15)

    @given(alphas, st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=0.05, max_value=20.0))
    def test_conjugacy_with_half_plane_step(self, alpha, q, p):
        # oracle: the map written directly in canonical coordinates,
        # B = (1/(2p))^2 + q^2,  q' = alpha*q*(B-1)/B,  p' = (p/alpha)*B/(B+1)
        half_inv = 1.0 / (2.0 * p)
        big_b = half_inv * half_inv + q * q
        out = canonical_step(alpha, CanonicalPoint(q, p))
        assert out.q == pytest.approx(alpha * q * (big_b - 1.0) / big_b, rel=1e-12, abs=1e-12)
        assert out.p == pytest.approx((p / alpha) * big_b / (big_b + 1.0), rel=1e-12)

    def test_step_tiny_momentum(self):
        # gamma = 1/(2p) = 5e169, so A overflows and the step is the far-field
        # limit alpha*(nu, gamma): (q, p) -> (alpha*q, p/alpha)
        out = canonical_step(0.5, CanonicalPoint(1.0, 1e-170))
        assert (out.q, out.p) == pytest.approx((0.5, 2e-170), rel=1e-15)


class TestConvergenceBound:
    def test_reference_orbit(self):
        report = convergence_bound_check(0.5, 2.0, 6)
        np.testing.assert_allclose(
            report.gammas[:4], [2.0, 1.25, 1.025, 1.0003048780487805], rtol=1e-12
        )
        assert report.bound == 0.5
        assert report.bound_holds_from_2
        finite = report.ratios[2:][np.isfinite(report.ratios[2:])]
        assert np.all(finite <= 0.5)

    def test_large_alpha_from_far_away(self):
        report = convergence_bound_check(0.8, 10.0, 40)
        assert report.bound == pytest.approx(0.8)
        assert report.bound_holds_from_2

    def test_started_at_fixed_point(self):
        report = convergence_bound_check(0.5, 1.0, 5)
        np.testing.assert_array_equal(report.deviations, 0.0)
        assert np.isnan(report.ratios).all()
        assert report.bound_holds_from_2

    def test_small_alpha_transient_violation(self):
        # the claimed n >= 2 bound genuinely fails here: the third iterate
        # falls below sqrt(alpha*(1-alpha)), where one step can expand
        gbar = invariant_scale(0.1)
        report = convergence_bound_check(0.1, gbar * math.sqrt(10.0), 12)
        assert not report.bound_holds_from_2
        assert report.first_violation == 3
        assert report.ratios[3] > 1.0

    def test_validation(self):
        with pytest.raises(SingularInputError):
            convergence_bound_check(0.5, -1.0, 10)
        with pytest.raises(ValueError):
            convergence_bound_check(0.5, 2.0, 2)


class TestAsymptotics:
    def test_far_field(self):
        # recovering the error by subtraction leaves ~eps/err relative noise
        err_nu, err_gamma = asymptotic_check(0.5, HPoint(100.0, 100.0))
        assert err_nu == pytest.approx(1.0 / 20000.0, rel=1e-9)
        assert err_gamma == pytest.approx(1.0 / 20000.0, rel=1e-9)
        assert max(err_nu, err_gamma) <= 5e-5 * (1.0 + 1e-9)

    def test_near_field_is_inapplicable(self):
        err_nu, err_gamma = asymptotic_check(0.5, HPoint(0.1, 0.1))
        assert err_nu == pytest.approx(50.0, rel=1e-12)
        assert err_gamma == pytest.approx(50.0, rel=1e-12)

    def test_large_location(self):
        err_nu, _ = asymptotic_check(0.9, HPoint(1000.0, 1.0))
        assert err_nu == pytest.approx(1.0 / 1000001.0, rel=1e-12)

    def test_axis_convention(self):
        err_nu, err_gamma = asymptotic_check(0.5, HPoint(0.0, 2.0))
        assert err_nu == 0.0
        assert err_gamma == pytest.approx(0.25, rel=1e-12)

    @given(alphas, interior_points())
    @example(0.5, HPoint(5e-324, 1.0))  # alpha*nu underflows to 0
    def test_error_equals_inverse_radius(self, alpha, x):
        _, err_gamma = asymptotic_check(alpha, x)
        big_a = x.nu * x.nu + x.gamma * x.gamma
        assert err_gamma == pytest.approx(1.0 / big_a, rel=1e-9)
