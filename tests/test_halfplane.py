"""Half-plane parameter map: step, fixed point, symmetries, canonical form."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boolemaps import (
    CanonicalPoint,
    HPoint,
    SingularInputError,
    boole_transform,
    canonical_step,
    conformal_factor,
    convergence_bound_check,
    converge_to_fixed_point,
    fixed_point,
    from_canonical,
    iterate_parameter_map,
    jacobian_analytic,
    parameter_step,
    picture_agreement,
    to_canonical,
)
from boolemaps._core import _scaled_step
from boolemaps.geometry import _complex_step
from boolemaps.orbit import _boole

alphas = st.floats(min_value=0.05, max_value=0.95)
nus = st.floats(min_value=-5.0, max_value=5.0)
gammas = st.floats(min_value=0.05, max_value=5.0)


def interior_points():
    return st.builds(HPoint, nus, gammas)


def complex_step_jacobian(alpha: float, x: HPoint) -> np.ndarray:
    """J * gamma/gamma' of the real-arithmetic step, by complex steps."""
    s = max(abs(x.nu), x.gamma)
    image = parameter_step(alpha, x)
    return _complex_step(
        lambda nu, gamma: _scaled_step(alpha, nu, gamma, s),
        (x.nu, x.gamma), (x.gamma, x.gamma), (image.gamma, image.gamma),
    )


class TestHPoint:
    def test_interior_needs_positive_gamma(self):
        with pytest.raises(ValueError):
            HPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            HPoint(0.0, -1.0)


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
        # nu^2 + gamma^2 underflows to zero, but the image alpha/gamma is finite
        out = parameter_step(0.5, HPoint(0.0, 1e-200))
        assert (out.nu, out.gamma) == (0.0, pytest.approx(5e199, rel=1e-15))

    @pytest.mark.parametrize(
        "point, expected",
        [((1e-170, 1e-170), (-2.5e169, 2.5e169)), ((0.0, 1e-160), (0.0, 5e159))],
    )
    def test_tiny_points_have_finite_images(self, point, expected):
        out = parameter_step(0.5, HPoint(*point))
        assert (out.nu, out.gamma) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("alpha, point", [(0.5, (0.0, 5e-324)), (0.1, (1.0, 5e-324))])
    def test_unrepresentable_image_raises(self, alpha, point):
        # gamma' = 0.5/5e-324 overflows; gamma' = 0.1*2*5e-324 underflows to 0
        with pytest.raises(SingularInputError):
            parameter_step(alpha, HPoint(*point))

    @given(alphas, st.sampled_from((-1.0, 1.0)), st.floats(min_value=-3.0, max_value=3.0))
    def test_vanishing_scale_is_pointwise_map(self, alpha, sign, log_x):
        # gamma -> 0 is the point-mass edge of H, where the step is boole_transform
        x = sign * 10.0**log_x
        assert parameter_step(alpha, HPoint(x, 1e-300)).nu == boole_transform(alpha, x)

    @given(alphas, gammas)
    def test_scale_axis_is_invariant(self, alpha, gamma):
        out = parameter_step(alpha, HPoint(0.0, gamma))
        assert out.nu == 0.0
        # exact: on the axis the scaled step reduces to alpha*(gamma + 1/gamma)
        assert out.gamma == alpha * (gamma + 1.0 / gamma)

    @given(alphas, interior_points())
    def test_reflection_commutes(self, alpha, x):
        # the mirror nu -> -nu commutes with the step
        left = parameter_step(alpha, HPoint(-x.nu, x.gamma))
        right = parameter_step(alpha, x)
        assert left.nu == pytest.approx(-right.nu, abs=1e-14)
        assert left.gamma == pytest.approx(right.gamma, abs=1e-14)

    def test_negative_step_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            iterate_parameter_map(0.5, HPoint(1.0, 1.0), -1)


# |nu| and gamma log-uniform over 1e-300..1e300, nu of either sign
magnitudes = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
signed_magnitudes = st.builds(lambda m, neg: -m if neg else m, magnitudes, st.booleans())
EXACT_RTOL = Fraction(1e-12)


class TestFullFloatRange:
    @given(alphas, signed_magnitudes, magnitudes)
    def test_step_is_exact_to_rounding(self, alpha, nu, gamma):
        # oracle: the real formula in exact rational arithmetic; nu' is
        # compared on the scale of its terms, which cancel near |s| = 1
        a, n, g = Fraction(alpha), Fraction(nu), Fraction(gamma)
        big_a = n * n + g * g
        out = parameter_step(alpha, HPoint(nu, gamma))
        nu_scale = a * abs(n) * (1 + 1 / big_a)
        assert abs(Fraction(out.nu) - a * n * (big_a - 1) / big_a) <= EXACT_RTOL * nu_scale
        exact_gamma = a * g * (big_a + 1) / big_a
        assert abs(Fraction(out.gamma) - exact_gamma) <= EXACT_RTOL * exact_gamma

    @given(alphas, signed_magnitudes, magnitudes)
    def test_reflection_commutes_exactly(self, alpha, nu, gamma):
        right = parameter_step(alpha, HPoint(nu, gamma))
        assert parameter_step(alpha, HPoint(-nu, gamma)) == HPoint(-right.nu, right.gamma)

    @given(alphas, signed_magnitudes, magnitudes)
    def test_jacobian_is_finite_cauchy_riemann_or_refused(self, alpha, nu, gamma):
        try:
            jac = jacobian_analytic(alpha, HPoint(nu, gamma))
        except SingularInputError:
            # refused only where an exact entry is beyond the largest double
            a, n, g = Fraction(alpha), Fraction(nu), Fraction(gamma)
            big_a2 = (n * n + g * g) ** 2
            entries = (a * (1 + (n * n - g * g) / big_a2), 2 * a * n * g / big_a2)
            assert max(abs(e) for e in entries) > Fraction(1.7e308)
            return
        assert np.all(np.isfinite(jac))
        assert jac[0, 0] == jac[1, 1] and jac[0, 1] == -jac[1, 0]

    @given(signed_magnitudes, magnitudes)
    def test_conformal_factor_in_unit_interval(self, nu, gamma):
        factor = conformal_factor(HPoint(nu, gamma))
        assert 0.0 <= factor <= 1.0
        n, g = Fraction(nu), Fraction(gamma)
        assert abs(Fraction(factor) - (1 - 4 * g * g / (1 + n * n + g * g) ** 2)) <= EXACT_RTOL


#: Bound of ``check_step_routes``' gaps, in ulps, from its measured worst.
STEP_ROUTE_ULPS = 4.0


def check_step_routes(count: int, seed: int) -> dict:
    """The worst gaps of ``parameter_step``, in ulps, at ``count`` random draws from ``seed``.

    |nu| and gamma are log-uniform in 1e-300..1e300, nu of either sign, and
    alpha as in ``test_geometry.check_geometry_oracles``: log-uniform in
    1e-323..1 for 30% of the draws, uniform in (1e-6, 0.999999) otherwise.
    A draw counts where its exact image is normal: gamma', and the scale
    alpha*|nu|*(1 + 1/A) of the terms of nu', A = nu^2 + gamma^2, lie
    between the least normal double and the largest; there the step must
    not raise.
    The gaps are to the map ``_boole`` on nu - i*gamma in complex
    arithmetic, and to the exact image in ``Fraction`` arithmetic; nu' in
    ulps of its terms' scale, on which they cancel near A = 1, as in
    ``test_step_is_exact_to_rounding``, and gamma' in ulps of itself.
    Asserts each within ``STEP_ROUTE_ULPS``, and returns the worst of each,
    by route, as (nu', gamma').  About 91% of the draws count (90,818 of
    10**5 at seed 20261020).  Over 10**6 draws of seed 20261020 the worst
    were 3.0 and 3.0 ulps against the complex route and 2.77 and 3.22
    against the exact image; over 10**5 draws of seeds 1 and 2, at most
    3.0 and 3.0, and 3.02 and 2.71.
    """
    rng = np.random.default_rng(seed)
    alphas = np.where(
        rng.random(count) < 0.3,
        10.0 ** rng.uniform(-323.0, math.log10(0.999999), count),
        rng.uniform(1e-6, 0.999999, count),
    )
    nus = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-300.0, 300.0, count)
    gammas = 10.0 ** rng.uniform(-300.0, 300.0, count)
    normal = (Fraction(sys.float_info.min), Fraction(sys.float_info.max))
    worst = {"complex": [0.0, 0.0], "exact": [0.0, 0.0]}
    for alpha, nu, gamma in zip(alphas.tolist(), nus.tolist(), gammas.tolist()):
        a, n, g = Fraction(alpha), Fraction(nu), Fraction(gamma)
        big_a = n * n + g * g
        nu_scale = a * abs(n) * (1 + 1 / big_a)
        exact_gamma = a * g * (big_a + 1) / big_a
        if not all(normal[0] <= value <= normal[1] for value in (nu_scale, exact_gamma)):
            continue
        out = parameter_step(alpha, HPoint(nu, gamma))
        image = _boole(alpha, complex(nu, -gamma))
        ulps = (Fraction(math.ulp(float(nu_scale))), Fraction(math.ulp(float(exact_gamma))))
        references = {
            "complex": (Fraction(image.real), Fraction(-image.imag)),
            "exact": (a * n * (big_a - 1) / big_a, exact_gamma),
        }
        for route, reference in references.items():
            for k, (value, ref, ulp) in enumerate(zip((out.nu, out.gamma), reference, ulps)):
                gap = float(abs(Fraction(value) - ref) / ulp)
                assert gap <= STEP_ROUTE_ULPS, (route, k, alpha, nu, gamma, gap)
                worst[route][k] = max(worst[route][k], gap)
    return {route: tuple(gaps) for route, gaps in worst.items()}


def test_step_routes_agree_to_rounding():
    check_step_routes(10**3, seed=1)


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
        run = converge_to_fixed_point(alpha, HPoint(5.0, 3.0))
        assert run.converged
        assert run.steps <= 500

    def test_unconverged_run_stops_at_its_budget(self):
        # At alpha = 0.9999 the map contracts by |2*alpha - 1| per step, too
        # slowly for 5000 steps; the run ends on the 5000th iterate, with no
        # step past the budget.
        seed = HPoint(1.0, 1.0)
        run = converge_to_fixed_point(0.9999, seed)
        assert not run.converged
        assert run.steps == 5000
        assert run.point == iterate_parameter_map(0.9999, seed, 5000)[5000]


class TestJacobian:
    @pytest.mark.parametrize(
        "alpha, expected_diag", [(0.5, 0.0), (0.8, 0.6)]
    )
    def test_linearization_at_fixed_point(self, alpha, expected_diag):
        jac = jacobian_analytic(alpha, fixed_point(alpha))
        np.testing.assert_allclose(jac, np.eye(2) * expected_diag, atol=1e-12)

    @given(
        alphas,
        st.floats(min_value=-300.0, max_value=300.0),
        st.booleans(),
        st.floats(min_value=-150.0, max_value=150.0),
    )
    @example(0.5, 200.0, False, 0.0).via("nu^2 + gamma^2 overflows")
    @example(0.5, -150.0, False, -150.0).via("Jacobian entries of 2.5e299")
    def test_matches_complex_step(self, alpha, log_nu, negative, log_gamma):
        # oracle: complex steps of the real-arithmetic step, which shares no
        # code with jacobian_analytic; both in units of gamma'/gamma, where
        # the entries are at most 1 (J^T J = det(J) * Id, and det(J) times
        # (gamma/gamma')^2 is the conformal factor)
        nu, gamma = (-1.0 if negative else 1.0) * 10.0**log_nu, 10.0**log_gamma
        x = HPoint(nu, gamma)
        ratio = gamma / parameter_step(alpha, x).gamma
        reference = complex_step_jacobian(alpha, x)
        assert np.max(np.abs(jacobian_analytic(alpha, x) * ratio - reference)) <= 1e-10

    def test_far_field_is_alpha_identity(self):
        # the squares of 1/s lie far below the smallest double
        jac = jacobian_analytic(0.5, HPoint(1e200, 1e200))
        np.testing.assert_allclose(jac, 0.5 * np.eye(2), rtol=0.0, atol=1e-300)

    def test_overflowing_entries_raise(self):
        with pytest.raises(SingularInputError):
            jacobian_analytic(0.5, HPoint(0.0, 5e-324))


class TestStability:
    @pytest.mark.parametrize(
        "alpha, lam, quadratic",
        [(0.5, 0.0, True), (0.9, 0.8, False), (0.25, -0.5, False)],
    )
    def test_eigenvalues(self, alpha, lam, quadratic):
        # both eigenvalues of the linearization at the fixed point are 2*alpha - 1;
        # convergence is quadratic where they vanish
        eig = np.linalg.eigvals(jacobian_analytic(alpha, fixed_point(alpha)))
        assert eig == pytest.approx([lam, lam], abs=1e-15)
        assert bool(np.all(np.abs(eig) < 1e-15)) is quadratic

    @given(alphas)
    def test_always_contracting(self, alpha):
        eig = np.linalg.eigvals(jacobian_analytic(alpha, fixed_point(alpha)))
        assert np.all(np.abs(eig) < 1.0)


class TestComplexForms:
    def test_fixed_point_in_complex_form(self):
        # s = nu - i*gamma at the fixed point, and its conjugate, are fixed by the core
        assert _boole(0.5, complex(0.0, -1.0)) == complex(0.0, -1.0)
        assert _boole(0.5, complex(0.0, 1.0)) == complex(0.0, 1.0)

    def test_derived_value(self):
        # oracle: 0.5*((1-1j) - 1/(1-1j)) = 0.25 - 0.75j, computed by hand
        assert _boole(0.5, complex(1.0, -1.0)) == pytest.approx(0.25 - 0.75j, abs=1e-15)

    @given(alphas, interior_points())
    def test_conjugate_symmetry(self, alpha, x):
        # real coefficients: the map on nu + i*gamma is the conjugate of the map on s
        s = complex(x.nu, -x.gamma)
        assert _boole(alpha, s.conjugate()) == _boole(alpha, s).conjugate()

    def test_rotated_fixed_point(self):
        # the rotated variable gamma + i*nu of the fixed point (0, 1) at alpha 1/2
        z = complex(1.0, 0.0)
        assert 0.5 * (z + 1.0 / z) == z

    def test_rotated_derived_value(self):
        # oracle: 0.5*((1+1j) + 1/(1+1j)) = 0.75 + 0.25j encodes (gamma', nu')
        z = complex(1.0, 1.0)
        stepped = parameter_step(0.5, HPoint(1.0, 1.0))
        assert 0.5 * (z + 1.0 / z) == pytest.approx(0.75 + 0.25j, abs=1e-15)
        assert complex(stepped.gamma, stepped.nu) == pytest.approx(0.75 + 0.25j, abs=1e-15)

    @given(alphas, interior_points())
    def test_rotation_consistency(self, alpha, x):
        # the scale map's complex extension on gamma + i*nu is the step, rotated
        stepped = parameter_step(alpha, x)
        z = complex(x.gamma, x.nu)
        rot = alpha * (z + 1.0 / z)
        assert rot == pytest.approx(1j * complex(stepped.nu, -stepped.gamma), abs=1e-14)

    @pytest.mark.parametrize(
        "xi1, xi2, expected",
        [
            (1.0, 1.0, (0.25, 0.75)),
            (2.0, 1.0, (0.8, 0.6)),
            (0.0, 1.0, (0.0, 1.0)),
        ],
    )
    def test_component_form(self, xi1, xi2, expected):
        # (Re, -Im) of the pointwise map at xi1 - i*xi2
        out = parameter_step(0.5, HPoint(xi1, xi2))
        assert (out.nu, out.gamma) == pytest.approx(expected, abs=1e-15)

    @given(alphas, nus, gammas)
    def test_component_form_matches_complex_arithmetic(self, alpha, xi1, xi2):
        # oracles: the real formula, alpha*(nu*(A-1)/A, gamma*(A+1)/A), and the
        # map in complex arithmetic on nu - i*gamma, whose image is nu' - i*gamma'
        out = parameter_step(alpha, HPoint(xi1, xi2))
        big_a = xi1 * xi1 + xi2 * xi2
        assert out.nu == pytest.approx(alpha * xi1 * (big_a - 1.0) / big_a, abs=1e-12)
        assert out.gamma == pytest.approx(alpha * xi2 * (big_a + 1.0) / big_a, abs=1e-12)
        image = _boole(alpha, complex(xi1, -xi2))
        assert out.nu == pytest.approx(image.real, abs=1e-12)
        assert out.gamma == pytest.approx(-image.imag, abs=1e-12)

    @given(alphas, interior_points())
    def test_all_pictures_agree(self, alpha, x):
        assert picture_agreement(alpha, x) <= 1e-12

    @given(
        alphas,
        st.floats(min_value=-300.0, max_value=300.0),
        st.booleans(),
        st.floats(min_value=-300.0, max_value=300.0),
    )
    @example(0.5, 200.0, False, 0.0).via("nu^2 + gamma^2 overflows")
    def test_all_pictures_agree_at_every_scale(self, alpha, log_nu, negative, log_gamma):
        # relative to the size alpha*(r + 1/r) of the terms, r = |nu - i*gamma|
        x = HPoint((-1.0 if negative else 1.0) * 10.0**log_nu, 10.0**log_gamma)
        r = math.hypot(x.nu, x.gamma)
        assert picture_agreement(alpha, x) <= 1e-12 * alpha * (r + 1.0 / r)


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

    def test_nonpositive_momentum_rejected(self):
        with pytest.raises(ValueError):
            CanonicalPoint(0.0, 0.0)

    @pytest.mark.parametrize("big", [1e308, 1.7976931348623157e308])
    def test_huge_coordinate_has_a_subnormal_reciprocal(self, big):
        # 2*big overflows; 0.5/big is a positive subnormal double
        assert to_canonical(HPoint(1.0, big)).p == 0.5 / big > 0.0
        assert from_canonical(CanonicalPoint(1.0, big)).gamma == 0.5 / big > 0.0

    @pytest.mark.parametrize("tiny", [5e-324, 2e-309])
    def test_reciprocal_beyond_dbl_max_raises(self, tiny):
        with pytest.raises(SingularInputError):
            to_canonical(HPoint(1.0, tiny))
        with pytest.raises(SingularInputError):
            from_canonical(CanonicalPoint(1.0, tiny))

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
        gbar = fixed_point(0.1).gamma
        report = convergence_bound_check(0.1, gbar * math.sqrt(10.0), 12)
        assert not report.bound_holds_from_2
        assert report.first_violation == 3
        assert report.ratios[3] > 1.0

    def test_validation(self):
        for gamma0 in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(SingularInputError):
                convergence_bound_check(0.5, gamma0, 10)
        with pytest.raises(ValueError):
            convergence_bound_check(0.5, 2.0, 2)


def asymptotic_check(alpha, x):
    """Relative errors of the far-field limit (nu, gamma) -> alpha*(nu, gamma) of the step.

    Returns (|nu' - alpha*nu| / |alpha*nu|, |gamma' - alpha*gamma| / (alpha*gamma));
    both equal 1/(nu^2 + gamma^2) exactly, so the limit is good precisely
    when the point is far from the unit circle's interior.  The nu error is
    0 for nu = 0 (the axis is invariant).  Both ratios divide alpha out of
    the stepped point, so a product alpha*nu or alpha*gamma that underflows
    to 0 cannot divide by zero.
    """
    stepped = parameter_step(alpha, x)
    err_gamma = abs(stepped.gamma / alpha - x.gamma) / x.gamma
    if x.nu == 0.0:
        return 0.0, err_gamma
    err_nu = abs(stepped.nu / alpha - x.nu) / abs(x.nu)
    return err_nu, err_gamma


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
