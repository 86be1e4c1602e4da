"""Pointwise map, preimages, orbits, and Cauchy primitives."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolemaps import (
    CauchyParams,
    SingularInputError,
    boole_transform,
    cauchy_cdf,
    cauchy_pdf,
    cauchy_quantile,
    g_transform,
    invariant_scale,
    iterate_orbit,
    preimages,
)

alphas = st.floats(min_value=0.01, max_value=0.99)
safe_xi = st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: abs(x) > 1e-200)


class TestBooleTransform:
    @pytest.mark.parametrize(
        "alpha, xi, expected",
        [(0.5, 1.0, 0.0), (0.5, 2.0, 0.75), (0.5, -1.0, 0.0)],
    )
    def test_known_values(self, alpha, xi, expected):
        assert boole_transform(alpha, xi) == expected

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5, math.nan])
    def test_alpha_validation(self, bad):
        with pytest.raises(ValueError):
            boole_transform(bad, 2.0)

    @pytest.mark.parametrize("xi", [0.0, 1e-301, -1e-305, math.inf, math.nan])
    def test_pole_guard(self, xi):
        with pytest.raises(SingularInputError):
            boole_transform(0.5, xi)

    @given(alphas, safe_xi)
    def test_odd_symmetry_exact(self, alpha, xi):
        assert boole_transform(alpha, -xi) == -boole_transform(alpha, xi)


class TestGTransform:
    @pytest.mark.parametrize(
        "alpha, gamma, expected",
        [(0.5, 1.0, 1.0), (0.5, 2.0, 1.25), (0.8, 2.0, 2.0)],
    )
    def test_known_values(self, alpha, gamma, expected):
        assert g_transform(alpha, gamma) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive(self, gamma):
        with pytest.raises(SingularInputError):
            g_transform(0.5, gamma)

    @given(alphas, st.floats(min_value=1e-6, max_value=1e6))
    def test_stays_positive(self, alpha, gamma):
        assert g_transform(alpha, gamma) > 0.0

    @pytest.mark.parametrize("gamma", [1e-310, 5e-324])
    def test_unrepresentable_image_raises(self, gamma):
        # alpha/gamma exceeds DBL_MAX, so the image is not a finite double
        with pytest.raises(SingularInputError):
            g_transform(0.5, gamma)


class TestPreimages:
    def test_symmetric_pair_at_zero(self):
        assert preimages(0.5, 0.0) == (-1.0, 1.0)

    def test_inverts_forward_map(self):
        # oracle: the forward map sends 2 to 0.75, so 2 must be the upper
        # preimage and the product identity fixes the lower one at -1/2
        assert boole_transform(0.5, 2.0) == 0.75
        lo, hi = preimages(0.5, 0.75)
        assert (lo, hi) == pytest.approx((-0.5, 2.0), rel=1e-12)

    @given(alphas, st.floats(min_value=-100.0, max_value=100.0))
    def test_round_trip(self, alpha, xi_prime):
        lo, hi = preimages(alpha, xi_prime)
        scale = max(1.0, abs(xi_prime))
        assert abs(boole_transform(alpha, lo) - xi_prime) <= 1e-10 * scale
        assert abs(boole_transform(alpha, hi) - xi_prime) <= 1e-10 * scale

    @given(alphas, st.floats(min_value=-100.0, max_value=100.0))
    def test_sum_and_product_identities(self, alpha, xi_prime):
        lo, hi = preimages(alpha, xi_prime)
        assert lo < hi
        assert lo * hi == pytest.approx(-1.0, rel=1e-12)
        assert lo + hi == pytest.approx(xi_prime / alpha, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("xi_prime", [1e12, -1e12, 1e150])
    def test_no_cancellation_for_large_targets(self, xi_prime):
        # the textbook quadratic formula returns 0 for one root here
        lo, hi = preimages(0.5, xi_prime)
        for root in (lo, hi):
            assert abs(boole_transform(0.5, root) - xi_prime) <= 1e-10 * abs(xi_prime)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_huge_target_does_not_overflow(self, sign):
        # roots y/alpha and -alpha/y, up to terms far below the last bit
        lo, hi = preimages(0.37, sign * 1e300)
        assert (lo, hi) == pytest.approx(sorted((sign * 1e300 / 0.37, -sign * 3.7e-301)), rel=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_target_near_dbl_max_has_finite_roots(self, sign):
        # |y| + hypot(y, 2*alpha) alone would overflow; the roots ~1.11e308
        # and ~9e-309 are both finite
        lo, hi = preimages(0.9, sign * 1e308)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert (lo, hi) == pytest.approx(sorted((sign * 1e308 / 0.9, -sign * 9e-309)), rel=1e-15)

    @pytest.mark.parametrize("target", [1e308, -1e308, math.inf, math.nan])
    def test_root_beyond_dbl_max_raises(self, target):
        # 1e308/0.37 is not a double
        with pytest.raises(SingularInputError):
            preimages(0.37, target)


class TestIterateOrbit:
    def test_truncates_at_pole(self):
        result = iterate_orbit(0.5, 1.0, 3)
        assert result.truncated
        assert result.last_index == 1
        np.testing.assert_array_equal(result.points, [1.0, 0.0])

    def test_plain_trajectory(self):
        result = iterate_orbit(0.5, 2.0, 2)
        assert not result.truncated
        expected = [2.0, 0.75, 0.5 * (0.75 - 1.0 / 0.75)]
        np.testing.assert_allclose(result.points, expected, rtol=1e-15)

    def test_zero_steps(self):
        result = iterate_orbit(0.3, 5.0, 0)
        np.testing.assert_array_equal(result.points, [5.0])
        assert not result.truncated

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            iterate_orbit(0.5, 2.0, -1)
        with pytest.raises(SingularInputError):
            iterate_orbit(0.5, 0.0, 5)


class TestCauchyPrimitives:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            CauchyParams(0.0, 0.0)
        with pytest.raises(ValueError):
            CauchyParams(0.0, -1.0)
        with pytest.raises(ValueError):
            CauchyParams(math.inf, 1.0)

    @pytest.mark.parametrize(
        "p, xi, expected",
        [
            (CauchyParams(0, 1), 0.0, 1.0 / math.pi),
            (CauchyParams(0, 1), 1.0, 1.0 / (2.0 * math.pi)),
            (CauchyParams(3, 2), 3.0, 1.0 / (2.0 * math.pi)),
            (CauchyParams(0, 1e-200), 0.0, 1e200 / math.pi),
            (CauchyParams(0, 1), 1e200, 1e-400),
        ],
    )
    def test_pdf(self, p, xi, expected):
        assert cauchy_pdf(p, xi) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "p, xi, expected",
        [
            (CauchyParams(0, 1), 0.0, 0.5),
            (CauchyParams(0, 1), 1.0, 0.75),
            (CauchyParams(2, 3), -1.0, 0.25),
        ],
    )
    def test_cdf(self, p, xi, expected):
        assert cauchy_cdf(p, xi) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "p, u, expected",
        [
            (CauchyParams(0, 1), 0.5, 0.0),
            (CauchyParams(0, 1), 0.75, 1.0),
            (CauchyParams(5, 2), 0.25, 3.0),
        ],
    )
    def test_quantile(self, p, u, expected):
        assert cauchy_quantile(p, u) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, u):
        with pytest.raises(ValueError):
            cauchy_quantile(CauchyParams(0, 1), u)

    @pytest.mark.parametrize(
        "p", [CauchyParams(0, 1), CauchyParams(3, 2), CauchyParams(-5, 0.3)]
    )
    def test_cdf_quantile_inversion(self, p):
        u = np.arange(0.01, 1.0, 0.01)
        back = cauchy_cdf(p, cauchy_quantile(p, u))
        np.testing.assert_allclose(back, u, atol=1e-12)

    def test_pdf_normalizes(self):
        # trapezoid over the arctan-substituted axis as an independent check
        p = CauchyParams(1.5, 0.7)
        theta = np.linspace(-np.pi / 2 + 1e-9, np.pi / 2 - 1e-9, 20001)
        xi = p.nu + p.gamma * np.tan(theta)
        jac = p.gamma / np.cos(theta) ** 2
        assert np.trapezoid(cauchy_pdf(p, xi) * jac, theta) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize(
    "alpha, expected", [(0.5, 1.0), (0.8, 2.0), (0.1, 1.0 / 3.0)]
)
def test_invariant_scale(alpha, expected):
    assert invariant_scale(alpha) == pytest.approx(expected, rel=1e-15)
