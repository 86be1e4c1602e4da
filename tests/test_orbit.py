"""Pointwise map, preimages, orbits, and Cauchy primitives."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolemaps import (
    POLE_EPS,
    HPoint,
    OrbitResult,
    SingularInputError,
    boole_transform,
    cauchy_cdf,
    cauchy_pdf,
    cauchy_quantile,
    check_alpha,
    fixed_point,
    iterate_orbit,
    parameter_step,
    preimages,
)
from boolemaps._core import KS_MIN_SAMPLES, _boole
from boolemaps.cli import _short_orbit

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
    """The scale map gamma -> alpha*(gamma + 1/gamma): the half-plane step on the axis nu = 0."""

    @pytest.mark.parametrize(
        "alpha, gamma, expected",
        [(0.5, 1.0, 1.0), (0.5, 2.0, 1.25), (0.8, 2.0, 2.0)],
    )
    def test_known_values(self, alpha, gamma, expected):
        assert parameter_step(alpha, HPoint(0.0, gamma)).gamma == pytest.approx(expected, rel=1e-15)

    @given(alphas, st.floats(min_value=1e-6, max_value=1e6))
    def test_stays_positive(self, alpha, gamma):
        assert parameter_step(alpha, HPoint(0.0, gamma)).gamma > 0.0

    @pytest.mark.parametrize("gamma", [1e-310, 5e-324])
    def test_unrepresentable_image_raises(self, gamma):
        # alpha/gamma exceeds DBL_MAX, so the image is not a finite double
        with pytest.raises(SingularInputError):
            parameter_step(0.5, HPoint(0.0, gamma))


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


def loop_orbit(alpha: float, xi0: float, n: int) -> OrbitResult:
    """Reference oracle: the orbit a step at a time through the map
    ``_boole``, each point guarded before it is stepped from."""
    alpha = check_alpha(alpha)
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    if not math.isfinite(xi0) or abs(xi0) < POLE_EPS:
        raise SingularInputError(f"seed {xi0!r} is inside the pole guard")
    points = np.empty(n + 1)
    points[0] = x = xi0
    for i in range(1, n + 1):
        if abs(x) < POLE_EPS:
            return OrbitResult(points[:i].copy(), truncated=True, last_index=i - 1)
        x = _boole(alpha, x)
        points[i] = x
    return OrbitResult(points, truncated=False, last_index=n)


def assert_same_orbit(alpha: float, xi0: float, n: int) -> OrbitResult:
    """Assert that ``iterate_orbit``, and below ``KS_MIN_SAMPLES`` the CLI's
    list route ``_short_orbit`` too, give the oracle's points, bit for bit,
    and its ``truncated`` and ``last_index``; return the array result.

    Every point kept is finite, as the report kernels need: it is the seed,
    finite with |xi0| >= POLE_EPS, or the image alpha*(x - 1/x) of a point
    with |x| >= POLE_EPS, which is finite as |x - 1/x| < max(|x|, 1e300).
    """
    got, expected = iterate_orbit(alpha, xi0, n), loop_orbit(alpha, xi0, n)
    assert np.isfinite(got.points).all(), (alpha, xi0, n)
    assert got.points.tobytes() == expected.points.tobytes(), (alpha, xi0, n)
    assert (got.truncated, got.last_index) == (expected.truncated, expected.last_index), (
        alpha, xi0, n
    )
    if n < KS_MIN_SAMPLES:
        points, truncated, last_index = _short_orbit(alpha, xi0, n)
        assert np.array(points, dtype=float).tobytes() == expected.points.tobytes(), (
            alpha, xi0, n
        )
        assert (truncated, last_index) == (expected.truncated, expected.last_index), (
            alpha, xi0, n
        )
    return got


#: log10 of the ranges drawn from: alpha in 1e-320..0.999, |seed| in 1e-300..1e300.
_LOG_ALPHA = (-320.0, math.log10(0.999))
_LOG_SEED = (-300.0, 300.0)


def _seed(exponent: float, negative: bool) -> float:
    # 10**-300 rounds below POLE_EPS, which no seed may be
    xi0 = max(10.0**exponent, POLE_EPS)
    return -xi0 if negative else xi0


def check_orbits(count: int, seed: int) -> int:
    """``assert_same_orbit`` on ``count`` random orbits drawn from ``seed``:
    alpha and |xi0| log-uniform in their ranges, xi0 of either sign, n
    uniform in 0..1000.  Returns how many of them were truncated."""
    rng = np.random.default_rng(seed)
    alphas = 10.0 ** rng.uniform(*_LOG_ALPHA, count)
    seeds = rng.uniform(*_LOG_SEED, count)
    signs = rng.integers(0, 2, count).astype(bool)
    lengths = rng.integers(0, 1000, count, endpoint=True)
    truncated = 0
    for alpha, exponent, negative, n in zip(alphas.tolist(), seeds.tolist(), signs.tolist(),
                                            lengths.tolist()):
        truncated += assert_same_orbit(alpha, _seed(exponent, negative), n).truncated
    return truncated


class TestIterateOrbit:
    """``iterate_orbit``, and the points, ``truncated`` and ``last_index`` it
    gives against the per-step loop ``loop_orbit``."""

    def test_truncates_at_pole(self):
        result = assert_same_orbit(0.5, 1.0, 3)
        assert result.truncated
        assert result.last_index == 1
        np.testing.assert_array_equal(result.points, [1.0, 0.0])

    def test_plain_trajectory(self):
        result = iterate_orbit(0.5, 2.0, 2)
        assert not result.truncated
        expected = [2.0, 0.75, 0.5 * (0.75 - 1.0 / 0.75)]
        np.testing.assert_allclose(result.points, expected, rtol=1e-15)

    def test_zero_steps(self):
        result = assert_same_orbit(0.3, 5.0, 0)
        np.testing.assert_array_equal(result.points, [5.0])
        assert not result.truncated

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            iterate_orbit(0.5, 2.0, -1)
        with pytest.raises(SingularInputError):
            iterate_orbit(0.5, 0.0, 5)

    @given(
        st.floats(*_LOG_ALPHA).map(lambda e: 10.0**e),
        st.builds(_seed, st.floats(*_LOG_SEED), st.booleans()),
        st.integers(0, 200),
    )
    def test_equals_the_loop(self, alpha, xi0, n):
        assert_same_orbit(alpha, xi0, n)

    def test_random_orbits_equal_the_loop(self):
        # a few of them are truncated, so the cut is checked too
        assert check_orbits(3000, seed=11) > 0

    @pytest.mark.parametrize("xi0", [1.0, -1.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_zero(self, xi0, n):
        # +-1 maps to 0, whose image raises ZeroDivisionError in the loop; a
        # last point is never stepped from, so at n = 1 nothing is cut
        result = assert_same_orbit(0.5, xi0, n)
        assert result.points.tolist() == [xi0, 0.0]
        assert (result.truncated, result.last_index) == (n > 1, 1)

    def test_subnormal_iterate(self):
        result = assert_same_orbit(1e-310, 1.5, 10)
        assert result.truncated and result.last_index == 1
        assert 0.0 < abs(result.points[1]) < sys.float_info.min

    def test_cut_at_the_first_hit(self):
        # inside the guard at index 1, back at about -1.2 at 2 and inside
        # again at 3: the orbit ends at the first of the two
        alpha, xi0 = 1e-305, 1.5
        x1 = alpha * (xi0 - 1.0 / xi0)
        x2 = alpha * (x1 - 1.0 / x1)
        x3 = alpha * (x2 - 1.0 / x2)
        assert abs(x1) < POLE_EPS and x2 == pytest.approx(-1.2) and abs(x3) < POLE_EPS
        result = assert_same_orbit(alpha, xi0, 10)
        assert result.truncated and result.last_index == 1

    def test_clean_long_orbit(self):
        result = assert_same_orbit(0.5, math.sqrt(2.0), 10**6)
        assert not result.truncated and len(result.points) == 10**6 + 1


class TestCauchyPrimitives:
    def test_one_type_for_the_law_and_the_point(self):
        # a Cauchy law C(nu, gamma) is the point nu + i*gamma of the half-plane
        from boolemaps import halfplane, orbit

        assert orbit.CauchyParams is halfplane.HPoint is HPoint

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            HPoint(0.0, -1.0)
        with pytest.raises(ValueError):
            HPoint(math.inf, 1.0)

    @pytest.mark.parametrize(
        "p, xi, expected",
        [
            (HPoint(0, 1), 0.0, 1.0 / math.pi),
            (HPoint(0, 1), 1.0, 1.0 / (2.0 * math.pi)),
            (HPoint(3, 2), 3.0, 1.0 / (2.0 * math.pi)),
            (HPoint(0, 1e-200), 0.0, 1e200 / math.pi),
            (HPoint(0, 1), 1e200, 1e-400),
        ],
    )
    def test_pdf(self, p, xi, expected):
        assert cauchy_pdf(p, xi) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "p, xi, expected",
        [
            (HPoint(0, 1), 0.0, 0.5),
            (HPoint(0, 1), 1.0, 0.75),
            (HPoint(2, 3), -1.0, 0.25),
        ],
    )
    def test_cdf(self, p, xi, expected):
        assert cauchy_cdf(p, xi) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "p, u, expected",
        [
            (HPoint(0, 1), 0.5, 0.0),
            (HPoint(0, 1), 0.75, 1.0),
            (HPoint(5, 2), 0.25, 3.0),
        ],
    )
    def test_quantile(self, p, u, expected):
        assert cauchy_quantile(p, u) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_quantile_domain(self, u):
        with pytest.raises(ValueError):
            cauchy_quantile(HPoint(0, 1), u)

    @pytest.mark.parametrize(
        "p", [HPoint(0, 1), HPoint(3, 2), HPoint(-5, 0.3)]
    )
    def test_cdf_quantile_inversion(self, p):
        u = np.arange(0.01, 1.0, 0.01)
        back = cauchy_cdf(p, cauchy_quantile(p, u))
        np.testing.assert_allclose(back, u, atol=1e-12)

    def test_pdf_normalizes(self):
        # trapezoid over the arctan-substituted axis as an independent check
        p = HPoint(1.5, 0.7)
        theta = np.linspace(-np.pi / 2 + 1e-9, np.pi / 2 - 1e-9, 20001)
        xi = p.nu + p.gamma * np.tan(theta)
        jac = p.gamma / np.cos(theta) ** 2
        assert np.trapezoid(cauchy_pdf(p, xi) * jac, theta) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize(
    "alpha, expected", [(0.5, 1.0), (0.8, 2.0), (0.1, 1.0 / 3.0)]
)
def test_invariant_scale(alpha, expected):
    assert fixed_point(alpha).gamma == pytest.approx(expected, rel=1e-15)
