"""Metric, conformal pullback, Killing fields, symplectic structure."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from boolemaps import (
    CanonicalPoint,
    HPoint,
    KILLING_FIELD_NAMES,
    QuadratureError,
    SingularInputError,
    apply_complex_structure,
    canonical_form_coefficient,
    cauchy_pdf,
    christoffel,
    conformal_factor,
    fisher_metric,
    fisher_metric_quadrature,
    fixed_point,
    jacobian_analytic,
    lie_derivative_metric,
    lie_derivative_two_form,
    metric_inner,
    parameter_step,
    symplectic_defect,
    symplectic_form,
    to_canonical,
    two_form_value,
    verify_conformal_pullback,
)
from boolemaps.cli import LIE_TOL, PULLBACK_TOL
from boolemaps.geometry import _KILLING, _complex_step, _metric_entries, _midpoint_entries

points = st.builds(
    HPoint,
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.2, max_value=4.0),
)
components = st.floats(min_value=-1.0, max_value=1.0)


#: The scales at which 1/(2*gamma^2) is a normal double.
_GAMMA_NORMAL = (math.sqrt(0.5 / sys.float_info.max), math.sqrt(0.5 / sys.float_info.min))

#: Map parameters uniform in 0.05..0.95, or log-uniform from the least
#: double 5e-324 to 0.1; the map oracles do not depend on alpha.
map_alphas = st.one_of(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=math.log10(5e-324), max_value=-1.0).map(lambda e: 10.0**e),
)


def check_geometry_oracles(count: int, seed: int) -> tuple[float, float]:
    """The map oracles at ``count`` random points drawn from ``seed``.

    Alpha is log-uniform in 1e-323..1 for 30% of them and uniform in
    (1e-6, 0.999999) otherwise.  30% of the points lie within 0.1 of (0, 1),
    where the conformal factor vanishes; the rest have |nu| log-uniform in
    1e-300..1e300, of either sign, and gamma log-uniform over the scales
    where the metric is a normal double.  Asserts at each a pullback below
    ``PULLBACK_TOL`` and a symplectic defect within 1e-10 of
    1 - conformal_factor; returns the worst pullback and the worst gap.
    """
    rng = np.random.default_rng(seed)
    alphas = np.where(
        rng.random(count) < 0.3,
        10.0 ** rng.uniform(-323.0, math.log10(0.999999), count),
        rng.uniform(1e-6, 0.999999, count),
    )
    radius, angle = 0.1 * np.sqrt(rng.random(count)), rng.uniform(0.0, 2.0 * math.pi, count)
    near = rng.random(count) < 0.3
    nus = np.where(
        near,
        radius * np.cos(angle),
        rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-300.0, 300.0, count),
    )
    gammas = np.where(
        near, 1.0 + radius * np.sin(angle), 10.0 ** rng.uniform(*np.log10(_GAMMA_NORMAL), count)
    )
    worst_pullback = worst_gap = 0.0
    for alpha, nu, gamma in zip(alphas.tolist(), nus.tolist(), gammas.tolist()):
        x = HPoint(nu, gamma)
        pullback = verify_conformal_pullback(alpha, x)
        gap = abs(symplectic_defect(alpha, to_canonical(x)) - (1.0 - conformal_factor(x)))
        assert pullback < PULLBACK_TOL and gap < 1e-10, (alpha, x, pullback, gap)
        worst_pullback, worst_gap = max(worst_pullback, pullback), max(worst_gap, gap)
    return worst_pullback, worst_gap


def _adaptive_metric(x: HPoint):
    """The metric integrals by scipy's adaptive quadrature, with its error estimates.

    The integrand, one point at a time: the scores and the Cauchy density at
    xi = nu + gamma*tan(t), times d(xi)/dt.  Convergence is judged by the
    error estimates, so quad's own warnings are silenced.
    """
    from scipy.integrate import quad

    nu, gamma = x.nu, x.gamma

    def integrand(a, b):
        def f(t):
            xi = nu + gamma * math.tan(t)
            d = xi - nu
            q = d * d + gamma * gamma
            score = (2.0 * d / q, (d * d - gamma * gamma) / (gamma * q))
            return score[a] * score[b] * cauchy_pdf(x, xi) * gamma / math.cos(t) ** 2

        return f

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = [
            quad(integrand(a, b), -math.pi / 2.0, math.pi / 2.0,
                 epsabs=1e-12, epsrel=1e-12, limit=200)
            for a, b in ((0, 0), (0, 1), (1, 1))
        ]
    return np.array([value for value, _ in results]), [err for _, err in results]


def _numpy_midpoint_entries(gamma: float, n: int) -> np.ndarray:
    """Oracle: ``geometry._midpoint_entries`` on arrays, as numpy evaluates it.

    The same n-point midpoint rule in t, with numpy's tan, cos and hypot and
    its pairwise sums.
    """
    t = (np.arange(n) + 0.5) * (np.pi / n) - np.pi / 2.0
    d = gamma * np.tan(t)
    h = np.hypot(d, gamma)
    pdf = gamma / h / h / np.pi
    weight = (np.pi / n) * pdf * (gamma / np.cos(t) ** 2)
    score_nu = 2.0 * (d / h) / h
    score_gamma = ((d - gamma) / h) * ((d + gamma) / h) / gamma
    return np.array([
        np.sum(weight * score_nu * score_nu),
        np.sum(weight * score_nu * score_gamma),
        np.sum(weight * score_gamma * score_gamma),
    ])


class TestFisherMetric:
    @pytest.mark.parametrize(
        "point, expected", [((0.0, 1.0), 0.5), ((7.0, 2.0), 0.125)]
    )
    def test_closed_form(self, point, expected):
        g = fisher_metric(HPoint(*point))
        assert (g.g_nn, g.g_ng, g.g_gg) == pytest.approx((expected, 0.0, expected))

    @given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10),
           st.floats(min_value=0.1, max_value=5))
    def test_location_independence(self, nu_a, nu_b, gamma):
        assert fisher_metric(HPoint(nu_a, gamma)) == fisher_metric(HPoint(nu_b, gamma))


class TestFisherQuadrature:
    @pytest.mark.parametrize(
        "point, diag",
        [((0.0, 1.0), 0.5), ((3.0, 0.5), 2.0), ((-2.0, 4.0), 0.03125)],
    )
    def test_matches_closed_form(self, point, diag):
        g = fisher_metric_quadrature(HPoint(*point))
        assert g.g_nn == pytest.approx(diag, abs=1e-8)
        assert g.g_gg == pytest.approx(diag, abs=1e-8)
        assert g.g_ng == pytest.approx(0.0, abs=1e-8)

    @given(
        st.floats(min_value=-1e300, max_value=1e300),
        st.floats(min_value=math.log(_GAMMA_NORMAL[0]), max_value=math.log(_GAMMA_NORMAL[1])),
    )
    @example(1.0, math.log(2e-6))
    def test_exact_wherever_the_metric_is_normal(self, nu, log_gamma):
        # The midpoint rule integrates the integrands exactly, so only rounding
        # is left, at every scale where 1/(2*gamma^2) is a normal double.
        # At gamma = 2e-6 scipy's adaptive quadrature misses 1e-9.
        gamma = math.exp(log_gamma)
        diag = 0.5 / gamma / gamma
        assume(sys.float_info.min <= diag <= sys.float_info.max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = fisher_metric_quadrature(HPoint(nu, gamma))
        assert abs(g.g_nn - diag) <= 1e-12 * diag
        assert abs(g.g_gg - diag) <= 1e-12 * diag
        assert abs(g.g_ng) <= 1e-12 * diag

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)),
    )
    def test_matches_adaptive_quadrature(self, nu, log_gamma):
        # oracle: scipy's adaptive quadrature of the same integrals, wherever
        # it reports convergence; its error estimates are absolute
        x = HPoint(nu, math.exp(log_gamma))
        values, errors = _adaptive_metric(x)
        assume(max(errors) <= 1e-9)
        g = fisher_metric_quadrature(x)
        gaps = np.abs(np.array([g.g_nn, g.g_ng, g.g_gg]) - values)
        assert np.max(gaps) < 1e-8

    @given(
        st.floats(min_value=math.log(_GAMMA_NORMAL[0]), max_value=math.log(_GAMMA_NORMAL[1]))
        .map(math.exp)
        .filter(lambda gamma: sys.float_info.min <= 0.5 / gamma / gamma <= sys.float_info.max)
    )
    @example(1.0)
    @example(_GAMMA_NORMAL[0])
    @example(_GAMMA_NORMAL[1])
    def test_loop_matches_the_array_rule(self, gamma):
        # The two sum the same terms in different orders, and their tan and
        # cos may differ in the last bit: they agree to a few ulps (up to 6 in
        # 40,000 log-uniform draws) of the larger diagonal entry, the scale
        # of every entry.
        for n in (16, 32):
            expected = _numpy_midpoint_entries(gamma, n)
            got = _midpoint_entries(gamma, n)
            assert all(type(value) is float for value in got)
            ulp = math.ulp(max(expected[0], expected[2]))
            assert np.max(np.abs(np.array(got) - expected)) <= 16 * ulp, (gamma, n)

    def test_overflowing_metric_raises(self):
        with pytest.raises(QuadratureError):
            fisher_metric_quadrature(HPoint(0.0, 1e-160))


class TestConformalFactor:
    @pytest.mark.parametrize(
        "point, expected",
        [
            ((0.0, 1.0), 0.0),
            ((1.0, 1.0), 5.0 / 9.0),
            ((0.0, 3.0), 0.64),
            ((0.0, 2.0), 0.36),
            ((1e200, 1e200), 1.0),
        ],
    )
    def test_known_values(self, point, expected):
        assert conformal_factor(HPoint(*point)) == pytest.approx(expected, abs=1e-15)

    @given(points)
    def test_range(self, x):
        factor = conformal_factor(x)
        assert 0.0 <= factor < 1.0

    @given(points)
    def test_vanishes_only_at_unit_point(self, x):
        # factor = (nu^2+(gamma-1)^2) * (nu^2+(gamma+1)^2) / (1+A)^2
        dist2 = x.nu * x.nu + (x.gamma - 1.0) ** 2
        if dist2 > 1e-6:
            assert conformal_factor(x) > 1e-8 * dist2

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("point", [(1.0, 1.0), (-2.0, 0.5), (0.3, 2.5)])
    def test_alpha_independence_through_pullback(self, alpha, point):
        # The Jacobian is conformal, J^T J = det(J) * Id, so the map pulls
        # g = Id/(2*gamma^2) back to det(J) * (gamma/gamma')^2 times g.
        x = HPoint(*point)
        ratio = x.gamma / parameter_step(alpha, x).gamma
        recovered = float(np.linalg.det(jacobian_analytic(alpha, x))) * ratio * ratio
        assert recovered == pytest.approx(conformal_factor(x), abs=1e-12)


class TestConformalPullback:
    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_at_reference_point(self, alpha):
        assert verify_conformal_pullback(alpha, HPoint(1.0, 1.0)) < PULLBACK_TOL

    def test_on_scale_axis(self):
        x = HPoint(0.0, 2.0)
        assert conformal_factor(x) == pytest.approx(0.36, abs=1e-15)
        assert verify_conformal_pullback(0.5, x) < PULLBACK_TOL

    @given(map_alphas, points)
    def test_everywhere(self, alpha, x):
        # (0, 1), where the conformal factor vanishes, included
        assert verify_conformal_pullback(alpha, x) < PULLBACK_TOL

    def test_random_points_at_every_alpha(self):
        worst_pullback, worst_gap = check_geometry_oracles(10**3, seed=1)
        assert worst_pullback < PULLBACK_TOL and worst_gap < 1e-10


class TestEveryScale:
    @given(
        map_alphas,
        st.floats(min_value=-300.0, max_value=300.0),
        st.booleans(),
        st.floats(min_value=math.log10(_GAMMA_NORMAL[0]), max_value=math.log10(_GAMMA_NORMAL[1])),
    )
    @example(0.5, 6.0, False, 0.0)
    @example(0.5, 20.0, False, 0.0)
    @example(0.5, 200.0, True, 0.0)
    @example(0.5, 0.0, False, math.log10(0.03))
    @example(0.5, 300.0, False, -150.0)
    @example(1e-308, 0.0, False, 0.0)
    @example(1e-160, 100.0, False, -150.0)
    def test_oracles_hold(self, alpha, log_nu, negative, log_gamma):
        # The complex-step oracles hold to their tolerances wherever the
        # metric is a normal double, for any finite nu and any alpha.  They
        # failed at each of the first five examples with fixed-step central
        # differences, and at the last two when they stepped the map at alpha.
        x = HPoint((-1.0 if negative else 1.0) * 10.0**log_nu, 10.0**log_gamma)
        assert verify_conformal_pullback(alpha, x) < PULLBACK_TOL
        for name in KILLING_FIELD_NAMES:
            lie = lie_derivative_metric(name, x)
            assert max(abs(lie.g_nn), abs(lie.g_ng), abs(lie.g_gg)) < LIE_TOL
            assert abs(lie_derivative_two_form(name, x)) < LIE_TOL
        defect = symplectic_defect(alpha, to_canonical(x))
        assert abs(defect - (1.0 - conformal_factor(x))) < 1e-10

    @pytest.mark.parametrize("gamma", [5.2e-155, 4.75e153])
    def test_metric_outside_the_normal_doubles_raises(self, gamma):
        with pytest.raises(SingularInputError):
            fisher_metric(HPoint(0.0, gamma))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
    def test_map_oracles_reject_alpha_outside_the_open_interval(self, alpha):
        # they step the map at alpha = 1, but check the alpha they are given
        with pytest.raises(ValueError):
            verify_conformal_pullback(alpha, HPoint(1.0, 1.0))
        with pytest.raises(ValueError):
            symplectic_defect(alpha, CanonicalPoint(1.0, 0.5))

    def test_map_oracles_raise_where_the_image_is_beyond_the_doubles(self):
        # gamma' ~ 1/gamma overflows below gamma ~5.6e-309, outside the
        # metric's domain
        with pytest.raises(SingularInputError):
            verify_conformal_pullback(0.5, HPoint(0.0, 5e-309))
        with pytest.raises(SingularInputError):
            symplectic_defect(0.5, CanonicalPoint(0.0, 1e308))


class TestKillingFields:
    @pytest.mark.parametrize(
        "point, k1, k2, k3",
        [
            ((0.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)),
            ((1.0, 1.0), (0.0, 2.0), (1.0, 1.0), (1.0, 0.0)),
            ((2.0, 1.0), (3.0, 4.0), (2.0, 1.0), (1.0, 0.0)),
        ],
    )
    def test_component_values(self, point, k1, k2, k3):
        for name, expected in zip(KILLING_FIELD_NAMES, (k1, k2, k3)):
            assert _KILLING[name](*point) == expected

    def test_translation_has_exactly_zero_lie_derivative(self):
        lie = lie_derivative_metric("translation", HPoint(2.7, 1.3))
        assert (lie.g_nn, lie.g_ng, lie.g_gg) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", KILLING_FIELD_NAMES)
    @pytest.mark.parametrize("point", [(1.0, 2.0), (0.5, 1.5), (-2.0, 0.7)])
    def test_metric_is_preserved(self, name, point):
        lie = lie_derivative_metric(name, HPoint(*point))
        assert max(abs(lie.g_nn), abs(lie.g_ng), abs(lie.g_gg)) < 1e-6

    @pytest.mark.parametrize("name", KILLING_FIELD_NAMES)
    @pytest.mark.parametrize("point", [(1.0, 2.0), (0.5, 1.5), (-2.0, 0.7)])
    def test_two_form_is_preserved(self, name, point):
        assert abs(lie_derivative_two_form(name, HPoint(*point))) < 1e-6

    def test_dilation_is_not_killing_for_euclidean_comparison(self):
        # sanity guard on the oracle itself: a generic non-isometry direction
        # (here, translation along gamma) must NOT annihilate the metric
        _KILLING["__gamma_shift"] = lambda nu, g: (0.0, 1.0)
        try:
            lie = lie_derivative_metric("__gamma_shift", HPoint(1.0, 2.0))
            assert max(abs(lie.g_nn), abs(lie.g_ng), abs(lie.g_gg)) > 1e-3
        finally:
            del _KILLING["__gamma_shift"]


class TestSymplecticStructure:
    @pytest.mark.parametrize(
        "point, expected", [((0.0, 1.0), -0.5), ((5.0, 2.0), -0.125)]
    )
    def test_two_form_coefficient(self, point, expected):
        assert symplectic_form(HPoint(*point)).omega_ng == pytest.approx(expected, rel=1e-15)

    def test_complex_structure_rotates_basis(self):
        assert apply_complex_structure((1.0, 0.0)) == (0.0, -1.0)
        assert apply_complex_structure((0.0, -1.0)) == (-1.0, 0.0)
        assert apply_complex_structure((0.0, 1.0)) == (1.0, 0.0)

    @given(components, components)
    def test_j_squared_is_minus_identity(self, a, b):
        assert apply_complex_structure(apply_complex_structure((a, b))) == (-a, -b)

    @given(points, components, components, components, components)
    def test_two_form_equals_metric_with_rotation(self, x, u0, u1, v0, v1):
        g = fisher_metric(x)
        w = symplectic_form(x)
        lhs = two_form_value(w, (u0, u1), (v0, v1))
        rhs = metric_inner(g, apply_complex_structure((u0, u1)), (v0, v1))
        assert lhs == pytest.approx(rhs, abs=1e-14)

    @given(points, components, components, components, components)
    def test_rotation_is_an_isometry(self, x, u0, u1, v0, v1):
        g = fisher_metric(x)
        lhs = metric_inner(
            g, apply_complex_structure((u0, u1)), apply_complex_structure((v0, v1))
        )
        assert lhs == pytest.approx(metric_inner(g, (u0, u1), (v0, v1)), abs=1e-14)

    @given(points)
    def test_canonical_frame_coefficient(self, x):
        assert abs(canonical_form_coefficient(x) - 1.0) < 1e-14


class TestSymplecticDefect:
    def test_fixed_point_of_balanced_map(self):
        # linearization vanishes at alpha = 1/2: determinant 0, defect 1
        defect = symplectic_defect(0.5, CanonicalPoint(0.0, 0.5))
        assert defect == pytest.approx(1.0, abs=1e-8)

    def test_derived_value_off_axis(self):
        # oracle: det(d canonical_step) equals the conformal factor, which is
        # 5/9 at (nu, gamma) = (1, 1); defect = 4/9
        defect = symplectic_defect(0.5, CanonicalPoint(1.0, 0.5))
        assert defect > 0.1
        assert defect == pytest.approx(4.0 / 9.0, abs=1e-6)

    def test_fixed_point_of_generic_map(self):
        c = to_canonical(fixed_point(0.8))
        assert c == CanonicalPoint(0.0, 0.25)
        assert symplectic_defect(0.8, c) == pytest.approx(0.64, abs=1e-6)

    @given(map_alphas, points)
    def test_defect_equals_one_minus_conformal_factor(self, alpha, x):
        defect = symplectic_defect(alpha, to_canonical(x))
        assert defect == pytest.approx(1.0 - conformal_factor(x), abs=1e-10)


def _assert_metric_compatible(x, bound):
    # d_c g_ab = Gamma_ca^d g_db + Gamma_cb^d g_ad, with d_c g by complex
    # steps, both sides times gamma / g_nn so that they are dimensionless
    metric = fisher_metric(x)
    g = np.array([[metric.g_nn, metric.g_ng], [metric.g_ng, metric.g_gg]]) / metric.g_nn
    scaled = x.gamma * christoffel(x)
    slopes = np.asarray(_complex_step(
        _metric_entries, (x.nu, x.gamma), (x.gamma, x.gamma), (metric.g_nn,) * 3
    ))
    for row, (a, b) in enumerate(((0, 0), (0, 1), (1, 1))):
        for c in range(2):
            expected = sum(
                scaled[c, a, d] * g[d, b] + scaled[c, b, d] * g[a, d] for d in range(2)
            )
            assert abs(slopes[row, c] - expected) <= bound, (x, a, b, c)


class TestConnection:
    @pytest.mark.parametrize("point", [(0.5, 1.0), (-1.0, 2.0), (3.0, 0.5)])
    def test_metric_compatibility(self, point):
        _assert_metric_compatible(HPoint(*point), 1e-10)

    def test_metric_compatibility_over_domain(self):
        # log-uniform points over the metric's domain, nu = 0 and both ends of
        # the domain among them.  Where 2**-20 times the metric is subnormal
        # (gamma above about 4.6e150), so is the step's imaginary part, which
        # then carries fewer digits: the gap reaches ~1.2e-10.
        rng = np.random.default_rng(20261018)
        n = 3000
        gammas = 10.0 ** rng.uniform(*np.log10(_GAMMA_NORMAL), n)
        nus = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        nus[:10] = 0.0
        gammas[:2] = 5.28e-155, 4.74e153
        for nu, gamma in zip(nus, gammas):
            x = HPoint(float(nu), float(gamma))
            g_nn = fisher_metric(x).g_nn
            _assert_metric_compatible(x, 1e-10 if 2.0**-20 * g_nn >= sys.float_info.min else 2e-10)

    def test_symmetry_in_lower_indices(self):
        gamma_sym = christoffel(HPoint(1.0, 2.0))
        np.testing.assert_array_equal(gamma_sym, np.swapaxes(gamma_sym, 0, 1))
