"""Geometric structure of the half-plane phase space.

The Fisher information metric of the Cauchy family is the rescaled
hyperbolic metric g = (d_nu^2 + d_gamma^2) / (2*gamma^2), making the
parameter space a Poincare-type upper half-plane.  Every object here lives
on the open half-plane gamma > 0, which ``HPoint`` enforces; the metric
blows up toward the point masses at gamma = 0.  The half-plane map is
conformal for this metric with the alpha-independent factor
1 - 4*gamma^2/(1 + A)^2, A = nu^2 + gamma^2.  Together with the constant
rotation J the metric induces the two-form omega(X, Y) = g(J X, Y)
= -1/(2*gamma^2) d_nu ^ d_gamma, symplectic on the half-plane, which reads
+1 on the ordered canonical frame (d/dq, d/dp) of (q, p) = (nu, 1/(2*gamma)).

Every closed-form object here has a brute-force counterpart in this module
(the metric's defining integral by a midpoint rule that is exact for it,
complex-step derivatives for pullbacks, Lie derivatives and Jacobian
determinants) so the claims can be checked without trusting the algebra.
Each oracle returns a dimensionless gap that holds at any alpha and finite
nu wherever the metric is a normal double (gamma ~5.3e-155 to ~4.7e153).
It needs only the standard library: the quadrature is a loop over 16 or 32
nodes, and the Jacobians are 2x2, their products written out.  Only
``christoffel`` returns an array, and loads numpy when called, so the CLI's
``geometry`` command runs without numpy; the CLI loads this module only
for that command, when it validates the flags.  Of ``halfplane`` it reads
the points and ``check_alpha``.  Of the scalar core (``_core``) it reads
the conformal factor's formula and the step ``_scaled_step``, which the
map oracles step at alpha = 1 only: the one step that ``parameter_step``
and ``iterate-params`` read too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ._core import _conformal_factor, _scaled_step, _step
from .errors import QuadratureError, SingularInputError
from .halfplane import CanonicalPoint, HPoint, check_alpha, from_canonical

if TYPE_CHECKING:
    import numpy as np

Vec = tuple[float, float]


@dataclass(frozen=True)
class Metric2:
    """Symmetric 2x2 metric components (nu-nu, nu-gamma, gamma-gamma)."""

    g_nn: float
    g_ng: float
    g_gg: float


def _checked(gamma: float, entries: tuple) -> tuple:
    # Coefficients at a real point, the first +-1/(2*gamma^2), which must be a
    # normal double: it overflows below gamma ~5.3e-155 and is subnormal, with
    # fewer digits than the oracles need, above ~4.7e153.
    if not sys.float_info.min <= abs(entries[0]) <= sys.float_info.max:
        raise SingularInputError(f"1/(2*gamma^2) is not a normal double at gamma = {gamma!r}")
    return entries


def fisher_metric(x: HPoint) -> Metric2:
    """Fisher metric of the Cauchy family: diag(1/(2*gamma^2), 1/(2*gamma^2)).

    Raises SingularInputError where the entries are not normal doubles
    (gamma outside about 5.3e-155..4.7e153).
    """
    return Metric2(*_checked(x.gamma, _metric_entries(x.nu, x.gamma)))


def _metric_entries(nu, gamma) -> tuple:
    # at a real or complex point; the first quotient of (0.5/gamma)/gamma is a
    # normal double wherever the result is
    half = 0.5 / gamma / gamma
    return half, 0.0, half


def conformal_factor(x: HPoint) -> float:
    """Pullback factor of the metric under the half-plane map.

    Equals 1 - 4*gamma^2/(1 + A)^2 with A = nu^2 + gamma^2; it lies in
    [0, 1), vanishes only at (0, 1), and does not depend on alpha.  (The
    numerator factors as (nu^2 + (gamma-1)^2) * (nu^2 + (gamma+1)^2).)
    Evaluated as 1 - t^2 with t = 2*(gamma/r)/(r + 1/r), r = hypot(nu, gamma),
    so that A never forms and the result stays in [0, 1] at any magnitude.
    """
    return _conformal_factor(x.nu, x.gamma)


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric 2-form; ``omega_ng`` is its coefficient on d_nu ^ d_gamma."""

    omega_ng: float


def _midpoint_entries(gamma: float, n: int) -> tuple[float, float, float]:
    # The (nu-nu, nu-gamma, gamma-gamma) integrals by the n-point midpoint rule
    # in t on (-pi/2, pi/2), with xi = nu + d and the offset d = gamma*tan(t).
    # Squares are formed of d/h, h = hypot(d, gamma), and the weight multiplies
    # first, so nothing overflows or underflows before the sum does.
    step = math.pi / n
    nn, ng, gg = [], [], []
    for k in range(n):
        t = (k + 0.5) * step - math.pi / 2.0
        d = gamma * math.tan(t)
        h = math.hypot(d, gamma)
        pdf = gamma / h / h / math.pi
        cos = math.cos(t)
        weight = step * pdf * (gamma / (cos * cos))
        score_nu = 2.0 * (d / h) / h
        score_gamma = ((d - gamma) / h) * ((d + gamma) / h) / gamma
        nn.append(weight * score_nu * score_nu)
        ng.append(weight * score_nu * score_gamma)
        gg.append(weight * score_gamma * score_gamma)
    return sum(nn), sum(ng), sum(gg)


def _max_abs(values) -> float:
    # The largest magnitude, nan if any value is nan, as numpy's max gives it.
    magnitudes = [abs(value) for value in values]
    return math.nan if any(map(math.isnan, magnitudes)) else max(magnitudes)


def fisher_metric_quadrature(x: HPoint) -> Metric2:
    """Fisher metric from its defining integral, by the midpoint rule.

    Integrates  E[ (d log p / d theta_a)(d log p / d theta_b) ]  for the
    Cauchy density over the arctan-substituted axis xi = nu + gamma*tan(t),
    which maps the heavy tails onto (-pi/2, pi/2).  The density and the
    score factors are the directly differentiated density, formed from the
    offset d = gamma*tan(t); the closed form 1/(2*gamma^2) never enters, so
    this is an independent oracle for it.  In t each integrand is a
    trigonometric polynomial of degree 4, which the N-point midpoint rule
    integrates exactly for N >= 3 (Trefethen & Weideman, SIAM Review 56(3),
    2014).  Returns the 32-node values; the error estimate is their largest
    gap to the 16-node values, relative to the larger diagonal entry.
    Raises QuadratureError where that exceeds 1e-9 or is not finite, as it
    is where the metric overflows (gamma below about 5e-155).
    """
    coarse, fine = (_midpoint_entries(x.gamma, n) for n in (16, 32))
    gap = _max_abs([a - b for a, b in zip(fine, coarse)])
    scale = max(fine[0], fine[2])
    if not gap <= 1e-9 * scale:  # an overflow is nan or inf here
        raise QuadratureError(
            f"metric at ({x.nu}, {x.gamma}): error estimate {gap:.2e} against {scale:.2e}"
        )
    return Metric2(*fine)


def _complex_step(f: Callable, point: Vec, scales: Vec, sizes: tuple) -> list[list[float]]:
    """Entries d f_i / d x_k * scales[k] / sizes[i] of an analytic ``f``, by complex steps.

    Returned as rows, one per f_i.  Each entry is
    Im f_i(point + i*h*scales[k]*e_k) / sizes[i] / h, with nothing
    subtracted (Squire & Trapp, SIAM Review 40(1), 1998).  The relative step
    h = 2**-20 keeps the truncation near h^2 ~ 1e-12, and leaves ten digits
    in the derivative of a value as small as the least normal double.
    """
    h = 2.0**-20
    jac = [[0.0] * len(point) for _ in sizes]
    for k, scale in enumerate(scales):
        shifted = [complex(value) for value in point]
        shifted[k] += complex(0.0, h * scale)
        for i, (value, size) in enumerate(zip(f(*shifted), sizes)):
            jac[i][k] = value.imag / size / h
    return jac


def _unit_step(x: HPoint) -> tuple[Callable, Vec]:
    # The real form at alpha = 1, scaled by s = max(|nu|, gamma), and its finite
    # image of x: alpha multiplies the step, so it cancels from rows divided by it.
    s = max(abs(x.nu), x.gamma)
    return (lambda nu, gamma: _scaled_step(1.0, nu, gamma, s)), _step(1.0, x.nu, x.gamma)


def verify_conformal_pullback(alpha: float, x: HPoint) -> float:
    """Max entrywise gap between the pulled-back metric and factor*g, relative to g.

    M = J*gamma/gamma', the complex-step Jacobian of ``_core._scaled_step``
    in the metric's units at x and at its image, pulls the metric back to
    M^T M times the metric at x.  Alpha scales J and gamma' alike, so M is
    that of the map at alpha = 1, stepped here.  Returns
    max |M^T M - conformal_factor(x)*I|, below about 2e-12 at every alpha,
    (0, 1) included, wherever the metric is a normal double.
    """
    check_alpha(alpha)
    step, (_, gamma) = _unit_step(x)
    (m00, m01), (m10, m11) = _complex_step(step, (x.nu, x.gamma), (x.gamma,) * 2, (gamma,) * 2)
    factor = conformal_factor(x)
    # the entries of the symmetric M^T M - factor*I
    return _max_abs((
        m00 * m00 + m10 * m10 - factor,
        m00 * m01 + m10 * m11,
        m01 * m01 + m11 * m11 - factor,
    ))


# Isometry generators of the half-plane metric, keyed by what their flows do:
# the components (K^nu, K^gamma).  Each is a polynomial of degree at most 2,
# whose partials complex steps give exactly.  Each is homogeneous, so at
# (nu, gamma)/s it is still an isometry generator, divided by a power of s,
# whose components do not overflow.
_KILLING: dict[str, Callable] = {
    "special_conformal": lambda nu, g: (nu * nu - g * g, 2.0 * nu * g),
    "dilation": lambda nu, g: (nu, g),
    "translation": lambda nu, g: (1.0, 0.0),
}

#: Generator names in the conventional order K1, K2, K3.
KILLING_FIELD_NAMES = tuple(_KILLING)


def _lie_terms(field: str, x: HPoint, entries: Callable, sizes: tuple):
    # K(x/s), gamma times its partials in x, and gamma * d e_i/d x_c / sizes[i]
    # for the coefficients e = entries(x): each term of gamma * L_K(.) / size
    # is a product of these, at most 4 in size, and none divides by gamma/s.
    generator = _KILLING[field]
    s = max(abs(x.nu), x.gamma)
    u, v = x.nu / s, x.gamma / s
    dk = _complex_step(generator, (u, v), (v, v), (1.0, 1.0))
    slopes = _complex_step(entries, (x.nu, x.gamma), (x.gamma, x.gamma), sizes)
    return generator(u, v), dk, slopes


def lie_derivative_metric(field: str, x: HPoint) -> Metric2:
    """gamma * (L_K g)_ab / g_nn for one generator K, scaled as in ``_KILLING``.

    Complex steps of the metric coefficients and of the generator (exact for
    its polynomial components).  All entries vanish, to about 1e-11 (1e-10
    where the metric nears the least normal double), exactly when the field
    is an isometry.
    """
    half = fisher_metric(x).g_nn
    (k0, k1), ((d00, d01), (d10, d11)), slopes = _lie_terms(
        field, x, _metric_entries, (half,) * 3
    )
    sym = (d00 + d00, d01 + d10, d11 + d11)  # the entries of dk + dk^T
    return Metric2(*(s0 * k0 + s1 * k1 + term for (s0, s1), term in zip(slopes, sym)))


def lie_derivative_two_form(field: str, x: HPoint) -> float:
    """gamma * (L_K omega)_{nu gamma} / omega_{nu gamma}, as ``lie_derivative_metric``."""
    (k0, k1), ((d00, _), (_, d11)), ((s0, s1),) = _lie_terms(
        field, x, _two_form_entries, (symplectic_form(x).omega_ng,)
    )
    return s0 * k0 + s1 * k1 + (d00 + d11)


def _two_form_entries(nu, gamma) -> tuple:
    return (-_metric_entries(nu, gamma)[0],)


def symplectic_form(x: HPoint) -> TwoForm:
    """The induced two-form -1/(2*gamma^2) d_nu ^ d_gamma.

    Raises SingularInputError where the coefficient is not a normal double.
    """
    return TwoForm(*_checked(x.gamma, _two_form_entries(x.nu, x.gamma)))


def apply_complex_structure(v: Vec) -> Vec:
    """The constant rotation J: (v_nu, v_gamma) -> (v_gamma, -v_nu); J o J = -Id."""
    return (v[1], -v[0])


def metric_inner(g: Metric2, u: Vec, v: Vec) -> float:
    """g(u, v) for tangent components at the metric's base point."""
    return (
        g.g_nn * u[0] * v[0]
        + g.g_ng * (u[0] * v[1] + u[1] * v[0])
        + g.g_gg * u[1] * v[1]
    )


def two_form_value(w: TwoForm, u: Vec, v: Vec) -> float:
    """omega(u, v) = omega_ng * (u_nu * v_gamma - u_gamma * v_nu)."""
    return w.omega_ng * (u[0] * v[1] - u[1] * v[0])


def canonical_form_coefficient(x: HPoint) -> float:
    """The two-form evaluated on the ordered canonical frame (d/dq, d/dp).

    Pushing d/dq and d/dp through (q, p) = (nu, 1/(2*gamma)) gives the
    tangent pair (1, 0) and (0, -2*gamma^2); the value is identically +1,
    i.e. omega = dq ^ dp in canonical coordinates.  (With the positive
    momentum p = +1/(2*gamma) the opposite ordering dp ^ dq carries -1.)
    """
    basis_q = (1.0, 0.0)
    basis_p = (0.0, -2.0 * x.gamma * x.gamma)
    return two_form_value(symplectic_form(x), basis_q, basis_p)


def symplectic_defect(alpha: float, c: CanonicalPoint) -> float:
    """|det(d canonical_step) - 1|, by complex steps.

    Steps relative to gamma = 1/(2p) in q and to p in p, rows divided by
    gamma' and p': a rescaling of determinant 1 that leaves entries of at
    most 1.  Alpha scales q' by alpha and p' by 1/alpha, so the rows are
    those of the map at alpha = 1, stepped here.  The map is not
    symplectic: the determinant is the conformal factor at the half-plane
    point, < 1 everywhere on H.
    """
    check_alpha(alpha)
    x = from_canonical(c)
    step, (_, gamma) = _unit_step(x)

    def f(q, p):
        nu, g = step(q, 0.5 / p)
        return nu, 0.5 / g

    (m00, m01), (m10, m11) = _complex_step(f, (c.q, c.p), (x.gamma, c.p), (gamma, 0.5 / gamma))
    return abs(m00 * m11 - m01 * m10 - 1.0)


def christoffel(x: HPoint) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[a, b, c] = Gamma_ab^c.

    Closed form for the conformally flat metric g0 * (dx^2 + dy^2) with
    g0 = 1/(2*gamma^2): the only nonzero symbols are

        Gamma_ng^n = Gamma_gn^n = -1/gamma,
        Gamma_nn^g = +1/gamma,   Gamma_gg^g = -1/gamma.

    Tested against the metric-compatibility identity with complex-step
    derivatives of the metric.
    """
    import numpy as np

    inv = 1.0 / x.gamma
    out = np.zeros((2, 2, 2))
    out[0, 1, 0] = out[1, 0, 0] = -inv
    out[0, 0, 1] = inv
    out[1, 1, 1] = -inv
    return out
