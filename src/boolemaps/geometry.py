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
finite differences for pullbacks, Lie derivatives, and Jacobian
determinants) so the claims can be checked without trusting the algebra.
Like the rest of the package, it needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .halfplane import (
    CanonicalPoint,
    HPoint,
    TangentVector,
    canonical_step,
    jacobian_analytic,
    parameter_step,
)
from .orbit import check_alpha

Vec = tuple[float, float]

#: Step of every central-difference oracle in this module.
FD_STEP = 1e-6


@dataclass(frozen=True)
class Metric2:
    """Symmetric 2x2 metric components (nu-nu, nu-gamma, gamma-gamma)."""

    g_nn: float
    g_ng: float
    g_gg: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.g_nn, self.g_ng], [self.g_ng, self.g_gg]])


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric 2-form; ``omega_ng`` is its coefficient on d_nu ^ d_gamma."""

    omega_ng: float


def fisher_metric(x: HPoint) -> Metric2:
    """Fisher metric of the Cauchy family: diag(1/(2*gamma^2), 1/(2*gamma^2))."""
    half = 1.0 / (2.0 * x.gamma * x.gamma)
    return Metric2(half, 0.0, half)


def _midpoint_entries(gamma: float, n: int) -> np.ndarray:
    # The (nu-nu, nu-gamma, gamma-gamma) integrals by the n-point midpoint rule
    # in t on (-pi/2, pi/2), with xi = nu + d and the offset d = gamma*tan(t).
    # Squares are formed of d/h, h = hypot(d, gamma), and the weight multiplies
    # first, so nothing overflows or underflows before the sum does.
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        coarse, fine = (_midpoint_entries(x.gamma, n) for n in (16, 32))
        gap = float(np.max(np.abs(fine - coarse)))
    scale = float(max(fine[0], fine[2]))
    if not gap <= 1e-9 * scale:
        raise QuadratureError(
            f"metric at ({x.nu}, {x.gamma}): error estimate {gap:.2e} against {scale:.2e}"
        )
    return Metric2(float(fine[0]), float(fine[1]), float(fine[2]))


def conformal_factor(x: HPoint) -> float:
    """Pullback factor of the metric under the half-plane map.

    Equals 1 - 4*gamma^2/(1 + A)^2 with A = nu^2 + gamma^2; it lies in
    [0, 1), vanishes only at (0, 1), and does not depend on alpha.  (The
    numerator factors as (nu^2 + (gamma-1)^2) * (nu^2 + (gamma+1)^2).)
    Evaluated as 1 - t^2 with t = 2*(gamma/r)/(r + 1/r), r = hypot(nu, gamma),
    so that A never forms and the result stays in [0, 1] at any magnitude.
    """
    r = math.hypot(x.nu, x.gamma)
    t = 2.0 * (x.gamma / r) / (r + 1.0 / r)
    return 1.0 - t * t


def finite_difference_jacobian(
    f: Callable[[float, float], tuple[float, float]],
    a: float,
    b: float,
) -> np.ndarray:
    """Central-difference Jacobian of a plane map at (a, b), step ``FD_STEP``."""
    h = FD_STEP
    jac = np.empty((2, 2))
    for col, (da, db) in enumerate(((h, 0.0), (0.0, h))):
        fp = f(a + da, b + db)
        fm = f(a - da, b - db)
        jac[0, col] = (fp[0] - fm[0]) / (2.0 * h)
        jac[1, col] = (fp[1] - fm[1]) / (2.0 * h)
    return jac


def _step_xy(alpha: float) -> Callable[[float, float], tuple[float, float]]:
    def f(nu: float, gamma: float) -> tuple[float, float]:
        out = parameter_step(alpha, HPoint(nu, gamma))
        return out.nu, out.gamma

    return f


def verify_conformal_pullback(alpha: float, x: HPoint) -> float:
    """Max entrywise gap between the finite-difference metric pullback and factor*g.

    Differentiates the half-plane map numerically, pulls the metric back
    through that Jacobian, and compares against conformal_factor(x) times
    the metric at x.  Expected below ~1e-6 for the step ``FD_STEP`` away from
    the degenerate point (0, 1).
    """
    alpha = check_alpha(alpha)
    jac = finite_difference_jacobian(_step_xy(alpha), x.nu, x.gamma)
    target = parameter_step(alpha, x)
    pulled = jac.T @ fisher_metric(target).as_array() @ jac
    expected = conformal_factor(x) * fisher_metric(x).as_array()
    return float(np.max(np.abs(pulled - expected)))


def conformal_factor_from_jacobian(alpha: float, x: HPoint) -> float:
    """The pullback factor recovered from the closed-form Jacobian.

    Uses pulled-back g_nn divided by g_nn; alpha cancels algebraically, so
    comparing this across alpha values checks the factor's alpha-independence
    at full floating-point precision (no finite-difference noise).
    """
    jac = jacobian_analytic(alpha, x)
    target = parameter_step(alpha, x)
    pulled = jac.T @ fisher_metric(target).as_array() @ jac
    return float(pulled[0, 0] * 2.0 * x.gamma * x.gamma)


# Isometry generators of the half-plane metric, keyed by what their flows do.
# Components (K^nu, K^gamma) and their exact partials d K^a / d(nu, gamma).
_KILLING: dict[str, tuple[Callable, Callable]] = {
    "special_conformal": (
        lambda nu, g: (nu * nu - g * g, 2.0 * nu * g),
        lambda nu, g: np.array([[2.0 * nu, -2.0 * g], [2.0 * g, 2.0 * nu]]),
    ),
    "dilation": (
        lambda nu, g: (nu, g),
        lambda nu, g: np.eye(2),
    ),
    "translation": (
        lambda nu, g: (1.0, 0.0),
        lambda nu, g: np.zeros((2, 2)),
    ),
}

#: Generator names in the conventional order K1, K2, K3.
KILLING_FIELD_NAMES = ("special_conformal", "dilation", "translation")


def killing_fields(x: HPoint) -> tuple[TangentVector, TangentVector, TangentVector]:
    """The three isometry generators evaluated at x, in K1, K2, K3 order."""
    out = []
    for name in KILLING_FIELD_NAMES:
        comp, _ = _KILLING[name]
        k_nu, k_gamma = comp(x.nu, x.gamma)
        out.append(TangentVector(x, k_nu, k_gamma))
    return tuple(out)


def _metric_partials_fd(x: HPoint) -> np.ndarray:
    # partials[c][a][b] = d g_ab / d coordinate c, by central differences
    h = FD_STEP
    out = np.empty((2, 2, 2))
    for c, (dn, dg) in enumerate(((h, 0.0), (0.0, h))):
        gp = fisher_metric(HPoint(x.nu + dn, x.gamma + dg)).as_array()
        gm = fisher_metric(HPoint(x.nu - dn, x.gamma - dg)).as_array()
        out[c] = (gp - gm) / (2.0 * h)
    return out


def lie_derivative_metric(field: str, x: HPoint) -> Metric2:
    """(L_K g)_ab for one generator, mixing exact dK with finite-difference dg.

    The generator components are polynomials, so their derivatives are exact;
    only the metric derivative is numerical.  All entries vanish (to the
    difference scheme's accuracy) exactly when the field is an isometry.
    """
    comp, dcomp = _KILLING[field]
    k = np.array(comp(x.nu, x.gamma))
    dk = dcomp(x.nu, x.gamma)  # dk[a, c] = d K^a / d coord c
    dg = _metric_partials_fd(x)
    g = fisher_metric(x).as_array()
    lie = np.einsum("c,cab->ab", k, dg) + dk.T @ g + g @ dk
    return Metric2(float(lie[0, 0]), float(lie[0, 1]), float(lie[1, 1]))


def lie_derivative_two_form(field: str, x: HPoint) -> float:
    """(L_K omega)_{nu gamma}, finite differences on omega, exact dK."""
    h = FD_STEP
    comp, dcomp = _KILLING[field]
    k = comp(x.nu, x.gamma)
    dk = dcomp(x.nu, x.gamma)
    d_omega_dn = (
        symplectic_form(HPoint(x.nu + h, x.gamma)).omega_ng
        - symplectic_form(HPoint(x.nu - h, x.gamma)).omega_ng
    ) / (2.0 * h)
    d_omega_dg = (
        symplectic_form(HPoint(x.nu, x.gamma + h)).omega_ng
        - symplectic_form(HPoint(x.nu, x.gamma - h)).omega_ng
    ) / (2.0 * h)
    advect = k[0] * d_omega_dn + k[1] * d_omega_dg
    return float(advect + symplectic_form(x).omega_ng * (dk[0, 0] + dk[1, 1]))


def symplectic_form(x: HPoint) -> TwoForm:
    """The induced two-form -1/(2*gamma^2) d_nu ^ d_gamma."""
    return TwoForm(-1.0 / (2.0 * x.gamma * x.gamma))


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


def j_squared_deviation(v: Vec) -> float:
    """Max |J(J(v)) + v| component; structurally zero (integer coefficients)."""
    twice = apply_complex_structure(apply_complex_structure(v))
    return max(abs(twice[0] + v[0]), abs(twice[1] + v[1]))


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
    """|det(d canonical_step) - 1| by finite differences.

    The half-plane map is not symplectic: the determinant equals the
    conformal factor at the corresponding half-plane point, which is < 1
    everywhere on H.
    """
    alpha = check_alpha(alpha)

    def f(q: float, p: float) -> tuple[float, float]:
        out = canonical_step(alpha, CanonicalPoint(q, p))
        return out.q, out.p

    jac = finite_difference_jacobian(f, c.q, c.p)
    return abs(float(np.linalg.det(jac)) - 1.0)


def christoffel(x: HPoint) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[a, b, c] = Gamma_ab^c.

    Closed form for the conformally flat metric g0 * (dx^2 + dy^2) with
    g0 = 1/(2*gamma^2): the only nonzero symbols are

        Gamma_ng^n = Gamma_gn^n = -1/gamma,
        Gamma_nn^g = +1/gamma,   Gamma_gg^g = -1/gamma.

    Tested against the metric-compatibility identity with finite differences.
    """
    inv = 1.0 / x.gamma
    out = np.zeros((2, 2, 2))
    out[0, 1, 0] = out[1, 0, 0] = -inv
    out[0, 0, 1] = inv
    out[1, 1, 1] = -inv
    return out
