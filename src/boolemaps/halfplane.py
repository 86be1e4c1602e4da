"""Exact dynamics on the Cauchy-parameter upper half-plane.

Evolving a Cauchy density through the generalized Boole transform closes on
the two Cauchy parameters: with A = nu^2 + gamma^2,

    nu'    = alpha * nu    * (A - 1) / A
    gamma' = alpha * gamma * (A + 1) / A.

This module implements that map on H = {(nu, gamma): gamma > 0}, its unique
fixed point (0, sqrt(alpha/(1-alpha))), linearization and stability, the
reflection symmetry, the complex-variable forms that identify the half-plane
dynamics with the pointwise map, canonical coordinates (q, p) = (nu, 1/(2*gamma)),
and the transient convergence-rate diagnostics of the scale map.

``parameter_step`` is the production route.  ``complex_s_step``,
``complex_check_step`` and ``orbital_from_parameter`` are independent routes
to the same numbers, kept for cross-checking; ``canonical_step`` is
``parameter_step`` conjugated by the coordinate change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInputError
from .orbit import _boole, boole_transform, check_alpha, g_transform, invariant_scale


@dataclass(frozen=True)
class HPoint:
    """Point of the closed upper half-plane.

    Interior points require gamma > 0.  The boundary gamma = 0 (point-mass
    densities) is representable only by passing ``boundary=True``; the
    half-plane map degenerates there to the pointwise map acting on nu.
    """

    nu: float
    gamma: float
    boundary: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.nu) and math.isfinite(self.gamma)):
            raise ValueError("half-plane coordinates must be finite")
        if self.boundary:
            if self.gamma != 0.0:
                raise ValueError("boundary points must have gamma = 0")
        elif self.gamma <= 0.0:
            raise ValueError(f"interior points need gamma > 0, got {self.gamma!r}")


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector (d_nu, d_gamma) attached to an interior base point."""

    base: HPoint
    d_nu: float
    d_gamma: float


@dataclass(frozen=True)
class CanonicalPoint:
    """Canonical coordinates q = nu, p = 1/(2*gamma); p > 0 on the interior."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)) or self.p <= 0.0:
            raise ValueError(f"canonical momentum must be positive, got {self.p!r}")


def _plane_map(alpha: float, a: float, b: float) -> tuple[float, float]:
    # Shared rational core: (a, b) -> alpha * (a*(A-1)/A, b*(A+1)/A), A = a^2+b^2.
    # Written as 1 -+ 1/A so that overflow of A (|point| ~ 1e155 and beyond)
    # degrades to the exact far-field limit alpha*(a, b) instead of NaN.
    big_a = a * a + b * b
    if big_a == 0.0:
        raise SingularInputError("point (0, 0) is a singularity of the plane map")
    shrink = 1.0 / big_a
    return alpha * a * (1.0 - shrink), alpha * b * (1.0 + shrink)


def parameter_step(alpha: float, x: HPoint) -> HPoint:
    """One step of the half-plane map; preserves the interior (gamma' > 0).

    Boundary points evolve by the pointwise map on nu, matching the
    point-mass limit of the Cauchy family.
    """
    alpha = check_alpha(alpha)
    if x.boundary:
        return HPoint(boole_transform(alpha, x.nu), 0.0, boundary=True)
    nu, gamma = _plane_map(alpha, x.nu, x.gamma)
    return HPoint(nu, gamma)


def fixed_point(alpha: float) -> HPoint:
    """The unique fixed point (0, sqrt(alpha/(1-alpha))) of the half-plane map."""
    return HPoint(0.0, invariant_scale(alpha))


def jacobian_analytic(alpha: float, x: HPoint) -> np.ndarray:
    """Closed-form Jacobian of the half-plane map at an interior point.

    Rows are (nu', gamma'), columns (nu, gamma).  The map satisfies the
    Cauchy-Riemann pattern [[a, b], [-b, a]] with

        a = alpha * (1 + (nu^2 - gamma^2)/A^2),    b = 2*alpha*nu*gamma/A^2,

    verified against central finite differences in the test suite.  At the
    fixed point it reduces to diag(2*alpha - 1, 2*alpha - 1).
    """
    alpha = check_alpha(alpha)
    if x.boundary:
        raise ValueError("Jacobian is defined on the interior only")
    big_a = x.nu * x.nu + x.gamma * x.gamma
    a = alpha * (1.0 + (x.nu * x.nu - x.gamma * x.gamma) / (big_a * big_a))
    b = 2.0 * alpha * x.nu * x.gamma / (big_a * big_a)
    return np.array([[a, b], [-b, a]])


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalues of the linearization at the fixed point.

    Both eigenvalues equal 2*alpha - 1, so the fixed point is linearly
    stable throughout 0 < alpha < 1; at alpha = 1/2 the linearization
    vanishes and convergence is quadratic instead of geometric.
    """

    eigenvalues: tuple[float, float]
    quadratic_convergence: bool


def stability_eigenvalues(alpha: float) -> StabilityReport:
    alpha = check_alpha(alpha)
    lam = 2.0 * alpha - 1.0
    return StabilityReport((lam, lam), quadratic_convergence=(alpha == 0.5))


def reflect(x: HPoint) -> HPoint:
    """Mirror (nu, gamma) -> (-nu, gamma); an involution commuting with the map."""
    return HPoint(-x.nu, x.gamma, boundary=x.boundary)


def complex_s_step(alpha: float, x: HPoint) -> tuple[complex, complex]:
    """Evolve s = nu - i*gamma and its conjugate by the pointwise map.

    Both components move by z -> alpha*(z - 1/z) in complex arithmetic;
    the images encode (nu', gamma') as s' = nu' - i*gamma', w' = nu' + i*gamma'.
    """
    alpha = check_alpha(alpha)
    return _boole(alpha, complex(x.nu, -x.gamma)), _boole(alpha, complex(x.nu, x.gamma))


def complex_check_step(alpha: float, x: HPoint) -> tuple[complex, complex]:
    """Evolve the rotated variables (gamma + i*nu, -gamma + i*nu).

    Both move by z -> alpha*(z + 1/z), the complex extension of the scale
    map; the first image encodes gamma' + i*nu'.
    """
    alpha = check_alpha(alpha)
    s_rot = complex(x.gamma, x.nu)
    w_rot = complex(-x.gamma, x.nu)
    return alpha * (s_rot + 1.0 / s_rot), alpha * (w_rot + 1.0 / w_rot)


def orbital_from_parameter(alpha: float, xi1: float, xi2: float) -> tuple[float, float]:
    """Real/imaginary parts of the pointwise map applied to xi1 + i*xi2.

    Computed through the same rational algebra as the half-plane map, which
    is exactly the decomposition of alpha*(z - 1/z) into components.
    """
    alpha = check_alpha(alpha)
    return _plane_map(alpha, xi1, xi2)


def picture_agreement(alpha: float, x: HPoint) -> float:
    """Max absolute disagreement between the three routes to (nu', gamma').

    Compares the real-arithmetic half-plane step against the two
    complex-variable forms (the pointwise map on s = nu - i*gamma and the
    scale map on the rotated variable); all three are algebraically equal.
    """
    stepped = parameter_step(alpha, x)
    s_new, _ = complex_s_step(alpha, x)
    rot_new, _ = complex_check_step(alpha, x)
    candidates = [(s_new.real, -s_new.imag), (rot_new.imag, rot_new.real)]
    return max(
        max(abs(n - stepped.nu), abs(g - stepped.gamma)) for n, g in candidates
    )


def to_canonical(x: HPoint) -> CanonicalPoint:
    """(nu, gamma) -> (q, p) = (nu, 1/(2*gamma)); interior points only."""
    if x.boundary:
        raise ValueError("canonical coordinates are undefined on the boundary")
    return CanonicalPoint(x.nu, 1.0 / (2.0 * x.gamma))


def from_canonical(c: CanonicalPoint) -> HPoint:
    """(q, p) -> (nu, gamma) = (q, 1/(2*p)); inverse of ``to_canonical``."""
    return HPoint(c.q, 1.0 / (2.0 * c.p))


def canonical_step(alpha: float, c: CanonicalPoint) -> CanonicalPoint:
    """The half-plane map in canonical coordinates.

    Computed by conjugating ``parameter_step`` with the coordinate change; in
    closed form, with B = (1/(2p))^2 + q^2,  q' = alpha*q*(B-1)/B and
    p' = (p/alpha)*B/(B+1).
    """
    return to_canonical(parameter_step(alpha, from_canonical(c)))


def iterate_parameter_map(alpha: float, x: HPoint, steps: int) -> list[HPoint]:
    """Trajectory [x, F(x), ..., F^steps(x)] of the half-plane map."""
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    traj = [x]
    for _ in range(steps):
        x = parameter_step(alpha, x)
        traj.append(x)
    return traj


@dataclass(frozen=True)
class FixedPointRun:
    """Outcome of iterating the half-plane map toward its fixed point."""

    point: HPoint
    steps: int
    converged: bool


def converge_to_fixed_point(
    alpha: float, x: HPoint, tol: float = 1e-8, max_steps: int = 5000
) -> FixedPointRun:
    """Iterate until within Euclidean ``tol`` of the fixed point.

    The contraction rate |2*alpha - 1| degrades toward the ends of (0, 1),
    hence the generous default step budget; alpha in [0.1, 0.9] converges
    from ordinary seeds in well under 500 steps.
    """
    target = fixed_point(alpha)
    for n in range(max_steps + 1):
        if math.hypot(x.nu - target.nu, x.gamma - target.gamma) < tol:
            return FixedPointRun(x, n, True)
        x = parameter_step(alpha, x)
    return FixedPointRun(x, max_steps, False)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step contraction ratios of the scale map toward its fixed point.

    ``ratios[n]`` is |gamma_{n+1} - gbar| / |gamma_n - gbar| (NaN once the
    deviation underflows to the noise floor).  ``bound`` is the claimed
    transient rate max(alpha, 1 - alpha); ``bound_holds_from_2`` records
    whether every finite ratio with n >= 2 obeys it, with the first
    violating n in ``first_violation`` otherwise.
    """

    alpha: float
    gamma0: float
    gammas: np.ndarray
    deviations: np.ndarray
    ratios: np.ndarray
    bound: float
    bound_holds_from_2: bool
    first_violation: int | None = None


def convergence_bound_check(alpha: float, gamma0: float, n_max: int) -> ConvergenceReport:
    """Iterate the scale map and test the claimed n >= 2 contraction bound.

    The bound is alpha for alpha >= 1/2 and (1 - alpha) for alpha <= 1/2.
    It can fail transiently for small alpha when an iterate dips below
    sqrt(alpha*(1-alpha)); the report states what actually happened.
    """
    alpha = check_alpha(alpha)
    if gamma0 <= 0.0:
        raise SingularInputError("scale iteration needs gamma0 > 0")
    if n_max < 3:
        raise ValueError("need n_max >= 3 to test the n >= 2 range")
    gbar = invariant_scale(alpha)
    gammas = np.empty(n_max + 1)
    gammas[0] = g = gamma0
    for i in range(1, n_max + 1):
        g = g_transform(alpha, g)
        gammas[i] = g
    dev = np.abs(gammas - gbar)
    floor = 1e-15 * max(1.0, gbar)
    ratios = np.full(n_max, np.nan)
    valid = dev[:-1] > floor
    ratios[valid] = dev[1:][valid] / dev[:-1][valid]
    bound = alpha if alpha >= 0.5 else 1.0 - alpha
    first_violation = None
    for n in range(2, n_max):
        if np.isfinite(ratios[n]) and ratios[n] > bound * (1.0 + 1e-12):
            first_violation = n
            break
    return ConvergenceReport(
        alpha=alpha,
        gamma0=gamma0,
        gammas=gammas,
        deviations=dev,
        ratios=ratios,
        bound=bound,
        bound_holds_from_2=first_violation is None,
        first_violation=first_violation,
    )


def asymptotic_check(alpha: float, x: HPoint) -> tuple[float, float]:
    """Relative errors of the far-field linear approximation (nu, gamma) -> alpha*(nu, gamma).

    Returns (|nu' - alpha*nu| / |alpha*nu|, |gamma' - alpha*gamma| / (alpha*gamma));
    both equal 1/(nu^2 + gamma^2) exactly, so the approximation is good
    precisely when the point is far from the unit circle's interior.  The nu
    error is reported as 0 for nu = 0 (the axis is invariant).  Both ratios
    are evaluated with alpha divided out of the stepped point, so a product
    alpha*nu or alpha*gamma that underflows to 0 cannot divide by zero.
    """
    alpha = check_alpha(alpha)
    if x.boundary:
        raise ValueError("asymptotic comparison is defined on the interior")
    stepped = parameter_step(alpha, x)
    err_gamma = abs(stepped.gamma / alpha - x.gamma) / x.gamma
    if x.nu == 0.0:
        return 0.0, err_gamma
    err_nu = abs(stepped.nu / alpha - x.nu) / abs(x.nu)
    return err_nu, err_gamma
