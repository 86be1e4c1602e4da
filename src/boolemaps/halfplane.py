"""Exact dynamics on the Cauchy-parameter upper half-plane.

Evolving a Cauchy density through the generalized Boole transform closes on
the two Cauchy parameters: with A = nu^2 + gamma^2,

    nu'    = alpha * nu    * (A - 1) / A
    gamma' = alpha * gamma * (A + 1) / A.

This is the pointwise map z -> alpha*(z - 1/z) itself, applied to the
complex point s = nu - i*gamma: s' = nu' - i*gamma'.  ``parameter_step``
evaluates it that way, through the one core in ``orbit``; CPython's complex
division is scaled (Smith's algorithm), so A never forms and the step stays
finite and accurate across the whole float range.

This module implements that map on the open half-plane
H = {(nu, gamma): gamma > 0}, the statistical manifold of Cauchy laws, whose
points are ``orbit.HPoint``: its unique fixed point (0, sqrt(alpha/(1-alpha))),
the invariant law of the pointwise map; its linearization; canonical
coordinates (q, p) = (nu, 1/(2*gamma)); and the transient convergence-rate
diagnostics of the scale map gamma -> alpha*(gamma + 1/gamma), which is the
step on the invariant axis nu = 0 (there the step is exact: 1/(-i*gamma) is
i/gamma to the last bit).  ``picture_agreement`` checks the step against
two independent routes: the real formula above (``_scaled_step``) and the
scale map on the rotated variable gamma + i*nu.  ``canonical_step`` is
``parameter_step`` conjugated by the coordinate change.  The edge gamma -> 0
(point masses) is not part of H: there the step tends to the pointwise map
on nu, which is ``orbit.boole_transform``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInputError
from .orbit import HPoint, _boole, check_alpha


@dataclass(frozen=True)
class CanonicalPoint:
    """Canonical coordinates q = nu, p = 1/(2*gamma); p > 0 on H."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)) or self.p <= 0.0:
            raise ValueError(f"canonical momentum must be positive, got {self.p!r}")


def parameter_step(alpha: float, x: HPoint) -> HPoint:
    """One step of the half-plane map; preserves H (gamma' > 0).

    Points move by the pointwise map on s = nu - i*gamma, so that
    s' = nu' - i*gamma'.  Raises SingularInputError where the image is not a
    finite point of H in floating point: gamma' overflows (|s| below about
    1/DBL_MAX) or underflows to 0.
    """
    alpha = check_alpha(alpha)
    stepped = _boole(alpha, complex(x.nu, -x.gamma))
    nu, gamma = stepped.real, -stepped.imag
    if not (math.isfinite(nu) and math.isfinite(gamma) and gamma > 0.0):
        raise SingularInputError(f"the image of {x} is not a finite point of H")
    return HPoint(nu, gamma)


def fixed_point(alpha: float) -> HPoint:
    """The unique fixed point (0, sqrt(alpha/(1-alpha))) of the half-plane map.

    It is also the invariant Cauchy law of the pointwise map.
    """
    alpha = check_alpha(alpha)
    return HPoint(0.0, math.sqrt(alpha / (1.0 - alpha)))


def jacobian_analytic(alpha: float, x: HPoint) -> np.ndarray:
    """Closed-form Jacobian of the half-plane map.

    Rows are (nu', gamma'), columns (nu, gamma).  The map is holomorphic in
    s = nu - i*gamma, so the Jacobian has the Cauchy-Riemann pattern
    [[a, b], [-b, a]] with a + i*b = alpha*(1 + 1/s^2), the derivative of the
    pointwise map; in real terms

        a = alpha * (1 + (nu^2 - gamma^2)/A^2),    b = 2*alpha*nu*gamma/A^2,

    verified against complex-step derivatives in the test suite.  At the
    fixed point it reduces to diag(2*alpha - 1, 2*alpha - 1).  Raises
    SingularInputError where an entry is not a finite double.
    """
    alpha = check_alpha(alpha)
    inv = 1.0 / complex(x.nu, -x.gamma)
    re, im = inv.real, inv.imag
    # (re - im)*(re + im) rather than re^2 - im^2, which is inf - inf = NaN
    # once both squares overflow; alpha multiplies first, so an entry
    # overflows only where its exact value does.
    a = alpha + alpha * (re - im) * (re + im)
    b = 2.0 * alpha * re * im
    if not (math.isfinite(a) and math.isfinite(b)):
        raise SingularInputError(f"the Jacobian at {x} is not finite")
    return np.array([[a, b], [-b, a]])


def _scaled_step(alpha: float, nu, gamma, s: float):
    """alpha*(nu*(A-1)/A, gamma*(A+1)/A) in real arithmetic, every term divided by s.

    A/s^2 lies in [1, 2] for s = max(|nu|, gamma).  Rational in (nu, gamma)
    for a fixed s, so the complex-step oracles of ``geometry`` may pass
    complex arguments.
    """
    u, v = nu / s, gamma / s
    q = u * u + v * v
    return alpha * (nu - u / q / s), alpha * (gamma + v / q / s)


def picture_agreement(alpha: float, x: HPoint) -> float:
    """Max absolute disagreement between three routes to (nu', gamma').

    Compares ``parameter_step`` (the pointwise map on s = nu - i*gamma)
    against the real formula of the density step, ``_scaled_step``, and
    against the scale map's complex extension z -> alpha*(z + 1/z) on the
    rotated variable gamma + i*nu, whose image is gamma' + i*nu'; all three
    are algebraically equal.
    """
    stepped = parameter_step(alpha, x)
    rot = complex(x.gamma, x.nu)
    rot_new = alpha * (rot + 1.0 / rot)
    real = _scaled_step(alpha, x.nu, x.gamma, max(abs(x.nu), x.gamma))
    candidates = (real, (rot_new.imag, rot_new.real))
    return max(max(abs(n - stepped.nu), abs(g - stepped.gamma)) for n, g in candidates)


def _half_reciprocal(x: float) -> float:
    # 0.5/x rather than 1/(2*x), whose 2*x overflows above DBL_MAX/2
    out = 0.5 / x
    if not 0.0 < out < math.inf:
        raise SingularInputError(f"1/(2*{x!r}) is not a finite double")
    return out


def to_canonical(x: HPoint) -> CanonicalPoint:
    """(nu, gamma) -> (q, p) = (nu, 1/(2*gamma)).

    Raises SingularInputError where p is not a finite double (gamma below
    about 2.8e-309).
    """
    return CanonicalPoint(x.nu, _half_reciprocal(x.gamma))


def from_canonical(c: CanonicalPoint) -> HPoint:
    """(q, p) -> (nu, gamma) = (q, 1/(2*p)); inverse of ``to_canonical``.

    Raises SingularInputError where gamma is not a finite double (p below
    about 2.8e-309).
    """
    return HPoint(c.q, _half_reciprocal(c.p))


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


def converge_to_fixed_point(alpha: float, x: HPoint) -> FixedPointRun:
    """Iterate until within Euclidean distance 1e-8 of the fixed point.

    The contraction rate |2*alpha - 1| degrades toward the ends of (0, 1),
    hence the generous budget of 5000 steps; alpha in [0.1, 0.9] converges
    from ordinary seeds in well under 500 steps.
    """
    target = fixed_point(alpha)
    for n in range(5001):
        if math.hypot(x.nu - target.nu, x.gamma - target.gamma) < 1e-8:
            return FixedPointRun(x, n, True)
        x = parameter_step(alpha, x)
    return FixedPointRun(x, n, False)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step contraction ratios of the scale map toward its fixed point.

    ``ratios[n]`` is |gamma_{n+1} - gbar| / |gamma_n - gbar| (NaN once the
    deviation underflows to the noise floor).  ``bound`` is the claimed
    transient rate max(alpha, 1 - alpha); ``bound_holds_from_2`` records
    whether every finite ratio with n >= 2 obeys it, with the first
    violating n in ``first_violation`` otherwise.
    """

    gammas: np.ndarray
    deviations: np.ndarray
    ratios: np.ndarray
    bound: float
    bound_holds_from_2: bool
    first_violation: int | None = None


def convergence_bound_check(alpha: float, gamma0: float, n_max: int) -> ConvergenceReport:
    """Iterate the scale map and test the claimed n >= 2 contraction bound.

    The scale map is ``parameter_step`` on the axis nu = 0.  The bound is
    alpha for alpha >= 1/2 and (1 - alpha) for alpha <= 1/2.  It can fail
    transiently for small alpha when an iterate dips below
    sqrt(alpha*(1-alpha)); the report states what actually happened.
    """
    alpha = check_alpha(alpha)
    if not 0.0 < gamma0 < math.inf:
        raise SingularInputError(f"scale iteration needs a finite gamma0 > 0, got {gamma0!r}")
    if n_max < 3:
        raise ValueError("need n_max >= 3 to test the n >= 2 range")
    gbar = fixed_point(alpha).gamma
    traj = iterate_parameter_map(alpha, HPoint(0.0, gamma0), n_max)
    gammas = np.array([x.gamma for x in traj])
    dev = np.abs(gammas - gbar)
    floor = 1e-15 * max(1.0, gbar)
    ratios = np.full(n_max, np.nan)
    valid = dev[:-1] > floor
    ratios[valid] = dev[1:][valid] / dev[:-1][valid]
    bound = alpha if alpha >= 0.5 else 1.0 - alpha
    late = ratios[2:]
    violations = np.flatnonzero(np.isfinite(late) & (late > bound * (1.0 + 1e-12)))
    first_violation = int(violations[0]) + 2 if violations.size else None
    return ConvergenceReport(
        gammas=gammas,
        deviations=dev,
        ratios=ratios,
        bound=bound,
        bound_holds_from_2=first_violation is None,
        first_violation=first_violation,
    )
