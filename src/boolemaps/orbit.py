"""Pointwise dynamics of the generalized Boole transform family.

The family is the one-parameter group of maps

    xi -> alpha * (xi - 1/xi),        0 < alpha < 1,

acting on the real line minus the pole at 0.  Each member is chaotic with an
invariant Cauchy law of location 0 and scale sqrt(alpha/(1-alpha)).  This
module provides the map itself, its two-branch preimages, guarded orbit
iteration, and the Cauchy pdf/cdf/quantile trio that the density-level
verifiers build on.  A Cauchy law is its parameter point ``HPoint`` of the
upper half-plane, on which ``halfplane`` applies the same map to
nu - i*gamma; on the axis nu = 0 that step is the scale map
gamma -> alpha * (gamma + 1/gamma).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInputError

#: Inputs closer to the pole at 0 than this are treated as singular.
POLE_EPS = 1e-300


def check_alpha(alpha: float) -> float:
    """Validate the map parameter; must lie strictly inside (0, 1)."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 < alpha < 1.0:
        raise ValueError(f"map parameter must satisfy 0 < alpha < 1, got {alpha!r}")
    return alpha


def _boole(alpha: float, x):
    # The map itself, unguarded: floats, complex numbers and ndarrays alike.
    return alpha * (x - 1.0 / x)


def boole_transform(alpha: float, xi: float) -> float:
    """Apply xi -> alpha*(xi - 1/xi).

    Raises SingularInputError when ``|xi| < POLE_EPS`` (the pole guard); exact
    pre-poles are measure zero, so no attempt is made to enumerate them.
    """
    alpha = check_alpha(alpha)
    if not math.isfinite(xi) or abs(xi) < POLE_EPS:
        raise SingularInputError(f"point {xi!r} is inside the pole guard |xi| < {POLE_EPS}")
    return _boole(alpha, xi)


def _preimages(alpha: float, y) -> tuple[np.ndarray, np.ndarray]:
    # Both solutions of alpha*(xi - 1/xi) = y, elementwise, ordered low/high.
    # Cancellation-free: the root of larger magnitude (never below 1) comes
    # from the discriminant with the sign of y, the other from the exact
    # product xi_minus * xi_plus = -1.  The naive formula loses all
    # significant digits for |y| >> alpha; hypot keeps y^2 from overflowing,
    # and halving before the sum keeps |y| + disc from overflowing near DBL_MAX.
    # Above about alpha*DBL_MAX the larger root is +-inf, the other +-0.
    y = np.asarray(y, dtype=float)
    disc = np.hypot(y, 2.0 * alpha)
    with np.errstate(over="ignore"):
        big = (0.5 * np.abs(y) + 0.5 * disc) / alpha
    big = np.where(y >= 0.0, big, -big)
    other = -1.0 / big
    return np.minimum(big, other), np.maximum(big, other)


def preimages(alpha: float, xi_prime: float) -> tuple[float, float]:
    """Both solutions of alpha*(xi - 1/xi) = xi_prime, ordered low/high.

    Raises SingularInputError where a root is not a finite double, as for
    |xi_prime| above about alpha*DBL_MAX.
    """
    alpha = check_alpha(alpha)
    lo, hi = _preimages(alpha, xi_prime)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise SingularInputError(f"a preimage of {xi_prime!r} is not a finite double")
    return float(lo), float(hi)


@dataclass(frozen=True)
class OrbitResult:
    """Orbit of the map, possibly cut short by the pole guard.

    ``points`` holds the iterates actually produced, starting with the seed;
    when ``truncated`` is true the final stored point landed inside the pole
    guard and ``last_index`` is its position.
    """

    points: np.ndarray
    truncated: bool
    last_index: int


def _iterates(alpha: float, x: float, n: int):
    # The seed and its n images, with the map inlined.  An exact 0 ends the
    # orbit with the ZeroDivisionError of its image, which a float raises
    # and a numpy scalar does not; any other point inside the guard is
    # stepped on, and cut off by the caller.
    yield x
    try:
        for _ in itertools.repeat(None, n):
            x = alpha * (x - 1.0 / x)
            yield x
    except ZeroDivisionError:
        return


def iterate_orbit(alpha: float, xi0: float, n: int) -> OrbitResult:
    """Iterate the map ``n`` times from ``xi0``.

    Returns n+1 points on a clean run.  If an iterate before the last lands
    within ``POLE_EPS`` of the pole, the orbit is truncated at the first
    such point and flagged rather than raising, so callers can see how far
    it got.
    """
    alpha = check_alpha(alpha)
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    if not math.isfinite(xi0) or abs(xi0) < POLE_EPS:
        raise SingularInputError(f"seed {xi0!r} is inside the pole guard")
    points = np.fromiter(_iterates(alpha, float(xi0), n), dtype=float)
    # The last point is never stepped from, so it is not guarded.
    inside = np.abs(points[:n]) < POLE_EPS
    if inside.any():
        last = int(inside.argmax())
        return OrbitResult(points[:last + 1].copy(), truncated=True, last_index=last)
    return OrbitResult(points, truncated=False, last_index=n)


@dataclass(frozen=True)
class HPoint:
    """A Cauchy law C(nu, gamma), and the point (nu, gamma) of the upper half-plane H.

    Both fields are finite and gamma > 0.  A point mass (gamma = 0) is not a
    point of H; it is stepped with the pointwise map ``boole_transform``, the
    gamma -> 0 limit of ``halfplane.parameter_step``.
    """

    nu: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.nu) and math.isfinite(self.gamma)):
            raise ValueError("half-plane coordinates must be finite")
        if self.gamma <= 0.0:
            raise ValueError(f"half-plane points need gamma > 0, got {self.gamma!r}")


#: The earlier name of ``HPoint``, which the benchmark in ``perfbench/`` still uses.
CauchyParams = HPoint


def cauchy_pdf(p: HPoint, xi):
    """Density gamma / (pi * ((xi - nu)^2 + gamma^2)); accepts arrays.

    Evaluated as (gamma/h)/h/pi with h = hypot(xi - nu, gamma), so no square
    overflows or underflows.
    """
    h = np.hypot(np.asarray(xi, dtype=float) - p.nu, p.gamma)
    out = p.gamma / h / h / np.pi
    return float(out) if np.isscalar(xi) else out


def cauchy_cdf(p: HPoint, xi):
    """Cumulative probability 1/2 + arctan((xi - nu)/gamma)/pi; accepts arrays."""
    z = (np.asarray(xi, dtype=float) - p.nu) / p.gamma
    out = 0.5 + np.arctan(z) / np.pi
    return float(out) if np.isscalar(xi) else out


def cauchy_quantile(p: HPoint, u):
    """Inverse CDF nu + gamma*tan(pi*(u - 1/2)) for u strictly inside (0, 1)."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    out = p.nu + p.gamma * np.tan(np.pi * (u_arr - 0.5))
    return float(out) if np.isscalar(u) else out

