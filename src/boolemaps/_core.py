"""The scalar core: the map and the formulas the CLI's light commands need, on floats.

This module imports only the standard library and ``errors``: neither
numpy nor ``dataclasses``, so that ``import boolemaps.cli``,
``iterate-params``, a short ``orbit`` and bad input load nothing more.  It
holds the map ``_boole`` (floats, complex numbers and ndarrays alike), the
orbit generator ``_iterates`` (which ``orbit`` turns into an array), the
limits the CLI checks its flags against, ``check_alpha``, ``_cpu_count``
(the CPUs over which the Monte Carlo oracle spreads its work), and three
float-level formulas: the half-plane step on (nu, gamma), the fixed
point's scale and the conformal factor.
``halfplane`` re-binds these objects and wraps the formulas in
``parameter_step``, ``fixed_point`` and ``geometry.conformal_factor``, its
points the frozen dataclass ``HPoint``; so each number has one route: the
step's is ``_scaled_step``, which ``geometry``'s oracles complex-step too.
"""

from __future__ import annotations

import itertools
import math
import os

from .errors import SingularInputError

#: Inputs closer to the pole at 0 than this are treated as singular.
POLE_EPS = 1e-300

# Limits of the density oracles, kept here so that the CLI checks its flags,
# and chooses its route, without loading them.
#: The transfer check's node count: ``verify-pf`` runs it at this one count,
#: and the CLI's node-collapse rule reads it too.
DEFAULT_GRID_SIZE = 4096
#: Smallest sample the Monte Carlo push-forward check accepts.
MIN_MONTE_CARLO_SIZE = 10**4
#: The largest |tan(pi*(u - 1/2))| over the doubles u in [0, 1) that
#: ``density.sample_cauchy`` draws, reached at u = 0: about 1.6e16.
MAX_SAMPLE_OFFSET = abs(math.tan(-0.5 * math.pi))
#: Orbits of fewer steps than this are not checked against the invariant law.
KS_MIN_SAMPLES = 10**5


def _cpu_count() -> int:
    # the CPUs this process may run on; one where the OS cannot say
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def check_alpha(alpha: float) -> float:
    """Validate the map parameter; must lie strictly inside (0, 1)."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 < alpha < 1.0:
        raise ValueError(f"map parameter must satisfy 0 < alpha < 1, got {alpha!r}")
    return alpha


def _boole(alpha: float, x):
    # The map itself, unguarded: floats, complex numbers and ndarrays alike.
    return alpha * (x - 1.0 / x)


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


def _scaled_step(alpha: float, nu, gamma, s: float):
    # alpha*(nu*(A-1)/A, gamma*(A+1)/A), A = nu^2 + gamma^2, every term divided
    # by s: A/s^2 lies in [1, 2] at s = max(|nu|, gamma), so A never forms.
    # Rational in (nu, gamma), so geometry's complex steps may pass through it.
    u, v = nu / s, gamma / s
    q = u * u + v * v
    return alpha * (nu - u / q / s), alpha * (gamma + v / q / s)


def _step(alpha: float, nu: float, gamma: float) -> tuple[float, float]:
    # ``parameter_step`` on the coordinates of a point of H, for a checked
    # alpha, and the SingularInputError, naming the point as its HPoint
    # spells it, where the image leaves H.
    nu_new, gamma_new = _scaled_step(alpha, nu, gamma, max(abs(nu), gamma))
    if not (math.isfinite(nu_new) and math.isfinite(gamma_new) and gamma_new > 0.0):
        raise SingularInputError(
            f"the image of HPoint(nu={nu!r}, gamma={gamma!r}) is not a finite point of H"
        )
    return nu_new, gamma_new


def _fixed_scale(alpha: float) -> float:
    # gamma of the fixed point (0, sqrt(alpha/(1-alpha))), for a checked alpha
    return math.sqrt(alpha / (1.0 - alpha))


def _conformal_factor(nu: float, gamma: float) -> float:
    # 1 - 4*gamma^2/(1 + A)^2, A = nu^2 + gamma^2, as 1 - t^2 with
    # t = 2*(gamma/r)/(r + 1/r), r = hypot(nu, gamma): A never forms
    r = math.hypot(nu, gamma)
    t = 2.0 * (gamma / r) / (r + 1.0 / r)
    return 1.0 - t * t


def _half_reciprocal(x: float) -> float:
    # 0.5/x rather than 1/(2*x), whose 2*x overflows above DBL_MAX/2
    out = 0.5 / x
    if not 0.0 < out < math.inf:
        raise SingularInputError(f"1/(2*{x!r}) is not a finite double")
    return out
