"""Distribution-level verification of the half-plane reduction.

The half-plane map is an exact claim about densities: pushing a Cauchy law
through the pointwise transform must land exactly on the Cauchy law with
the stepped parameters.  Nothing here relies on that claim; instead the
push-forward is recomputed by brute force in two independent ways:

* grid evolution -- the two-branch transfer sum over preimages weighted by
  1/|derivative|, evaluated on an arctan-spaced grid with analytic tail
  accounting, and
* Monte Carlo -- seeded, counter-based sampling pushed through the pointwise
  map and refitted by robust quantile (or maximum-likelihood) estimation.

Both are then compared against the closed-form prediction.  The pointwise
map and its preimages come from the one core in ``orbit``.  Sampling only
draws points; fitting is a separate, explicit ``fit_cauchy`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from warnings import warn

import numpy as np

from .errors import (
    FitConvergenceError,
    GridResolutionWarning,
    OrbitTruncationError,
    SingularInputError,
)
from .halfplane import HPoint, iterate_parameter_map, parameter_step
from .orbit import (
    POLE_EPS,
    CauchyParams,
    _boole,
    _preimages,
    cauchy_cdf,
    cauchy_pdf,
    check_alpha,
    invariant_params,
    iterate_orbit,
)

DEFAULT_GRID_SIZE = 4096
DEFAULT_TAIL_PROB = 1e-6
#: Smallest sample the Monte Carlo push-forward check accepts.
MIN_MONTE_CARLO_SIZE = 10**4


@dataclass(frozen=True)
class DensityGrid:
    """Density tabulated on arctan-spaced nodes, with explicit tail mass.

    Nodes are placed at quantiles of the reference Cauchy law ``ref`` (dense
    where the reference is, geometrically sparse in the tails), so integrals
    are evaluated by the trapezoid rule in the arctan parameter of ``ref``
    with the chain-rule Jacobian.  Trapezoid sums in raw xi would lose the
    heavy tails entirely at any practical node count.

    When the tabulated law is known in closed form it travels along in
    ``source``; transfer steps then evaluate it exactly at preimage points
    instead of interpolating.
    """

    nodes: np.ndarray
    values: np.ndarray
    tail_mass: float
    ref: CauchyParams
    source: CauchyParams | None = None

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must be matching 1-D arrays")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if self.tail_mass < 0.0:
            raise ValueError("tail mass cannot be negative")

    def theta(self) -> np.ndarray:
        """Arctan parameter of the nodes relative to the reference law."""
        return np.arctan((self.nodes - self.ref.nu) / self.ref.gamma)

    def mass(self) -> float:
        """Total mass: trapezoid over the arctan-spaced nodes plus tails."""
        d = self.nodes - self.ref.nu
        jac = self.ref.gamma + d * d / self.ref.gamma
        return float(np.trapezoid(self.values * jac, self.theta())) + self.tail_mass


def cauchy_grid(
    params: CauchyParams,
    n_nodes: int = DEFAULT_GRID_SIZE,
    tail_prob: float = DEFAULT_TAIL_PROB,
    ref: CauchyParams | None = None,
) -> DensityGrid:
    """Tabulate a Cauchy density on nodes at quantiles of ``ref`` (defaults to itself)."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 < tail_prob < 0.5:
        raise ValueError("tail probability must lie in (0, 1/2)")
    ref = params if ref is None else ref
    u = np.linspace(tail_prob, 1.0 - tail_prob, n_nodes)
    nodes = ref.nu + ref.gamma * np.tan(np.pi * (u - 0.5))
    values = cauchy_pdf(params, nodes)
    tail = cauchy_cdf(params, nodes[0]) + 1.0 - cauchy_cdf(params, nodes[-1])
    return DensityGrid(nodes, values, float(tail), ref=ref, source=params)


def transfer_values(alpha: float, density, nodes: np.ndarray) -> np.ndarray:
    """Two-branch transfer sum of ``density`` evaluated at each node.

    ``density`` is any vectorized callable; each output point collects its
    two preimages weighted by the inverse derivative magnitude.  At either
    preimage xi of y, alpha*|xi + 1/xi| = hypot(y, 2*alpha), so that weight is
    |xi| / hypot(y, 2*alpha): no square forms, and it never exceeds 1/alpha.
    """
    alpha = check_alpha(alpha)
    nodes = np.asarray(nodes, dtype=float)
    lo, hi = _preimages(alpha, nodes)
    return (density(lo) * np.abs(lo) + density(hi) * np.abs(hi)) / np.hypot(nodes, 2.0 * alpha)


def _grid_density(rho: DensityGrid):
    if rho.source is not None:
        src = rho.source
        return lambda xi: cauchy_pdf(src, xi)
    # Tabulated-only fallback: cubic interpolation in the arctan parameter,
    # zero outside the covered window.  scipy.interpolate is slow to import
    # and only this branch needs it.
    from scipy.interpolate import CubicSpline

    th = rho.theta()
    spline = CubicSpline(th, rho.values, extrapolate=False)

    def density(xi):
        t = np.arctan((np.asarray(xi, dtype=float) - rho.ref.nu) / rho.ref.gamma)
        out = spline(t)
        return np.where(np.isnan(out), 0.0, np.maximum(out, 0.0))

    return density


def _grid_cdf(rho: DensityGrid):
    if rho.source is not None:
        src = rho.source
        return lambda xi: cauchy_cdf(src, xi)
    # Empirical CDF from the grid; the recorded tail mass is split evenly
    # between the two sides (the grid does not remember the split).
    d = rho.nodes - rho.ref.nu
    jac = rho.ref.gamma + d * d / rho.ref.gamma
    th = rho.theta()
    cum = np.concatenate(
        [[0.0], np.cumsum(np.diff(th) * 0.5 * ((rho.values * jac)[1:] + (rho.values * jac)[:-1]))]
    )
    left = rho.tail_mass / 2.0

    def cdf(xi):
        return left + np.interp(
            np.asarray(xi, dtype=float), rho.nodes, cum, left=0.0, right=cum[-1]
        )

    return cdf


def pf_density_step(alpha: float, rho: DensityGrid) -> DensityGrid:
    """Evolve a density grid once through the two-branch transfer sum.

    The output keeps the input's nodes; its tail mass is the exact push-forward
    of the input mass landing outside the node window (computed from preimages
    of the window edges, using only input-side information).  Any mass drift is
    reported through a warning and the grid's own ``mass`` accounting, never
    renormalized away.
    """
    alpha = check_alpha(alpha)
    density = _grid_density(rho)
    new_values = transfer_values(alpha, density, rho.nodes)

    cdf = _grid_cdf(rho)
    pre_lo, pre_hi = _preimages(alpha, np.array([rho.nodes[0], rho.nodes[-1]]))
    minus_l, minus_r = pre_lo
    plus_l, plus_r = pre_hi
    tail = float(1.0 + cdf(plus_l) - cdf(plus_r) + cdf(minus_l) - cdf(minus_r))
    tail = max(tail, 0.0)

    out = DensityGrid(rho.nodes, new_values, tail, ref=rho.ref, source=None)
    drift = abs(1.0 - out.mass())
    if drift > 1e-3:
        warn(
            f"transfer step mass drift {drift:.2e}; grid too coarse for this density",
            GridResolutionWarning,
            stacklevel=2,
        )
    return out


def pf_closed_form_check(
    alpha: float,
    p: CauchyParams,
    n_nodes: int = DEFAULT_GRID_SIZE,
    window: float = 1e3,
) -> float:
    """Sup gap between the brute-force transfer step and the closed-form step.

    Evolves C(.; p) by the two-branch sum and compares pointwise against the
    Cauchy density with parameters advanced by the half-plane map, over grid
    nodes with |xi| < ``window``.  Exactness of the reduction means this is
    floating-point small (<< 1e-10).
    """
    grid = cauchy_grid(p, n_nodes)
    stepped = pf_density_step(alpha, grid)
    target = parameter_step(alpha, HPoint(p.nu, p.gamma))
    predicted = cauchy_pdf(CauchyParams(target.nu, target.gamma), grid.nodes)
    inside = np.abs(grid.nodes) < window
    if not inside.any():
        inside = np.ones_like(inside)
    return float(np.max(np.abs(stepped.values[inside] - predicted[inside])))


MIN_FIT_SIZE = 1000


@dataclass(frozen=True)
class SampleBatch:
    """Seeded Monte Carlo draw from a Cauchy law; fit it with ``fit_cauchy``."""

    seed: int
    size: int
    points: np.ndarray


def sample_cauchy(p: CauchyParams, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` points by inverse-CDF sampling from one counter-based stream.

    Identical (seed, n) always reproduces the points bit for bit.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    stream = np.random.SeedSequence(seed, spawn_key=(0,))
    u = np.random.Generator(np.random.Philox(stream)).random(n)
    return SampleBatch(seed=seed, size=n, points=p.nu + p.gamma * np.tan(np.pi * (u - 0.5)))


def fit_cauchy(points: np.ndarray, method: str = "median_iqr") -> CauchyParams:
    """Estimate Cauchy parameters from data.

    ``median_iqr``: location = sample median, scale = half the interquartile
    range -- exact for the Cauchy CDF, whose quartiles sit at nu +/- gamma.
    ``mle``: damped Newton on the mean log-likelihood, started from the
    quantile fit, declared converged when the gradient norm drops below
    1e-10.  Moment fitting is not offered; the Cauchy law has no moments.
    """
    points = np.asarray(points, dtype=float)
    if points.size < MIN_FIT_SIZE:
        raise ValueError(f"fitting needs at least {MIN_FIT_SIZE} points, got {points.size}")
    ordered = np.sort(points)  # fixed reduction order for quantiles
    q1, q2, q3 = np.quantile(ordered, [0.25, 0.5, 0.75])
    quartile_fit = CauchyParams(float(q2), float((q3 - q1) / 2.0))
    if method == "median_iqr":
        return quartile_fit
    if method == "mle":
        return _cauchy_mle(points, quartile_fit)
    raise ValueError(f"unknown fit method {method!r}")


def _cauchy_mle(
    points: np.ndarray,
    start: CauchyParams,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> CauchyParams:
    nu, gamma = start.nu, start.gamma

    def mean_loglik(nu_, gamma_):
        return math.log(gamma_) - float(np.mean(np.log((points - nu_) ** 2 + gamma_ * gamma_)))

    current = mean_loglik(nu, gamma)
    for _ in range(max_iter):
        d = points - nu
        q = d * d + gamma * gamma
        grad_nu = 2.0 * float(np.mean(d / q))
        grad_g = 1.0 / gamma - 2.0 * gamma * float(np.mean(1.0 / q))
        if math.hypot(grad_nu, grad_g) < tol:
            return CauchyParams(nu, gamma)
        mean_inv = float(np.mean(1.0 / q))
        mean_inv2 = float(np.mean(1.0 / (q * q)))
        mean_d_inv2 = float(np.mean(d / (q * q)))
        mean_dd = float(np.mean((d * d - gamma * gamma) / (q * q)))
        h_nn = 2.0 * mean_dd
        h_gg = -1.0 / (gamma * gamma) - 2.0 * mean_inv + 4.0 * gamma * gamma * mean_inv2
        h_ng = -4.0 * gamma * mean_d_inv2
        det = h_nn * h_gg - h_ng * h_ng
        if det == 0.0:
            break
        step_nu = (h_gg * grad_nu - h_ng * grad_g) / det
        step_g = (h_nn * grad_g - h_ng * grad_nu) / det
        scale = 1.0
        while scale > 1e-8:
            cand_nu, cand_g = nu - scale * step_nu, gamma - scale * step_g
            if cand_g > 0.0:
                cand_ll = mean_loglik(cand_nu, cand_g)
                if cand_ll >= current - 1e-15:
                    nu, gamma, current = cand_nu, cand_g, cand_ll
                    break
            scale /= 2.0
        else:
            break
    d = points - nu
    q = d * d + gamma * gamma
    grad_norm = math.hypot(
        2.0 * float(np.mean(d / q)),
        1.0 / gamma - 2.0 * gamma * float(np.mean(1.0 / q)),
    )
    if grad_norm >= tol:
        raise FitConvergenceError(
            f"likelihood fit stalled at gradient norm {grad_norm:.2e} after {max_iter} iterations"
        )
    return CauchyParams(nu, gamma)


def _push_forward(
    alpha: float, points: np.ndarray, steps: int, eps: float = POLE_EPS
) -> tuple[np.ndarray, int]:
    # Pointwise map applied to every sample; pole hits are dropped with a count
    # rather than resampled, preserving the push-forward's independence.
    dropped = 0
    x = points
    for _ in range(steps):
        keep = np.abs(x) >= eps
        dropped += int(x.size - np.count_nonzero(keep))
        x = _boole(alpha, x[keep])
    return x, dropped


def fit_stderr(gamma: float, n: int) -> float:
    """pi * gamma / (2 * sqrt(n)): asymptotic s.e. of both the median and half-IQR."""
    return math.pi * gamma / (2.0 * math.sqrt(n))


@dataclass(frozen=True)
class PfReport:
    """Monte Carlo push-forward compared against the closed-form prediction."""

    alpha: float
    input: CauchyParams
    predicted: CauchyParams
    measured: CauchyParams
    sup_error: float
    n_steps: int
    n_samples: int
    n_dropped: int
    stderr: float
    within_tolerance: bool


def pf_monte_carlo_check(
    alpha: float,
    p: CauchyParams,
    n: int,
    steps: int,
    seed: int,
    fit_method: str = "median_iqr",
    max_drop_fraction: float = 1e-4,
) -> PfReport:
    """Push a seeded sample through the pointwise map and refit.

    The refitted parameters are compared against the half-plane prediction;
    ``within_tolerance`` demands agreement within 5 asymptotic standard
    errors of the fit.  Pole-guard hits are dropped with accounting and the
    check aborts if they exceed ``max_drop_fraction`` of the sample.
    """
    alpha = check_alpha(alpha)
    if n < MIN_MONTE_CARLO_SIZE:
        raise ValueError(f"push-forward check needs n >= {MIN_MONTE_CARLO_SIZE} samples")
    if steps < 1:
        raise ValueError("need at least one step")
    batch = sample_cauchy(p, n, seed)
    pushed, dropped = _push_forward(alpha, batch.points, steps)
    if dropped > max_drop_fraction * n:
        raise RuntimeError(
            f"{dropped} of {n} samples hit the pole guard (> {max_drop_fraction:.2%})"
        )
    trajectory = iterate_parameter_map(alpha, HPoint(p.nu, p.gamma), steps)
    final = trajectory[-1]
    predicted = CauchyParams(final.nu, final.gamma)
    measured = fit_cauchy(pushed, fit_method)
    sup_error = max(abs(measured.nu - predicted.nu), abs(measured.gamma - predicted.gamma))
    se = fit_stderr(predicted.gamma, pushed.size)
    return PfReport(
        alpha=alpha,
        input=p,
        predicted=predicted,
        measured=measured,
        sup_error=sup_error,
        n_steps=steps,
        n_samples=n,
        n_dropped=dropped,
        stderr=se,
        within_tolerance=sup_error < 5.0 * se,
    )


def mc_error_ratio(
    alpha: float,
    p: CauchyParams,
    n: int,
    seeds=range(10),
    steps: int = 1,
    fit_method: str = "median_iqr",
) -> float:
    """RMS fit-error ratio between sample sizes n and 2n (nested draws).

    For each seed a single stream of 2n points is drawn and pushed through
    the map; the first n of them form the half-size estimate, so the two
    levels share their randomness and the ratio concentrates near sqrt(2)
    under the expected n^(-1/2) error scaling.
    """
    alpha = check_alpha(alpha)
    trajectory = iterate_parameter_map(alpha, HPoint(p.nu, p.gamma), steps)
    predicted = trajectory[-1]
    err_half, err_full = 0.0, 0.0
    for seed in seeds:
        batch = sample_cauchy(p, 2 * n, seed)
        pushed, _ = _push_forward(alpha, batch.points, steps)
        half = fit_cauchy(pushed[:n], fit_method)
        full = fit_cauchy(pushed, fit_method)
        err_half += (half.nu - predicted.nu) ** 2 + (half.gamma - predicted.gamma) ** 2
        err_full += (full.nu - predicted.nu) ** 2 + (full.gamma - predicted.gamma) ** 2
    return math.sqrt(err_half / err_full)


def ks_distance(samples: np.ndarray, p: CauchyParams) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and C(.; p)."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    theoretical = cauchy_cdf(p, ordered)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(max(np.max(steps_hi - theoretical), np.max(theoretical - steps_lo)))


@dataclass(frozen=True)
class ErgodicReport:
    """KS distance of a long orbit against the invariant Cauchy law."""

    alpha: float
    xi0: float
    n: int
    invariant: CauchyParams
    ks: float


def ergodic_orbit_check(alpha: float, xi0: float, n: int) -> ErgodicReport:
    """Compare the empirical law of an n-step orbit with the invariant law.

    Orbits that land in the pole guard cannot be continued and raise; such
    seeds (e.g. +/-1, which map to the pole in two steps) are degenerate.
    """
    alpha = check_alpha(alpha)
    if n < 10**5:
        raise ValueError("ergodic check needs n >= 10^5 steps")
    result = iterate_orbit(alpha, xi0, n)
    if result.truncated:
        raise OrbitTruncationError(
            f"orbit from {xi0} hit the pole guard at index {result.last_index}",
            result.last_index,
        )
    target = invariant_params(alpha)
    return ErgodicReport(alpha, xi0, n, target, ks_distance(result.points, target))
