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
    PoleGuardError,
    SingularInputError,
)
from .halfplane import HPoint, fixed_point, iterate_parameter_map, parameter_step
from .orbit import (
    POLE_EPS,
    _boole,
    _preimages,
    cauchy_cdf,
    cauchy_pdf,
    cauchy_quantile,
    check_alpha,
    iterate_orbit,
)

DEFAULT_GRID_SIZE = 4096
#: Probability left outside a ``cauchy_grid`` on each side.
TAIL_PROB = 1e-6
#: Smallest sample the Monte Carlo push-forward check accepts.
MIN_MONTE_CARLO_SIZE = 10**4
#: Largest share of a Monte Carlo sample that may hit the pole guard.
MAX_DROP_FRACTION = 1e-4
#: Nodes per interpolation stencil on a tabulated-only grid: a local quintic.
STENCIL = 6


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
    ref: HPoint
    source: HPoint | None = None

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

    def _integrand(self) -> np.ndarray:
        """The values times d(xi)/d(theta) = gamma*(1 + t^2), t = (xi - nu)/gamma.

        Formed as (values*gamma)*(1 + t*t), so no square of a node offset
        overflows however large the reference scale.
        """
        t = (self.nodes - self.ref.nu) / self.ref.gamma
        return (self.values * self.ref.gamma) * (1.0 + t * t)

    def mass(self) -> float:
        """Total mass: trapezoid over the arctan-spaced nodes plus tails."""
        return float(np.trapezoid(self._integrand(), self.theta())) + self.tail_mass


def cauchy_grid(params: HPoint, n_nodes: int = DEFAULT_GRID_SIZE) -> DensityGrid:
    """Tabulate a Cauchy density on nodes at its own quantiles.

    The nodes sit at ``n_nodes`` evenly spaced levels in
    [TAIL_PROB, 1 - TAIL_PROB]; near the centre they are about
    ``params.gamma * pi / (n_nodes - 1)`` apart.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    nodes = cauchy_quantile(params, np.linspace(TAIL_PROB, 1.0 - TAIL_PROB, n_nodes))
    values = cauchy_pdf(params, nodes)
    tail = cauchy_cdf(params, nodes[0]) + 1.0 - cauchy_cdf(params, nodes[-1])
    return DensityGrid(nodes, values, float(tail), ref=params, source=params)


def transfer_values(alpha: float, density, nodes: np.ndarray) -> np.ndarray:
    """Two-branch transfer sum of ``density`` evaluated at each node.

    ``density`` is any vectorized callable; each output point collects its
    two preimages weighted by the inverse derivative magnitude.  At either
    preimage xi of y, alpha*|xi + 1/xi| = hypot(y, 2*alpha), so that weight is
    |xi| / hypot(y, 2*alpha): no square forms, and it never exceeds 1/alpha.
    A preimage beyond DBL_MAX contributes 0, the limit of density*|xi| for
    any density of finite mass.
    """
    alpha = check_alpha(alpha)
    nodes = np.asarray(nodes, dtype=float)

    def term(xi):
        # masked before multiplying: density(inf) * inf would be NaN
        weight = np.abs(xi)
        return np.multiply(density(xi), weight, out=np.zeros_like(weight),
                           where=np.isfinite(weight))

    lo, hi = _preimages(alpha, nodes)
    return (term(lo) + term(hi)) / np.hypot(nodes, 2.0 * alpha)


def _grid_law(rho: DensityGrid):
    """The density and the CDF that ``rho`` describes, as vectorized callables."""
    if rho.source is not None:
        src = rho.source
        return (lambda xi: cauchy_pdf(src, xi)), (lambda xi: cauchy_cdf(src, xi))
    # Tabulated-only fallback, in the arctan parameter t of ``rho.ref``.  The
    # density is the quintic through the six nodes around each interval,
    # clamped at 0: column j of the table holds the Newton divided
    # differences of the stencil that starts at node j, then the nodes that
    # Horner's rule on the Newton form reads, so one gather serves a query.
    # The CDF is the trapezoid sum of the integrand, linear in t.  Beyond the
    # window both take the integrand in t as flat out to +-pi/2, the shape of
    # every Cauchy tail, if the grid records tail mass at all: at its edge
    # value for the density, and at the recorded tail mass, split evenly
    # between the sides (the grid does not remember the split), for the CDF.
    # The density reads the edge values, not the tail mass, because the tail
    # mass absorbs each step's mass drift, and fed back through the density
    # it would amplify the drift from step to step.
    th = rho.theta()
    if np.any(np.diff(th) <= 0.0):
        raise ValueError("nodes must stay distinct in the arctan parameter")
    f = rho._integrand()
    below_level, above_level = f[[0, -1]] / rho.ref.gamma if rho.tail_mass > 0.0 else (0.0, 0.0)
    n = th.size
    width = min(STENCIL, n)
    rows = n - width + 1
    diffs = rho.values
    levels = [diffs[:rows]]
    for k in range(1, width):
        diffs = (diffs[1:] - diffs[:-1]) / (th[k:] - th[:-k])
        levels.append(diffs[:rows])
    table = np.array(levels + [th[k:k + rows] for k in range(width - 1)])
    cum = np.cumsum(np.diff(th) * 0.5 * (f[1:] + f[:-1]))
    half = 0.5 * rho.tail_mass
    knots = np.concatenate([[-0.5 * np.pi], th, [0.5 * np.pi]])
    masses = np.concatenate([[0.0, half], half + cum, [half + cum[-1] + half]])

    def offset(xi):
        return (np.asarray(xi, dtype=float) - rho.ref.nu) / rho.ref.gamma

    def density(xi):
        s = offset(xi)
        t = np.arctan(s)
        first = np.searchsorted(th, t, side="right") - width // 2
        stencil = np.take(table, first, axis=1, mode="clip")  # a copy, so reused in place
        offsets = np.subtract(t, stencil[width:], out=stencil[width:])
        out = stencil[width - 1]
        for k in range(width - 2, -1, -1):
            out *= offsets[k]
            out += stencil[k]
        np.fmax(0.0, out, out=out)  # a NaN query reads 0, as outside the window
        # d(theta)/d(xi) = 1/(gamma*(1 + s^2)); hypot keeps 1 + s^2 from overflowing
        for side, level in ((t < th[0], below_level), (t > th[-1], above_level)):
            out[side] = level / np.hypot(1.0, s[side]) ** 2
        return out

    def cdf(xi):
        return np.interp(np.arctan(offset(xi)), knots, masses)

    return density, cdf


def pf_density_step(alpha: float, rho: DensityGrid) -> DensityGrid:
    """Evolve a density grid once through the two-branch transfer sum.

    The output keeps the input's nodes; its tail mass is the exact push-forward
    of the input mass landing outside the node window (computed from preimages
    of the window edges, using only input-side information).  Any mass drift is
    reported through a warning and the grid's own ``mass`` accounting, never
    renormalized away.
    """
    alpha = check_alpha(alpha)
    density, cdf = _grid_law(rho)
    new_values = transfer_values(alpha, density, rho.nodes)
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


def pf_closed_form_check(alpha: float, p: HPoint, n_nodes: int = DEFAULT_GRID_SIZE) -> float:
    """Sup gap between the brute-force transfer step and the closed-form step.

    Evolves C(.; p) by the two-branch sum and compares pointwise against the
    Cauchy density with parameters advanced by the half-plane map, over every
    grid node.  Exactness of the reduction means this is floating-point small
    (<< 1e-10 of the stepped law's peak).
    """
    grid = cauchy_grid(p, n_nodes)
    stepped = pf_density_step(alpha, grid)
    predicted = cauchy_pdf(parameter_step(alpha, p), grid.nodes)
    return float(np.max(np.abs(stepped.values - predicted)))


MIN_FIT_SIZE = 1000


#: The largest |tan(pi*(u - 1/2))| over the doubles u in [0, 1) that
#: ``sample_cauchy`` draws, reached at u = 0: about 1.6e16.
MAX_SAMPLE_OFFSET = float(abs(np.tan(-0.5 * np.pi)))


def sample_cauchy(p: HPoint, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` points by inverse-CDF sampling from one counter-based stream.

    Identical (seed, n) always reproduces the points bit for bit.  Every
    point lies within ``p.gamma * MAX_SAMPLE_OFFSET`` of ``p.nu``.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    stream = np.random.SeedSequence(seed, spawn_key=(0,))
    u = np.random.Generator(np.random.Philox(stream)).random(n)
    # p.nu + p.gamma*tan(pi*(u - 1/2)), formed in u's own buffer
    np.subtract(u, 0.5, out=u)
    np.multiply(np.pi, u, out=u)
    np.tan(u, out=u)
    np.multiply(p.gamma, u, out=u)
    return np.add(p.nu, u, out=u)


def fit_cauchy(points: np.ndarray, method: str = "median_iqr") -> HPoint:
    """Estimate Cauchy parameters from data.

    ``median_iqr``: location = sample median, scale = half the interquartile
    range -- exact for the Cauchy CDF, whose quartiles sit at nu +/- gamma.
    ``mle``: damped Newton on the mean log-likelihood, in the location and
    scale frame of the quantile fit and started there, declared converged
    when the gradient norm in that frame drops below 1e-10.  Moment fitting
    is not offered; the Cauchy law has no moments.  Raises
    SingularInputError where half the interquartile range is not a positive
    double, as where the quartiles round to the same double.
    """
    points = np.asarray(points, dtype=float)
    if points.size < MIN_FIT_SIZE:
        raise ValueError(f"fitting needs at least {MIN_FIT_SIZE} points, got {points.size}")
    ordered = np.sort(points)  # fixed reduction order; the likelihood fit reuses it
    q1, q2, q3 = np.quantile(ordered, [0.25, 0.5, 0.75], overwrite_input=True)
    scale = float((q3 - q1) / 2.0)
    if not scale > 0.0:
        raise SingularInputError(f"no scale fits a sample whose quartiles are {float(q1)!r} and {float(q3)!r}")
    quartile_fit = HPoint(float(q2), scale)
    if method == "median_iqr":
        return quartile_fit
    if method == "mle":
        return _cauchy_mle(ordered, quartile_fit)
    raise ValueError(f"unknown fit method {method!r}")


#: Sample-sized work runs in blocks of this many points (512 KiB of doubles),
#: so that no temporary grows with the sample: a Monte Carlo check holds its
#: sample and one sorted copy, and its peak memory does not depend on where
#: earlier large temporaries left the heap.
_BLOCK = 1 << 16


def _blocks(points: np.ndarray):
    return (points[lo:lo + _BLOCK] for lo in range(0, points.size, _BLOCK))


def _mean_log_q(points: np.ndarray, nu: float, gamma: float) -> float:
    """Mean over the points of log(d^2 + gamma^2), d = points - nu."""
    total = 0.0
    for block in _blocks(points):
        d = block - nu
        total += float(np.sum(np.log(d * d + gamma * gamma)))
    return total / points.size


def _score_means(points: np.ndarray, nu: float, gamma: float) -> list[float]:
    """Means over the points of 1/q, d/q, 1/q^2, d/q^2 and (d^2 - gamma^2)/q^2.

    Here d = points - nu and q = d^2 + gamma^2.
    """
    g2 = gamma * gamma
    sums = np.zeros(5)
    for block in _blocks(points):
        d = block - nu
        q = d * d + g2
        q2 = q * q
        sums += [np.sum(1.0 / q), np.sum(d / q), np.sum(1.0 / q2), np.sum(d / q2),
                 np.sum((d * d - g2) / q2)]
    return (sums / points.size).tolist()


def _cauchy_mle(
    points: np.ndarray,
    frame: HPoint,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> HPoint:
    # Newton on the standardized points (x - m)/s, formed in place, where
    # (m, s) is the quartile fit ``frame``, from C(0, 1); the fit of the
    # sample is C(m + s*nu, s*gamma).  Their mean log-likelihoods differ by
    # the constant log(s), so neither the gradient nor the stopping test
    # depends on where the sample sits or on its scale.
    points -= frame.nu
    points /= frame.gamma
    nu, gamma = 0.0, 1.0

    def mean_loglik(nu_, gamma_):
        return math.log(gamma_) - _mean_log_q(points, nu_, gamma_)

    current = mean_loglik(nu, gamma)
    for _ in range(max_iter):
        mean_inv, mean_d_inv, mean_inv2, mean_d_inv2, mean_dd = _score_means(points, nu, gamma)
        grad_nu = 2.0 * mean_d_inv
        grad_g = 1.0 / gamma - 2.0 * gamma * mean_inv
        if math.hypot(grad_nu, grad_g) < tol:
            return HPoint(frame.nu + frame.gamma * nu, frame.gamma * gamma)
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
    mean_inv, mean_d_inv = _score_means(points, nu, gamma)[:2]
    grad_norm = math.hypot(2.0 * mean_d_inv, 1.0 / gamma - 2.0 * gamma * mean_inv)
    if grad_norm >= tol:
        raise FitConvergenceError(
            f"likelihood fit stalled at gradient norm {grad_norm:.2e} after {max_iter} iterations"
        )
    return HPoint(frame.nu + frame.gamma * nu, frame.gamma * gamma)


def _push_forward(alpha: float, points: np.ndarray, steps: int) -> tuple[np.ndarray, int]:
    # Pointwise map applied to every sample, overwriting ``points`` block by
    # block; pole hits are dropped with a count rather than resampled,
    # preserving the push-forward's independence.
    dropped = 0
    x = points
    for _ in range(steps):
        kept = sum(int(np.count_nonzero(np.abs(block) >= POLE_EPS)) for block in _blocks(x))
        if kept < x.size:
            dropped += x.size - kept
            x = x[np.abs(x) >= POLE_EPS]
        for block in _blocks(x):
            block[...] = _boole(alpha, block)
    return x, dropped


def fit_stderr(gamma: float, n: int) -> float:
    """pi * gamma / (2 * sqrt(n)): asymptotic s.e. of both the median and half-IQR."""
    return math.pi * gamma / (2.0 * math.sqrt(n))


@dataclass(frozen=True)
class PfReport:
    """Monte Carlo push-forward compared against the closed-form prediction."""

    predicted: HPoint
    measured: HPoint
    n_dropped: int
    stderr: float
    within_tolerance: bool


def pf_monte_carlo_check(
    alpha: float,
    p: HPoint,
    n: int,
    steps: int,
    seed: int,
    fit_method: str = "median_iqr",
) -> PfReport:
    """Push a seeded sample through the pointwise map and refit.

    The refitted parameters are compared against the half-plane prediction;
    ``within_tolerance`` demands agreement within 5 asymptotic standard
    errors of the fit.  Pole-guard hits are dropped with accounting, and the
    check raises PoleGuardError if they exceed ``MAX_DROP_FRACTION`` of the
    sample.
    """
    alpha = check_alpha(alpha)
    if n < MIN_MONTE_CARLO_SIZE:
        raise ValueError(f"push-forward check needs n >= {MIN_MONTE_CARLO_SIZE} samples")
    if steps < 1:
        raise ValueError("need at least one step")
    pushed, dropped = _push_forward(alpha, sample_cauchy(p, n, seed), steps)
    if dropped > MAX_DROP_FRACTION * n:
        raise PoleGuardError(
            f"{dropped} of {n} samples hit the pole guard (> {MAX_DROP_FRACTION:.2%})"
        )
    predicted = iterate_parameter_map(alpha, p, steps)[-1]
    measured = fit_cauchy(pushed, fit_method)
    sup_error = max(abs(measured.nu - predicted.nu), abs(measured.gamma - predicted.gamma))
    se = fit_stderr(predicted.gamma, pushed.size)
    return PfReport(
        predicted=predicted,
        measured=measured,
        n_dropped=dropped,
        stderr=se,
        within_tolerance=sup_error < 5.0 * se,
    )


def mc_error_ratio(alpha: float, p: HPoint, n: int, seeds=range(10)) -> float:
    """RMS fit-error ratio between sample sizes n and 2n (nested draws).

    For each seed a single stream of 2n points is drawn and pushed one step
    through the map; the first n of them form the half-size estimate, so the
    two levels share their randomness and the ratio concentrates near sqrt(2)
    under the expected n^(-1/2) error scaling of the quantile fit.
    """
    alpha = check_alpha(alpha)
    predicted = parameter_step(alpha, p)
    err_half, err_full = 0.0, 0.0
    for seed in seeds:
        pushed, _ = _push_forward(alpha, sample_cauchy(p, 2 * n, seed), 1)
        half = fit_cauchy(pushed[:n])
        full = fit_cauchy(pushed)
        err_half += (half.nu - predicted.nu) ** 2 + (half.gamma - predicted.gamma) ** 2
        err_full += (full.nu - predicted.nu) ** 2 + (full.gamma - predicted.gamma) ** 2
    return math.sqrt(err_half / err_full)


def ks_distance(samples: np.ndarray, p: HPoint) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and C(.; p).

    The sorted copy of the samples becomes their CDF in place, and one ramp
    k/n, k = 0..n, serves both one-sided maxima, so three arrays of the
    sample's size are alive at most.
    """
    cdf = np.sort(np.asarray(samples, dtype=float))
    n = cdf.size
    # cauchy_cdf's 1/2 + arctan((xi - nu)/gamma)/pi, step by step
    cdf -= p.nu
    cdf /= p.gamma
    np.arctan(cdf, out=cdf)
    cdf /= np.pi
    cdf += 0.5
    ramp = np.arange(n + 1, dtype=float)
    ramp /= n
    above = np.max(ramp[1:] - cdf)
    cdf -= ramp[:-1]
    return float(max(above, np.max(cdf)))


#: Orbits of fewer steps than this are not checked against the invariant law.
KS_MIN_SAMPLES = 10**5


@dataclass(frozen=True)
class ErgodicReport:
    """KS distance of a long orbit against the invariant Cauchy law."""

    invariant: HPoint
    ks: float


def ergodic_orbit_check(alpha: float, xi0: float, n: int) -> ErgodicReport:
    """Compare the empirical law of an n-step orbit with the invariant law.

    Orbits that land in the pole guard cannot be continued and raise; such
    seeds (e.g. +/-1, which map to the pole in two steps) are degenerate.
    """
    alpha = check_alpha(alpha)
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"ergodic check needs n >= {KS_MIN_SAMPLES} steps")
    result = iterate_orbit(alpha, xi0, n)
    if result.truncated:
        raise OrbitTruncationError(
            f"orbit from {xi0} hit the pole guard at index {result.last_index}",
            result.last_index,
        )
    target = fixed_point(alpha)
    return ErgodicReport(target, ks_distance(result.points, target))
