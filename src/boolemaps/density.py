"""Distribution-level verification of the half-plane reduction.

The half-plane map is an exact claim about densities: pushing a Cauchy law
through the pointwise transform must land exactly on the Cauchy law with
the stepped parameters.  Nothing here relies on that claim; instead the
push-forward is recomputed by brute force in two independent ways:

* the transfer sum -- the two-branch sum over preimages weighted by
  1/|derivative|, evaluated at quantile nodes of the input law, and
* Monte Carlo -- seeded, counter-based sampling pushed through the pointwise
  map, and tested against the predicted law on the circle.

Both are then compared against the closed-form prediction.  A
``DensityGrid`` tabulates a density on arctan-spaced nodes with analytic
tail accounting, and ``pf_density_step`` evolves it by the same sum,
interpolating between the nodes.  The pointwise map is ``_core._boole``,
alpha*(x - 1/x); the push-forward writes that formula out in place, a
ufunc at a time, and the tests hold it to ``_boole`` bit for bit.  Its
preimages come from ``orbit._preimages``.  A sample is Cauchy with
parameter theta = nu + i*gamma exactly when zeta = (x - theta)/(x -
conj(theta)) is uniform on the unit circle (McCullagh, Ann. Statist. 1996).  So the Monte Carlo check, ``pf_circle_check``, never
fits or holds its sample: each block is drawn, pushed, standardized by the
predicted law and reduced to the two sums of the mean m of zeta, and n|m|^2
is close to Exp(1) where the prediction is right.  A point the pole guard
drops stays in its place as NaN.  ``pf_monte_carlo_check`` holds the whole
pushed sample and refits its kept points: by the quartiles, selected by
nested partitions in place as ``fit_cauchy`` selects them, or by the
likelihood fit, the zero of the same circle mean, reached by Moebius steps.
The likelihood route runs the circle check's pass with the held sample as
its rows, so the sample comes out standardized by the predicted law and the
circle check's fitted law is the first step.  Sample-sized work runs in
blocks, on up to one thread per CPU in the affinity as its scratch allows,
and the error ratio runs its seeds on them, with the same bits on any
number of CPUs.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from warnings import warn

import numpy as np

from ._core import (
    DEFAULT_GRID_SIZE, KS_MIN_SAMPLES, MIN_MONTE_CARLO_SIZE, POLE_EPS, _cpu_count, check_alpha,
)
from .errors import (
    FitConvergenceError,
    GridResolutionWarning,
    OrbitTruncationError,
    PoleGuardError,
    SingularInputError,
)
from .halfplane import HPoint, fixed_point, iterate_parameter_map, parameter_step
from .orbit import _preimages, cauchy_cdf, cauchy_pdf, cauchy_quantile, iterate_orbit

#: Probability left outside the quantile nodes on each side.
TAIL_PROB = 1e-6
#: Largest share of a Monte Carlo sample that may hit the pole guard.
MAX_DROP_FRACTION = 1e-4
#: Nodes per interpolation stencil of a grid's density: a local quintic.
STENCIL = 6


@dataclass(frozen=True)
class DensityGrid:
    """Density tabulated on arctan-spaced nodes, with explicit tail mass.

    Nodes are placed at quantiles of the reference Cauchy law ``ref`` (dense
    where the reference is, geometrically sparse in the tails), so integrals
    are evaluated by the trapezoid rule in the arctan parameter of ``ref``
    with the chain-rule Jacobian.  Trapezoid sums in raw xi would lose the
    heavy tails entirely at any practical node count.
    """

    nodes: np.ndarray
    values: np.ndarray
    tail_mass: float
    ref: HPoint

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must be matching 1-D arrays")
        if self.nodes.size < 2:
            raise ValueError("need at least two nodes")
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


def _quantile_nodes(params: HPoint, n_nodes: int) -> np.ndarray:
    # the law's quantiles at ``n_nodes`` evenly spaced levels in [TAIL_PROB,
    # 1 - TAIL_PROB]; near the centre they are about
    # params.gamma*pi/(n_nodes - 1) apart
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    return cauchy_quantile(params, np.linspace(TAIL_PROB, 1.0 - TAIL_PROB, n_nodes))


def cauchy_grid(params: HPoint, n_nodes: int = DEFAULT_GRID_SIZE) -> DensityGrid:
    """Tabulate a Cauchy density on ``n_nodes`` nodes at its own quantiles,
    those of ``pf_closed_form_check``, with its own law as the reference."""
    nodes = _quantile_nodes(params, n_nodes)
    values = cauchy_pdf(params, nodes)
    tail = cauchy_cdf(params, nodes[0]) + 1.0 - cauchy_cdf(params, nodes[-1])
    return DensityGrid(nodes, values, float(tail), ref=params)


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

    lo, hi, slope = _preimages(alpha, nodes)
    return (term(lo) + term(hi)) / slope


def _grid_law(rho: DensityGrid):
    """The density and the CDF that ``rho`` describes, as vectorized callables."""
    # Both in the arctan parameter t of ``rho.ref``.  The density is the
    # quintic through the six nodes around each interval, clamped at 0:
    # column j of the table holds the Newton divided differences of the
    # stencil that starts at node j, then the nodes that Horner's rule on
    # the Newton form reads, so one gather serves a query.
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
    pre_lo, pre_hi, _ = _preimages(alpha, np.array([rho.nodes[0], rho.nodes[-1]]))
    minus_l, minus_r = pre_lo
    plus_l, plus_r = pre_hi
    tail = float(1.0 + cdf(plus_l) - cdf(plus_r) + cdf(minus_l) - cdf(minus_r))
    tail = max(tail, 0.0)

    out = DensityGrid(rho.nodes, new_values, tail, ref=rho.ref)
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

    The two-branch sum of C(.; p), ``transfer_values``, is compared pointwise
    with the Cauchy density at the parameters the half-plane map steps p to,
    at ``n_nodes`` quantile nodes of C(.; p), those of ``cauchy_grid``.
    Exactness of the reduction means this is floating-point small (<< 1e-10
    of the stepped law's peak).
    """
    nodes = _quantile_nodes(p, n_nodes)
    stepped = transfer_values(alpha, lambda xi: cauchy_pdf(p, xi), nodes)
    predicted = cauchy_pdf(parameter_step(alpha, p), nodes)
    return float(np.max(np.abs(stepped - predicted)))


MIN_FIT_SIZE = 1000


def sample_cauchy(p: HPoint, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` points by inverse-CDF sampling from one counter-based stream.

    Point i comes from the i-th double of one Philox stream keyed by
    ``seed``.  Philox is a counter-based generator: each counter value gives
    four 64-bit words, one word per double.  So the block of points from
    lo = k*_BLOCK on is drawn by its own Philox with the seeded key,
    advanced by lo // 4 counter values, and the blocks are drawn in
    parallel.  Identical (seed, n) always reproduces the points bit for bit,
    on any number of CPUs.  Every point lies within
    ``p.gamma * MAX_SAMPLE_OFFSET`` of ``p.nu``.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    out = np.empty(n)
    _each_block(n, lambda rows, lo: _draw_block(p, seed, lo, out[lo:lo + _BLOCK]))
    return out


def _draw_block(p: HPoint, seed: int, lo: int, u: np.ndarray) -> None:
    # points lo .. lo + u.size - 1 of ``sample_cauchy(p, n, seed)``, into u
    stream = np.random.SeedSequence(seed, spawn_key=(0,))
    np.random.Generator(np.random.Philox(stream).advance(lo // 4)).random(out=u)
    # p.nu + p.gamma*tan(pi*(u - 1/2)), formed in u's own buffer
    np.subtract(u, 0.5, out=u)
    np.multiply(np.pi, u, out=u)
    np.tan(u, out=u)
    np.multiply(p.gamma, u, out=u)
    np.add(p.nu, u, out=u)


def fit_cauchy(points: np.ndarray) -> HPoint:
    """Estimate Cauchy parameters from data by the quartiles.

    Location = sample median, scale = half the interquartile range -- exact
    for the Cauchy CDF, whose quartiles sit at nu +/- gamma.  The quartiles
    are those of ``np.quantile``, bit for bit, selected from a copy of the
    points by ``_quartiles`` rather than read from a sorted one.  The
    likelihood fit is ``pf_monte_carlo_check(..., "mle")``'s.  Moment
    fitting is not offered; the Cauchy law has no moments.  Raises
    SingularInputError on a NaN point, and where half the interquartile
    range is not a positive double, as where the quartiles round to the
    same double.
    """
    points = np.array(points, dtype=float)  # a copy: the caller's order stays
    if np.isnan(points).any():
        raise SingularInputError("no law fits a sample that holds NaN")
    return _fit(points, points.size)


def _check_fit_size(size: int) -> None:
    if size < MIN_FIT_SIZE:
        raise ValueError(f"fitting needs at least {MIN_FIT_SIZE} points, got {size}")


def _fit(points: np.ndarray, size: int) -> HPoint:
    # ``fit_cauchy`` of the ``size`` least of the points, NaN last, which it reorders
    _check_fit_size(size)
    return _quartile_fit(_quartiles(points, size))


def _quartile_fit(quartiles: np.ndarray) -> HPoint:
    # the median, and half the interquartile range where that is a positive double
    q1, q2, q3 = quartiles
    scale = float((q3 - q1) / 2.0)
    if not scale > 0.0:
        raise SingularInputError(f"no scale fits a sample whose quartiles are {float(q1)!r} and {float(q3)!r}")
    return HPoint(float(q2), scale)


def _quartile_ranks(size: int) -> tuple[np.ndarray, np.ndarray]:
    # np.quantile's default rule for the quartiles of ``size`` sorted
    # points: virtual index (size - 1)*q, split into its floor and the
    # fraction past it
    at = (size - 1) * np.array([0.25, 0.5, 0.75])
    below = at.astype(np.intp)  # the floor: at >= 0
    return below, at - below


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    # numpy's lerp, which takes b - (b - a)*(1 - t) where t >= 1/2
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1.0 - t), out=out, where=t >= 0.5)
    return out


def _quartiles(points: np.ndarray, size: int) -> np.ndarray:
    # np.quantile(np.sort(points)[:size], [0.25, 0.5, 0.75]), where only the
    # points past the cut may be NaN, selected in place of a sort: three
    # nested single-kth partitions, each of the part below the last, place
    # the floor of each quartile's virtual index, and the order statistic
    # after each is the least point between it and the next one placed.
    # Only the points after the upper quartile's floor may be NaN, and fmin
    # passes over them.
    below, t = _quartile_ranks(size)
    k1, k2, k3 = below.tolist()
    points.partition(k3)
    points[:k3].partition(k2)
    points[:k2].partition(k1)
    upper = [points[k1 + 1:k2 + 1].min(), points[k2 + 1:k3 + 1].min(), np.fmin.reduce(points[k3 + 1:])]
    return _lerp(points[below], np.array(upper), t)


#: Sample-sized work runs in blocks of this many points (512 KiB of doubles),
#: through buffers of one block, so that no temporary grows with the sample
#: and peak memory does not depend on where earlier large temporaries left
#: the heap.  The circle check holds one block's scratch per worker and no
#: sample; ``pf_monte_carlo_check`` holds one copy of its sample, which it
#: pushes forward and fits in place, and each pass of the likelihood fit
#: sums a block at a time through two rows of scratch.  Each worker of the
#: error ratio holds one seed's 2n points and one block's scratch.
_BLOCK = 1 << 16


def _concurrently(func, tasks, workers: int, scratch=()) -> list:
    """``func(rows, task)`` for each of the sequence ``tasks`` on up to
    ``workers`` threads, the results in task order.

    ``rows`` is the worker's own scratch, one array per (size, dtype) pair
    in ``scratch``.  This thread allocates every worker's rows, as the
    callers allocate their samples: memory that a worker thread allocates
    comes from that thread's own malloc arena and stays resident.  The
    workers claim tasks one at a time, in order.  Worker 0 is the calling
    thread, so one worker starts no thread; each of the others runs in a
    copy of the caller's ``contextvars`` context, so that an
    ``np.errstate`` around the call holds in every task.  A failure stops
    further claims, and the exception of the first task, in task order,
    that failed is raised here, as a serial loop would raise it.  Every
    thread is joined before this returns or raises.
    """
    workers = min(workers, len(tasks))
    rows = [[np.empty(size, dtype) for size, dtype in scratch] for _ in range(workers)]
    results = [None] * len(tasks)
    failures = {}
    claims = iter(range(len(tasks)))
    lock = threading.Lock()

    def work(worker):
        while not failures:
            with lock:
                k = next(claims, None)
            if k is None:
                return
            try:
                results[k] = func(rows[worker], tasks[k])
            except BaseException as exc:  # raised below, in the caller
                failures[k] = exc

    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work, worker))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def _each_block(size: int, func, scratch=()) -> list:
    """``func(rows, lo)`` for the block at each lo in range(0, size, _BLOCK) of
    a sample of ``size`` doubles, the results in block order.

    ``rows`` is the worker's own scratch: one row of min(size, _BLOCK) items
    per dtype in ``scratch``.  The blocks run on one thread per CPU, but the
    scratch of all workers stays within a quarter of the sample's blocks:
    at b bytes of scratch a point, 2*blocks // b workers at most, and one
    at least.  The cap also keeps ``pf_circle_check`` (17 bytes a point) on
    one worker up to 16 blocks (1,048,576 points), where fresh-process
    ``verify-pf`` measured slower with a worker per CPU (ROADMAP, Parked).
    numpy releases the GIL inside each ufunc, so the threads compute in
    parallel, and each block computes what a serial loop would, so the
    results are the same bit for bit on any number of CPUs.
    """
    starts = range(0, size, _BLOCK)
    workers = _cpu_count()
    width = min(size, _BLOCK)
    worker_bytes = width * sum(np.dtype(dtype).itemsize for dtype in scratch)
    if worker_bytes:
        workers = max(1, min(workers, len(starts) * _BLOCK * 8 // 4 // worker_bytes))
    return _concurrently(func, starts, workers, [(width, dtype) for dtype in scratch])


@np.errstate(over="ignore", divide="ignore")  # held in the blocks' threads too
def _circle_mean(points: np.ndarray, nu: float, gamma: float, size: int) -> complex:
    """The mean over ``size`` points of zeta = (x - theta)/(x - conj(theta)),
    theta = nu + i*gamma, from the two sums of 1/q and d/q in one pass.

    Here d = x - nu and q = d^2 + gamma^2, so zeta = 1 - 2*gamma^2/q -
    2i*gamma*d/q.  A point whose q overflows adds 0 to both sums, the limit
    zeta = 1, and a point held at +-DBL_MAX in place of a dropped one adds
    0 and leaves the mean, over the ``size`` kept points.  The blocks' sums
    are added by ``math.fsum``, so the mean is the same bit for bit on any
    number of CPUs.
    """
    g2 = gamma * gamma

    def block_sums(rows, lo):
        x = points[lo:lo + _BLOCK]
        d, r = (row[:x.size] for row in rows)
        return _circle_sums(np.subtract(x, nu, out=d), r, g2)

    blocks = _each_block(points.size, block_sums, (float, float))
    mean_r, mean_dr = (math.fsum(sums) / size for sums in zip(*blocks))
    return complex(1.0 - 2.0 * g2 * mean_r, -2.0 * gamma * mean_dr)


def _circle_sums(d: np.ndarray, r: np.ndarray, g2: float) -> tuple[float, float]:
    # the sums of r = 1/q and of d*r over the offsets d, q = d^2 + g2, q
    # formed and inverted in the row r; einsum, unlike np.dot, calls no
    # BLAS, whose own threads would contend with the blocks'
    np.multiply(d, d, out=r)
    r += g2
    np.divide(1.0, r, out=r)
    return float(np.sum(r)), float(np.einsum("i,i", d, r))


def _moebius(nu: float, gamma: float, m: complex) -> tuple[float, float]:
    # the law whose circle mean at theta = nu + i*gamma is m, |m| < 1:
    # (theta - m*conj(theta))/(1 - m) (McCullagh 1996)
    w = gamma / ((1.0 - m.real) ** 2 + m.imag ** 2)
    return nu - 2.0 * w * m.imag, w * (1.0 - abs(m) ** 2)


#: Passes over the sample that the likelihood fit may take from its start;
#: the check's pass that pushes the sample and fits its start is not one.
_MLE_PASSES = 100


def _mle_passes(points: np.ndarray, size: int, frame: HPoint, start: HPoint) -> HPoint:
    # The zero of the circle mean m over the ``size`` kept points, which are
    # standardized by ``frame`` = (m0, s), from the law ``start``, at theta =
    # nu + i*gamma in that frame; the fit of the sample is C(m0 + s*nu,
    # s*gamma).  There Re m = gamma*dl/dgamma and Im m = -gamma*dl/dnu for
    # the mean log-likelihood l, so |m| < 1e-10*gamma is a gradient norm
    # below 1e-10, whatever the sample's place and scale; its stationary
    # point is unique (Copas 1975), so steps that converge reach it from any
    # start.  Each step moves theta to the law whose mean of zeta is m,
    # ``_moebius``: to first order Fisher scoring.  A mean on or outside the
    # unit circle, or NaN where a step left the doubles, is the mean of no
    # law of H.
    nu, gamma = (start.nu - frame.nu) / frame.gamma, start.gamma / frame.gamma
    for _ in range(_MLE_PASSES):
        m = _circle_mean(points, nu, gamma, size)
        if abs(m) < 1e-10 * gamma:
            return HPoint(frame.nu + frame.gamma * nu, frame.gamma * gamma)
        if not abs(m) < 1.0:
            raise FitConvergenceError(f"likelihood fit left the half-plane at circle mean {m}")
        nu, gamma = _moebius(nu, gamma, m)
    raise FitConvergenceError(f"likelihood fit did not converge in {_MLE_PASSES} passes")


def _push_block(alpha: float, x: np.ndarray, steps: int, buf: np.ndarray, passed: np.ndarray) -> int:
    # ``x`` taken through every step in place while it is in cache, mapped
    # through ``buf`` as ``_boole`` maps it, alpha*(x - 1/x).  Before each
    # step the points failing |x| >= POLE_EPS (zeros, NaN), which ``passed``
    # leaves unmarked, are dropped rather than resampled, preserving the
    # push-forward's independence: they become NaN, which fails every later
    # guard.  A kept point never maps to NaN, so after the last step the
    # dropped points are the NaN of ``x``, which sort last; returns their
    # count.  ``buf`` and ``passed`` are scratch.
    dropped = 0
    for _ in range(steps):
        kept = np.greater_equal(np.abs(x, out=buf), POLE_EPS, out=passed)
        dropped = x.size - int(np.count_nonzero(kept))
        if dropped:
            np.copyto(x, np.nan, where=np.logical_not(kept, out=kept))
        inverse = np.divide(1.0, x, out=buf)
        np.multiply(alpha, np.subtract(x, inverse, out=inverse), out=x)
    return dropped


def _check_drops(dropped: int, n: int) -> None:
    if dropped > MAX_DROP_FRACTION * n:
        raise PoleGuardError(
            f"{dropped} of {n} samples hit the pole guard (> {MAX_DROP_FRACTION:.2%})"
        )


def _pushed_sample(alpha: float, p: HPoint, n: int, steps: int, seed: int):
    # ``sample_cauchy(p, n, seed)`` pushed forward, each block drawn into its
    # place and pushed there by ``_push_block``, and the count of dropped
    # points, which stay in their places as NaN
    sample = np.empty(n)

    def block(rows, lo):
        x = sample[lo:lo + _BLOCK]
        _draw_block(p, seed, lo, x)
        return _push_block(alpha, x, steps, *(row[:x.size] for row in rows))

    dropped = sum(_each_block(n, block, (float, bool)))
    _check_drops(dropped, n)
    return sample, dropped


def fit_stderr(gamma: float, n: int) -> float:
    """pi * gamma / (2 * sqrt(n)): asymptotic s.e. of both the median and half-IQR."""
    return math.pi * gamma / (2.0 * math.sqrt(n))


@dataclass(frozen=True)
class PfReport:
    """Monte Carlo push-forward compared against the closed-form prediction:
    the check passes where its ``statistic`` is below its ``tolerance``."""

    predicted: HPoint
    measured: HPoint
    n_dropped: int
    stderr: float
    statistic: float
    tolerance: float

    @property
    def within_tolerance(self) -> bool:
        return self.statistic < self.tolerance


def _check_run(n: int, steps: int) -> None:
    if n < MIN_MONTE_CARLO_SIZE:
        raise ValueError(f"push-forward check needs n >= {MIN_MONTE_CARLO_SIZE} samples")
    if steps < 1:
        raise ValueError("need at least one step")


#: The circle check's bound on n*|m|^2, which tends to Exp(1) under the
#: predicted law: a false-alarm rate of e^-14, about 8e-7.
CIRCLE_TOL = 14.0


def pf_circle_check(alpha: float, p: HPoint, n: int, steps: int, seed: int) -> PfReport:
    """Test ``sample_cauchy(p, n, seed)`` pushed through the pointwise map
    against the predicted law on the circle, without fitting or holding it.

    Where the pushed points are Cauchy at the predicted law theta = nu' +
    i*gamma', zeta = (x - theta)/(x - conj(theta)) is uniform on the unit
    circle, so the mean m of zeta over the n kept points has E m = 0 and
    E|m|^2 = 1/n; the check passes where n*|m|^2 < ``CIRCLE_TOL``.  Under
    the exact step, over 1,000 seeds of each of (1, 1) at alpha 0.5 and
    (-2, 0.5) at alpha 0.3, at 1 and 5 steps and n = 1e4 and 1e6, n*|m|^2
    averaged 0.94-1.05, passed 3 and 6 about as often as Exp(1) does, and
    read at most 11.7.  A gamma' 1% wrong, or nu' off by 0.01*gamma', reads
    a median of 25 at n = 1e6, and passed in 52 of 1,600 such runs; at
    n = 1e4 the check cannot see it.  The fitted law is the Moebius inverse
    (theta - conj(theta)*m)/(1 - m), at which m would be the exact mean: a
    scoring step toward the likelihood fit, of standard error
    sqrt(2)*gamma'/sqrt(n) in each parameter.  Raises PoleGuardError as
    ``pf_monte_carlo_check`` does, and SingularInputError where m is the
    mean of no law of H.
    """
    alpha = check_alpha(alpha)
    _check_run(n, steps)
    predicted = iterate_parameter_map(alpha, p, steps)[-1]
    sum_r, sum_dr, dropped = _pushed_circle_sums(alpha, p, n, steps, seed, predicted)
    size = n - dropped
    m, measured = _circle_fit(predicted, sum_r, sum_dr, size)
    se = math.sqrt(2.0) * predicted.gamma / math.sqrt(size)
    return PfReport(predicted, measured, dropped, se, size * abs(m) ** 2, CIRCLE_TOL)


def _circle_fit(law: HPoint, sum_r: float, sum_dr: float, size: int) -> tuple[complex, HPoint]:
    # the circle mean m at ``law`` from the two sums of ``_pushed_circle_sums``
    # over ``size`` kept points, and the law at which m is the exact mean;
    # SingularInputError where m is the mean of no law of H
    m = complex(1.0 - 2.0 * sum_r / size, -2.0 * sum_dr / size)
    nu, gamma = _moebius(law.nu, law.gamma, m) if abs(m) < 1.0 else (math.nan, 0.0)
    if not (math.isfinite(nu) and 0.0 < gamma < math.inf):
        raise SingularInputError(f"the pushed sample's circle mean {m} is the mean of no law of H")
    return m, HPoint(nu, gamma)


@np.errstate(over="ignore", divide="ignore")  # held in the blocks' threads too
def _pushed_circle_sums(alpha: float, p: HPoint, n: int, steps: int, seed: int, law: HPoint,
                        sample: np.ndarray | None = None):
    # The two circle sums of ``_circle_mean`` at C(0, 1), of r = 1/(d^2 + 1)
    # and of d*r, over ``sample_cauchy(p, n, seed)`` pushed forward and
    # standardized by ``law``, d = (x - nu)/gamma, each block in a worker's
    # scratch rows, or in its place in ``sample`` where one is given to
    # hold the standardized points, and added by ``math.fsum`` in block
    # order, and the count of dropped points.  A dropped point, NaN, and a d
    # beyond +-DBL_MAX go to +-DBL_MAX, where d^2 overflows, so each adds 0
    # to both sums.
    big = np.finfo(float).max

    def block(rows, lo):
        buf, passed, *own = (row[:n - lo] for row in rows)
        x = own[0] if sample is None else sample[lo:lo + _BLOCK]
        _draw_block(p, seed, lo, x)
        dropped = _push_block(alpha, x, steps, buf, passed)
        np.subtract(x, law.nu, out=x)
        np.divide(x, law.gamma, out=x)
        np.fmin(np.fmax(x, -big, out=x), big, out=x)  # fmax takes NaN to -big
        return (*_circle_sums(x, buf, 1.0), dropped)

    scratch = (float, bool) if sample is not None else (float, bool, float)
    sum_r, sum_dr, hits = zip(*_each_block(n, block, scratch))
    dropped = sum(hits)
    _check_drops(dropped, n)
    return math.fsum(sum_r), math.fsum(sum_dr), dropped


def pf_monte_carlo_check(
    alpha: float,
    p: HPoint,
    n: int,
    steps: int,
    seed: int,
    fit_method: str = "median_iqr",
) -> PfReport:
    """Push a seeded sample through the pointwise map and refit it.

    The whole pushed sample is held, and its kept points are fitted in
    place.  ``median_iqr`` selects the quartiles as ``fit_cauchy`` selects
    them.  ``mle`` fits the maximum-likelihood law, the one theta = nu +
    i*gamma at which the mean m of zeta = (x - theta)/(x - conj(theta)) is
    zero (McCullagh, Ann. Statist. 1996; unique by Copas, Biometrika 1975),
    and sorts nothing: each block is drawn, pushed and standardized by the
    predicted law straight into the held sample, a dropped point, NaN, and
    an offset beyond DBL_MAX predicted scales at +-DBL_MAX, and the block's
    two circle sums are added in the same pass, as ``pf_circle_check`` adds
    them.  The law that check fits is the first Moebius step, and the
    further passes step over the held sample, each mean taken over the kept
    points, until |m| < 1e-10*gamma in the predicted law's frame, a
    gradient norm of the mean log-likelihood below 1e-10.  The circle mean
    has one zero, so a prediction that is off only costs passes; the fit
    has the same bits on any number of CPUs, and raises FitConvergenceError
    where 100 passes do not get there.  A first mean outside the unit disk
    raises the SingularInputError of ``pf_circle_check``.  The statistic is
    the larger gap between the fitted and the predicted parameters in units
    of ``fit_stderr``, and the check passes below 5.  Pole-guard hits are
    dropped with accounting, and the check raises PoleGuardError if they
    exceed ``MAX_DROP_FRACTION`` of the sample.  An unknown ``fit_method``
    raises ValueError before any point is drawn.  Commands run
    ``pf_circle_check``, which needs no fit; this check measures the error
    scaling of the fits, and is the circle check's reference in the tests.
    """
    alpha = check_alpha(alpha)
    _check_run(n, steps)
    if fit_method not in ("median_iqr", "mle"):
        raise ValueError(f"unknown fit method {fit_method!r}")
    predicted = iterate_parameter_map(alpha, p, steps)[-1]
    if fit_method == "mle":
        # the circle check's pass, holding the standardized sample, and its
        # fitted law is the first step of the likelihood fit
        sample = np.empty(n)
        sum_r, sum_dr, dropped = _pushed_circle_sums(alpha, p, n, steps, seed, predicted, sample)
        _, first = _circle_fit(predicted, sum_r, sum_dr, n - dropped)
        measured = _mle_passes(sample, n - dropped, predicted, first)
    else:
        pushed, dropped = _pushed_sample(alpha, p, n, steps, seed)
        # the dropped points, NaN, order last; the fit reorders the sample in place
        measured = _fit(pushed, n - dropped)
    se = fit_stderr(predicted.gamma, n - dropped)
    sup_error = max(abs(measured.nu - predicted.nu), abs(measured.gamma - predicted.gamma))
    return PfReport(predicted, measured, dropped, se, sup_error / se, 5.0)


def mc_error_ratio(alpha: float, p: HPoint, n: int, seeds=range(10)) -> float:
    """RMS fit-error ratio between sample sizes n and 2n (nested draws).

    For each seed a single stream of 2n points is drawn and pushed one step
    through the map; the kept points among the first n draws form the
    half-size estimate, so the two levels share their randomness and the
    ratio concentrates near sqrt(2) under the expected n^(-1/2) error
    scaling of the quantile fit.  Each seed is one task on up to one thread
    per CPU: it draws and pushes its points a block at a time into its
    worker's buffer of 2n points, counting the drops among the first n as
    the NaN the push left there, then selects the quartiles of the kept
    points among the first n in place, and after them those of all 2n, and
    fits them as ``fit_cauchy`` does, the error in units of the predicted
    scale, so that no square overflows.  The squared errors are added in
    seed order, so the ratio is the same bit for bit on any number of CPUs.
    Raises ValueError on an empty ``seeds``, and PoleGuardError as
    ``pf_monte_carlo_check`` does.
    """
    alpha = check_alpha(alpha)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("the error ratio needs at least one seed")
    predicted = parameter_step(alpha, p)
    nu, gamma = predicted.nu, predicted.gamma

    def squared_errors(rows, seed):
        # the squared fit errors of one seed, at n and at 2n
        sample, buf, passed = rows
        dropped = first = 0  # in all, and among the first n
        for lo in range(0, 2 * n, _BLOCK):
            x = sample[lo:lo + _BLOCK]
            _draw_block(p, seed, lo, x)
            hits = _push_block(alpha, x, 1, buf[:x.size], passed[:x.size])
            dropped += hits
            if hits and lo < n:  # the block's drops among the first n, the NaN the step left
                head = x[:n - lo]
                first += np.count_nonzero(np.isnan(head, out=passed[:head.size]))
        _check_drops(dropped, 2 * n)
        fits = _fit(sample[:n], n - first), _fit(sample, 2 * n - dropped)
        return [((fit.nu - nu) / gamma) ** 2 + ((fit.gamma - gamma) / gamma) ** 2 for fit in fits]

    width = min(2 * n, _BLOCK)
    scratch = [(2 * n, float), (width, float), (width, bool)]
    errors = [0.0, 0.0]  # squared, at n and at 2n
    for seed_errors in _concurrently(squared_errors, seeds, _cpu_count(), scratch):
        errors = [total + error for total, error in zip(errors, seed_errors)]
    return math.sqrt(errors[0] / errors[1])


def ks_distance(samples: np.ndarray, p: HPoint) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and C(.; p).

    The sorted copy of the samples becomes their CDF in place, and one ramp
    k/n, k = 0..n, serves both one-sided maxima, so three arrays of the
    sample's size are alive at most.  Raises ValueError on an empty sample.
    """
    cdf = np.sort(np.asarray(samples, dtype=float))
    n = cdf.size
    if not n:
        raise ValueError("the KS distance needs a sample of at least one point")
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
