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
map is ``_core._boole``, alpha*(x - 1/x); the push-forward writes that
formula out in place, a ufunc at a time, and the tests hold it to
``_boole`` bit for bit.  Its preimages come from ``orbit._preimages``.
Sampling only draws points; fitting is a separate, explicit ``fit_cauchy``
call.  A point the pole guard drops stays in its place as NaN, which sorts
last, and every consumer cuts the dropped points off after sorting or
selecting.  A quantile fit selects its quartiles, those of ``np.quantile``,
by nested partitions in place, with no sort.  The Monte Carlo check's
quantile fit streams its sample: each block is drawn, pushed and sorted on
its own, and only the points near the quartiles are kept, so the check
reads the quartiles of the whole pushed sample, as ``fit_cauchy`` does,
without holding it.  Its likelihood fit sorts the whole pushed sample and
fits its kept points through ``_fit``: the law theta = nu + i*gamma at which
the mean of zeta = (x - theta)/(x - conj(theta)) over the points is zero,
reached by Moebius steps.  Sample-sized work runs in blocks, on every CPU in
the affinity where the blocks outnumber the CPUs, and the error ratio runs
its seeds on them, with the same bits on any number of CPUs.
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

#: Probability left outside a ``cauchy_grid`` on each side.
TAIL_PROB = 1e-6
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

    lo, hi, slope = _preimages(alpha, nodes)
    return (term(lo) + term(hi)) / slope


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
    pre_lo, pre_hi, _ = _preimages(alpha, np.array([rho.nodes[0], rho.nodes[-1]]))
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


def fit_cauchy(points: np.ndarray, method: str = "median_iqr") -> HPoint:
    """Estimate Cauchy parameters from data.

    ``median_iqr``: location = sample median, scale = half the interquartile
    range -- exact for the Cauchy CDF, whose quartiles sit at nu +/- gamma.
    The quartiles are those of ``np.quantile``, bit for bit, selected from a
    copy of the points by ``_quartiles`` rather than read from a sorted one.
    ``mle``: the maximum-likelihood law, the one theta = nu + i*gamma at
    which the mean of zeta = (x - theta)/(x - conj(theta)) is zero
    (McCullagh, Ann. Statist. 1996; unique by Copas, Biometrika 1975).  It
    steps from the quantile fit, in that fit's location and scale frame, to
    the law of which the current mean would be the exact mean, and is
    declared converged when the gradient norm of the mean log-likelihood in
    that frame drops below 1e-10; it raises FitConvergenceError where 100
    passes over the points do not get there.  Its sums run over the sorted
    points, so any permutation of a sample gives the same fit.  Moment
    fitting is not offered; the Cauchy law has no moments.  Raises
    SingularInputError where half the interquartile range is not a
    positive double, as where the quartiles round to the same double.
    """
    _check_fit_method(method)
    points = np.array(points, dtype=float)  # a copy: the caller's order stays
    return _fit(points, points.size, method)


def _check_fit_method(method: str) -> None:
    if method not in ("median_iqr", "mle"):
        raise ValueError(f"unknown fit method {method!r}")


def _check_fit_size(size: int) -> None:
    if size < MIN_FIT_SIZE:
        raise ValueError(f"fitting needs at least {MIN_FIT_SIZE} points, got {size}")


def _fit(points: np.ndarray, size: int, method: str) -> HPoint:
    # ``fit_cauchy`` of the ``size`` least of the points, NaN last, which it
    # reorders and the likelihood fit overwrites
    _check_fit_size(size)
    if method == "median_iqr":
        return _quartile_fit(_quartiles(points, size))
    points.sort()
    ordered = points[:size]
    return _cauchy_mle(ordered, _quartile_fit(_sorted_quartiles(ordered)))


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


def _sorted_quartiles(ordered: np.ndarray) -> np.ndarray:
    # np.quantile(ordered, [0.25, 0.5, 0.75]) read from a sorted sample by
    # index.  A NaN sorts last and makes every quartile that NaN, as in
    # np.quantile.
    below, t = _quartile_ranks(ordered.size)
    out = _lerp(ordered[below], ordered[below + 1], t)
    if np.isnan(ordered[-1]):
        out[:] = ordered[-1]
    return out


def _quartiles(points: np.ndarray, size: int) -> np.ndarray:
    # np.quantile(np.sort(points)[:size], [0.25, 0.5, 0.75]), NaN sorting
    # last, selected in place of a sort: three nested single-kth partitions,
    # each of the part below the last, place the floor of each quartile's
    # virtual index, and the order statistic after each is the least point
    # between it and the next one placed.  Only the points after the upper
    # quartile's floor may be NaN, and fmin passes over them.  A NaN within
    # the cut makes every quartile that NaN, as in np.quantile.
    below, t = _quartile_ranks(size)
    k1, k2, k3 = below.tolist()
    points.partition(k3)
    points[:k3].partition(k2)
    points[:k2].partition(k1)
    tail = points[k3 + 1:]
    upper = [points[k1 + 1:k2 + 1].min(), points[k2 + 1:k3 + 1].min(), np.fmin.reduce(tail)]
    out = _lerp(points[below], np.array(upper), t)
    if np.isnan(tail.max()):  # a NaN: is one within the cut?
        last = size - k3 - 2  # the cut's last point, as an order statistic of the tail
        tail.partition(last)
        if np.isnan(tail[last]):
            out[:] = tail[last]
    return out


#: Sample-sized work runs in blocks of this many points (512 KiB of doubles),
#: through buffers of one block, so that no temporary grows with the sample
#: and peak memory does not depend on where earlier large temporaries left
#: the heap.  The quantile fit's Monte Carlo check holds one block's scratch
#: and the points near the quartiles; the likelihood fit's holds one copy of
#: its sample, which it pushes forward, sorts and standardizes in place, and
#: each pass of the fit sums a block at a time through two rows of scratch.
#: Each worker of the error ratio holds one seed's 2n points and one block's
#: scratch.
_BLOCK = 1 << 16


def _concurrently(func, tasks, workers: int) -> list:
    """``func(worker, task)`` for each of the sequence ``tasks`` on up to
    ``workers`` threads, the results in task order.

    The workers claim tasks one at a time, in order.  Worker 0 is the
    calling thread, so one worker starts no thread; each of the others runs
    in a copy of the caller's ``contextvars`` context, so that an
    ``np.errstate`` around the call holds in every task.  A failure stops further claims, and the exception
    of the first task, in task order, that failed is raised here, as a
    serial loop would raise it.  Every thread is joined before this returns
    or raises, so none is alive when the report writer forks.
    """
    workers = min(workers, len(tasks))
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
                results[k] = func(worker, tasks[k])
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


def _workers(size: int) -> int:
    # the threads of a pass over ``size`` points: every CPU where its blocks outnumber
    # them, else one (on 2 CPUs, threading 2 blocks of 1e5 points cost more than it saved)
    cpus = _cpu_count()
    return cpus if size > cpus * _BLOCK else 1


def _each_block(size: int, func, scratch=()) -> list:
    """``func(rows, lo)`` for the block at each lo in range(0, size, _BLOCK) of
    a sample of ``size`` doubles, the results in block order.

    ``rows`` is the worker's own scratch: one row of min(size, _BLOCK) items
    per dtype in ``scratch``.  The blocks run on the threads of ``_workers``.
    numpy releases the GIL inside each ufunc, so the threads compute in
    parallel, and each block computes what a serial loop would, so the
    results are the same bit for bit on any number of CPUs.  The scratch of
    all workers stays within a quarter of the sample's blocks, whatever the
    CPU count, which caps the workers of a pass that needs much of it.  This
    thread allocates it, as it does the sample: memory that a worker thread
    allocates comes from that thread's own malloc arena and stays resident.
    """
    starts = range(0, size, _BLOCK)
    workers = _workers(size)
    width = min(size, _BLOCK)
    worker_bytes = width * sum(np.dtype(dtype).itemsize for dtype in scratch)
    if worker_bytes:
        workers = max(1, min(workers, len(starts) * _BLOCK * 8 // 4 // worker_bytes))
    rows = [[np.empty(width, dtype) for dtype in scratch] for _ in range(workers)]
    return _concurrently(lambda worker, lo: func(rows[worker], lo), starts, workers)


@np.errstate(over="ignore", divide="ignore")  # held in the blocks' threads too
def _circle_mean(points: np.ndarray, nu: float, gamma: float) -> complex:
    """The mean over the points of zeta = (x - theta)/(x - conj(theta)),
    theta = nu + i*gamma, from the two sums of 1/q and d/q in one pass.

    Here d = x - nu and q = d^2 + gamma^2, so zeta = 1 - 2*gamma^2/q -
    2i*gamma*d/q.  A point whose q overflows adds 0 to both sums, the limit
    zeta = 1.  The blocks' sums are added by ``math.fsum``, so the mean is
    the same bit for bit on any number of CPUs.
    """
    g2 = gamma * gamma

    def block_sums(rows, lo):
        # two rows, d and then q, inverted in place; einsum, unlike np.dot,
        # calls no BLAS, whose own threads would contend with the blocks'
        x = points[lo:lo + _BLOCK]
        d, r = (row[:x.size] for row in rows)
        np.subtract(x, nu, out=d)
        np.multiply(d, d, out=r)
        r += g2
        np.divide(1.0, r, out=r)
        return float(np.sum(r)), float(np.einsum("i,i", d, r))

    blocks = _each_block(points.size, block_sums, (float, float))
    mean_r, mean_dr = (math.fsum(sums) / points.size for sums in zip(*blocks))
    return complex(1.0 - 2.0 * g2 * mean_r, -2.0 * gamma * mean_dr)


#: Passes over the sample that the likelihood fit may take.
_MLE_PASSES = 100


def _cauchy_mle(points: np.ndarray, frame: HPoint) -> HPoint:
    # The zero of the circle mean m of the standardized points (x - m0)/s,
    # formed in place, where (m0, s) is the quartile fit ``frame``, from
    # C(0, 1); the fit of the sample is C(m0 + s*nu, s*gamma).  There
    # Re m = gamma*dl/dgamma and Im m = -gamma*dl/dnu for the mean
    # log-likelihood l, so |m| < 1e-10*gamma is a gradient norm below 1e-10,
    # whatever the sample's place and scale; its stationary point is unique
    # (Copas 1975).  Each step moves theta = nu + i*gamma to the law whose
    # mean of zeta is m, (theta - m*conj(theta))/(1 - m) (McCullagh 1996):
    # to first order Fisher scoring.  A mean on or outside the unit circle,
    # or NaN where a step left the doubles, is the mean of no law of H.  A
    # point beyond DBL_MAX quartile scales standardizes to +-inf, whose d*r
    # would be inf*0; at +-DBL_MAX its q overflows instead, and it adds 0 to
    # both sums, the limit zeta = 1.  The points come sorted, so any such
    # point sits at an end.
    with np.errstate(over="ignore"):
        points -= frame.nu
        points /= frame.gamma
    if math.isinf(points[0]) or math.isinf(points[-1]):
        big = np.finfo(float).max
        np.clip(points, -big, big, out=points)
    nu, gamma = 0.0, 1.0
    for _ in range(_MLE_PASSES):
        m = _circle_mean(points, nu, gamma)
        if abs(m) < 1e-10 * gamma:
            return HPoint(frame.nu + frame.gamma * nu, frame.gamma * gamma)
        if not abs(m) < 1.0:
            raise FitConvergenceError(f"likelihood fit left the half-plane at circle mean {m}")
        w = gamma / ((1.0 - m.real) ** 2 + m.imag ** 2)
        nu, gamma = nu - 2.0 * w * m.imag, w * (1.0 - abs(m) ** 2)
    raise FitConvergenceError(f"likelihood fit did not converge in {_MLE_PASSES} passes")


def _push_forward(alpha: float, points: np.ndarray, steps: int) -> tuple[np.ndarray, int]:
    # Pointwise map applied to every sample in place, a block at a time
    # through ``_push_block``; returns ``points`` and the count of dropped
    # points, which stay in their places as NaN.
    def push(rows, lo):
        x = points[lo:lo + _BLOCK]
        return _push_block(alpha, x, steps, *(row[:x.size] for row in rows))

    return points, sum(_each_block(points.size, push, (float, bool)))


def _push_block(alpha: float, x: np.ndarray, steps: int, buf: np.ndarray, passed: np.ndarray) -> int:
    # ``x`` taken through every step in place while it is in cache, mapped
    # through ``buf`` as ``_boole`` maps it, alpha*(x - 1/x).  Before each
    # step the points failing |x| >= POLE_EPS (zeros, NaN), which ``passed``
    # leaves unmarked, are dropped rather than resampled, preserving the
    # push-forward's independence: they become NaN, which fails every later
    # guard.  A kept point never maps to NaN, so after the last step the
    # dropped points are the NaN of ``x``, which sort last; returns their
    # count.
    dropped = 0
    for _ in range(steps):
        kept = np.greater_equal(np.abs(x, out=buf), POLE_EPS, out=passed)
        dropped = x.size - int(np.count_nonzero(kept))
        if dropped:
            np.copyto(x, np.nan, where=~kept)
        inverse = np.divide(1.0, x, out=buf)
        np.multiply(alpha, np.subtract(x, inverse, out=inverse), out=x)
    return dropped


def _check_drops(dropped: int, n: int) -> None:
    if dropped > MAX_DROP_FRACTION * n:
        raise PoleGuardError(
            f"{dropped} of {n} samples hit the pole guard (> {MAX_DROP_FRACTION:.2%})"
        )


def _pushed_sample(alpha: float, p: HPoint, n: int, steps: int, seed: int):
    # ``sample_cauchy(p, n, seed)`` pushed forward, and its pole-guard drops
    pushed, dropped = _push_forward(alpha, sample_cauchy(p, n, seed), steps)
    _check_drops(dropped, n)
    return pushed, dropped


#: Half-width of the rank brackets of the streamed quartile fit, in units of
#: the square root of the first block's size: 2.5 puts each edge at least
#: 5 standard errors of a quartile's rank from it.
_BRACKET_WIDTH = 2.5


def _streamed_quartiles(alpha: float, p: HPoint, n: int, steps: int, seed: int):
    """The size, the pole-guard drops and the quartiles of ``sample_cauchy(p,
    n, seed)`` pushed forward, read without holding the sample; None where
    a bracket misses a quartile's order statistics.

    Each block is drawn, pushed and sorted in a worker's scratch row, and
    then let go.  The sorted first block places a bracket of values around
    each quartile, ``_BRACKET_WIDTH`` square roots of its size in ranks to
    either side.  Each block returns only its count of points below each
    bracket and copies of the points inside it, which are joined a bracket
    at a time after the pass, once the scratch is let go.  The order
    statistics that the quartiles read then lie in the joined brackets,
    at their rank less the count below, so the quartiles are those of the
    whole sorted sample, bit for bit, on any number of CPUs.  The blocks
    after the first split its scratch between the workers, so the scratch
    is one block's on any number of CPUs; this thread allocates it.
    """
    def sorted_block(rows, lo):
        # the kept points of the block from lo on, as wide as ``rows``,
        # sorted in rows[0], and its drops
        x, buf, passed = (row[:n - lo] for row in rows)
        _draw_block(p, seed, lo, x)
        dropped = _push_block(alpha, x, steps, buf, passed)
        x.sort()  # the dropped points, NaN, sort last
        return x[:x.size - dropped], dropped

    def collect(x):
        # the counts of the sorted x below each bracket [low, high), its low
        # in bounds[:3] and its high in bounds[3:], and copies of the points
        # inside each
        edges = np.searchsorted(x, bounds).tolist()
        return edges[:3], [x[lo:hi].copy() for lo, hi in zip(edges, edges[3:])]

    rows = [np.empty(min(n, _BLOCK), dtype) for dtype in (float, float, bool)]
    first, dropped = sorted_block(rows, 0)
    if not first.size:  # no point to place a bracket at
        return None
    half = _BRACKET_WIDTH * math.sqrt(first.size)
    at = [(first.size - 1) * q + side * half for side in (-1, 1) for q in (0.25, 0.5, 0.75)]
    bounds = first[[min(max(round(rank), 0), first.size - 1) for rank in at]]
    below, parts = collect(first)
    inside, size = [[part] for part in parts], first.size  # each bracket's parts
    workers = _workers(n - _BLOCK)  # of the other blocks
    width = _BLOCK // workers // 4 * 4  # whole Philox counter values
    split = [[row[k * width:(k + 1) * width] for row in rows] for k in range(workers)]

    def later_block(worker, lo):
        x, hits = sorted_block(split[worker], lo)
        return collect(x), hits, x.size

    for (counts, parts), hits, kept in _concurrently(later_block, range(_BLOCK, n, width), workers):
        below = [total + count for total, count in zip(below, counts)]
        for bracket, part in zip(inside, parts):
            bracket.append(part)
        dropped += hits
        size += kept
    del rows, first, split  # the scratch, let go before the brackets are joined
    _check_drops(dropped, n)
    _check_fit_size(size)
    ranks, t = _quartile_ranks(size)
    pairs = np.empty((2, 3))
    for k, (rank, count) in enumerate(zip(ranks.tolist(), below)):
        at = rank - count
        row, inside[k] = np.concatenate(inside[k]), None  # its parts, let go
        if not 0 <= at < row.size - 1:
            return None
        row.partition((at, at + 1))
        pairs[:, k] = row[at:at + 2]
    return size, dropped, _lerp(*pairs, t)


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
    sample.  An unknown ``fit_method`` raises ValueError before any point is
    drawn.  The ``median_iqr`` fit streams the sample through
    ``_streamed_quartiles``, in one block's scratch and about 8% of the
    sample's size; where a bracket misses, the check pushes the whole sample
    in place and selects the quartiles of its kept points, and for the
    ``mle`` fit it pushes and sorts the whole sample in place, cuts off the
    dropped points and fits the rest.  Either way the report is the same,
    bit for bit.
    """
    alpha = check_alpha(alpha)
    if n < MIN_MONTE_CARLO_SIZE:
        raise ValueError(f"push-forward check needs n >= {MIN_MONTE_CARLO_SIZE} samples")
    if steps < 1:
        raise ValueError("need at least one step")
    _check_fit_method(fit_method)
    streamed = fit_method == "median_iqr" and _streamed_quartiles(alpha, p, n, steps, seed)
    if streamed:
        size, dropped, quartiles = streamed
    else:  # the likelihood fit, or a bracket missed
        pushed, dropped = _pushed_sample(alpha, p, n, steps, seed)
        size = n - dropped  # the dropped points, NaN, order last
    predicted = iterate_parameter_map(alpha, p, steps)[-1]
    # the fallback fits its one copy of the sample in place
    measured = _quartile_fit(quartiles) if streamed else _fit(pushed, size, fit_method)
    sup_error = max(abs(measured.nu - predicted.nu), abs(measured.gamma - predicted.gamma))
    se = fit_stderr(predicted.gamma, size)
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
    through the map; the kept points among the first n draws form the
    half-size estimate, so the two levels share their randomness and the
    ratio concentrates near sqrt(2) under the expected n^(-1/2) error
    scaling of the quantile fit.  Each seed is one task on up to one thread
    per CPU: it draws and pushes its points a block at a time, as
    ``sample_cauchy`` and ``_push_forward`` do, into its worker's buffer of
    2n points, then selects the quartiles of the kept points among the
    first n in place, and after them those of all 2n, and fits them as
    ``fit_cauchy`` does, the error in units of the predicted scale, so that
    no square overflows.  The squared errors are added in seed order, so the
    ratio is the same bit for bit on any number of CPUs.  Raises ValueError
    on an empty ``seeds``, and PoleGuardError as ``pf_monte_carlo_check``
    does.
    """
    alpha = check_alpha(alpha)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("the error ratio needs at least one seed")
    predicted = parameter_step(alpha, p)
    nu, gamma = predicted.nu, predicted.gamma
    workers = min(_cpu_count(), len(seeds))
    width = min(2 * n, _BLOCK)
    rows = [(np.empty(2 * n), np.empty(width), np.empty(width, bool)) for _ in range(workers)]

    def squared_errors(worker, seed):
        # the squared fit errors of one seed, at n and at 2n
        sample, buf, passed = rows[worker]
        dropped = first = 0  # in all, and among the first n
        for lo in range(0, 2 * n, _BLOCK):
            x = sample[lo:lo + _BLOCK]
            _draw_block(p, seed, lo, x)
            hits = _push_block(alpha, x, 1, buf[:x.size], passed[:x.size])
            dropped += hits
            if hits and lo < n:  # ``passed`` marks the points one step keeps
                head = passed[:min(n - lo, x.size)]
                first += head.size - np.count_nonzero(head)
        _check_drops(dropped, 2 * n)
        fits = _fit(sample[:n], n - first, "median_iqr"), _fit(sample, 2 * n - dropped, "median_iqr")
        return [((fit.nu - nu) / gamma) ** 2 + ((fit.gamma - gamma) / gamma) ** 2 for fit in fits]

    errors = [0.0, 0.0]  # squared, at n and at 2n
    for seed_errors in _concurrently(squared_errors, seeds, workers):
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
