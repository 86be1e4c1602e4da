"""Transfer-sum grid evolution, sampling, fitting, and ergodicity checks."""

import functools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boolemaps import (
    DensityGrid,
    FitConvergenceError,
    GridResolutionWarning,
    HPoint,
    OrbitTruncationError,
    POLE_EPS,
    PoleGuardError,
    SingularInputError,
    cauchy_cdf,
    cauchy_grid,
    cauchy_pdf,
    cauchy_quantile,
    ergodic_orbit_check,
    fit_cauchy,
    fixed_point,
    iterate_parameter_map,
    ks_distance,
    mc_error_ratio,
    parameter_step,
    pf_circle_check,
    pf_closed_form_check,
    pf_density_step,
    pf_monte_carlo_check,
    sample_cauchy,
)
from boolemaps import density
from boolemaps._core import _boole
from boolemaps.cli import SUP_ERROR_TOL
from boolemaps.density import (
    _BLOCK,
    _each_block,
    _grid_law,
    _push_forward,
    _quartiles,
    transfer_values,
)

#: Relative error, against the peak, allowed after a 10-step chain on a
#: tabulated-only grid (the benchmark's bound for the same chain).
SPLINE_RTOL = 1e-5


def spline_density(rho):
    """The interpolant of a tabulated-only grid by a scipy cubic spline: the oracle."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(rho.theta(), rho.values, extrapolate=False)

    def density(xi):
        out = spline(np.arctan((np.asarray(xi, dtype=float) - rho.ref.nu) / rho.ref.gamma))
        return np.where(np.isnan(out), 0.0, np.maximum(out, 0.0))

    return density


def loop_push_forward(alpha: float, points: np.ndarray, steps: int) -> tuple[np.ndarray, int]:
    """Reference oracle: the push-forward a step at a time through the map
    ``_boole``, dropping and counting the points that fail the pole guard
    before each step."""
    x, dropped = np.array(points, dtype=float), 0
    for _ in range(steps):
        kept = x[np.abs(x) >= POLE_EPS]
        dropped += x.size - kept.size
        x = _boole(alpha, kept)
    return x, dropped


def kept_points(pushed: np.ndarray) -> np.ndarray:
    """The points of a ``_push_forward`` result that the pole guard kept, in
    order: it leaves each dropped point in its place as NaN."""
    return pushed[~np.isnan(pushed)]


def assert_same_push_forward(alpha: float, points: np.ndarray, steps: int) -> tuple[np.ndarray, int]:
    """Assert that ``_push_forward`` keeps the oracle's points, bit for bit,
    and gives its count of dropped points; return the kept points and the
    count."""
    expected, expected_dropped = loop_push_forward(alpha, points, steps)
    pushed, dropped = _push_forward(alpha, np.array(points, dtype=float), steps)
    kept = kept_points(pushed)
    assert kept.tobytes() == expected.tobytes(), (alpha, points.size, steps)
    assert dropped == expected_dropped == pushed.size - kept.size, (alpha, points.size, steps)
    return kept, dropped


def assert_same_quartiles(points: np.ndarray) -> np.ndarray:
    """Assert that the quartiles selected from the unsorted points, whole
    and as the kept-size cut of a copy with three NaN mixed in, are
    ``np.quantile`` of the points, bit for bit, and return the quartiles.  A zero quartile is compared,
    and returned, as 0.0: which of a tied -0.0 and 0.0 a partition leaves
    at an index is arbitrary, and it differs between a sample and its
    sorted copy."""
    expected = np.quantile(points, [0.25, 0.5, 0.75]) + 0.0  # -0.0 + 0.0 is 0.0
    rng = np.random.default_rng(points.size)
    padded = np.insert(points, rng.integers(0, points.size + 1, 3), np.nan)
    routes = {
        "selected": _quartiles(points.copy(), points.size),
        "cut": _quartiles(padded, points.size),
    }
    for route, got in routes.items():
        got = got + 0.0
        assert got.tobytes() == expected.tobytes(), (route, points.size, got, expected)
    return expected


def exact_circle_mean(points: np.ndarray, nu: float, gamma: float) -> tuple[complex, tuple]:
    """The circle mean that ``_circle_mean`` takes, (1 - 2*gamma^2*mean r) -
    2i*gamma*mean(d*r), from the exact means that ``math.fsum`` gives of
    r = 1/q and d*r, and the scale of the terms of its real and imaginary
    parts.  The terms are formed through h = hypot(d, gamma), so that none
    overflows where q = h^2 would."""
    d = points - nu
    h = np.hypot(d, gamma)
    r, dr = 1.0 / h / h, d / h / h
    mean_r, mean_dr = (math.fsum(term.tolist()) / points.size for term in (r, dr))
    exact = complex(1.0 - 2.0 * gamma * gamma * mean_r, -2.0 * gamma * mean_dr)
    real_terms = (d - gamma) / h * ((d + gamma) / h)  # 1 - 2*gamma^2*r
    scales = float(np.mean(np.abs(real_terms))), float(np.mean(np.abs(2.0 * gamma * dr)))
    return exact, scales


def assert_exact_circle_mean(points: np.ndarray, nu: float, gamma: float,
                             reference: tuple | None = None) -> float:
    """Assert that the real and imaginary parts of ``_circle_mean`` each lie
    within 1e-13 of their terms' scale of the exact mean in ``reference``, by
    default ``exact_circle_mean`` of the same arguments; return the larger
    such error."""
    got = density._circle_mean(points, nu, gamma, points.size)
    exact, scales = reference or exact_circle_mean(points, nu, gamma)
    errors = [abs(got.real - exact.real) / scales[0], abs(got.imag - exact.imag) / scales[1]]
    assert max(errors) <= 1e-13, (points.size, nu, gamma, errors)
    return max(errors)


def sorted_likelihood_fit(points: np.ndarray) -> HPoint:
    """Reference oracle: the likelihood fit of ``points`` from the quartile
    fit of a sorted copy.  The copy is standardized by that fit's frame
    (m0, s), (x - m0)/s, a point beyond DBL_MAX quartile scales, +-inf, is
    taken to +-DBL_MAX, where its q overflows and it adds 0 to both circle
    sums, the limit zeta = 1, and ``_mle_passes`` steps from the frame.
    The sums run over the sorted copy, so any permutation of the points
    gives the same fit, bit for bit."""
    ordered = np.sort(points)
    frame = density._quartile_fit(np.quantile(ordered, [0.25, 0.5, 0.75]))
    with np.errstate(over="ignore"):
        ordered -= frame.nu
        ordered /= frame.gamma
    big = np.finfo(float).max
    np.clip(ordered, -big, big, out=ordered)
    return density._mle_passes(ordered, ordered.size, frame, frame)


def assert_stationary(points: np.ndarray, fit: HPoint) -> float:
    """Assert that |m|, the circle mean by ``math.fsum`` at the likelihood
    fit ``fit`` of ``points``, in the quartile frame (m0, s) in which the fit
    runs, is below 2e-10, beyond what rounding ``fit`` to doubles can add;
    return |m| in units of that bound.

    The points are standardized as the fit standardizes them, (x - m0)/s,
    and the fit is taken to (nu - m0)/s + i*gamma/s.  |m| is the gradient
    norm of the mean log-likelihood there times the scale, and by Copas
    (Biometrika 1975) the stationary point is the maximum-likelihood fit.
    Rounding each of nu and gamma to a double moves theta by at most half
    an ulp, and m by at most 2*|dtheta|/gamma, since |d zeta/d theta| and
    |d zeta/d conj(theta)| are 1/|x - conj(theta)| <= 1/gamma."""
    ordered = np.sort(points)
    frame = fit_cauchy(ordered)
    ordered -= frame.nu
    ordered /= frame.gamma
    m, _ = exact_circle_mean(ordered, (fit.nu - frame.nu) / frame.gamma, fit.gamma / frame.gamma)
    bound = 2e-10 + (math.ulp(fit.nu) + math.ulp(fit.gamma)) / fit.gamma
    assert abs(m) < bound, (points.size, fit, abs(m), bound)
    return abs(m) / bound


def check_likelihood_fits(count: int, seed: int) -> tuple[float, list[int]]:
    """``sorted_likelihood_fit`` against the stationarity oracle on
    ``count`` random samples drawn from ``seed``: n log-uniform in
    1e3..3e5, C(nu, gamma) with |nu| log-uniform in 1e-3..1e8 of either
    sign and gamma log-uniform in 1e-6..1e6, and up to three points replaced
    by 1e150, -1e200, 1e300 or 3e153.  Returns the largest circle mean in
    units of its bound and each fit's count of passes over the sample."""
    rng = np.random.default_rng(seed)
    passes = []
    worst = 0.0
    for _ in range(count):
        n = int(math.exp(rng.uniform(math.log(1e3), math.log(3e5))))
        nu = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 8.0))
        gamma = float(10.0 ** rng.uniform(-6.0, 6.0))
        points = nu + gamma * rng.standard_cauchy(n)
        hits = rng.integers(0, 3, endpoint=True)
        points[rng.integers(0, n, hits)] = rng.choice([1e150, -1e200, 1e300, 3e153], hits)
        with mock.patch.object(density, "_circle_mean", wraps=density._circle_mean) as spy:
            fit = sorted_likelihood_fit(points)
        passes.append(spy.call_count)
        worst = max(worst, assert_stationary(points, fit))
    return worst, passes


def check_monte_carlo_kernels(count: int, seed: int) -> tuple[int, list[int]]:
    """``_push_forward`` against ``loop_push_forward``, ``_quartiles`` against
    ``np.quantile``, and ``_circle_mean`` at the quartile fit of the pushed
    sample against ``exact_circle_mean``, on ``count`` random cases drawn
    from ``seed``: n log-uniform in 1e3..3e5, steps uniform in 1..10, alpha
    uniform in 0.05..0.95, and a Cauchy sample of random location and scale
    in which a few points are replaced by 0, +-1 (a pole hit at the second
    step) or NaN.  Each case's references are computed once, and the
    kernels that spread blocks over CPUs are checked against them serially,
    every block on the calling thread, and on every CPU in the affinity.
    Returns how many points the pole guard dropped in all, and the CPU
    counts checked."""
    rng = np.random.default_rng(seed)
    settings = sorted({1, density._cpu_count()})
    dropped = 0
    for _ in range(count):
        n = int(math.exp(rng.uniform(math.log(1e3), math.log(3e5))))
        steps = int(rng.integers(1, 10, endpoint=True))
        alpha = float(rng.uniform(0.05, 0.95))
        points = rng.normal() + math.exp(rng.uniform(-5.0, 5.0)) * rng.standard_cauchy(n)
        hits = rng.integers(0, 3, endpoint=True)
        points[rng.integers(0, n, hits)] = rng.choice([0.0, 1.0, -1.0, np.nan], hits)
        expected, hit = loop_push_forward(alpha, points, steps)
        q1, q2, q3 = assert_same_quartiles(expected)
        fit = (q2, (q3 - q1) / 2.0)
        reference = exact_circle_mean(expected, *fit)
        for cpus in settings:
            with mock.patch.object(density, "_cpu_count", return_value=cpus):
                pushed, pushed_hit = _push_forward(alpha, points.copy(), steps)
                pushed = kept_points(pushed)
                assert pushed.tobytes() == expected.tobytes(), (alpha, n, steps, cpus)
                assert pushed_hit == hit, (alpha, n, steps, cpus)
                assert_exact_circle_mean(pushed, *fit, reference)
        dropped += hit
    return dropped, settings


def report_bits(report) -> tuple:
    """A ``PfReport`` as the bytes of its floats and its other fields, so
    that two reports compare bit for bit."""
    floats = [report.predicted.nu, report.predicted.gamma, report.measured.nu,
              report.measured.gamma, report.stderr, report.statistic, report.tolerance]
    return np.array(floats).tobytes(), report.n_dropped, report.within_tolerance


def reference_circle_sums(alpha: float, p: HPoint, n: int, steps: int, seed: int) -> tuple:
    """Reference oracle: the two circle sums of ``_pushed_circle_sums`` at the
    predicted law, from the whole pushed sample of ``_pushed_sample``.  Each
    point is standardized, d = (x - nu')/gamma', a dropped point, NaN, taken
    to -DBL_MAX and a d beyond +-DBL_MAX to +-DBL_MAX by ``np.nan_to_num``;
    r = 1/(d^2 + 1).  The sums of r and of d*r over each block, by
    ``np.sum`` and ``np.einsum`` as the check takes them, are added by
    ``math.fsum`` in block order.  Returns those two sums, the count of
    dropped points, and the exact sums of the terms over the whole sample
    by ``math.fsum`` with the sums of their magnitudes; raises
    PoleGuardError as the check does."""
    law = iterate_parameter_map(alpha, p, steps)[-1]
    pushed, dropped = density._pushed_sample(alpha, p, n, steps, seed)
    big = np.finfo(float).max
    with np.errstate(over="ignore"):
        d = np.nan_to_num((pushed - law.nu) / law.gamma, nan=-big)
        r = 1.0 / (d * d + 1.0)
    dr = d * r
    starts = range(0, n, _BLOCK)
    sums = (math.fsum(float(np.sum(r[lo:lo + _BLOCK])) for lo in starts),
            math.fsum(float(np.einsum("i,i", d[lo:lo + _BLOCK], r[lo:lo + _BLOCK])) for lo in starts))
    exact = [(math.fsum(terms.tolist()), math.fsum(np.abs(terms).tolist())) for terms in (r, dr)]
    return sums, dropped, exact


def circle_sums_outcome(func) -> tuple:
    """The bytes of the two sums and the count of dropped points that
    ``func()`` returns, or the failure's type and text."""
    try:
        sum_r, sum_dr, dropped = func()
    except PoleGuardError as exc:
        return "PoleGuardError", str(exc)
    return np.array([sum_r, sum_dr]).tobytes(), dropped


def assert_same_circle_sums(alpha: float, p: HPoint, n: int, steps: int, seed: int,
                            settings=None) -> int:
    """Assert that ``_pushed_circle_sums`` at the predicted law gives the
    sums of ``reference_circle_sums`` bit for bit, and its count of dropped
    points, or raises the same PoleGuardError, with every block on the
    calling thread and on every CPU in the affinity (or on each CPU count
    of ``settings``), and that each sum lies within 1e-13 times the sum of
    its terms' magnitudes of the exact sum.  Returns the count of dropped
    points, or -1 where the pole guard failed the sample."""
    law = iterate_parameter_map(alpha, p, steps)[-1]
    try:
        sums, dropped, exact = reference_circle_sums(alpha, p, n, steps, seed)
    except PoleGuardError as exc:
        expected, dropped = ("PoleGuardError", str(exc)), -1
    else:
        expected = np.array(sums).tobytes(), dropped
        for got, (total, scale) in zip(sums, exact):
            assert abs(got - total) <= 1e-13 * scale, (alpha, p, n, steps, seed, got, total)
    for cpus in settings or sorted({1, density._cpu_count()}):
        with mock.patch.object(density, "_cpu_count", return_value=cpus):
            got = circle_sums_outcome(lambda: density._pushed_circle_sums(alpha, p, n, steps, seed, law))
        assert got == expected, (alpha, p, n, steps, seed, cpus, got, expected)
    return dropped


def check_circle_sums(count: int, seed: int) -> tuple[int, list[int]]:
    """The two sums of the circle check against ``reference_circle_sums``,
    by ``assert_same_circle_sums``, on ``count`` random cases drawn from
    ``seed``: alpha uniform in 0.05..0.95, n log-uniform in 1e4..3e5, steps
    uniform in 1..10, any seed, and C(nu, gamma) with nu normal and gamma
    log-uniform in 1e-2..1e2, or for a third of the cases C(0, gamma) with
    gamma log-uniform in 1e-299..1e-295, whose points hit the pole guard,
    in some cases more often than it allows.  Returns how many cases
    dropped points, and the CPU counts checked."""
    rng = np.random.default_rng(seed)
    settings = sorted({1, density._cpu_count()})
    hits = 0
    for _ in range(count):
        alpha = float(rng.uniform(0.05, 0.95))
        n = int(math.exp(rng.uniform(math.log(1e4), math.log(3e5))))
        steps = int(rng.integers(1, 10, endpoint=True))
        if rng.random() < 1 / 3:
            law = HPoint(0.0, 10.0 ** rng.uniform(-299.0, -295.0))
        else:
            law = HPoint(float(rng.normal()), 10.0 ** rng.uniform(-2.0, 2.0))
        hits += assert_same_circle_sums(alpha, law, n, steps, int(rng.integers(2**31)), settings) != 0
    return hits, settings


def check_outcome(func) -> tuple:
    """``report_bits`` of the report ``func()`` returns, or the failure's type
    and text."""
    try:
        return report_bits(func())
    except (PoleGuardError, SingularInputError) as exc:
        return type(exc).__name__, str(exc)


def assert_likelihood_check_is_the_sorted_fit(alpha: float, p: HPoint, n: int, steps: int, seed: int,
                                              settings=None) -> int:
    """Assert that the likelihood route of ``pf_monte_carlo_check``, which
    fits its held sample from the predicted law, lands within 1e-9*gamma'
    in each parameter of ``sorted_likelihood_fit`` of the points that
    ``_pushed_sample`` keeps, that its fit is stationary by
    ``assert_stationary``, and that its report has the same bits, or it
    raises the reference's PoleGuardError, with every block on the calling
    thread and on every CPU in the affinity (or on each CPU count of
    ``settings``).  Returns the count of dropped points, or -1 where the
    pole guard failed the sample."""
    try:
        pushed, dropped = density._pushed_sample(alpha, p, n, steps, seed)
    except PoleGuardError as exc:
        expected, dropped = ("PoleGuardError", str(exc)), -1
    outcomes = set()
    for cpus in settings or sorted({1, density._cpu_count()}):
        with mock.patch.object(density, "_cpu_count", return_value=cpus):
            outcomes.add(check_outcome(lambda: pf_monte_carlo_check(alpha, p, n, steps, seed, fit_method="mle")))
    assert len(outcomes) == 1, (alpha, p, n, steps, seed, outcomes)
    if dropped < 0:
        assert outcomes == {expected}, (alpha, p, n, steps, seed, outcomes, expected)
        return dropped
    report = pf_monte_carlo_check(alpha, p, n, steps, seed, fit_method="mle")
    kept = kept_points(pushed)
    reference = sorted_likelihood_fit(kept)
    gaps = abs(report.measured.nu - reference.nu), abs(report.measured.gamma - reference.gamma)
    assert max(gaps) <= 1e-9 * report.predicted.gamma, (alpha, p, n, steps, seed, gaps, report.predicted)
    assert report.n_dropped == dropped, (alpha, p, n, steps, seed)
    assert_stationary(kept, report.measured)
    return dropped


def check_likelihood_checks(count: int, seed: int) -> tuple[int, list[int]]:
    """The likelihood route of ``pf_monte_carlo_check`` against the sorted
    fit, by ``assert_likelihood_check_is_the_sorted_fit``, on ``count``
    random cases drawn from ``seed``: alpha uniform in 0.05..0.95, n
    log-uniform in 1e4..3e5, steps uniform in 1..10, any seed, and C(nu,
    gamma) with nu normal and gamma log-uniform in 1e-2..1e2, or for a third
    of the cases C(0, gamma) with gamma log-uniform in 1e-297..1e-295, whose
    points hit the pole guard, in some cases more often than it allows.
    Returns how many cases dropped points, and the CPU counts checked."""
    rng = np.random.default_rng(seed)
    settings = sorted({1, density._cpu_count()})
    hits = 0
    for _ in range(count):
        alpha = float(rng.uniform(0.05, 0.95))
        n = int(math.exp(rng.uniform(math.log(1e4), math.log(3e5))))
        steps = int(rng.integers(1, 10, endpoint=True))
        if rng.random() < 1 / 3:
            law = HPoint(0.0, 10.0 ** rng.uniform(-297.0, -295.0))
        else:
            law = HPoint(float(rng.normal()), 10.0 ** rng.uniform(-2.0, 2.0))
        hits += assert_likelihood_check_is_the_sorted_fit(alpha, law, n, steps, int(rng.integers(2**31)),
                                                          settings) > 0
    return hits, settings


@functools.cache
def sorted_error_ratio(alpha: float, p: HPoint, n: int, seeds: tuple) -> tuple[float, int]:
    """Reference oracle: ``mc_error_ratio`` a seed at a time, by sorting.
    The 2n points of each seed are drawn by ``sample_cauchy`` and pushed one
    step by ``_push_forward``; a sorted copy of the first n and the sorted
    whole sample each lose their dropped points, NaN, off the end, and are
    fitted from ``np.quantile``.  Returns the ratio and the points dropped
    over all seeds; raises as ``mc_error_ratio`` does."""
    predicted = parameter_step(alpha, p)
    nu, gamma = predicted.nu, predicted.gamma
    errors, hits = [0.0, 0.0], 0
    for seed in seeds:
        pushed, dropped = _push_forward(alpha, sample_cauchy(p, 2 * n, seed), 1)
        density._check_drops(dropped, 2 * n)
        hits += dropped
        for k, ordered in enumerate([np.sort(pushed[:n]), np.sort(pushed)]):
            kept = ordered[:np.searchsorted(ordered, np.nan)]
            density._check_fit_size(kept.size)
            fit = density._quartile_fit(np.quantile(kept, [0.25, 0.5, 0.75]))
            errors[k] += ((fit.nu - nu) / gamma) ** 2 + ((fit.gamma - gamma) / gamma) ** 2
    return math.sqrt(errors[0] / errors[1]), hits


def ratio_outcome(func) -> bytes | tuple:
    """The bytes of the ratio ``func()`` returns, or the failure's type and text."""
    try:
        return np.float64(func()).tobytes()
    except (PoleGuardError, SingularInputError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_error_ratio(alpha: float, p: HPoint, n: int, seeds: tuple) -> int:
    """Assert that ``mc_error_ratio`` equals ``sorted_error_ratio``, bit for
    bit in the ratio or in the error raised; return the points the reference
    dropped, or -1 where it raised."""
    expected = ratio_outcome(lambda: sorted_error_ratio(alpha, p, n, seeds)[0])
    got = ratio_outcome(lambda: mc_error_ratio(alpha, p, n, seeds=seeds))
    assert got == expected, (alpha, p, n, seeds, got, expected)
    return sorted_error_ratio(alpha, p, n, seeds)[1] if isinstance(expected, bytes) else -1


def check_error_ratios(count: int, seed: int) -> tuple[int, list[int]]:
    """``mc_error_ratio`` against ``sorted_error_ratio`` on ``count`` random
    cases drawn from ``seed``: alpha uniform in 0.05..0.95, n log-uniform in
    1e3..1.5e5, 1 to 12 random seeds, and C(nu, gamma) with nu normal and
    gamma log-uniform in 1e-2..1e2, or for a third of the cases C(0, gamma)
    with gamma log-uniform in 1e-298..1e-294, whose points hit the pole
    guard, in some cases more often than it allows.  Each case is checked
    with every seed on the calling thread and on every CPU in the affinity.
    Returns how many cases dropped points or raised PoleGuardError, and the
    CPU counts checked."""
    rng = np.random.default_rng(seed)
    settings = sorted({1, density._cpu_count()})
    hits = 0
    for _ in range(count):
        alpha = float(rng.uniform(0.05, 0.95))
        n = int(math.exp(rng.uniform(math.log(1e3), math.log(1.5e5))))
        seeds = tuple(int(s) for s in rng.integers(0, 2**31, rng.integers(1, 12, endpoint=True)))
        if rng.random() < 1 / 3:
            law = HPoint(0.0, 10.0 ** rng.uniform(-298.0, -294.0))
        else:
            law = HPoint(float(rng.normal()), 10.0 ** rng.uniform(-2.0, 2.0))
        for cpus in settings:
            with mock.patch.object(density, "_cpu_count", return_value=cpus):
                dropped = assert_same_error_ratio(alpha, law, n, seeds)
        hits += dropped != 0
    sorted_error_ratio.cache_clear()
    return hits, settings


@pytest.fixture(params=[1, 2, 3, 8], ids=lambda n: f"{n}cpus")
def cpus(request, monkeypatch):
    """Blocks spread over this many CPUs, however many the machine has."""
    monkeypatch.setattr(density, "_cpu_count", lambda: request.param)
    return request.param


def warm_up() -> None:
    """Draw once, so that numpy's lazy import of ``numpy.random`` lands
    before a ``tracemalloc`` measurement rather than inside it."""
    sample_cauchy(HPoint(0.0, 1.0), 1, seed=0)


def serially(monkeypatch, func):
    """``func()`` with every block on the calling thread."""
    with monkeypatch.context() as patch:
        patch.setattr(density, "_cpu_count", lambda: 1)
        return func()


class TestDensityGrid:
    def test_default_grid_accounts_for_all_mass(self):
        grid = cauchy_grid(HPoint(0.0, 1.0))
        assert grid.tail_mass == pytest.approx(2e-6, rel=1e-9)
        assert grid.mass() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_mass_with_mismatched_reference(self):
        law, ref = HPoint(0.25, 0.75), HPoint(1.0, 1.0)
        nodes = cauchy_grid(ref).nodes
        tail = cauchy_cdf(law, nodes[0]) + 1.0 - cauchy_cdf(law, nodes[-1])
        grid = DensityGrid(nodes, cauchy_pdf(law, nodes), tail, ref=ref)
        assert grid.mass() == pytest.approx(1.0, abs=1e-9)

    def test_mass_at_huge_reference_scale(self):
        # node offsets reach ~3e5*gamma, so their squares would overflow here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = cauchy_grid(HPoint(1.0, 1e200))
            assert grid.mass() == pytest.approx(1.0, abs=1e-9)
            assert pf_density_step(0.5, grid).mass() == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_grid(HPoint(0, 1), n_nodes=1)
        nodes = np.array([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            DensityGrid(nodes, np.ones(3), 0.0, ref=HPoint(0, 1))
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 1.0]), np.ones(2), -0.1, ref=HPoint(0, 1))

    @pytest.mark.parametrize("size", [0, 1])
    def test_fewer_than_two_nodes(self, size):
        # no interval to integrate over, as cauchy_grid says of n_nodes
        with pytest.raises(ValueError, match="at least two nodes"):
            DensityGrid(np.arange(float(size)), np.ones(size), 0.0, ref=HPoint(0, 1))


class TestTransferStep:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_invariant_density_is_fixed(self, alpha):
        grid = cauchy_grid(fixed_point(alpha))
        stepped = pf_density_step(alpha, grid)
        np.testing.assert_allclose(stepped.values, grid.values, rtol=1e-10)
        assert stepped.mass() == pytest.approx(1.0, abs=1e-6)

    def test_peak_of_standard_invariant_density(self):
        p = HPoint(0.0, 1.0)
        out = transfer_values(0.5, lambda xi: cauchy_pdf(p, xi), np.array([0.0]))
        assert out[0] == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_far_tails_stay_finite(self):
        # C(0, 1) steps to C(0, 2*alpha); at +-1e300 one preimage is ~2.7e300
        p = HPoint(0.0, 1.0)
        nodes = np.array([-1e300, -1e150, 1e150, 1e300])
        out = transfer_values(0.37, lambda xi: cauchy_pdf(p, xi), nodes)
        np.testing.assert_allclose(out, cauchy_pdf(HPoint(0.0, 0.74), nodes), rtol=1e-14)

    def test_tails_near_dbl_max_stay_finite(self):
        # at +-1e308 and alpha = 0.9 the larger preimage, ~1.11e308, is finite;
        # at +-1.7e308 and alpha = 0.5 it is beyond DBL_MAX, and contributes 0
        p = HPoint(0.0, 1.0)
        for alpha, edge in [(0.9, 1e308), (0.5, 1.7e308)]:
            nodes = np.array([-edge, edge])
            out = transfer_values(alpha, lambda xi: cauchy_pdf(p, xi), nodes)
            np.testing.assert_array_equal(out, cauchy_pdf(parameter_step(alpha, p), nodes))

    def test_matches_closed_form_pointwise(self):
        grid = cauchy_grid(HPoint(1.0, 1.0))
        stepped = pf_density_step(0.5, grid)
        target = parameter_step(0.5, HPoint(1.0, 1.0))
        predicted = cauchy_pdf(HPoint(target.nu, target.gamma), grid.nodes)
        window = np.abs(grid.nodes) < 1e3
        np.testing.assert_allclose(
            stepped.values[window], predicted[window], rtol=1e-10
        )
        assert stepped.mass() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "alpha, p",
        [
            (0.5, HPoint(1.0, 1.0)),
            (0.5, HPoint(0.0, 1.0)),
            (0.9, HPoint(-3.0, 0.5)),
        ],
    )
    def test_sup_error_against_closed_form(self, alpha, p):
        assert pf_closed_form_check(alpha, p) < 1e-10

    def test_stationary_sup_error_is_tiny(self):
        assert pf_closed_form_check(0.5, HPoint(0.0, 1.0)) < 1e-12

    def test_sup_error_is_finite_and_small_across_the_float_range(self):
        # no warning, and no error where the nodes round together: |nu| and
        # gamma log-uniform in 1e-300..1e300, any alpha, every node count
        rng = np.random.default_rng(36)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(200):
                alpha = float(rng.uniform(0.01, 0.99))
                nu = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))
                p = HPoint(nu, 10.0 ** rng.uniform(-300.0, 300.0))
                nodes = int(rng.choice([2, 8, 4096, 65536]))
                gap = pf_closed_form_check(alpha, p, nodes)
                peak = 1.0 / (math.pi * parameter_step(alpha, p).gamma)
                assert gap < 1e-10 * peak, (alpha, p, nodes, gap, peak)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: where the nodes collapse, the input law's quantile nodes lie "
        "about 1e17 stepped widths from the stepped law's centre, so a 1%-wrong step "
        "reads 1.0e-36 (gamma') and 3.6e-50 (nu') of the stepped peak"))
    def test_wrong_step_fails_where_nodes_collapse(self, monkeypatch):
        # at (1, 1e-17) the 4,096 quantile nodes round to a few doubles around
        # 1, where the stepped law, at about 0 and 1e-17 wide, has no mass to show
        p, exact = HPoint(1.0, 1e-17), density.parameter_step
        peak = 1.0 / (math.pi * exact(0.5, p).gamma)
        wrongs = {"gamma": lambda s: HPoint(s.nu, 1.01 * s.gamma),
                  "nu": lambda s: HPoint(s.nu + 0.01 * s.gamma, s.gamma)}
        gaps = {}
        for error, wrong in wrongs.items():
            monkeypatch.setattr(density, "parameter_step", lambda a, x: wrong(exact(a, x)))
            gaps[error] = pf_closed_form_check(0.5, p) / peak
        assert min(gaps.values()) >= SUP_ERROR_TOL, gaps

    def test_tabulated_grid_without_source(self):
        # the grid's density between its nodes is the quintic's, near the
        # scipy spline's, and steps the invariant law to itself
        grid = cauchy_grid(fixed_point(0.5))
        stepped = pf_density_step(0.5, grid)
        window = np.abs(grid.nodes) < 1e3
        np.testing.assert_allclose(stepped.values[window], grid.values[window], atol=1e-8)
        spline = transfer_values(0.5, spline_density(grid), grid.nodes)
        np.testing.assert_allclose(stepped.values[window], spline[window], atol=1e-8)

    @given(
        st.floats(min_value=0.2, max_value=0.8),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=math.log(0.25), max_value=math.log(4.0)),
    )
    # the outer preimage of each edge node falls beyond the window, where a
    # density cut to zero lost about 2e-3 of the mass in the second step
    @example(alpha=0.75, nu=0.0, log_gamma=-1.25)
    def test_tabulated_chain_against_cubic_spline(self, alpha, nu, log_gamma):
        # ten steps on a 4096-node grid, the benchmark's chain
        grid = cauchy_grid(HPoint(nu, math.exp(log_gamma)), 4096)
        quintic, spline = grid, grid.values
        for _ in range(10):
            quintic = pf_density_step(alpha, quintic)
            spline = transfer_values(
                alpha, spline_density(DensityGrid(grid.nodes, spline, 0.0, ref=grid.ref)), grid.nodes
            )
        end = iterate_parameter_map(alpha, HPoint(nu, math.exp(log_gamma)), 10)[-1]
        exact = cauchy_pdf(HPoint(end.nu, end.gamma), grid.nodes)
        bound = SPLINE_RTOL * np.max(exact)
        assert np.max(np.abs(quintic.values - exact)) <= bound
        assert np.max(np.abs(quintic.values - spline)) <= bound

    def test_quintic_reproduces_quintics_on_uneven_nodes(self):
        # any strictly increasing nodes will do, and the local quintic through
        # six of them is exact for a polynomial of degree 5 in the arctan
        # parameter, up to the window edges
        rng = np.random.default_rng(3)
        nodes = np.sort(rng.standard_cauchy(40))
        ref = HPoint(0.2, 1.5)

        def poly(xi):
            th = np.arctan((xi - ref.nu) / ref.gamma)
            return 4.0 + th - 0.3 * th**2 + 0.1 * th**5  # positive on (-pi/2, pi/2)

        density, _ = _grid_law(DensityGrid(nodes, poly(nodes), 0.0, ref=ref))
        inside = rng.uniform(nodes[0], nodes[-1], 1000)
        np.testing.assert_allclose(density(inside), poly(inside), rtol=1e-9)
        outside = np.array([nodes[0] - 1.0, nodes[-1] + 1.0, np.nan])
        np.testing.assert_array_equal(density(outside), 0.0)

    def test_tabulated_nodes_must_stay_distinct_in_theta(self):
        # distinct doubles whose arctan parameters round to the same value
        nodes = np.array([1e20, 1e21, 1e22])
        grid = DensityGrid(nodes, np.ones(3), 0.0, ref=HPoint(0.0, 1.0))
        with pytest.raises(ValueError):
            pf_density_step(0.5, grid)

    def test_coarse_grid_warns(self):
        grid = cauchy_grid(HPoint(1.0, 1.0), n_nodes=8)
        with pytest.warns(GridResolutionWarning):
            pf_density_step(0.5, grid)


class TestSampling:
    def test_bit_identical_reproduction(self):
        a = sample_cauchy(HPoint(0, 1), 5000, seed=7)
        b = sample_cauchy(HPoint(0, 1), 5000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample_cauchy(HPoint(0, 1), 1000, seed=1)
        b = sample_cauchy(HPoint(0, 1), 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_median_accuracy_at_scale(self):
        sample = sample_cauchy(HPoint(0.0, 1.0), 10**6, seed=42)
        # 3 asymptotic standard errors of the Cauchy median
        assert abs(fit_cauchy(sample).nu) < 3.0 * (math.pi / 2.0) / math.sqrt(10**6)

    def test_half_iqr_accuracy_at_scale(self):
        sample = sample_cauchy(HPoint(5.0, 2.0), 10**6, seed=11)
        assert fit_cauchy(sample).gamma == pytest.approx(2.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_cauchy(HPoint(0, 1), 0, seed=0)

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_blocks_continue_one_stream(self, cpus, n):
        # the single-stream formula: point i from the i-th double of one Philox
        p = HPoint(0.3, 1.7)
        stream = np.random.SeedSequence(11, spawn_key=(0,))
        u = np.random.Generator(np.random.Philox(stream)).random(n)
        expected = p.nu + p.gamma * np.tan(np.pi * (u - 0.5))
        assert sample_cauchy(p, n, seed=11).tobytes() == expected.tobytes()


class TestFitting:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            fit_cauchy(np.zeros(999))

    def test_coinciding_quartiles_raise(self):
        # no scale fits a sample whose quartiles are the same double
        with pytest.raises(SingularInputError):
            fit_cauchy(np.full(2000, 3.0))

    def test_quartiles_equal_numpy_quantile(self):
        # np.quantile's default rule, bit for bit, at sizes of every residue
        # mod 4 and around a block; ties, and -0.0 tied with 0.0, included
        rng = np.random.default_rng(8)
        for n in [*range(1000, 1101), 65535, 65536, 65537, 10**5, 10**6 + 3]:
            assert_same_quartiles(rng.standard_cauchy(n))
            assert_same_quartiles(rng.integers(-3, 4, n) * 0.7)
            assert_same_quartiles(rng.choice([-0.0, 0.0, 1.5, -2.5], n, p=[0.4, 0.4, 0.1, 0.1]))

    @pytest.mark.parametrize("size", [1000, _BLOCK + 1, 10**5])
    def test_quartiles_of_a_cut_that_leaves_out_every_nan(self, size):
        # dropped points, NaN, among the first and the last, past every
        # partition's kth and in a quarter of the sample
        rng = np.random.default_rng(size)
        points = rng.standard_cauchy(size)
        for hits in ([0, size - 1], rng.integers(0, size, size // 4)):
            dropped = points.copy()
            dropped[hits] = np.nan
            kept = dropped[~np.isnan(dropped)]
            expected = np.quantile(kept, [0.25, 0.5, 0.75])
            assert _quartiles(dropped, kept.size).tobytes() == expected.tobytes()

    def test_fit_of_a_sample_with_nan_raises(self):
        # rejected before any quartile is read
        points = sample_cauchy(HPoint(0.0, 1.0), 5000, seed=9)
        points[[17, 4000]] = np.nan
        with pytest.raises(SingularInputError, match="sample that holds NaN"):
            fit_cauchy(points)

    @pytest.mark.parametrize("n", [10_000, 12_345, 70_001])
    def test_fit_does_not_depend_on_the_order_of_the_points(self, n):
        sample = sample_cauchy(HPoint(-0.2, 0.8), n, seed=n)
        shuffled = np.random.default_rng(n).permutation(sample)
        fit, fit_shuffled = fit_cauchy(sample), fit_cauchy(shuffled)
        assert (np.array([fit.nu, fit.gamma]).tobytes()
                == np.array([fit_shuffled.nu, fit_shuffled.gamma]).tobytes())

    def test_fit_leaves_the_points_in_their_order(self):
        sample = sample_cauchy(HPoint(0.0, 1.0), 5000, seed=4)
        before = sample.copy()
        fit_cauchy(sample)
        assert sample.tobytes() == before.tobytes()

    def test_quantile_plugin_recovers_parameters(self):
        # the law's quartiles sit exactly at nu +/- gamma
        p = HPoint(0.0, 1.0)
        assert cauchy_cdf(p, -1.0) == pytest.approx(0.25, abs=1e-15)
        assert cauchy_cdf(p, 1.0) == pytest.approx(0.75, abs=1e-15)
        u = np.arange(1, 10**5) / 10**5
        fit = fit_cauchy(cauchy_quantile(p, u))
        assert fit.nu == pytest.approx(0.0, abs=1e-4)
        assert fit.gamma == pytest.approx(1.0, abs=1e-4)

    def test_mle_large_sample(self):
        sample = sample_cauchy(HPoint(3.0, 2.0), 10**6, seed=5)
        fit = sorted_likelihood_fit(sample)
        assert fit.nu == pytest.approx(3.0, rel=0.01)
        assert fit.gamma == pytest.approx(2.0, rel=0.01)

    def test_mle_beats_quantile_fit_on_average(self):
        # the check's two fits of the same pushed samples, against the law
        # they are drawn from
        squares = {"median_iqr": 0.0, "mle": 0.0}
        for seed in range(20):
            for method in squares:
                report = pf_monte_carlo_check(0.5, HPoint(3.0, 2.0), 10**5, 1, seed, fit_method=method)
                fit, law = report.measured, report.predicted
                squares[method] += (fit.nu - law.nu) ** 2 + (fit.gamma - law.gamma) ** 2
        assert squares["mle"] < squares["median_iqr"]

    def test_mle_iteration_budget(self, monkeypatch):
        sample = sample_cauchy(HPoint(0.0, 1.0), 5000, seed=3)
        monkeypatch.setattr(density, "_MLE_PASSES", 1)
        with pytest.raises(FitConvergenceError, match="did not converge in 1 passes"):
            density._mle_passes(sample, sample.size, HPoint(0.0, 1.0), HPoint(50.0, 100.0))

    def test_mle_converges_from_a_far_frame(self):
        # from the frame C(50, 100) a C(0, 1) sample sits near one point of
        # the circle, |m| about 0.98 at the start, and the fit still reaches
        # the one stationary point within the default budget
        sample = sample_cauchy(HPoint(0.0, 1.0), 5000, seed=3)
        frame = HPoint(50.0, 100.0)
        fit = density._mle_passes((sample - frame.nu) / frame.gamma, sample.size, frame, frame)
        reference = sorted_likelihood_fit(sample)
        assert fit.nu == pytest.approx(reference.nu, abs=1e-9)
        assert fit.gamma == pytest.approx(reference.gamma, rel=1e-9)
        assert_stationary(sample, fit)

    def test_mle_raises_where_the_circle_mean_leaves_the_disk(self):
        # every q overflows, so every zeta is 1: no law of H has that mean
        with pytest.raises(FitConvergenceError, match="left the half-plane"):
            density._mle_passes(np.full(2000, 1e300), 2000, HPoint(0.0, 1.0), HPoint(0.0, 1.0))

    @pytest.mark.parametrize("n", [1000, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_likelihood_sums_equal_exact_sums(self, n):
        # outliers out to where q = d^2 + gamma^2 nears the largest double
        rng = np.random.default_rng(n)
        points = rng.standard_cauchy(n)
        points[rng.integers(0, n, 6)] = [1e8, -1e8, 1e100, -1e150, 1e150, 3e153]
        for nu, gamma in [(0.0, 1.0), (0.3, 0.5), (-2.0, 7.0), (1e3, 1e-3)]:
            assert_exact_circle_mean(points, nu, gamma)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mle_fit_is_the_stationary_point(self, seed):
        # the fsum circle mean at the fit, over samples across the float
        # range with outliers whose q overflows
        worst, passes = check_likelihood_fits(10, seed)
        assert worst < 1.0
        assert max(passes) <= 10

    @pytest.mark.parametrize("outliers", [[1e160, -1e160], [1e300]])
    def test_mle_fits_past_outliers_whose_q_overflows(self, outliers):
        # such a point adds 0 to both circle sums, the limit zeta = 1, as one
        # whose q is finite adds next to nothing; d^2 overflows on the way
        # with no warning
        sample = sample_cauchy(HPoint(0.0, 1.0), 10_000, seed=7)
        far, near = sample.copy(), sample.copy()
        far[:len(outliers)] = outliers
        near[:len(outliers)] = np.sign(outliers) * 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_exact_circle_mean(far, 0.0, 1.0)
            fit = sorted_likelihood_fit(far)
        reference = sorted_likelihood_fit(near)
        assert fit.nu == pytest.approx(reference.nu, rel=1e-12)
        assert fit.gamma == pytest.approx(reference.gamma, rel=1e-12)

    @pytest.mark.parametrize("outliers", [[1e300], [-1e300, 1e300], [-1.7e308, -1e300]])
    def test_mle_fits_past_outliers_beyond_dbl_max_quartile_scales(self, outliers):
        # in the frame of a C(0, 1e-10) sample such a point standardizes to
        # +-inf; it adds 0 to both circle sums, as one at 1e150 quartile
        # scales adds next to nothing, with no warning
        sample = sample_cauchy(HPoint(0.0, 1e-10), 5000, seed=3)
        far, near = sample.copy(), sample.copy()
        far[:len(outliers)] = outliers
        near[:len(outliers)] = np.sign(outliers) * 1e140
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = sorted_likelihood_fit(far)
        reference = sorted_likelihood_fit(near)
        assert fit.nu == pytest.approx(reference.nu, rel=1e-12)
        assert fit.gamma == pytest.approx(reference.gamma, rel=1e-12)

    @pytest.mark.parametrize(
        "nu, gamma", [(1e5, 1e-3), (1e3, 1e-6), (1e8, 1e-2), (1e300, 1e290)]
    )
    def test_mle_converges_far_from_the_origin(self, nu, gamma):
        # a small scale far from 0 once stalled the absolute gradient test;
        # the oracle is the fit of the same uniforms drawn as C(0, 1)
        sample = sample_cauchy(HPoint(nu, gamma), 2000, seed=1)
        standard = sample_cauchy(HPoint(0.0, 1.0), 2000, seed=1)
        for size in (2000, 1000):
            fit = sorted_likelihood_fit(sample[:size])
            reference = sorted_likelihood_fit(standard[:size])
            assert (fit.nu - nu) / gamma == pytest.approx(reference.nu, abs=1e-5)
            assert fit.gamma / gamma == pytest.approx(reference.gamma, rel=1e-5)


class TestMonteCarloPushForward:
    def test_single_step_matches_prediction(self):
        report = pf_monte_carlo_check(0.5, HPoint(1, 1), 10**5, 1, seed=42)
        assert report.predicted == HPoint(0.25, 0.75)
        assert report.within_tolerance
        assert report.n_dropped == 0

    def test_stationary_input_stays_put(self):
        report = pf_monte_carlo_check(0.5, HPoint(0, 1), 10**5, 10, seed=1)
        assert report.predicted.nu == pytest.approx(0.0, abs=1e-15)
        assert report.predicted.gamma == pytest.approx(1.0, rel=1e-15)
        assert report.within_tolerance

    def test_contraction_toward_fixed_point(self):
        # |2*alpha - 1|^20 ~ 3.7e-5 leaves the prediction this close to (0, 2)
        report = pf_monte_carlo_check(0.8, HPoint(5, 3), 10**5, 20, seed=9)
        assert report.predicted.nu == pytest.approx(0.0, abs=1e-3)
        assert report.predicted.gamma == pytest.approx(2.0, abs=1e-3)
        assert report.within_tolerance

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            pf_monte_carlo_check(0.5, HPoint(1, 1), 10**3, 1, seed=0)

    def test_pole_guard_overflow_raises(self):
        # about half of a C(0, 1e-300) sample lies inside the pole guard
        with pytest.raises(PoleGuardError):
            pf_monte_carlo_check(0.5, HPoint(0, 1e-300), 10**4, 1, seed=0)

    def test_pole_hits_are_dropped_and_counted(self):
        # zeros are hit at the first step, +-1 (mapped to 0) at the second;
        # the hits straddle a block boundary
        rng = np.random.default_rng(4)
        points = rng.standard_cauchy(70_000)
        points[[5, 66_000]] = 0.0
        points[[65_535, 65_536]] = [1.0, -1.0]
        assert assert_same_push_forward(0.5, points, 3)[1] == 4

    @pytest.mark.parametrize("n", [1000, _BLOCK - 1, _BLOCK, 2 * _BLOCK])
    def test_sizes_around_a_block(self, n):
        # hits in the first, the last and (where there is one) the second block
        points = np.random.default_rng(n).standard_cauchy(n)
        points[[0, n - 1, n // 2]] = [0.0, 1.0, -1.0]
        points[n // 3] = 0.0
        assert assert_same_push_forward(0.3, points, 4)[1] == 4

    def test_pole_hit_of_the_last_step_is_kept(self):
        # the guard applies before a step: +-1 maps to 0 at the last step,
        # which nothing steps from, so the zeros stay and are not counted
        points = np.random.default_rng(5).standard_cauchy(3000)
        points[[7, 2999]] = [1.0, -1.0]
        pushed, dropped = assert_same_push_forward(0.5, points, 1)
        assert dropped == 0
        assert pushed[[7, 2999]].tolist() == [0.0, 0.0]
        # one step more, and they are dropped and counted
        assert assert_same_push_forward(0.5, points, 2)[1] == 2

    def test_nan_is_dropped_and_counted(self):
        # NaN fails |x| >= POLE_EPS, as before every step
        points = np.random.default_rng(6).standard_cauchy(_BLOCK + 10)
        points[[0, 100, _BLOCK + 9]] = np.nan
        pushed, dropped = assert_same_push_forward(0.7, points, 3)
        assert dropped == 3
        assert np.isfinite(pushed).all()

    def test_random_cases_equal_the_loop(self):
        # some cases hold pole hits, so the drop and its count are checked too
        assert check_monte_carlo_kernels(40, seed=12)[0] > 0

    def test_pole_hits_on_every_cpu_equal_the_serial_push(self, cpus, monkeypatch):
        # hits in the first, a middle and the last of ten blocks, at each step
        points = np.random.default_rng(8).standard_cauchy(9 * _BLOCK + 17)
        points[[0, 4 * _BLOCK + 3, 9 * _BLOCK + 16]] = [0.0, np.nan, 0.0]
        points[[_BLOCK - 1, 5 * _BLOCK, 9 * _BLOCK]] = [1.0, -1.0, 1.0]
        expected = serially(monkeypatch, lambda: _push_forward(0.5, points.copy(), 3))
        pushed, dropped = assert_same_push_forward(0.5, points, 3)
        assert dropped == expected[1] == 6
        assert pushed.tobytes() == kept_points(expected[0]).tobytes()

    @pytest.mark.parametrize("method", ["median_iqr", "mle"])
    def test_check_on_every_cpu_equals_the_serial_check(self, cpus, method, monkeypatch):
        def check():
            return pf_monte_carlo_check(0.4, HPoint(-0.7, 0.9), 9 * _BLOCK + 7, 3, seed=5,
                                        fit_method=method)

        assert check() == serially(monkeypatch, check)

    @pytest.mark.parametrize("n", [1000, 10**4, 12_345, 5 * _BLOCK, 131_075])
    @pytest.mark.parametrize("law, drops", [
        (HPoint(0.2, 1.3), "none"),
        (HPoint(0.0, 1.6e-296), "some"),  # from n = 10**4 on, within the guard's limit
        (HPoint(0.0, 1e-298), "too many"),
    ], ids=["no-hits", "hits", "too-many-hits"])
    def test_error_ratio_equals_the_sorted_reference(self, cpus, n, law, drops):
        # nine seeds, more than any of the patched CPU counts
        dropped = assert_same_error_ratio(0.6, law, n, tuple(range(20, 29)))
        assert {"none": dropped == 0, "some": dropped > 0 or n == 1000, "too many": dropped == -1}[drops]

    def test_error_ratio_equals_the_sorted_reference_on_random_cases(self):
        assert check_error_ratios(20, seed=14)[0] > 0

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8], indirect=True, ids=lambda n: f"{n}cpus")
    @pytest.mark.parametrize("law", [HPoint(0.3, 1.2), HPoint(0.0, 1.6e-296)], ids=["no-hits", "hits"])
    @pytest.mark.parametrize("n", [10**4, 131_075])
    def test_error_ratio_memory_holds_one_sample_per_worker(self, cpus, law, n):
        # each of min(cpus, seeds) workers holds its seed's 2n points and one
        # block of scratch: a row of doubles and one of flags, which the push
        # inverts in place where it drops points.  16 KiB more per worker
        # covers its thread's own objects (about 6 KB of locks, events and
        # hooks under tracemalloc), and 32 KiB the rest; a second buffer of
        # 2n points, 160 KB at n = 1e4, does not fit in that slack
        seeds = range(6)
        warm_up()
        tracemalloc.start()
        try:
            mc_error_ratio(0.5, law, n, seeds=seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = min(cpus, len(seeds))
        assert peak < workers * (16 * n + 9 * min(2 * n, _BLOCK) + 2**14) + 2**15

    def test_error_ratio_of_a_wide_law(self):
        # the fit errors near 1e157 overflowed once squared; at either scale
        # each pushed point is 0.5 * x, rounded alike
        def ratio(gamma):
            return mc_error_ratio(0.5, HPoint(1.0, gamma), 10**4, seeds=range(4))

        assert ratio(1e160) == pytest.approx(ratio(1e150), rel=1e-9)

    def test_error_ratio_keeps_the_pole_guard_rule(self):
        # 54 of the 10**4 points of C(0, 1e-298) drawn from seed 1 hit the
        # pole guard, and 104 of the 2 * 10**4 of the ratio's sample
        with pytest.raises(PoleGuardError, match="54 of 10000 samples"):
            pf_monte_carlo_check(0.5, HPoint(0.0, 1e-298), 10**4, 1, seed=1)
        with pytest.raises(PoleGuardError, match="104 of 20000 samples"):
            mc_error_ratio(0.5, HPoint(0.0, 1e-298), 10**4, seeds=[1])

    def test_error_ratio_needs_a_seed_and_enough_points(self):
        with pytest.raises(ValueError, match="seed"):
            mc_error_ratio(0.5, HPoint(1.0, 1.0), 10**4, seeds=[])
        with pytest.raises(ValueError, match="at least 1000 points"):
            mc_error_ratio(0.5, HPoint(1.0, 1.0), 999, seeds=[1])

    @pytest.mark.parametrize("cpus", [1, 2, 4, 8], indirect=True, ids=lambda n: f"{n}cpus")
    @pytest.mark.parametrize("method", ["median_iqr", "mle"])
    def test_memory_holds_one_sample_copy(self, cpus, method):
        # the sample, pushed forward and fitted in place (for mle
        # standardized by the predicted law as it is pushed); no temporary
        # of the sample's size, however many steps or passes, and no more
        # scratch on more CPUs
        n = 10**6
        warm_up()
        tracemalloc.start()
        try:
            pf_monte_carlo_check(0.5, HPoint(0.3, 1.2), n, 7, seed=3, fit_method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n

    @pytest.mark.parametrize("cpus", [1, 2, 4, 8], indirect=True, ids=lambda n: f"{n}cpus")
    def test_memory_with_pole_hits_holds_one_sample_copy(self, cpus):
        n = 10**6
        warm_up()
        tracemalloc.start()
        try:
            report = pf_monte_carlo_check(0.5, HPoint(0.0, 1e-296), n, 3, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_dropped > 0
        assert peak < 1.5 * 8 * n

    @pytest.mark.parametrize("cpus", [1, 2, 4, 8], indirect=True, ids=lambda n: f"{n}cpus")
    @pytest.mark.parametrize("law", [HPoint(0.3, 1.2), HPoint(0.0, 1e-296)], ids=["no-hits", "hits"])
    @pytest.mark.parametrize("n", [10**6, 3 * 10**6])
    def test_circle_check_memory_holds_one_block_per_worker(self, cpus, law, n):
        # no sample: each worker's scratch is a block of two rows of doubles
        # and one of flags, which the push inverts in place where it drops
        # points; 32 KiB more covers the rest
        warm_up()
        tracemalloc.start()
        try:
            report = pf_circle_check(0.5, law, n, 3, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.n_dropped > 0) == (law.nu == 0.0)
        assert peak < cpus * 17 * _BLOCK + 2**15

    def test_unknown_fit_method_fails_before_drawing(self, monkeypatch):
        monkeypatch.setattr(density, "_draw_block", mock.Mock(side_effect=AssertionError("drew")))
        with pytest.raises(ValueError, match="unknown fit method 'bogus'"):
            pf_monte_carlo_check(0.5, HPoint(1.0, 1.0), 10**6, 3, seed=1, fit_method="bogus")

    @pytest.mark.parametrize("n", [10**4, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 10**6])
    def test_circle_sums_equal_the_reference(self, n):
        for steps in (1, 2, 5, 10):
            assert assert_same_circle_sums(0.35, HPoint(0.4, 1.7), n, steps, 100 + steps, [1, 2, 3, 8]) == 0

    @pytest.mark.parametrize("law, seed", [
        (HPoint(0.0, 1e-296), 3),  # within the guard's limit
        (HPoint(0.0, 1e-298), 1),  # too many: the same PoleGuardError
    ], ids=["hits", "too-many-hits"])
    def test_circle_sums_with_pole_hits_equal_the_reference(self, law, seed):
        dropped = assert_same_circle_sums(0.5, law, 10**6, 3, seed, [1, 2, 3, 8])
        assert dropped > 0 if law.gamma > 1e-297 else dropped == -1

    def test_circle_sums_equal_the_reference_on_random_cases(self):
        assert check_circle_sums(40, seed=13)[0] > 0

    def test_circle_check_on_every_cpu_equals_the_serial_check(self, cpus, monkeypatch):
        def check():
            return pf_circle_check(0.4, HPoint(-0.7, 0.9), 9 * _BLOCK + 7, 3, seed=5)

        assert report_bits(check()) == report_bits(serially(monkeypatch, check))

    @pytest.mark.parametrize("args", [
        (0.3, HPoint(-2.0, 0.5), 10**5, 5, 8), (0.5, HPoint(0.0, 1e-296), 10**6, 3, 3),
    ], ids=["no-hits", "hits"])
    def test_circle_check_reports_its_statistic_and_the_moebius_fit(self, args):
        # n*|m|^2 for the mean m over the kept points at the predicted law,
        # and the law at which m is the exact mean, from the reference sums
        report = pf_circle_check(*args)
        (sum_r, sum_dr), dropped, _ = reference_circle_sums(*args)
        kept = args[2] - dropped
        m = complex(1.0 - 2.0 * sum_r / kept, -2.0 * sum_dr / kept)
        theta = complex(report.predicted.nu, report.predicted.gamma)
        fitted = (theta - theta.conjugate() * m) / (1.0 - m)
        assert report.n_dropped == dropped and (dropped > 0) == (args[1].nu == 0.0)
        assert report.statistic == pytest.approx(kept * abs(m) ** 2, rel=1e-12)
        assert report.measured.nu == pytest.approx(fitted.real, rel=1e-12, abs=1e-12 * abs(theta))
        assert report.measured.gamma == pytest.approx(fitted.imag, rel=1e-12)
        assert report.stderr == pytest.approx(math.sqrt(2.0) * report.predicted.gamma / math.sqrt(kept))
        assert report.tolerance == 14.0 and report.within_tolerance

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_circle_fit_is_near_the_likelihood_fit(self, n):
        # a scoring step from the predicted law lands within 8*gamma'/n of the
        # likelihood fit of the same kept points (measured: at most 6.8 over
        # 30 seeds of each case and size)
        for alpha, law, steps in [(0.5, HPoint(1.0, 1.0), 1), (0.3, HPoint(-2.0, 0.5), 5)]:
            for seed in range(3):
                report = pf_circle_check(alpha, law, n, steps, seed)
                pushed, _ = density._pushed_sample(alpha, law, n, steps, seed)
                mle = sorted_likelihood_fit(kept_points(pushed))
                bound = 8.0 * report.predicted.gamma / n
                assert abs(report.measured.nu - mle.nu) < bound, (alpha, law, steps, seed)
                assert abs(report.measured.gamma - mle.gamma) < bound, (alpha, law, steps, seed)

    def test_circle_check_raises_the_pole_guard_error_of_the_whole_sample(self, cpus):
        # 54 of the 10**4 points of C(0, 1e-298) drawn from seed 1 hit the guard
        args = (0.5, HPoint(0.0, 1e-298), 10**4, 1, 1)
        with pytest.raises(PoleGuardError) as whole:
            pf_monte_carlo_check(*args)
        with pytest.raises(PoleGuardError, match="54 of 10000 samples") as streamed:
            pf_circle_check(*args)
        assert str(streamed.value) == str(whole.value)

    @pytest.mark.parametrize("steps", [1, 10])
    @pytest.mark.parametrize("law, seed", [(HPoint(-0.7, 0.9), 5), (HPoint(0.0, 1e-296), 3)],
                             ids=["no-hits", "hits"])
    def test_likelihood_check_is_the_sorted_fit(self, law, seed, steps):
        # nine blocks and more, so that 8 CPUs each take blocks; the fit has
        # the same bits on each CPU count (43 points dropped in the hits case)
        dropped = assert_likelihood_check_is_the_sorted_fit(0.5, law, 9 * _BLOCK + 7, steps, seed, [1, 2, 4, 8])
        assert (dropped > 0) == (law.nu == 0.0)

    def test_likelihood_check_is_the_sorted_fit_on_random_cases(self):
        assert check_likelihood_checks(20, seed=15)[0] > 0

    @pytest.mark.parametrize("args", [
        (0.3, HPoint(-2.0, 0.5), 10**5, 5, 8), (0.5, HPoint(0.0, 1e-296), 10**5, 10, 3),
    ], ids=["no-hits", "hits"])
    def test_likelihood_check_steps_first_to_the_circle_fit(self, args, monkeypatch):
        # the first Moebius step of the likelihood route, from the predicted
        # law, is the circle check's fitted law bit for bit, and the passes
        # over the held sample start there, in the predicted law's frame
        steps, starts = [], []
        moebius, mean = density._moebius, density._circle_mean

        def step(nu, gamma, m):
            steps.append(moebius(nu, gamma, m))
            return steps[-1]

        def start(points, nu, gamma, size):
            starts.append((nu, gamma))
            return mean(points, nu, gamma, size)

        monkeypatch.setattr(density, "_moebius", step)
        monkeypatch.setattr(density, "_circle_mean", start)
        law = pf_monte_carlo_check(*args, fit_method="mle").predicted
        first = steps[0]
        circle = pf_circle_check(*args).measured
        assert np.array(first).tobytes() == np.array([circle.nu, circle.gamma]).tobytes()
        assert starts[0] == ((circle.nu - law.nu) / law.gamma, circle.gamma / law.gamma)
        assert len(starts) > 1

    @pytest.mark.parametrize("scale, shift", [(1.01, 0.0), (10.0, 0.0), (1.0, 5.0), (1.0, -5.0), (10.0, 5.0)])
    def test_likelihood_check_reaches_the_fit_from_a_wrong_prediction(self, scale, shift, monkeypatch):
        # the circle mean's zero is unique, so a start at a prediction with
        # gamma' 1% or 10 times too wide, or nu' 5*gamma' off, still reaches
        # the sorted fit of the kept points
        args = (0.3, HPoint(-2.0, 0.5), 10**5, 5, 8)
        exact = density.iterate_parameter_map
        gamma = exact(args[0], args[1], args[3])[-1].gamma
        pushed, _ = density._pushed_sample(*args)
        reference = sorted_likelihood_fit(kept_points(pushed))

        def wrong(alpha, p, steps):
            *head, last = exact(alpha, p, steps)
            return [*head, HPoint(last.nu + shift * last.gamma, scale * last.gamma)]

        monkeypatch.setattr(density, "iterate_parameter_map", wrong)
        fit = pf_monte_carlo_check(*args, fit_method="mle").measured
        assert abs(fit.nu - reference.nu) <= 1e-9 * gamma
        assert abs(fit.gamma - reference.gamma) <= 1e-9 * gamma

    def test_circle_mean_of_no_law_raises(self, monkeypatch):
        # predicted 1e200 times too narrow, every offset's square overflows:
        # each point adds 0 to both sums, m = 1, and no law of H has that mean
        exact = density.iterate_parameter_map

        def narrow(alpha, p, steps):
            *head, last = exact(alpha, p, steps)
            return [*head, HPoint(last.nu, 1e-200 * last.gamma)]

        monkeypatch.setattr(density, "iterate_parameter_map", narrow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInputError, match=r"circle mean \(1-0j\)") as circle:
                pf_circle_check(0.5, HPoint(1.0, 1.0), 10**4, 1, seed=0)
            # the likelihood route starts at the same mean, and raises the same error
            with pytest.raises(SingularInputError) as likelihood:
                pf_monte_carlo_check(0.5, HPoint(1.0, 1.0), 10**4, 1, seed=0, fit_method="mle")
        assert str(likelihood.value) == str(circle.value)

    def test_sample_coarser_than_its_law_fails_the_check(self):
        # the pushed points of a law 1.6e-16 wide at 3 lie on doubles about
        # 2.5 of the stepped law's widths apart, which no Cauchy law of that
        # width matches
        report = pf_circle_check(0.5, HPoint(3.0, 1.6e-16), 10_000, 1, 42)
        assert report.statistic > 50 * report.tolerance
        assert not report.within_tolerance

    @pytest.mark.parametrize("alpha, law", [
        (0.5, HPoint(1.0, 1e-12)), (0.5, HPoint(0.0, 1.1e292)), (1e-12, HPoint(1.0, 1e292)),
    ])
    def test_circle_check_is_finite_across_the_float_range(self, alpha, law):
        # offsets beyond DBL_MAX standard widths, and squares that overflow,
        # add 0 to both sums with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pf_circle_check(alpha, law, 10**4, 3, seed=2)
        assert all(math.isfinite(v) for v in (report.measured.nu, report.measured.gamma, report.statistic))
        assert report.within_tolerance


class TestBlocks:
    def test_results_come_in_block_order(self, cpus):
        size = 9 * _BLOCK + 1
        assert _each_block(size, lambda rows, lo: lo) == list(range(0, size, _BLOCK))

    def test_every_block_is_claimed_once_under_frequent_switches(self, monkeypatch):
        # eight workers on fewer cores, switching threads every microsecond
        monkeypatch.setattr(density, "_cpu_count", lambda: 8)
        claimed = []

        def claim(rows, lo):
            claimed.append(lo)
            return lo

        size = 400 * _BLOCK
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _each_block(size, claim)
        finally:
            sys.setswitchinterval(interval)
        assert results == sorted(claimed) == list(range(0, size, _BLOCK))

    def test_each_worker_gets_its_own_scratch_rows(self, cpus):
        def fill(rows, lo):
            floats, flags = rows
            assert floats.dtype == float and flags.dtype == bool
            floats.fill(lo)
            return float(floats.min()) == float(floats.max()) == lo

        assert all(_each_block(9 * _BLOCK, fill, (float, bool)))

    def test_first_failing_block_raises_and_no_thread_outlives_the_call(self, cpus):
        # block 3 fails after block 4 has failed on another thread
        before = threading.active_count()

        def func(rows, lo):
            if lo == 3 * _BLOCK:
                time.sleep(0.05)
            if lo in (3 * _BLOCK, 4 * _BLOCK):
                raise ZeroDivisionError(f"block {lo // _BLOCK}")
            return lo

        with pytest.raises(ZeroDivisionError, match="block 3"):
            _each_block(10 * _BLOCK, func)
        assert threading.active_count() == before

    def test_callers_error_state_holds_in_every_block(self, cpus):
        with np.errstate(all="raise"):
            states = _each_block(10 * _BLOCK, lambda rows, lo: np.geterr())
        assert states == [dict.fromkeys(["divide", "over", "under", "invalid"], "raise")] * 10
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _each_block(10 * _BLOCK, lambda rows, lo: np.divide(1.0, np.zeros(3)))


class TestErgodicity:
    def test_ks_helper_on_exact_quantiles(self):
        p = HPoint(0.0, 1.0)
        u = np.arange(1, 2001) / 2001.0
        assert ks_distance(cauchy_quantile(p, u), p) < 1.0 / 2000.0

    @pytest.mark.parametrize("p", [HPoint(0.0, 1.0), HPoint(-0.3, 2.5)])
    def test_ks_matches_direct_formula(self, p):
        samples = np.random.default_rng(7).standard_cauchy(100_001) * 1.7 + 0.4
        ordered = np.sort(samples)
        n = ordered.size
        cdf = cauchy_cdf(p, ordered)
        expected = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n))
        assert ks_distance(samples, p) == float(expected)

    @pytest.mark.parametrize("empty", [[], np.array([])])
    def test_ks_of_an_empty_sample(self, empty):
        # rejected before any arithmetic: no warning, no numpy reduction error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one point"):
                ks_distance(empty, HPoint(0.0, 1.0))

    def test_long_orbit_matches_invariant_law(self):
        report = ergodic_orbit_check(0.5, math.sqrt(2.0), 2 * 10**5)
        assert report.ks < 0.01
        assert report.invariant.gamma == pytest.approx(1.0)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            ergodic_orbit_check(0.5, math.sqrt(2.0), 10**4)

    def test_degenerate_seed_is_flagged(self):
        # +/-1 reach the pole in two steps; the orbit cannot be continued
        with pytest.raises(OrbitTruncationError):
            ergodic_orbit_check(0.5, 1.0, 10**5)
