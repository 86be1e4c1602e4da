"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line in the terminal summary (see conftest).
Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest
from conftest import record_criterion

from boolemaps import (
    CanonicalPoint,
    HPoint,
    apply_complex_structure,
    canonical_form_coefficient,
    convergence_bound_check,
    converge_to_fixed_point,
    ergodic_orbit_check,
    finite_difference_jacobian,
    fisher_metric,
    fisher_metric_quadrature,
    fixed_point,
    invariant_scale,
    jacobian_analytic,
    lie_derivative_metric,
    lie_derivative_two_form,
    mc_error_ratio,
    metric_inner,
    parameter_step,
    pf_closed_form_check,
    pf_density_step,
    pf_monte_carlo_check,
    picture_agreement,
    symplectic_defect,
    symplectic_form,
    two_form_value,
    verify_conformal_pullback,
)
from boolemaps.density import cauchy_grid
from boolemaps.geometry import KILLING_FIELD_NAMES

ALPHA_LATTICE = (0.2, 0.5, 0.8)
NU_LATTICE = (-2.0, 0.0, 2.0)
GAMMA_LATTICE = (0.5, 1.0, 3.0)
ALPHA_SWEEP = tuple(round(0.1 * k, 1) for k in range(1, 10))
METRIC_GRID = [(nu, g) for nu in (-2, -1, 0, 1, 2) for g in (0.5, 1, 2, 3, 4)]


def test_criterion_1_exact_transfer_reduction():
    started = time.perf_counter()
    worst = 0.0
    for alpha in ALPHA_LATTICE:
        for nu in NU_LATTICE:
            for gamma in GAMMA_LATTICE:
                worst = max(worst, pf_closed_form_check(alpha, HPoint(nu, gamma)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 5.0
    record_criterion(
        "1 exact transfer reduction",
        ok,
        f"max sup_error {worst:.2e} over 27-point lattice in {elapsed:.2f}s",
    )
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_2_invariant_density_is_fixed():
    worst = 0.0
    for alpha in ALPHA_LATTICE:
        grid = cauchy_grid(fixed_point(alpha))
        stepped = pf_density_step(alpha, grid)
        worst = max(worst, float(np.max(np.abs(stepped.values / grid.values - 1.0))))
    record_criterion(
        "2 invariant density fixed", worst < 1e-10, f"max pointwise rel err {worst:.2e}"
    )
    assert worst < 1e-10


def test_criterion_3_fixed_point_and_stability():
    rng = np.random.Generator(np.random.Philox(2024))
    worst_idem = 0.0
    worst_jac = 0.0
    worst_fd = 0.0
    worst_steps = 0
    for alpha in ALPHA_SWEEP:
        fp = fixed_point(alpha)
        stepped = parameter_step(alpha, fp)
        worst_idem = max(
            worst_idem,
            abs(stepped.nu),
            abs(stepped.gamma - fp.gamma) / fp.gamma,
        )
        lam = 2.0 * alpha - 1.0
        jac = jacobian_analytic(alpha, fp)
        worst_jac = max(worst_jac, float(np.max(np.abs(jac - np.eye(2) * lam))))

        def step(a, b, alpha=alpha):
            out = parameter_step(alpha, HPoint(a, b))
            return out.nu, out.gamma

        fd = finite_difference_jacobian(step, fp.nu, fp.gamma)
        worst_fd = max(worst_fd, float(np.max(np.abs(jac - fd))))
        for _ in range(200):
            seed = HPoint(rng.uniform(-10, 10), rng.uniform(1e-3, 10))
            run = converge_to_fixed_point(alpha, seed, tol=1e-8, max_steps=500)
            assert run.converged, f"alpha={alpha} seed={seed} did not converge"
            worst_steps = max(worst_steps, run.steps)
    ok = worst_idem <= 1e-14 and worst_jac <= 1e-12 and worst_fd <= 1e-6
    record_criterion(
        "3 fixed point and stability",
        ok,
        f"idempotence {worst_idem:.1e}, jacobian gap {worst_jac:.1e}, "
        f"FD gap {worst_fd:.1e}, max {worst_steps} steps over 1800 seeds",
    )
    assert worst_idem <= 1e-14
    assert worst_jac <= 1e-12
    assert worst_fd <= 1e-6


def test_criterion_4_picture_equivalence():
    rng = np.random.Generator(np.random.Philox(4))
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10**4):
        alpha = rng.uniform(0.05, 0.95)
        x = HPoint(rng.uniform(-5, 5), rng.uniform(0.05, 5))
        worst = max(worst, picture_agreement(alpha, x))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 1.0
    record_criterion(
        "4 picture equivalence",
        ok,
        f"max pairwise gap {worst:.2e} over 1e4 points in {elapsed:.2f}s",
    )
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_5_conformality():
    rng = np.random.Generator(np.random.Philox(5))
    worst_pullback = 0.0
    count = 0
    while count < 100:
        alpha = rng.uniform(0.05, 0.95)
        x = HPoint(rng.uniform(-3, 3), rng.uniform(0.2, 4))
        if math.hypot(x.nu, x.gamma - 1.0) <= 0.1:
            continue
        count += 1
        worst_pullback = max(worst_pullback, verify_conformal_pullback(alpha, x))
    worst_spread = 0.0
    for _ in range(20):
        x = HPoint(rng.uniform(-3, 3), rng.uniform(0.2, 4))
        factors = []
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            # a conformal Jacobian has J^T J = det(J) * Id, so the step pulls
            # g = Id/(2*gamma^2) back to det(J) * (gamma/gamma')^2 times g
            ratio = x.gamma / parameter_step(alpha, x).gamma
            factors.append(float(np.linalg.det(jacobian_analytic(alpha, x))) * ratio * ratio)
        worst_spread = max(worst_spread, max(factors) - min(factors))
    ok = worst_pullback < 1e-5 and worst_spread < 1e-12
    record_criterion(
        "5 conformality",
        ok,
        f"max FD pullback gap {worst_pullback:.2e}, alpha spread {worst_spread:.2e}",
    )
    assert worst_pullback < 1e-5
    assert worst_spread < 1e-12


def test_criterion_6_fisher_metric_quadrature():
    worst = 0.0
    for nu, gamma in METRIC_GRID:
        x = HPoint(nu, gamma)
        numeric = fisher_metric_quadrature(x)
        exact = fisher_metric(x)
        worst = max(
            worst,
            abs(numeric.g_nn - exact.g_nn),
            abs(numeric.g_ng),
            abs(numeric.g_gg - exact.g_gg),
        )
    record_criterion(
        "6 Fisher metric quadrature", worst < 1e-8, f"max entry gap {worst:.2e} on 25-point grid"
    )
    assert worst < 1e-8


def test_criterion_7_killing_and_symplectic_structure():
    worst_lie = 0.0
    worst_canonical = 0.0
    for nu, gamma in METRIC_GRID:
        x = HPoint(nu, gamma)
        for name in KILLING_FIELD_NAMES:
            lie_g = lie_derivative_metric(name, x)
            worst_lie = max(
                worst_lie, abs(lie_g.g_nn), abs(lie_g.g_ng), abs(lie_g.g_gg),
                abs(lie_derivative_two_form(name, x)),
            )
        worst_canonical = max(worst_canonical, abs(canonical_form_coefficient(x) - 1.0))
    rng = np.random.Generator(np.random.Philox(7))
    worst_pairing = 0.0
    for _ in range(100):
        x = HPoint(rng.uniform(-2, 2), rng.uniform(0.5, 3))
        u = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        v = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = two_form_value(symplectic_form(x), u, v)
        rhs = metric_inner(fisher_metric(x), apply_complex_structure(u), v)
        worst_pairing = max(worst_pairing, abs(lhs - rhs))
    defect = symplectic_defect(0.5, CanonicalPoint(1.0, 0.5))
    ok = (
        worst_lie < 1e-6
        and worst_pairing < 1e-14
        and worst_canonical < 1e-14
        and defect > 0.1
    )
    record_criterion(
        "7 Killing/symplectic structure",
        ok,
        f"Lie {worst_lie:.1e}, pairing {worst_pairing:.1e}, "
        f"canonical {worst_canonical:.1e}, defect {defect:.4f} (exact 4/9)",
    )
    assert worst_lie < 1e-6
    assert worst_pairing < 1e-14
    assert worst_canonical < 1e-14
    assert defect > 0.1
    assert defect == pytest.approx(4.0 / 9.0, abs=1e-6)


def test_criterion_8_monte_carlo_consistency():
    started = time.perf_counter()
    report = pf_monte_carlo_check(0.5, HPoint(1.0, 1.0), 10**6, 1, seed=42)
    gap_nu = abs(report.measured.nu - 0.25)
    gap_gamma = abs(report.measured.gamma - 0.75)
    ratio = mc_error_ratio(0.5, HPoint(1.0, 1.0), 4 * 10**5)
    elapsed = time.perf_counter() - started
    ok = gap_nu < 0.01 and gap_gamma < 0.01 and 1.2 <= ratio <= 1.7 and elapsed < 10.0
    record_criterion(
        "8 Monte Carlo consistency",
        ok,
        f"fit gaps ({gap_nu:.2e}, {gap_gamma:.2e}), n^-1/2 ratio {ratio:.3f}, {elapsed:.2f}s",
    )
    assert gap_nu < 0.01
    assert gap_gamma < 0.01
    assert 1.2 <= ratio <= 1.7
    assert elapsed < 10.0


def test_criterion_9_ergodicity():
    started = time.perf_counter()
    results = {}
    for alpha, seed in ((0.5, math.sqrt(2.0)), (0.8, 0.3)):
        results[alpha] = ergodic_orbit_check(alpha, seed, 10**6).ks
    elapsed = time.perf_counter() - started
    worst = max(results.values())
    ok = worst < 0.01 and elapsed < 5.0
    record_criterion(
        "9 ergodicity",
        ok,
        f"KS {results[0.5]:.4f} (alpha=0.5), {results[0.8]:.4f} (alpha=0.8) in {elapsed:.2f}s",
    )
    assert worst < 0.01
    assert elapsed < 5.0


GAMMA0_FACTORS = (0.1, 10.0 ** -0.5, 1.0, 10.0 ** 0.5, 10.0)


def test_criterion_10_convergence_bounds_alpha_02_to_09():
    worst_ratio_margin = 0.0
    for alpha in ALPHA_SWEEP:
        if alpha == 0.1:
            continue  # see the companion test: the claimed bound fails there
        gbar = invariant_scale(alpha)
        for factor in GAMMA0_FACTORS:
            report = convergence_bound_check(alpha, factor * gbar, 40)
            assert report.bound_holds_from_2, (
                f"bound violated at alpha={alpha}, gamma0={factor}*gbar, "
                f"n={report.first_violation}"
            )
            finite = report.ratios[2:][np.isfinite(report.ratios[2:])]
            if finite.size:
                worst_ratio_margin = max(worst_ratio_margin, float(finite.max()) - report.bound)
    # superlinear decay at the balanced parameter: successive ratios collapse
    report = convergence_bound_check(0.5, 2.0, 10)
    ratios = report.ratios[2:][np.isfinite(report.ratios[2:])]
    assert ratios.size >= 2
    assert np.all(np.diff(ratios) < 0.0)
    assert ratios[-1] < 1e-3
    record_criterion(
        "10 convergence bounds (alpha 0.2-0.9, superlinear at 0.5)",
        True,
        f"worst ratio-to-bound margin {worst_ratio_margin:.2e}, "
        f"final balanced ratio {ratios[-1]:.1e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The claimed n>=2 contraction bound is false for alpha=0.1: e.g. from "
        "gamma0 = gbar/sqrt(10) the deviation grows by the factor 1.3987 at "
        "n=2, and from gamma0 = sqrt(10)*gbar by 1.1271 at n=3; both exceed "
        "1-alpha = 0.9.  The one-step ratio is alpha*|1 - 1/(gamma*gbar)|, "
        "which exceeds 1-alpha whenever gamma < sqrt(alpha*(1-alpha)); since "
        "min G_alpha = 2*alpha, iterates are confined above that threshold "
        "only for alpha >= 0.2, so small-alpha transients can expand."
    ),
)
def test_criterion_10_convergence_bounds_alpha_01():
    gbar = invariant_scale(0.1)
    reports = [
        convergence_bound_check(0.1, factor * gbar, 40) for factor in GAMMA0_FACTORS
    ]
    failures = [r for r in reports if not r.bound_holds_from_2]
    record_criterion(
        "10 convergence bounds (alpha=0.1)",
        not failures,
        f"{len(failures)}/5 starting scales violate the claimed bound "
        f"(first at n={failures[0].first_violation}, ratio "
        f"{failures[0].ratios[failures[0].first_violation]:.4f})"
        if failures
        else "all starting scales satisfied the bound",
    )
    assert not failures, "documented transient violation of the claimed bound"
