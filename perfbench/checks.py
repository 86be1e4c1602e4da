"""References and output checks for the benchmark's operations.

Every reference here is computed by the benchmark itself and shares no code
with the timed path.  The rational closed forms are checked against exact
``fractions.Fraction`` arithmetic, rounded to float once at the end.  A check
returns ``None`` when the output is right and a short reason when it is not.

The tolerances are relative to the natural scale of each quantity, so a
check holds over the whole float range:

* ``RTOL`` (1e-12) bounds rounding error in a closed form, several thousand
  ulps, with the scale taken as the sum of the magnitudes of the terms that
  may cancel and floored at the smallest normal float;
* ``FD_RTOL`` (1e-5) bounds the finite-difference oracles, which use a step
  of 1e-6.  Their error model, (h/|z|)^2 + eps*|z|/h, stays below 1e-6 for
  |z| in 1e-3..1e3.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction as Q

import numpy as np

RTOL = 1e-12
FD_RTOL = 1e-5
QUAD_RTOL = 1e-8
#: Sup gap the transfer-sum oracle must meet: the reduction is exact.
SUP_ERROR_TOL = 1e-10
#: Relative error allowed when a float trajectory is compared with its
#: correctly rounded reference over at most ten steps.
CHAIN_RTOL = 1e-9
#: Grid chain: the cubic-spline path after ten steps, relative to the peak.
SPLINE_RTOL = 1e-5
CONVERGE_TOL = 1e-8
#: Two-sided 1e-6 quantiles of the RMS error ratio between sample sizes n
#: and 2n with nested draws, 10 seeds x 2 parameters, under n^-1/2 scaling.
MC_RATIO_BAND = (0.5, 4.0)
KS_TOL = 1e-2
MC_SIGMAS = 5.0
MAX_DROP_FRACTION = 1e-4

_RTOL = Q(RTOL)
_TINY = Q(2.0**-1022)


def _round(q: Q) -> float:
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _off(got: float, exact: Q, scale: Q) -> bool:
    if not math.isfinite(got):
        return True
    return abs(Q(got) - exact) > _RTOL * (scale + _TINY)


def exact_parameter_step(alpha: float, nu: float, gamma: float):
    """(nu', gamma') of the half-plane map, exact, with nu''s cancellation scale."""
    a, n, g = Q(alpha), Q(nu), Q(gamma)
    big_a = n * n + g * g
    return a * n * (big_a - 1) / big_a, a * g * (big_a + 1) / big_a, a * abs(n) * (1 + 1 / big_a)


def exact_canonical_step(alpha: float, q: float, p: float):
    a, q_, p_ = Q(alpha), Q(q), Q(p)
    half_inv = 1 / (2 * p_)
    big_b = half_inv * half_inv + q_ * q_
    return a * q_ * (big_b - 1) / big_b, (p_ / a) * big_b / (big_b + 1), a * abs(q_) * (1 + 1 / big_b)


def exact_jacobian(alpha: float, nu: float, gamma: float):
    """(a, b) of the Jacobian [[a, b], [-b, a]], exact, with a's cancellation scale."""
    a, n, g = Q(alpha), Q(nu), Q(gamma)
    big_a2 = (n * n + g * g) ** 2
    diff = n * n - g * g
    return a * (1 + diff / big_a2), 2 * a * n * g / big_a2, a * (1 + abs(diff) / big_a2)


def exact_conformal_factor(nu: float, gamma: float):
    n, g = Q(nu), Q(gamma)
    term = 4 * g * g / (1 + n * n + g * g) ** 2
    return 1 - term, 1 + term


def _raised(exc: BaseException, representable: bool) -> str | None:
    if representable:
        return f"raised {type(exc).__name__} ({exc}) for a representable image"
    return None


def check_parameter_step(alpha, nu, gamma, out, exc) -> str | None:
    en, eg, scale = exact_parameter_step(alpha, nu, gamma)
    rn, rg = _round(en), _round(eg)
    if exc is not None:
        return _raised(exc, math.isfinite(rn) and math.isfinite(rg) and rg > 0.0)
    if _off(out.nu, en, scale) or _off(out.gamma, eg, eg):
        return f"parameter_step gave ({out.nu!r}, {out.gamma!r}), exact ({rn!r}, {rg!r})"
    return None


def check_canonical_step(alpha, q, p, out, exc) -> str | None:
    eq, ep, scale = exact_canonical_step(alpha, q, p)
    rq, rp = _round(eq), _round(ep)
    if exc is not None:
        return _raised(exc, math.isfinite(rq) and math.isfinite(rp) and rp > 0.0)
    if _off(out.q, eq, scale) or _off(out.p, ep, ep):
        return f"canonical_step gave ({out.q!r}, {out.p!r}), exact ({rq!r}, {rp!r})"
    return None


def check_jacobian(alpha, nu, gamma, out, exc) -> str | None:
    ea, eb, scale = exact_jacobian(alpha, nu, gamma)
    ra, rb = _round(ea), _round(eb)
    if exc is not None:
        return _raised(exc, math.isfinite(ra) and math.isfinite(rb))
    # Normwise: an entry far below the other may underflow harmlessly.
    norm = scale + abs(eb)
    got = [float(v) for v in (out[0][0], out[0][1], out[1][0], out[1][1])]
    if any(_off(v, e, norm) for v, e in zip(got, (ea, eb, -eb, ea))):
        return f"jacobian_analytic gave {got!r}, exact ({ra!r}, {rb!r})"
    return None


def check_conformal_factor(nu, gamma, out, exc) -> str | None:
    exact, scale = exact_conformal_factor(nu, gamma)
    if exc is not None:
        return _raised(exc, True)
    if _off(float(out), exact, scale):
        return f"conformal_factor gave {out!r}, exact {_round(exact)!r}"
    return None


def reference_trajectory_end(alpha: float, nu: float, gamma: float, steps: int):
    """End of a trajectory, each step exact and correctly rounded."""
    for _ in range(steps):
        en, eg, _ = exact_parameter_step(alpha, nu, gamma)
        nu, gamma = float(en), float(eg)
    return nu, gamma


def close_point(got, ref, rtol) -> bool:
    scale = abs(ref[0]) + abs(ref[1])
    return all(
        math.isfinite(g) and abs(g - r) <= rtol * scale for g, r in zip(got, ref)
    )


def check_fit(n: int, dropped: int, fitted, ref) -> str | None:
    """A Monte Carlo refit must land within MC_SIGMAS standard errors of the reference."""
    if dropped > MAX_DROP_FRACTION * n:
        return f"{dropped} of {n} samples dropped"
    # pi*gamma/(2*sqrt(n)): asymptotic s.e. of both the median and half-IQR.
    se = math.pi * ref[1] / (2.0 * math.sqrt(n - dropped))
    if not all(math.isfinite(v) and abs(v - r) < MC_SIGMAS * se for v, r in zip(fitted, ref)):
        return f"fit {tuple(fitted)!r} outside {MC_SIGMAS} standard errors of {ref!r}"
    return None


def invariant_gamma(alpha: float) -> float:
    return math.sqrt(alpha / (1.0 - alpha))


KILLING = ("special_conformal", "dilation", "translation")


def killing_scale(name: str, nu: float, gamma: float) -> float:
    """Size of the terms of a Lie derivative along one isometry generator."""
    radius = math.hypot(nu, gamma)
    k, dk = {
        "special_conformal": (radius * radius, 2.0 * (abs(nu) + gamma)),
        "dilation": (radius, 1.0),
        "translation": (1.0, 0.0),
    }[name]
    return k / gamma**3 + dk / gamma**2


def cauchy_pdf(nu: float, gamma: float, x):
    return gamma / (math.pi * ((x - nu) ** 2 + gamma * gamma))


def ks_statistic(points, gamma: float) -> float:
    """KS distance of a sample from the centred Cauchy law of scale gamma."""
    ordered = np.sort(points)
    n = ordered.size
    cdf = 0.5 + np.arctan(ordered / gamma) / math.pi
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(n) / n)
    return float(max(upper, lower))


# --- CLI reports ------------------------------------------------------------
#
# Reports are checked by their parsed content, not their bytes, so a field
# added to the report schema does not read as a failure.


def load_report(path: str, fmt: str) -> dict:
    """Parse a CLI report; a CSV report holds only its records table."""
    with open(path, newline="") as handle:
        if fmt == "json":
            return json.load(handle)
        reader = csv.reader(handle)
        header = next(reader)
        return {"records": [dict(zip(header, map(_csv_cell, row))) for row in reader]}


def _csv_cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    return float(text)


def check_cli(op: dict, returncode: int, stderr: str, path: str) -> str | None:
    """Check one CLI command by exit status, stderr and parsed report."""
    lines = [line for line in stderr.splitlines() if line.strip()]
    if op["kind"] == "invalid":
        if "Traceback" in stderr:
            return f"invalid input crashed: {lines[-1] if lines else ''}"
        if returncode != 2:
            return f"invalid input exited {returncode}, expected 2"
        if not lines or "error" not in lines[-1]:
            return "invalid input gave no error message"
        return None
    if "Traceback" in stderr:
        return f"crashed: {lines[-1]}"
    if returncode != 0:
        return f"exited {returncode}, expected 0"
    try:
        report = load_report(path, op["format"])
    except (OSError, ValueError, StopIteration) as exc:
        return f"report did not parse: {exc!r}"
    if op["format"] == "json" and report.get("meta", {}).get("passed") is not True:
        return "meta.passed is not true"
    try:
        return _REPORT_CHECKS[op["kind"]](op, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"report content malformed: {exc!r}"


def _check_param_records(op, records) -> str | None:
    if len(records) != op["steps"] + 1:
        return f"{len(records)} records for {op['steps']} steps"
    alpha, gbar = op["alpha"], invariant_gamma(op["alpha"])
    prev = None
    for i, rec in enumerate(records):
        nu, gamma = float(rec["nu"]), float(rec["gamma"])
        if int(rec["step"]) != i:
            return f"record {i} has step {rec['step']}"
        if prev is None:
            if (nu, gamma) != (op["nu0"], op["gamma0"]):
                return f"record 0 is ({nu!r}, {gamma!r}), not the start point"
        else:
            en, eg, scale = exact_parameter_step(alpha, *prev)
            if _off(nu, en, scale) or _off(gamma, eg, eg):
                return f"record {i}: ({nu!r}, {gamma!r}) is not the exact step of record {i - 1}"
        if float(rec["q"]) != nu or _off(float(rec["p"]), 1 / (2 * Q(gamma)), 1 / (2 * Q(gamma))):
            return f"record {i}: canonical coordinates wrong"
        factor, scale = exact_conformal_factor(nu, gamma)
        if _off(float(rec["conformal_factor"]), factor, scale):
            return f"record {i}: conformal factor wrong"
        dist = math.hypot(nu, gamma - gbar)
        if abs(float(rec["dist_to_fixed_point"]) - dist) > RTOL * (abs(nu) + gamma + gbar):
            return f"record {i}: distance to the fixed point wrong"
        prev = (nu, gamma)
    return None


def _check_iterate_params(op, report) -> str | None:
    records = report["records"]
    failure = _check_param_records(op, records)
    if failure or "oracles" not in report:
        return failure
    oracles = report["oracles"]
    gbar = invariant_gamma(op["alpha"])
    if oracles["fixed_point_nu"] != 0.0 or abs(oracles["fixed_point_gamma"] - gbar) > RTOL * gbar:
        return "fixed point wrong"
    if oracles["final_dist_to_fixed_point"] != records[-1]["dist_to_fixed_point"]:
        return "final distance does not match the last record"
    if oracles["closure_gamma_positive"] is not True:
        return "closure check failed"
    return None


def _check_verify_pf(op, report) -> str | None:
    failure = _check_param_records(op, report["records"])
    if failure:
        return failure
    o = report["oracles"]
    if not (0.0 <= o["sup_error"] < SUP_ERROR_TOL) or o["sup_error_pass"] is not True:
        return f"transfer-sum sup error {o['sup_error']!r}"
    ref = reference_trajectory_end(op["alpha"], op["nu0"], op["gamma0"], op["steps"])
    if not close_point((o["predicted_nu"], o["predicted_gamma"]), ref, CHAIN_RTOL):
        return f"prediction {o['predicted_nu']!r}, {o['predicted_gamma']!r} vs reference {ref!r}"
    failure = check_fit(op["n"], o["n_dropped"], (o["fitted_nu"], o["fitted_gamma"]), ref)
    if failure:
        return failure
    if o["delta_nu"] != o["fitted_nu"] - o["predicted_nu"] or o["monte_carlo_pass"] is not True:
        return "Monte Carlo oracle fields inconsistent"
    return None


def fisher_metric(gamma: float) -> float:
    """The diagonal entry 1/(2 gamma^2) of the Fisher metric; the off-diagonal is 0."""
    return 0.5 / (gamma * gamma)


def check_pullback(gamma: float, deviation: float) -> str | None:
    if 0.0 <= deviation <= FD_RTOL * fisher_metric(gamma):
        return None
    return f"pullback deviation {deviation!r}"


def check_quadrature(gamma: float, error: float) -> str | None:
    if 0.0 <= error <= QUAD_RTOL * fisher_metric(gamma):
        return None
    return f"quadrature error {error!r}"


def check_symplectic_defect(nu: float, gamma: float, defect: float) -> str | None:
    """The defect of the canonical map equals 1 - conformal factor."""
    expected = 4.0 * gamma * gamma / (1.0 + nu * nu + gamma * gamma) ** 2
    if abs(defect - expected) <= FD_RTOL:
        return None
    return f"symplectic defect {defect!r}, expected {expected!r}"


def check_lie_derivative(nu: float, gamma: float, largest: float, names=KILLING) -> str | None:
    """Lie derivatives along isometry generators vanish; ``largest`` is the biggest entry."""
    scale = max(killing_scale(name, nu, gamma) for name in names)
    if abs(largest) <= FD_RTOL * scale:
        return None
    return f"Lie derivative of an isometry is {largest!r}, not zero"


def check_geometry_row(nu, gamma, rec) -> str | None:
    """Check one geometry record against the point's own references."""
    factor, scale = exact_conformal_factor(nu, gamma)
    if _off(float(rec["conformal_factor"]), factor, scale):
        return "conformal factor wrong"
    degenerate = math.hypot(nu, gamma - 1.0) < 0.1
    if rec["degenerate"] is not degenerate:
        return "degeneracy flag wrong"
    if not abs(rec["canonical_coefficient"] - 1.0) <= RTOL:
        return "canonical two-form coefficient is not 1"
    largest_lie = max(rec["lie_metric_max"], rec["lie_two_form_max"])
    return (
        (None if degenerate else check_pullback(gamma, rec["pullback_deviation"]))
        or check_quadrature(gamma, rec["quadrature_error"])
        or check_lie_derivative(nu, gamma, largest_lie)
        or check_symplectic_defect(nu, gamma, rec["symplectic_defect"])
    )


_LATTICE = [(nu, gamma) for gamma in (0.5, 1.0, 2.0, 3.0, 4.0) for nu in (-2.0, -1.0, 0.0, 1.0, 2.0)]


def _check_geometry(op, report) -> str | None:
    records = report["records"]
    points = [(op["nu0"], op["gamma0"])] + _LATTICE
    if len(records) != len(points):
        return f"{len(records)} geometry records, expected {len(points)}"
    for i, ((nu, gamma), rec) in enumerate(zip(points, records)):
        if (rec["nu"], rec["gamma"]) != (nu, gamma):
            return f"record {i} is at ({rec['nu']!r}, {rec['gamma']!r}), expected ({nu!r}, {gamma!r})"
        failure = check_geometry_row(nu, gamma, rec)
        if failure:
            return f"record {i}: {failure}"
    return None


def _check_orbit(op, report) -> str | None:
    records = report["records"]
    n, alpha = op["n"], op["alpha"]
    if len(records) != n + 1:
        return f"{len(records)} orbit records for n={n}"
    steps = np.fromiter((r["step"] for r in records), float, n + 1)
    xs = np.fromiter((r["xi"] for r in records), float, n + 1)
    if not np.array_equal(steps, np.arange(n + 1)) or xs[0] != op["xi0"]:
        return "orbit steps or seed wrong"
    prev = xs[:-1]
    # alpha*(x^2 - 1)/x rounds differently from the program's alpha*(x - 1/x).
    ref = alpha * (prev * prev - 1.0) / prev
    tol = RTOL * alpha * (np.abs(prev) + 1.0 / np.abs(prev))
    bad = np.flatnonzero(~(np.abs(xs[1:] - ref) <= tol))
    if bad.size:
        i = int(bad[0]) + 1
        return f"orbit record {i} is {xs[i]!r}, reference {ref[i - 1]!r}"
    if "oracles" not in report:
        return None
    o = report["oracles"]
    if o["truncated"] is not False or o["last_index"] != n:
        return "orbit reported as truncated"
    if n >= 10**5:
        gbar = invariant_gamma(alpha)
        ks = ks_statistic(xs, gbar)
        if abs(o["ks_distance"] - ks) > 1e-9 or abs(o["invariant_gamma"] - gbar) > RTOL * gbar:
            return f"KS distance {o['ks_distance']!r} vs reference {ks!r}"
        if not (ks < KS_TOL and o["ks_pass"] is True):
            return f"orbit not equidistributed: KS {ks!r}"
    return None


_REPORT_CHECKS = {
    "iterate-params": _check_iterate_params,
    "verify-pf": _check_verify_pf,
    "geometry": _check_geometry,
    "orbit": _check_orbit,
}
