"""In-process operations: the oracle-batch and closed-form-ensemble workloads.

Run as a worker process, one per benchmark run, so that its peak resident
set belongs to that run alone:

    python perfbench/inproc.py --workload closed-form-ensemble --seed 1 \
        --seconds 10 --trace 0 --result out.json

Each operation is timed around the library calls only.  Its outputs are
checked afterwards, against references from ``checks``.  Functions are
looked up on their module at call time, so a traced run sees every call.
"""

from __future__ import annotations

import argparse
import json
import math
import warnings
from time import perf_counter

import numpy as np

import checks
import workloads

OK, FAILED, REFUSED = "ok", "failed", "refused"


def _modules():
    from boolemaps import density, errors, geometry, halfplane, orbit

    return density, errors, geometry, halfplane, orbit


class Runner:
    """Prepares, times and checks the in-process operations."""

    def __init__(self):
        (self.density, self.errors, self.geometry, self.halfplane, self.orbit) = _modules()
        # Exceptions a function documents for inputs it cannot handle; any
        # other exception is a failure.
        self.documented = (
            self.errors.QuadratureError,
            self.errors.FitConvergenceError,
            self.errors.OrbitTruncationError,
        )

    def prepare(self, op: dict):
        """Return the list of (label, thunk) calls that make up the operation."""
        d, g, h = self.density, self.geometry, self.halfplane
        kind, alpha = op["kind"], op["alpha"]
        params = self.orbit.CauchyParams(op["nu"], op["gamma"])
        if kind == "pf_monte_carlo_check":
            return [(kind, lambda: d.pf_monte_carlo_check(
                alpha, params, op["n"], op["steps"], op["sample_seed"], fit_method=op["method"]))]
        if kind == "mc_error_ratio":
            return [(kind, lambda: d.mc_error_ratio(alpha, params, op["n"], seeds=op["seeds"]))]
        if kind == "pf_closed_form_check":
            return [(kind, lambda: d.pf_closed_form_check(alpha, params, op["nodes"]))]
        if kind == "grid_chain":
            full = d.cauchy_grid(params, op["nodes"])
            grid = d.DensityGrid(full.nodes, full.values, full.tail_mass, ref=full.ref)

            def chain():
                rho = grid
                for _ in range(op["steps"]):
                    rho = d.pf_density_step(alpha, rho)
                return rho

            return [(kind, chain)]
        x = h.HPoint(op["nu"], op["gamma"])
        c = h.CanonicalPoint(op["nu"], 1.0 / (2.0 * op["gamma"]))
        calls = [
            ("parameter_step", lambda: h.parameter_step(alpha, x)),
            ("jacobian_analytic", lambda: h.jacobian_analytic(alpha, x)),
            ("canonical_step", lambda: h.canonical_step(alpha, c)),
            ("conformal_factor", lambda: g.conformal_factor(x)),
        ]
        if kind == "extreme":
            return calls
        calls += [
            ("picture_agreement", lambda: h.picture_agreement(alpha, x)),
            ("converge_to_fixed_point", lambda: h.converge_to_fixed_point(alpha, x)),
            ("verify_conformal_pullback", lambda: g.verify_conformal_pullback(alpha, x)),
            ("fisher_metric_quadrature", lambda: g.fisher_metric_quadrature(x)),
            ("symplectic_defect", lambda: g.symplectic_defect(alpha, c)),
        ]
        for name in checks.KILLING:
            calls += [
                (f"lie_derivative_metric:{name}", lambda name=name: g.lie_derivative_metric(name, x)),
                (f"lie_derivative_two_form:{name}", lambda name=name: g.lie_derivative_two_form(name, x)),
            ]
        return calls

    @staticmethod
    def execute(calls):
        """Run the calls; return their wall time and (label, value, exception) triples."""
        outcomes = []
        start = perf_counter()
        for label, thunk in calls:
            try:
                outcomes.append((label, thunk(), None))
            except Exception as exc:  # recorded and judged by the checks
                outcomes.append((label, None, exc))
        return perf_counter() - start, outcomes

    def run(self, op: dict) -> dict:
        """Time one operation's calls, then check their outputs."""
        latency, outcomes = self.execute(self.prepare(op))
        status, reason = self.judge(op, outcomes)
        return {
            "kind": op["kind"], "latency_s": latency, "status": status,
            "reason": reason, "known_defect": op.get("known_defect", False),
        }

    def judge(self, op: dict, outcomes) -> tuple[str, str | None]:
        """Worst status over the operation's calls, with the first reason."""
        status, reason = OK, None
        for label, value, exc in outcomes:
            if exc is not None and label not in _RATIONAL and isinstance(exc, self.documented):
                if status == OK:
                    status, reason = REFUSED, f"{label}: {type(exc).__name__}: {exc}"
                continue
            if exc is not None and label not in _RATIONAL:
                return FAILED, f"{label} raised {type(exc).__name__}: {exc}"
            failure = _CHECKS[label.split(":")[0]](op, label, value, exc)
            if failure:
                return FAILED, f"{label}: {failure}"
        return status, reason


def _check_pf_mc(op, label, report, exc):
    ref = checks.reference_trajectory_end(op["alpha"], op["nu"], op["gamma"], op["steps"])
    predicted = (report.predicted.nu, report.predicted.gamma)
    if not checks.close_point(predicted, ref, checks.CHAIN_RTOL):
        return f"prediction {predicted!r} vs reference {ref!r}"
    measured = (report.measured.nu, report.measured.gamma)
    failure = checks.check_fit(op["n"], report.n_dropped, measured, ref)
    if failure:
        return failure
    if report.within_tolerance is not True:
        return "within_tolerance is false"
    return None


def _check_mc_ratio(op, label, ratio, exc):
    lo, hi = checks.MC_RATIO_BAND
    return None if lo <= ratio <= hi else f"error ratio {ratio!r} outside {checks.MC_RATIO_BAND}"


def _check_closed_form_gap(op, label, gap, exc):
    return None if 0.0 <= gap < checks.SUP_ERROR_TOL else f"sup gap {gap!r}"


def _check_grid_chain(op, label, rho, exc):
    nu, gamma = checks.reference_trajectory_end(op["alpha"], op["nu"], op["gamma"], op["steps"])
    exact = checks.cauchy_pdf(nu, gamma, rho.nodes)
    gap = float(np.max(np.abs(rho.values - exact)))
    if not gap <= checks.SPLINE_RTOL * float(np.max(exact)):
        return f"density after {op['steps']} steps off by {gap!r}"
    return None


def _check_parameter_step(op, label, out, exc):
    return checks.check_parameter_step(op["alpha"], op["nu"], op["gamma"], out, exc)


def _check_jacobian(op, label, out, exc):
    return checks.check_jacobian(op["alpha"], op["nu"], op["gamma"], out, exc)


def _check_canonical(op, label, out, exc):
    return checks.check_canonical_step(op["alpha"], op["nu"], 1.0 / (2.0 * op["gamma"]), out, exc)


def _check_factor(op, label, out, exc):
    return checks.check_conformal_factor(op["nu"], op["gamma"], out, exc)


def _check_pictures(op, label, gap, exc):
    root = math.hypot(op["nu"], op["gamma"])
    bound = checks.RTOL * op["alpha"] * (root + 1.0 / root)
    return None if 0.0 <= gap <= bound else f"four routes disagree by {gap!r}"


def _check_converge(op, label, run, exc):
    gbar = checks.invariant_gamma(op["alpha"])
    dist = math.hypot(run.point.nu, run.point.gamma - gbar)
    if run.converged is not True or not dist < checks.CONVERGE_TOL:
        return f"ended {dist!r} from the fixed point after {run.steps} steps"
    return None


def _check_pullback(op, label, deviation, exc):
    return checks.check_pullback(op["gamma"], deviation)


def _check_quadrature(op, label, metric, exc):
    exact = checks.fisher_metric(op["gamma"])
    error = max(abs(metric.g_nn - exact), abs(metric.g_ng), abs(metric.g_gg - exact))
    return checks.check_quadrature(op["gamma"], error)


def _check_symplectic(op, label, defect, exc):
    return checks.check_symplectic_defect(op["nu"], op["gamma"], defect)


def _check_lie(op, label, value, exc):
    entries = (value.g_nn, value.g_ng, value.g_gg) if hasattr(value, "g_nn") else (value,)
    # np.max, unlike max, keeps a NaN entry.
    largest = float(np.max(np.abs(entries)))
    return checks.check_lie_derivative(op["nu"], op["gamma"], largest, names=(label.split(":")[1],))


_RATIONAL = ("parameter_step", "jacobian_analytic", "canonical_step", "conformal_factor")

_CHECKS = {
    "pf_monte_carlo_check": _check_pf_mc,
    "mc_error_ratio": _check_mc_ratio,
    "pf_closed_form_check": _check_closed_form_gap,
    "grid_chain": _check_grid_chain,
    "parameter_step": _check_parameter_step,
    "jacobian_analytic": _check_jacobian,
    "canonical_step": _check_canonical,
    "conformal_factor": _check_factor,
    "picture_agreement": _check_pictures,
    "converge_to_fixed_point": _check_converge,
    "verify_conformal_pullback": _check_pullback,
    "fisher_metric_quadrature": _check_quadrature,
    "symplectic_defect": _check_symplectic,
    "lie_derivative_metric": _check_lie,
    "lie_derivative_two_form": _check_lie,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.INPROC_WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="path of the JSON result")
    parser.add_argument("--spans", help="traced runs: prefix of the span and aggregate files")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    runner = Runner()
    # One untimed cycle of another seed pays the first-call costs (lazy
    # imports, allocator growth) that an in-process user pays once.
    for op in next(workloads.cycles(args.workload, args.seed + 1)):
        runner.run(op)
    start_tracing = None
    if args.trace:
        import tracer

        spans = tracer.Tracer()

        def start_tracing():
            spans.install()
            return runner.run

    out = workloads.measure(args.workload, args.seed, args.seconds, runner.run, start_tracing)
    if args.trace:
        spans.write(args.spans)
    with open(args.result, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
