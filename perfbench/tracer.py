"""Span tracer for the benchmark's traced runs.

``Tracer.install`` replaces the public functions listed in ``TRACED`` with
wrappers, everywhere they are bound as attributes of a ``boolemaps`` module:
the defining module, the package namespace and the modules that imported
the name (``density.iterate_orbit`` is ``orbit.iterate_orbit``).  Calls
between package modules therefore nest as child spans.  Private helpers are
not wrapped, so their work counts toward the calling public function's self
time.

Spans are kept in memory as (name, parent, start, end) and written out when
the traced process ends, together with per-name aggregates that several
processes can sum.  ``layer_metrics`` turns summed aggregates into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter

TRACED = {
    "cli": ("main", "cmd_iterate_params", "cmd_verify_pf", "cmd_geometry", "cmd_orbit",
            "render_report"),
    "orbit": ("iterate_orbit",),
    "halfplane": ("parameter_step", "iterate_parameter_map", "jacobian_analytic",
                  "canonical_step", "picture_agreement", "converge_to_fixed_point"),
    "geometry": ("fisher_metric_quadrature", "verify_conformal_pullback",
                 "lie_derivative_metric", "lie_derivative_two_form", "symplectic_defect",
                 "conformal_factor"),
    "density": ("sample_cauchy", "fit_cauchy", "pf_monte_carlo_check", "mc_error_ratio",
                "pf_closed_form_check", "pf_density_step", "ks_distance",
                "ergodic_orbit_check"),
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, name id, time spent in children]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn, on_return=None):
        name_id = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        for table in (self.calls, self.busy, self.self_time):
            table[name] = 0
        self.errors.setdefault(layer, 0)
        stack = self.stack

        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, name_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # An exception counts once, in the layer that raised it.
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spent = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self.calls[name] += 1
                self.busy[name] += spent
                self.self_time[name] += spent - frame[2]
                if stack:
                    stack[-1][2] += spent
            return on_return(result, args, stack) if on_return else result

        traced.__wrapped__ = fn
        return traced

    # Counters taken at the layer boundaries.

    def _orbit_steps(self, result, args, stack):
        self.count("orbit.iterate_orbit.steps", len(result.points) - 1)
        return result

    def _converge_steps(self, result, args, stack):
        self.count("halfplane.converge_to_fixed_point.steps", result.steps)
        return result

    def _records(self, result, args, stack):
        self.count("cli.records.count", len(args[0]["records"]))
        return result

    def _fit(self, result, args, stack):
        # A fit made inside sample_cauchy is stored on the batch, and no
        # caller reads ``batch.fitted``, so it is discarded; any other fit is
        # returned straight to the caller that asked for it.
        self.count("density.fit_cauchy.computed")
        if not (stack and self.names[stack[-1][1]] == "density.sample_cauchy"):
            self.count("density.fit_cauchy.useful")
        return result

    def _sample(self, result, args, stack):
        self.count("density.sample_cauchy.samples", result.size)
        return result

    def install(self) -> None:
        """Wrap every traced function wherever a boolemaps module binds it."""
        package = importlib.import_module("boolemaps")
        modules = {layer: importlib.import_module(f"boolemaps.{layer}") for layer in TRACED}
        hooks = {
            "orbit.iterate_orbit": self._orbit_steps,
            "halfplane.converge_to_fixed_point": self._converge_steps,
            "cli.render_report": self._records,
            "density.fit_cauchy": self._fit,
            "density.sample_cauchy": self._sample,
        }
        wrappers = {}
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                key = f"{layer}.{fname}"
                wrappers[id(original)] = self._wrap(key, original, hooks.get(key))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        commands = modules["cli"]._COMMANDS
        for command, fn in commands.items():
            commands[command] = wrappers.get(id(fn), fn)

    def aggregates(self) -> dict:
        return {
            "calls": self.calls,
            "busy": self.busy,
            "self": self.self_time,
            "errors": self.errors,
            "counters": self.counters,
        }

    def write(self, prefix: str) -> None:
        """Write the spans (``<prefix>.spans.npz``) and aggregates (``<prefix>.json``)."""
        import numpy as np

        np.savez(
            f"{prefix}.spans.npz",
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        with open(f"{prefix}.json", "w") as handle:
            json.dump(self.aggregates(), handle)


def merge(total: dict, part: dict) -> dict:
    """Sum aggregates from several traced processes."""
    for table, values in part.items():
        into = total.setdefault(table, {})
        for key, value in values.items():
            into[key] = into.get(key, 0) + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better); layers a workload does not reach report 0.
PER_LAYER = [
    ("import.boolemaps_s", "s", "lower"),
    ("import.scipy_interpolate_s", "s", "lower"),
    ("import.scipy_integrate_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.cmd.self_s", "s", "lower"),
    ("cli.render_report.busy_s", "s", "lower"),
    ("cli.records.count", "count", "lower"),
    ("cli.errors", "count", "lower"),
    ("orbit.iterate_orbit.calls", "count", "lower"),
    ("orbit.iterate_orbit.self_s", "s", "lower"),
    ("orbit.iterate_orbit.steps", "count", "lower"),
    ("orbit.iterate_orbit.ns_per_step", "ns", "lower"),
    ("orbit.iterate_orbit.calls_per_orbit_cmd", "calls/cmd", "lower"),
    ("orbit.errors", "count", "lower"),
    ("density.sample_cauchy.self_s", "s", "lower"),
    ("density.sample_cauchy.samples", "count", "lower"),
    ("density.fit_cauchy.calls", "count", "lower"),
    ("density.fit_cauchy.self_s", "s", "lower"),
    ("density.fit_cauchy.useful_ratio", "ratio", "higher"),
    ("density.pf_monte_carlo_check.self_s", "s", "lower"),
    ("density.mc_error_ratio.self_s", "s", "lower"),
    ("density.pf_closed_form_check.busy_s", "s", "lower"),
    ("density.pf_density_step.self_s", "s", "lower"),
    ("density.ks_distance.self_s", "s", "lower"),
    ("density.ergodic_orbit_check.self_s", "s", "lower"),
    ("density.errors", "count", "lower"),
    ("halfplane.parameter_step.calls", "count", "lower"),
    ("halfplane.parameter_step.self_s", "s", "lower"),
    ("halfplane.parameter_step.us_per_call", "us", "lower"),
    ("halfplane.iterate_parameter_map.self_s", "s", "lower"),
    ("halfplane.jacobian_analytic.self_s", "s", "lower"),
    ("halfplane.canonical_step.self_s", "s", "lower"),
    ("halfplane.picture_agreement.self_s", "s", "lower"),
    ("halfplane.converge_to_fixed_point.self_s", "s", "lower"),
    ("halfplane.converge_to_fixed_point.steps", "count", "lower"),
    ("halfplane.errors", "count", "lower"),
    ("geometry.fisher_metric_quadrature.calls", "count", "lower"),
    ("geometry.fisher_metric_quadrature.self_s", "s", "lower"),
    ("geometry.verify_conformal_pullback.self_s", "s", "lower"),
    ("geometry.lie_derivative_metric.self_s", "s", "lower"),
    ("geometry.lie_derivative_two_form.self_s", "s", "lower"),
    ("geometry.symplectic_defect.self_s", "s", "lower"),
    ("geometry.conformal_factor.self_s", "s", "lower"),
    ("geometry.errors", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics (all but ``import.*`` and ``trace.*``) from summed aggregates."""
    calls, busy, self_time = agg.get("calls", {}), agg.get("busy", {}), agg.get("self", {})
    errors, counters = agg.get("errors", {}), agg.get("counters", {})
    by_stat = {"calls": calls, "self_s": self_time, "busy_s": busy}
    steps = counters.get("orbit.iterate_orbit.steps", 0)
    derived = {
        "cli.cmd.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.cmd_")),
        "orbit.iterate_orbit.ns_per_step": _ratio(self_time.get("orbit.iterate_orbit", 0.0), steps) * 1e9,
        "orbit.iterate_orbit.calls_per_orbit_cmd": _ratio(
            calls.get("orbit.iterate_orbit", 0), calls.get("cli.cmd_orbit", 0)
        ),
        "density.fit_cauchy.useful_ratio": _ratio(
            counters.get("density.fit_cauchy.useful", 0), counters.get("density.fit_cauchy.computed", 0)
        ),
        "halfplane.parameter_step.us_per_call": _ratio(
            self_time.get("halfplane.parameter_step", 0.0), calls.get("halfplane.parameter_step", 0)
        ) * 1e6,
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric.startswith(("import.", "trace.")):
            continue
        name, stat = metric.rsplit(".", 1)
        if metric in derived:
            out[metric] = derived[metric]
        elif stat == "errors":
            out[metric] = errors.get(name, 0)
        elif stat in by_stat:
            out[metric] = by_stat[stat].get(name, 0)
        else:
            out[metric] = counters.get(metric, 0)
    return out
