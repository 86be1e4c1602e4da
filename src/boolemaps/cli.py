"""Command-line front-end: run experiments, verify claims, emit reports.

Subcommands
-----------
iterate-params   trajectory of the half-plane map with per-step geometry data
verify-pf        grid and Monte Carlo push-forward oracles vs the closed form
geometry         metric/symplectic verification at a point and on a lattice
orbit            pointwise orbit trace with an ergodicity check for long runs

Reports carry ``config``, ``records``, ``oracles`` and ``meta`` sections and
serialize to JSON (everything) or CSV (the records table).  Floats are
written in shortest round-trip form so identical runs diff cleanly.  The
exit status is 0 exactly when every tolerance check the command configured
has passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass

from . import __version__
from .density import (
    DEFAULT_GRID_SIZE,
    MIN_MONTE_CARLO_SIZE,
    ks_distance,
    pf_closed_form_check,
    pf_monte_carlo_check,
)
from .geometry import (
    KILLING_FIELD_NAMES,
    canonical_form_coefficient,
    conformal_factor,
    fisher_metric,
    fisher_metric_quadrature,
    lie_derivative_metric,
    lie_derivative_two_form,
    symplectic_defect,
    verify_conformal_pullback,
)
from .halfplane import (
    HPoint,
    fixed_point,
    iterate_parameter_map,
    to_canonical,
)
from .orbit import POLE_EPS, CauchyParams, check_alpha, invariant_params, iterate_orbit

SUP_ERROR_TOL = 1e-10
QUADRATURE_TOL = 1e-8
PULLBACK_TOL = 1e-5
LIE_TOL = 1e-6
CANONICAL_TOL = 1e-14
KS_TOL = 1e-2
KS_MIN_SAMPLES = 10**5
#: Points closer than this to (0, 1) have a vanishing conformal factor.
DEGENERACY_RADIUS = 0.1


@dataclass(frozen=True)
class RunConfig:
    """Echo of the flags a command ran with."""

    command: str
    alpha: float
    nu0: float
    gamma0: float
    xi0: float
    n: int
    steps: int
    seed: int
    grid_size: int
    output_path: str | None
    format: str

    def validate(self) -> None:
        check_alpha(self.alpha)
        if self.n < 1 or self.steps < 1:
            raise ValueError("n and steps must both be >= 1")
        if self.grid_size < 2:
            raise ValueError(f"grid-size must be >= 2, got {self.grid_size}")
        if self.command in ("iterate-params", "verify-pf", "geometry") and self.gamma0 <= 0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if self.command == "verify-pf" and self.n < MIN_MONTE_CARLO_SIZE:
            raise ValueError(f"n must be >= {MIN_MONTE_CARLO_SIZE}, got {self.n}")
        if self.command == "orbit" and not (math.isfinite(self.xi0) and abs(self.xi0) >= POLE_EPS):
            raise ValueError(f"xi0 must be finite with |xi0| >= {POLE_EPS}, got {self.xi0}")

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "alpha": self.alpha,
            "nu0": self.nu0,
            "gamma0": self.gamma0,
            "xi0": self.xi0,
            "n": self.n,
            "steps": self.steps,
            "seed": self.seed,
            "grid_size": self.grid_size,
            "output_path": self.output_path,
            "format": self.format,
        }


def _param_records(cfg: RunConfig) -> list[dict]:
    target = fixed_point(cfg.alpha)
    records = []
    trajectory = iterate_parameter_map(cfg.alpha, HPoint(cfg.nu0, cfg.gamma0), cfg.steps)
    for step, point in enumerate(trajectory):
        canonical = to_canonical(point)
        records.append(
            {
                "step": step,
                "nu": float(point.nu),
                "gamma": float(point.gamma),
                "q": float(canonical.q),
                "p": float(canonical.p),
                "conformal_factor": float(conformal_factor(point)),
                "dist_to_fixed_point": math.hypot(
                    point.nu - target.nu, point.gamma - target.gamma
                ),
            }
        )
    return records


def cmd_iterate_params(cfg: RunConfig) -> tuple[dict, bool]:
    records = _param_records(cfg)
    target = fixed_point(cfg.alpha)
    oracles = {
        "fixed_point_nu": float(target.nu),
        "fixed_point_gamma": float(target.gamma),
        "final_dist_to_fixed_point": records[-1]["dist_to_fixed_point"],
        "closure_gamma_positive": all(r["gamma"] > 0.0 for r in records),
    }
    return {"records": records, "oracles": oracles}, bool(oracles["closure_gamma_positive"])


def cmd_verify_pf(cfg: RunConfig) -> tuple[dict, bool]:
    params = CauchyParams(cfg.nu0, cfg.gamma0)
    caught: list[str] = []
    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        sup_error = pf_closed_form_check(cfg.alpha, params, cfg.grid_size)
        caught = [str(w.message) for w in grabbed]
    report = pf_monte_carlo_check(
        cfg.alpha, params, cfg.n, cfg.steps, cfg.seed
    )
    oracles = {
        "sup_error": sup_error,
        "sup_error_pass": sup_error < SUP_ERROR_TOL,
        "predicted_nu": report.predicted.nu,
        "predicted_gamma": report.predicted.gamma,
        "fitted_nu": report.measured.nu,
        "fitted_gamma": report.measured.gamma,
        "delta_nu": report.measured.nu - report.predicted.nu,
        "delta_gamma": report.measured.gamma - report.predicted.gamma,
        "fit_stderr": report.stderr,
        "n_dropped": report.n_dropped,
        "monte_carlo_pass": report.within_tolerance,
        "warnings": caught,
    }
    passed = bool(oracles["sup_error_pass"] and oracles["monte_carlo_pass"])
    return {"records": _param_records(cfg), "oracles": oracles}, passed


_LATTICE_NU = (-2.0, -1.0, 0.0, 1.0, 2.0)
_LATTICE_GAMMA = (0.5, 1.0, 2.0, 3.0, 4.0)


def _geometry_row(alpha: float, point: HPoint) -> dict:
    metric = fisher_metric(point)
    quad = fisher_metric_quadrature(point)
    quad_err = max(
        abs(quad.g_nn - metric.g_nn), abs(quad.g_ng), abs(quad.g_gg - metric.g_gg)
    )
    lie_g = float(
        max(
            max(abs(lie.g_nn), abs(lie.g_ng), abs(lie.g_gg))
            for lie in (lie_derivative_metric(name, point) for name in KILLING_FIELD_NAMES)
        )
    )
    lie_w = float(
        max(abs(lie_derivative_two_form(name, point)) for name in KILLING_FIELD_NAMES)
    )
    degenerate = math.hypot(point.nu, point.gamma - 1.0) < DEGENERACY_RADIUS
    return {
        "nu": point.nu,
        "gamma": point.gamma,
        "conformal_factor": conformal_factor(point),
        "degenerate": degenerate,
        "pullback_deviation": verify_conformal_pullback(alpha, point),
        "quadrature_error": quad_err,
        "lie_metric_max": lie_g,
        "lie_two_form_max": lie_w,
        "canonical_coefficient": canonical_form_coefficient(point),
        "symplectic_defect": symplectic_defect(alpha, to_canonical(point)),
    }


def cmd_geometry(cfg: RunConfig) -> tuple[dict, bool]:
    records = [_geometry_row(cfg.alpha, HPoint(cfg.nu0, cfg.gamma0))]
    for gamma in _LATTICE_GAMMA:
        for nu in _LATTICE_NU:
            records.append(_geometry_row(cfg.alpha, HPoint(nu, gamma)))
    checks = {
        "quadrature_pass": all(r["quadrature_error"] < QUADRATURE_TOL for r in records),
        "pullback_pass": all(
            r["pullback_deviation"] < PULLBACK_TOL
            for r in records
            if not r["degenerate"]
        ),
        "lie_pass": all(
            max(r["lie_metric_max"], r["lie_two_form_max"]) < LIE_TOL for r in records
        ),
        "canonical_pass": all(
            abs(r["canonical_coefficient"] - 1.0) < CANONICAL_TOL for r in records
        ),
    }
    oracles = dict(checks)
    oracles["degenerate_points"] = sum(1 for r in records if r["degenerate"])
    return {"records": records, "oracles": oracles}, all(checks.values())


def cmd_orbit(cfg: RunConfig) -> tuple[dict, bool]:
    result = iterate_orbit(cfg.alpha, cfg.xi0, cfg.n)
    records = [
        {"step": i, "xi": float(x)} for i, x in enumerate(result.points)
    ]
    oracles: dict = {
        "truncated": result.truncated,
        "last_index": result.last_index,
    }
    passed = True
    if cfg.n >= KS_MIN_SAMPLES:
        if result.truncated:
            oracles["ks_pass"] = False
            passed = False
        else:
            invariant = invariant_params(cfg.alpha)
            ks = ks_distance(result.points, invariant)
            oracles["ks_distance"] = ks
            oracles["invariant_nu"] = invariant.nu
            oracles["invariant_gamma"] = invariant.gamma
            oracles["ks_pass"] = ks < KS_TOL
            passed = bool(oracles["ks_pass"])
    return {"records": records, "oracles": oracles}, passed


_COMMANDS = {
    "iterate-params": cmd_iterate_params,
    "verify-pf": cmd_verify_pf,
    "geometry": cmd_geometry,
    "orbit": cmd_orbit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolemaps",
        description="Boole-transform dynamics, half-plane parameter maps, and their verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {
        "iterate-params": {"steps": 10},
        "verify-pf": {"steps": 1},
        "geometry": {"steps": 1},
        "orbit": {"steps": 1, "n": 10**6},
    }
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--alpha", type=float, default=0.5, help="map parameter in (0,1)")
        p.add_argument("--nu0", type=float, default=1.0, help="initial location")
        p.add_argument("--gamma0", type=float, default=1.0, help="initial scale (> 0)")
        p.add_argument("--xi0", type=float, default=math.sqrt(2.0), help="orbit seed")
        p.add_argument("--n", type=int, default=defaults[name].get("n", 10**6),
                       help="sample size / orbit length")
        p.add_argument("--steps", type=int, default=defaults[name]["steps"],
                       help="number of map iterations")
        p.add_argument("--seed", type=int, default=42, help="RNG seed")
        p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE,
                       dest="grid_size", help="density grid node count")
        p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _fmt_cell(value) -> str:
    # repr of a Python float is its shortest round-trip decimal; the float()
    # coercion strips numpy scalar types, whose repr is not parseable
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def render_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(records[0].keys())
    writer.writerow(header)
    for record in records:
        writer.writerow([_fmt_cell(record[key]) for key in header])
    return buf.getvalue()


def render_report(report: dict, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(report["records"])
    return json.dumps(report, indent=2) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        alpha=args.alpha,
        nu0=args.nu0,
        gamma0=args.gamma0,
        xi0=args.xi0,
        n=args.n,
        steps=args.steps,
        seed=args.seed,
        grid_size=args.grid_size,
        output_path=args.out,
        format=args.format,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        parser.error(str(exc))

    started = time.perf_counter()
    body, passed = _COMMANDS[cfg.command](cfg)
    report = {
        "config": cfg.as_dict(),
        "records": body["records"],
        "oracles": body["oracles"],
        "meta": {
            "version": __version__,
            "seed": cfg.seed,
            "wall_time_s": time.perf_counter() - started,
            "passed": passed,
        },
    }
    text = render_report(report, cfg.format)
    if cfg.output_path:
        with open(cfg.output_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
