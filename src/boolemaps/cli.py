"""Command-line front-end: run experiments, verify claims, emit reports.

Subcommands
-----------
iterate-params   trajectory of the half-plane map with per-step geometry data
verify-pf        grid and Monte Carlo push-forward oracles vs the closed form
geometry         metric/symplectic verification at a point and on a lattice
orbit            pointwise orbit trace with an ergodicity check for long runs

Each command parses only the flags it reads (``_COMMAND_FLAGS``), plus
--out and --format; any other flag, or a value the command cannot run with,
exits 2 with a one-line message.

Reports carry ``config`` (the command and its flags), ``records``,
``oracles`` and ``meta`` sections and serialize to JSON (everything) or CSV
(the records table).  Records are kept as columns and streamed to the output
a chunk of rows at a time.  Floats are written in shortest round-trip form
so identical runs diff cleanly.  The exit status is 0 exactly when every
tolerance check the command configured has passed; a numerical failure in
the library gives exit 1 and a report with empty records and
``oracles.error``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .density import (
    DEFAULT_GRID_SIZE,
    MIN_MONTE_CARLO_SIZE,
    ks_distance,
    pf_closed_form_check,
    pf_monte_carlo_check,
)
from .errors import FitConvergenceError, PoleGuardError, QuadratureError, SingularInputError
from .geometry import (
    FD_STEP,
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


#: Every flag a command may take, as (type, default, help).
_FLAGS = {
    "alpha": (float, 0.5, "map parameter in (0,1)"),
    "nu0": (float, 1.0, "initial location"),
    "gamma0": (float, 1.0, "initial scale (> 0)"),
    "xi0": (float, math.sqrt(2.0), "orbit seed"),
    "n": (int, 10**6, "sample size / orbit length"),
    "steps": (int, 1, "number of map iterations"),
    "seed": (int, 42, "RNG seed"),
    "grid_size": (int, DEFAULT_GRID_SIZE, "density grid node count"),
}

#: The flags each command reads, besides --out and --format.
_COMMAND_FLAGS = {
    "iterate-params": ("alpha", "nu0", "gamma0", "steps"),
    "verify-pf": ("alpha", "nu0", "gamma0", "n", "steps", "seed", "grid_size"),
    "geometry": ("alpha", "nu0", "gamma0"),
    "orbit": ("alpha", "xi0", "n"),
}


def validate(cfg: argparse.Namespace) -> None:
    """Raise ValueError on a flag value the command cannot run with."""
    flags = vars(cfg)
    check_alpha(cfg.alpha)
    for name in ("nu0", "gamma0"):
        if name in flags and not math.isfinite(flags[name]):
            raise ValueError(f"{name} must be finite, got {flags[name]}")
    for name in ("n", "steps"):
        if flags.get(name, 1) < 1:
            raise ValueError(f"{name} must be >= 1, got {flags[name]}")
    if "gamma0" in flags and cfg.gamma0 <= 0:
        raise ValueError(f"gamma0 must be positive, got {cfg.gamma0}")
    # The geometry oracles step both gamma and p = 1/(2*gamma) by FD_STEP.
    if cfg.command == "geometry" and not FD_STEP < cfg.gamma0 < 0.5 / FD_STEP:
        raise ValueError(f"gamma0 must lie in ({FD_STEP}, {0.5 / FD_STEP}), got {cfg.gamma0}")
    if cfg.command == "verify-pf":
        if cfg.n < MIN_MONTE_CARLO_SIZE:
            raise ValueError(f"n must be >= {MIN_MONTE_CARLO_SIZE}, got {cfg.n}")
        if cfg.grid_size < 2:
            raise ValueError(f"grid-size must be >= 2, got {cfg.grid_size}")
        # cauchy_grid's central nodes are about this far apart; no more than
        # one double apart at nu0, neighbouring nodes round to the same value.
        gap = cfg.gamma0 * math.pi / (cfg.grid_size - 1)
        if not gap > math.ulp(cfg.nu0):
            raise ValueError(
                f"grid nodes collapse: gamma0*pi/(grid-size - 1) = {gap:.3g} does not exceed"
                f" the spacing {math.ulp(cfg.nu0):.3g} of doubles at nu0 = {cfg.nu0}"
            )
    if cfg.command == "orbit" and not (math.isfinite(cfg.xi0) and abs(cfg.xi0) >= POLE_EPS):
        raise ValueError(f"xi0 must be finite with |xi0| >= {POLE_EPS}, got {cfg.xi0}")


@dataclass(frozen=True)
class Table:
    """A report's records: equal-length columns under a header.

    A column is any sliceable sequence (a list, a range, an ndarray), and
    ``len`` gives the number of rows.
    """

    header: tuple[str, ...] = ()
    columns: tuple = ()

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def _table(rows: list[dict]) -> Table:
    header = tuple(rows[0])
    return Table(header, tuple([row[key] for row in rows] for key in header))


def _param_records(cfg: argparse.Namespace) -> list[dict]:
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


def cmd_iterate_params(cfg: argparse.Namespace) -> tuple[dict, bool]:
    records = _param_records(cfg)
    target = fixed_point(cfg.alpha)
    oracles = {
        "fixed_point_nu": float(target.nu),
        "fixed_point_gamma": float(target.gamma),
        "final_dist_to_fixed_point": records[-1]["dist_to_fixed_point"],
        "closure_gamma_positive": all(r["gamma"] > 0.0 for r in records),
    }
    return {"records": _table(records), "oracles": oracles}, bool(oracles["closure_gamma_positive"])


def cmd_verify_pf(cfg: argparse.Namespace) -> tuple[dict, bool]:
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
    return {"records": _table(_param_records(cfg)), "oracles": oracles}, passed


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


def cmd_geometry(cfg: argparse.Namespace) -> tuple[dict, bool]:
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
    return {"records": _table(records), "oracles": oracles}, all(checks.values())


def cmd_orbit(cfg: argparse.Namespace) -> tuple[dict, bool]:
    result = iterate_orbit(cfg.alpha, cfg.xi0, cfg.n)
    records = Table(("step", "xi"), (range(len(result.points)), result.points))
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
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags:
            kind, default, text = _FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), type=kind, default=default,
                           dest=flag, help=text)
        p.add_argument("--out", type=str, default=None, dest="output_path",
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    sub.choices["iterate-params"].set_defaults(steps=10)
    return parser


_CHUNK_ROWS = 1 << 16


def _chunks(table: Table):
    # Each column as Python scalars, _CHUNK_ROWS rows at a time, so that the
    # text in flight stays bounded whatever the length of the table.
    for start in range(0, len(table), _CHUNK_ROWS):
        parts = [column[start:start + _CHUNK_ROWS] for column in table.columns]
        yield [part.tolist() if isinstance(part, np.ndarray) else list(part) for part in parts]


def _csv_cells(values: list) -> list[str]:
    # repr of a Python float is its shortest round-trip decimal; the float()
    # coercion strips numpy scalar types, whose repr is not parseable
    return [repr(float(v)) if isinstance(v, float) else str(v) for v in values]


def _write_csv(table: Table, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    if table.header:
        writer.writerow(table.header)
    for columns in _chunks(table):
        writer.writerows(zip(*map(_csv_cells, columns)))


_RECORDS_SLOT = "\0records\0"


def _write_json(report: dict, handle) -> None:
    # The same text as json.dumps(report, indent=2) with every record a dict.
    # With indent set, json encodes in pure Python; here only the small
    # remainder of the report goes that way, and the records are encoded a
    # column at a time by the C encoder and laid into a per-row template.
    table = report["records"]
    text = json.dumps({**report, "records": _RECORDS_SLOT}, indent=2)
    head, _, tail = text.partition(json.dumps(_RECORDS_SLOT))
    if not len(table):
        handle.write(f"{head}[]{tail}\n")
        return
    row = "    {" + ",".join(f"\n      {json.dumps(key)}: %s" for key in table.header) + "\n    }"
    handle.write(head + "[\n")
    separator = ""
    for columns in _chunks(table):
        # "\n" as the item separator: no encoded value contains a raw newline
        cells = [json.dumps(values, separators=("\n", ":"))[1:-1].split("\n") for values in columns]
        handle.write(separator + ",\n".join(map(row.__mod__, zip(*cells))))
        separator = ",\n"
    handle.write(f"\n  ]{tail}\n")


def render_report(report: dict, fmt: str, handle) -> None:
    """Write ``report`` to ``handle``: all of it as JSON, or its records as CSV.

    Rows are written in chunks straight from the record columns, so the
    whole report is never held as one string.
    """
    if fmt == "csv":
        _write_csv(report["records"], handle)
    else:
        _write_json(report, handle)


def main(argv=None) -> int:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    try:
        validate(cfg)
    except ValueError as exc:
        parser.error(str(exc))

    started = time.perf_counter()
    try:
        body, passed = _COMMANDS[cfg.command](cfg)
    except (QuadratureError, FitConvergenceError, PoleGuardError, SingularInputError) as exc:
        # A numerical failure is a failed run, reported like any other.
        error = f"{type(exc).__name__}: {exc}"
        print(f"boolemaps {cfg.command}: {error}", file=sys.stderr)
        body, passed = {"records": Table(), "oracles": {"error": error}}, False
    report = {
        "config": vars(cfg),
        "records": body["records"],
        "oracles": body["oracles"],
        "meta": {
            "version": __version__,
            "wall_time_s": time.perf_counter() - started,
            "passed": passed,
        },
    }
    if cfg.output_path:
        with open(cfg.output_path, "w") as handle:
            render_report(report, cfg.format, handle)
    else:
        render_report(report, cfg.format, sys.stdout)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
