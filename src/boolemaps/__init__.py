"""Generalized Boole transforms and their exact half-plane parameter dynamics.

Layout:

* ``orbit``     -- the pointwise map, preimages, orbits, and the pdf, cdf
                   and quantile of a Cauchy law
* ``halfplane`` -- the Cauchy law ``HPoint``, a point of the upper
                   half-plane, and the induced exact map on it (the core's
                   real form of the map on nu - i*gamma), its fixed point
                   and Jacobian, canonical coordinates, convergence checks
* ``geometry``  -- the Fisher metric ``Metric2`` and its conformal factor
                   under the map, Lie derivatives along the Killing fields,
                   symplectic structure, with brute-force oracles
* ``density``   -- transfer-sum and Monte Carlo verification of the reduction
* ``cli``       -- the ``boolemaps`` command
* ``_core``     -- the scalar core, with neither numpy nor ``dataclasses``:
                   the map and the orbit generator, and the one step, the
                   fixed point's scale and the conformal factor on floats,
                   which ``halfplane`` and ``geometry`` wrap, and the limits the
                   CLI checks its flags against; the CLI starts on it alone

The names below load their module on first use (PEP 562), so that
``import boolemaps`` loads no numpy, nor does the first use of a name of
``halfplane`` or ``geometry``.
"""

__version__ = "0.1.0"

#: Each public name, by the submodule that defines it.
_EXPORTS = {
    "density": (
        "DensityGrid", "ErgodicReport", "PfReport", "cauchy_grid", "ergodic_orbit_check",
        "fit_cauchy", "ks_distance", "mc_error_ratio", "pf_circle_check", "pf_closed_form_check",
        "pf_density_step", "pf_monte_carlo_check", "sample_cauchy",
    ),
    "errors": (
        "FitConvergenceError", "GridResolutionWarning", "OrbitTruncationError",
        "PoleGuardError", "QuadratureError", "SingularInputError",
    ),
    "geometry": (
        "KILLING_FIELD_NAMES", "Metric2", "TwoForm", "apply_complex_structure",
        "canonical_form_coefficient", "christoffel", "conformal_factor", "fisher_metric",
        "fisher_metric_quadrature", "lie_derivative_metric", "lie_derivative_two_form",
        "metric_inner", "symplectic_defect", "symplectic_form", "two_form_value",
        "verify_conformal_pullback",
    ),
    "halfplane": (
        "POLE_EPS", "CanonicalPoint", "ConvergenceReport", "FixedPointRun", "HPoint",
        "canonical_step", "check_alpha", "convergence_bound_check", "converge_to_fixed_point",
        "fixed_point", "from_canonical", "iterate_parameter_map", "jacobian_analytic",
        "parameter_step", "picture_agreement", "to_canonical",
    ),
    "orbit": (
        "OrbitResult", "boole_transform", "cauchy_cdf", "cauchy_pdf", "cauchy_quantile",
        "iterate_orbit", "preimages",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
