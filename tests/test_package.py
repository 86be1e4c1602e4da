"""The package namespace: every public name resolves, on first use, to its module's object."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

import boolemaps

#: The names ``import boolemaps`` bound when it imported every submodule,
#: by the submodule each came from then.
BOUND = {
    "density": (
        "DensityGrid", "ErgodicReport", "PfReport", "cauchy_grid", "ergodic_orbit_check",
        "fit_cauchy", "ks_distance", "mc_error_ratio", "pf_closed_form_check",
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
        "CanonicalPoint", "ConvergenceReport", "FixedPointRun", "canonical_step",
        "convergence_bound_check", "converge_to_fixed_point", "fixed_point", "from_canonical",
        "iterate_parameter_map", "jacobian_analytic", "parameter_step", "picture_agreement",
        "to_canonical",
    ),
    "orbit": (
        "POLE_EPS", "HPoint", "OrbitResult", "boole_transform", "cauchy_cdf", "cauchy_pdf",
        "cauchy_quantile", "check_alpha", "iterate_orbit", "preimages",
    ),
}
NAMES = [name for names in BOUND.values() for name in names]
MODULES = list(BOUND)

#: Names the benchmark's in-process operations read from a submodule.
BENCHMARK_READS = [
    ("orbit", "CauchyParams"),
    ("halfplane", "HPoint"),
    ("halfplane", "CanonicalPoint"),
    ("geometry", "conformal_factor"),
]

#: The scalar core's names that each module binds as its own, by module.
CORE = {
    "halfplane": ("POLE_EPS", "check_alpha", "_boole", "_step", "_fixed_scale", "_half_reciprocal"),
    "orbit": ("POLE_EPS", "check_alpha", "_boole", "_iterates"),
    "density": (
        "POLE_EPS", "DEFAULT_GRID_SIZE", "MIN_MONTE_CARLO_SIZE", "KS_MIN_SAMPLES",
        "check_alpha", "_cpu_count",
    ),
}


def _traced() -> dict:
    # The functions the benchmark's tracer wraps, by module.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip("no perfbench/ next to the tests")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module", MODULES)
def test_bound_names_resolve_to_their_module_objects(module):
    submodule = importlib.import_module(f"boolemaps.{module}")
    assert getattr(boolemaps, module) is submodule
    for name in BOUND[module]:
        assert getattr(boolemaps, name) is getattr(submodule, name), name


def test_star_import_and_dir_list_every_bound_name():
    namespace: dict = {}
    exec("from boolemaps import *", namespace)
    assert set(NAMES + MODULES) <= set(namespace)
    assert set(NAMES + MODULES + ["__version__"]) <= set(dir(boolemaps))
    assert boolemaps.__version__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        boolemaps.no_such_name  # noqa: B018
    assert not hasattr(boolemaps, "no_such_name")


def test_names_the_benchmark_reads_resolve():
    for module, names in _traced().items():
        submodule = importlib.import_module(f"boolemaps.{module}")
        for name in names:
            assert callable(getattr(submodule, name)), f"{module}.{name}"
    for module, name in BENCHMARK_READS:
        assert getattr(importlib.import_module(f"boolemaps.{module}"), name)


def test_moved_names_are_the_scalar_core_objects():
    from boolemaps import _core, halfplane

    for module, names in CORE.items():
        submodule = importlib.import_module(f"boolemaps.{module}")
        for name in names:
            assert getattr(submodule, name) is getattr(_core, name), f"{module}.{name}"
    orbit = importlib.import_module("boolemaps.orbit")
    assert orbit.HPoint is orbit.CauchyParams is halfplane.HPoint
    # the double numpy gives for |tan(-pi/2)|
    assert _core.MAX_SAMPLE_OFFSET == 1.633123935319537e16
    assert _core.MAX_SAMPLE_OFFSET == abs(math.tan(-0.5 * math.pi))


def test_first_use_loads_only_the_module_that_defines_the_name():
    # The scalar core is reached without numpy; an array function brings it.
    probe = "\n".join([
        "import sys, boolemaps",
        "loaded = lambda: 'numpy' in sys.modules",
        "before = loaded()",
        "boolemaps.HPoint(0.0, 1.0); boolemaps.parameter_step; boolemaps.conformal_factor",
        "boolemaps.fisher_metric; boolemaps.Metric2",
        "scalar = loaded()",
        "boolemaps.iterate_orbit",
        "print(before, scalar, loaded())",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]
