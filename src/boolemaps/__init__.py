"""Generalized Boole transforms and their exact half-plane parameter dynamics.

Layout:

* ``orbit``     -- the pointwise map, preimages, orbits, Cauchy primitives
* ``halfplane`` -- the induced exact map on Cauchy parameters (the pointwise
                   map on nu - i*gamma), fixed point, stability, the rotated
                   check form, canonical coordinates
* ``geometry``  -- Fisher metric, conformal pullback, Killing fields,
                   symplectic structure, with brute-force oracles
* ``density``   -- transfer-sum and Monte Carlo verification of the reduction
* ``cli``       -- the ``boolemaps`` command
"""

__version__ = "0.1.0"

from .density import (
    DensityGrid,
    ErgodicReport,
    PfReport,
    SampleBatch,
    cauchy_grid,
    ergodic_orbit_check,
    fit_cauchy,
    ks_distance,
    mc_error_ratio,
    pf_closed_form_check,
    pf_density_step,
    pf_monte_carlo_check,
    sample_cauchy,
)
from .errors import (
    FitConvergenceError,
    GridResolutionWarning,
    OrbitTruncationError,
    QuadratureError,
    SingularInputError,
)
from .geometry import (
    KILLING_FIELD_NAMES,
    Metric2,
    TwoForm,
    apply_complex_structure,
    canonical_form_coefficient,
    christoffel,
    conformal_factor,
    conformal_factor_from_jacobian,
    finite_difference_jacobian,
    fisher_metric,
    fisher_metric_quadrature,
    j_squared_deviation,
    killing_fields,
    lie_derivative_metric,
    lie_derivative_two_form,
    metric_inner,
    symplectic_defect,
    symplectic_form,
    two_form_value,
    verify_conformal_pullback,
)
from .halfplane import (
    CanonicalPoint,
    ConvergenceReport,
    FixedPointRun,
    HPoint,
    StabilityReport,
    TangentVector,
    asymptotic_check,
    canonical_step,
    complex_check_step,
    convergence_bound_check,
    converge_to_fixed_point,
    fixed_point,
    from_canonical,
    iterate_parameter_map,
    jacobian_analytic,
    parameter_step,
    picture_agreement,
    reflect,
    stability_eigenvalues,
    to_canonical,
)
from .orbit import (
    POLE_EPS,
    CauchyParams,
    OrbitResult,
    boole_transform,
    cauchy_cdf,
    cauchy_pdf,
    cauchy_quantile,
    check_alpha,
    g_transform,
    invariant_params,
    invariant_scale,
    iterate_orbit,
    preimages,
)

__all__ = [name for name in dir() if not name.startswith("_")]
