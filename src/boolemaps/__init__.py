"""Generalized Boole transforms and their exact half-plane parameter dynamics.

Layout:

* ``orbit``     -- the pointwise map, preimages, orbits, and the Cauchy law
                   ``HPoint``, a point of the upper half-plane, with its
                   pdf, cdf and quantile
* ``halfplane`` -- the induced exact map on Cauchy parameters (the pointwise
                   map on nu - i*gamma), its fixed point and Jacobian,
                   canonical coordinates, convergence diagnostics
* ``geometry``  -- Fisher metric, conformal pullback, Lie derivatives along
                   the Killing fields, symplectic structure, with
                   brute-force oracles
* ``density``   -- transfer-sum and Monte Carlo verification of the reduction
* ``cli``       -- the ``boolemaps`` command
"""

__version__ = "0.1.0"

from .density import (
    DensityGrid,
    ErgodicReport,
    PfReport,
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
    PoleGuardError,
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
    fisher_metric,
    fisher_metric_quadrature,
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
    canonical_step,
    convergence_bound_check,
    converge_to_fixed_point,
    fixed_point,
    from_canonical,
    iterate_parameter_map,
    jacobian_analytic,
    parameter_step,
    picture_agreement,
    to_canonical,
)
from .orbit import (
    POLE_EPS,
    HPoint,
    OrbitResult,
    boole_transform,
    cauchy_cdf,
    cauchy_pdf,
    cauchy_quantile,
    check_alpha,
    iterate_orbit,
    preimages,
)
