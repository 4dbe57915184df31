"""Travel-time extremal curves in stationary spacetimes.

Solvers for the constrained travel-time problem, deformation to conformal
Riemannian geodesics and back, first/second variation checks, Jacobi fields
and focal points, Morse index counts, and a brute-force minimization oracle.
"""

from .errors import BrachkitError
from .geometry import (ConformalGeometry, SpacetimeModel, conformal_factor, conformal_geometry,
                       connection_coeffs, curvature_tensor, metric_eval,
                       riemannian_metric_eval, uk_membership)
from .models import MODEL_NAMES, ModelSpec, make_model
from .curves import Curve, FieldAlongCurve, covariant_derivative_along, field_integral, resample_curve
from .dynamics import (BrachistochroneSolution, IntegratorConfig, brachistochrone_rhs,
                       conservation_report, geodesic_residual, integrate_brachistochrone,
                       integrate_conformal_geodesic)
from .transform import (CorrespondenceReport, correspondence_report, dD_differential, deform_D,
                        lift_G, map_L)
from .variation import (ConformalCurveData, HessianMatrix, LagrangeMultiplierField,
                        SolutionGeometry, VariationConstraintReport, assemble_hessian,
                        constraint_residual, hessian_E_eval, hessian_F_eval, index_form,
                        make_admissible_variation, restricted_index_report,
                        second_fundamental_form_gamma, travel_time_differential)
from .jacobi import (FocalReport, JacobiFieldData, bfocal_points, focal_points,
                     gamma_jacobi_basis, integrate_bjacobi, integrate_rjacobi)
from .bvp import (ObserverWorldline, ShootingProblem, SurveyResult, multistart_survey,
                  sample_initial_velocity, shoot)
from .oracle import (DiscreteCandidate, PenaltyConfig, discrete_minimize,
                     fd_variation_family, penalized_energy)

__version__ = "0.1.0"
