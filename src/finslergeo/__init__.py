"""finslergeo: a numerical engine for Finsler metrics, sprays, connection
lifts, Jacobi fields and the second variation of energy."""

from .errors import (ConfigError, DegenerateFlag, DomainError, DomainExit,
                     FinslerError, GridError, InvalidLift, NoConvergence,
                     NormalityViolation, NotHomogeneous, NotPositiveDefinite,
                     NullDirection, NullReference, SingularBasis)
from .jets import Jet, smath
from .lifts import (AffineCoefficients, ClassicalKind, LiftSpec, SectionJet,
                    affine_coefficients, classical_lift, condition_residuals,
                    covariant_derivative_curve, lift_curvature, nabla_apply,
                    random_admissible_lift)
from .metrics import (CartanTensor, FundamentalTensor, MetricSpec,
                      TangentVector, cartan_tensor, check_metric, custom,
                      euclidean, fundamental_tensor, funk, metric_value,
                      poincare_disk, randers, riemannian, sphere_stereographic)
from .rng import SplitMix64
from .spray import (CurvatureEndomorphism, PointFrame, SprayData, SpraySpec,
                    curvature_endomorphism, flag_curvature, spray_coefficients)
from .submanifolds import (NormalVector, Submanifold, affine_subspace, circle,
                           legendre_transform, normal_bundle_tangent_basis,
                           normal_cone_solve, omega_F, sff_connection,
                           sff_symplectic, sphere2)
from .variational import (Curve, FieldAlongCurve, VariationFamily,
                          geodesic_residual, integrate_geodesic,
                          jacobi_integrate, jacobi_variation_oracle,
                          parallel_transport, second_variation_formula,
                          variation_energy_derivatives)

__version__ = "0.1.0"
