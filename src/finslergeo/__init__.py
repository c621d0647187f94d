"""finslergeo: a numerical engine for Finsler metrics, sprays, connection
lifts, Jacobi fields and the second variation of energy."""

from .errors import (ConfigError, DegenerateFlag, DomainError, DomainExit,
                     FinslerError, GridError, InvalidLift, NoConvergence,
                     NormalityViolation, NotPositiveDefinite, NullDirection,
                     NullReference, SingularBasis)
from .jets import Jet, jet_lift, partial as jet_partial, smath
from .lifts import (AffineCoefficients, ClassicalKind, CPrimeTensor, LiftSpec,
                    SectionJet, affine_coefficients, canonical_section,
                    check_conditions, classical_lift, constant_section,
                    covariant_derivative_curve, cprime_tensor, lift_curvature,
                    nabla_apply, nabla_g, random_admissible_lift,
                    section_from_rule, torsion)
from .metrics import (CartanTensor, FundamentalTensor, MetricSpec,
                      TangentVector, cartan_tensor, check_metric, custom,
                      euclidean, fundamental_tensor, funk, metric_value,
                      poincare_disk, randers, riemannian, sphere_stereographic)
from .rng import SplitMix64
from .spray import (CurvatureEndomorphism, PointFrame, SprayData, SpraySpec,
                    curvature_endomorphism, flag_curvature, horizontal_lift,
                    spray_coefficients, vertical_projector)
from .submanifolds import (NormalVector, Submanifold, affine_subspace, circle,
                           graph_curve, legendre_inverse, legendre_transform,
                           normal_bundle_tangent_basis, normal_cone_solve,
                           omega_F, sff_connection, sff_symplectic, sphere2)
from .variational import (Curve, FieldAlongCurve, VariationFamily, energy,
                          exponential_map, geodesic_residual,
                          integrate_geodesic, jacobi_integrate,
                          jacobi_variation_oracle, parallel_transport,
                          second_variation_formula,
                          variation_energy_derivatives)

__version__ = "0.1.0"
