"""nevkit: circle functionals of atomic potentials and growth-bound checks."""

__version__ = "0.1.0"

from .errors import (AtomOnCircle, CoincidentOppositeAtoms, NegativeMassInView,
                     NevkitError, ParseError, PoleOnCircle, SharedZeroPole,
                     ToleranceNotReached)
from .potentials import (DeltaSubharmonicModel, HarmonicPart, RadialWindow,
                         RieszAtom, canonical_split, circle_max,
                         circle_max_many, circle_mean, circle_mean_max,
                         circle_mean_plus, evaluate, evaluate_many,
                         from_rational, model_from_json, model_to_json, negate)
from .integrators import (CantorPart, Integrator, Jump, LogSingularity, Piece,
                          dini_integral, eval_m, eval_m_many,
                          integrator_from_json, integrator_to_json, lebesgue,
                          log_kernel_integral, nonconstancy_support, omega,
                          omega_log_kernel_pair, omega_many, stieltjes_integral)
from .characteristics import (ChargeView, ClassicalCharacteristic,
                              classical_characteristic, diff_nevanlinna,
                              diff_nevanlinna_total, integrated_counting,
                              jensen_residual, radial_counting)
from .bounds import (VerificationCase, VerificationReport, classical_shape_check,
                     counterexample_scan, counting_bound, generate_cases,
                     growth_bound_lhs, growth_bound_rhs, growth_bound_verify,
                     max_plus_sampler, poisson_jensen_bound, random_case,
                     reference_case, scan_slope, verify_suite)
