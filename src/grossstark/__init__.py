"""Desk-scale verification toolkit for the rank-r Gross-Stark conjecture over Q.

Exact p-adic arithmetic, Kubota-Leopoldt p-adic L-functions with dual-number
derivatives, the Lambda-ring weight-specialization bridge, Hecke operators on
Eisenstein q-expansions, the nilpotent W-algebras with their determinant
identities, and the p-unit Gross regulator, wired together by a batch
verification CLI (`verify`).
"""

__version__ = "0.1.0"

from .characters import (BernoulliCache, DirichletCharacter, bernoulli_number,
                         gen_bernoulli, is_fundamental_discriminant, kronecker,
                         prime_discriminant)
from .errors import (ConsistencyError, ConstructionError,
                     DegenerateInstanceError, DomainError,
                     IndeterminateOrderError, NoRootError, PoleError,
                     PrecisionError, RamifiedError, UnsupportedPoleError)
from .lambdaring import (DEFAULT_TRUNCATION, LambdaElement, epsilon_char,
                         nu_k, pi_normalize, topological_generator)
from .lfunctions import (LpReport, LSeriesInstance, analytic_invariant,
                         classical_L_at_nonpositive, kubota_leopoldt,
                         lp_derivative_at_0, lstar, order_probe)
from .padic import (PadicNumber, angle_bracket, cornacchia, hensel_sqrt,
                    plog, teichmuller, v_p)
from .qexp import (QExpansion, build_Fk, eisenstein, eisenstein_two_char,
                   hecke_T, hecke_U, hida_surrogate, verify_up_relation)
from .regulator import (PUnitCertificate, class_number, find_p_unit,
                        gross_regulator_general, gross_regulator_rank1)
from .walgebra import (Laurent, WAlgebra, WElement, build_W,
                       case1_det_identity, case2_det_identity,
                       case3_det_identity, det, epsilon_pi_minus_y, epsilon_y,
                       hecke_t_image, u_p_image)

__all__ = [
    "__version__",
    # characters
    "BernoulliCache", "DirichletCharacter", "bernoulli_number",
    "gen_bernoulli", "is_fundamental_discriminant", "kronecker",
    "prime_discriminant",
    # errors
    "ConsistencyError", "ConstructionError", "DegenerateInstanceError",
    "DomainError", "IndeterminateOrderError", "NoRootError", "PoleError",
    "PrecisionError", "RamifiedError", "UnsupportedPoleError",
    # lambda ring
    "DEFAULT_TRUNCATION", "LambdaElement", "epsilon_char", "nu_k",
    "pi_normalize", "topological_generator",
    # L-functions
    "LpReport", "LSeriesInstance", "analytic_invariant",
    "classical_L_at_nonpositive", "kubota_leopoldt", "lp_derivative_at_0",
    "lstar", "order_probe",
    # p-adics
    "PadicNumber", "angle_bracket", "cornacchia", "hensel_sqrt", "plog",
    "teichmuller", "v_p",
    # q-expansions
    "QExpansion", "build_Fk", "eisenstein", "eisenstein_two_char", "hecke_T",
    "hecke_U", "hida_surrogate", "verify_up_relation",
    # regulator
    "PUnitCertificate", "class_number", "find_p_unit",
    "gross_regulator_general", "gross_regulator_rank1",
    # W-algebras
    "Laurent", "WAlgebra", "WElement", "build_W", "case1_det_identity",
    "case2_det_identity", "case3_det_identity", "det", "epsilon_pi_minus_y",
    "epsilon_y", "hecke_t_image", "u_p_image",
]
