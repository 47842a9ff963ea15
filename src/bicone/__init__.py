"""Deformations of the double cone with prescribed moduli of continuity.

A numerical laboratory for bi-conformal-energy homeomorphisms built from
admissible modulus families: the vertical cone deformation H and its inverse
F, their glued whole-space extension, conformal/distortion energy integrals,
and empirical modulus/dilatation probes with verification suites.
"""

from .continuity import (DilatationEstimate, ModulusEstimate,
                         QuasiInverseRatios, averaging_lemma_check,
                         doubling_probe, linear_dilatation, modulus_profile,
                         optimal_modulus, quasi_inverse_check,
                         verify_averaging, verify_global_modulus_F,
                         verify_global_modulus_H, verify_main_theorem)
from .deformations import (BracketError, ConeMap, DomainError, GluedMap,
                           InverseView, JacobianData, RadialMap)
from .energy import (EnergyResult, biconformal_energy, conformal_energy_H,
                     energy_F_monte_carlo, energy_modulus_ratio,
                     inner_distortion_integral)
from .geometry import (InteriorSample, cone_norm, euclid_norm,
                       kronecker_sequence, reflect, sample_cone_interior,
                       sample_cone_sphere, sphere_surface_area,
                       unit_ball_volume)
from .moduli import (EnergyDivergenceError, MeasuredConstants, ModulusEnergy,
                     ModulusFunction, check_admissibility, doubling_constant,
                     energy_tail_bound, measured_constants, modulus_energy,
                     modulus_energy_detailed, quasi_inverse_defect)
from .reports import SCHEMA_VERSION, CheckResult, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BracketError", "CheckResult", "ConeMap", "DilatationEstimate",
    "DomainError", "EnergyDivergenceError", "EnergyResult", "GluedMap",
    "InteriorSample", "InverseView", "JacobianData", "MeasuredConstants",
    "ModulusEnergy", "ModulusEstimate", "ModulusFunction",
    "QuasiInverseRatios", "SCHEMA_VERSION", "VerificationReport",
    "averaging_lemma_check", "biconformal_energy", "check_admissibility",
    "cone_norm", "conformal_energy_H", "doubling_constant",
    "doubling_probe", "energy_F_monte_carlo", "energy_modulus_ratio",
    "energy_tail_bound", "euclid_norm", "inner_distortion_integral",
    "kronecker_sequence", "linear_dilatation", "measured_constants",
    "modulus_energy", "modulus_energy_detailed", "modulus_profile", "optimal_modulus",
    "quasi_inverse_check", "quasi_inverse_defect", "reflect",
    "sample_cone_interior", "sample_cone_sphere", "sphere_surface_area",
    "unit_ball_volume", "verify_averaging", "verify_global_modulus_F",
    "verify_global_modulus_H", "verify_main_theorem", "__version__",
]
