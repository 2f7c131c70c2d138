"""Exact and numerical harmonic analysis on 2-step nilpotent Lie algebras.

Constructs the algebra families underlying commutative nilmanifolds,
computes Pfaffian Plancherel data in exact arithmetic, decides square
integrability, builds verified stepwise splits, and validates the
Fourier inversion formulas numerically.

The exact core (pure Python) is imported with the package; the numeric
layers (gaussians, inversion, orbits) load on first access to one of
their names, and numpy with them (with orbits, on its float routes).
"""

import importlib

__version__ = "0.1.0"

from .algebra import LieAlgebraData, bracket, jacobi_defect, nilpotency_class
from .catalog import (abelian, free_two_step, from_name, heisenberg,
                      lambda_a, octonion_double)
from .pfaffian import (SquareIntegrability, b_matrix, is_square_integrable,
                       pf_at, pf_polynomial, pfaffian)
from .stepwise import StepwiseDecomposition, decompose, find_codim_split

_LAZY = {
    "ComplexGaussian": "gaussians", "GaussianTestFunction": "gaussians",
    "GroupPoint": "inversion", "InversionReport": "inversion",
    "factor_point": "inversion", "group_multiply": "inversion",
    "invert_flat": "inversion", "invert_stepwise": "inversion",
    "orbit_space_quadrature_check": "inversion",
    "orbital_character": "inversion", "right_translate": "inversion",
    "OrbitRepresentative": "orbits", "orbit_representative": "orbits",
    "skew_spectrum": "orbits",
}


def __getattr__(name):
    if name not in _LAZY:
        from .config import shown
        raise AttributeError(f"module {shown(__name__)} has no attribute "
                             f"{shown(name)}")
    value = getattr(importlib.import_module("." + _LAZY[name], __name__),
                    name)
    globals()[name] = value
    return value


__all__ = [
    "LieAlgebraData", "bracket", "jacobi_defect", "nilpotency_class",
    "heisenberg", "free_two_step", "octonion_double", "abelian",
    "lambda_a", "from_name",
    "ComplexGaussian", "GaussianTestFunction",
    "GroupPoint", "InversionReport", "group_multiply", "right_translate",
    "invert_flat", "invert_stepwise", "factor_point", "orbital_character",
    "orbit_space_quadrature_check",
    "OrbitRepresentative", "orbit_representative", "skew_spectrum",
    "SquareIntegrability", "b_matrix", "pfaffian", "pf_polynomial",
    "pf_at", "is_square_integrable",
    "StepwiseDecomposition", "decompose", "find_codim_split",
]
