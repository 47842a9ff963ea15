"""Deformations of the double cone with prescribed moduli of continuity.

A numerical laboratory for bi-conformal-energy homeomorphisms built from
admissible modulus families: the vertical cone deformation H and its inverse
F, their glued whole-space extension, conformal/distortion energy integrals,
and empirical modulus/dilatation probes with verification suites.

The package exports exactly what its submodules list in their ``__all__``.
"""

from . import continuity, deformations, energy, geometry, moduli, reports
from .continuity import *
from .deformations import *
from .energy import *
from .geometry import *
from .moduli import *
from .reports import *

__version__ = "0.1.0"

__all__ = [name for module in (continuity, deformations, energy, geometry, moduli, reports)
           for name in module.__all__] + ["__version__"]
