"""Exact-arithmetic toolkit for the geometric decomposition of abelian
varieties of order 1 over F_2."""

from .cyclo import CycInt, cyclotomic_poly
from .intpoly import IntPoly
from .roots import RootOfUnity, root

__version__ = "0.1.0"

__all__ = [
    "CycInt",
    "IntPoly",
    "RootOfUnity",
    "cyclotomic_poly",
    "root",
]
