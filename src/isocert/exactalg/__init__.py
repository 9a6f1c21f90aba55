"""Exact arithmetic: rationals, sparse multivariate polynomials, reduced
rational functions, and linear algebra over their fraction fields."""

from .factor import (NonLinearFactor, PartialFractions, linear_poles, partial_fractions,
                     squarefree_factor)
from .linalg import (LinearSolution, SingularMatrix, identity, linear_solve,
                     mat_add, mat_commutator, mat_eq, mat_inverse, mat_is_zero,
                     mat_mul, mat_neg, mat_scale, mat_sub, mat_transpose, zeros)
from .poly import MultiPoly, ZeroPolynomial, exact_div, gcd, lcm, prem
from .printing import format_poly, format_rational
from .rational import RationalFunction, ZeroDenominator
from .registry import (DuplicateVariable, ExactAlgError, UnknownVariable,
                       VariableRegistry, VarKind)
from .upoly import UPoly, upoly_xgcd

__all__ = [
    "DuplicateVariable", "ExactAlgError", "LinearSolution", "MultiPoly",
    "NonLinearFactor", "PartialFractions", "RationalFunction",
    "SingularMatrix", "UPoly", "UnknownVariable", "VarKind", "VariableRegistry",
    "ZeroDenominator", "ZeroPolynomial", "exact_div", "format_poly",
    "format_rational", "gcd", "identity", "lcm", "linear_poles", "linear_solve",
    "mat_add", "mat_commutator", "mat_eq", "mat_inverse", "mat_is_zero",
    "mat_mul", "mat_neg", "mat_scale", "mat_sub", "mat_transpose",
    "partial_fractions", "prem", "squarefree_factor", "upoly_xgcd", "zeros",
]
