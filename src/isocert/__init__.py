"""isocert: exact symbolic toolkit for isomonodromy certificates.

Decides and certifies integrability of parameterized linear differential
systems, computes canonical reductions modulo d/dx, minimal telescopers and
Picard-Fuchs operators with certificates, all over Q with zero tolerance.
"""

from .connection import (ConnectionSystem, CurvatureForm, FlattenFound,
                         FlattenNotFound, FlattenObstruction,
                         IntegrabilityReport, SingularGauge, UnknownDerivation,
                         bianchi_sum, centralizer, check_integrability,
                         curvature, defect, equivalence_move, flatten, gauge,
                         moved_defect)
from .curve import (CurveClass, CurveContext, CurveElement, CurveReduction,
                    CurveSpec, UnsupportedPoles, curve_derive, curve_reduce,
                    curve_w, picard_fuchs)
from .derham import (Exact2FormSolvable, Exact2FormUnsolvable,
                     Exact2FormUnsupported, H1Class, ReductionResult,
                     exact2form_solvable, gm_derivative, reduce, telescoper)
from .difftower import (CommutativityWitness, DerivationSymbol,
                        InconsistentTower, MissingRule, NotFree, Tower,
                        gamma_tower)
from .exactalg import (MultiPoly, NonLinearFactor, RationalFunction,
                       VariableRegistry, VarKind, ZeroDenominator,
                       ZeroPolynomial, linear_solve, partial_fractions,
                       squarefree_factor)
from .fields import FieldContext, RationalFieldContext, RebasedFieldContext
from .galois import (DerivationRebase, GaloisDescriptor, SingularRebase,
                     UnsupportedOperator, companion_system,
                     descriptor_from_operator, galois_descriptor,
                     galois_descriptor_curve, galois_descriptor_tower,
                     horizontal_sections, rational_solutions,
                     rebase_derivations)
from .operators import LinearDiffOperator, TelescoperNotFound, TelescoperResult

__version__ = "0.1.0"

__all__ = [
    "CommutativityWitness", "ConnectionSystem", "CurvatureForm", "CurveClass",
    "CurveContext", "CurveElement", "CurveReduction", "CurveSpec",
    "DerivationRebase", "DerivationSymbol", "Exact2FormSolvable",
    "Exact2FormUnsolvable", "Exact2FormUnsupported", "FieldContext",
    "FlattenFound", "FlattenNotFound", "FlattenObstruction",
    "GaloisDescriptor", "H1Class", "InconsistentTower", "IntegrabilityReport",
    "LinearDiffOperator", "MissingRule", "MultiPoly", "NonLinearFactor",
    "NotFree", "RationalFieldContext", "RationalFunction",
    "RebasedFieldContext", "ReductionResult", "SingularGauge",
    "SingularRebase", "TelescoperNotFound", "TelescoperResult", "Tower",
    "UnknownDerivation", "UnsupportedOperator", "UnsupportedPoles", "VarKind",
    "VariableRegistry", "ZeroDenominator", "ZeroPolynomial", "bianchi_sum",
    "centralizer", "check_integrability", "companion_system", "curvature",
    "curve_derive", "curve_reduce", "curve_w", "defect",
    "descriptor_from_operator", "equivalence_move", "exact2form_solvable",
    "flatten", "galois_descriptor", "galois_descriptor_curve",
    "galois_descriptor_tower", "gamma_tower", "gauge", "gm_derivative",
    "horizontal_sections", "linear_solve", "moved_defect", "partial_fractions",
    "picard_fuchs", "rational_solutions", "rebase_derivations", "reduce",
    "squarefree_factor", "telescoper",
]
