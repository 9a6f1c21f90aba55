"""isocert: exact symbolic toolkit for isomonodromy certificates.

Decides and certifies integrability of parameterized linear differential
systems, computes canonical reductions modulo d/dx, minimal telescopers and
Picard-Fuchs operators with certificates, all over Q with zero tolerance.

The public names below are imported on first access (PEP 562), so that
``import isocert`` loads no submodule and a command loads only the modules
it runs.  Reading a name imports its module and binds every public name of
that module.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it provides.
_EXPORTS = {
    ".connection": (
        "ConnectionSystem", "FlattenFound", "FlattenNotFound", "FlattenObstruction",
        "IntegrabilityReport", "SingularGauge", "UnknownDerivation", "bianchi_sum",
        "centralizer", "check_integrability", "defect", "equivalence_move",
        "flatten", "gauge", "moved_defect"),
    ".curve": (
        "CurveClass", "CurveContext", "CurveElement", "CurveReduction", "CurveSpec",
        "UnsupportedPoles", "curve_derive", "curve_reduce", "curve_w", "picard_fuchs"),
    ".derham": (
        "Exact2FormSolvable", "Exact2FormUnsolvable", "Exact2FormUnsupported",
        "H1Class", "ReductionResult", "exact2form_solvable", "gm_derivative",
        "reduce", "telescoper"),
    ".difftower": (
        "CommutativityWitness", "DerivationSymbol", "InconsistentTower",
        "MissingRule", "NotFree", "Tower", "gamma_tower"),
    ".exactalg": (
        "MultiPoly", "NonLinearFactor", "RationalFunction", "VariableRegistry",
        "VarKind", "ZeroDenominator", "ZeroPolynomial", "linear_solve",
        "partial_fractions", "squarefree_factor"),
    ".fields": ("FieldContext", "RationalFieldContext", "RebasedFieldContext"),
    ".galois": (
        "DerivationRebase", "GaloisDescriptor", "SingularRebase",
        "UnsupportedOperator", "companion_system", "descriptor_from_operator",
        "galois_descriptor", "galois_descriptor_curve", "galois_descriptor_tower",
        "horizontal_sections", "rational_solutions", "rebase_derivations"),
    ".operators": ("LinearDiffOperator", "TelescoperNotFound", "TelescoperResult"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(module, __name__)
    globals().update({n: getattr(loaded, n) for n in _EXPORTS[module]})
    return globals()[name]
