"""Finite-group toolkit and canonical-formula analyzer.

Importing the package loads none of its modules.  Each public name below, and
each of the submodules that define them, is imported on first use (PEP 562),
so a command-line call pays only for the modules its subcommand runs.
"""

from importlib import import_module

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "errors": (
        "ClosureViolation",
        "ConflictingPairs",
        "DuplicateLabel",
        "GroupTooLarge",
        "InconsistentRule",
        "IndexOutOfRange",
        "InvalidAssignment",
        "KindMismatch",
        "LengthMismatch",
        "MissingInverse",
        "NoIdentity",
        "NonAssociative",
        "NonCommutativeGroup",
        "NotAutomorphism",
        "NotBijective",
        "ParseError",
        "SourceTargetMismatch",
        "ToolkitError",
        "UnknownKind",
        "UnknownLabel",
        "UnsatisfiableConstraint",
        "WorkLimitExceeded",
        "WrongIdentity",
    ),
    "groups": (
        "ElementSubset",
        "FiniteGroup",
        "FractionTransformation",
        "FractionTransformationGroup",
        "StructureFlags",
        "build_group",
        "catalog",
        "catalog_group",
        "center",
        "element_order",
        "fraction_transformation_group",
        "generated_subgroup",
        "inverse_of",
        "standard_group",
        "structure_flags",
    ),
    "morphisms": (
        "GroupMap",
        "SymmetryGroup",
        "are_isomorphic",
        "classify_map",
        "compose_maps",
        "enumerate_symmetries",
        "find_isomorphism",
        "identity_map",
        "inner_automorphisms",
        "inversion_map",
        "invert_map",
        "is_outer",
        "isomorphisms",
        "map_to_json",
        "q8_symmetry",
        "symmetry_group",
    ),
    "formula": (
        "BUILTIN_VARIANTS",
        "CLASSIC",
        "DUAL",
        "MOSKO",
        "ROLES",
        "CFVariant",
        "ChainResult",
        "ChainStep",
        "FormulaSide",
        "PartialMap",
        "RoleAssignment",
        "RoleTerm",
        "apply_rule",
        "assignment_to_json",
        "chain_to_json",
        "enumerate_assignments",
        "evaluate_role_term",
        "induced_partial_map",
        "iterate_chain",
        "mosko_degeneration_check",
        "realizations",
        "rewrite_side",
        "variant_by_name",
        "verify_fraction_rule",
    ),
    "dsl": (
        "load_builtin_group_file",
        "parse_formula",
        "parse_group_file",
        "render_formula",
        "render_group_file",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule also binds it here, so this runs once per name.
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
