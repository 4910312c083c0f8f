"""Start-up footprint: `import cfkit` loads no submodule, and a command loads
only the modules its subcommand runs.

The package resolves its public names on first use, so these tests also pin
that surface: the same 83 names, each the object its defining module holds.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfkit

SRC = Path(__file__).resolve().parents[1] / "src"
Q8_FILE = SRC / "cfkit" / "data" / "q8.json"

# The public names, by defining module, as the package imported them eagerly.
NAMES = {
    "errors": [
        "ClosureViolation", "ConflictingPairs", "DuplicateLabel", "GroupTooLarge",
        "InconsistentRule", "IndexOutOfRange", "InvalidAssignment", "KindMismatch",
        "LengthMismatch", "MissingInverse", "NoIdentity", "NonAssociative",
        "NonCommutativeGroup", "NotAutomorphism", "NotBijective", "ParseError",
        "SourceTargetMismatch", "ToolkitError", "UnknownKind", "UnknownLabel",
        "UnsatisfiableConstraint", "WorkLimitExceeded", "WrongIdentity",
    ],
    "groups": [
        "ElementSubset", "FiniteGroup", "FractionTransformation",
        "FractionTransformationGroup", "StructureFlags", "build_group", "catalog",
        "catalog_group", "center", "element_order", "fraction_transformation_group",
        "generated_subgroup", "inverse_of", "standard_group", "structure_flags",
    ],
    "morphisms": [
        "GroupMap", "SymmetryGroup", "are_isomorphic", "classify_map", "compose_maps",
        "enumerate_symmetries", "find_isomorphism", "identity_map", "inner_automorphisms",
        "inversion_map", "invert_map", "is_outer", "isomorphisms", "map_to_json",
        "q8_symmetry", "symmetry_group",
    ],
    "formula": [
        "BUILTIN_VARIANTS", "CLASSIC", "DUAL", "MOSKO", "ROLES", "CFVariant",
        "ChainResult", "ChainStep", "FormulaSide", "PartialMap", "RoleAssignment",
        "RoleTerm", "apply_rule", "assignment_to_json", "chain_to_json",
        "enumerate_assignments", "evaluate_role_term", "induced_partial_map",
        "iterate_chain", "mosko_degeneration_check", "realizations", "rewrite_side",
        "variant_by_name", "verify_fraction_rule",
    ],
    "dsl": [
        "load_builtin_group_file", "parse_formula", "parse_group_file",
        "render_formula", "render_group_file",
    ],
}
ALL = [name for names in NAMES.values() for name in names]
HOMES = [(module, name) for module, names in NAMES.items() for name in names]


def fresh_python(code, *args):
    """Run code under `python -S` with only this checkout's sources on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )


LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'cfkit')"
# Runs the package as `python -m cfkit` does, then lists the cfkit modules.
RUN_COMMAND = f"""
import runpy, sys
sys.argv = ["cfkit", *sys.argv[1:]]
try:
    runpy.run_module("cfkit", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(*{LOADED}, file=sys.stderr)
"""

BASE = ["cfkit", "cfkit._record", "cfkit.cli", "cfkit.errors", "cfkit.groups"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["check-group", "--group", "q8"], []),
        (["check-group", "--file", str(Q8_FILE)], ["cfkit.dsl"]),
        (["symmetries", "--group", "q8"], ["cfkit.morphisms"]),
        (
            ["cf-check", "--group", "q8", "--variant", "classic", "--anti",
             "--assign", "x=1,a=i,y=j,b=k"],
            ["cfkit.dsl", "cfkit.formula", "cfkit.morphisms"],
        ),
        (
            ["cf-enumerate", "--group", "q8", "--variant", "classic", "--anti",
             "--pin", "x=1,a=i"],
            ["cfkit.formula", "cfkit.morphisms"],
        ),
        (
            ["cf-orbit", "--variant", "dual", "--steps", "3"],
            ["cfkit.dsl", "cfkit.formula", "cfkit.morphisms"],
        ),
        (["fraction-rule", "--group", "c6"], ["cfkit.formula", "cfkit.morphisms"]),
        (["demo"], ["cfkit.formula", "cfkit.morphisms"]),
    ],
    ids=[
        "check-group", "check-group-file", "symmetries", "cf-check",
        "cf-enumerate-variant", "cf-orbit-no-group", "fraction-rule", "demo",
    ],
)
def test_a_command_loads_only_what_its_subcommand_runs(argv, extra):
    loaded = fresh_python(RUN_COMMAND, *argv).stderr.split()
    assert loaded == sorted(BASE + extra)


def test_import_cfkit_loads_no_submodule_until_one_is_used():
    code = (
        "import sys, cfkit\n"
        f"print(*{LOADED})\n"
        "print(*(m.__name__ for m in (cfkit.groups, cfkit.morphisms, cfkit.formula, "
        "cfkit.dsl, cfkit.errors)))\n"
    )
    before, used = fresh_python(code).stdout.splitlines()
    assert before == "cfkit"
    assert used == "cfkit.groups cfkit.morphisms cfkit.formula cfkit.dsl cfkit.errors"


def test_all_lists_the_public_names():
    assert cfkit.__all__ == ALL
    assert len(ALL) == 83


@pytest.mark.parametrize("module, name", HOMES, ids=[name for _, name in HOMES])
def test_each_name_is_its_defining_modules_object(module, name):
    assert getattr(cfkit, name) is getattr(importlib.import_module(f"cfkit.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cfkit import *", namespace)
    for module, name in HOMES:
        assert namespace[name] is getattr(importlib.import_module(f"cfkit.{module}"), name)


def test_dir_lists_the_names_and_submodules():
    listed = dir(cfkit)
    assert set(ALL) <= set(listed)
    assert set(NAMES) <= set(listed)
    assert listed == sorted(listed)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        cfkit.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from cfkit import no_such_name", {})
