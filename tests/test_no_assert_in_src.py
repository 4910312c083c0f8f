"""Invariants in the library are enforced by raising, never by `assert`.

`python -O` strips assert statements, so a check written as one silently
stops running.  Every module under src/cfkit is parsed and any Assert node is
reported with its file and line.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cfkit").glob("*.py"))


def test_sources_are_found():
    assert {"groups.py", "formula.py", "morphisms.py"} <= {path.name for path in SOURCES}


def test_no_assert_statements_in_the_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements in src/cfkit: " + ", ".join(found)
