"""Text formats: JSON group files and the formula schema language.

Formula grammar (whitespace between tokens is ignored):

    formula := side ":" side "=>" side ":" side
    side    := "F_" term "(" term ")"
    term    := ("x" | "y" | "a" | "b") ["^-1"]

"=>" is the concrete token for the directed transformation; "^-1" is the only
inversion syntax.
"""

from __future__ import annotations

import json

from .errors import InconsistentRule, ParseError
from .formula import BUILTIN_VARIANTS, CFVariant, FormulaSide, ROLES, RoleTerm
from .groups import FiniteGroup, _check_order, build_group

_WHITESPACE = " \t\r\n"


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError(f"expected {token!r}", position=self.pos)
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def term(self) -> RoleTerm:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in "xyab":
            raise ParseError("expected a role (one of x, y, a, b)", position=self.pos)
        role = self.text[self.pos]
        self.pos += 1
        return RoleTerm(role, self.try_take("^-1"))

    def unit(self) -> tuple[RoleTerm, RoleTerm]:
        self.expect("F_")
        function = self.term()
        self.expect("(")
        argument = self.term()
        self.expect(")")
        return function, argument

    def side(self) -> FormulaSide:
        first = self.unit()
        self.expect(":")
        second = self.unit()
        return FormulaSide(first, second)

    def end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing text", position=self.pos)


def _infer_rule(lhs: FormulaSide, rhs: FormulaSide) -> dict[str, RoleTerm]:
    rule: dict[str, RoleTerm] = {}
    for lt, rt in zip(lhs.terms(), rhs.terms()):
        image = RoleTerm(rt.role, rt.inverted ^ lt.inverted)
        if lt.role in rule and rule[lt.role] != image:
            raise InconsistentRule(
                f"role {lt.role!r} would need both {rule[lt.role]} and {image} as images"
            )
        rule.setdefault(lt.role, image)
    for role in ROLES:
        rule.setdefault(role, RoleTerm(role))
    return rule


def parse_formula(text: str) -> CFVariant:
    """Parse a formula string; the rule is inferred by matching occurrences.

    A parse that coincides with a built-in variant returns that built-in;
    anything else is named "custom".
    """
    scanner = _Scanner(text)
    lhs = scanner.side()
    scanner.expect("=>")
    rhs = scanner.side()
    scanner.end()
    rule = _infer_rule(lhs, rhs)
    for name, builtin in BUILTIN_VARIANTS.items():
        if builtin.lhs == lhs and builtin.rhs == rhs and builtin.rule == rule:
            return builtin
    return CFVariant("custom", lhs, rhs, rule)


def render_formula(variant: CFVariant) -> str:
    """Canonical text; parse_formula(render_formula(v)) reproduces v exactly."""
    return f"{variant.lhs} => {variant.rhs}"


# ---------------------------------------------------------------------------
# Group files.

_GROUP_FILE_KEYS = frozenset({"name", "elements", "identity", "table"})


def parse_group_file(text: str) -> FiniteGroup:
    """Read the JSON group schema and validate it via build_group.

    The schema is an object with "name", "elements" (distinct label strings),
    "identity" (a label), and "table" (n rows of n labels, row-major).
    Labels are compared byte-exact.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", position=exc.pos, line=exc.lineno, column=exc.colno
        ) from None
    if not isinstance(payload, dict):
        raise ParseError("top level must be an object")
    missing = _GROUP_FILE_KEYS - payload.keys()
    if missing:
        raise ParseError(f"missing keys: {', '.join(sorted(missing))}")
    extra = payload.keys() - _GROUP_FILE_KEYS
    if extra:
        raise ParseError(f"unknown keys: {', '.join(sorted(extra))}")

    name = payload["name"]
    if not isinstance(name, str):
        raise ParseError("must be a string", field="name")
    labels = payload["elements"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError("must be an array of strings", field="elements")
    _check_order(len(labels))
    # A repeated label is left for build_group to reject (DuplicateLabel).
    index = {label: i for i, label in enumerate(labels)}

    identity = payload["identity"]
    if not isinstance(identity, str) or identity not in index:
        raise ParseError(f"{identity!r} is not an element label", field="identity")

    table = payload["table"]
    if not isinstance(table, list):
        raise ParseError("must be an array of rows", field="table")
    rows: list[list[int]] = []
    for r, row in enumerate(table):
        if not isinstance(row, list):
            raise ParseError("must be an array of labels", field=f"table[{r}]")
        entries: list[int] = []
        for c, cell in enumerate(row):
            if not isinstance(cell, str) or cell not in index:
                raise ParseError(
                    f"{cell!r} is not an element label", field=f"table[{r}][{c}]"
                )
            entries.append(index[cell])
        rows.append(entries)
    if len(rows) != len(labels) or any(len(row) != len(labels) for row in rows):
        raise ParseError(
            f"must be {len(labels)}x{len(labels)} to match the element list", field="table"
        )
    return build_group(name, labels, rows, index[identity])


def render_group_file(G: FiniteGroup) -> str:
    """Serialize a group in the file schema (stable key order, trailing newline)."""
    payload = {
        "name": G.name,
        "elements": list(G.elements),
        "identity": G.label(G.identity),
        "table": [[G.label(v) for v in row] for row in G.table],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_builtin_group_file(name: str) -> str:
    """Text of a group file shipped with the package (e.g. "q8")."""
    # Imported here: importlib.resources is costly to import, and no other
    # command needs it.
    from importlib.resources import files

    return files("cfkit").joinpath(f"data/{name}.json").read_text(encoding="utf-8")
