"""Group-file parsing and the formula language."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import (
    BUILTIN_VARIANTS,
    CLASSIC,
    DUAL,
    MOSKO,
    ROLES,
    CFVariant,
    DuplicateLabel,
    FormulaSide,
    InconsistentRule,
    NonAssociative,
    ParseError,
    RoleTerm,
    load_builtin_group_file,
    parse_formula,
    parse_group_file,
    render_formula,
    render_group_file,
    rewrite_side,
    standard_group,
)

CLASSIC_TEXT = "F_x(a):F_y(b) => F_x(b):F_a^-1(y)"
DUAL_TEXT = "F_x(a):F_y(b) => F_y(x):F_a^-1(b)"
MOSKO_TEXT = "F_x(a):F_y(b) => F_x(b):F_y(a)"


# ---------------------------------------------------------------------------
# group files


def test_shipped_q8_file_parses_to_the_standard_group():
    G = parse_group_file(load_builtin_group_file("q8"))
    assert G == standard_group("q8")
    i, j = G.index_of("i"), G.index_of("j")
    assert G.label(G.mul(i, j)) == "k"


def test_group_file_roundtrip():
    for name in ("q8", "klein", "sign"):
        G = standard_group(name)
        assert parse_group_file(render_group_file(G)) == G


def test_group_file_with_duplicate_label():
    payload = {
        "name": "dup",
        "elements": ["e", "e"],
        "identity": "e",
        "table": [["e", "e"], ["e", "e"]],
    }
    with pytest.raises(DuplicateLabel):
        parse_group_file(json.dumps(payload))


def test_group_file_nonassociative_names_witness():
    payload = {
        "name": "magma",
        "elements": ["e", "p", "q"],
        "identity": "e",
        "table": [["e", "p", "q"], ["p", "e", "p"], ["q", "q", "e"]],
    }
    # Independent triple-loop check that (p*p)*q != p*(p*q) in this table.
    table = [[0, 1, 2], [1, 0, 1], [2, 2, 0]]
    assert table[table[1][1]][2] != table[1][table[1][2]]
    with pytest.raises(NonAssociative, match="witness"):
        parse_group_file(json.dumps(payload))


def test_group_file_bad_json_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse_group_file('{"name": "x",')
    assert excinfo.value.line is not None


def test_group_file_schema_errors():
    with pytest.raises(ParseError, match="missing keys"):
        parse_group_file('{"name": "x"}')
    with pytest.raises(ParseError, match="unknown keys"):
        parse_group_file(
            '{"name": "x", "elements": ["e"], "identity": "e", "table": [["e"]], "note": 1}'
        )
    with pytest.raises(ParseError, match="identity"):
        parse_group_file('{"name": "x", "elements": ["e"], "identity": "z", "table": [["e"]]}')
    with pytest.raises(ParseError, match=r"table\[0\]\[0\]"):
        parse_group_file('{"name": "x", "elements": ["e"], "identity": "e", "table": [["z"]]}')
    with pytest.raises(ParseError, match="top level"):
        parse_group_file("[1, 2]")


@pytest.mark.parametrize(
    "table",
    [[["e", "a"], ["a"]], [["e", "a"]], [["e", "a"], ["a", "e", "e"]]],
    ids=["short-row", "missing-row", "long-row"],
)
def test_group_file_with_a_ragged_table_names_the_table(table):
    text = json.dumps({"name": "x", "elements": ["e", "a"], "identity": "e", "table": table})
    with pytest.raises(ParseError, match="must be 2x2 to match the element list") as excinfo:
        parse_group_file(text)
    assert excinfo.value.field == "table"


# ---------------------------------------------------------------------------
# formula parsing


def test_builtin_strings_reproduce_builtins():
    assert parse_formula(CLASSIC_TEXT) == CLASSIC
    assert parse_formula(DUAL_TEXT) == DUAL
    assert parse_formula(MOSKO_TEXT) == MOSKO
    assert parse_formula(CLASSIC_TEXT).name == "classic"


def test_identity_formula_is_legal():
    v = parse_formula("F_x(a):F_y(b) => F_x(a):F_y(b)")
    assert v.name == "custom"
    assert v.rule == {r: RoleTerm(r) for r in ROLES}


def test_whitespace_is_insignificant():
    v = parse_formula("  F_x ( a ) : F_y(b)\t=>  F_x(b):F_a ^-1 ( y )  ")
    assert v == CLASSIC


def test_inverted_terms_on_the_left():
    v = parse_formula("F_x(a^-1):F_y(b) => F_x(b^-1):F_a(y)")
    # Matching a^-1 to b^-1 cancels the marks, so a maps to plain b.
    assert v.rule["a"] == RoleTerm("b")
    assert v.rule["y"] == RoleTerm("a")
    # An inverted image survives when only the right slot carries the mark.
    w = parse_formula("F_x(a):F_y(b) => F_x(b):F_a^-1(y)")
    assert w.rule["y"] == RoleTerm("a", True)


def test_parse_errors_carry_positions():
    cases = [
        "F_x(a):F_y(b)",  # missing arrow
        "F_x(a):F_y(b) => F_x(b):F_q^-1(y)",  # bad role
        "F_x(a:F_y(b) => F_x(b):F_a^-1(y)",  # missing paren
        "F_x(a):F_y(b) => F_x(b):F_a^-1(y) junk",  # trailing text
        "",
    ]
    for text in cases:
        with pytest.raises(ParseError) as excinfo:
            parse_formula(text)
        assert excinfo.value.position is not None


def test_inconsistent_rule():
    with pytest.raises(InconsistentRule):
        parse_formula("F_x(a):F_x(b) => F_y(a):F_x(b)")


def test_roles_missing_from_the_left_default_to_identity():
    v = parse_formula("F_x(a):F_x(b) => F_x(b):F_x(a)")
    assert v.rule["y"] == RoleTerm("y")


# ---------------------------------------------------------------------------
# rendering


def test_render_builtin_strings():
    assert render_formula(CLASSIC) == CLASSIC_TEXT
    assert render_formula(DUAL) == DUAL_TEXT
    assert render_formula(MOSKO) == MOSKO_TEXT


def test_parse_render_roundtrip_on_builtins():
    for variant in BUILTIN_VARIANTS.values():
        assert parse_formula(render_formula(variant)) == variant


def _random_variant(rng: random.Random) -> CFVariant:
    def term():
        return RoleTerm(rng.choice(ROLES), rng.random() < 0.5)

    lhs = FormulaSide((term(), term()), (term(), term()))
    rule = {role: term() for role in ROLES}
    return CFVariant("custom", lhs, rewrite_side(rule, lhs), rule)


def test_render_parse_is_byte_identical_on_random_corpus():
    rng = random.Random(20260810)
    for _ in range(1000):
        text = render_formula(_random_variant(rng))
        assert render_formula(parse_formula(text)) == text


def test_parse_render_is_identity_on_parsed_variants():
    rng = random.Random(4)
    for _ in range(200):
        v = parse_formula(render_formula(_random_variant(rng)))
        assert parse_formula(render_formula(v)) == v


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parse_is_stable_under_whitespace_noise(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    text = render_formula(_random_variant(random.Random(seed)))
    pieces = []
    for ch in text:
        pieces.append(ch)
        if ch in "():" and data.draw(st.booleans()):
            pieces.append(" ")
    noisy = "".join(pieces)
    assert render_formula(parse_formula(noisy)) == text
