"""Variants, assignments, realization search, chains, and the two degenerations."""

import itertools

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
    ConflictingPairs,
    FormulaSide,
    InconsistentRule,
    InvalidAssignment,
    NonCommutativeGroup,
    PartialMap,
    RoleAssignment,
    RoleTerm,
    UnsatisfiableConstraint,
    catalog,
    enumerate_assignments,
    evaluate_role_term,
    induced_partial_map,
    inverse_of,
    iterate_chain,
    mosko_degeneration_check,
    q8_symmetry,
    realizations,
    standard_group,
    structure_flags,
    verify_fraction_rule,
)

Q8 = standard_group("q8")
KLEIN = standard_group("klein")


def q8_assignment(x, a, y, b, **kwargs):
    values = {"x": Q8.index_of(x), "a": Q8.index_of(a), "y": Q8.index_of(y), "b": Q8.index_of(b)}
    return RoleAssignment(Q8, values, **kwargs)


CLASSIC_Q8 = q8_assignment("1", "i", "j", "k")


# ---------------------------------------------------------------------------
# variants


def test_builtin_rules():
    assert CLASSIC.rule == {
        "x": RoleTerm("x"),
        "a": RoleTerm("b"),
        "y": RoleTerm("a", True),
        "b": RoleTerm("y"),
    }
    assert DUAL.rule == {
        "x": RoleTerm("y"),
        "a": RoleTerm("x"),
        "y": RoleTerm("a", True),
        "b": RoleTerm("b"),
    }
    assert MOSKO.rule == {
        "x": RoleTerm("x"),
        "y": RoleTerm("y"),
        "a": RoleTerm("b"),
        "b": RoleTerm("a"),
    }


def test_builtin_sides_render():
    assert str(CLASSIC.lhs) == "F_x(a):F_y(b)"
    assert str(CLASSIC.rhs) == "F_x(b):F_a^-1(y)"
    assert str(DUAL.rhs) == "F_y(x):F_a^-1(b)"
    assert str(MOSKO.rhs) == "F_x(b):F_y(a)"


def test_variant_construction_checks_rule():
    with pytest.raises(InconsistentRule):
        CFVariant("broken", CLASSIC.lhs, MOSKO.rhs, CLASSIC.rule)
    with pytest.raises(InconsistentRule):
        CFVariant("partial", CLASSIC.lhs, CLASSIC.rhs, {"x": RoleTerm("x")})


def test_role_term_validation():
    with pytest.raises(ValueError):
        RoleTerm("q")


# ---------------------------------------------------------------------------
# assignments and evaluation


def test_assignment_distinctness_policy():
    with pytest.raises(InvalidAssignment):
        q8_assignment("1", "i", "i", "k")
    relaxed = q8_assignment("1", "i", "i", "k", allow_repeats=True)
    assert relaxed.values["a"] == relaxed.values["y"]


def test_assignment_requires_all_roles():
    with pytest.raises(InvalidAssignment):
        RoleAssignment(Q8, {"x": 0, "y": 1, "a": 2})


def test_evaluate_role_term():
    # classic Q8 assignment: a = i, so a^-1 evaluates to -i.
    assert Q8.label(evaluate_role_term(CLASSIC_Q8, RoleTerm("a", True))) == "-i"
    assert evaluate_role_term(CLASSIC_Q8, RoleTerm("x")) == CLASSIC_Q8.values["x"]
    klein_assignment = RoleAssignment(
        KLEIN, {"x": 0, "a": KLEIN.index_of("i"), "y": KLEIN.index_of("j"), "b": KLEIN.index_of("k")}
    )
    # Klein is exponent two, so inversion is invisible.
    assert KLEIN.label(evaluate_role_term(klein_assignment, RoleTerm("a", True))) == "i"


# ---------------------------------------------------------------------------
# induced partial maps


def test_classic_partial_map_on_q8():
    partial = induced_partial_map(CLASSIC_Q8, CLASSIC)
    expected = {"1": "1", "i": "k", "j": "-i", "k": "j"}
    assert {Q8.label(s): Q8.label(d) for s, d in partial.pairs} == expected


def test_mosko_partial_map_swaps_characters():
    partial = induced_partial_map(CLASSIC_Q8, MOSKO)
    got = {Q8.label(s): Q8.label(d) for s, d in partial.pairs}
    assert got == {"1": "1", "j": "j", "i": "k", "k": "i"}


def test_dual_partial_map_on_q8():
    assignment = q8_assignment("i", "k", "j", "1")  # x=i, a=k, y=j, b=1
    partial = induced_partial_map(assignment, DUAL)
    got = {Q8.label(s): Q8.label(d) for s, d in partial.pairs}
    assert got == {"i": "j", "j": "-k", "k": "i", "1": "1"}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mosko_partial_map_always_swaps_a_and_b(data):
    G = data.draw(st.sampled_from(list(catalog().values())))
    if G.order < 4:
        values = {r: data.draw(st.integers(0, G.order - 1), label=r) for r in ROLES}
        assignment = RoleAssignment(G, values, allow_repeats=True)
    else:
        picks = data.draw(
            st.lists(st.integers(0, G.order - 1), min_size=4, max_size=4, unique=True)
        )
        assignment = RoleAssignment(G, dict(zip(ROLES, picks)))
    try:
        partial = induced_partial_map(assignment, MOSKO).as_dict()
    except ConflictingPairs:
        return  # only possible with repeated values
    v = assignment.values
    assert partial[v["a"]] == v["b"]
    assert partial[v["b"]] == v["a"]
    assert partial[v["x"]] == v["x"]
    assert partial[v["y"]] == v["y"]


def test_conflicting_pairs():
    # x and y share the value 1 but classic sends x -> x and y -> a^-1.
    clash = RoleAssignment(
        Q8,
        {"x": 0, "y": 0, "a": Q8.index_of("i"), "b": Q8.index_of("k")},
        allow_repeats=True,
    )
    with pytest.raises(ConflictingPairs):
        induced_partial_map(clash, CLASSIC)


def test_partial_map_type_rejects_conflicts():
    with pytest.raises(ConflictingPairs):
        PartialMap(Q8, ((0, 0), (0, 1)))


# ---------------------------------------------------------------------------
# realization search


def test_classic_realization_contains_lambda():
    found = realizations(CLASSIC_Q8, CLASSIC, allow_anti=True)
    lam = q8_symmetry("lambda")
    assert any(m.images == lam.images for m in found)
    partial = induced_partial_map(CLASSIC_Q8, CLASSIC)
    assert all(partial.agrees_with(m) for m in found)


def test_classic_realization_needs_anti():
    assert realizations(CLASSIC_Q8, CLASSIC, allow_anti=False) == ()


def test_dual_realization_contains_sigma():
    assignment = q8_assignment("i", "k", "j", "1")
    found = realizations(assignment, DUAL, allow_anti=True)
    sig = q8_symmetry("sigma")
    assert any(m.images == sig.images for m in found)


def test_trivial_group_identity_realization():
    trivial = standard_group("elementary_abelian_2", 0)
    assignment = RoleAssignment(
        trivial, {r: 0 for r in ROLES}, allow_repeats=True
    )
    found = realizations(assignment, CLASSIC, allow_anti=True)
    assert len(found) == 1 and found[0].images == (0,)


# ---------------------------------------------------------------------------
# assignment enumeration


def test_enumerate_classic_with_pinned_x():
    results = enumerate_assignments(
        Q8, CLASSIC, allow_anti=True, constraints={"x": Q8.index_of("1")}
    )
    labelled = {tuple(assignment.labels()[r] for r in ROLES) for assignment, _ in results}
    assert ("1", "j", "i", "k") in labelled  # (x, y, a, b) order
    counts = {tuple(a.labels()[r] for r in ROLES): c for a, c in results}
    assert counts[("1", "j", "i", "k")] >= 1


def test_enumerate_trivial_group_distinct_is_empty():
    trivial = standard_group("elementary_abelian_2", 0)
    assert enumerate_assignments(trivial, CLASSIC) == ()


def test_enumerate_klein_mosko_pinned():
    pins = {"x": KLEIN.index_of("1"), "y": KLEIN.index_of("j")}
    results = enumerate_assignments(KLEIN, MOSKO, allow_anti=False, constraints=pins)
    wanted = [
        (assignment, count)
        for assignment, count in results
        if assignment.labels()["a"] == "i" and assignment.labels()["b"] == "k"
    ]
    assert wanted and wanted[0][1] >= 1
    found = realizations(wanted[0][0], MOSKO, allow_anti=False)
    swap = next(m for m in found)
    assert swap.preserves_products
    # The realizing automorphism swaps i and k while fixing 1 and j.
    assert KLEIN.label(swap(KLEIN.index_of("i"))) == "k"
    assert KLEIN.label(swap(KLEIN.index_of("j"))) == "j"


def test_enumerate_is_lexicographic_and_deterministic():
    first = enumerate_assignments(KLEIN, MOSKO)
    second = enumerate_assignments(KLEIN, MOSKO)
    assert first == second
    keys = [tuple(a.values[r] for r in ROLES) for a, _ in first]
    assert keys == sorted(keys)


def test_pinning_is_monotone():
    unpinned = {
        tuple(a.values[r] for r in ROLES): c
        for a, c in enumerate_assignments(Q8, CLASSIC, allow_anti=True)
    }
    pinned = enumerate_assignments(
        Q8, CLASSIC, allow_anti=True, constraints={"x": 0, "y": Q8.index_of("j")}
    )
    for assignment, count in pinned:
        key = tuple(assignment.values[r] for r in ROLES)
        assert unpinned.get(key) == count


def test_unsatisfiable_pins():
    with pytest.raises(UnsatisfiableConstraint):
        enumerate_assignments(Q8, CLASSIC, constraints={"x": 0, "y": 0})
    with pytest.raises(UnsatisfiableConstraint):
        enumerate_assignments(Q8, CLASSIC, constraints={"z": 0})


# ---------------------------------------------------------------------------
# chains


def test_classic_chain_symbolic_steps():
    result = iterate_chain(CLASSIC, 2)
    assert str(result.steps[1].side) == "F_x(b):F_a^-1(y)"
    assert str(result.steps[2].side) == "F_x(y):F_b^-1(a^-1)"


def test_classic_chain_period_six_with_inversion_at_three():
    result = iterate_chain(CLASSIC, 6)
    assert result.symbolic_period == 6
    # Step 3 inverts a, y, b coordinate-wise and fixes x.
    third = result.steps[3].side
    assert str(third) == "F_x(a^-1):F_y^-1(b^-1)"
    assert result.steps[6].side == CLASSIC.lhs


def test_mosko_chain_period_two():
    assert iterate_chain(MOSKO, 2).symbolic_period == 2


def test_dual_chain_period_six():
    assert iterate_chain(DUAL, 6).symbolic_period == 6


def test_classic_chain_on_klein_has_element_period_three():
    assignment = RoleAssignment(
        KLEIN,
        {"x": 0, "a": KLEIN.index_of("i"), "y": KLEIN.index_of("j"), "b": KLEIN.index_of("k")},
    )
    result = iterate_chain(CLASSIC, 3, assignment)
    assert result.element_period == 3
    assert result.steps[0].values == result.steps[3].values
    # Frozen expected orbit of (x, y, a, b) labels.
    orbit = [tuple(KLEIN.label(v) for v in step.values) for step in result.steps]
    assert orbit == [
        ("1", "j", "i", "k"),
        ("1", "i", "k", "j"),
        ("1", "k", "j", "i"),
        ("1", "j", "i", "k"),
    ]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exponent_two_element_period_divides_three(data):
    groups = [G for G in catalog().values() if structure_flags(G).exponent_two]
    G = data.draw(st.sampled_from(groups))
    values = {
        role: data.draw(st.integers(0, G.order - 1), label=role) for role in ROLES
    }
    assignment = RoleAssignment(G, values, allow_repeats=True)
    result = iterate_chain(CLASSIC, 1, assignment)
    assert result.element_period in (1, 3)


def test_identity_variant_has_period_one():
    identity_rule = {r: RoleTerm(r) for r in ROLES}
    v = CFVariant("custom", CLASSIC.lhs, CLASSIC.lhs, identity_rule)
    result = iterate_chain(v, 1)
    assert result.symbolic_period == 1


def test_chain_rejects_zero_steps():
    with pytest.raises(ValueError):
        iterate_chain(CLASSIC, 0)


@pytest.mark.parametrize("steps", [True, False, 2.0, "3", None])
def test_chain_rejects_non_int_steps(steps):
    # Checked before the variant or the assignment is read.
    with pytest.raises(ValueError, match="steps must be >= 1"):
        iterate_chain(None, steps, CLASSIC_Q8)


def test_nonreturning_rule_reports_no_period():
    # x and a collapse onto y; the identity substitution never recurs.
    rule = {
        "x": RoleTerm("y"),
        "y": RoleTerm("y"),
        "a": RoleTerm("y"),
        "b": RoleTerm("b"),
    }
    lhs = CLASSIC.lhs
    from cfkit import rewrite_side

    v = CFVariant("custom", lhs, rewrite_side(rule, lhs), rule)
    assert iterate_chain(v, 3).symbolic_period is None


# ---------------------------------------------------------------------------
# fraction rule


def test_fraction_rule_cyclic_four_example():
    c4 = standard_group("cyclic", 4)
    assignment = RoleAssignment(
        c4, {"x": 1, "a": 2, "y": 3, "b": 0}
    )  # x=g, a=g^2, y=g^3, b=1
    # Both sides reduce to the identity: (1-2)-(3-0) = -4 = 0 mod 4 and
    # (1-3)-(0-(-2)) = -4 = 0 mod 4.
    assert verify_fraction_rule(c4, assignment)


def test_fraction_rule_trivial_assignment():
    sign = standard_group("sign")
    assignment = RoleAssignment(sign, {r: 0 for r in ROLES}, allow_repeats=True)
    assert verify_fraction_rule(sign, assignment)


def test_fraction_rule_rejects_noncommutative_groups():
    with pytest.raises(NonCommutativeGroup):
        verify_fraction_rule(Q8, CLASSIC_Q8)


def test_fraction_rule_rejects_foreign_assignment():
    with pytest.raises(InvalidAssignment):
        verify_fraction_rule(KLEIN, CLASSIC_Q8)


@pytest.mark.parametrize(
    "G",
    [G for G in catalog().values() if structure_flags(G).commutative and G.order <= 12],
    ids=lambda G: G.name,
)
def test_fraction_rule_sweep(G):
    for combo in itertools.product(range(G.order), repeat=4):
        assignment = RoleAssignment(G, dict(zip(ROLES, combo)), allow_repeats=True)
        assert verify_fraction_rule(G, assignment)


# ---------------------------------------------------------------------------
# the Mosko degeneration


def test_mosko_degeneration_examples():
    assert mosko_degeneration_check(standard_group("elementary_abelian_2", 3))
    assert mosko_degeneration_check(standard_group("elementary_abelian_2", 0))
    assert not mosko_degeneration_check(Q8)
    # Single counterexample: a = i has a^-1 = -i distinct from i.
    i = Q8.index_of("i")
    assert inverse_of(Q8, i) != i


@pytest.mark.parametrize("G", list(catalog().values()), ids=lambda G: G.name)
def test_mosko_degeneration_matches_exponent_two(G):
    assert mosko_degeneration_check(G) == structure_flags(G).exponent_two
