"""`iterate_chain` builds its steps by repeating the cycle part of the orbit.

Checked against a frozen copy of the version that indexed the orbit once per
step and built each step through `ChainStep`'s own constructor: the built-in
variants and drawn custom rules, at 1-40 and 10^4 steps, with and without an
assignment.
"""

from itertools import cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import (
    BUILTIN_VARIANTS,
    ROLES,
    CFVariant,
    ChainResult,
    ChainStep,
    FormulaSide,
    RoleAssignment,
    RoleTerm,
    catalog,
    iterate_chain,
    rewrite_side,
)
from cfkit.formula import _role_values, _with_inverses

GROUPS = [G for G in catalog().values() if G.order <= 8]
LHS = FormulaSide((RoleTerm("x"), RoleTerm("a")), (RoleTerm("y"), RoleTerm("b")))


def frozen_iterate_chain(variant, steps, assignment=None):
    """Frozen copy of iterate_chain when it indexed the orbit per step."""
    sides, picks, start = variant._orbit
    length = len(sides)
    positions = list(range(min(steps + 1, length)))
    positions.extend(islice(cycle(range(start, length)), steps + 1 - len(positions)))
    values = [None] * length
    element_period = None
    if assignment is not None:
        both = _with_inverses(assignment.group, _role_values(assignment.values))
        values = [pick(both) for pick in picks]
        first = values[0]
        element_period = next(
            (t for t in range(1, length) if values[t] == first),
            length if values[start] == first else None,
        )
    chain = tuple(
        map(
            ChainStep,
            range(steps + 1),
            map(sides.__getitem__, positions),
            map(values.__getitem__, positions),
        )
    )
    symbolic_period = length if start == 0 else None
    return ChainResult(chain, symbolic_period, element_period, assignment)


@st.composite
def variants(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(list(BUILTIN_VARIANTS.values())))
    rule = {role: RoleTerm(draw(st.sampled_from(ROLES)), draw(st.booleans())) for role in ROLES}
    return CFVariant("custom", LHS, rewrite_side(rule, LHS), rule)


@st.composite
def assignments(draw):
    if draw(st.booleans()):
        return None
    G = draw(st.sampled_from(GROUPS))
    values = {role: draw(st.integers(0, G.order - 1)) for role in ROLES}
    return RoleAssignment(G, values, allow_repeats=True)


def assert_same_chain(variant, steps, assignment):
    result = iterate_chain(variant, steps, assignment)
    assert result == frozen_iterate_chain(variant, steps, assignment)
    assert type(result.steps) is tuple
    assert all(type(s) is ChainStep for s in result.steps)


@settings(max_examples=150, deadline=None)
@given(variant=variants(), steps=st.integers(1, 40), assignment=assignments())
def test_chain_matches_the_per_step_version(variant, steps, assignment):
    assert_same_chain(variant, steps, assignment)


@settings(max_examples=25, deadline=None)
@given(variant=variants(), assignment=assignments())
def test_long_chain_matches_the_per_step_version(variant, assignment):
    assert_same_chain(variant, 10**4, assignment)


@pytest.mark.parametrize("steps", [*range(1, 41), 10**4])
@pytest.mark.parametrize("name", list(BUILTIN_VARIANTS))
def test_builtin_chains_match_the_per_step_version(name, steps):
    q8 = catalog()["q8"]
    assignment = RoleAssignment(q8, dict(zip(ROLES, (0, 2, 4, 6))))
    for given_assignment in (None, assignment):
        assert_same_chain(BUILTIN_VARIANTS[name], steps, given_assignment)
