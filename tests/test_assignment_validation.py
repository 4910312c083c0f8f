"""RoleAssignment validation against a frozen copy of its earlier checks.

The reference below is the validation RoleAssignment ran before it skipped
check_index for plain in-range ints.  Every drawn input must be rejected
with the same exception type and message, or accepted with the same values.
"""

import enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import (
    ROLES,
    IndexOutOfRange,
    InvalidAssignment,
    RoleAssignment,
    catalog,
    parse_group_file,
    render_group_file,
    standard_group,
    verify_fraction_rule,
)

GROUPS = sorted((G for G in catalog().values() if G.order <= 8), key=lambda G: G.name)


class Colour(enum.IntEnum):
    RED = 0
    GREEN = 1
    BLUE = 2


def reference_values(group, values, allow_repeats):
    """The earlier RoleAssignment.__post_init__ and FiniteGroup.check_index."""
    values = dict(values)
    if set(values) != set(ROLES):
        raise InvalidAssignment(f"assignment must cover exactly the roles {ROLES}")
    for role in ROLES:
        g = values[role]
        if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < len(group.elements):
            raise IndexOutOfRange(
                f"index {g!r} outside [0, {len(group.elements)}) in group {group.name!r}"
            )
    if not allow_repeats and len(set(values.values())) != len(ROLES):
        raise InvalidAssignment(
            "role values must be pairwise distinct (set allow_repeats to relax)"
        )
    return values


def outcome(build):
    try:
        return "ok", build()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raised", (type(exc), str(exc))


role_values = st.one_of(
    st.integers(-3, 11),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.sampled_from(list(Colour)),
)
role_names = st.one_of(st.sampled_from(ROLES), st.sampled_from(("z", "X", "xy", "")))


@st.composite
def raw_values(draw):
    """A dict or a list of pairs, over all, some or more than the roles."""
    roles = list(ROLES)
    if draw(st.booleans()):
        roles = draw(st.lists(role_names, max_size=6))
    pairs = [(role, draw(role_values)) for role in roles]
    return pairs if draw(st.booleans()) else dict(pairs)


@settings(max_examples=400, deadline=None)
@given(G=st.sampled_from(GROUPS), values=raw_values(), allow_repeats=st.booleans())
@example(G=standard_group("q8"), values={"x": 0, "y": 1, "a": 2, "b": 3}, allow_repeats=False)
@example(G=standard_group("q8"), values={"x": 0, "y": 1, "a": 2, "b": 8}, allow_repeats=False)
@example(G=standard_group("q8"), values={"x": 0, "y": True, "a": 2, "b": 3}, allow_repeats=True)
@example(G=standard_group("q8"), values={"x": 1, "y": 1, "a": 2, "b": 3}, allow_repeats=False)
@example(
    G=standard_group("klein"),
    values=[("x", Colour.RED), ("y", Colour.GREEN), ("a", Colour.BLUE), ("b", 3)],
    allow_repeats=False,
)
@example(G=standard_group("klein"), values={"x": 0, "y": 1, "a": 2}, allow_repeats=True)
@example(G=standard_group("klein"), values=[("x", 0), ("x", 1)], allow_repeats=True)
def test_validation_matches_reference(G, values, allow_repeats):
    want = outcome(lambda: reference_values(G, values, allow_repeats))
    got = outcome(lambda: RoleAssignment(G, values, allow_repeats=allow_repeats).values)
    if want[0] == "raised":
        assert got == want
    else:
        assert got[0] == "ok", got
        assert list(got[1].items()) == list(want[1].items())
        assert [type(v) for v in got[1].values()] == [type(v) for v in want[1].values()]


def test_fraction_rule_accepts_an_equal_group_object():
    G = standard_group("klein")
    H = parse_group_file(render_group_file(G))
    assert H == G and H is not G
    values = {"x": 0, "y": 1, "a": 2, "b": 3}
    assert verify_fraction_rule(G, RoleAssignment(H, values)) is verify_fraction_rule(
        G, RoleAssignment(G, values)
    )


def test_fraction_rule_rejects_a_different_group():
    G, other = standard_group("klein"), standard_group("cyclic", 4)
    with pytest.raises(InvalidAssignment, match="different group"):
        verify_fraction_rule(G, RoleAssignment(other, {"x": 0, "y": 1, "a": 2, "b": 3}))
