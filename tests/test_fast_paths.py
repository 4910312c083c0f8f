"""The precomputed fast paths against slow references written here.

Covered: assignment enumeration by solving the rule per symmetry, for the
built-in variants and for custom rules, chains read from the variant's
cached orbit, the group-fact tables behind inverse_of, element_order and
structure_flags, the verified-once symmetry cache, and realization queries
answered from the (element, image) index of that cache.  Metamorphic tests
check that enumeration counts and realizations do not depend on how
elements are numbered, and that counts do not change when every role value
is moved by an automorphism.
"""

import itertools
import json
import operator
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import (
    BUILTIN_VARIANTS,
    CLASSIC,
    MOSKO,
    ROLES,
    CFVariant,
    ChainStep,
    ConflictingPairs,
    GroupTooLarge,
    PartialMap,
    RoleAssignment,
    RoleTerm,
    UnsatisfiableConstraint,
    build_group,
    catalog,
    classify_map,
    element_order,
    enumerate_assignments,
    enumerate_symmetries,
    induced_partial_map,
    inverse_of,
    iterate_chain,
    parse_group_file,
    realizations,
    render_group_file,
    rewrite_side,
    standard_group,
    structure_flags,
)
from cfkit.morphisms import _SYMMETRY_CACHE_SIZE, _symmetries


def dihedral_four():
    # Square symmetries: rotations r0..r3 then reflections s0..s3.
    def product(i, j):
        if i < 4 and j < 4:
            return (i + j) % 4
        if i < 4:
            return 4 + (i + j - 4) % 4
        if j < 4:
            return 4 + (i - 4 - j) % 4
        return (i - j) % 4

    labels = [f"r{i}" for i in range(4)] + [f"s{i}" for i in range(4)]
    return build_group("d4", labels, [[product(i, j) for j in range(8)] for i in range(8)])


SMALL = sorted(
    [G for G in catalog().values() if G.order <= 8] + [dihedral_four()], key=lambda G: G.name
)
ALL = list(catalog().values()) + [dihedral_four()]


def brute_inverse(G, g):
    return next(h for h in range(G.order) if G.table[g][h] == G.identity == G.table[h][g])


# ---------------------------------------------------------------------------
# group facts


@pytest.mark.parametrize("G", ALL, ids=lambda G: G.name)
def test_group_facts_match_brute_force(G):
    n = G.order
    for g in range(n):
        assert inverse_of(G, g) == brute_inverse(G, g)
        power, m = g, 1
        while power != G.identity:
            power, m = G.table[power][g], m + 1
        assert element_order(G, g) == m
    flags = structure_flags(G)
    assert flags.order == n
    assert flags.commutative == all(
        G.table[a][b] == G.table[b][a] for a in range(n) for b in range(n)
    )
    assert flags.exponent_two == all(G.table[g][g] == G.identity for g in range(n))


def test_group_facts_stay_out_of_equality_and_repr():
    G = catalog()["q8"]
    twin = build_group(G.name, G.elements, G.table)
    G.inverses, G.orders, G.flags  # populate the cached facts on one copy only
    assert G == twin and hash(G) == hash(twin) and repr(G) == repr(twin)


# ---------------------------------------------------------------------------
# the symmetry cache


@pytest.mark.parametrize("G", SMALL, ids=lambda G: G.name)
@pytest.mark.parametrize("anti", [True, False])
def test_cached_symmetries_equal_fresh_classification(G, anti):
    maps = enumerate_symmetries(G, include_anti=anti)
    assert enumerate_symmetries(G, include_anti=anti) is maps
    assert all(classify_map(G, G, m.images) == m for m in maps)


# ---------------------------------------------------------------------------
# indexed assignment enumeration


def reference_pairs(inv, variant, values):
    """The induced (source, target) pairs, or None when two roles disagree."""
    mapping = {}
    for role in ROLES:
        term = variant.rule[role]
        dst = inv[values[term.role]] if term.inverted else values[term.role]
        if mapping.setdefault(values[role], dst) != dst:
            return None
    return tuple(sorted(mapping.items()))


def reference_enumeration(G, variant, maps, pins):
    """Every assignment, repeats included, with its count of agreeing maps."""
    inv = [brute_inverse(G, g) for g in range(G.order)]
    domains = [(pins[role],) if role in pins else range(G.order) for role in ROLES]
    found = []
    for combo in itertools.product(*domains):
        pairs = reference_pairs(inv, variant, dict(zip(ROLES, combo)))
        if pairs is None:
            continue
        partial = PartialMap(G, pairs)
        count = sum(1 for m in maps if partial.agrees_with(m))
        if count:
            found.append((combo, count))
    return found


def enumerated(G, variant, allow_anti, pins, allow_repeats):
    result = enumerate_assignments(
        G, variant, allow_anti=allow_anti, constraints=pins, allow_repeats=allow_repeats
    )
    return [(tuple(a.values[r] for r in ROLES), count) for a, count in result]


@pytest.mark.parametrize("G", SMALL, ids=lambda G: G.name)
def test_enumeration_matches_filtering_every_symmetry(G):
    pin = {"x": G.order - 1, "a": G.identity}
    # The distinct-values answer is the relaxed one restricted to distinct
    # tuples, and on a commutative group both anti settings give the same
    # maps, so one reference run serves several cases.
    references = {}
    for variant, anti, repeats, pins in itertools.product(
        BUILTIN_VARIANTS.values(), (True, False), (True, False), ({}, pin)
    ):
        maps = enumerate_symmetries(G, include_anti=anti)
        key = (variant.name, tuple(pins.items()), tuple(m.images for m in maps))
        if key not in references:
            references[key] = reference_enumeration(G, variant, maps, pins)
        want = [(c, n) for c, n in references[key] if repeats or len(set(c)) == len(ROLES)]
        got = enumerated(G, variant, anti, pins, repeats)
        assert got == want, (variant.name, anti, repeats, pins)


def custom_variant(rule):
    return CFVariant("custom", CLASSIC.lhs, rewrite_side(rule, CLASSIC.lhs), rule)


@st.composite
def custom_variants(draw):
    return custom_variant(
        {role: RoleTerm(draw(st.sampled_from(ROLES)), draw(st.booleans())) for role in ROLES}
    )


# Rules that do not permute the roles, or send a role to its own inverse.
x_to_y = custom_variant(
    {"x": RoleTerm("y"), "y": RoleTerm("y"), "a": RoleTerm("a"), "b": RoleTerm("b")}
)
inverted_self_loops = custom_variant(
    {
        "x": RoleTerm("x", True),
        "y": RoleTerm("y", True),
        "a": RoleTerm("b"),
        "b": RoleTerm("a", True),
    }
)
all_to_x = custom_variant(
    {"x": RoleTerm("x"), "y": RoleTerm("x", True), "a": RoleTerm("x"), "b": RoleTerm("x", True)}
)


@pytest.mark.parametrize("G", SMALL, ids=lambda G: G.name)
@settings(max_examples=4, deadline=None)
@given(
    variant=custom_variants(),
    drawn=st.dictionaries(st.sampled_from(ROLES), st.integers(0, 7), max_size=3),
)
@example(variant=x_to_y, drawn={})
@example(variant=x_to_y, drawn={"y": 1})
@example(variant=inverted_self_loops, drawn={"a": 1})
@example(variant=all_to_x, drawn={"x": 1})
def test_enumeration_matches_filtering_for_custom_rules(G, variant, drawn):
    pins = {role: value % G.order for role, value in drawn.items()}
    references = {}
    for anti, repeats in itertools.product((True, False), (True, False)):
        if not repeats and len(set(pins.values())) != len(pins):
            with pytest.raises(UnsatisfiableConstraint):
                enumerated(G, variant, anti, pins, repeats)
            continue
        maps = enumerate_symmetries(G, include_anti=anti)
        key = tuple(m.images for m in maps)
        if key not in references:
            references[key] = reference_enumeration(G, variant, maps, pins)
        want = [(c, n) for c, n in references[key] if repeats or len(set(c)) == len(ROLES)]
        assert enumerated(G, variant, anti, pins, repeats) == want, (variant.rule, anti, repeats)


@pytest.mark.parametrize("G", SMALL, ids=lambda G: G.name)
def test_enumeration_is_invariant_under_automorphisms(G):
    # An automorphism phi commutes with inversion, and f -> phi f phi^-1 is a
    # kind-preserving bijection of the symmetries, so moving every role value
    # by phi keeps each assignment's realization count.
    n, t = G.order, G.table
    automorphisms = [m.images for m in enumerate_symmetries(G, include_anti=False)]
    for phi in automorphisms:
        assert all(phi[t[a][b]] == t[phi[a]][phi[b]] for a in range(n) for b in range(n))
    # On a commutative group both anti settings give the same maps.
    antis = (True,) if structure_flags(G).commutative else (True, False)
    for variant in (*BUILTIN_VARIANTS.values(), x_to_y, inverted_self_loops):
        for anti, repeats in itertools.product(antis, (True, False)):
            found = dict(enumerated(G, variant, anti, {}, repeats))
            for phi in automorphisms:
                moved = {tuple(phi[v] for v in combo): count for combo, count in found.items()}
                assert moved == found, (variant.rule, anti, repeats, phi)


# ---------------------------------------------------------------------------
# chains


def reference_period(start, advance, limit):
    """Least p >= 1 with state_p = start, found by stepping; None if never."""
    seen, state = {start}, start
    for p in range(1, limit + 2):
        state = advance(state)
        if state == start:
            return p
        if state in seen:
            return None
        seen.add(state)
    return None


def reference_chain(variant, steps, G, values):
    rule = variant.rule
    identity = tuple(RoleTerm(r) for r in ROLES)

    def advance_subst(subst):
        return tuple(RoleTerm(rule[t.role].role, rule[t.role].inverted ^ t.inverted) for t in subst)

    def advance_values(vals):
        by_role = dict(zip(ROLES, vals))
        out = []
        for role in ROLES:
            image = rule[role]
            v = by_role[image.role]
            out.append(brute_inverse(G, v) if image.inverted else v)
        return tuple(out)

    sides, states = [variant.lhs], [tuple(values[r] for r in ROLES)]
    for _ in range(steps):
        sides.append(rewrite_side(rule, sides[-1]))
        states.append(advance_values(states[-1]))
    symbolic = reference_period(identity, advance_subst, 8**4)
    element = reference_period(states[0], advance_values, G.order**4)
    return sides, states, symbolic, element


@settings(max_examples=300, deadline=None)
@given(
    variant=st.one_of(st.sampled_from(list(BUILTIN_VARIANTS.values())), custom_variants()),
    G=st.sampled_from(SMALL),
    steps=st.integers(1, 20),
    data=st.data(),
)
def test_chain_matches_step_by_step_reference(variant, G, steps, data):
    values = {role: data.draw(st.integers(0, G.order - 1), label=role) for role in ROLES}
    result = iterate_chain(variant, steps, RoleAssignment(G, values, allow_repeats=True))
    sides, states, symbolic, element = reference_chain(variant, steps, G, values)
    assert [s.step for s in result.steps] == list(range(steps + 1))
    assert [s.side for s in result.steps] == sides
    assert [s.values for s in result.steps] == states
    assert result.symbolic_period == symbolic
    assert result.element_period == element
    assert iterate_chain(variant, steps).symbolic_period == symbolic


def test_chain_step_record_contract():
    assert ChainStep._fields == ("step", "side", "values")
    assert ChainStep(0, CLASSIC.lhs).values is None
    assignment = RoleAssignment(SMALL[0], dict.fromkeys(ROLES, 0), allow_repeats=True)
    result = iterate_chain(CLASSIC, 3, assignment)
    assert type(result.steps) is tuple
    step = result.steps[1]
    with pytest.raises(AttributeError):
        step.values = None
    with pytest.raises(AttributeError):
        step.extra = 1
    twin = ChainStep(step.step, step.side, step.values)
    assert twin == step and hash(twin) == hash(step)
    assert twin != ChainStep(step.step + 1, step.side, step.values)
    assert repr(step) == f"ChainStep(step=1, side={step.side!r}, values={step.values!r})"
    assert repr(step).startswith("ChainStep(step=1, side=FormulaSide(first=(RoleTerm(")


raw_role_values = st.tuples(*[st.integers(0, 63)] * len(ROLES))


def check_chain_past_orbit(variant, G, raw):
    # Three full orbit lengths and one step more: every step past the first
    # pass is read from the cycle.
    steps = 3 * len(variant._orbit.sides) + 1
    values = {role: v % G.order for role, v in zip(ROLES, raw)}
    result = iterate_chain(variant, steps, RoleAssignment(G, values, allow_repeats=True))
    sides, states, symbolic, element = reference_chain(variant, steps, G, values)
    assert [s.side for s in result.steps] == sides
    assert [s.values for s in result.steps] == states
    assert (result.symbolic_period, result.element_period) == (symbolic, element)


@pytest.mark.parametrize("variant", list(BUILTIN_VARIANTS.values()), ids=lambda v: v.name)
@settings(max_examples=10, deadline=None)
@given(G=st.sampled_from(SMALL), raw=raw_role_values)
def test_builtin_chain_past_its_orbit_matches_reference(variant, G, raw):
    check_chain_past_orbit(variant, G, raw)


@settings(max_examples=20, deadline=None)
@given(variant=custom_variants(), G=st.sampled_from(SMALL), raw=raw_role_values)
@example(variant=x_to_y, G=SMALL[-1], raw=(1, 2, 3, 5))
@example(variant=inverted_self_loops, G=SMALL[-1], raw=(1, 2, 3, 5))
@example(variant=all_to_x, G=SMALL[-1], raw=(1, 2, 3, 5))
def test_custom_chain_past_its_orbit_matches_reference(variant, G, raw):
    check_chain_past_orbit(variant, G, raw)


# ---------------------------------------------------------------------------
# relabelling elements


def relabelled(G, seed):
    """G read back from its file form with the element list shuffled."""
    payload = json.loads(render_group_file(G))
    order = list(range(G.order))
    random.Random(seed).shuffle(order)
    payload["elements"] = [payload["elements"][i] for i in order]
    payload["table"] = [[payload["table"][i][j] for j in order] for i in order]
    H = parse_group_file(json.dumps(payload))
    return H, {g: H.index_of(G.label(g)) for g in range(G.order)}


@pytest.mark.parametrize("G", SMALL, ids=lambda G: G.name)
def test_enumeration_counts_survive_relabelling(G):
    H, to_h = relabelled(G, G.name)
    assert len(enumerate_symmetries(H)) == len(enumerate_symmetries(G))
    for variant in BUILTIN_VARIANTS.values():
        for repeats in (False, True):
            before = {
                tuple(to_h[v] for v in combo): count
                for combo, count in enumerated(G, variant, True, {}, repeats)
            }
            after = dict(enumerated(H, variant, True, {}, repeats))
            assert after == before, (variant.name, repeats)


# ---------------------------------------------------------------------------
# realization lookups


def reference_realizations(assignment, variant, allow_anti=True):
    """Frozen copy of the former filter: test every map of the cached list."""
    partial = induced_partial_map(assignment, variant)
    maps = enumerate_symmetries(assignment.group, include_anti=allow_anti)
    return tuple(m for m in maps if partial.agrees_with(m))


def direct_product(G, H):
    elements = [f"({g},{h})" for g in G.elements for h in H.elements]
    m = H.order
    table = [
        [G.table[i // m][j // m] * m + H.table[i % m][j % m] for j in range(G.order * m)]
        for i in range(G.order * m)
    ]
    return build_group(f"{G.name}x{H.name}", elements, table)


Q8_X_C2 = direct_product(catalog()["q8"], catalog()["c2"])
FIXED_RULES = (*BUILTIN_VARIANTS.values(), x_to_y, inverted_self_loops, all_to_x)


def queries(G, rng, per_size=3):
    """Role values with exactly k distinct elements, for k = 1 .. min(4, n).

    Each value is used by some role, so a query that does not conflict has
    k induced pairs.
    """
    for k in range(1, min(len(ROLES), G.order) + 1):
        for _ in range(per_size):
            chosen = rng.sample(range(G.order), k)
            combo = chosen + [rng.choice(chosen) for _ in range(len(ROLES) - k)]
            rng.shuffle(combo)
            yield k, dict(zip(ROLES, combo))


def same_answer(assignment, variant, anti):
    """Compare with the reference, errors included; the pair count or None."""
    try:
        want = reference_realizations(assignment, variant, anti)
    except ConflictingPairs as exc:
        with pytest.raises(ConflictingPairs, match=re.escape(str(exc))):
            realizations(assignment, variant, allow_anti=anti)
        return None
    got = realizations(assignment, variant, allow_anti=anti)
    assert got == want, (assignment.values, variant.rule, anti)
    assert all(map(operator.is_, got, want))
    return len(induced_partial_map(assignment, variant).pairs)


# ea2-4's list takes seconds to search, so only its catalog copy is queried.
@pytest.mark.parametrize(
    "G, relabel",
    [(G, False) for G in ALL + [Q8_X_C2]]
    + [(G, True) for G in ALL + [Q8_X_C2] if G.name != "ea2-4"],
    ids=lambda v: v.name if hasattr(v, "name") else ("relabelled" if v else "catalog"),
)
def test_realizations_match_filtering_every_symmetry(G, relabel):
    if relabel:
        G, _ = relabelled(G, G.name)
    rng = random.Random(G.name + str(relabel))
    pair_counts = set()
    for k, values in queries(G, rng):
        for repeats in (True, False) if k == len(ROLES) else (True,):
            assignment = RoleAssignment(G, values, allow_repeats=repeats)
            for variant, anti in itertools.product(FIXED_RULES, (True, False)):
                pair_counts.add(same_answer(assignment, variant, anti))
    assert pair_counts - {None} == set(range(1, min(len(ROLES), G.order) + 1))


@pytest.mark.parametrize("G", SMALL + [Q8_X_C2], ids=lambda G: G.name)
@settings(max_examples=6, deadline=None)
@given(variant=custom_variants(), seed=st.integers(0, 2**32), anti=st.booleans())
def test_realizations_match_filtering_for_custom_rules(G, variant, seed, anti):
    for _, values in queries(G, random.Random(seed), per_size=2):
        same_answer(RoleAssignment(G, values, allow_repeats=True), variant, anti)


@pytest.mark.parametrize("G", SMALL + [Q8_X_C2], ids=lambda G: G.name)
def test_realizations_survive_relabelling(G):
    H, to_h = relabelled(G, G.name)
    from_h = sorted(to_h, key=to_h.get)
    rng = random.Random(G.name)
    for _, values in queries(G, rng):
        before = RoleAssignment(G, values, allow_repeats=True)
        after = RoleAssignment(H, {r: to_h[v] for r, v in values.items()}, allow_repeats=True)
        for variant, anti in itertools.product(FIXED_RULES, (True, False)):
            try:
                found = realizations(before, variant, allow_anti=anti)
            except ConflictingPairs:
                with pytest.raises(ConflictingPairs):
                    realizations(after, variant, allow_anti=anti)
                continue
            moved = {tuple(to_h[m.images[g]] for g in from_h) for m in found}
            assert {m.images for m in realizations(after, variant, allow_anti=anti)} == moved


def test_realizations_after_the_cache_turns_over():
    c3 = catalog()["c3"]
    groups = [
        build_group(f"c3-{i}", c3.elements, c3.table) for i in range(_SYMMETRY_CACHE_SIZE + 1)
    ]
    values = {"x": 0, "y": 1, "a": 2, "b": 2}
    assignment = RoleAssignment(groups[0], values, allow_repeats=True)
    first = realizations(assignment, MOSKO)
    assert first == reference_realizations(assignment, MOSKO) != ()
    for G in groups[1:]:
        same_answer(RoleAssignment(G, values, allow_repeats=True), MOSKO, True)
    info = _symmetries.cache_info()
    assert info.currsize <= _SYMMETRY_CACHE_SIZE
    again = realizations(assignment, MOSKO)
    assert _symmetries.cache_info().misses == info.misses + 1
    assert again == first == reference_realizations(assignment, MOSKO)


def test_realizations_raise_conflicts_before_the_size_bound():
    G = standard_group("cyclic", 17)
    conflicting = RoleAssignment(G, {"x": 1, "y": 1, "a": 2, "b": 3}, allow_repeats=True)
    with pytest.raises(ConflictingPairs):
        realizations(conflicting, CLASSIC)
    with pytest.raises(GroupTooLarge):
        realizations(RoleAssignment(G, {"x": 1, "y": 2, "a": 3, "b": 4}), CLASSIC)
