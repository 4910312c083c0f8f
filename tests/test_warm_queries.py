"""Warm realization queries and the per-group symmetry cache.

A group computes its hash once and keeps it, with the value the field-tuple
hash gives; a realization query takes its pairs from the valid assignment
without a second round of index checks, and `induced_partial_map` still
returns the PartialMap it did.  The symmetry cache holds one entry per group,
so its bound counts groups even when their lists include anti-automorphisms.
"""

import random
import re

import pytest

import cfkit.morphisms
from cfkit import (
    BUILTIN_VARIANTS,
    CLASSIC,
    ROLES,
    ConflictingPairs,
    FiniteGroup,
    PartialMap,
    RoleAssignment,
    build_group,
    catalog,
    enumerate_symmetries,
    induced_partial_map,
    realizations,
)
from cfkit.formula import _with_inverses
from cfkit.morphisms import _SYMMETRY_CACHE_SIZE, _symmetries

CATALOG = list(catalog().values())


def relabelled(G, seed, name=None):
    """G's table with its element indices permuted, as a fresh group."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    back = sorted(range(G.order), key=perm.__getitem__)
    table = [[perm[G.table[back[r]][back[c]]] for c in range(G.order)] for r in range(G.order)]
    return build_group(name or G.name, [G.elements[back[i]] for i in range(G.order)], table)


def reference_induced_partial_map(assignment, variant):
    """Frozen copy of induced_partial_map before the pairs moved to a helper."""
    G = assignment.group
    values = tuple(assignment.values[role] for role in ROLES)
    mapping = {}
    targets = variant._rule_pick(_with_inverses(G, values))
    for role, src, dst in zip(ROLES, values, targets):
        if mapping.setdefault(src, dst) != dst:
            raise ConflictingPairs(
                f"roles {ROLES[values.index(src)]!r} and {role!r} share element "
                f"{G.label(src)!r} but are sent to {G.label(mapping[src])!r} and {G.label(dst)!r}"
            )
    return PartialMap(G, tuple(sorted(mapping.items())))


def repeated_values(G, rng, count):
    """Role values drawn with replacement, so roles often share an element."""
    for _ in range(count):
        yield dict(zip(ROLES, (rng.randrange(G.order) for _ in ROLES)))


# ---------------------------------------------------------------------------
# the hash


@pytest.mark.parametrize("G", CATALOG, ids=lambda G: G.name)
def test_hash_is_the_field_tuple_hash_and_stays(G):
    for H in (G, relabelled(G, G.name)):
        fields = hash((H.name, H.elements, H.table, H.identity))
        assert hash(H) == fields
        assert hash(H) == hash(H) == fields


def test_rebuilt_group_hits_the_same_index_entry():
    G = catalog()["q8"]
    values = {"x": 0, "y": 2, "a": 4, "b": 6}
    first = realizations(RoleAssignment(G, values), CLASSIC)
    twin = build_group(G.name, G.elements, G.table)
    before = _symmetries.cache_info()
    again = realizations(RoleAssignment(twin, values), CLASSIC)
    after = _symmetries.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert again == first != ()


# ---------------------------------------------------------------------------
# the pairs


@pytest.mark.parametrize("G", [G for G in CATALOG if G.order <= 16], ids=lambda G: G.name)
def test_pairs_match_the_former_partial_map(G):
    rng = random.Random(G.name)
    conflicts = 0
    for values in repeated_values(G, rng, 40):
        assignment = RoleAssignment(G, values, allow_repeats=True)
        for variant in BUILTIN_VARIANTS.values():
            try:
                want = reference_induced_partial_map(assignment, variant)
            except ConflictingPairs as exc:
                conflicts += 1
                message = re.escape(str(exc))
                with pytest.raises(ConflictingPairs, match=message):
                    induced_partial_map(assignment, variant)
                for anti in (True, False):
                    with pytest.raises(ConflictingPairs, match=message):
                        realizations(assignment, variant, allow_anti=anti)
                continue
            got = induced_partial_map(assignment, variant)
            assert type(got) is PartialMap and got == want
    assert conflicts


def test_pairs_are_checked_by_the_public_map_only(monkeypatch):
    G = catalog()["q8"]
    assignment = RoleAssignment(G, {"x": 0, "y": 2, "a": 4, "b": 6})
    realizations(assignment, CLASSIC)
    checked = []
    check_index = FiniteGroup.check_index

    def counted(group, g):
        checked.append(g)
        return check_index(group, g)

    monkeypatch.setattr(FiniteGroup, "check_index", counted)
    realizations(assignment, CLASSIC)
    assert checked == []
    pairs = induced_partial_map(assignment, CLASSIC).pairs
    assert checked == [g for pair in pairs for g in pair]


# ---------------------------------------------------------------------------
# the symmetry cache counts groups


def test_anti_lists_of_48_groups_stay_cached(monkeypatch):
    q8 = catalog()["q8"]
    groups = [relabelled(q8, seed, f"q8-anti-{seed}") for seed in range(48)]
    first = [enumerate_symmetries(G, include_anti=True) for G in groups]
    calls = []
    classify = cfkit.morphisms.classify_map

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(cfkit.morphisms, "classify_map", counted)
    again = [enumerate_symmetries(G, include_anti=True) for G in groups]
    assert calls == []
    assert all(a is b for a, b in zip(again, first))
    assert all(len(maps) == 48 for maps in again)


def test_both_anti_flags_of_40_groups_share_their_entries(monkeypatch):
    q8 = catalog()["q8"]
    groups = [relabelled(q8, seed, f"q8-flags-{seed}") for seed in range(40)]
    values = {"x": 0, "y": 2, "a": 4, "b": 6}

    def ask():
        return [
            realizations(RoleAssignment(G, values), CLASSIC, allow_anti=anti)
            for G in groups
            for anti in (True, False)
        ]

    first = ask()
    info = _symmetries.cache_info()
    listed = []
    enumerate_ = cfkit.morphisms.enumerate_symmetries

    def counted(*args, **kwargs):
        listed.append(args)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(cfkit.morphisms, "enumerate_symmetries", counted)
    assert ask() == first
    assert _symmetries.cache_info().misses == info.misses
    assert listed == []
    assert any(len(with_anti) > len(without) for with_anti, without in zip(first[::2], first[1::2]))


def test_65_groups_turn_the_cache_over():
    q8 = catalog()["q8"]
    groups = [
        relabelled(q8, seed, f"q8-turn-{seed}") for seed in range(_SYMMETRY_CACHE_SIZE + 1)
    ]
    first = enumerate_symmetries(groups[0], include_anti=True)
    for G in groups[1:]:
        enumerate_symmetries(G, include_anti=True)
    info = _symmetries.cache_info()
    assert info.currsize <= _SYMMETRY_CACHE_SIZE
    rebuilt = enumerate_symmetries(groups[0], include_anti=True)
    assert _symmetries.cache_info().misses == info.misses + 1
    assert rebuilt == first and rebuilt is not first
