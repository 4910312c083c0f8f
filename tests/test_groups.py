"""Group construction, validation, and the standard catalog."""

import enum
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import (
    ClosureViolation,
    DuplicateLabel,
    GroupTooLarge,
    IndexOutOfRange,
    MissingInverse,
    NoIdentity,
    NonAssociative,
    UnknownKind,
    UnknownLabel,
    WrongIdentity,
    build_group,
    catalog,
    catalog_group,
    center,
    element_order,
    fraction_transformation_group,
    generated_subgroup,
    inverse_of,
    standard_group,
    structure_flags,
)

# Identity with inverses but (p*p)*q != p*(p*q).
NONASSOC = [[0, 1, 2], [1, 0, 1], [2, 2, 0]]


def catalog_groups():
    return list(catalog().values())


# ---------------------------------------------------------------------------
# build_group validation


def test_build_trivial_group():
    G = build_group("trivial", ["e"], [[0]])
    assert G.order == 1 and G.identity == 0


def test_build_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        build_group("dup", ["e", "e"], [[0, 1], [1, 0]])


def test_build_rejects_bad_entries():
    with pytest.raises(ClosureViolation, match=r"table\[0\]\[1\]"):
        build_group("bad", ["e", "g"], [[0, 2], [1, 0]])


def test_build_rejects_missing_identity():
    # Neither row/column behaves as a two-sided identity.
    with pytest.raises(NoIdentity):
        build_group("noid", ["1", "i"], [[0, 0], [1, 1]])


def test_build_rejects_wrong_identity_claim():
    klein = standard_group("klein")
    with pytest.raises(WrongIdentity):
        build_group("klein", klein.elements, klein.table, identity=1)


@pytest.mark.parametrize("identity", ["0", 1.0, True, False, 2, -1])
def test_build_rejects_a_claimed_identity_that_is_not_an_index(identity):
    with pytest.raises(IndexOutOfRange) as exc:
        build_group("c2", ["e", "g"], [[0, 1], [1, 0]], identity=identity)
    assert str(exc.value) == f"claimed identity {identity!r} outside [0, 2)"


def test_build_rejects_missing_inverse():
    # The AND monoid: associative, unital, but 1 has no inverse.
    with pytest.raises(MissingInverse):
        build_group("and", ["e", "z"], [[0, 1], [1, 1]])


def test_build_rejects_nonassociative_table_with_witness():
    with pytest.raises(NonAssociative, match=r"\(1, 1, 2\)"):
        build_group("magma", ["e", "p", "q"], NONASSOC)


def test_build_locates_identity_anywhere():
    # Same cyclic group with the identity moved to index 1.
    G = build_group("c2-swapped", ["g", "e"], [[1, 0], [0, 1]])
    assert G.identity == 1


def test_build_rejects_oversized_tables():
    n = 65
    table = [[(r + c) % n for c in range(n)] for r in range(n)]
    with pytest.raises(GroupTooLarge):
        build_group("huge", [str(r) for r in range(n)], table)


def test_index_errors():
    q8 = standard_group("q8")
    with pytest.raises(IndexOutOfRange):
        inverse_of(q8, 8)
    with pytest.raises(IndexOutOfRange):
        element_order(q8, -1)
    with pytest.raises(UnknownLabel):
        q8.index_of("w")


def test_build_rejects_bool_entries():
    # True would otherwise pass as the index 1.
    with pytest.raises(ClosureViolation):
        build_group("bool", ["1", "-1"], [[0, True], [True, 0]])


def test_check_index_rejects_bool():
    q8 = standard_group("q8")
    with pytest.raises(IndexOutOfRange):
        q8.check_index(True)
    with pytest.raises(IndexOutOfRange):
        inverse_of(q8, False)


# ---------------------------------------------------------------------------
# standard constructions


def test_q8_displayed_relations():
    q8 = standard_group("q8")

    def product(a, b):
        return q8.label(q8.mul(q8.index_of(a), q8.index_of(b)))

    assert product("i", "j") == "k" and product("j", "i") == "-k"
    assert product("j", "k") == "i" and product("k", "j") == "-i"
    assert product("k", "i") == "j" and product("i", "k") == "-j"
    assert product("i", "i") == product("j", "j") == product("k", "k") == "-1"
    assert product("-1", "-1") == "1"


def test_q8_canonical_ordering():
    q8 = standard_group("q8")
    assert q8.elements == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    assert q8.identity == 0


def test_klein_relations():
    klein = standard_group("klein")
    assert klein.elements == ("1", "i", "j", "k")
    i, j, k = (klein.index_of(x) for x in "ijk")
    assert klein.mul(i, j) == k == klein.mul(j, i)
    assert klein.mul(i, i) == klein.identity


def test_sign_group():
    sign = standard_group("sign")
    assert sign.elements == ("1", "-1")
    assert sign.mul(1, 1) == 0


def test_cyclic_groups():
    c5 = standard_group("cyclic", 5)
    assert c5.order == 5
    assert c5.mul(3, 4) == 2
    assert standard_group("cyclic", 1).order == 1
    with pytest.raises(ValueError):
        standard_group("cyclic", 0)
    with pytest.raises(GroupTooLarge):
        standard_group("cyclic", 65)


def test_elementary_abelian_two_groups():
    assert standard_group("elementary_abelian_2", 0).order == 1
    ea3 = standard_group("elementary_abelian_2", 3)
    assert ea3.order == 8
    assert ea3.label(0) == "1" and ea3.label(3) == "ab"
    assert all(ea3.mul(g, g) == 0 for g in range(8))


def test_unknown_kind():
    with pytest.raises(UnknownKind):
        standard_group("dihedral")
    with pytest.raises(UnknownKind):
        catalog_group("d4")


def test_catalog_names():
    names = set(catalog())
    assert {"q8", "klein", "sign", "c2", "c16", "ea2-1", "ea2-4"} <= names
    assert len(names) == 3 + 15 + 4


def test_catalog_group_is_the_catalog_entry():
    for name, G in catalog().items():
        assert catalog_group(name) is G
    assert catalog_group("q8") is catalog()["q8"] is standard_group("q8")
    assert list(catalog())[:4] == ["q8", "klein", "sign", "c2"]


def test_catalog_group_unknown_name_message():
    with pytest.raises(UnknownKind) as exc:
        catalog_group("d4")
    assert str(exc.value) == (
        "unknown group name 'd4' (known: c10, c11, c12, c13, c14, c15, c16, c2, c3, c4, "
        "c5, c6, c7, c8, c9, ea2-1, ea2-2, ea2-3, ea2-4, klein, q8, sign)"
    )


def test_catalog_group_builds_only_the_named_group():
    # A fresh interpreter, so no other test has filled the cache yet.
    probe = (
        "from cfkit.groups import catalog_group, standard_group\n"
        "catalog_group('c5')\n"
        "print(standard_group.cache_info().currsize)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "1"


def test_standard_group_caches_one_group_per_kind_and_order():
    assert standard_group("q8") is standard_group("q8", None) is standard_group(kind="q8")
    c4 = standard_group("cyclic", 4)
    assert c4 is standard_group("cyclic", n=4) is standard_group(kind="cyclic", n=4)
    assert standard_group("cyclic", 5) is not c4


@pytest.mark.parametrize(
    "kind, n, message",
    [
        ("cyclic", True, "cyclic groups need an order n >= 1"),
        ("cyclic", "4", "cyclic groups need an order n >= 1"),
        ("cyclic", 4.0, "cyclic groups need an order n >= 1"),
        ("cyclic", None, "cyclic groups need an order n >= 1"),
        ("elementary_abelian_2", False, "elementary abelian 2-groups need a rank k >= 0"),
        ("elementary_abelian_2", True, "elementary abelian 2-groups need a rank k >= 0"),
        ("elementary_abelian_2", 1.0, "elementary abelian 2-groups need a rank k >= 0"),
    ],
)
def test_standard_group_rejects_a_size_that_is_not_an_int(kind, n, message):
    with pytest.raises(ValueError) as exc:
        standard_group(kind, n)
    assert str(exc.value) == message
    # The rejected call must not leave a cache entry that True == 1 would hit.
    assert standard_group("cyclic", 1).name == "c1"
    assert standard_group("elementary_abelian_2", 0).name == "ea2-0"
    assert standard_group("elementary_abelian_2", 1).name == "ea2-1"


def test_standard_group_normalises_its_cache_key():
    class Size(enum.IntEnum):
        FOUR = 4

    assert standard_group("cyclic", Size.FOUR) is standard_group("cyclic", 4)
    assert standard_group("cyclic", 4).name == "c4"
    assert standard_group("q8", 3) is standard_group("q8")


# ---------------------------------------------------------------------------
# element-level operations


def test_inverse_of_examples():
    q8 = standard_group("q8")
    assert q8.label(inverse_of(q8, q8.index_of("i"))) == "-i"
    assert inverse_of(q8, q8.identity) == q8.identity
    klein = standard_group("klein")
    j = klein.index_of("j")
    # Klein table says j*j = 1, so j is its own inverse.
    assert klein.mul(j, j) == klein.identity
    assert inverse_of(klein, j) == j


@pytest.mark.parametrize("G", catalog_groups(), ids=lambda G: G.name)
def test_inverse_is_involution(G):
    for g in range(G.order):
        assert inverse_of(G, inverse_of(G, g)) == g


def test_element_order_examples():
    q8 = standard_group("q8")
    assert element_order(q8, q8.index_of("-1")) == 2
    assert element_order(q8, q8.identity) == 1
    # i, i*i = -1, i^3 = -i, i^4 = 1.
    assert element_order(q8, q8.index_of("i")) == 4


def test_structure_flags_examples():
    q8 = standard_group("q8")
    flags = structure_flags(q8)
    assert (flags.commutative, flags.exponent_two, flags.order) == (False, False, 8)
    trivial = standard_group("elementary_abelian_2", 0)
    assert structure_flags(trivial) == structure_flags(trivial).__class__(True, True, 1)
    ea2 = standard_group("elementary_abelian_2", 2)
    brute_commutative = all(
        ea2.mul(a, b) == ea2.mul(b, a) for a in range(4) for b in range(4)
    )
    brute_exp2 = all(ea2.mul(g, g) == ea2.identity for g in range(4))
    flags = structure_flags(ea2)
    assert flags.commutative == brute_commutative is True
    assert flags.exponent_two == brute_exp2 is True


@pytest.mark.parametrize("G", catalog_groups(), ids=lambda G: G.name)
def test_exponent_two_means_self_inverse(G):
    if structure_flags(G).exponent_two:
        assert all(inverse_of(G, g) == g for g in range(G.order))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_group_axioms_hold_on_catalog(data):
    G = data.draw(st.sampled_from(catalog_groups()))
    n = G.order
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
    assert G.mul(G.identity, a) == a == G.mul(a, G.identity)
    assert G.mul(a, inverse_of(G, a)) == G.identity


# ---------------------------------------------------------------------------
# subsets


def test_generated_subgroup():
    q8 = standard_group("q8")
    i = q8.index_of("i")
    sub = generated_subgroup(q8, [i])
    assert sub.labels() == ("1", "-1", "i", "-i")
    assert generated_subgroup(q8, []).members == {q8.identity}
    full = generated_subgroup(q8, [i, q8.index_of("j")])
    assert len(full.members) == 8


def test_center():
    q8 = standard_group("q8")
    assert center(q8).labels() == ("1", "-1")
    klein = standard_group("klein")
    assert len(center(klein).members) == 4


# ---------------------------------------------------------------------------
# fraction transformations


def test_fraction_composition_entries():
    ft = fraction_transformation_group()
    G, action = ft.group, ft.action
    neg = G.index_of("-x")
    inv = G.index_of("1/x")
    both = G.index_of("-1/x")
    assert G.mul(neg, inv) == both
    assert G.mul(inv, neg) == both
    ident = G.index_of("x")
    for g in range(4):
        assert G.mul(ident, g) == g == G.mul(g, ident)
    # Table agrees with formal composition everywhere.
    for r in range(4):
        for c in range(4):
            assert action[G.mul(r, c)] == action[r].compose(action[c])


def test_fraction_action_is_bijection():
    ft = fraction_transformation_group()
    assert len(set(ft.action)) == 4
    assert [t.formula for t in ft.action] == ["x", "-x", "1/x", "-1/x"]


def test_fraction_group_is_klein():
    # Independent exhaustive search: some identity-fixing bijection onto the
    # Klein table preserves all products.
    F = fraction_transformation_group().group
    K = standard_group("klein")
    found = []
    for perm in itertools.permutations(range(1, 4)):
        images = (0,) + perm
        if all(
            images[F.mul(a, b)] == K.mul(images[a], images[b])
            for a in range(4)
            for b in range(4)
        ):
            found.append(images)
    assert found, "no isomorphism onto the Klein group"
