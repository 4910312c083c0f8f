"""build_group's associativity check by Light's test against the full scan.

`reference_build_group` is a frozen copy of build_group as it was when it
scanned all n^3 triples.  Both must give the same outcome on every input: an
equal group, or the same exception type and message.  Inputs cover valid
tables of every size the toolkit accepts and tables broken by swapping two
cells of one row, so the fallback scan that names the witness triple runs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import (
    ClosureViolation,
    DuplicateLabel,
    FiniteGroup,
    IndexOutOfRange,
    MissingInverse,
    NoIdentity,
    NonAssociative,
    WrongIdentity,
    build_group,
    catalog,
    symmetry_group,
)
from cfkit.groups import _check_order


def reference_build_group(name, elements, table, identity=None):
    """Frozen copy of build_group with the exhaustive associativity scan."""
    labels = tuple(str(x) for x in elements)
    n = len(labels)
    if n == 0:
        raise ValueError("a group needs at least one element")
    _check_order(n)
    seen = {}
    for idx, lab in enumerate(labels):
        if lab in seen:
            raise DuplicateLabel(f"label {lab!r} used for elements {seen[lab]} and {idx}")
        seen[lab] = idx

    rows = tuple(tuple(row) for row in table)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"table must be {n}x{n} to match the element list")
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ClosureViolation(
                    f"table[{r}][{c}] = {v!r} is not an element index in [0, {n})"
                )

    if identity is not None and (
        not isinstance(identity, int) or isinstance(identity, bool) or not 0 <= identity < n
    ):
        raise IndexOutOfRange(f"claimed identity {identity!r} outside [0, {n})")
    found = None
    for e in range(n):
        if all(rows[e][g] == g and rows[g][e] == g for g in range(n)):
            found = e
            break
    if found is None:
        raise NoIdentity(f"no two-sided identity in the table for {name!r}")
    if identity is not None and identity != found:
        raise WrongIdentity(
            f"claimed identity {identity} ({labels[identity]!r}) but the identity is "
            f"{found} ({labels[found]!r})"
        )

    for g in range(n):
        if not any(rows[g][h] == found and rows[h][g] == found for h in range(n)):
            raise MissingInverse(f"element {g} ({labels[g]!r}) has no two-sided inverse")

    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            row_a = rows[a]
            for c in range(n):
                if rows[ab][c] != row_a[rows[b][c]]:
                    raise NonAssociative(
                        f"witness triple ({a}, {b}, {c}) = "
                        f"({labels[a]!r}, {labels[b]!r}, {labels[c]!r}): "
                        f"({labels[a]}*{labels[b]})*{labels[c]} = {labels[rows[ab][c]]!r} "
                        f"but {labels[a]}*({labels[b]}*{labels[c]}) = {labels[row_a[rows[b][c]]]!r}"
                    )

    return FiniteGroup(name, labels, rows, found)


def outcome(build, *args):
    try:
        return "ok", build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same_outcome(*args):
    """Both versions agree on the input; returns the outcome's kind."""
    got, want = outcome(build_group, *args), outcome(reference_build_group, *args)
    assert got == want, args[0]
    if got[0] == "ok":
        assert got[1].identity == want[1].identity
    return got[0]


def relabelled(G, seed):
    """G's table with its element indices permuted."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    back = sorted(range(G.order), key=perm.__getitem__)
    table = [[perm[G.table[back[r]][back[c]]] for c in range(G.order)] for r in range(G.order)]
    return [G.elements[back[i]] for i in range(G.order)], table, perm[G.identity]


def product_table(left, right):
    """The componentwise product of two tables; they need not be groups."""
    n, m = len(left), len(right)
    return [
        [left[i // m][j // m] * m + right[i % m][j % m] for j in range(n * m)]
        for i in range(n * m)
    ]


def direct_product(G, H):
    labels = [f"({g},{h})" for g in G.elements for h in H.elements]
    return labels, product_table(G.table, H.table)


def row_swaps(G):
    """Every table with two cells of one row exchanged."""
    n = G.order
    for r in range(n):
        for c1 in range(n):
            for c2 in range(c1 + 1, n):
                table = [list(row) for row in G.table]
                table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
                yield (r, c1, c2), table


CATALOG = list(catalog().values())


@pytest.mark.parametrize("G", CATALOG, ids=lambda G: G.name)
def test_catalog_groups_and_relabelled_copies(G):
    assert same_outcome(G.name, G.elements, G.table, None) == "ok"
    labels, table, identity = relabelled(G, G.name)
    assert same_outcome(G.name + "'", labels, table, None) == "ok"
    assert same_outcome(G.name + "'", labels, table, identity) == "ok"


@pytest.mark.parametrize(
    "left, right",
    [("q8", "c4"), ("ea2-4", "c2"), ("c16", "c2"), ("q8", "c8"), ("ea2-3", "q8"), ("c4", "c16")],
)
def test_order_32_and_64_products(left, right):
    G, H = catalog()[left], catalog()[right]
    labels, table = direct_product(G, H)
    assert len(labels) in (32, 64)
    assert same_outcome(f"{left}x{right}", labels, table, None) == "ok"


def test_quaternion_symmetry_group_table():
    sym = symmetry_group(catalog()["q8"]).as_group
    args = (sym.name, sym.elements, sym.table, sym.identity)
    assert sym.order == 48 and same_outcome(*args) == "ok"


@pytest.mark.parametrize("H", [catalog()["q8"], None], ids=["q8", "c2xc4"])
def test_every_swap_within_a_row(H):
    if H is None:
        labels, table = direct_product(catalog()["c2"], catalog()["c4"])
        H = build_group("c2xc4", labels, table)
    c2 = catalog()["c2"]
    labels = [f"({h},{z})" for h in H.elements for z in c2.elements]
    kinds = {}
    for where, table in row_swaps(H):
        kind = same_outcome(H.name, H.elements, table, None)
        kinds.setdefault(kind, []).append(where)
        # In the table times c2, element 1 is (e, z) with z central: it
        # passes, so a later generator must catch the broken factor.
        assert same_outcome(H.name + "xc2", labels, product_table(table, c2.table), None) == kind
    # Swaps away from the identity's row and column keep an identity, so they
    # reach the associativity check and its fallback scan.
    assert NonAssociative in kinds


def test_skewed_cyclic_five():
    c5 = catalog()["c5"]
    table = [list(row) for row in c5.table]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    assert same_outcome("c5", c5.elements, table, None) is NonAssociative


@st.composite
def tables_with_identity(draw):
    n = draw(st.integers(1, 6))
    table = [list(range(n))]
    for r in range(1, n):
        table.append([r] + [draw(st.integers(0, n - 1)) for _ in range(n - 1)])
    return [str(i) for i in range(n)], table


@settings(max_examples=300, deadline=None)
@given(tables_with_identity())
def test_drawn_small_tables(drawn):
    labels, table = drawn
    same_outcome("drawn", labels, table, None)
