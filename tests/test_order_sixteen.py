"""Automorphism counts of six groups of order 16.

The groups are built here from their own product rules, not from the
library's catalog or the benchmark, and every map the search returns is
checked against the group laws with a loop written here.  A relabelled copy
of each group, searched afresh, gives the same counts.
"""

import random
from itertools import product

import pytest

from cfkit import build_group, enumerate_symmetries


def from_rule(name, elements, mul):
    """The group on elements with the product mul, as build_group takes it."""
    index = {g: i for i, g in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return build_group(name, [str(g) for g in elements], table)


def cyclic(n):
    return list(range(n)), lambda a, b: (a + b) % n


def dihedral(n):
    """The dihedral group of order 2n: (k, f) is r^k s^f with s r s = r^-1."""

    def mul(a, b):
        (k, f), (l, g) = a, b
        return ((k + (-l if f else l)) % n, f ^ g)

    return list(product(range(n), range(2))), mul


def quaternion():
    """The units +-1, +-i, +-j, +-k as (sign, unit), with ij = k, jk = i, ki = j."""

    def mul(a, b):
        (s, u), (t, v) = a, b
        if u == "1" or v == "1":
            return s * t, u if v == "1" else v
        if u == v:
            return -s * t, "1"
        sign = 1 if u + v in ("ij", "jk", "ki") else -1
        return sign * s * t, ({"i", "j", "k"} - {u, v}).pop()

    return list(product((1, -1), "1ijk")), mul


def direct(*factors):
    def mul(a, b):
        return tuple(m(x, y) for (_, m), x, y in zip(factors, a, b))

    return list(product(*(elements for elements, _ in factors))), mul


# name, construction, automorphisms, automorphisms with anti-automorphisms
GROUPS = [
    ("c2xq8", direct(cyclic(2), quaternion()), 192, 384),
    ("c4xc4", direct(cyclic(4), cyclic(4)), 96, 96),
    ("d16", dihedral(8), 32, 64),
    ("c2xd8", direct(cyclic(2), dihedral(4)), 64, 128),
    ("c2xc8", direct(cyclic(2), cyclic(8)), 16, 16),
    ("c4xc2xc2", direct(cyclic(4), cyclic(2), cyclic(2)), 192, 192),
]


def relabelled(G, seed):
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    back = sorted(range(G.order), key=perm.__getitem__)
    table = [[perm[G.table[back[r]][back[c]]] for c in range(G.order)] for r in range(G.order)]
    return build_group(G.name + "-relabelled", [G.elements[i] for i in back], table)


def obeys(G, images, reverses):
    """Whether images is a bijection with f(a*b) = f(a)*f(b), or f(b)*f(a)."""
    if sorted(images) != list(range(G.order)):
        return False
    t = G.table
    for a in range(G.order):
        for b in range(G.order):
            left, right = (images[b], images[a]) if reverses else (images[a], images[b])
            if images[t[a][b]] != t[left][right]:
                return False
    return True


@pytest.mark.parametrize("name, rule, autos, everything", GROUPS, ids=[g[0] for g in GROUPS])
def test_order_sixteen_symmetry_counts(name, rule, autos, everything):
    G = from_rule(name, *rule)
    assert G.order == 16
    for H in (G, relabelled(G, seed=16)):
        without = enumerate_symmetries(H, include_anti=False)
        with_anti = enumerate_symmetries(H, include_anti=True)
        assert (len(without), len(with_anti)) == (autos, everything)
        assert len({m.images for m in with_anti}) == everything
        assert {m.images for m in without} <= {m.images for m in with_anti}
        for m in with_anti:
            assert obeys(H, m.images, reverses=not m.preserves_products)
        assert all(obeys(H, m.images, reverses=False) for m in without)
