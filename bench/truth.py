"""Complete symmetry lists that the oracles trust.

Up to order 8 the list comes from the benchmark's own scan of every
identity-fixing bijection.  Above that, cfkit's list is accepted only after
each map passes the benchmark's law loop, no map repeats, and the count
equals the known |Aut| (doubled for anti-maps of a non-commutative group):
a list of that many distinct valid maps is all of them.
"""

from __future__ import annotations

import re

import algebra


class OracleError(Exception):
    """The benchmark could not establish the expected answer."""


def expected_aut_order(name: str) -> int:
    if name in algebra.AUT_ORDER:
        return algebra.AUT_ORDER[name]
    match = re.fullmatch(r"c(\d+)", name)
    if match:
        return algebra.totient(int(match.group(1)))
    raise OracleError(f"no known automorphism count for {name!r}")


class Facts:
    """Identity, inverses and flags of one table, from the benchmark's loops."""

    def __init__(self, table):
        self.table = table
        self.n = len(table)
        self.e = algebra.identity_of(table)
        self.inv = algebra.inverses(table, self.e)
        self.commutative = algebra.is_commutative(table)


class Truth:
    def __init__(self, cf):
        self.cf = cf
        self._facts: dict[int, tuple[object, Facts]] = {}
        self._lists: dict[tuple[int, bool], tuple[tuple[int, ...], ...]] = {}

    def facts(self, G) -> Facts:
        # Keyed by object identity; the group is kept alive in the value.
        hit = self._facts.get(id(G))
        if hit is None:
            hit = self._facts[id(G)] = (G, Facts(G.table))
        return hit[1]

    def symmetries(self, G, anti: bool) -> tuple[tuple[int, ...], ...]:
        key = (id(G), anti)
        if key not in self._lists:
            f = self.facts(G)
            if f.n <= 8:
                found = algebra.brute_symmetries(f.table, f.e, anti)
            else:
                found = self._checked_library_list(G, f, anti)
            self._lists[key] = found
        return self._lists[key]

    def _checked_library_list(self, G, f: Facts, anti: bool):
        maps = self.cf.morphisms.enumerate_symmetries(G, include_anti=anti)
        images = tuple(tuple(m.images) for m in maps)
        for imgs in images:
            if not algebra.is_bijection(imgs, f.n):
                raise OracleError(f"{G.name}: listed symmetry is not a bijection")
            if not (
                algebra.law_holds(f.table, imgs, anti=False)
                or (anti and algebra.law_holds(f.table, imgs, anti=True))
            ):
                raise OracleError(f"{G.name}: listed symmetry breaks both laws")
        want = expected_aut_order(G.name) * (2 if anti and not f.commutative else 1)
        if len(set(images)) != len(images) or len(images) != want:
            raise OracleError(f"{G.name}: {len(images)} symmetries listed, expected {want}")
        return images

    def count(self, G, anti: bool, pairs) -> int:
        if pairs is None:
            return 0
        return sum(1 for imgs in self.symmetries(G, anti) if algebra.agrees(imgs, pairs))
