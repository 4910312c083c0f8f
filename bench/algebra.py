"""The benchmark's own group algebra: table constructions and oracles.

Nothing here imports cfkit.  Tables are tuples of tuples of element indices
with the identity at index 0, so every check in this module is independent
of the library under test.
"""

from __future__ import annotations

import itertools
import json
import math
import random

ROLES = ("x", "y", "a", "b")

# The role rules of the three built-in variants, as the paper states them:
# each role goes to (role, inverted).
RULES = {
    "classic": {"x": ("x", False), "a": ("b", False), "y": ("a", True), "b": ("y", False)},
    "dual": {"x": ("y", False), "a": ("x", False), "y": ("a", True), "b": ("b", False)},
    "mosko": {"x": ("x", False), "y": ("y", False), "a": ("b", False), "b": ("a", False)},
}

# |Aut| of the order-16 groups the benchmark checks against, from the
# literature.  A symmetry list is accepted as complete only when every map
# passes the law loop and the count equals this (doubled with anti-maps on a
# non-commutative group).
AUT_ORDER = {
    "c2xq8": 192,
    "c4xc4": 96,
    "d16": 32,
    "c2xd8": 64,
    "c2xc8": 16,
    "c4xc2xc2": 192,
}


# ---------------------------------------------------------------------------
# Constructions.  Each returns (name, labels, table).


def cyclic(n: int, name: str | None = None):
    table = tuple(tuple((r + c) % n for c in range(n)) for r in range(n))
    return name or f"c{n}", tuple(str(k) for k in range(n)), table


def dihedral(order: int, name: str | None = None):
    """r^k s^e at index e*m + k, with s r s = r^-1."""
    m = order // 2

    def mul(p: int, q: int) -> int:
        e1, k1 = divmod(p, m)
        e2, k2 = divmod(q, m)
        k = (k1 + (k2 if e1 == 0 else -k2)) % m
        return ((e1 ^ e2) * m) + k

    table = tuple(tuple(mul(p, q) for q in range(order)) for p in range(order))
    labels = tuple(("s" if p >= m else "") + f"r{p % m}" for p in range(order))
    return name or f"d{order}", labels, table


def dicyclic(order: int, name: str | None = None):
    """a^k x^e at index e*2n + k, with a^2n = 1, x^2 = a^n, x a = a^-1 x."""
    two_n = order // 2
    n = two_n // 2

    def mul(p: int, q: int) -> int:
        e1, k1 = divmod(p, two_n)
        e2, k2 = divmod(q, two_n)
        if e1 == 0:
            return e2 * two_n + (k1 + k2) % two_n
        if e2 == 0:
            return two_n + (k1 - k2) % two_n
        return (k1 - k2 + n) % two_n

    table = tuple(tuple(mul(p, q) for q in range(order)) for p in range(order))
    labels = tuple(("x" if p >= two_n else "") + f"a{p % two_n}" for p in range(order))
    return name or f"dic{order}", labels, table


def product(*factors, name: str):
    """Direct product; the index is mixed-radix with the last factor fastest."""
    sizes = [len(f[1]) for f in factors]
    coords = list(itertools.product(*(range(s) for s in sizes)))
    index = {c: i for i, c in enumerate(coords)}
    table = tuple(
        tuple(
            index[tuple(f[2][p][q] for f, p, q in zip(factors, cp, cq))]
            for cq in coords
        )
        for cp in coords
    )
    labels = tuple("_".join(f[1][k] for f, k in zip(factors, c)) for c in coords)
    return name, labels, table


def order16_groups():
    """Six order-16 groups beyond the catalog, with 16 to 384 symmetries."""
    c2, c4, c8 = cyclic(2), cyclic(4), cyclic(8)
    return [
        product(c2, dicyclic(8), name="c2xq8"),
        product(c4, c4, name="c4xc4"),
        dihedral(16, name="d16"),
        product(c2, dihedral(8), name="c2xd8"),
        product(c2, c8, name="c2xc8"),
        product(c4, c2, c2, name="c4xc2xc2"),
    ]


def large_groups():
    """Order-32 and order-64 tables for the file-validation path."""
    c2, c4, c8 = cyclic(2), cyclic(4), cyclic(8)
    q8 = dicyclic(8)
    return [
        product(c2, c2, c8, name="c2xc2xc8"),
        product(q8, c4, name="q8xc4"),
        dihedral(32, name="d32"),
        product(c4, c4, c4, name="c4xc4xc4"),
        product(q8, c8, name="q8xc8"),
        product(c2, c2, c2, c2, c2, c2, name="ea2-6"),
    ]


def relabel(table, perm):
    """The table of the same group after moving element g to index perm[g]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return tuple(tuple(row) for row in out)


def group_file(name, labels, table, identity: int = 0) -> str:
    payload = {
        "name": name,
        "elements": list(labels),
        "identity": labels[identity],
        "table": [[labels[v] for v in row] for row in table],
    }
    return json.dumps(payload, indent=1)


# ---------------------------------------------------------------------------
# Facts about a table, computed by exhaustive loops.


def identity_of(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][g] == g and table[g][e] == g for g in range(n)):
            return e
    raise ValueError("table has no identity")


def inverses(table, e: int) -> tuple[int, ...]:
    n = len(table)
    return tuple(next(h for h in range(n) if table[g][h] == e) for g in range(n))


def is_commutative(table) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a + 1, n))


def exponent_two(table, e: int) -> bool:
    return all(table[g][g] == e for g in range(len(table)))


def law_holds(table, images, anti: bool) -> bool:
    n = len(table)
    for a in range(n):
        row = table[a]
        ia = images[a]
        for b in range(n):
            ib = images[b]
            want = table[ib][ia] if anti else table[ia][ib]
            if images[row[b]] != want:
                return False
    return True


def is_bijection(images, n: int) -> bool:
    return len(images) == n and sorted(images) == list(range(n))


def kind_of(table, images) -> str:
    hom = law_holds(table, images, anti=False)
    anti = law_holds(table, images, anti=True)
    return "both" if hom and anti else "hom" if hom else "anti" if anti else "neither"


def brute_symmetries(table, e: int, anti: bool) -> tuple[tuple[int, ...], ...]:
    """Every identity-fixing bijection passing a law, by full scan (order <= 8)."""
    n = len(table)
    if n > 8:
        raise ValueError("brute force is kept to order 8")
    rest = [g for g in range(n) if g != e]
    found = []
    for perm in itertools.permutations(rest):
        images = [0] * n
        images[e] = e
        for s, d in zip(rest, perm):
            images[s] = d
        if law_holds(table, images, anti=False) or (anti and law_holds(table, images, anti=True)):
            found.append(tuple(images))
    return tuple(sorted(found))


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# Role rules.


def random_rule(rng: random.Random) -> dict:
    return {role: (rng.choice(ROLES), rng.random() < 0.3) for role in ROLES}


def formula_text(rule: dict) -> str:
    """The rule as formula text, with the standard left side F_x(a):F_y(b)."""

    def term(role: str) -> str:
        target, inverted = rule[role]
        return target + ("^-1" if inverted else "")

    return f"F_x(a):F_y(b) => F_{term('x')}({term('a')}):F_{term('y')}({term('b')})"


def induced_pairs(rule: dict, values: dict, inv) -> dict | None:
    """src -> dst for each role, or None when two roles send one element apart."""
    pairs: dict[int, int] = {}
    for role in ROLES:
        target, inverted = rule[role]
        dst = inv[values[target]] if inverted else values[target]
        src = values[role]
        if pairs.setdefault(src, dst) != dst:
            return None
    return pairs


def agrees(images, pairs: dict) -> bool:
    return all(images[s] == d for s, d in pairs.items())


def advance(rule: dict, values: tuple, inv) -> tuple:
    by_role = dict(zip(ROLES, values))
    out = []
    for role in ROLES:
        target, inverted = rule[role]
        v = by_role[target]
        out.append(inv[v] if inverted else v)
    return tuple(out)


def orbit_period(step, start, limit: int):
    """Least p >= 1 with step^p(start) = start, or None if start never recurs."""
    seen = {start}
    state = start
    for p in range(1, limit + 2):
        state = step(state)
        if state == start:
            return p
        if state in seen:
            return None
        seen.add(state)
    return None


def symbolic_period(rule: dict):
    """Period of the substitution itself: track (role, inverted) per role."""

    def step(subst):
        out = []
        for target, inverted in subst:
            t2, i2 = rule[target]
            out.append((t2, i2 ^ inverted))
        return tuple(out)

    start = tuple((role, False) for role in ROLES)
    return orbit_period(step, start, limit=8 ** 4)
