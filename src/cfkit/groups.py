"""Finite groups as validated multiplication tables, plus the standard catalog.

Elements are dense indices 0..n-1 with a parallel label tuple; all algebra
runs on indices and labels appear only at I/O boundaries.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

from ._record import frozen
from .errors import (
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
)

# Orders above this are out of scope for the whole toolkit.
MAX_ORDER = 64
# A chain holds one step record per step, so longer chains are refused.  It
# is kept here, with the other bound, so that the command line can name it
# without loading the formula module.
MAX_ORBIT_STEPS = 10**6


def _check_order(n: int) -> None:
    """Refuse n elements above MAX_ORDER; callers run it before any table work."""
    if n > MAX_ORDER:
        raise GroupTooLarge(f"order {n} exceeds the supported bound {MAX_ORDER}")


@frozen
class FiniteGroup:
    """Immutable group data: element labels and an index-valued product table.

    Values come from build_group, so the table is a validated group.  Facts
    derived from it (inverses, element orders, flags) are computed on first
    use and kept on the instance, as every record keeps its hash; they are
    not fields, so equality, hashing and repr see only the table data.
    """

    name: str
    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        """inverses[g] is the index of g^-1."""
        return tuple(row.index(self.identity) for row in self.table)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """orders[g] is the least m >= 1 with g^m = identity."""
        orders = []
        for g in range(self.order):
            power, m = g, 1
            while power != self.identity:
                power = self.table[power][g]
                m += 1
            orders.append(m)
        return tuple(orders)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Greedy generators, chosen when build_group runs Light's test on
        them: each is the least element outside the subgroup the ones before
        generate."""
        gens: list[int] = []
        closure = {self.identity}
        for g in range(self.order):
            if g not in closure:
                gens.append(g)
                closure = _closure(self.table, self.identity, gens)
        return tuple(gens)

    @cached_property
    def flags(self) -> StructureFlags:
        t, n = self.table, self.order
        return StructureFlags(
            commutative=all(t[a][b] == t[b][a] for a in range(n) for b in range(a)),
            exponent_two=all(t[g][g] == self.identity for g in range(n)),
            order=n,
        )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def label(self, g: int) -> str:
        return self.elements[g]

    def index_of(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownLabel(
                f"group {self.name!r} has no element labelled {label!r}"
            ) from None

    def check_index(self, g: int) -> int:
        if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < len(self.elements):
            raise IndexOutOfRange(
                f"index {g!r} outside [0, {len(self.elements)}) in group {self.name!r}"
            )
        return g


@frozen
class StructureFlags:
    """Cheap global facts about a group."""

    commutative: bool
    exponent_two: bool
    order: int


@frozen
class ElementSubset:
    """A subset of a group's elements, kept as indices."""

    group: FiniteGroup
    members: frozenset[int]

    def __post_init__(self) -> None:
        for g in self.members:
            self.group.check_index(g)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.group.label(g) for g in sorted(self.members))


def build_group(
    name: str,
    elements: Sequence[str],
    table: Sequence[Sequence[int]],
    identity: int | None = None,
) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a FiniteGroup.

    table[r][c] is the index of elements[r] * elements[c].  The identity may
    be passed (it is checked) or omitted (it is located by scanning).
    Raises DuplicateLabel, ClosureViolation, NoIdentity, WrongIdentity,
    MissingInverse, or NonAssociative; each message names the offenders.
    """
    labels = tuple(str(x) for x in elements)
    n = len(labels)
    if n == 0:
        raise ValueError("a group needs at least one element")
    _check_order(n)
    seen: dict[str, int] = {}
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

    G = FiniteGroup(name, labels, rows, found)
    if not _associative(G):
        # Name the lexicographically first failing triple.
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
                            f"but {labels[a]}*({labels[b]}*{labels[c]}) = "
                            f"{labels[row_a[rows[b][c]]]!r}"
                        )
    return G


def _closure(rows: Sequence[Sequence[int]], identity: int, gens: Sequence[int]) -> set[int]:
    """The elements reached from the identity by multiplying by gens on either side."""
    members = {identity}
    frontier = [identity]
    while frontier:
        u = frontier.pop()
        for g in gens:
            for w in (rows[u][g], rows[g][u]):
                if w not in members:
                    members.add(w)
                    frontier.append(w)
    return members


def _associative(G: FiniteGroup) -> bool:
    """Light's associativity test (Clifford & Preston, The Algebraic Theory of
    Semigroups I, section 1.2).

    The elements g with (x*g)*y = x*(g*y) for all x, y are closed under
    products, so testing the greedy generators decides associativity.
    """
    rows = G.table
    for g in G.generators:
        # Row x of (x*g)*y is row x*g; row x of x*(g*y) is row x read at row g.
        via_g = itemgetter(*rows[g])
        if any(rows[row[g]] != via_g(row) for row in rows):
            return False
    return True


def inverse_of(G: FiniteGroup, g: int) -> int:
    """Index of the unique h with g*h = h*g = identity."""
    return G.inverses[G.check_index(g)]


def element_order(G: FiniteGroup, g: int) -> int:
    """Least m >= 1 with g^m = identity."""
    return G.orders[G.check_index(g)]


def structure_flags(G: FiniteGroup) -> StructureFlags:
    """Commutativity, exponent-two, and order, by exhaustive check."""
    return G.flags


def generated_subgroup(G: FiniteGroup, generators: Iterable[int]) -> ElementSubset:
    """Smallest subgroup containing the generators (closure under products)."""
    gens = [G.check_index(g) for g in generators]
    members = _closure(G.table, G.identity, gens)
    return ElementSubset(G, frozenset(members))


def center(G: FiniteGroup) -> ElementSubset:
    """Elements commuting with everything."""
    n = G.order
    members = frozenset(
        g for g in range(n) if all(G.table[g][h] == G.table[h][g] for h in range(n))
    )
    return ElementSubset(G, members)


# ---------------------------------------------------------------------------
# Standard constructions.  Identity always sits at index 0.

_Q8_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
_EA2_LETTERS = "abcdef"


def _q8_product(a: int, b: int) -> int:
    # Index = 2*symbol + sign with symbols 0:1, 1:i, 2:j, 3:k.
    sa, na = a // 2, a % 2
    sb, nb = b // 2, b % 2
    if sa == 0 or sb == 0:
        extra = 0
    elif sa == sb:
        extra = 1
    else:
        extra = 0 if (sa, sb) in ((1, 2), (2, 3), (3, 1)) else 1
    return 2 * (sa ^ sb) + (na ^ nb ^ extra)


# Kinds that take a size, with its least value and the message for a bad one.
_SIZED_KINDS = {
    "cyclic": (1, "cyclic groups need an order n >= 1"),
    "elementary_abelian_2": (0, "elementary abelian 2-groups need a rank k >= 0"),
}


def standard_group(kind: str, n: int | None = None) -> FiniteGroup:
    """One of the built-in groups: sign, klein, q8, cyclic(n), elementary_abelian_2(k)."""
    # Checked before the cache lookup: True == 1 and 4.0 == 4 would otherwise
    # share a cache entry with a group built from the wrong value.
    if kind in _SIZED_KINDS:
        least, message = _SIZED_KINDS[kind]
        if not isinstance(n, int) or isinstance(n, bool) or n < least:
            raise ValueError(message)
        n = int(n)
    else:
        n = None
    return _standard_group(kind, n)


# Every call form reaches the cache as (kind, n), so each group is built once.
@lru_cache(maxsize=None)
def _standard_group(kind: str, n: int | None) -> FiniteGroup:
    if kind == "sign":
        return build_group("sign", ("1", "-1"), ((0, 1), (1, 0)), 0)
    if kind == "klein":
        table = tuple(tuple(r ^ c for c in range(4)) for r in range(4))
        return build_group("klein", ("1", "i", "j", "k"), table, 0)
    if kind == "q8":
        table = tuple(tuple(_q8_product(r, c) for c in range(8)) for r in range(8))
        return build_group("q8", _Q8_LABELS, table, 0)
    if kind == "cyclic":
        _check_order(n)
        table = tuple(tuple((r + c) % n for c in range(n)) for r in range(n))
        return build_group(f"c{n}", tuple(str(r) for r in range(n)), table, 0)
    if kind == "elementary_abelian_2":
        # Compared as a rank, so no power of two is built for a huge n.
        if n > MAX_ORDER.bit_length() - 1:
            raise GroupTooLarge(f"rank {n} gives order 2**{n} above the bound {MAX_ORDER}")
        size = 2**n
        labels = tuple(_ea2_label(mask) for mask in range(size))
        table = tuple(tuple(r ^ c for c in range(size)) for r in range(size))
        return build_group(f"ea2-{n}", labels, table, 0)
    raise UnknownKind(f"unknown standard group kind {kind!r}")


standard_group.cache_info = _standard_group.cache_info
standard_group.cache_clear = _standard_group.cache_clear


def _ea2_label(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(_EA2_LETTERS[b] for b in range(mask.bit_length()) if mask >> b & 1)


# Catalog name to the standard_group arguments that build it.
_CATALOG: dict[str, tuple] = {
    "q8": ("q8",),
    "klein": ("klein",),
    "sign": ("sign",),
    **{f"c{m}": ("cyclic", m) for m in range(2, 17)},
    **{f"ea2-{k}": ("elementary_abelian_2", k) for k in range(1, 5)},
}


def catalog() -> dict[str, FiniteGroup]:
    """Groups addressable by name: q8, klein, sign, c2..c16, ea2-1..ea2-4.

    Each call returns a new dict of the same cached groups, so a caller that
    changes it changes no later call's answer.
    """
    return {name: standard_group(*args) for name, args in _CATALOG.items()}


def catalog_group(name: str) -> FiniteGroup:
    """Look up a built-in group by its catalog name, building only that group."""
    try:
        args = _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise UnknownKind(f"unknown group name {name!r} (known: {known})") from None
    return standard_group(*args)


# ---------------------------------------------------------------------------
# The four formal substitutions x -> x, -x, 1/x, -1/x under composition.


@frozen
class FractionTransformation:
    """Formal substitution sending x to (+-)x or (+-)1/x."""

    negate: bool
    invert: bool

    def compose(self, other: "FractionTransformation") -> "FractionTransformation":
        # Signs and reciprocals cancel pairwise, so the order of composition
        # does not matter: 1/(-x) and -(1/x) are the same formal expression.
        return FractionTransformation(self.negate ^ other.negate, self.invert ^ other.invert)

    @property
    def formula(self) -> str:
        body = "1/x" if self.invert else "x"
        return "-" + body if self.negate else body

    def __str__(self) -> str:
        return f"x -> {self.formula}"


@frozen
class FractionTransformationGroup:
    """The composition group of the four fraction transformations."""

    group: FiniteGroup
    action: tuple[FractionTransformation, ...]


def fraction_transformation_group() -> FractionTransformationGroup:
    """Build the four transformations and their composition table as a group."""
    action = tuple(
        FractionTransformation(negate, invert)
        for negate, invert in ((False, False), (True, False), (False, True), (True, True))
    )
    index = {t: i for i, t in enumerate(action)}
    table = tuple(tuple(index[r.compose(c)] for c in action) for r in action)
    labels = tuple(t.formula for t in action)
    return FractionTransformationGroup(build_group("fractions", labels, table, 0), action)
