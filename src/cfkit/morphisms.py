"""Homomorphism/anti-homomorphism classification and symmetry enumeration.

A GroupMap records images by source index plus the outcome of checking both
multiplication laws.  Composition follows (f o g)(x) = f(g(x)): the inner map
is applied first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from ._record import frozen
from .errors import (
    GroupTooLarge,
    IndexOutOfRange,
    KindMismatch,
    LengthMismatch,
    NotAutomorphism,
    NotBijective,
    SourceTargetMismatch,
    UnknownKind,
)
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    build_group,
    standard_group,
)

KIND_HOM = "hom"
KIND_ANTI = "anti"
KIND_BOTH = "both"
KIND_NEITHER = "neither"

# Enumeration is exhaustive, so keep it to desk-scale groups.
MAX_SYMMETRY_BASE = 16
# Groups whose symmetry lists are kept; each list is built and verified once.
_SYMMETRY_CACHE_SIZE = 64


@frozen
class GroupMap:
    """A map between groups given by images, with its law classification."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]
    kind: str
    bijective: bool

    def __call__(self, g: int) -> int:
        return self.images[g]

    @property
    def preserves_products(self) -> bool:
        return self.kind in (KIND_HOM, KIND_BOTH)

    @property
    def reverses_products(self) -> bool:
        return self.kind in (KIND_ANTI, KIND_BOTH)

    def is_automorphism(self) -> bool:
        return self.bijective and self.source == self.target and self.preserves_products


def _hom_law_holds(G: FiniteGroup, H: FiniteGroup, images: Sequence[int]) -> bool:
    for a in range(G.order):
        for b in range(G.order):
            if images[G.table[a][b]] != H.table[images[a]][images[b]]:
                return False
    return True


def classify_map(G: FiniteGroup, H: FiniteGroup, images: Sequence[int]) -> GroupMap:
    """Check both laws exhaustively and record kind and bijectivity."""
    imgs = tuple(images)
    if len(imgs) != G.order:
        raise LengthMismatch(f"{len(imgs)} images for a group of order {G.order}")
    for v in imgs:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < H.order:
            raise IndexOutOfRange(f"image {v!r} is not an index in [0, {H.order})")
    hom = _hom_law_holds(G, H, imgs)
    # f reverses products exactly when g -> f(g^-1) preserves them.
    anti = _hom_law_holds(G, H, tuple(imgs[g] for g in G.inverses))
    if hom and anti:
        kind = KIND_BOTH
    elif hom:
        kind = KIND_HOM
    elif anti:
        kind = KIND_ANTI
    else:
        kind = KIND_NEITHER
    bijective = G.order == H.order and len(set(imgs)) == G.order
    return GroupMap(G, H, imgs, kind, bijective)


def identity_map(G: FiniteGroup) -> GroupMap:
    return classify_map(G, G, tuple(range(G.order)))


def inversion_map(G: FiniteGroup) -> GroupMap:
    """The map g -> g^-1; an anti-automorphism, and also a homomorphism
    exactly when the group is commutative."""
    return classify_map(G, G, G.inverses)


def _possible_kinds(outer: str, inner: str) -> frozenset[str] | None:
    if KIND_NEITHER in (outer, inner):
        return None
    outs = {KIND_HOM, KIND_ANTI} if outer == KIND_BOTH else {outer}
    ins = {KIND_HOM, KIND_ANTI} if inner == KIND_BOTH else {inner}
    kinds = {KIND_HOM if o == i else KIND_ANTI for o in outs for i in ins}
    return frozenset(kinds | {KIND_BOTH})


def compose_maps(outer: GroupMap, inner: GroupMap) -> GroupMap:
    """(outer o inner)(x) = outer(inner(x)); inner runs first."""
    if inner.target != outer.source:
        raise SourceTargetMismatch(
            f"cannot compose: inner map lands in {inner.target.name!r} "
            f"but outer map starts from {outer.source.name!r}"
        )
    composed = tuple(outer.images[v] for v in inner.images)
    result = classify_map(inner.source, outer.target, composed)
    expected = _possible_kinds(outer.kind, inner.kind)
    if expected is not None and result.kind not in expected:
        raise KindMismatch(
            f"kind algebra violated: {outer.kind} o {inner.kind} gave {result.kind}"
        )
    return result


def invert_map(f: GroupMap) -> GroupMap:
    """Inverse of a bijective map; the kind is preserved."""
    if not f.bijective:
        raise NotBijective("only bijective maps can be inverted")
    inverse = [0] * len(f.images)
    for g, v in enumerate(f.images):
        inverse[v] = g
    result = classify_map(f.target, f.source, tuple(inverse))
    if result.kind != f.kind:
        raise KindMismatch(
            f"inverting a map must preserve its kind: {f.kind} map has a {result.kind} inverse"
        )
    return result


# ---------------------------------------------------------------------------
# Exhaustive enumeration.


def _bijective_homomorphisms(
    G: FiniteGroup, H: FiniteGroup, limit: int | None = None
) -> list[tuple[int, ...]]:
    """Backtracking search over generator images with closure propagation."""
    n = G.order
    if n != H.order:
        return []
    src_orders, dst_orders = G.orders, H.orders
    if sorted(src_orders) != sorted(dst_orders):
        return []

    gens = G.generators
    images: dict[int, int] = {G.identity: H.identity}
    used: dict[int, int] = {H.identity: G.identity}
    results: list[tuple[int, ...]] = []

    def assign(src: int, dst: int) -> list[int] | None:
        added: list[int] = []
        stack = [(src, dst)]
        while stack:
            s, d = stack.pop()
            current = images.get(s)
            if current is not None:
                if current != d:
                    break
                continue
            if d in used:
                break
            images[s] = d
            used[d] = s
            added.append(s)
            for u, fu in list(images.items()):
                stack.append((G.mul(u, s), H.mul(fu, d)))
                stack.append((G.mul(s, u), H.mul(d, fu)))
        else:
            return added
        for s in added:
            del used[images.pop(s)]
        return None

    def dfs(depth: int) -> bool:
        if depth == len(gens):
            results.append(tuple(images[g] for g in range(n)))
            return limit is not None and len(results) >= limit
        g = gens[depth]
        if g in images:
            return dfs(depth + 1)
        for h in range(n):
            if h in used or dst_orders[h] != src_orders[g]:
                continue
            added = assign(g, h)
            if added is None:
                continue
            if dfs(depth + 1):
                return True
            for s in added:
                del used[images.pop(s)]
        return False

    dfs(0)
    results.sort()
    return results


@lru_cache(maxsize=_SYMMETRY_CACHE_SIZE)
def _symmetries(G: FiniteGroup) -> tuple[tuple[tuple[int, ...], ...], dict, dict]:
    """G's symmetry data, in one entry per group so the bound counts groups.

    The automorphism images are searched when the entry is made.  The
    classified list for each anti flag (see _with_anti) and each list's
    (element, image) index are added on first request.
    """
    if G.order > MAX_SYMMETRY_BASE:
        raise GroupTooLarge(
            f"symmetry enumeration supports orders up to {MAX_SYMMETRY_BASE}, got {G.order}"
        )
    return tuple(_bijective_homomorphisms(G, G)), {}, {}


def _with_anti(G: FiniteGroup, include_anti: bool) -> bool:
    """Whether a request adds anti-automorphisms: on a commutative group they
    are the automorphisms."""
    return bool(include_anti) and not G.flags.commutative


def enumerate_symmetries(G: FiniteGroup, include_anti: bool = True) -> tuple[GroupMap, ...]:
    """All automorphisms of G, plus the anti-automorphisms when asked.

    On a commutative group the two sets coincide and each map is emitted once
    with kind "both".  Output is sorted lexicographically by image sequence.
    Each list is built, and each of its maps classified, once per group.
    """
    images, lists, _ = _symmetries(G)
    with_anti = _with_anti(G, include_anti)
    if False not in lists:
        lists[False] = tuple(classify_map(G, G, imgs) for imgs in images)
    if with_anti not in lists:
        # Every anti-automorphism is (automorphism o inversion), so the second
        # family comes from composing rather than from a second search.
        autos, inv = lists[False], G.inverses
        anti = [classify_map(G, G, tuple(m.images[i] for i in inv)) for m in autos]
        lists[True] = tuple(sorted((*autos, *anti), key=lambda m: m.images))
    return lists[with_anti]


def _image_index(G: FiniteGroup, include_anti: bool) -> tuple[dict, ...]:
    """index[s][d]: the symmetries with f(s) = d, in the list's order."""
    indexes = _symmetries(G)[2]
    with_anti = _with_anti(G, include_anti)
    index = indexes.get(with_anti)
    if index is None:
        buckets: list[dict[int, list[GroupMap]]] = [{} for _ in range(G.order)]
        for m in enumerate_symmetries(G, include_anti=with_anti):
            for bucket, d in zip(buckets, m.images):
                bucket.setdefault(d, []).append(m)
        index = indexes[with_anti] = tuple(
            {d: tuple(ms) for d, ms in bucket.items()} for bucket in buckets
        )
    return index


@frozen
class SymmetryGroup:
    """All (anti-)automorphisms of a base group, closed under composition."""

    base: FiniteGroup
    maps: tuple[GroupMap, ...]
    as_group: FiniteGroup

    def index_of_map(self, m: GroupMap) -> int:
        for i, candidate in enumerate(self.maps):
            if candidate.images == m.images:
                return i
        raise ValueError(f"map is not a symmetry of {self.base.name!r}")


def symmetry_group(G: FiniteGroup) -> SymmetryGroup:
    """Package the full symmetry set with its composition table as a group.

    Labels carry each map's kind ("aut" for product-preserving maps, "anti"
    for purely reversing ones) plus the map's position in the sorted list.
    """
    count = len(_symmetries(G)[0]) * (2 if _with_anti(G, True) else 1)
    if count > MAX_ORDER:
        raise GroupTooLarge(
            f"{G.name!r} has {count} symmetries; composition tables are kept "
            f"to order {MAX_ORDER}"
        )
    maps = enumerate_symmetries(G, include_anti=True)
    index = {m.images: i for i, m in enumerate(maps)}
    n = G.order
    table = []
    for f in maps:
        row = []
        for g in maps:
            composed = tuple(f.images[g.images[x]] for x in range(n))
            row.append(index[composed])
        table.append(tuple(row))
    labels = tuple(
        ("aut" if m.kind in (KIND_HOM, KIND_BOTH) else "anti") + str(i)
        for i, m in enumerate(maps)
    )
    as_group = build_group(f"sym({G.name})", labels, tuple(table), index[tuple(range(n))])
    return SymmetryGroup(G, maps, as_group)


def inner_automorphisms(G: FiniteGroup) -> tuple[GroupMap, ...]:
    """Conjugation maps g -> h*g*h^-1, deduplicated and sorted."""
    seen: set[tuple[int, ...]] = set()
    for h, h_inv in enumerate(G.inverses):
        images = tuple(G.mul(G.mul(h, g), h_inv) for g in range(G.order))
        seen.add(images)
    return tuple(classify_map(G, G, imgs) for imgs in sorted(seen))


def is_outer(f: GroupMap) -> bool:
    """True when f is an automorphism that is not any conjugation."""
    if f.source != f.target or not f.bijective or not f.preserves_products:
        raise NotAutomorphism("outer/inner status is only defined for automorphisms")
    inner = {m.images for m in inner_automorphisms(f.source)}
    return f.images not in inner


# ---------------------------------------------------------------------------
# Isomorphism search between two groups.


def isomorphisms(G: FiniteGroup, H: FiniteGroup, limit: int | None = None) -> tuple[GroupMap, ...]:
    """All product-preserving bijections G -> H, by exhaustive search."""
    if max(G.order, H.order) > MAX_SYMMETRY_BASE:
        raise GroupTooLarge(
            f"isomorphism search supports orders up to {MAX_SYMMETRY_BASE}"
        )
    found = _bijective_homomorphisms(G, H, limit=limit)
    return tuple(classify_map(G, H, imgs) for imgs in found)


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> GroupMap | None:
    found = isomorphisms(G, H, limit=1)
    return found[0] if found else None


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return find_isomorphism(G, H) is not None


# ---------------------------------------------------------------------------
# Named self-maps of the canonical quaternion group.

_Q8_BASE_IMAGES: dict[str, dict[str, str]] = {
    "id": {"i": "i", "j": "j", "k": "k"},
    "inv": {"i": "-i", "j": "-j", "k": "-k"},
    "lambda": {"i": "k", "j": "-i", "k": "j"},
    "sigma": {"i": "j", "j": "-k", "k": "i"},
    "tau": {"i": "j", "j": "k", "k": "i"},
}


def q8_symmetry(name: str) -> GroupMap:
    """A named symmetry of the canonical order-8 quaternion group.

    Images on i, j, k extend by f(1) = 1, f(-1) = -1, f(-g) = -f(g).
    Known names: id, inv, lambda, sigma, tau.
    """
    try:
        base = _Q8_BASE_IMAGES[name]
    except KeyError:
        known = ", ".join(sorted(_Q8_BASE_IMAGES))
        raise UnknownKind(f"no built-in quaternion map named {name!r} (known: {known})") from None
    G = standard_group("q8")
    images = [0] * 8
    images[G.index_of("1")] = G.index_of("1")
    images[G.index_of("-1")] = G.index_of("-1")
    for sym, target in base.items():
        negated = target[1:] if target.startswith("-") else "-" + target
        images[G.index_of(sym)] = G.index_of(target)
        images[G.index_of("-" + sym)] = G.index_of(negated)
    return classify_map(G, G, tuple(images))


def map_to_json(m: GroupMap) -> dict:
    """Wire form: images as target labels in source element order."""
    return {
        "source": m.source.name,
        "target": m.target.name,
        "images": [m.target.label(v) for v in m.images],
        "kind": m.kind,
    }
