"""Map classification, composition, and symmetry enumeration."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import (
    GroupTooLarge,
    LengthMismatch,
    IndexOutOfRange,
    NotAutomorphism,
    NotBijective,
    SourceTargetMismatch,
    UnknownKind,
    build_group,
    center,
    classify_map,
    compose_maps,
    enumerate_symmetries,
    find_isomorphism,
    identity_map,
    inner_automorphisms,
    inversion_map,
    invert_map,
    is_outer,
    q8_symmetry,
    standard_group,
    structure_flags,
    symmetry_group,
)

Q8 = standard_group("q8")
KLEIN = standard_group("klein")
SRC = str(Path(__file__).resolve().parent.parent / "src")


def hom_law(G, H, images):
    """Test-local oracle, independent of classify_map."""
    return all(
        images[G.table[a][b]] == H.table[images[a]][images[b]]
        for a in range(G.order)
        for b in range(G.order)
    )


def anti_law(G, H, images):
    return all(
        images[G.table[a][b]] == H.table[images[b]][images[a]]
        for a in range(G.order)
        for b in range(G.order)
    )


def identity_fixing_bijections(G):
    rest = [g for g in range(G.order) if g != G.identity]
    for perm in itertools.permutations(rest):
        images = [0] * G.order
        images[G.identity] = G.identity
        for s, d in zip(rest, perm):
            images[s] = d
        yield tuple(images)


# ---------------------------------------------------------------------------
# classification


def test_lambda_is_a_bijective_anti_automorphism():
    lam = q8_symmetry("lambda")
    assert lam.kind == "anti"
    assert lam.bijective
    assert not lam.preserves_products
    # Spelled-out displayed checks: the image of i*j is j, reached by the
    # reversed product lambda(j)*lambda(i).
    i, j, k = (Q8.index_of(s) for s in "ijk")
    assert Q8.label(lam(Q8.mul(i, j))) == "j"
    assert Q8.mul(lam(j), lam(i)) == lam(Q8.mul(i, j))
    assert Q8.label(lam(Q8.mul(j, k))) == "k"
    assert Q8.mul(lam(k), lam(j)) == lam(Q8.mul(j, k))


def test_tau_is_a_homomorphism():
    tau = q8_symmetry("tau")
    assert tau.kind == "hom" and tau.bijective
    assert Q8.label(tau(Q8.index_of("i"))) == "j"
    assert Q8.label(tau(Q8.index_of("j"))) == "k"
    assert Q8.label(tau(Q8.index_of("k"))) == "i"


def test_sigma_images_and_kind():
    sig = q8_symmetry("sigma")
    assert sig.kind == "anti" and sig.bijective
    assert [Q8.label(sig(Q8.index_of(s))) for s in "ijk"] == ["j", "-k", "i"]


def test_identity_map_kinds():
    assert identity_map(Q8).kind == "hom"
    assert identity_map(KLEIN).kind == "both"
    assert identity_map(Q8).bijective


def test_classify_validates_input():
    with pytest.raises(LengthMismatch):
        classify_map(Q8, Q8, (0, 1, 2))
    with pytest.raises(IndexOutOfRange):
        classify_map(KLEIN, KLEIN, (0, 1, 2, 9))


def test_classify_rejects_bool_images():
    with pytest.raises(IndexOutOfRange):
        classify_map(KLEIN, KLEIN, (0, True, 2, 3))


def test_classify_neither():
    # Swap 1 and -1: breaks both laws since 1 must be fixed.
    images = (1, 0, 2, 3, 4, 5, 6, 7)
    assert classify_map(Q8, Q8, images).kind == "neither"


def test_unknown_named_map():
    with pytest.raises(UnknownKind):
        q8_symmetry("rho")


# ---------------------------------------------------------------------------
# composition and inversion of maps


def test_tau_after_sigma_equals_lambda():
    tau, sig, lam = q8_symmetry("tau"), q8_symmetry("sigma"), q8_symmetry("lambda")
    assert compose_maps(tau, sig).images == lam.images


def test_compose_with_identity():
    lam = q8_symmetry("lambda")
    assert compose_maps(lam, identity_map(Q8)).images == lam.images
    assert compose_maps(identity_map(Q8), lam).images == lam.images


def test_lambda_squared_is_a_homomorphism():
    lam = q8_symmetry("lambda")
    square = compose_maps(lam, lam)
    assert square.kind == "hom"
    assert Q8.label(square(Q8.index_of("i"))) == "j"


def test_compose_rejects_mismatched_maps():
    with pytest.raises(SourceTargetMismatch):
        compose_maps(identity_map(KLEIN), identity_map(Q8))


def test_invert_map():
    tau = q8_symmetry("tau")
    inv_tau = invert_map(tau)
    # tau cycles i -> j -> k -> i, so its inverse cycles i -> k -> j -> i.
    assert [Q8.label(inv_tau(Q8.index_of(s))) for s in "ijk"] == ["k", "i", "j"]
    assert invert_map(identity_map(Q8)).images == identity_map(Q8).images
    lam_inv = invert_map(q8_symmetry("lambda"))
    assert lam_inv.kind == "anti"
    assert Q8.label(lam_inv(Q8.index_of("k"))) == "i"


def test_invert_requires_bijection():
    squash = classify_map(KLEIN, KLEIN, (0, 0, 0, 0))
    with pytest.raises(NotBijective):
        invert_map(squash)


def test_kind_checks_survive_optimized_mode():
    # python -O strips assert statements; the kind checks must still run.
    script = textwrap.dedent(
        """
        from cfkit import GroupMap, KindMismatch, compose_maps, identity_map, invert_map, q8_symmetry

        lam = q8_symmetry("lambda")
        forged = GroupMap(lam.source, lam.target, lam.images, "hom", True)
        for attempt in (lambda: compose_maps(forged, identity_map(lam.source)), lambda: invert_map(forged)):
            try:
                attempt()
            except KindMismatch:
                continue
            raise SystemExit("no KindMismatch for a map with the wrong kind")
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# the inversion map g -> g^-1


def test_inversion_map_on_klein_is_identity():
    inv = inversion_map(KLEIN)
    assert inv.images == tuple(range(4))
    assert inv.kind == "both"


def test_inversion_map_on_q8():
    inv = inversion_map(Q8)
    assert inv.kind == "anti"
    assert [Q8.label(inv(Q8.index_of(s))) for s in "ijk"] == ["-i", "-j", "-k"]
    # Independent classification of the same images.
    assert not hom_law(Q8, Q8, inv.images)
    assert anti_law(Q8, Q8, inv.images)


def test_inversion_map_on_cyclic_three():
    c3 = standard_group("cyclic", 3)
    inv = inversion_map(c3)
    assert inv.images == (0, 2, 1)  # g -> g^2
    assert inv.kind == "both"


@pytest.mark.parametrize("name", ["q8", "klein", "sign", "c5", "ea2-3"])
def test_inversion_always_reverses_products(name):
    from cfkit import catalog_group

    G = catalog_group(name)
    inv = inversion_map(G)
    assert inv.reverses_products
    assert inv.preserves_products == structure_flags(G).commutative


# ---------------------------------------------------------------------------
# enumeration


def test_klein_has_six_automorphisms():
    maps = enumerate_symmetries(KLEIN, include_anti=False)
    assert len(maps) == 6
    # Oracle: the six permutations of {i, j, k} extended by fixing 1.
    expected = set()
    for perm in itertools.permutations((1, 2, 3)):
        images = (0,) + perm
        if hom_law(KLEIN, KLEIN, images):
            expected.add(images)
    assert expected == {m.images for m in maps}
    assert all(m.kind == "both" for m in maps)


def test_trivial_group_has_one_symmetry():
    trivial = standard_group("elementary_abelian_2", 0)
    assert len(enumerate_symmetries(trivial, include_anti=True)) == 1


def test_q8_symmetries_contain_the_named_maps():
    maps = {m.images for m in enumerate_symmetries(Q8, include_anti=True)}
    for name in ("id", "inv", "lambda", "sigma", "tau"):
        assert q8_symmetry(name).images in maps


def test_q8_automorphism_count_against_scan():
    autos = enumerate_symmetries(Q8, include_anti=False)
    assert all(m.kind == "hom" for m in autos)
    scanned = {imgs for imgs in identity_fixing_bijections(Q8) if hom_law(Q8, Q8, imgs)}
    assert {m.images for m in autos} == scanned
    assert len(autos) == 24


def test_anti_set_is_automorphisms_composed_with_inversion():
    maps = enumerate_symmetries(Q8, include_anti=True)
    autos = {m.images for m in maps if m.kind == "hom"}
    antis = {m.images for m in maps if m.kind == "anti"}
    inv = inversion_map(Q8).images
    assert antis == {tuple(a[inv[g]] for g in range(8)) for a in autos}
    assert len(antis) == len(autos)
    assert not autos & antis


def test_enumeration_is_sorted_and_duplicate_free():
    maps = enumerate_symmetries(Q8, include_anti=True)
    images = [m.images for m in maps]
    assert images == sorted(images)
    assert len(set(images)) == len(images)


def test_symmetries_fix_the_identity():
    for G in (Q8, KLEIN, standard_group("cyclic", 6)):
        for m in enumerate_symmetries(G, include_anti=True):
            assert m.images[G.identity] == G.identity


def test_backtracking_path_matches_scan_path():
    # Orders 9..16 take the generator-image search; cross-check it against a
    # small commutative case where the answer is elementary.
    c12 = standard_group("cyclic", 12)
    maps = enumerate_symmetries(c12, include_anti=True)
    # Aut(C12) is the multiplicative units mod 12: 1, 5, 7, 11.
    assert len(maps) == 4
    units = {u for u in range(1, 12) if all((u * g) % 12 != (u * h) % 12 for g in range(12) for h in range(g))}
    expected = {tuple((u * g) % 12 for g in range(12)) for u in units}
    assert {m.images for m in maps} == expected


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


@pytest.mark.parametrize("G", [Q8, dihedral_four()], ids=["q8", "d4"])
def test_generator_search_matches_full_scan_on_noncommutative_groups(G):
    from cfkit.morphisms import _bijective_homomorphisms

    via_dfs = set(_bijective_homomorphisms(G, G))
    via_scan = {
        imgs for imgs in identity_fixing_bijections(G) if hom_law(G, G, imgs)
    }
    assert via_dfs == via_scan
    assert len(via_dfs) in (8, 24)  # |Aut(D4)| = 8, |Aut(Q8)| = 24


def test_enumeration_rejects_large_groups():
    c17 = build_group(
        "c17",
        [str(r) for r in range(17)],
        [[(r + c) % 17 for c in range(17)] for r in range(17)],
    )
    with pytest.raises(GroupTooLarge):
        enumerate_symmetries(c17)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_kind_algebra_on_composable_pairs(data):
    maps = enumerate_symmetries(Q8, include_anti=True)
    f = data.draw(st.sampled_from(maps))
    g = data.draw(st.sampled_from(maps))
    composed = compose_maps(f, g)
    expected = "hom" if f.kind == g.kind else "anti"
    assert composed.kind == expected


def test_symmetry_set_is_closed_under_composition_and_inversion():
    for G in (Q8, KLEIN):
        maps = enumerate_symmetries(G, include_anti=True)
        images = {m.images for m in maps}
        assert tuple(range(G.order)) in images
        for f in maps:
            assert invert_map(f).images in images
            for g in maps:
                assert compose_maps(f, g).images in images


def test_commutative_group_has_equal_hom_and_anti_sets():
    for G in (KLEIN, standard_group("cyclic", 8), standard_group("elementary_abelian_2", 3)):
        with_anti = enumerate_symmetries(G, include_anti=True)
        without = enumerate_symmetries(G, include_anti=False)
        assert [m.images for m in with_anti] == [m.images for m in without]
        assert all(m.kind == "both" for m in with_anti)


# ---------------------------------------------------------------------------
# the packaged symmetry group


def test_symmetry_group_of_klein():
    sym = symmetry_group(KLEIN)
    assert sym.as_group.order == 6
    # Commutative base: every map preserves products, so the subgroup of
    # product-preserving maps has index 1.
    assert all(m.preserves_products for m in sym.maps)
    # Revalidation through the standard constructor must succeed.
    build_group(sym.as_group.name, sym.as_group.elements, sym.as_group.table)


def test_symmetry_group_of_trivial_group():
    trivial = standard_group("elementary_abelian_2", 0)
    assert symmetry_group(trivial).as_group.order == 1


def test_symmetry_group_of_q8():
    sym = symmetry_group(Q8)
    n_auto = sum(1 for m in sym.maps if m.kind == "hom")
    n_anti = sum(1 for m in sym.maps if m.kind == "anti")
    assert (n_auto, n_anti) == (24, 24)
    assert sym.as_group.order == 48
    # Automorphisms form a subgroup of index 2.
    assert sym.as_group.order // n_auto == 2
    build_group(sym.as_group.name, sym.as_group.elements, sym.as_group.table)


def test_symmetry_group_composition_convention():
    sym = symmetry_group(Q8)
    tau_idx = sym.index_of_map(q8_symmetry("tau"))
    sig_idx = sym.index_of_map(q8_symmetry("sigma"))
    lam_idx = sym.index_of_map(q8_symmetry("lambda"))
    # Table entry (r, c) composes with c applied first.
    assert sym.as_group.mul(tau_idx, sig_idx) == lam_idx


def test_symmetry_group_labels_record_kind():
    sym = symmetry_group(Q8)
    for label, m in zip(sym.as_group.elements, sym.maps):
        assert label.startswith("aut" if m.kind == "hom" else "anti")


def test_lambda_cubed_is_inversion_and_lambda_has_order_six():
    lam = q8_symmetry("lambda")
    cube = compose_maps(lam, compose_maps(lam, lam))
    assert cube.images == inversion_map(Q8).images
    sym = symmetry_group(Q8)
    from cfkit import element_order

    assert element_order(sym.as_group, sym.index_of_map(lam)) == 6


def test_symmetry_group_too_large():
    ea3 = standard_group("elementary_abelian_2", 3)
    # 168 automorphisms exceed the composition-table bound.
    with pytest.raises(GroupTooLarge):
        symmetry_group(ea3)


def test_symmetry_group_size_checked_before_classifying(monkeypatch):
    # A fresh copy of ea2-3 so no cached symmetry list is reused.
    ea3 = standard_group("elementary_abelian_2", 3)
    fresh = build_group("ea2-3-copy", ea3.elements, ea3.table)

    def refuse(*args):
        raise AssertionError("symmetry_group classified maps before its size check")

    monkeypatch.setattr("cfkit.morphisms.classify_map", refuse)
    with pytest.raises(GroupTooLarge, match="168 symmetries"):
        symmetry_group(fresh)


# ---------------------------------------------------------------------------
# inner and outer automorphisms


def test_q8_has_four_inner_automorphisms():
    inner = inner_automorphisms(Q8)
    assert len(inner) == 4
    # Oracle: conjugating by every element and deduplicating.
    from cfkit import inverse_of

    seen = set()
    for h in range(8):
        h_inv = inverse_of(Q8, h)
        seen.add(tuple(Q8.mul(Q8.mul(h, g), h_inv) for g in range(8)))
    assert seen == {m.images for m in inner}
    assert len(inner) == Q8.order // len(center(Q8).members)


def test_tau_is_outer():
    assert is_outer(q8_symmetry("tau"))


def test_identity_is_inner():
    assert not is_outer(identity_map(Q8))


def test_is_outer_rejects_non_automorphisms():
    with pytest.raises(NotAutomorphism):
        is_outer(q8_symmetry("lambda"))
    with pytest.raises(NotAutomorphism):
        is_outer(classify_map(KLEIN, KLEIN, (0, 0, 0, 0)))


# ---------------------------------------------------------------------------
# isomorphism search


def test_fraction_group_isomorphic_to_klein():
    from cfkit import fraction_transformation_group

    F = fraction_transformation_group().group
    iso = find_isomorphism(F, KLEIN)
    assert iso is not None and iso.kind in ("hom", "both") and iso.bijective


def test_q8_not_isomorphic_to_c8():
    assert find_isomorphism(Q8, standard_group("cyclic", 8)) is None


def test_map_wire_format():
    from cfkit import map_to_json

    payload = map_to_json(q8_symmetry("lambda"))
    assert payload == {
        "source": "q8",
        "target": "q8",
        "images": ["1", "-1", "k", "-k", "-i", "i", "j", "-j"],
        "kind": "anti",
    }


def test_isomorphism_search_rejects_large_groups():
    c17_table = [[(r + c) % 17 for c in range(17)] for r in range(17)]
    c17 = build_group("c17", [str(r) for r in range(17)], c17_table)
    with pytest.raises(GroupTooLarge):
        find_isomorphism(c17, c17)
