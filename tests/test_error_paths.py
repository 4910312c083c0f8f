"""Reachable refusals and fallbacks that no other test reaches.

Group-file fields of the wrong JSON type, empty and ragged tables handed to
`build_group`, unknown variant names, the `id`/`inv` names on a group other
than q8, an empty `--maps` list, a map that is not a symmetry (or lives on
another group), composition
with a map that obeys neither law, and isomorphism searches between groups
of different orders.
"""

import json

import pytest

from cfkit import (
    ParseError,
    UnknownKind,
    are_isomorphic,
    build_group,
    catalog_group,
    classify_map,
    compose_maps,
    find_isomorphism,
    identity_map,
    isomorphisms,
    parse_group_file,
    symmetry_group,
    variant_by_name,
)
from cfkit.cli import main

Q8 = catalog_group("q8")
C4 = catalog_group("c4")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# group files and tables


GOOD_FILE = {
    "name": "c2",
    "elements": ["e", "a"],
    "identity": "e",
    "table": [["e", "a"], ["a", "e"]],
}


@pytest.mark.parametrize(
    "key, value, field, message",
    [
        ("name", 7, "name", "must be a string"),
        ("elements", "e a", "elements", "must be an array of strings"),
        ("elements", ["e", 1], "elements", "must be an array of strings"),
        ("table", {"e": "a"}, "table", "must be an array of rows"),
        ("table", [["e", "a"], "a e"], "table[1]", "must be an array of labels"),
    ],
    ids=["name", "elements-string", "elements-number", "table-object", "row-string"],
)
def test_group_file_field_of_the_wrong_type(tmp_path, capsys, key, value, field, message):
    text = json.dumps(dict(GOOD_FILE, **{key: value}))
    with pytest.raises(ParseError) as excinfo:
        parse_group_file(text)
    assert excinfo.value.field == field
    assert str(excinfo.value) == f"field {field}: {message}"

    path = tmp_path / "group.json"
    path.write_text(text)
    code, out, err = run(capsys, "check-group", "--file", str(path))
    assert (code, out, err) == (2, "", f"error: field {field}: {message}\n")


def test_build_group_refuses_an_empty_element_list():
    with pytest.raises(ValueError, match="a group needs at least one element"):
        build_group("empty", [], [])


@pytest.mark.parametrize(
    "table",
    [[[0, 1], [1]], [[0, 1]], [[0, 1], [1, 0, 0]]],
    ids=["short-row", "missing-row", "long-row"],
)
def test_build_group_refuses_a_ragged_table(table):
    with pytest.raises(ValueError, match="table must be 2x2 to match the element list"):
        build_group("ragged", ["e", "a"], table)


# ---------------------------------------------------------------------------
# names


def test_unknown_variant_name():
    with pytest.raises(UnknownKind) as excinfo:
        variant_by_name("nosuch")
    assert str(excinfo.value) == "unknown variant 'nosuch' (built-ins: classic, dual, mosko)"


@pytest.mark.parametrize(
    "name, images", [("id", ["0", "1", "2", "3"]), ("inv", ["0", "3", "2", "1"])]
)
def test_classify_map_by_name_off_q8(capsys, name, images):
    code, out, err = run(capsys, "classify-map", "--group", "c4", "--map", name)
    summary = " ".join(f"{g}->{v}" for g, v in zip("0123", images))
    assert (code, out, err) == (0, f"kind: both\nbijective: True\n[both] {summary}\n", "")

    code, out, err = run(capsys, "classify-map", "--group", "c4", "--map", name, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "bijective": True, "images": images, "kind": "both", "source": "c4", "target": "c4",
    }


def test_generated_subgroup_without_map_names(capsys):
    code, out, err = run(capsys, "generated-subgroup", "--maps", ",")
    assert (code, out, err) == (2, "", "error: no map names given\n")


# ---------------------------------------------------------------------------
# maps


def test_index_of_a_map_that_is_not_a_symmetry():
    sym = symmetry_group(Q8)
    constant = classify_map(Q8, Q8, (Q8.identity,) * Q8.order)
    with pytest.raises(ValueError, match="map is not a symmetry of 'q8'"):
        sym.index_of_map(constant)


def test_index_of_a_map_on_another_group():
    # c4 and klein share their identity's images, but only c4's maps count.
    klein = catalog_group("klein")
    sym = symmetry_group(C4)
    assert sym.index_of_map(identity_map(C4)) == 0
    for m in (
        identity_map(klein),
        classify_map(C4, klein, tuple(range(4))),
        classify_map(klein, C4, tuple(range(4))),
    ):
        with pytest.raises(ValueError, match="map is not a symmetry of 'c4'"):
            sym.index_of_map(m)


def test_composing_with_a_map_of_neither_kind_checks_no_kind():
    # Swapping 1 and -1 breaks both laws, since 1 must be fixed.
    neither = classify_map(Q8, Q8, (1, 0, 2, 3, 4, 5, 6, 7))
    assert neither.kind == "neither"
    for outer, inner in ((neither, identity_map(Q8)), (identity_map(Q8), neither)):
        composed = compose_maps(outer, inner)
        assert composed.images == neither.images and composed.kind == "neither"
    # Swapping twice is the identity, a homomorphism.
    assert compose_maps(neither, neither).kind == "hom"


def test_groups_of_different_orders_are_not_isomorphic():
    c6 = catalog_group("c6")
    assert isomorphisms(C4, c6) == ()
    assert find_isomorphism(C4, c6) is None
    assert are_isomorphic(C4, c6) is False
