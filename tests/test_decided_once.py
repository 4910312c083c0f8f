"""Facts that one piece of code decides, against references written here.

Covered: the fraction-rule sweep answered from its identity (against an n^4
loop over the table arithmetic), greedy generator choice, made once
per group as G.generators (against a frozen copy of its former closure loop),
map classification by one law loop (against a frozen copy with a separate
anti-law loop), duplicate labels in group files (left to build_group), and
the order bound (one check, made by group files before any table work).
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfkit.formula
from cfkit import (
    DuplicateLabel,
    GroupTooLarge,
    NonCommutativeGroup,
    RoleAssignment,
    build_group,
    catalog,
    classify_map,
    enumerate_symmetries,
    parse_group_file,
    render_group_file,
    standard_group,
    verify_fraction_rule,
)
from cfkit.cli import main

COMMUTATIVE_UP_TO_12 = [
    G for G in catalog().values() if G.order <= 12 and G.flags.commutative
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_group(tmp_path, G):
    path = tmp_path / f"{G.name}.json"
    path.write_text(render_group_file(G), encoding="utf-8")
    return str(path)


def s3():
    perms = sorted(itertools.permutations(range(3)))
    labels = ["".join(map(str, p)) for p in perms]
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return build_group("s3", labels, table)


# ---------------------------------------------------------------------------
# fraction rule


def reference_sweep(G):
    """The fraction-rule payload from an n^4 loop over the table alone."""
    t, n = G.table, G.order
    e = next(g for g in range(n) if all(t[g][h] == h for h in range(n)))
    inv = [next(h for h in range(n) if t[g][h] == e) for g in range(n)]
    checked = 0
    for x, y, a, b in itertools.product(range(n), repeat=4):
        checked += 1
        lhs = t[t[x][inv[a]]][inv[t[y][inv[b]]]]  # (x/a) / (y/b)
        rhs = t[t[x][inv[y]]][inv[t[inv[b]][a]]]  # (x/y) / (b^-1/a^-1)
        if lhs != rhs:
            witness = {"group": G.name}
            witness.update(zip("xyab", (G.label(v) for v in (x, y, a, b))))
            return {"group": G.name, "checked": checked, "holds": False, "witness": witness}
    return {"group": G.name, "checked": checked, "holds": True, "witness": None}


@pytest.mark.parametrize("G", COMMUTATIVE_UP_TO_12, ids=lambda G: G.name)
def test_fraction_sweep_matches_brute_force(G, capsys):
    code, out, err = run(capsys, "fraction-rule", "--group", G.name, "--json")
    expected = reference_sweep(G)
    assert (code, err) == (0 if expected["holds"] else 1, "")
    assert json.loads(out) == expected


def test_the_commutative_catalog_up_to_12_is_covered():
    names = {G.name for G in COMMUTATIVE_UP_TO_12}
    assert names == {"sign", "klein", "ea2-1", "ea2-2", "ea2-3"} | {f"c{m}" for m in range(2, 13)}


def non_commutative_message(G):
    assignment = RoleAssignment(G, dict.fromkeys("xyab", G.identity), allow_repeats=True)
    with pytest.raises(NonCommutativeGroup) as info:
        verify_fraction_rule(G, assignment)
    return f"error: {info.value}\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_fraction_sweep_refuses_non_commutative_groups(json_flag, tmp_path, capsys):
    q8 = standard_group("q8")
    code, out, err = run(capsys, "fraction-rule", "--group", "q8", *json_flag)
    assert (code, out, err) == (2, "", non_commutative_message(q8))
    S3 = s3()
    path = write_group(tmp_path, S3)
    code, out, err = run(capsys, "fraction-rule", "--file", path, *json_flag)
    assert (code, out, err) == (2, "", non_commutative_message(S3))
    assert "'s3' is not commutative" in err


@pytest.fixture
def counted_verify(monkeypatch):
    calls = []
    real = cfkit.formula.verify_fraction_rule

    def counting(G, assignment):
        calls.append(assignment)
        return real(G, assignment)

    monkeypatch.setattr(cfkit.formula, "verify_fraction_rule", counting)
    return calls


def test_fraction_sweep_on_order_64_makes_one_check(counted_verify, tmp_path, capsys):
    path = write_group(tmp_path, standard_group("cyclic", 64))
    code, out, err = run(capsys, "fraction-rule", "--file", path, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"group": "c64", "checked": 16777216, "holds": True, "witness": None}
    assert len(counted_verify) <= 1
    counted_verify.clear()
    code, out, _ = run(capsys, "fraction-rule", "--file", path)
    assert code == 0 and "(16777216 assignment(s) checked)" in out
    assert len(counted_verify) <= 1


@pytest.mark.parametrize("name", sorted(catalog()))
def test_fraction_sweep_makes_at_most_one_check(name, counted_verify, capsys):
    run(capsys, "fraction-rule", "--group", name)
    assert len(counted_verify) <= 1


# ---------------------------------------------------------------------------
# generator choice


def frozen_greedy_generators(G):
    """_greedy_generators as it was with its own closure loop."""
    gens = []
    closure = {G.identity}
    for g in range(G.order):
        if g in closure:
            continue
        gens.append(g)
        frontier = [G.identity]
        closure = {G.identity}
        while frontier:
            fresh = []
            for u in frontier:
                for s in gens:
                    for w in (G.mul(u, s), G.mul(s, u)):
                        if w not in closure:
                            closure.add(w)
                            fresh.append(w)
            frontier = fresh
        if len(closure) == G.order:
            break
    return gens


def relabelled(G, seed):
    """A copy of G with its elements numbered in a shuffled order."""
    order = list(range(G.order))
    random.Random(seed).shuffle(order)
    position = {g: i for i, g in enumerate(order)}
    table = [[position[G.mul(a, b)] for b in order] for a in order]
    return build_group(G.name, [G.label(g) for g in order], table)


@pytest.mark.parametrize("G", list(catalog().values()), ids=lambda G: G.name)
def test_greedy_generators_match_the_frozen_loop(G):
    groups = [G] + [relabelled(G, f"{G.name}-{k}") for k in range(3)]
    for H in groups:
        assert list(H.generators) == frozen_greedy_generators(H)


# ---------------------------------------------------------------------------
# map classification

SMALL = [G for G in catalog().values() if G.order <= 8]


def frozen_classify(G, H, images):
    """classify_map's kind and bijectivity as it decided them with two law loops."""
    imgs = tuple(images)
    hom = all(
        imgs[G.table[a][b]] == H.table[imgs[a]][imgs[b]]
        for a in range(G.order)
        for b in range(G.order)
    )
    anti = all(
        imgs[G.table[a][b]] == H.table[imgs[b]][imgs[a]]
        for a in range(G.order)
        for b in range(G.order)
    )
    if hom and anti:
        kind = "both"
    elif hom:
        kind = "hom"
    elif anti:
        kind = "anti"
    else:
        kind = "neither"
    return kind, G.order == H.order and len(set(imgs)) == G.order


def same_classification(G, H, images):
    m = classify_map(G, H, images)
    assert (m.kind, m.bijective) == frozen_classify(G, H, images)
    return m.kind


@pytest.mark.parametrize("G", SMALL, ids=lambda G: G.name)
def test_one_law_loop_classifies_every_symmetry_as_before(G):
    kinds = {same_classification(G, G, m.images) for m in enumerate_symmetries(G)}
    assert kinds == ({"both"} if G.flags.commutative else {"hom", "anti"})


def test_one_law_loop_classifies_maps_between_groups_as_before():
    kinds = set()
    for G in (G for G in SMALL if G.order <= 3):
        for H in SMALL:
            for images in itertools.product(range(H.order), repeat=G.order):
                kinds.add(same_classification(G, H, images))
    # Every source here is commutative, so a map that keeps one law keeps both.
    assert kinds == {"both", "neither"}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_law_loop_classifies_drawn_maps_as_before(data):
    G = data.draw(st.sampled_from(SMALL), label="G")
    H = data.draw(st.sampled_from([G, *SMALL]), label="H")
    image = st.integers(0, H.order - 1)
    images = data.draw(st.lists(image, min_size=G.order, max_size=G.order), label="images")
    same_classification(G, H, images)


# ---------------------------------------------------------------------------
# group files


@pytest.mark.parametrize(
    "labels, message",
    [
        (["e", "e"], "label 'e' used for elements 0 and 1"),
        (["e", "a", "e"], "label 'e' used for elements 0 and 2"),
        (["1", "a", "b", "a"], "label 'a' used for elements 1 and 3"),
        (["1", "a", "a", "a"], "label 'a' used for elements 1 and 2"),
    ],
)
def test_duplicate_label_in_a_file_is_build_groups_error(labels, message):
    n = len(labels)
    table = [[(r + c) % n for c in range(n)] for r in range(n)]
    with pytest.raises(DuplicateLabel) as from_build:
        build_group("dup", labels, table)
    payload = {
        "name": "dup",
        "elements": labels,
        "identity": labels[0],
        "table": [[labels[v] for v in row] for row in table],
    }
    with pytest.raises(DuplicateLabel) as from_file:
        parse_group_file(json.dumps(payload))
    assert type(from_file.value) is type(from_build.value)
    assert str(from_file.value) == str(from_build.value) == message


def cyclic_file(n):
    labels = [f"g{i}" for i in range(n)]
    table = [[labels[(r + c) % n] for c in range(n)] for r in range(n)]
    return {"name": f"c{n}", "elements": labels, "identity": labels[0], "table": table}


def test_oversized_group_file_is_refused_before_its_table():
    payload = cyclic_file(65)
    payload["table"][64][64] = "not-a-label"
    with pytest.raises(GroupTooLarge) as from_file:
        parse_group_file(json.dumps(payload))
    with pytest.raises(GroupTooLarge) as from_build:
        build_group("c65", payload["elements"], [[0] * 65] * 65)
    assert str(from_file.value) == str(from_build.value)
    assert str(from_file.value) == "order 65 exceeds the supported bound 64"


def test_thousand_element_group_file_exits_2(tmp_path, capsys):
    path = tmp_path / "c1000.json"
    path.write_text(json.dumps(cyclic_file(1000)), encoding="utf-8")
    code, out, err = run(capsys, "check-group", "--file", str(path))
    assert (code, out, err) == (2, "", "error: order 1000 exceeds the supported bound 64\n")
