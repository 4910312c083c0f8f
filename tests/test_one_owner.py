"""Each shared format has one owner.

The (element, image) index is built with its symmetry list, and realization
queries look it up through one morphisms function.  Both chain renderers read
one rendering of each orbit state, and they match frozen copies of the
renderers that each kept their own state cache; the streamed `--json` chain
is `chain_to_json`'s.  The symmetry and isomorphism searches refuse a group
above their order bound before any other work, with one message, and a
cyclic group above the order bound is refused as any other table is.
`iterate_chain` refuses chains above the bound the command line uses, before
building any step.
Alongside: deeply nested group files, and the isomorphism names that no
other test touches.
"""

import json
import random
import tracemalloc

import pytest

import cfkit.morphisms
from cfkit import (
    BUILTIN_VARIANTS,
    CLASSIC,
    GroupTooLarge,
    ParseError,
    RoleAssignment,
    WorkLimitExceeded,
    are_isomorphic,
    build_group,
    catalog,
    chain_to_json,
    classify_map,
    enumerate_symmetries,
    induced_partial_map,
    isomorphisms,
    iterate_chain,
    parse_group_file,
    realizations,
    render_formula,
    standard_group,
    symmetry_group,
)
from cfkit import cli
from cfkit.formula import MAX_ORBIT_STEPS, ROLES, _chain_json_chunks
from cfkit.morphisms import _symmetries

CATALOG = list(catalog().values())
Q8 = catalog()["q8"]


def relabelled(G, seed, name):
    """G's table with its element indices permuted, as a fresh group."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    back = sorted(range(G.order), key=perm.__getitem__)
    table = [[perm[G.table[back[r]][back[c]]] for c in range(G.order)] for r in range(G.order)]
    return build_group(name, [G.elements[back[i]] for i in range(G.order)], table)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# the realization index comes with its list


def test_the_index_comes_with_the_list(monkeypatch):
    G = relabelled(Q8, 1, "q8-index-with-list")
    values = {"x": 0, "y": 2, "a": 4, "b": 6}
    enumerate_symmetries(G, include_anti=True)
    info = _symmetries.cache_info()
    listed = []
    enumerate_ = cfkit.morphisms.enumerate_symmetries

    def counted(*args, **kwargs):
        listed.append(args)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(cfkit.morphisms, "enumerate_symmetries", counted)
    assignment = RoleAssignment(G, values)
    for anti in (False, True):
        found = realizations(assignment, CLASSIC, allow_anti=anti)
        pairs = induced_partial_map(assignment, CLASSIC)
        want = tuple(m for m in enumerate_(G, include_anti=anti) if pairs.agrees_with(m))
        assert found == want
    assert listed == []
    assert _symmetries.cache_info().misses == info.misses


def test_a_cold_query_lists_through_the_public_name(monkeypatch):
    G = relabelled(Q8, 2, "q8-cold-query")
    listed = []
    enumerate_ = cfkit.morphisms.enumerate_symmetries

    def counted(*args, **kwargs):
        listed.append(kwargs["include_anti"])
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(cfkit.morphisms, "enumerate_symmetries", counted)
    assignment = RoleAssignment(G, {"x": 0, "y": 2, "a": 4, "b": 6})
    for anti in (False, False, True, True):
        realizations(assignment, CLASSIC, allow_anti=anti)
    assert listed == [False, True]


# ---------------------------------------------------------------------------
# both chain renderers read one rendering per state


def frozen_chain_to_json(result):
    """Frozen copy of chain_to_json when it kept its own state cache."""
    states = {}
    steps = []
    for s in result.steps:
        key = (id(s.side), id(s.values))
        state = states.get(key)
        if state is None:
            labels = None
            if s.values is not None:
                labels = tuple(map(result.assignment.group.label, s.values))
            state = states[key] = (str(s.side), labels)
        side, labels = state
        steps.append(
            {"step": s.step, "side": side, "tuple": None if labels is None else list(labels)}
        )
    return {
        "steps": steps,
        "symbolic_period": result.symbolic_period,
        "element_period": result.element_period,
    }


def frozen_orbit_lines(result, variant, formula, assignment):
    """Frozen copy of the text path of cf-orbit when it kept its own cache."""
    texts = {}
    lines = [f"{variant.name}: {formula}"]
    for step in result.steps:
        key = (id(step.side), id(step.values))
        text = texts.get(key)
        if text is None:
            text = str(step.side)
            if step.values is not None:
                labels = ", ".join(
                    f"{role}={assignment.group.label(v)}" for role, v in zip(ROLES, step.values)
                )
                text = f"{text}   [{labels}]"
            texts[key] = text
        lines.append(f"step {step.step}: {text}")
    lines.append(f"symbolic period: {result.symbolic_period}")
    if assignment is not None:
        lines.append(f"element period: {result.element_period}")
    return lines


@pytest.mark.parametrize("assign", [None, "x=1,a=i,y=j,b=k", "x=-1,a=k,y=1,b=-j"])
@pytest.mark.parametrize("name", list(BUILTIN_VARIANTS))
def test_cf_orbit_matches_the_frozen_renderers(capsys, name, assign):
    variant = BUILTIN_VARIANTS[name]
    formula = render_formula(variant)
    argv = ["cf-orbit", "--variant", name, "--steps", "3200"]
    assignment = None
    if assign is not None:
        argv += ["--group", "q8", "--assign", assign]
        assignment = cli._parse_assignment(Q8, assign, False)
    result = iterate_chain(variant, 3200, assignment)

    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "\n".join(frozen_orbit_lines(result, variant, formula, assignment)) + "\n"

    code, out, err = run(capsys, *argv, "--json")
    payload = {"variant": name, "formula": formula, **frozen_chain_to_json(result)}
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("assign", [None, "x=1,a=i,y=j,b=k"])
def test_the_streamed_chain_is_chain_to_json(assign):
    # Labels that spell the keys the writer splits at are escaped, so they
    # cannot be mistaken for them.
    labels = ['"step": 0', '"steps": []', "\n", "\u00fc"]
    C4 = catalog()["c4"]
    G = build_group("c4-keys", labels, C4.table)
    assignment = RoleAssignment(G, dict(zip(ROLES, range(4))))
    payload = {"variant": "classic", "formula": render_formula(CLASSIC)}
    encoder = cli._json_encoder()
    for result in (iterate_chain(CLASSIC, 9, assignment), iterate_chain(CLASSIC, 9)):
        streamed = "".join(_chain_json_chunks(result, payload, encoder))
        expected = {**payload, **chain_to_json(result)}
        assert streamed == json.dumps(expected, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# the size gates


@pytest.mark.parametrize(
    "search",
    [
        enumerate_symmetries,
        symmetry_group,
        lambda G: isomorphisms(G, G),
        lambda G: isomorphisms(Q8, G),
        lambda G: isomorphisms(G, catalog()["c3"]),
        lambda G: realizations(RoleAssignment(G, {"x": 1, "y": 2, "a": 3, "b": 4}), CLASSIC),
    ],
    ids=["symmetries", "symmetry-group", "self-isomorphisms", "into", "from", "realizations"],
)
def test_the_search_gate_names_the_group_before_any_other_work(search):
    c17 = build_group("c17", [str(r) for r in range(17)],
                      [[(r + c) % 17 for c in range(17)] for r in range(17)])
    with pytest.raises(GroupTooLarge) as exc:
        search(c17)
    assert str(exc.value) == (
        "group 'c17' has order 17; symmetry and isomorphism searches support orders up to 16"
    )
    assert "orders" not in vars(c17)


def test_a_cyclic_group_above_the_order_bound_is_refused_as_any_table_is():
    with pytest.raises(GroupTooLarge) as exc:
        standard_group("cyclic", 65)
    assert str(exc.value) == "order 65 exceeds the supported bound 64"


# ---------------------------------------------------------------------------
# the library's chain bound


def test_chain_bound_is_shared_with_the_command_line():
    assert cli.MAX_ORBIT_STEPS is MAX_ORBIT_STEPS == 10**6


def test_chain_above_the_bound_is_refused_before_any_work():
    assignment = RoleAssignment(Q8, {"x": 0, "y": 2, "a": 4, "b": 6})
    for args in ((CLASSIC, MAX_ORBIT_STEPS + 1), (CLASSIC, MAX_ORBIT_STEPS + 1, assignment)):
        tracemalloc.start()
        try:
            with pytest.raises(WorkLimitExceeded, match=f"above the bound of {MAX_ORBIT_STEPS}"):
                iterate_chain(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# deeply nested group files


@pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000], ids=["array", "object"])
def test_deeply_nested_group_file_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_group_file(text)


def test_deeply_nested_group_file_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run(capsys, "check-group", "--file", str(deep))
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: nested too deeply\n"


# ---------------------------------------------------------------------------
# isomorphisms, are_isomorphic and GroupMap.is_automorphism


@pytest.mark.parametrize("G", [G for G in CATALOG if G.order <= 8], ids=lambda G: G.name)
def test_self_isomorphisms_are_the_automorphisms(G):
    autos = enumerate_symmetries(G, include_anti=False)
    assert isomorphisms(G, G) == autos
    (first,) = isomorphisms(G, G, limit=1)
    assert first in autos


def test_isomorphisms_between_two_groups():
    klein, ea2 = catalog()["klein"], catalog()["ea2-2"]
    found = isomorphisms(klein, ea2)
    assert len(found) == 6 and len({m.images for m in found}) == 6
    assert all(m.kind == "both" and m.bijective for m in found)
    assert all((m.source, m.target) == (klein, ea2) for m in found)
    (first,) = isomorphisms(klein, ea2, limit=1)
    assert first in found
    c17 = standard_group("cyclic", 17)
    with pytest.raises(GroupTooLarge):
        isomorphisms(c17, c17)


def test_are_isomorphic():
    groups = catalog()
    assert are_isomorphic(groups["klein"], groups["ea2-2"])
    assert not are_isomorphic(groups["c4"], groups["klein"])


def test_is_automorphism():
    autos = enumerate_symmetries(Q8, include_anti=False)
    everything = enumerate_symmetries(Q8, include_anti=True)
    anti = [m for m in everything if m not in autos]
    assert len(autos) == len(anti) == 24
    assert all(m.is_automorphism() for m in autos)
    assert not any(m.is_automorphism() for m in anti)
    assert not classify_map(Q8, Q8, (Q8.identity,) * 8).is_automorphism()
    klein, ea2 = catalog()["klein"], catalog()["ea2-2"]
    between = isomorphisms(klein, ea2)[0]
    assert between.preserves_products and between.bijective
    assert not between.is_automorphism()
