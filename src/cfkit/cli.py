"""Command-line surface.

Exit codes: 0 = the command succeeded / the checked property holds,
1 = the property was checked and found false, 2 = usage or input error.
JSON mode (--json) emits a single object with sorted keys, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import formula as cf
from .dsl import parse_formula, parse_group_file, render_formula
from .errors import InvalidAssignment, ToolkitError, UnknownKind, WorkLimitExceeded
from .groups import (
    FiniteGroup,
    catalog_group,
    generated_subgroup,
    standard_group,
    structure_flags,
)
from .morphisms import (
    GroupMap,
    classify_map,
    compose_maps,
    enumerate_symmetries,
    identity_map,
    inversion_map,
    is_outer,
    map_to_json,
    q8_symmetry,
    symmetry_group,
)

_CITED_SYMMETRY_ORDER = "twenty-four"

# cf-orbit builds one step record per step, so longer chains are refused.
MAX_ORBIT_STEPS = 10**6


def _load_group(args: argparse.Namespace) -> FiniteGroup:
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        return parse_group_file(text)
    return catalog_group(args.group)


def _load_variant(args: argparse.Namespace) -> cf.CFVariant:
    if getattr(args, "formula", None):
        return parse_formula(args.formula)
    return cf.variant_by_name(args.variant)


def _parse_assignment_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for chunk in text.split(","):
        role, sep, label = chunk.partition("=")
        role = role.strip()
        if not sep or not label:
            raise InvalidAssignment(f"bad assignment chunk {chunk!r}; use role=<label>")
        if role not in cf.ROLES:
            raise InvalidAssignment(f"unknown role {role!r}; roles are {', '.join(cf.ROLES)}")
        if role in pairs:
            raise InvalidAssignment(f"role {role!r} assigned twice")
        pairs[role] = label
    return pairs


def _parse_assignment(G: FiniteGroup, text: str, allow_repeats: bool) -> cf.RoleAssignment:
    pairs = _parse_assignment_pairs(text)
    values = {role: G.index_of(label) for role, label in pairs.items()}
    return cf.RoleAssignment(G, values, allow_repeats=allow_repeats)


def _named_map(G: FiniteGroup, name: str) -> GroupMap:
    if G == standard_group("q8"):
        return q8_symmetry(name)
    if name == "id":
        return identity_map(G)
    if name == "inv":
        return inversion_map(G)
    raise UnknownKind(
        f"map {name!r} is only defined on the canonical q8 group; "
        f"on {G.name!r} the known names are id, inv"
    )


def _map_summary(m: GroupMap) -> str:
    images = " ".join(
        f"{m.source.label(g)}->{m.target.label(v)}" for g, v in enumerate(m.images)
    )
    return f"[{m.kind}] {images}"


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (exit_code, json_payload, text_lines).


def _cmd_check_group(args) -> tuple[int, dict, list[str]]:
    G = _load_group(args)
    flags = structure_flags(G)
    payload = {
        "name": G.name,
        "order": flags.order,
        "identity": G.label(G.identity),
        "commutative": flags.commutative,
        "exponent_two": flags.exponent_two,
        "valid": True,
    }
    lines = [
        f"group {G.name!r}: valid (order {flags.order})",
        f"identity: {G.label(G.identity)}",
        f"commutative: {flags.commutative}",
        f"exponent two: {flags.exponent_two}",
    ]
    return 0, payload, lines


def _cmd_classify_map(args) -> tuple[int, dict, list[str]]:
    G = _load_group(args)
    if args.map:
        m = _named_map(G, args.map)
    else:
        labels = [part.strip() for part in args.images.split(",")]
        m = classify_map(G, G, tuple(G.index_of(label) for label in labels))
    payload = dict(map_to_json(m))
    payload["bijective"] = m.bijective
    lines = [f"kind: {m.kind}", f"bijective: {m.bijective}", _map_summary(m)]
    return 0, payload, lines


def _cmd_symmetries(args) -> tuple[int, dict, list[str]]:
    G = _load_group(args)
    maps = enumerate_symmetries(G, include_anti=args.anti)
    payload = {
        "group": G.name,
        "include_anti": args.anti,
        "count": len(maps),
        "maps": [map_to_json(m) for m in maps],
    }
    lines = [f"{len(maps)} symmetries of {G.name!r} (anti included: {args.anti})"]
    lines.extend(_map_summary(m) for m in maps)
    return 0, payload, lines


def _cmd_symmetry_group(args) -> tuple[int, dict, list[str]]:
    G = _load_group(args)
    sym = symmetry_group(G)
    n_auto = sum(1 for m in sym.maps if m.preserves_products)
    n_anti = sum(1 for m in sym.maps if m.kind == "anti")
    payload = {
        "group": G.name,
        "order": len(sym.maps),
        "automorphisms": n_auto,
        "anti_automorphisms": n_anti,
        "labels": list(sym.as_group.elements),
    }
    lines = [
        f"symmetry group of {G.name!r}: order {len(sym.maps)} "
        f"({n_auto} automorphisms, {n_anti} purely reversing)",
        f"composition-table labels: {' '.join(sym.as_group.elements)}",
    ]
    if G == standard_group("q8"):
        payload["cited_order"] = _CITED_SYMMETRY_ORDER
        lines.append(
            f"enumerated order {len(sym.maps)}; cited order: {_CITED_SYMMETRY_ORDER}"
        )
    return 0, payload, lines


def _cmd_generated_subgroup(args) -> tuple[int, dict, list[str]]:
    G = _load_group(args)
    names = [part.strip() for part in args.maps.split(",") if part.strip()]
    if not names:
        raise UnknownKind("no map names given")
    sym = symmetry_group(G)
    generators = [sym.index_of_map(_named_map(G, name)) for name in names]
    subgroup = generated_subgroup(sym.as_group, generators)
    labels = subgroup.labels()
    payload = {
        "group": G.name,
        "maps": names,
        "symmetry_group_order": len(sym.maps),
        "subgroup_order": len(subgroup.members),
        "elements": list(labels),
    }
    lines = [
        f"<{', '.join(names)}> inside the symmetry group of {G.name!r}: "
        f"order {len(subgroup.members)} of {len(sym.maps)}",
        f"elements: {' '.join(labels)}",
    ]
    return 0, payload, lines


def _cmd_cf_check(args) -> tuple[int, dict, list[str]]:
    G = _load_group(args)
    variant = _load_variant(args)
    assignment = _parse_assignment(G, args.assign, args.allow_repeats)
    found = cf.realizations(assignment, variant, allow_anti=args.anti)
    payload = {
        "group": G.name,
        "variant": variant.name,
        "formula": render_formula(variant),
        "assignment": cf.assignment_to_json(assignment),
        "allow_anti": args.anti,
        "count": len(found),
        "realizations": [map_to_json(m) for m in found],
    }
    lines = [
        f"{variant.name}: {render_formula(variant)}",
        f"assignment: {args.assign} on {G.name!r} (anti allowed: {args.anti})",
        f"realizations: {len(found)}",
    ]
    lines.extend(_map_summary(m) for m in found)
    if not found:
        lines.append("no symmetry realizes this assignment")
    return (0 if found else 1), payload, lines


def _cmd_cf_enumerate(args) -> tuple[int, dict, list[str]]:
    G = _load_group(args)
    variant = _load_variant(args)
    pins: dict[str, int] = {}
    if args.pin:
        pins = {
            role: G.index_of(label)
            for role, label in _parse_assignment_pairs(args.pin).items()
        }
    results = cf.enumerate_assignments(
        G,
        variant,
        allow_anti=args.anti,
        constraints=pins,
        allow_repeats=args.allow_repeats,
    )
    rows = [(assignment.labels(), count) for assignment, count in results]
    entries = [dict(sorted(labels.items()), count=count) for labels, count in rows]
    payload = {
        "group": G.name,
        "variant": variant.name,
        "allow_anti": args.anti,
        "pins": {role: G.label(v) for role, v in sorted(pins.items())},
        "total": len(results),
        "assignments": entries,
    }
    lines = [f"{len(results)} assignments admit a realization"]
    lines.extend(
        "x={x} y={y} a={a} b={b}: {count} realization(s)".format(**labels, count=count)
        for labels, count in rows
    )
    return (0 if results else 1), payload, lines


def _cmd_cf_orbit(args) -> tuple[int, dict, list[str]]:
    if args.steps > MAX_ORBIT_STEPS:
        raise WorkLimitExceeded(
            f"--steps {args.steps} is above the bound of {MAX_ORBIT_STEPS} steps"
        )
    variant = _load_variant(args)
    assignment = None
    if args.assign:
        if not (args.group or args.file):
            raise InvalidAssignment("--assign needs --group or --file")
        G = _load_group(args)
        assignment = _parse_assignment(G, args.assign, args.allow_repeats)
    result = cf.iterate_chain(variant, args.steps, assignment)
    formula = render_formula(variant)
    if args.json:
        payload = {"variant": variant.name, "formula": formula}
        payload.update(cf.chain_to_json(result))
        return 0, payload, []
    # Steps in the same orbit state share their side and values objects, so
    # each state's text is rendered once.
    texts: dict[tuple[int, int], str] = {}
    lines = [f"{variant.name}: {formula}"]
    for step in result.steps:
        key = (id(step.side), id(step.values))
        text = texts.get(key)
        if text is None:
            text = str(step.side)
            if step.values is not None:
                labels = ", ".join(
                    f"{role}={assignment.group.label(v)}"
                    for role, v in zip(cf.ROLES, step.values)
                )
                text = f"{text}   [{labels}]"
            texts[key] = text
        lines.append(f"step {step.step}: {text}")
    lines.append(f"symbolic period: {result.symbolic_period}")
    if assignment is not None:
        lines.append(f"element period: {result.element_period}")
    return 0, {}, lines


def _cmd_fraction_rule(args) -> tuple[int, dict, list[str]]:
    G = _load_group(args)
    if args.assign:
        assignment = _parse_assignment(G, args.assign, allow_repeats=True)
        checked = 1
    else:
        # Both sides reduce to x*y^-1*a^-1*b on a commutative group, so the
        # check at one assignment (it refuses other groups) decides all n^4.
        identity = dict.fromkeys(cf.ROLES, G.identity)
        assignment = cf.RoleAssignment(G, identity, allow_repeats=True)
        checked = G.order**4
    holds = cf.verify_fraction_rule(G, assignment)
    witness = None if holds else cf.assignment_to_json(assignment)
    payload = {"group": G.name, "checked": checked, "holds": holds, "witness": witness}
    lines = [f"fraction rule on {G.name!r}: {'holds' if holds else 'FAILS'} "
             f"({checked} assignment(s) checked)"]
    if witness is not None:
        lines.append(f"witness: {witness}")
    return (0 if holds else 1), payload, lines


def _cmd_demo(args) -> tuple[int, dict, list[str]]:
    q8 = standard_group("q8")
    lab = q8.label
    idx = q8.index_of

    def mul(a: str, b: str) -> str:
        return lab(q8.mul(idx(a), idx(b)))

    relations = {
        "i*j": ("k", mul("i", "j")),
        "j*i": ("-k", mul("j", "i")),
        "j*k": ("i", mul("j", "k")),
        "k*j": ("-i", mul("k", "j")),
        "k*i": ("j", mul("k", "i")),
        "i*k": ("-j", mul("i", "k")),
        "i*i": ("-1", mul("i", "i")),
        "j*j": ("-1", mul("j", "j")),
        "k*k": ("-1", mul("k", "k")),
        "-1*-1": ("1", mul("-1", "-1")),
    }
    axioms_ok = all(expected == got for expected, got in relations.values())

    lam = q8_symmetry("lambda")
    sig = q8_symmetry("sigma")
    tau = q8_symmetry("tau")
    lam_product_checks = {
        # reversing law spelled out on the two showcase products
        "lambda(i*j)": (lab(lam(q8.mul(idx("i"), idx("j")))), "j"),
        "lambda(j)*lambda(i)": (mul(lab(lam(idx("j"))), lab(lam(idx("i")))), "j"),
        "lambda(j*k)": (lab(lam(q8.mul(idx("j"), idx("k")))), "k"),
        "lambda(k)*lambda(j)": (mul(lab(lam(idx("k"))), lab(lam(idx("j")))), "k"),
    }
    lam_ok = (
        lam.kind == "anti"
        and lam.bijective
        and all(got == expected for got, expected in lam_product_checks.values())
    )
    sig_ok = sig.kind == "anti" and sig.bijective
    tau_order = 1
    power = tau
    identity_images = tuple(range(q8.order))
    while power.images != identity_images:
        power = compose_maps(tau, power)
        tau_order += 1
    tau_outer = is_outer(tau)
    tau_ok = tau.kind == "hom" and tau.bijective and tau_order == 3 and tau_outer

    composed = compose_maps(tau, sig)
    composition_ok = composed.images == lam.images

    classic_assignment = cf.RoleAssignment(
        q8, {"x": idx("1"), "a": idx("i"), "y": idx("j"), "b": idx("k")}
    )
    classic_found = cf.realizations(classic_assignment, cf.CLASSIC, allow_anti=True)
    classic_ok = any(m.images == lam.images for m in classic_found)

    dual_assignment = cf.RoleAssignment(
        q8, {"x": idx("i"), "y": idx("j"), "a": idx("k"), "b": idx("1")}
    )
    dual_found = cf.realizations(dual_assignment, cf.DUAL, allow_anti=True)
    dual_ok = any(m.images == sig.images for m in dual_found)

    maps = enumerate_symmetries(q8, include_anti=True)
    n_auto = sum(1 for m in maps if m.preserves_products)
    n_anti = sum(1 for m in maps if m.kind == "anti")
    census_ok = n_auto == n_anti and len(maps) == n_auto + n_anti

    ok = all(
        (axioms_ok, lam_ok, sig_ok, tau_ok, composition_ok, classic_ok, dual_ok, census_ok)
    )
    payload = {
        "q8_axioms": {
            "ok": axioms_ok,
            "relations": {key: got for key, (_, got) in relations.items()},
        },
        "lambda": {
            "ok": lam_ok,
            "kind": lam.kind,
            "images": map_to_json(lam)["images"],
            "checks": {key: got for key, (got, _) in lam_product_checks.items()},
        },
        "sigma": {"ok": sig_ok, "kind": sig.kind, "images": map_to_json(sig)["images"]},
        "tau": {"ok": tau_ok, "kind": tau.kind, "order": tau_order, "outer": tau_outer},
        "tau_after_sigma_equals_lambda": composition_ok,
        "classic_realization": {
            "ok": classic_ok,
            "assignment": cf.assignment_to_json(classic_assignment),
            "count": len(classic_found),
        },
        "dual_realization": {
            "ok": dual_ok,
            "assignment": cf.assignment_to_json(dual_assignment),
            "count": len(dual_found),
        },
        "symmetry_census": {
            "ok": census_ok,
            "enumerated_order": len(maps),
            "automorphisms": n_auto,
            "anti_automorphisms": n_anti,
            "cited_order": _CITED_SYMMETRY_ORDER,
        },
        "ok": ok,
    }
    lines = [
        f"q8 axioms and the ten product relations: {'ok' if axioms_ok else 'FAIL'}",
        f"lambda: kind={lam.kind}, lambda(i*j)={lam_product_checks['lambda(i*j)'][0]}, "
        f"lambda(j*k)={lam_product_checks['lambda(j*k)'][0]}: {'ok' if lam_ok else 'FAIL'}",
        f"sigma: kind={sig.kind}: {'ok' if sig_ok else 'FAIL'}",
        f"tau: kind={tau.kind}, order={tau_order}, outer={tau_outer}: "
        f"{'ok' if tau_ok else 'FAIL'}",
        f"tau o sigma = lambda: {'ok' if composition_ok else 'FAIL'}",
        f"classic formula at (x,a,y,b)=(1,i,j,k): {len(classic_found)} realization(s), "
        f"lambda among them: {'ok' if classic_ok else 'FAIL'}",
        f"dual formula at (x,y,a,b)=(i,j,k,1): {len(dual_found)} realization(s), "
        f"sigma among them: {'ok' if dual_ok else 'FAIL'}",
        f"symmetry census: enumerated order {len(maps)} "
        f"({n_auto} automorphisms + {n_anti} anti-automorphisms); "
        f"cited order: {_CITED_SYMMETRY_ORDER}",
    ]
    return (0 if ok else 1), payload, lines


# ---------------------------------------------------------------------------
# Parser wiring.


def _add_group_options(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--group", help="built-in group name (q8, klein, sign, c2..c16, ea2-1..ea2-4)")
    group.add_argument("--file", help="path to a JSON group file")


def _add_variant_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--variant", choices=sorted(cf.BUILTIN_VARIANTS), help="built-in variant")
    group.add_argument("--formula", help="formula string, e.g. 'F_x(a):F_y(b) => F_x(b):F_a^-1(y)'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Finite-group toolkit and canonical-formula analyzer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a single JSON object")
        p.set_defaults(handler=handler)
        return p

    p = command("check-group", _cmd_check_group, "validate a group table")
    _add_group_options(p)

    p = command("classify-map", _cmd_classify_map, "classify a self-map of a group")
    _add_group_options(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--images", help="comma-separated target labels in element order")
    mode.add_argument("--map", help="named map: id, inv, lambda, sigma, tau")

    p = command("symmetries", _cmd_symmetries, "enumerate automorphisms (and anti-automorphisms)")
    _add_group_options(p)
    p.add_argument("--anti", action="store_true", help="include anti-automorphisms")

    p = command("symmetry-group", _cmd_symmetry_group, "the full symmetry set as a group")
    _add_group_options(p)

    p = command(
        "generated-subgroup",
        _cmd_generated_subgroup,
        "order of the subgroup generated by named maps inside the symmetry group",
    )
    _add_group_options(p, required=False)
    p.set_defaults(group="q8")
    p.add_argument("--maps", required=True, help="comma-separated map names (lambda, sigma, tau, inv, id)")

    p = command("cf-check", _cmd_cf_check, "search realizations of a variant at an assignment")
    _add_group_options(p)
    _add_variant_options(p)
    p.add_argument("--assign", required=True, help="x=<label>,y=<label>,a=<label>,b=<label>")
    p.add_argument("--anti", action="store_true", help="allow anti-automorphism realizations")
    p.add_argument("--allow-repeats", action="store_true", help="relax role-value distinctness")

    p = command("cf-enumerate", _cmd_cf_enumerate, "enumerate realizable assignments")
    _add_group_options(p)
    _add_variant_options(p)
    p.add_argument("--pin", help="partial pins, e.g. x=1,y=j")
    p.add_argument("--anti", action="store_true", help="allow anti-automorphism realizations")
    p.add_argument("--allow-repeats", action="store_true", help="relax role-value distinctness")

    p = command("cf-orbit", _cmd_cf_orbit, "iterate a variant's rule symbolically (and on values)")
    _add_group_options(p, required=False)
    _add_variant_options(p)
    p.add_argument(
        "--steps", type=int, default=6,
        help=f"number of rewriting steps (at most {MAX_ORBIT_STEPS})",
    )
    p.add_argument("--assign", help="optional x=..,y=..,a=..,b=.. to track element values")
    p.add_argument("--allow-repeats", action="store_true", help="relax role-value distinctness")

    p = command("fraction-rule", _cmd_fraction_rule, "check the fraction identity on a commutative group")
    _add_group_options(p)
    p.add_argument("--assign", help="single assignment to check; omit to sweep all")

    command("demo", _cmd_demo, "replay the quaternion showcase end-to-end")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        code, payload, lines = args.handler(args)
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
