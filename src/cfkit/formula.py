"""Role-transformation formula schemas over group-valued assignments.

A formula side is the formal ratio F_f(a):F_g(b) built from four role terms;
a variant rewrites roles through a fixed substitution.  The F symbol itself
carries no algebra: everything checkable happens once roles take values in a
finite group.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, cycle, repeat
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from ._record import frozen
from .errors import (
    ConflictingPairs,
    InconsistentRule,
    InvalidAssignment,
    NonCommutativeGroup,
    UnknownKind,
    UnsatisfiableConstraint,
    WorkLimitExceeded,
)
from .groups import MAX_ORBIT_STEPS, FiniteGroup
from .morphisms import GroupMap, _symmetries_agreeing, enumerate_symmetries

ROLES = ("x", "y", "a", "b")
_ROLE_SET = frozenset(ROLES)


@frozen
class RoleTerm:
    """One of the roles x, y, a, b, optionally marked as inverted."""

    role: str
    inverted: bool = False

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")

    def __str__(self) -> str:
        return self.role + ("^-1" if self.inverted else "")


@frozen
class FormulaSide:
    """The pair F_first[0](first[1]) : F_second[0](second[1])."""

    first: tuple[RoleTerm, RoleTerm]
    second: tuple[RoleTerm, RoleTerm]

    def terms(self) -> tuple[RoleTerm, RoleTerm, RoleTerm, RoleTerm]:
        return (self.first[0], self.first[1], self.second[0], self.second[1])

    def __str__(self) -> str:
        f1, a1 = self.first
        f2, a2 = self.second
        return f"F_{f1}({a1}):F_{f2}({a2})"


Rule = Mapping[str, RoleTerm]


def apply_rule(rule: Rule, term: RoleTerm) -> RoleTerm:
    """Rewrite a term; inversion marks compose and double inversion cancels."""
    image = rule[term.role]
    return RoleTerm(image.role, image.inverted ^ term.inverted)


def rewrite_side(rule: Rule, side: FormulaSide) -> FormulaSide:
    f1, a1 = side.first
    f2, a2 = side.second
    return FormulaSide(
        (apply_rule(rule, f1), apply_rule(rule, a1)),
        (apply_rule(rule, f2), apply_rule(rule, a2)),
    )


# Reads some role terms' values out of a (x, y, a, b, x^-1, y^-1, a^-1, b^-1) tuple.
_Pick = Callable[[tuple[int, ...]], tuple[int, ...]]


def _picker(terms) -> _Pick:
    return itemgetter(*(ROLES.index(t.role) + len(ROLES) * t.inverted for t in terms))


def _with_inverses(G: FiniteGroup, values: tuple[int, ...]) -> tuple[int, ...]:
    inv = G.inverses
    x, y, a, b = values
    return (x, y, a, b, inv[x], inv[y], inv[a], inv[b])


class _SymbolicOrbit(NamedTuple):
    """The chain's symbolic states from step 0 up to, not including, the
    first repeat; step len(sides) equals step `cycle_start`.

    picks[t] reads step t's (x, y, a, b) values from the start values
    followed by their inverses.
    """

    sides: tuple[FormulaSide, ...]
    picks: tuple[_Pick, ...]
    cycle_start: int


@frozen
class CFVariant:
    """A formula schema: left side, right side, and the substitution between them."""

    name: str
    lhs: FormulaSide
    rhs: FormulaSide
    rule: dict[str, RoleTerm]

    def __post_init__(self) -> None:
        if set(self.rule) != set(ROLES):
            raise InconsistentRule(f"rule must cover exactly the roles {ROLES}")
        if rewrite_side(self.rule, self.lhs) != self.rhs:
            raise InconsistentRule("right side is not the rule-image of the left side")

    @cached_property
    def _rule_pick(self) -> _Pick:
        return _picker(self.rule[role] for role in ROLES)

    @cached_property
    def _orbit(self) -> _SymbolicOrbit:
        # A substitution is one of at most 8^4 values, so a repeat always comes.
        sides = [self.lhs]
        substs = [tuple(RoleTerm(role) for role in ROLES)]
        seen = {substs[0]: 0}
        while True:
            nxt = tuple(apply_rule(self.rule, term) for term in substs[-1])
            if nxt in seen:
                picks = tuple(_picker(subst) for subst in substs)
                return _SymbolicOrbit(tuple(sides), picks, seen[nxt])
            seen[nxt] = len(substs)
            substs.append(nxt)
            sides.append(rewrite_side(self.rule, sides[-1]))


def _builtin(name: str, rule: dict[str, RoleTerm]) -> CFVariant:
    lhs = FormulaSide((RoleTerm("x"), RoleTerm("a")), (RoleTerm("y"), RoleTerm("b")))
    return CFVariant(name, lhs, rewrite_side(rule, lhs), rule)


CLASSIC = _builtin(
    "classic",
    {"x": RoleTerm("x"), "a": RoleTerm("b"), "y": RoleTerm("a", True), "b": RoleTerm("y")},
)
DUAL = _builtin(
    "dual",
    {"x": RoleTerm("y"), "a": RoleTerm("x"), "y": RoleTerm("a", True), "b": RoleTerm("b")},
)
MOSKO = _builtin(
    "mosko",
    {"x": RoleTerm("x"), "y": RoleTerm("y"), "a": RoleTerm("b"), "b": RoleTerm("a")},
)

BUILTIN_VARIANTS = {"classic": CLASSIC, "dual": DUAL, "mosko": MOSKO}


def variant_by_name(name: str) -> CFVariant:
    try:
        return BUILTIN_VARIANTS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_VARIANTS))
        raise UnknownKind(f"unknown variant {name!r} (built-ins: {known})") from None


# ---------------------------------------------------------------------------
# Assignments and induced transformations.


@frozen
class RoleAssignment:
    """Element values for the four roles.

    Values must be pairwise distinct unless allow_repeats is set.
    """

    group: FiniteGroup
    values: dict[str, int]
    allow_repeats: bool = False

    def __post_init__(self) -> None:
        values = dict(self.values)
        object.__setattr__(self, "values", values)
        if values.keys() != _ROLE_SET:
            raise InvalidAssignment(f"assignment must cover exactly the roles {ROLES}")
        # check_index decides, and words, every rejection; plain in-range ints
        # skip the call.
        n = self.group.order
        for role in ROLES:
            v = values[role]
            if type(v) is not int or not 0 <= v < n:
                self.group.check_index(v)
        if not self.allow_repeats and len(set(values.values())) != len(ROLES):
            raise InvalidAssignment(
                "role values must be pairwise distinct (set allow_repeats to relax)"
            )

    def labels(self) -> dict[str, str]:
        return {role: self.group.label(self.values[role]) for role in ROLES}


def evaluate_role_term(assignment: RoleAssignment, term: RoleTerm) -> int:
    """The assigned element, or its group inverse for an inverted term."""
    value = assignment.values[term.role]
    return assignment.group.inverses[value] if term.inverted else value


@frozen
class PartialMap:
    """A functional set of (source, target) pairs on part of a group."""

    group: FiniteGroup
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: dict[int, int] = {}
        for src, dst in self.pairs:
            self.group.check_index(src)
            self.group.check_index(dst)
            if src in seen and seen[src] != dst:
                raise ConflictingPairs(
                    f"element {self.group.label(src)!r} mapped to both "
                    f"{self.group.label(seen[src])!r} and {self.group.label(dst)!r}"
                )
            seen[src] = dst

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def agrees_with(self, m: GroupMap) -> bool:
        return all(m.images[src] == dst for src, dst in self.pairs)


_role_values = itemgetter(*ROLES)


def _induced_pairs(
    assignment: RoleAssignment, variant: CFVariant
) -> tuple[tuple[int, int], ...]:
    """The (source, target) pairs of the induced map, sorted by source.

    The assignment's values are already valid indices, so nothing is checked
    again here; roles that share a value must send it to the same element.
    """
    G = assignment.group
    values = _role_values(assignment.values)
    mapping: dict[int, int] = {}
    targets = variant._rule_pick(_with_inverses(G, values))
    for role, src, dst in zip(ROLES, values, targets):
        if mapping.setdefault(src, dst) != dst:
            raise ConflictingPairs(
                f"roles {ROLES[values.index(src)]!r} and {role!r} share element "
                f"{G.label(src)!r} but are sent to {G.label(mapping[src])!r} and {G.label(dst)!r}"
            )
    return tuple(sorted(mapping.items()))


def induced_partial_map(assignment: RoleAssignment, variant: CFVariant) -> PartialMap:
    """The transformation each role's value undergoes under the variant's rule.

    Roles that share a value must send it to the same element; otherwise
    ConflictingPairs names the first two that disagree.
    """
    return PartialMap(assignment.group, _induced_pairs(assignment, variant))


def realizations(
    assignment: RoleAssignment, variant: CFVariant, allow_anti: bool = True
) -> tuple[GroupMap, ...]:
    """Symmetries whose restriction to the assigned elements matches the rule.

    They are looked up in an (element, image) index of the cached symmetry
    list, in the list's order.
    """
    return _symmetries_agreeing(assignment.group, _induced_pairs(assignment, variant), allow_anti)


def enumerate_assignments(
    G: FiniteGroup,
    variant: CFVariant,
    allow_anti: bool = True,
    constraints: Mapping[str, int] | None = None,
    allow_repeats: bool = False,
) -> tuple[tuple[RoleAssignment, int], ...]:
    """All assignments with at least one realization, with their counts.

    Output is lexicographic over (x, y, a, b) value indices.  Pins fix roles
    to elements; under the relaxed-distinctness policy, assignments whose
    induced pairs conflict are skipped rather than reported.
    """
    pins = dict(constraints or {})
    for role, value in pins.items():
        if role not in ROLES:
            raise UnsatisfiableConstraint(f"cannot pin unknown role {role!r}")
        G.check_index(value)
    if not allow_repeats and len(set(pins.values())) != len(pins):
        raise UnsatisfiableConstraint("pinned roles collide but values must be distinct")

    # f realizes values v when f(v[i]) = g_i(v[succ[i]]) for every role i,
    # where rule[ROLES[i]] is the term g_i(ROLES[succ[i]]).  Each g_i is the
    # identity or inversion, both involutions, so choosing v[i] fixes
    # v[succ[i]] = g_i(f(v[i])).  Per symmetry, a depth-first walk gives
    # each unset role its domain values and follows succ from each choice
    # until it meets a set role, whose value must agree.  Pins and
    # distinctness are checked at every placement.  No map realizes an
    # assignment whose induced pairs conflict, so the walk never yields one.
    inv = G.inverses
    succ = tuple(ROLES.index(variant.rule[role].role) for role in ROLES)
    flip = tuple(variant.rule[role].inverted for role in ROLES)
    domains = tuple((pins[role],) if role in pins else range(G.order) for role in ROLES)
    values: list[Optional[int]] = [None] * len(ROLES)
    counts: dict[tuple[int, ...], int] = {}

    def walk(images: tuple[int, ...], k: int) -> None:
        while k < len(ROLES) and values[k] is not None:
            k += 1
        if k == len(ROLES):
            key = tuple(values)
            counts[key] = counts.get(key, 0) + 1
            return
        for choice in domains[k]:
            v, i, placed = choice, k, []
            while values[i] is None:
                if v not in domains[i] or (not allow_repeats and v in values):
                    break
                values[i] = v
                placed.append(i)
                v = inv[images[v]] if flip[i] else images[v]
                i = succ[i]
            else:
                if values[i] == v:
                    walk(images, k + 1)
            for i in placed:
                values[i] = None

    for m in enumerate_symmetries(G, include_anti=allow_anti):
        walk(m.images, 0)
    return tuple(
        (RoleAssignment(G, dict(zip(ROLES, combo)), allow_repeats=allow_repeats), counts[combo])
        for combo in sorted(counts)
    )


# ---------------------------------------------------------------------------
# Chains: repeated application of a variant's rule.


class ChainStep(NamedTuple):
    """One state of the chain; values follow the role order x, y, a, b."""

    step: int
    side: FormulaSide
    values: Optional[tuple[int, int, int, int]] = None


@frozen
class ChainResult:
    steps: tuple[ChainStep, ...]
    symbolic_period: Optional[int]
    element_period: Optional[int]
    assignment: Optional[RoleAssignment] = None


def iterate_chain(
    variant: CFVariant, steps: int, assignment: RoleAssignment | None = None
) -> ChainResult:
    """Apply the variant's rule repeatedly, starting from its left side.

    Step t is the left side rewritten t times.  With an assignment, each step
    also carries the concrete (x, y, a, b) element values, and the least
    period of that value sequence is reported alongside the symbolic one.
    More than MAX_ORBIT_STEPS steps raise WorkLimitExceeded before any work.
    """
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > MAX_ORBIT_STEPS:
        raise WorkLimitExceeded(f"steps {steps} is above the bound of {MAX_ORBIT_STEPS} steps")
    sides, picks, start = variant._orbit
    length = len(sides)
    # The values at a step are a function of its substitution, so they repeat
    # with it: if step 0's values ever recur, they do so by step `length`,
    # whose state is `start`.
    values: list[Optional[tuple[int, int, int, int]]] = [None] * length
    element_period = None
    if assignment is not None:
        both = _with_inverses(assignment.group, _role_values(assignment.values))
        values = [pick(both) for pick in picks]
        first = values[0]
        element_period = next(
            (t for t in range(1, length) if values[t] == first),
            length if values[start] == first else None,
        )
    # Step t is orbit state t up to `length`, then cycles through the states
    # from `start` on.  tuple.__new__ makes each ChainStep as its own __new__
    # would, without a Python-level call per step.
    chain_steps = tuple(
        map(
            tuple.__new__,
            repeat(ChainStep),
            zip(
                range(steps + 1),
                chain(sides, cycle(sides[start:])),
                chain(values, cycle(values[start:])),
            ),
        )
    )
    symbolic_period = length if start == 0 else None
    return ChainResult(chain_steps, symbolic_period, element_period, assignment)


# ---------------------------------------------------------------------------
# The two degenerate readings.


def verify_fraction_rule(G: FiniteGroup, assignment: RoleAssignment) -> bool:
    """Check (x*a^-1)*(y*b^-1)^-1 = (x*y^-1)*(b^-1*a)^-1 at the assignment.

    This is the fraction identity (x/a)/(y/b) = (x/y)/(b^-1/a^-1) read with
    ratios in G; it only makes sense when G is commutative.
    """
    if assignment.group is not G and assignment.group != G:
        raise InvalidAssignment("assignment belongs to a different group")
    if not G.flags.commutative:
        raise NonCommutativeGroup(
            f"group {G.name!r} is not commutative; the ratio reading is undefined"
        )
    x, y, a, b = _role_values(assignment.values)
    t, inv = G.table, G.inverses
    lhs = t[t[x][inv[a]]][inv[t[y][inv[b]]]]
    rhs = t[t[x][inv[y]]][inv[t[inv[b]][a]]]
    return lhs == rhs


def mosko_degeneration_check(G: FiniteGroup) -> bool:
    """True when inversion is invisible: every element is its own inverse."""
    return all(h == g for g, h in enumerate(G.inverses))


# ---------------------------------------------------------------------------
# Wire forms.


def assignment_to_json(assignment: RoleAssignment) -> dict:
    out: dict[str, str] = {"group": assignment.group.name}
    out.update(assignment.labels())
    return out


def _rendered_steps(result: ChainResult, render: Callable):
    """Each step number with render(side text, value labels) for its orbit
    state; labels is a list, or None without an assignment.  The steps of a
    state share their side and values objects, so render runs once per state
    and its steps share the result."""
    states: dict[tuple[int, int], object] = {}
    for s in result.steps:
        key = (id(s.side), id(s.values))
        state = states.get(key)
        if state is None:
            labels = None if s.values is None else list(map(result.assignment.group.label, s.values))
            state = states[key] = render(str(s.side), labels)
        yield s.step, state


def _step_json(t: int, side: str, labels: Optional[list[str]]) -> dict:
    return {"step": t, "side": side, "tuple": labels}


def _periods_json(result: ChainResult) -> dict:
    return {"symbolic_period": result.symbolic_period, "element_period": result.element_period}


def chain_to_json(result: ChainResult) -> dict:
    """Wire form of a chain; the steps of one orbit state share their
    "tuple" list."""
    steps = [_step_json(t, *state) for t, state in _rendered_steps(result, lambda *state: state)]
    return {"steps": steps, **_periods_json(result)}


def _chain_json_chunks(result: ChainResult, payload: dict, encoder) -> Iterator[str]:
    """encoder's document of payload plus chain_to_json(result), in chunks.

    The steps of one orbit state differ only in their number, so each state
    is encoded once, as the text on either side of that number.  The "steps"
    and "step" keys are found by their unescaped quotes, which no encoded
    string holds.
    """

    def state(side: str, labels) -> tuple[str, str]:
        # A step object sits two levels, four spaces, deep in the document.
        text = encoder.encode(_step_json(0, side, labels))
        before, _, after = text.replace("\n", "\n    ").partition('"step": 0')
        return "    " + before + '"step": ', after

    document = encoder.encode({**payload, "steps": [], **_periods_json(result)})
    head, _, tail = document.partition('"steps": []')
    yield head + '"steps": ['
    separator = "\n"
    for t, (before, after) in _rendered_steps(result, state):
        yield f"{separator}{before}{t}{after}"
        separator = ",\n"
    yield "\n  ]" + tail
