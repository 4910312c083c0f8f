"""The frozen record decorator against the standard library's dataclass.

Each record class is compared with a `dataclass(frozen=True)` twin built from
the same annotations, defaults and `__post_init__`: constructor signature,
repr, equality, hashing, immutability errors, validation and match args.
Every record hashes its fields once and keeps the value.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfkit import (
    CLASSIC,
    DUAL,
    ChainResult,
    CFVariant,
    ElementSubset,
    FiniteGroup,
    FormulaSide,
    FractionTransformation,
    FractionTransformationGroup,
    GroupMap,
    PartialMap,
    RoleAssignment,
    RoleTerm,
    StructureFlags,
    SymmetryGroup,
    build_group,
    catalog,
    fraction_transformation_group,
    identity_map,
    inversion_map,
    iterate_chain,
    symmetry_group,
)
from cfkit._record import frozen

Q8 = catalog()["q8"]
KLEIN = catalog()["klein"]
ASSIGNMENT = RoleAssignment(Q8, {"x": 0, "y": 2, "a": 4, "b": 6})


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__annotations__)


# Sample instances of every record class, as the library builds them.
SAMPLES = {
    FiniteGroup: [Q8, KLEIN],
    StructureFlags: [Q8.flags, KLEIN.flags],
    ElementSubset: [ElementSubset(Q8, frozenset({0, 1})), ElementSubset(KLEIN, frozenset())],
    FractionTransformation: list(fraction_transformation_group().action[:3]),
    FractionTransformationGroup: [fraction_transformation_group()],
    GroupMap: [identity_map(Q8), inversion_map(Q8), identity_map(KLEIN)],
    SymmetryGroup: [symmetry_group(KLEIN)],
    RoleTerm: [RoleTerm("x"), RoleTerm("a", True), RoleTerm("b", inverted=False)],
    FormulaSide: [CLASSIC.lhs, CLASSIC.rhs, DUAL.rhs],
    CFVariant: [CLASSIC, DUAL],
    RoleAssignment: [
        ASSIGNMENT,
        RoleAssignment(Q8, {"x": 0, "y": 0, "a": 1, "b": 1}, allow_repeats=True),
    ],
    PartialMap: [PartialMap(Q8, ((0, 0), (2, 4))), PartialMap(KLEIN, ())],
    ChainResult: [iterate_chain(CLASSIC, 3), iterate_chain(DUAL, 2, ASSIGNMENT)],
}

# Arguments each class's __post_init__ must reject.
INVALID = {
    ElementSubset: [(Q8, frozenset({8})), (Q8, frozenset({True}))],
    RoleTerm: [("z",), ("x^-1", True)],
    CFVariant: [
        ("broken", CLASSIC.lhs, CLASSIC.rhs, {"x": RoleTerm("x")}),
        ("broken", CLASSIC.lhs, DUAL.rhs, CLASSIC.rule),
    ],
    RoleAssignment: [
        (Q8, {"x": 0, "y": 1, "a": 2}),
        (Q8, {"x": 0, "y": 1, "a": 2, "b": 8}),
        (Q8, {"x": 0, "y": 0, "a": 1, "b": 2}),
    ],
    PartialMap: [(Q8, ((0, 1), (0, 2))), (Q8, ((0, 9),))],
}


def dataclass_twin(cls):
    namespace = {
        "__annotations__": dict(cls.__annotations__),
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
        **{name: cls.__dict__[name] for name in cls.__annotations__ if name in cls.__dict__},
    }
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _outcome(call):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "ok", call()
    except Exception as exc:  # compared across both implementations
        return type(exc), str(exc)


def test_every_record_class_is_sampled():
    assert len(SAMPLES) == 13
    assert all(len(samples) >= 1 for samples in SAMPLES.values())
    for cls in SAMPLES:
        assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = dataclass_twin(cls)
    names = tuple(cls.__annotations__)
    assert tuple(f.name for f in dataclasses.fields(twin)) == names
    assert cls.__match_args__ == twin.__match_args__ == names

    def params(c):
        return [
            (p.name, p.kind, p.default) for p in inspect.signature(c.__init__).parameters.values()
        ]

    assert params(cls) == params(twin)

    mine = [cls(*_fields(s)) for s in SAMPLES[cls]]
    theirs = [twin(*_fields(s)) for s in SAMPLES[cls]]
    by_keyword = [cls(**dict(zip(names, _fields(s)))) for s in SAMPLES[cls]]
    for sample, a, b, k in zip(SAMPLES[cls], mine, theirs, by_keyword):
        assert repr(a) == repr(b) == repr(sample) == repr(k)
        assert a == sample == k and b == twin(*_fields(sample))
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(b))
        # A record never equals its twin: each __eq__ declines the other class.
        assert a.__eq__(b) is NotImplemented and b.__eq__(a) is NotImplemented
        assert a.__eq__(object()) is NotImplemented and a != b
        for name in (*names, "not_a_field"):
            for action in (lambda r: setattr(r, name, 0), lambda r: delattr(r, name)):
                with pytest.raises(AttributeError) as mine_err:
                    action(a)
                with pytest.raises(AttributeError) as their_err:
                    action(b)
                assert str(mine_err.value) == str(their_err.value)
        assert _fields(a) == _fields(sample)
    for i, j in ((i, j) for i in range(len(mine)) for j in range(len(mine))):
        assert (mine[i] == mine[j]) == (theirs[i] == theirs[j]) == (i == j)


def test_records_holding_a_dict_are_unhashable():
    for record in (CLASSIC, ASSIGNMENT):
        twin = dataclass_twin(type(record))(*_fields(record))
        for value in (record, twin):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_hash_is_the_field_tuple_hash_and_is_kept(cls):
    for sample in SAMPLES[cls]:
        fresh = cls(*_fields(sample))
        want = _outcome(lambda: hash(_fields(sample)))
        for record in (sample, fresh, fresh):
            assert _outcome(lambda: hash(record)) == want


def test_every_record_hashes_its_fields_once():
    class Counted:
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return 7

    @frozen
    class Probe:
        value: Counted
        label: str = "p"

    probe = Probe(Counted())
    first = hash(probe)
    assert hash(probe) == first and Counted.calls == 1
    assert first == hash((probe.value, "p"))


@pytest.mark.parametrize("cls", list(INVALID), ids=lambda c: c.__name__)
def test_post_init_validation_still_runs(cls):
    twin = dataclass_twin(cls)
    for args in INVALID[cls]:
        mine, theirs = _outcome(lambda: cls(*args)), _outcome(lambda: twin(*args))
        assert mine[0] not in ("ok", TypeError)
        assert mine == theirs


def test_defaults_and_missing_arguments():
    assert RoleTerm("x") == RoleTerm("x", False) and RoleTerm.inverted is False
    assert iterate_chain(CLASSIC, 1).assignment is None
    twin = dataclass_twin(RoleTerm)
    for call in ((lambda c: c()), (lambda c: c("x", True, 1)), (lambda c: c(rol="x"))):
        mine, theirs = _outcome(lambda: call(RoleTerm)), _outcome(lambda: call(twin))
        assert mine[0] is theirs[0] is TypeError


def test_group_facts_stay_out_of_the_record_methods():
    twin = build_group(Q8.name, Q8.elements, Q8.table)
    facts = (Q8.inverses, Q8.orders, Q8.flags)
    assert {"inverses", "orders", "flags"} <= set(vars(Q8)) and "inverses" not in vars(twin)
    dc = dataclass_twin(FiniteGroup)(*_fields(Q8))
    assert Q8 == twin and hash(Q8) == hash(twin) == hash(dc) and repr(Q8) == repr(dc)
    assert facts == (twin.inverses, twin.orders, twin.flags)


def test_cli_import_skips_costly_modules():
    # -S keeps site hooks (.pth files) from importing these modules first.
    probe = (
        "import sys, cfkit.cli\n"
        "print(sorted({'dataclasses', 'importlib.resources', 'pathlib', 'inspect'}"
        " & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
