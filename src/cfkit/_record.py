"""Frozen record classes at a fraction of the import cost of `@dataclass`.

`frozen` gives a class the methods `@dataclass(frozen=True)` would: an
`__init__` over its annotated fields (class-level values are defaults) that
calls `__post_init__` if the class has one, tuple-based `__eq__` and
`__hash__`, a `Name(field=value, ...)` repr, `__match_args__`, and
`__setattr__`/`__delattr__` that raise AttributeError.  The hash is the
field-tuple hash, computed on first use and kept on the instance, so a cache
keyed on a group walks the group's table once; records that hold a dict
still raise TypeError.  The standard
decorator's module imports `inspect` and `ast`, which made up a large share
of the start-up time of every command-line call.
"""

from __future__ import annotations


def frozen(cls: type) -> type:
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    params = ", ".join(f"{n}=_dflt_{n}" if n in defaults else n for n in names)
    stores = "".join(f"  _setattr(self, {n!r}, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        stores += "  self.__post_init__()\n"
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    # Straight-line code per class, as `@dataclass` writes it: a generic
    # *args body or closures over the field names run measurably slower.
    source = (
        f"def __init__(self, {params}):\n{stores}"
        "def __eq__(self, other):\n"
        f"  if other.__class__ is self.__class__:\n    return ({mine}) == ({theirs})\n"
        "  return NotImplemented\n"
        "def __hash__(self):\n  try:\n    return self._hash\n  except AttributeError:\n    pass\n"
        f"  value = hash(({mine}))\n  _setattr(self, '_hash', value)\n  return value\n"
    )
    namespace = {"_setattr": object.__setattr__, **{f"_dflt_{n}": v for n, v in defaults.items()}}
    exec(source, namespace)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {name: namespace[name] for name in ("__init__", "__eq__", "__hash__")}
    methods.update(__repr__=__repr__, __setattr__=__setattr__, __delattr__=__delattr__)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__ = names
    return cls
