"""The one class decorator behind every syntax node and record.

``@frozen`` takes a class whose body declares its fields as annotations and
builds it again, once, as a slotted class with the methods of a frozen
record. ``__init__``, ``==`` and ``hash`` are compiled from one source
generated per class, so they run no loop over the fields:

* ``__init__`` writes each field through its slot's member descriptor,
  looked up once, not through ``object.__setattr__``;
* ``==`` holds between two instances of one class whose compared fields
  are equal as tuples, and ``hash`` is the hash of that tuple;
* ``repr`` is ``Name(field=value, ...)`` over the compared fields;
* assigning or deleting an attribute raises ``FrozenInstanceError``, an
  ``AttributeError``;
* ``copy`` and ``pickle`` go through ``__reduce__``: the constructor's
  arguments, then the filled caches.

A field declared with ``field`` stays out of ``==``, ``hash`` and
``repr``. With ``init=False`` it is no argument of the constructor either:
it is a cache, which ``__init__`` sets to its default or, if it has none,
leaves empty until a reader fills it. A class's fields follow those of its
``@frozen`` base; ``fields`` lists them in that order.
"""

from __future__ import annotations

MISSING = object()  # the default of a field that has none


class FrozenInstanceError(AttributeError):
    """An attribute of a frozen instance was assigned or deleted."""


class Field:
    __slots__ = ("name", "default", "init", "compare")

    def __init__(self, name: str, default, init: bool, compare: bool):
        self.name = name
        self.default = default
        self.init = init
        self.compare = compare


def field(*, default=MISSING, init: bool = True) -> Field:
    """A field kept out of ``==``, ``hash`` and ``repr``; with
    ``init=False``, a cache."""
    return Field("", default, init, False)


def fields(obj) -> tuple[Field, ...]:
    """The fields of a ``@frozen`` class or instance, in order."""
    return obj.__frozen_fields__


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self):
    fs = self.__frozen_fields__
    return (self.__class__, tuple([getattr(self, f.name) for f in fs if f.init]),
            {f.name: getattr(self, f.name) for f in fs
             if not f.init and hasattr(self, f.name)})


def _repr(self):
    shown = (f"{f.name}={getattr(self, f.name)!r}"
             for f in self.__frozen_fields__ if f.compare)
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _setstate(self, state):
    for name, value in state.items():
        object.__setattr__(self, name, value)


def frozen(cls):
    body = dict(cls.__dict__)
    own = []
    for name in body.get("__annotations__", {}):
        spec = body.pop(name, MISSING)
        own.append(Field(name, spec.default, spec.init, False) if spec.__class__ is Field
                   else Field(name, spec, True, True))
    every = getattr(cls, "__frozen_fields__", ()) + tuple(own)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body.update(__slots__=tuple(f.name for f in own), __qualname__=cls.__qualname__,
                __frozen_fields__=every, __setattr__=_setattr, __delattr__=_delattr,
                __reduce__=_reduce, __setstate__=_setstate, __repr__=_repr)
    cls = type(cls)(cls.__name__, cls.__bases__, body)

    env: dict = {}
    params, sets = [], []
    for f in every:
        if not f.init and f.default is MISSING:
            continue  # a cache, left empty
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        env[f"_dflt_{f.name}"] = f.default
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=_dflt_{f.name}")
        sets.append(f"  _set_{f.name}(self, {f.name if f.init else f'_dflt_{f.name}'})\n")
    shown = [f.name for f in every if f.compare]
    mine = "".join(f"self.{n}," for n in shown)
    theirs = "".join(f"other.{n}," for n in shown)
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(sets)}  pass\n"
         "def __eq__(self, other):\n"
         "  if other.__class__ is self.__class__:\n"
         f"    return ({mine}) == ({theirs})\n"
         "  return NotImplemented\n"
         "def __hash__(self):\n"
         f"  return hash(({mine}))\n", env)
    for name in ("__init__", "__eq__", "__hash__"):
        fn = env[name]
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        fn.__module__ = cls.__module__
        setattr(cls, name, fn)
    return cls
