"""The one class decorator behind every syntax node and record.

``@frozen`` takes a class whose body declares its fields as annotations and
builds it again, once, as a slotted class with the methods of a frozen
record. Its constructor is compiled from source generated per class, so it
runs no loop over the fields: ``__init__`` writes each field through its
slot's member descriptor, looked up once, not through
``object.__setattr__``. Besides that,

* ``repr`` is ``Name(field=value, ...)`` over the compared fields;
* assigning or deleting an attribute raises ``FrozenInstanceError``, an
  ``AttributeError``;
* ``copy`` and ``pickle`` go through ``__reduce__``: the constructor's
  arguments, then the filled caches.

An instance of a plain ``@frozen`` class is equal only to itself, and
hashes by identity, as a plain object does: value equality belongs to
interned classes alone.

A field declared with ``field`` stays out of ``repr``, and out of an
interned class's ``==`` and ``hash``. With ``init=False`` it is no argument
of the constructor either: it is a cache, which ``__init__`` sets to its
default or, if it has none, leaves empty until a reader fills it. A class's
fields follow those of its ``@frozen`` base; ``fields`` lists them in that
order. Names in the class body's ``__slots__`` are slots besides the
fields, which no method here reads.

``@frozen(interned=True)`` makes a class, and every ``@frozen`` subclass of
it, hash-consed (Filliâtre and Conchon, "Type-safe modular hash-consing",
2006). In place of ``__init__`` it gets a generated ``__new__``, which
looks the class and the constructor's arguments up in one table, and
builds a node only on a miss. So within one generation of the table,
between two ``clear_interned`` calls, each distinct node is built once. A
miss writes the node's fields, its hash ``_h`` (that of the tuple of its
compared fields, which reads each child's ``_h``) and its generation
``_gen``, and then calls the node's ``_fill`` to fill its other slots; a
hit writes nothing. ``hash`` returns ``_h``. ``==`` is ``is`` between two
nodes of one generation. Between generations it walks both nodes on an
explicit stack, comparing classes and ``_h`` before fields, so it gives
what comparing the tuples of their compared fields would, at any depth.
"""

from __future__ import annotations

MISSING = object()  # the default of a field that has none

# The interned nodes of this generation, each under the key
# ``(class, *field values)``; a key holds its nodes' children, so they live.
_table: dict = {}
_generation = [0]  # the number of this generation, which ``__new__`` reads


def clear_interned() -> None:
    """Forget every interned node: the next generation starts empty."""
    _generation[0] += 1
    _table.clear()


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
    """A field kept out of ``repr`` and of an interned class's ``==`` and
    ``hash``; with ``init=False``, a cache."""
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


def _interned_hash(self):
    return self._h


def _interned_eq(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._gen != other._gen and _same(self, other)


def _same(a, b) -> bool:
    """Whether the interned nodes ``a`` and ``b`` have equal compared
    fields, by one walk over an explicit stack of pairs. An identical pair
    is equal; two interned nodes of one class, equal hashes and different
    generations are walked into; two of one generation are not equal; any
    other pair is compared with ``==``."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        c = a.__class__
        if getattr(c, "__frozen_interned__", False):
            if b.__class__ is not c or a._h != b._h or a._gen == b._gen:
                return False
            todo += reversed([(getattr(a, f.name), getattr(b, f.name))
                              for f in c.__frozen_fields__ if f.compare])
        elif not a == b:
            return False
    return True


def frozen(cls=None, *, interned: bool = False):
    if cls is None:
        return lambda cls: frozen(cls, interned=interned)
    body = dict(cls.__dict__)
    own = []
    for name in body.get("__annotations__", {}):
        spec = body.pop(name, MISSING)
        own.append(Field(name, spec.default, spec.init, False) if spec.__class__ is Field
                   else Field(name, spec, True, True))
    every = getattr(cls, "__frozen_fields__", ()) + tuple(own)
    extra = tuple(body.pop("__slots__", ()))
    for name in extra:
        body.pop(name, None)  # the slot of the class being built again
    inherited = getattr(cls, "__frozen_interned__", False)
    if interned and not inherited:
        extra = ("_h", "_gen") + extra
    interned = interned or inherited
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body.update(__slots__=tuple(f.name for f in own) + extra, __qualname__=cls.__qualname__,
                __frozen_fields__=every, __frozen_interned__=interned,
                __setattr__=_setattr, __delattr__=_delattr,
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
    if interned:
        env.update(_get=_table.get, _table=_table, _generation=_generation,
                   _new=object.__new__, _set__h=cls._h.__set__, _set__gen=cls._gen.__set__)
        given = "".join(f"{f.name}," for f in every if f.init)
        mine = "".join(f"self.{f.name}," for f in every if f.compare)
        exec(f"def __new__(cls, {', '.join(params)}):\n"
             f"  key = (cls, {given})\n"
             "  self = _get(key)\n"
             "  if self is None:\n"
             "    self = _new(cls)\n"
             + "".join("  " + s for s in sets) +
             f"    _set__h(self, hash(({mine})))\n"
             "    _set__gen(self, _generation[0])\n"
             "    self._fill()\n"
             "    _table[key] = self\n"
             "  return self\n", env)
        cls.__new__ = staticmethod(_named(env["__new__"], cls))
        cls.__eq__, cls.__hash__ = _interned_eq, _interned_hash
        return cls
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(sets)}  pass\n", env)
    cls.__init__ = _named(env["__init__"], cls)
    return cls


def _named(fn, cls):
    """The generated ``fn``, named as a method of ``cls``."""
    fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    fn.__module__ = cls.__module__
    return fn
