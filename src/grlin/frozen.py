"""The one class decorator behind every syntax, grade and usage node.

``@frozen`` makes a class a ``@dataclass(frozen=True, slots=True)`` with
an ``__init__`` of its own, in place of the one ``dataclasses`` would
generate. That one sets every field with ``object.__setattr__``: a lookup
of ``__setattr__`` on ``object`` and of the field's name on the class, per
field and per call. The ``__init__`` built here calls each slot's member
descriptor, looked up once, and fills each ``init=False`` field with its
default. An ``init=False`` field without a default is a cache that stays
empty until a reader fills it; such a class is copied and pickled through
its constructor. Everything else is what ``dataclasses`` generates: ``==``,
``hash``, ``repr``, ``fields`` and the ``FrozenInstanceError`` on
assignment.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


def frozen(cls):
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    env: dict = {}
    params, body = [], []
    lazy = False
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a default factory is not supported")
        if not f.init and f.default is MISSING:
            lazy = True  # a cache, left empty
            continue
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        env[f"_dflt_{f.name}"] = f.default
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=_dflt_{f.name}")
        body.append(f" _set_{f.name}(self, {f.name if f.init else f'_dflt_{f.name}'})")
    # Compiled once per class, as dataclasses compiles the __init__ it makes.
    exec(f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or " pass"), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    if lazy:
        # the state that dataclasses would copy reads every field, empty or not
        names = tuple(f.name for f in fields(cls) if f.init)
        cls.__reduce__ = lambda self: (cls, tuple(getattr(self, n) for n in names))
    return cls
