"""Immutable records built at little more than a plain object's cost.

A ``frozen=True`` dataclass stores each field through
``object.__setattr__`` in its generated ``__init__``: one C call per
field, about twice what the same class costs unfrozen. The compiler
builds thousands of such nodes per lowering (Spatial IR, CIN, level
iterators, formats), so :func:`immutable` declares each one as a frozen
dataclass and swaps in an ``__init__`` that gives the instance its whole
``__dict__`` in one call. Everything else is the dataclass's own:
assignment still raises :class:`dataclasses.FrozenInstanceError`, and
``==``, ``hash``, ``repr``, :func:`dataclasses.replace` and pickling are
unchanged.

The dict is built fresh, not filled in place: on CPython 3.11 writing
into ``self.__dict__`` makes a dict that shares the class's keys, and
every later attribute read of such an instance misses the interpreter's
fast path (about 25 ns instead of 6); a fresh dict is read at about
7 ns. A class that needs facts derived from its fields computes them
once in ``__post_init__`` and stores them beside the fields with
``self.__dict__.update(...)``.
"""

from __future__ import annotations

import dataclasses

_FACTORY = object()  # the default of a field with a default_factory


def immutable(cls=None, /, **options):
    """``@dataclasses.dataclass(frozen=True, **options)`` with a cheaper
    ``__init__``: same parameters and defaults, ``__post_init__`` still
    runs, and a class that defines its own ``__init__`` keeps it."""

    def wrap(cls):
        own_init = "__init__" in cls.__dict__
        cls = dataclasses.dataclass(frozen=True, **options)(cls)
        if not own_init:
            cls.__init__ = _init(cls)
        return cls

    return wrap if cls is None else wrap(cls)


def _init(cls):
    params, items, env = ["self"], [], {}
    for f in dataclasses.fields(cls):
        if not f.init or f.kw_only or f.name == "self":
            raise TypeError(f"{cls.__qualname__}.{f.name}: immutable() "
                            "takes positional init fields only")
        value = f.name
        if f.default is not dataclasses.MISSING:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        elif f.default_factory is not dataclasses.MISSING:
            env[f"_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_FACTORY")
            value = f"_factory_{f.name}() if {f.name} is _FACTORY else {f.name}"
        else:
            params.append(f.name)
        items.append(f"{f.name!r}: {value}")
    body = f"    _setattr(self, '__dict__', {{{', '.join(items)}}})\n"
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    source = f"def __init__({', '.join(params)}):\n{body}"
    namespace = {"_FACTORY": _FACTORY, "_setattr": object.__setattr__, **env}
    exec(compile(source, f"<{cls.__qualname__}.__init__>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init
