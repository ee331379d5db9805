"""Immutable value records, without the code generation of ``dataclasses``.

``record`` turns a class whose body annotates its fields, with any
defaults assigned there, into a frozen value type.  Every record shares
one set of methods, which read the field names from ``__match_args__``:
an ``__init__`` taking the fields by position or keyword and then running
``__post_init__``, field-wise ``__eq__`` and ``__hash__``, a ``__repr__``
in the dataclass format, and ``__setattr__``/``__delattr__`` that raise
AttributeError.  A method the class body defines itself is kept.
"""

from operator import attrgetter

_object_setattr = object.__setattr__  # writes past the frozen __setattr__


def _init(self, *args, **kwargs):
    names = self.__match_args__
    if kwargs or len(args) != len(names):
        args = _bind(type(self), names, args, kwargs)
    # A new dict, set whole.  Reading self.__dict__ and filling it can leave
    # a split dict, whose attribute reads CPython 3.11 does not specialise.
    _object_setattr(self, "__dict__", dict(zip(names, args)))


def _init_then_post_init(self, *args, **kwargs):
    _init(self, *args, **kwargs)
    self.__post_init__()


def _bind(cls, names: tuple, args: tuple, kwargs: dict) -> list:
    """Every field's value in order: the positional arguments, then the
    keyword arguments, then the defaults in the class body."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls.__dict__:
            values.append(cls.__dict__[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    for name in kwargs:  # left over: not a field, or given by position too
        raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
    return values


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._record_key(self) == self._record_key(other)


def _hash(self) -> int:
    return hash(self._record_key(self))


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_METHODS = {
    "__eq__": _eq,
    "__hash__": _hash,
    "__repr__": _repr,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
}


def record(cls):
    """Make ``cls`` an immutable value record (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    cls.__match_args__ = names
    # The field values that __eq__ and __hash__ compare; a lone field's value is not wrapped.
    cls._record_key = staticmethod(attrgetter(*names) if names else lambda self: ())
    methods = _METHODS | {"__init__": _init_then_post_init if "__post_init__" in cls.__dict__ else _init}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
