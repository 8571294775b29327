"""Record classes built from closures, without the dataclasses module.

record(cls) reads cls's annotated fields, in order, and adds __init__,
__repr__, __eq__, __hash__, __setattr__ and __delattr__, each a closure
over the field names.  A method the class body defines itself is kept.
Every record is frozen: assignment and deletion raise AttributeError,
and the record hashes its fields.  A plain class-level value is the
field's default, and __post_init__, if the class defines it, is called
at the end of __init__; it sets attributes with object.__setattr__ or
through self.__dict__.

__repr__ shows every field, and writes each Fraction, alone or in a
tuple, as Fraction(0x..., 0x...): in decimal its terms can pass Python's
int/str digit limit.  hex_repr(*wide_ints) builds the __repr__ of a
record whose int fields named in wide_ints are written in hex too.
Equality holds only between instances of the same class, as tuples of
all their fields.  dataclasses was most of `import qdigits`: it imports
inspect, and it compiles each generated method with exec.
"""

from fractions import Fraction
from operator import attrgetter


def hex_repr(*wide_ints):
    """A record __repr__ that writes each Fraction, alone or in a tuple, as
    Fraction(0x..., 0x...) and each int field named in wide_ints as 0x...:
    in decimal they can pass Python's int/str digit limit.  eval() reads
    both forms back."""

    def __repr__(self):
        body = ", ".join(
            f"{attr}={_hex(getattr(self, attr), attr in wide_ints)}"
            for attr in type(self).__annotations__
        )
        return f"{type(self).__qualname__}({body})"

    return __repr__


def _hex(value, is_wide_int=False) -> str:
    if isinstance(value, Fraction):
        return f"Fraction({value.numerator:#x}, {value.denominator:#x})"
    if type(value) is tuple:
        items = ", ".join(map(_hex, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return f"{value:#x}" if is_wide_int else repr(value)


def record(cls):
    """Class decorator: cls as a frozen record of its annotated fields."""
    name = cls.__qualname__
    names = tuple(cls.__annotations__)
    defaults = {attr: cls.__dict__[attr] for attr in names if attr in cls.__dict__}
    arity = len(names)
    keywords = frozenset(names)
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        if len(args) > arity:
            raise TypeError(f"{name}() takes {arity} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for attr in names[len(args):]:
            if attr in kwargs:
                values[attr] = kwargs.pop(attr)
            elif attr in defaults:
                values[attr] = defaults[attr]
            else:
                raise TypeError(f"{name}() missing argument {attr!r}")
        if kwargs:
            raise TypeError(f"{name}() got unexpected or repeated arguments {sorted(kwargs)}")
        return values

    def __init__(self, *args, **kwargs):
        # every field by position, or every field by keyword, binds in C
        if not kwargs and len(args) == arity:
            self.__dict__.update(zip(names, args))
        elif not args and kwargs.keys() == keywords:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(bind(args, kwargs))
        if post_init is not None:
            self.__post_init__()

    key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of frozen {name}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of frozen {name}")

    for fn in (__init__, hex_repr(), __eq__, __hash__, __setattr__, __delattr__):
        method = fn.__name__
        if method not in cls.__dict__:
            fn.__qualname__ = f"{name}.{method}"
            setattr(cls, method, fn)
    return cls
