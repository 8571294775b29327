"""Record classes built from closures, without the dataclasses module.

record(cls) reads cls's annotated fields, in order, and adds __init__,
__repr__, __eq__ and (for frozen records) __hash__, __setattr__ and
__delattr__, each a closure over the field names.  A method the class
body defines itself is kept.  Only what this package's records use is
supported:

- frozen=True: assignment and deletion raise AttributeError, and the
  record hashes its compared fields; a record that is not frozen is
  unhashable
- a plain class-level value is the field's default
- field(init=False): left out of __init__, for __post_init__ to set
- field(repr=False, compare=False): left out of __repr__, or of __eq__
  and __hash__
- field(default_factory=f): each __init__ that is not given the field
  calls f()
- __post_init__, called at the end of __init__

Equality holds only between instances of the same class, as tuples of
their compared fields.  dataclasses was most of `import qdigits`: it
imports inspect, and it compiles each generated method with exec.
"""

from operator import attrgetter


class _Field:
    __slots__ = ("init", "repr", "compare", "default_factory")

    def __init__(self, *, init=True, repr=True, compare=True, default_factory=None):
        self.init = init
        self.repr = repr
        self.compare = compare
        self.default_factory = default_factory


field = _Field  # options for one field of a record (see the module docstring)
_PLAIN = _Field()


def record(cls=None, *, frozen=False):
    """Class decorator, bare or as record(frozen=True)."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    name = cls.__qualname__
    init_names, shown, compared = [], [], []
    defaults, factories = {}, {}
    for attr in cls.__annotations__:
        spec = cls.__dict__.get(attr, _PLAIN)
        if isinstance(spec, _Field):
            if spec is not _PLAIN:
                delattr(cls, attr)
            if spec.default_factory is not None:
                factories[attr] = spec.default_factory
        else:
            defaults[attr] = spec
            spec = _PLAIN
        if spec.init:
            init_names.append(attr)
        if spec.repr:
            shown.append(attr)
        if spec.compare:
            compared.append(attr)
    init_names = tuple(init_names)
    arity = len(init_names)
    keywords = frozenset(init_names)
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        if len(args) > arity:
            raise TypeError(f"{name}() takes {arity} arguments but {len(args)} were given")
        values = dict(zip(init_names, args))
        for attr in init_names[len(args):]:
            if attr in kwargs:
                values[attr] = kwargs.pop(attr)
            elif attr in factories:
                values[attr] = factories[attr]()
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
            self.__dict__.update(zip(init_names, args))
        elif not args and kwargs.keys() == keywords:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(bind(args, kwargs))
        if post_init is not None:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join(f"{attr}={getattr(self, attr)!r}" for attr in shown)
        return f"{type(self).__qualname__}({body})"

    key = attrgetter(*compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__}
    if frozen:

        def __hash__(self):
            return hash(key(self))

        def __setattr__(self, attr, value):
            raise AttributeError(f"cannot assign to field {attr!r} of frozen {name}")

        def __delattr__(self, attr):
            raise AttributeError(f"cannot delete field {attr!r} of frozen {name}")

        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for method, fn in methods.items():
        if method not in cls.__dict__:
            if fn is not None:
                fn.__qualname__ = f"{name}.{method}"
            setattr(cls, method, fn)
    return cls
