"""``record``, the class decorator of the package's value types.  Fields are
the annotated names, defaults their class-level values; ``__init__`` ends
with ``__post_init__``; a frozen record hashes its fields and refuses
assignment and deletion.  Unlike ``dataclasses``: no ``exec``, no ``inspect``."""

from operator import attrgetter

_MISSING = object()


def record(cls=None, *, frozen=False):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__.get(n, _MISSING) for n in names)
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = len(args)
            args += (tuple(map(kwargs.pop, names[given:], defaults[given:])) if kwargs
                     else defaults[given:])
            if kwargs or len(args) != len(names) or _MISSING in args:
                raise TypeError(f"missing or extra arguments to {cls.__name__}{names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        post_init(self)

    def __eq__(self, other):
        return (values(self) == values(other) if other.__class__ is self.__class__
                else NotImplemented)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def refuse(self, name, *value):
        raise AttributeError(f"cannot assign to or delete {name!r} of a frozen record")

    methods = dict(__init__=__init__, __eq__=__eq__, __repr__=__repr__, __hash__=None)
    if frozen:
        methods.update(__hash__=lambda self: hash(values(self)),
                       __setattr__=refuse, __delattr__=refuse)
    for name in methods.keys() - cls.__dict__.keys():
        setattr(cls, name, methods[name])
    return cls
