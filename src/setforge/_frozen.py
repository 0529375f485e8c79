"""The one base class of setforge's immutable records (scopes, sorts,
verdicts, test conditions, goals, EVM and consensus results).

A subclass lists its fields as class annotations, inherited fields first,
and gives a field a default by assigning it in the class body.  An
instance takes its fields by position or keyword and then runs
``__post_init__`` when the class defines one to validate them.  It equals
only an instance of the same class with equal fields, hashes its fields,
prints as ``Name(field=value, ...)`` and refuses attribute assignment.

The field values are stored once, as a tuple, so equality and hashing
build nothing; sorts are built and compared in every solve.  Nothing is
generated or compiled when a class is defined, which keeps the package's
import cheap: every command line run pays for it.
"""

_MISSING = object()
_set = object.__setattr__


class Frozen:
    _fields = ()  # field names in order, inherited ones first
    _defaults = {}  # field name -> default value
    _checked = False  # whether the class defines __post_init__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = {}
        for klass in reversed(cls.__mro__):
            own = vars(klass)
            for name in own.get("__annotations__", ()):
                fields[name] = own.get(name, _MISSING)
        cls._fields = tuple(fields)
        cls._defaults = {name: d for name, d in fields.items() if d is not _MISSING}
        cls._checked = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # one object.__setattr__ per field: filling self.__dict__ instead
        # would turn the instance's inline attribute storage into a plain
        # dict, and every later read of a field would be about 3x slower
        for name, value in zip(names, args):
            _set(self, name, value)
        _set(self, "_values", args)
        if self._checked:
            self.__post_init__()

    def _bind(self, args, kwargs):
        """The field values of a call that names fields or leaves some out."""
        names, cls = self._fields, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{cls}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return tuple(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the named fields changed."""
        values = [changes.pop(n, v) for n, v in zip(self._fields, self._values)]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(changes))!r}")
        return type(self)(*values)
