"""Immutable value classes without the ``dataclasses`` module.

Importing ``dataclasses`` also imports ``inspect``, ``ast``, ``dis`` and
``tokenize``: about 1 MB of resident memory, and import time at every
cold start, that nothing else in this package needs.  :class:`Record`
keeps the part of ``@dataclass(frozen=True)`` the package uses.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, ClassVar, TypeVar

R = TypeVar("R", bound="Record")


class Record:
    """Base for immutable value classes declared by annotated fields.

    ``class P(Record): x: int; y: int = 0`` gets a constructor taking the
    fields positionally or by keyword (class-level values are defaults)
    that ends by calling ``__post_init__``; equality and hashing by field
    values within one class; a ``P(x=1, y=0)`` repr; and assignment that
    raises ``AttributeError``.  ``__post_init__`` may normalise a field
    with ``object.__setattr__``.
    """

    _fields: ClassVar[tuple[str, ...]] = ()
    _key: ClassVar[Callable[[Any], Any]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        """Field values in order from arguments, keywords and defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} fields, got {len(args)}")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls.__dict__:
                values.append(cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected fields {sorted(kwargs)}")
        return tuple(values)

    def __post_init__(self) -> None:
        """Validate or normalise the fields; the default does nothing."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")


def replace(record: R, **changes: Any) -> R:
    """A copy of ``record`` with some fields changed, validated anew."""
    values = {name: changes.pop(name, getattr(record, name)) for name in record._fields}
    return type(record)(**values, **changes)
