"""JSON value kinds, and the one kind rule of the settings records.

A kind is a tuple of exact Python types, so true and false are no
numbers; ``featmeta.data`` checks a file's values against them.
``_normalize`` checks the fields of a settings record by annotation,
through the ``numbers`` ABCs: a numpy scalar passes, a bool only for a
bool field, an int in a float field becomes a float and a list a tuple.
"""

from __future__ import annotations

import contextlib
import numbers
import sys
from dataclasses import fields

_NUMBER, _INTEGER, _LIST, _OBJECT = (int, float), (int,), (list,), (dict,)
_BOOL, _NUMBER_OR_NULL, _STRING = (bool,), (int, float, type(None)), (str,)
_EXPECTED = {_NUMBER: "a number", _INTEGER: "an integer", _LIST: "a list",
             _OBJECT: "an object", _BOOL: "true or false",
             _NUMBER_OR_NULL: "a number or null", _STRING: "a string"}


def _expected(path, kind, value) -> str:
    """The message for ``value`` at ``path``, not of the JSON ``kind``;
    an int of a number kind is one too large for a float."""
    too_large = type(value) is int and float in kind
    got = "an integer too large for a float" if too_large else repr(value)
    return f"{path}: expected {_EXPECTED[kind]}, got {got}"


def _scalar(kind, abc, convert):
    """The check of a scalar of the JSON ``kind``: an instance of ``abc``,
    a bool only for a bool kind, that ``convert`` turns into its type."""
    def check(value, path):
        if isinstance(value, abc) and isinstance(value, bool) == (kind is _BOOL):
            with contextlib.suppress(OverflowError):
                return convert(value)
        raise ValueError(_expected(path, kind, value))
    return check


_integer = _scalar(_INTEGER, numbers.Integral, int)
_number = _scalar(_NUMBER, numbers.Real, float)


def _tuple(item, count=None):
    """The check of a list or tuple of ``count`` items, if given, each
    passing the check ``item``."""
    def check(value, path):
        if not isinstance(value, (list, tuple)):
            raise ValueError(_expected(path, _LIST, value))
        items = tuple(item(v, f"{path}[{k}]") for k, v in enumerate(value))
        if count is not None and len(items) != count:
            raise ValueError(f"{path}: expected {count} items, got {len(items)}")
        return items
    return check


def _or_none(check):
    return lambda value, path: None if value is None else check(value, path)


# The check of a record's field by its annotation; each returns the value
# the field takes.
_ANNOTATION_CHECKS = {
    "int": _integer,
    "bool": _scalar(_BOOL, bool, bool),
    "float": _number,
    "float | None": _or_none(_scalar(_NUMBER_OR_NULL, numbers.Real, float)),
    "tuple[float, ...]": _tuple(_number),
    "tuple[float, ...] | None": _or_none(_tuple(_number)),
    "tuple[float, float]": _tuple(_number, 2),
    "tuple[tuple[int, ...], ...] | None": _or_none(_tuple(_tuple(_integer))),
}


def _normalize(record) -> None:
    """Check each field of the frozen dataclass ``record``, in order, and
    set the value its check returns; any other annotation names a class
    of the record's module. A ValueError starts with the field's name."""
    namespace = vars(sys.modules[type(record).__module__])
    for field in fields(record):
        value = getattr(record, field.name)
        check = _ANNOTATION_CHECKS.get(field.type)
        if check is not None:
            object.__setattr__(record, field.name, check(value, field.name))
        elif not isinstance(value, namespace[field.type]):
            raise ValueError(f"{field.name}: expected a {field.type}, got {value!r}")
