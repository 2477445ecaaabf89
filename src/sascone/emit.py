"""Bit-stable JSON, CSV, and text emitters.

Identical records produce identical bytes: object keys are sorted,
floats are printed with 17 significant digits, rationals as exact "a/b"
strings, and integers that do not fit in a signed 64-bit word as decimal
strings. Sets are emitted as sorted lists. No locale is consulted.
"""

from __future__ import annotations

import math
from array import array
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from json.encoder import encode_basestring_ascii  # json.dumps(s, ensure_ascii=True) for a str s
from typing import Any, Callable, Collection, Iterable, Sequence

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_AS_IS = {float, str, bool, type(None), dict, list}  # the types whose values `_plain` returns as they are
_MEMO_CELLS = 2**14  # the longest first CSV column whose texts `_texts_of_bits` keeps, 8 at most


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot emit non-finite float {x!r}")
    return format(x, ".17g")


@lru_cache(maxsize=64)  # one entry per type written that is not `_AS_IS`
def _record_fields(cls: type) -> Collection[str] | None:
    """The field names of a dataclass, told without importing dataclasses, or of a named tuple;
    None for any other type, and for a float, int, str or Fraction, whose own rules come first."""
    if issubclass(cls, (float, int, str, Fraction)):
        return None
    return getattr(cls, "__dataclass_fields__", None) or getattr(cls, "_fields", None)


def _plain(obj: Any) -> Any:
    """`obj` one level down, the one home of each type rule: a JSON scalar as it stays, a
    record's fields as a dict, a set as a sorted list; other containers and their values as given."""
    if isinstance(obj, float) or obj is None:  # the commonest first
        return obj
    if isinstance(obj, int):  # a bool is within the int64 range, so it comes back as itself
        return obj if _INT64_MIN <= obj <= _INT64_MAX else str(obj)
    if isinstance(obj, str):
        return obj.value if isinstance(obj, Enum) else obj  # the package's enums are str enums
    if isinstance(obj, Fraction):
        return str(obj)
    if (fields := _record_fields(type(obj))) is not None:
        return {name: getattr(obj, name) for name in fields}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, (dict, list, tuple)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_jsonable(obj: Any) -> Any:
    """Normalize a record into plain JSON-compatible values."""
    obj = _plain(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    return [to_jsonable(v) for v in obj] if isinstance(obj, (list, tuple)) else obj


def _write(value: Any, out: list[str], pad: str) -> None:
    """Append the JSON text of `value`, `to_jsonable`'s, to `out`; `pad` is a newline and the indentation
    of its line. A record is read field by field, and a value of no `_AS_IS` type goes through `_plain`."""
    if type(value) not in _AS_IS:
        if (fields := _record_fields(type(value))) is not None:  # read with no dict built
            return _write_object(sorted(fields), partial(getattr, value), out, pad)
        value = _plain(value)
    if isinstance(value, float):  # none of None, True, False is a float or str
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, dict):
        plain = {str(k): v for k, v in value.items()}  # a later key wins, as in `to_jsonable`
        if len(plain) < len(value):  # which converts the values it hides too
            to_jsonable(value)
        _write_object(sorted(plain), plain.__getitem__, out, pad)
    else:
        inner, sep = pad + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write(item, out, inner)
            sep = ","
        out.append(pad + "]" if value else "[]")


def _write_object(names: list[str], read: Callable[[str], Any], out: list[str], pad: str) -> None:
    """Append the JSON object of the sorted str keys `names` and their values `read(name)`."""
    inner, sep = pad + "  ", "{"
    for name in names:
        out.append(sep + inner + encode_basestring_ascii(name) + ": ")
        _write(read(name), out, inner)
        sep = ","
    out.append(pad + "}" if names else "{}")


def emit_json(record: Any) -> str:
    """Canonical JSON text for a record, with a trailing newline: `to_jsonable`'s values in one walk.

    An error is `to_jsonable`'s when it raises, so a value it cannot convert, even one a later
    equal key hides, is named before a non-finite float is."""
    out: list[str] = []
    try:
        _write(record, out, "\n")
    except (TypeError, ValueError):
        to_jsonable(record)
        raise
    return "".join(out) + "\n"


def emit_csv(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """Deterministic CSV of float rows: '.' decimal separator, LF line endings.

    Cells read as `format_float` prints them, and the first non-finite one raises
    its ValueError. A row whose width differs from the header's raises TypeError.
    A short first column, as a profile's z, is formatted once per column, and
    the body in one `%` call.
    """
    rows, width = list(rows), len(header)
    if {*map(len, rows)} - {width}:
        raise TypeError(f"every CSV row must have the header's {width} cells")
    cells = [*chain.from_iterable(rows)]
    first = cells[::width]  # `array` raises what "%.17g" % cell would
    cells[::width] = (_texts_of_bits(array("d", first).tobytes()) if len(first) <= _MEMO_CELLS
                      else map("%.17g".__mod__, first))
    body = ("%s" + ",%.17g" * (width - 1) + "\n") * len(rows) % tuple(cells)  # a first cell is its text
    if "n" in body:  # a finite %.17g cell has no "n"; "inf", "-inf" and "nan" do
        row = body[: body.index("\n", body.index("n"))].rpartition("\n")[2]
        cell = next(text for text in row.split(",") if "n" in text)  # the float's repr
        raise ValueError(f"cannot emit non-finite float {cell}")
    return ",".join(header) + "\n" + body


@lru_cache(maxsize=8)
def _texts_of_bits(bits: bytes) -> tuple[str, ...]:  # the `%.17g` texts of packed doubles
    return tuple(map("%.17g".__mod__, array("d", bits)))
