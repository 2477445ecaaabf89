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
from functools import lru_cache
from json.encoder import encode_basestring_ascii  # json.dumps(s, ensure_ascii=True) for a str s
from typing import Any, Iterable, Sequence

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_MEMO_CELLS = 2**14  # the longest first CSV column whose texts `_texts_of_bits` keeps, 8 at most


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot emit non-finite float {x!r}")
    return format(x, ".17g")


def to_jsonable(obj: Any) -> Any:
    """Normalize a record into plain JSON-compatible values."""
    if isinstance(obj, float) or obj is None:  # the commonest first
        return obj
    if isinstance(obj, int):  # a bool is within the int64 range, so it comes back as itself
        return obj if _INT64_MIN <= obj <= _INT64_MAX else str(obj)
    if isinstance(obj, str):
        return obj.value if isinstance(obj, Enum) else obj  # the package's enums are str enums
    if isinstance(obj, Fraction):
        return str(obj)
    # a dataclass, told without importing dataclasses, or a named tuple
    fields = getattr(type(obj), "__dataclass_fields__", None) or getattr(type(obj), "_fields", None)
    if fields is not None:
        return {name: to_jsonable(getattr(obj, name)) for name in fields}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(value: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, float):  # the commonest first; none of None, True, False is a float or str
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _write(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            out.append(pad + "  " + encode_basestring_ascii(str(key)) + ": ")
            _write(value[key], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_json(record: Any) -> str:
    """Canonical JSON text for a record, with a trailing newline."""
    out: list[str] = []
    _write(to_jsonable(record), out, 0)
    out.append("\n")
    return "".join(out)


def emit_csv(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """Deterministic CSV of float rows: '.' decimal separator, LF line endings.

    Cells read as `format_float` prints them, and a non-finite one raises its
    ValueError. A row whose width differs from the header's raises TypeError.
    A short first column, as a profile's z, is formatted once per column.
    """
    rows = list(rows)
    if {*map(len, rows)} - {len(header)}:
        raise TypeError(f"every CSV row must have the header's {len(header)} cells")
    first = [row[0] for row in rows]
    if len(first) <= _MEMO_CELLS:
        texts = _texts_of_bits(array("d", first).tobytes())  # raises what "%.17g" % cell would
    else:
        texts = map("%.17g".__mod__, first)
    rest = ",%.17g" * (len(header) - 1) + "\n"  # the cells after the first, each with its comma
    body = "".join([text + rest % tuple(row)[1:] for text, row in zip(texts, rows)])
    if "n" in body:  # a finite %.17g cell has no "n"; "inf", "-inf" and "nan" do
        row = body[: body.index("\n", body.index("n"))].rpartition("\n")[2]
        cell = next(text for text in row.split(",") if "n" in text)  # the float's repr
        raise ValueError(f"cannot emit non-finite float {cell}")
    return ",".join(header) + "\n" + body


@lru_cache(maxsize=8)
def _texts_of_bits(bits: bytes) -> tuple[str, ...]:  # the `%.17g` texts of packed doubles
    return tuple(map("%.17g".__mod__, array("d", bits)))
