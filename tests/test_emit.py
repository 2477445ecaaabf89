from __future__ import annotations

import json
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from sascone import (
    BaseManifold,
    ProfileParams,
    QuotientData,
    RangeKind,
    ReebRay,
    TypeVerdict,
    bouquet_label,
    build_profile,
    orb_c1_report,
    positivity_range,
    quotient_data,
    validate_join,
    whole_cone_rules,
)
from sascone.emit import _MEMO_CELLS, _texts_of_bits, emit_csv, emit_json, format_float, to_jsonable
from conftest import CP1


def test_keys_sorted_and_stable():
    a = emit_json({"b": 1, "a": 2, "c": {"y": 1, "x": 2}})
    b = emit_json({"c": {"x": 2, "y": 1}, "a": 2, "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_float_seventeen_significant_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert '0.10000000000000001' in emit_json({"x": 0.1})


def test_str_enums_become_plain_strings():
    for member in (RangeKind.INTERVAL, RangeKind.EMPTY, TypeVerdict.POSITIVE):
        value = to_jsonable(member)
        assert type(value) is str and value == member.value
        assert emit_json(member) == f'"{member.value}"\n'
    record = to_jsonable(positivity_range(validate_join(4, 1, 1, 1, CP1)))
    assert repr(record) == "{'kind': 'interval', 'lower': '1/2', 'upper': '2'}"


def test_non_finite_floats_rejected():
    with pytest.raises(ValueError):
        emit_json({"x": float("nan")})
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_fractions_as_exact_strings():
    assert to_jsonable(Fraction(1, 2)) == "1/2"
    assert to_jsonable(Fraction(4, 2)) == "2"
    assert '"1/2"' in emit_json({"lower": Fraction(1, 2)})


def test_huge_integers_become_decimal_strings():
    small = 2**63 - 1
    big = 2**63
    payload = json.loads(emit_json({"small": small, "big": big, "neg": -(2**80)}))
    assert payload["small"] == small
    assert payload["big"] == str(big)
    assert payload["neg"] == str(-(2**80))


def test_sets_sorted():
    assert json.loads(emit_json({"s": {3, 1, 2}})) == {"s": [1, 2, 3]}


def test_every_core_type_serializes():
    join = validate_join(1, 1, 5, 3, CP1)
    ray = ReebRay(2, 1)
    records = [
        CP1,
        join,
        ray,
        quotient_data(join, ray),
        positivity_range(join),
        build_profile(ProfileParams(1, 1, 0, 0.5, 1, 1), grid_size=3),
    ]
    for record in records:
        parsed = json.loads(emit_json(record))
        assert isinstance(parsed, dict)
        assert all(key == key.lower() for key in parsed)


# The bytes these records emitted as frozen dataclasses; as NamedTuples they must not change.
_RECORD_BYTES = {
    "range/interval": (
        lambda: positivity_range(validate_join(4, 1, 1, 1, CP1)),
        '{\n  "kind": "interval",\n  "lower": "1/2",\n  "upper": "2"\n}\n',
    ),
    "range/half_line": (
        lambda: positivity_range(validate_join(2, 1, 3, 1, CP1)),
        '{\n  "kind": "half_line",\n  "lower": "2",\n  "upper": null\n}\n',
    ),
    "range/entire": (
        lambda: positivity_range(validate_join(1, 3, 1, 1, CP1)),
        '{\n  "kind": "entire",\n  "lower": null,\n  "upper": null\n}\n',
    ),
    "range/empty": (
        lambda: positivity_range(validate_join(4, 1, 1, 1, BaseManifold.riemann_surface(2))),
        '{\n  "kind": "empty",\n  "lower": null,\n  "upper": null\n}\n',
    ),
    "whole_cone/negative": (
        lambda: whole_cone_rules(validate_join(4, 1, 1, 1, CP1)),
        '{\n  "c1_coeff": -6,\n  "c1_is_positive": false,\n  "c1_is_zero": false,\n'
        '  "consistent": true,\n  "entire": false\n}\n',
    ),
    "whole_cone/positive": (
        lambda: whole_cone_rules(validate_join(1, 3, 1, 1, CP1)),
        '{\n  "c1_coeff": 4,\n  "c1_is_positive": true,\n  "c1_is_zero": false,\n'
        '  "consistent": true,\n  "entire": true\n}\n',
    ),
    "orb_c1/n<0": (
        lambda: orb_c1_report(validate_join(4, 1, 1, 1, CP1), ReebRay(3, 2)),
        '{\n  "a_scalar": "-7/6",\n  "branch": "n<0",\n  "c_scalar": "5/6",\n  "n": -4,\n'
        '  "positive": true\n}\n',
    ),
    "orb_c1/n>0": (
        lambda: orb_c1_report(validate_join(4, 1, 1, 1, CP1), ReebRay(2, 3)),
        '{\n  "a_scalar": "7/6",\n  "branch": "n>0",\n  "c_scalar": "5/6",\n  "n": 4,\n'
        '  "positive": true\n}\n',
    ),
    "bouquet": (
        lambda: bouquet_label(validate_join(1, 3, 1, 7, CP1)),
        '{\n  "i": 3,\n  "j": 1,\n  "k": 4,\n  "l": 3\n}\n',
    ),
    "join_and_ray": (
        lambda: {"join": validate_join(1, 3, 1, 7, CP1), "ray": ReebRay(3, 2)},
        '{\n  "join": {\n    "base": {\n      "c1_coeff": 2,\n      "dim_c": 1,\n      "label": "CP1"\n'
        '    },\n    "l1": 1,\n    "l2": 3,\n    "w1": 7,\n    "w2": 1\n  },\n'
        '  "ray": {\n    "v1": 3,\n    "v2": 2\n  }\n}\n',
    ),
}


@pytest.mark.parametrize("build, text", _RECORD_BYTES.values(), ids=_RECORD_BYTES.keys())
def test_exact_records_emit_their_established_bytes(build, text):
    assert emit_json(build()) == text


def test_named_tuple_round_trip():
    parsed = json.loads(emit_json(QuotientData(s=1, n=-1, m=1, m1=2, m2=1)))
    assert parsed == {"s": 1, "n": -1, "m": 1, "m1": 2, "m2": 1}


def test_csv_formatting():
    text = emit_csv(("a", "b"), [(1.5, 0.1), (-0.0, 1e300)])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1.5,0.10000000000000001"
    assert lines[2] == "-0,1.0000000000000001e+300"
    assert text.endswith("\n")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            emit_csv(("a", "b"), [(1.0, 2.0), (0.5, bad)])


def _csv_per_cell(header, rows):
    """`emit_csv` written cell by cell with `format_float`."""
    return "\n".join([",".join(header)] + [",".join(map(format_float, row)) for row in rows]) + "\n"


EXTREME = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1, 1e16, -123456789.125)


@pytest.mark.parametrize("width", [1, 2, 5])
@pytest.mark.parametrize("height", [0, 1, 7, 201])
def test_csv_equals_per_cell_format(width, height):
    rng = random.Random(width * 1000 + height)
    pool = EXTREME + tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 307) for _ in range(50))
    header = tuple(f"c{j}" for j in range(width))
    rows = [tuple(rng.choice(pool) for _ in range(width)) for _ in range(height)]
    assert emit_csv(header, rows) == _csv_per_cell(header, rows)
    assert emit_csv(header, iter(rows)) == _csv_per_cell(header, rows)
    if height == 0:
        assert emit_csv(header, rows) == ",".join(header) + "\n"


@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)), max_size=20))
def test_csv_equals_per_cell_format_on_any_finite_floats(rows):
    assert emit_csv(("a", "b"), rows) == _csv_per_cell(("a", "b"), rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row, col", [(0, 0), (2, 2), (4, 1), (4, 2)])
def test_csv_names_the_first_non_finite_cell(bad, row, col):
    rows = [[1.0, -2.5, 1e300] for _ in range(5)]
    rows[row][col] = bad
    if row < 4:
        rows[4][0] = -bad  # a later bad cell is not the one named
    with pytest.raises(ValueError) as raised:
        emit_csv(("a", "b", "c"), rows)
    assert str(raised.value) == f"cannot emit non-finite float {bad!r}"


@pytest.mark.parametrize("row", [(1.0,), (1.0, 2.0, 3.0), ()])
def test_csv_rejects_a_row_of_another_width(row):
    with pytest.raises(TypeError):
        emit_csv(("a", "b"), [(0.5, 0.25), row])


def test_csv_memo_keeps_the_sign_of_zero():
    for _ in range(3):  # the second and third calls take the memoised texts
        assert emit_csv(("z", "f"), [(0.0, 1.0), (-0.0, 2.0)]) == "z,f\n0,1\n-0,2\n"
        assert emit_csv(("z", "f"), [(-0.0, 1.0), (0.0, 2.0)]) == "z,f\n-0,1\n0,2\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_memo_hit_still_names_a_non_finite_first_cell(bad):
    rows = [(0.25, 1.0), (bad, 2.0)]
    for _ in range(2):
        hits = _texts_of_bits.cache_info().hits
        with pytest.raises(ValueError) as raised:
            emit_csv(("a", "b"), rows)
        assert str(raised.value) == f"cannot emit non-finite float {bad!r}"
    assert _texts_of_bits.cache_info().hits == hits + 1


@pytest.mark.parametrize("first, text", [(3, "3"), (True, "1"), (10**400, None)])
def test_csv_first_cells_that_are_not_floats_keep_their_text(first, text):
    # an all-int column, and a float column with one int cell
    for rows, expected in (([(first, 0.5), (first, 1.5)], f"a,b\n{text},0.5\n{text},1.5\n"),
                           ([(2.5, 0.5), (first, 1.5)], f"a,b\n2.5,0.5\n{text},1.5\n")):
        for _ in range(2):
            if text is None:
                with pytest.raises(OverflowError, match="int too large to convert to float"):
                    emit_csv(("a", "b"), rows)
            else:
                assert emit_csv(("a", "b"), rows) == expected


@pytest.mark.parametrize("first", ["0.5", None, 0.5j])
def test_csv_first_cells_that_are_not_real_raise_what_percent_g_raises(first):
    with pytest.raises(TypeError) as expected:
        "%.17g" % first
    for rows in ([(first, 0.5)], [(2.5, 0.5), (first, 1.5)]):
        with pytest.raises(TypeError) as raised:
            emit_csv(("a", "b"), rows)
        assert str(raised.value) == str(expected.value)


def test_csv_memo_stays_at_its_bound():
    for n in range(1000):
        assert emit_csv(("z",), [(i / (n + 1),) for i in range(3)]).count("\n") == 4
    info = _texts_of_bits.cache_info()
    assert info.currsize == info.maxsize


def test_csv_long_first_column_is_not_memoised():
    rows = [(i / _MEMO_CELLS,) for i in range(_MEMO_CELLS + 1)]
    before = _texts_of_bits.cache_info()
    assert emit_csv(("z",), rows) == _csv_per_cell(("z",), rows)
    assert _texts_of_bits.cache_info() == before


@given(st.text())
@example('say "hi"').via("quotes")
@example("back\\slash").via("backslash")
@example("tab\tnew\nline\r\x00\x1f\x7f").via("control characters")
@example("caf\u00e9 \u2207 \U0001d4ae").via("non-ASCII text")
@example("").via("empty")
def test_json_strings_match_json_dumps(text):
    quoted = json.dumps(text, ensure_ascii=True)
    assert emit_json(text) == quoted + "\n"
    assert emit_json({text: text}) == "{\n  " + quoted + ": " + quoted + "\n}\n"


Pair = namedtuple("Pair", "left right")


@dataclass(frozen=True)
class Box:
    first: object
    second: object


class Opaque:
    """A type with no JSON rule."""


_LEAVES = st.one_of(
    st.floats(),  # NaN and both infinities included
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**400, True, False, None]),
    st.text(max_size=4),
    st.fractions(),
    st.sampled_from([*RangeKind, *TypeVerdict]),
    st.builds(Opaque),
    st.complex_numbers(max_magnitude=2.0),
)
_KEYS = st.one_of(st.sampled_from([1, "1", True, 0.5, "0.5", None, RangeKind.EMPTY]), st.integers(-2, 2),
                  st.text(max_size=2))
_HASHABLE = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=4), st.floats(-2.0, 2.0), st.text(max_size=2))
_RECORDS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.dictionaries(_KEYS, inner, max_size=5),
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=3).map(tuple),
    st.frozensets(_HASHABLE, max_size=4),
    st.sets(st.integers(-9, 9), max_size=4),
    st.builds(Pair, inner, inner),
    st.builds(Box, inner, inner),
), max_leaves=12)


def _outcome(emit, record):
    try:
        return emit(record)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_RECORDS)
@example({1: 0.5, "1": 2}).via("a later equal key wins")
@example({"1": Opaque(), 1: 0.5}).via("a hidden value is still converted")
@example({"a": math.nan, "b": Opaque()}).via("a type error before a float error")
@example({"a": Opaque(), "b": 1j}).via("the first type in insertion order is named")
@example(frozenset({1, "a"})).via("an unsortable set")
@example([math.inf, -math.inf]).via("the first non-finite float is named")
def test_emit_json_and_to_jsonable_are_the_reference_pair(record):
    assert _outcome(emit_json, record) == _outcome(oracles.emit_json, record)
    assert repr(_outcome(to_jsonable, record)) == repr(_outcome(oracles.to_jsonable, record))  # NaN != NaN


def test_emit_json_repeatable_bytes():
    join = validate_join(4, 1, 1, 1, CP1)
    record = {"range": positivity_range(join), "join": join}
    assert emit_json(record).encode() == emit_json(record).encode()
