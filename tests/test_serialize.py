from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdlab.sequences import PASS, ClauseResult
from bdlab.serialize import format_rational, parse_rational, stable_hash, stable_json, stable_json_with


def test_format_integer_has_no_denominator():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(7) == "7"
    assert format_rational(Fraction(-2)) == "-2"
    assert format_rational(Fraction(0)) == "0"


def test_format_proper_fraction():
    assert format_rational(Fraction(1, 16)) == "1/16"
    assert format_rational(Fraction(-529, 256)) == "-529/256"


def test_parse_accepts_both_shapes():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("1/16") == Fraction(1, 16)
    assert parse_rational("-7/3") == Fraction(-7, 3)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(" 3 ") == Fraction(3)
    assert parse_rational("+4") == Fraction(4)


def test_parse_rejects_garbage():
    for bad in ("", "1/0", "one", "1.5", "1/2/3", "1_000", "1/1_6", "\u0661\u0662", "\u0661/16", "\u00a03"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions())
def test_round_trip_is_identity(q: Fraction):
    assert parse_rational(format_rational(q)) == q


def test_stable_json_sorts_keys_and_strips_spaces():
    assert stable_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}\n'


def test_stable_json_with_sorts_members_across_both_parts():
    payload = {"element_count": 2, "b": {"z": 1, "a": ["\u00e9"]}}
    texts = {"elements": '[{"a":1},{"b":null}]', "a": "null"}
    whole = {**payload, "elements": [{"a": 1}, {"b": None}], "a": None}
    assert stable_json_with(payload, texts) == stable_json(whole)
    with pytest.raises(ValueError):
        stable_json_with({"x": [0.5]}, texts)


class _Real(float):
    pass


def test_stable_json_rejects_floats():
    with pytest.raises(ValueError):
        stable_json({"x": 0.5})
    with pytest.raises(ValueError):
        stable_json([1, [2.0]])
    for payload in (
        1.5,
        {0.5: "x"},
        {"a": {"b": [1, {"c": (2, 3.0)}]}},
        ("x", (1, (2, -0.0))),
        [{"deep": [[[[float("inf")]]]]}],
        _Real(2),
        {"x": [_Real(1)]},
        {_Real(1): 1},
    ):
        with pytest.raises(ValueError, match="float"):
            stable_json(payload)


def test_stable_json_rejects_records():
    # A record must go through its own JSON form, never out as a bare array.
    with pytest.raises(TypeError):
        stable_json({"x": ClauseResult(name="c", status=PASS)})


def test_stable_json_accepts_bools_and_ints():
    payload = {"flag": True, "off": False, "n": [0, -3, 2**70], "t": (1, "1/2")}
    assert stable_json(payload) == (
        '{"flag":true,"n":[0,-3,1180591620717411303424],"off":false,"t":[1,"1/2"]}\n'
    )


def test_stable_hash_is_deterministic():
    payload = {"levels": {"1": 3, "2": 7}, "m": ["4", "16"]}
    assert stable_hash(payload) == stable_hash(dict(reversed(payload.items())))
    assert stable_hash(payload) != stable_hash({"levels": {}})
