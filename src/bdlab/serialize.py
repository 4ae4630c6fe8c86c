"""Exact-rational codecs and deterministic JSON helpers.

Everything the package writes to disk goes through these helpers so that
repeated runs are byte-identical: rationals travel as ``num/den`` strings
(never floats), and JSON is emitted with sorted keys and fixed separators.

``enumerate --format json`` writes its element records as text, one
template per element shape, and joins them to the other members with
``stable_json_with``.  Each template lists its keys in sorted order with
the separators ``stable_json`` uses; a b record is ``stable_json`` text;
every integer field is written with a ``:d`` format spec, which refuses a
float (``ValueError``) or a ``Fraction`` (``TypeError``), the classes
``stable_json`` raises for them.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``num/den`` (``den`` omitted when 1)."""
    # A Fraction's str is exactly this text.
    return str(value if isinstance(value, Fraction) else Fraction(value))


def parse_rational(text: str | int) -> Fraction:
    """Parse an integer, or a string of ASCII digits with an optional sign
    and ``/den``; spaces may surround it and each part."""
    if isinstance(text, bool):  # bool is an int subclass; reject explicitly
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        if "_" in text or not text.isascii():  # int() reads "1_000" and non-ASCII digits
            raise ValueError(f"not a rational: {text!r}")
        body = text.strip()
        try:
            if "/" in body:
                num, _, den = body.partition("/")
                return Fraction(int(num), int(den))
            return Fraction(int(body))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {text!r}") from None
    raise ValueError(f"not a rational: {text!r}")


def parse_integer(text: str | int) -> int:
    """An integer read as ``parse_rational`` reads it, so no bool and no
    float; a non-integral value is refused, not truncated."""
    value = parse_rational(text)
    if value.denominator != 1:
        raise ValueError(f"not an integer: {text!r}")
    return value.numerator


def stable_json(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace drift, trailing newline."""
    _reject_floats(payload)
    # The walk above would never end on a cyclic payload, so the encoder's
    # own cycle check could never fire.
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False
    ) + "\n"


def stable_json_with(payload: dict[str, Any], texts: dict[str, str]) -> str:
    """``stable_json`` of ``payload`` with more members whose canonical JSON
    text the caller wrote: the bytes ``stable_json`` gives the whole object."""
    members = {key: stable_json(value)[:-1] for key, value in payload.items()}
    members.update(texts)
    return "{" + ",".join(f"{json.dumps(key)}:{members[key]}" for key in sorted(members)) + "}\n"


def stable_hash(payload: Any) -> str:
    return hashlib.sha256(stable_json(payload).encode("ascii")).hexdigest()


def _reject_floats(payload: Any) -> None:
    # Floats silently destroy exactness; fail loudly before they reach disk.
    # One explicit stack instead of one call per node; strings and ints,
    # nearly every node, are settled by one exact-type test.
    stack = [payload]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str or kind is int:
            continue
        if isinstance(item, float):
            raise ValueError("refusing to serialize a float; use format_rational")
        if isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            if hasattr(item, "_fields"):
                # A record would be written as a bare array of its fields.
                raise TypeError(f"refusing to serialize a {kind.__name__} record; use its JSON form")
            stack.extend(item)
