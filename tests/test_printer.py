"""Canonical printer: round-trip, idempotence, exact forms."""

from __future__ import annotations

import random
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

import imog
from conftest import parse_fixture
from genmodels import full_model_text
from imog import check_model, print_model, structurally_equal
from imog.lexer import read_number
from imog.printer import format_number


def test_empty_model_prints_exactly():
    model = imog.parse('model "X" {}').model
    assert print_model(model) == 'model "X" {\n}\n'


def test_fixture_roundtrip():
    for name in ("escooter.imog", "conflict.imog", "conflicts_two.imog",
                 "kbref_late.imog"):
        model = parse_fixture(name).model
        printed = print_model(model)
        reparsed = imog.parse(printed, name)
        assert reparsed.ok, (name, [d.message for d in reparsed.diagnostics])
        assert structurally_equal(model, reparsed.model), name


def test_print_idempotent_on_fixtures():
    for name in ("escooter.imog", "conflict.imog", "conflicts_two.imog"):
        model = parse_fixture(name).model
        once = print_model(model)
        again = print_model(imog.parse(once, name).model)
        assert once == again, name


def test_string_escapes_roundtrip():
    source = 'model "Quo\\"te and \\\\ slash" { strategy { note N "line\\nbreak" } }'
    model = imog.parse(source).model
    assert model.name == 'Quo"te and \\ slash'
    reparsed = imog.parse(print_model(model)).model
    assert structurally_equal(model, reparsed)


def test_number_formatting_roundtrip():
    source = (
        'model "M" { structural { block B "b" level system '
        "{ a: 25 b: 25.5 c: 0.5 d: -3 } } }"
    )
    model = imog.parse(source).model
    reparsed = imog.parse(print_model(model)).model
    assert structurally_equal(model, reparsed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_roundtrip_property(seed):
    rng = random.Random(seed)
    text = full_model_text(rng)
    result = imog.parse(text, "gen.imog")
    assert result.ok, [d.message for d in result.diagnostics]
    model = result.model
    printed = print_model(model)
    reparsed = imog.parse(printed, "printed.imog")
    assert reparsed.ok, [d.message for d in reparsed.diagnostics]
    assert structurally_equal(model, reparsed.model)
    assert print_model(reparsed.model) == printed


# --- numbers: every literal the lexer reads is printed back exactly ---------

_EDGE_FLOATS = [
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-13, 2e-13, 1.23456789e-7, 1e-5,
    0.0001, 0.1, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e15 - 0.5, 1e15, 1e15 + 0.5,
    1e16, 1.2345678901234567e16, 1e22, 1e300, 9.999999999999999e307,
]


def _literal(value: float) -> str:
    """A float's exact decimal text, written independently of the printer."""
    return format(Decimal(repr(value)), "f")


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, min_value=-9.9e307, max_value=9.9e307)
_LITERALS = st.one_of(
    st.sampled_from(_EDGE_FLOATS).map(_literal),
    st.sampled_from(
        [str(2**53 - 1), str(2**53 + 1), "1" + "0" * 299, "-" + "9" * 307, "9" * 16 + "0" * 292]
    ),
    _FLOATS.map(_literal),
    st.integers(min_value=-(10**40), max_value=10**40).map(str),
    st.from_regex(r"\A-?[0-9]{1,300}(\.[0-9]{1,30})?\Z"),
)


def test_format_number_is_byte_identical_where_repr_has_no_exponent():
    for value in (0.5, 25.5, -3.25, 1e-4, 123456.789, 1e15 + 0.5, 9.87654321e15, 1e15):
        assert format_number(value) == repr(value)
    for value in (0.0, -0.0, 25.0, -3.0, 1e14, 999999999999999.0):
        assert format_number(value) == str(int(value))


@settings(max_examples=300, deadline=None)
@given(value=_FLOATS)
def test_format_number_is_exact(value):
    text = format_number(value)
    assert "e" not in text and read_number(text) == value
    assert type(read_number(text)) is (int if value.is_integer() and abs(value) < 1e15 else float)


@settings(max_examples=150, deadline=None)
@given(a=_LITERALS, b=_LITERALS, c=_LITERALS)
def test_number_literals_roundtrip_as_properties_and_bounds(a, b, c):
    lo, hi = sorted((b, c), key=lambda t: float(read_number(t)))
    source = (
        f'model "N" {{ quality {{ '
        f'requirement R1 "r" on B attr x <= {a} A '
        f'requirement R2 "r" on B attr x >= {b} A '
        f'requirement R3 "r" on B attr x in {lo}..{hi} A '
        f'}} structural {{ block B "b" level system {{ n: {a} m: {c} kg }} }} }}'
    )
    result = imog.parse(source)
    assert result.ok, [d.message for d in result.diagnostics]
    model = result.model
    printed = print_model(model)
    reparsed = imog.parse(printed)
    assert reparsed.ok, [d.message for d in reparsed.diagnostics]
    assert structurally_equal(model, reparsed.model)
    assert print_model(reparsed.model) == printed
    codes = [d.code for d in check_model(model)]
    assert codes == [d.code for d in check_model(reparsed.model)]
