"""The regex tokenizer against the original character-at-a-time one.

`oracle.tokenize_reference` is the lexer this package used before the
master-pattern tokenizer, kept literally. On every input the reference
lexes without raising, both must give the same tokens (kind, lexeme,
value with its type, span) and the same P-001 diagnostics. Inputs are
the fixtures and goldens, generated models, random strings over the
characters that decide token boundaries, and spliced or overwritten
fixture text. The tokenizer matches one line at a time, so the named
line-boundary cases and a newline-dense random stream pin what happens
where a line ends.
"""

from __future__ import annotations

import random

import pytest

from conftest import FIXTURES
from genmodels import LEXER_ALPHABET, full_model_text
from imog.diagnostics import SourceSpan
from imog.lexer import MAX_DIGITS, TokenKind, read_number, tokenize
from oracle import tokenize_reference


def _lexed(tokenize_fn, source: str):
    tokens, diagnostics = tokenize_fn(source, "lex.imog")
    return (
        [(t.kind, t.lexeme, t.value, type(t.value), t.span) for t in tokens],
        [(d.code, d.message, d.elements, d.span) for d in diagnostics],
    )


def _matches_reference(source: str) -> bool:
    """Assert both lexers agree; False if the reference raises on `source`."""
    try:
        expected = _lexed(tokenize_reference, source)
    except ValueError:  # it reads digits such as '²' into int()
        return False
    assert _lexed(tokenize, source) == expected, repr(source)
    return True


def _corpus() -> list[str]:
    files = sorted(p for p in FIXTURES.rglob("*") if p.is_file())
    texts = [p.read_text(encoding="utf-8") for p in files]
    rng = random.Random(7)
    texts.extend(full_model_text(rng) for _ in range(20))
    return texts


def _random_text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LEXER_ALPHABET) for _ in range(length))


def test_fixtures_goldens_and_generated_models():
    for text in _corpus():
        assert _matches_reference(text)


def test_random_strings():
    rng = random.Random(20)
    compared = sum(
        _matches_reference(_random_text(rng, rng.randint(0, 24))) for _ in range(20000)
    )
    assert compared == 20000


def test_random_newline_dense_strings():
    alphabet = LEXER_ALPHABET + ("\n", "\\", '"') * 8
    rng = random.Random(22)
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 32)))
        assert _matches_reference(text)


# source -> (line, column) of its EOF token
LINE_BOUNDARY_CASES = {
    "backslash ends a line inside a string": ('a "x\\\nb "y"', (2, 6)),
    "backslash ends the source inside a string": ('a\n"x\\', (2, 4)),
    "crlf line breaks": ('model "M" {\r\n}\r\n', (3, 1)),
    "lone carriage return": ('a\rb "c"\r', (1, 9)),
    "last line without a newline": ("a\nb", (2, 2)),
    "empty source": ("", (1, 1)),
    "only newlines": ("\n\n\n", (4, 1)),
    "comment on the last line": ('a\n// end "x', (2, 10)),
    "trailing blanks": ("a  \t\n  b \t ", (2, 7)),
    "form feed mid-line": ('a \f b "c"', (1, 10)),
    "no-break space mid-line": ("a\xa0b: 1", (1, 7)),
    "lone = mid-line": ("x = 1 y", (1, 8)),
    "non-letter word start mid-line": ("a ½b c", (1, 7)),
}


@pytest.mark.parametrize("case", sorted(LINE_BOUNDARY_CASES))
def test_line_boundaries(case):
    source, eof = LINE_BOUNDARY_CASES[case]
    assert _matches_reference(source)
    tokens, _ = tokenize(source, "lex.imog")
    assert (tokens[-1].kind, tokens[-1].line, tokens[-1].col) == (TokenKind.EOF, *eof)


def test_superscript_digit_mid_line():
    # the reference reads '²' into int(), so the expectation is written out
    tokens, diagnostics = tokenize("a ²b = 1", "d.imog")
    assert [(t.kind, t.lexeme, t.col, t.end_col) for t in tokens] == [
        (TokenKind.IDENT, "a", 1, 1),
        (TokenKind.IDENT, "b", 4, 4),
        (TokenKind.CMP, "==", 6, 6),
        (TokenKind.NUMBER, "1", 8, 8),
        (TokenKind.EOF, "", 9, 9),
    ]
    assert [(d.message, d.span.start_col) for d in diagnostics] == [
        ("unexpected character '²'", 3),
        ("unexpected character '='", 6),
    ]


def test_spliced_and_overwritten_fixture_text():
    corpus = _corpus()
    rng = random.Random(21)
    for _ in range(300):
        a, b = rng.choice(corpus), rng.choice(corpus)
        cut_a, cut_b = rng.randint(0, len(a)), rng.randint(0, len(b))
        assert _matches_reference(a[:cut_a] + b[cut_b:])
        i = rng.randint(0, len(a))
        j = min(len(a), i + rng.randint(0, 40))
        assert _matches_reference(a[:i] + _random_text(rng, rng.randint(0, 12)) + a[j:])


def test_non_decimal_digits_inside_identifier_and_decimal_digits_in_numbers():
    tokens, diagnostics = tokenize("a² b½ ١٢.٥", "d.imog")
    assert diagnostics == []
    assert [(t.kind, t.value) for t in tokens[:-1]] == [
        (TokenKind.IDENT, "a²"),
        (TokenKind.IDENT, "b½"),
        (TokenKind.NUMBER, 12.5),
    ]


def test_token_span_is_built_on_request():
    tokens, _ = tokenize('model\n  "M" {', "s.imog")
    name = tokens[1]
    assert (name.line, name.col, name.end_col) == (2, 3, 5)
    assert name.span == SourceSpan("s.imog", 2, 3, 2, 5)
    assert tokens[-1].span == SourceSpan("s.imog", 2, 8, 2, 8)


def test_read_number_keeps_the_type_and_the_range():
    assert [read_number(t) for t in ("0", "-12", "007", "2.50", "-0.5")] == [0, -12, 7, 2.5, -0.5]
    assert type(read_number("2.0")) is float and type(read_number("2")) is int
    longest = "9" * 16 + "0" * (MAX_DIGITS - 16)  # below 1e308
    assert read_number(longest) == int(longest)
    assert read_number("-" + longest + ".9") == -float(longest)
    assert read_number("9" * (MAX_DIGITS - 1)) == int("9" * (MAX_DIGITS - 1))
    for literal, digits in (
        ("9" * 308, 308),  # rounds to 1e308 as a float
        ("-" + "1" * 309, 309),
        ("1" * 5000, 5000),
        ("1" * 400 + ".5", 400),
    ):
        with pytest.raises(ValueError) as exc:
            read_number(literal)
        assert str(exc.value) == (
            f"number with {digits} digits before the point is out of range (below 1e308)"
        )


def test_out_of_range_number_is_one_p001_and_a_placeholder():
    source = f"a {'7' * 5000} b"
    tokens, diagnostics = tokenize(source, "n.imog")
    assert [(t.kind, t.lexeme, t.value) for t in tokens[:-1]] == [
        (TokenKind.IDENT, "a", "a"),
        (TokenKind.NUMBER, "7" * 5000, 0),
        (TokenKind.IDENT, "b", "b"),
    ]
    assert [(d.code, d.span) for d in diagnostics] == [
        ("P-001", SourceSpan("n.imog", 1, 3, 1, 5002))
    ]
    assert "5000 digits" in diagnostics[0].message
