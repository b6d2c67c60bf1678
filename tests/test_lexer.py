"""The regex tokenizer against the original character-at-a-time one.

`oracle.tokenize_reference` is the lexer this package used before the
master-pattern tokenizer, kept literally. On every input the reference
lexes without raising, both must give the same tokens (kind, lexeme,
value with its type, span) and the same P-001 diagnostics. Inputs are
the fixtures and goldens, generated models, random strings over the
characters that decide token boundaries, and spliced or overwritten
fixture text.
"""

from __future__ import annotations

import random

from conftest import FIXTURES
from genmodels import LEXER_ALPHABET, full_model_text
from imog.diagnostics import SourceSpan
from imog.lexer import TokenKind, tokenize
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
