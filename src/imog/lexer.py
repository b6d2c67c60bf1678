"""Tokenizer for the `.imog` textual format.

Keywords are reserved, lower-case, case-sensitive. `//` comments run to
end of line. An identifier is a letter or `_` followed by letters,
digits or `_`. Numbers are decimal digits with an optional fraction and
no exponent; `1..2` lexes as two numbers around a range separator
because a fraction dot must be followed by a digit.

Cost: linear in the source length. One compiled master pattern (the
`re` module's "Writing a Tokenizer" recipe) makes one match per token
and per run of trivia; only strings with escapes or without their
closing quote take a slower path, one match per run of plain
characters. A token is a plain tuple; its `SourceSpan` is built only
when asked for.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .diagnostics import Diagnostic, SourceSpan, make


KEYWORDS = frozenset(
    {
        "model",
        "strategy",
        "functional",
        "quality",
        "structural",
        "knowledge",
        "goal",
        "stakeholder",
        "note",
        "feature",
        "function",
        "mandatory",
        "optional",
        "orgroup",
        "alternative",
        "refines_goal",
        "requires",
        "excludes",
        "requirement",
        "on",
        "attr",
        "in",
        "block",
        "level",
        "context",
        "system",
        "component",
        "variant",
        "kbref",
        "effect",
        "channel",
        "contains",
        "allocate",
        "entry",
        "type",
        "year",
        "true",
        "false",
    }
)


class TokenKind(Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    STRING = "string"
    NUMBER = "number"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COLON = ":"
    ARROW = "->"
    BIARROW = "<->"
    DOTDOT = ".."
    CMP = "comparator"
    EOF = "end of input"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    value: object  # str for words/strings, int|float for numbers
    file: str
    line: int  # a token never spans lines
    col: int
    end_col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col, self.line, self.end_col)

    def is_word(self, word: str) -> bool:
        return (
            self.kind in (TokenKind.IDENT, TokenKind.KEYWORD)
            and self.lexeme == word
        )


_SYMBOLS = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ":": TokenKind.COLON,
    "->": TokenKind.ARROW,
    "<->": TokenKind.BIARROW,
    "..": TokenKind.DOTDOT,
    **{op: TokenKind.CMP for op in ("<", ">", "<=", ">=", "==")},
}

# `\w` also holds digits such as '²' and '½' that are not letters; a word
# starting with one is rejected in `tokenize`, as identifiers must start
# with a letter or `_`. Numbers take only decimal digits, which `int()`
# and `float()` accept.
_TOKEN = re.compile(
    r"""(?P<trivia>(?:[ \t\r\n]+|//[^\n]*)+)
      | (?P<word>[^\W\d]\w*)
      | (?P<symbol>[{}\[\]:]|->|<->|[<>=]=?|\.\.)
      | (?P<string>"[^"\\\n]*")
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<quote>")
    """,
    re.VERBOSE,
)
_PLAIN = re.compile(r'[^"\\\n]*')

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


def tokenize(source: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    match = _TOKEN.match

    def error(message: str, col: int, end_col: int) -> None:
        span = SourceSpan(file, line, col, line, end_col)
        diagnostics.append(make("P-001", message, span=span))

    pos, line, line_start, size = 0, 1, 0, len(source)
    while pos < size:
        col = pos - line_start + 1
        m = match(source, pos)
        if m is None:
            error(f"unexpected character {source[pos]!r}", col, col)
            pos += 1
            continue
        group, end, text = m.lastgroup, m.end(), m.group()
        if group == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
            pos = end
            continue
        value: object = text
        if group == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                error(f"unexpected character {text[0]!r}", col, col)
                pos += 1
                continue
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        elif group == "symbol":
            if text == "=":
                error("unexpected character '='", col, col)
                text = value = "=="  # degrade gracefully
            kind = _SYMBOLS[text]
        elif group == "string":
            kind, value = TokenKind.STRING, text[1:-1]
        elif group == "number":
            kind, value = TokenKind.NUMBER, float(text) if "." in text else int(text)
        else:  # a string with escapes, or without its closing quote
            chars: list[str] = []
            while True:
                run = _PLAIN.match(source, end).end()
                chars.append(source[end:run])
                end = run
                ch = source[end : end + 1]
                if ch == '"':
                    end += 1
                    break
                if ch != "\\":
                    error("unterminated string", col, end - line_start)
                    break
                escape = source[end + 1 : end + 2]
                if escape in _ESCAPES:
                    chars.append(_ESCAPES[escape])
                    end += 2
                else:
                    end += 1
                    error(f"unknown escape \\{escape}", col, end - line_start)
            value = "".join(chars)
            kind, text = TokenKind.STRING, f'"{value}"'
        append(Token(kind, text, value, file, line, col, end - line_start))
        pos = end
    col = pos - line_start + 1
    append(Token(TokenKind.EOF, "", None, file, line, col, col))
    return tokens, diagnostics
