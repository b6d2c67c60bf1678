"""Tokenizer for the `.imog` textual format.

Keywords are reserved, lower-case, case-sensitive. `//` comments run to
end of line. An identifier is a letter or `_` followed by letters,
digits or `_`. Numbers are decimal digits with an optional fraction and
no exponent; `1..2` lexes as two numbers around a range separator
because a fraction dot must be followed by a digit. Every reader of
numbers (also the knowledge store and the requirements table) gets the
value from `read_number`, which keeps them in range.

Cost: linear in the source length. No token spans lines (a string
cannot hold a raw newline and a comment ends at one), so the source is
split on newlines and one `findall` per line on a master pattern reads
every token with the blanks before it; the line number is the line's
index and the column a running sum of match lengths. An unusual token
is read on its own, and the rest of its line one match at a time: a
string with escapes or without its closing quote (read one run of
plain characters at a time, in the source, so that the line's newline
ends it), a lone `=`, a word starting with a non-letter, or a stray
character. A token is a plain tuple; its `SourceSpan` is built only
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

# One match per token, with the blanks before it folded in: groups are
# (blanks, word, symbol, string, number, comment, other). No token spans
# lines, so `tokenize` matches one line at a time and no group meets a
# newline. `\w` also holds digits such as '²' and '½' that are not
# letters; a word starting with one is rejected in `tokenize`, as
# identifiers must start with a letter or `_`. Numbers take only decimal
# digits, which `int()` and `float()` accept.
_TOKEN = re.compile(
    r"""([ \t\r]*)
    (?: ([^\W\d]\w*)
      | ([{}\[\]:]|->|<->|[<>=]=?|\.\.)
      | ("[^"\\\n]*")
      | (-?\d+(?:\.\d+)?)
      | (//.*)
      | ([^ \t\r\n])
    )""",
    re.VERBOSE,
)
_PLAIN = re.compile(r'[^"\\\n]*')

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

# In range: at most 308 digits before the point and below 1e308, also as a
# float. So `int()` stays below its 4,300-digit limit, and `format_number`
# writes every value back in range (a double of 1e308 would take 309 digits).
MAX_DIGITS = 308


def read_number(literal: str) -> int | float:
    """A number literal's value, a float iff it has a point; ValueError if out of range."""
    if len(literal) >= MAX_DIGITS:  # a shorter one is in range
        digits = len(literal.partition(".")[0].lstrip("-"))
        if digits > MAX_DIGITS or digits == MAX_DIGITS and abs(float(literal)) >= 1e308:
            message = f"number with {digits} digits before the point is out of range"
            raise ValueError(f"{message} (below 1e308)")
    return float(literal) if "." in literal else int(literal)


def tokenize(source: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append, new, findall = tokens.append, tuple.__new__, _TOKEN.findall
    IDENT, KEYWORD, STRING, NUMBER = (
        TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.STRING, TokenKind.NUMBER
    )
    keywords, symbols = KEYWORDS, _SYMBOLS

    def error(message: str, col: int, end_col: int) -> None:
        span = SourceSpan(file, line, col, line, end_col)
        diagnostics.append(make("P-001", message, span=span))

    offset = 0  # where the line starts in `source`
    for line, text in enumerate(source.split("\n"), 1):
        pos, groups = 0, findall(text)
        while True:
            col = pos + 1
            for blanks, word, symbol, string, number, comment, other in groups:
                col += len(blanks)
                if word:
                    if not (word[0].isalpha() or word[0] == "_"):
                        break
                    kind = KEYWORD if word in keywords else IDENT
                    lexeme, value = word, word
                elif string:
                    lexeme, kind, value = string, STRING, string[1:-1]
                elif symbol and symbol != "=":
                    lexeme, kind, value = symbol, symbols[symbol], symbol
                elif number:
                    try:
                        value = read_number(number)
                    except ValueError as exc:  # no model is returned: 0 will do
                        error(str(exc), col, col + len(number) - 1)
                        value = 0
                    lexeme, kind = number, NUMBER
                elif comment:
                    continue  # it runs to the end of the line
                else:
                    break
                end = col + len(lexeme)
                append(new(Token, (kind, lexeme, value, file, line, col, end - 1)))
                col = end
            else:
                break  # the line is done
            # An unusual token at `col`: a word starting with a non-letter,
            # a lone '=', a stray character, or a string with escapes or
            # without its closing quote.
            ch = (word or symbol or other)[0]
            if ch != '"':
                error(f"unexpected character {ch!r}", col, col)
                if ch == "=":  # degrade gracefully
                    append(Token(TokenKind.CMP, "==", "==", file, line, col, col))
                pos = col
            else:  # read in `source`, where the line's newline ends it
                chars: list[str] = []
                end = offset + col
                while True:
                    run = _PLAIN.match(source, end).end()
                    chars.append(source[end:run])
                    end = run
                    ch = source[end : end + 1]
                    if ch == '"':
                        end += 1
                        break
                    if ch != "\\":
                        error("unterminated string", col, end - offset)
                        break
                    escape = source[end + 1 : end + 2]
                    if escape in _ESCAPES:
                        chars.append(_ESCAPES[escape])
                        end += 2
                    else:
                        end += 1
                        error(f"unknown escape \\{escape}", col, end - offset)
                pos = end - offset
                value = "".join(chars)
                append(Token(STRING, f'"{value}"', value, file, line, col, pos))
            # the rest of the line one match at a time, so that many unusual
            # tokens on one line still cost time linear in its length
            groups = (m.groups() for m in _TOKEN.finditer(text, pos))
        offset += len(text) + 1
    col = len(text) + 1
    append(Token(TokenKind.EOF, "", None, file, line, col, col))
    return tokens, diagnostics
