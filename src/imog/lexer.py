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
index and the column a running sum of match lengths. A string with
escapes or without its closing quote is one match as well, and one
`re.sub` decodes its escapes and reports unknown ones. A lone `=` and a
stray character are reported where they are met. Only a word starting
with a non-letter breaks the line's `findall`, after which the rest of
the line is read one match at a time. A token is a plain tuple; its
`SourceSpan` is built only when asked for.
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
# (blanks, word, symbol, string, close, number, comment, other), where a
# string runs to its closing quote (`close`) or the end of the line. No
# token spans lines, so `tokenize` matches one line at a time and no group
# meets a newline. `\w` also holds digits such as '²' and '½' that are not
# letters; a word starting with one is rejected in `tokenize`, as
# identifiers must start with a letter or `_`. Numbers take only decimal
# digits, which `int()` and `float()` accept.
_TOKEN = re.compile(
    r"""([ \t\r]*)
    (?: ([^\W\d]\w*)
      | ([{}\[\]:]|->|<->|[<>=]=?|\.\.)
      | ("[^"\\\n]*(?:\\.?[^"\\\n]*)*("?))
      | (-?\d+(?:\.\d+)?)
      | (//.*)
      | ([^ \t\r\n])
    )""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.?)")

# what each escape in a string decodes to; the store decodes with it too
ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

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

    def unescape(m: re.Match[str]) -> str:
        """One escape of the string at `start`; an unknown one is reported."""
        esc = m[1] or ("\n" if line < len(lines) else "")  # a backslash ends the line
        if esc not in ESCAPES:
            error(f"unknown escape \\{esc}", start, start + 1 + m.start())
        return ESCAPES.get(esc, m[1])

    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        col, groups = 1, findall(text)
        while True:
            for blanks, word, symbol, string, close, number, comment, other in groups:
                col += len(blanks)
                if word:
                    if not (word[0].isalpha() or word[0] == "_"):
                        break
                    kind = KEYWORD if word in keywords else IDENT
                    lexeme, value = word, word
                elif string:
                    lexeme, kind, value = string, STRING, string[1:-1]
                    if not close or "\\" in string:  # the lexeme is rebuilt unescaped
                        start = col
                        value = _ESCAPE.sub(unescape, value if close else string[1:])
                        if not close:
                            error("unterminated string", col, col + len(string) - 1)
                        end = col + len(lexeme)
                        token = (kind, f'"{value}"', value, file, line, col, end - 1)
                        append(new(Token, token))
                        col = end
                        continue
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
                else:  # a lone '=' or a stray character
                    ch = symbol or other
                    error(f"unexpected character {ch!r}", col, col)
                    if ch == "=":  # degrade gracefully
                        append(Token(TokenKind.CMP, "==", "==", file, line, col, col))
                    col += 1
                    continue
                end = col + len(lexeme)
                append(new(Token, (kind, lexeme, value, file, line, col, end - 1)))
                col = end
            else:
                break  # the line is done
            # A word starting with a non-letter, which no regex class tells
            # apart from a letter: its first character is stray, and the
            # rest of the line is read one match at a time after it.
            error(f"unexpected character {word[0]!r}", col, col)
            groups = (m.groups("") for m in _TOKEN.finditer(text, col))
            col += 1
    col = len(text) + 1
    append(Token(TokenKind.EOF, "", None, file, line, col, col))
    return tokens, diagnostics
