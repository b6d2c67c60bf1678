"""Recursive-descent parser for the `.imog` format (imog-dsl v1).

Parsing is total: syntax problems become P-xxx diagnostics and the
parser re-synchronizes at the next statement keyword, skipping balanced
brace groups so one corrupt statement does not poison the rest of the
file. The parsed model is returned only when no error was emitted.

Every brace body (the model, its five sections, feature bodies and
block bodies) is parsed by one statement loop, `_statements`, driven by
a table from statement keyword to handler; the keys of that table are
also the words its recovery syncs to. Nesting is bounded by the grammar
(model, section, body), so no call depth depends on the input.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NoReturn

from .diagnostics import Diagnostic, SourceSpan, has_errors, make, sort_diagnostics
from .errors import ImogError
from .lexer import Token, TokenKind, tokenize
from .model import (
    AbstractionLevel,
    Element,
    ElementKind,
    Model,
    Property,
    Relation,
    RelationKind,
    RequirementBody,
)

# Token kinds as module globals: on Python 3.11 reading a member off the
# Enum class costs about 0.1 µs, ten times a global read, and the parser
# tests kinds on every token.
_IDENT, _KEYWORD, _STRING, _NUMBER = (
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.STRING, TokenKind.NUMBER
)
_LBRACE, _RBRACE, _LBRACKET, _RBRACKET = (
    TokenKind.LBRACE, TokenKind.RBRACE, TokenKind.LBRACKET, TokenKind.RBRACKET
)
_COLON, _ARROW, _BIARROW, _DOTDOT = (
    TokenKind.COLON, TokenKind.ARROW, TokenKind.BIARROW, TokenKind.DOTDOT
)
_CMP, _EOF = TokenKind.CMP, TokenKind.EOF
_WORDS = (_IDENT, _KEYWORD)


@dataclass(frozen=True)
class ParseResult:
    model: Model | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.model is not None


class _Recover(Exception):
    """Internal: unwind to the enclosing statement loop after a diagnostic."""


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        # `_advance` stops at the final EOF and no lookahead reads more
        # than two tokens ahead, so two more EOF tokens keep it in range
        self.tokens = tokens + [tokens[-1]] * 2
        self.file = file
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.elements: dict[str, Element] = {}
        self.relations: list[Relation] = []
        self.bodies: list[RequirementBody] = []
        self.spans: dict[str | int, SourceSpan] = {}
        self.model_name = ""

    # --- token plumbing ---

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    def _span(self, first: Token, last: Token | None = None) -> SourceSpan:
        """From `first` to `last`, by default the last token consumed."""
        if last is None:
            last = self.tokens[self.pos - 1]
        return SourceSpan(self.file, first.line, first.col, last.line, last.end_col)

    def _describe(self, tok: Token) -> str:
        if tok.kind is _EOF:
            return "end of input"
        return repr(tok.lexeme)

    def _error(
        self, message: str, span: SourceSpan | None = None, code: str = "P-001"
    ) -> None:
        self.diagnostics.append(
            make(code, message, span=span or self._peek().span)
        )

    def _fail(
        self, message: str, span: SourceSpan | None = None, code: str = "P-001"
    ) -> NoReturn:
        self._error(message, span, code)
        raise _Recover

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is kind:  # never EOF, so the position may move
            self.pos += 1
            return tok
        self._fail(f"expected {what}, found {self._describe(tok)}")

    def _expect_word(self, word: str) -> Token:
        tok = self._peek()
        if tok.is_word(word):
            return self._advance()
        self._fail(f"expected '{word}', found {self._describe(tok)}")

    def _ident(self, what: str = "identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is _IDENT:
            self.pos += 1
            return tok
        if tok.kind is _KEYWORD:
            self._fail(f"keyword {tok.lexeme!r} cannot be used as an {what}")
        self._fail(f"expected {what}, found {self._describe(tok)}")

    def _word_token(self, what: str) -> Token:
        """A bare token position (property key, attribute, type): keywords allowed."""
        tok = self.tokens[self.pos]
        if tok.kind in _WORDS:
            self.pos += 1
            return tok
        self._fail(f"expected {what}, found {self._describe(tok)}")

    def _sync(self, words: Container[str]) -> None:
        """Skip to the next statement keyword at the current brace depth."""
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind is _EOF:
                return
            if tok.kind is _LBRACE:
                depth += 1
            elif tok.kind is _RBRACE:
                if depth == 0:
                    return
                depth -= 1
            elif depth == 0 and tok.lexeme in words:
                return
            self._advance()

    # --- model registry ---

    def _declare(self, element: Element, span: SourceSpan) -> bool:
        if element.id in self.elements:
            self._error(
                f"duplicate id {element.id!r}",
                span=span,
                code="P-002",
            )
            return False
        self.elements[element.id] = element
        self.spans[element.id] = span
        return True

    def _relate(self, relation: Relation, span: SourceSpan) -> None:
        self.spans[len(self.relations)] = span
        self.relations.append(relation)

    # --- grammar ---

    def parse(self) -> None:
        while True:  # retry the header at each later 'model' word
            try:
                self._expect_word("model")
                name_tok = self._expect(_STRING, "model name string")
                self.model_name = str(name_tok.value)
                self._expect(_LBRACE, "'{'")
                break
            except _Recover:
                if self._peek().kind is not _EOF:
                    self._advance()
                self._sync(("model",))
                if self._peek().kind is _EOF:
                    return
        self._statements(self._SECTIONS, unknown="expected a section, found {}")
        tail = self._peek()
        if tail.kind is not _EOF:
            self._error(
                f"unexpected content after model: {self._describe(tail)}"
            )

    def _statements(
        self,
        handlers: dict,
        owner: str | None = None,
        unknown: str = "unexpected token {}",
        at_eof: str = "unexpected end of input, expected '}'",
    ) -> None:
        """Statements up to and including the closing `}` of a body.

        `handlers` maps each statement keyword to a function taking the
        parser and `owner`, the id of the element whose body this is.
        After a diagnostic, parsing resumes at the next of those keywords
        (or the body's `}`) at this brace depth.
        """
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is _RBRACE:
                self.pos += 1
                return
            if tok.kind is _EOF:
                self._error(at_eof)
                return
            handler = handlers.get(tok.lexeme)
            try:
                if handler is None:
                    self.pos += 1
                    self._fail(unknown.format(self._describe(tok)), tok.span)
                handler(self, owner)
            except _Recover:
                self._sync(handlers)

    def _section(self, _owner: None, statements: dict) -> None:
        self._advance()  # section keyword
        self._expect(_LBRACE, "'{'")
        self._statements(statements)

    # --- strategy ---

    def _named_strategy_element(
        self, _owner: None, kind: ElementKind, props_allowed: bool
    ) -> None:
        start, id_tok, name = self._head()
        props = self._props() if props_allowed else ()
        self._declare(
            Element(id_tok.lexeme, kind, name, properties=props),
            self._span(start),
        )

    # --- functional ---

    def _feature_like(self, _owner: None, kind: ElementKind) -> None:
        start, id_tok, name = self._head()
        level = None
        if self._peek().is_word("level"):
            self._advance()
            level = self._level()
        props = self._props()
        self._declare(
            Element(id_tok.lexeme, kind, name, level=level, properties=props),
            self._span(start),
        )
        if self._peek().kind is _LBRACE:
            self._advance()
            self._statements(
                self._FEATURE_BODY,
                id_tok.lexeme,
                at_eof="unexpected end of input in feature body",
            )

    def _child_rel(self, parent: str, kind: RelationKind) -> None:
        start = self._advance()
        child = self._ident().lexeme
        self._relate(Relation(kind, parent, (child,)), self._span(start))

    def _orgroup(self, parent: str) -> None:
        start = self._advance()
        self._expect(_LBRACKET, "'['")
        lo_tok = self._expect(_NUMBER, "lower bound")
        self._expect(_DOTDOT, "'..'")
        hi_tok = self._expect(_NUMBER, "upper bound")
        self._expect(_RBRACKET, "']'")
        card_span = self._span(lo_tok, hi_tok)
        members = self._id_group()
        ok = True
        if not isinstance(lo_tok.value, int) or not isinstance(hi_tok.value, int):
            self._error("cardinality bounds must be naturals", card_span, "P-003")
            ok = False
        else:
            lo, hi = lo_tok.value, hi_tok.value
            if lo < 1 or lo > hi:
                self._error(
                    f"bad cardinality [{lo}..{hi}]: need 1 <= min <= max",
                    card_span,
                    "P-003",
                )
                ok = False
            elif hi > len(members):
                self._error(
                    f"cardinality [{lo}..{hi}] exceeds the {len(members)} group members",
                    card_span,
                    "P-003",
                )
                ok = False
        if len(members) < 2:
            self._error("or-group needs at least 2 members", card_span, "P-003")
            ok = False
        if ok:
            self._relate(
                Relation(
                    RelationKind.OR_GROUP,
                    parent,
                    tuple(members),
                    cardinality=(lo_tok.value, hi_tok.value),
                ),
                self._span(start),
            )

    def _alternative(self, parent: str) -> None:
        start, vp_tok, name = self._head("variation point label")
        members = self._id_group()
        span = self._span(start)
        if len(members) < 2:
            self._error(
                "variation point needs at least 2 alternatives", span, "P-003"
            )
            return
        if self._declare(
            Element(vp_tok.lexeme, ElementKind.VARIATION_POINT, name), span
        ):
            self._relate(
                Relation(RelationKind.MANDATORY, parent, (vp_tok.lexeme,)), span
            )
            self._relate(
                Relation(
                    RelationKind.ALTERNATIVE,
                    vp_tok.lexeme,
                    tuple(members),
                    label=name,
                ),
                span,
            )

    def _id_group(self) -> list[str]:
        self._expect(_LBRACE, "'{'")
        ids = [self._ident().lexeme]
        while self._peek().kind is _IDENT:
            ids.append(self._advance().lexeme)
        self._expect(_RBRACE, "'}'")
        return ids

    def _xrel(self, _owner: None, kind: RelationKind) -> None:
        start = self._advance()
        a = self._ident().lexeme
        self._expect(_ARROW, "'->'")
        b = self._ident().lexeme
        self._relate(Relation(kind, a, (b,)), self._span(start))

    # --- quality ---

    def _requirement(self, _owner: None) -> None:
        start, id_tok, name = self._head()
        self._expect_word("on")
        target = self._ident("target id").lexeme
        attribute = comparator = unit = None
        bound: int | float | tuple[float, float] | None = None
        if self._peek().is_word("attr"):
            self._advance()
            attribute = self._word_token("attribute token").lexeme
            attribute, comparator, bound = self._attr_triple(attribute)
            unit = self._optional_unit()
        props = self._props()
        span = self._span(start)
        rationale = None
        for p in props:
            if p.key == "rationale" and isinstance(p.value, str):
                rationale = p.value
        if self._declare(
            Element(id_tok.lexeme, ElementKind.REQUIREMENT, name, properties=props),
            span,
        ):
            self._relate(
                Relation(RelationKind.CONSTRAINS, id_tok.lexeme, (target,)), span
            )
            self.bodies.append(
                RequirementBody(
                    owner=id_tok.lexeme,
                    target=target,
                    attribute=attribute,
                    comparator=comparator,
                    bound=bound,
                    unit=unit,
                    rationale=rationale,
                )
            )

    def _attr_triple(self, attribute: str):
        tok = self._peek()
        if tok.is_word("in"):
            self._advance()
            lo_tok = self._expect(_NUMBER, "range lower bound")
            self._expect(_DOTDOT, "'..'")
            hi_tok = self._expect(_NUMBER, "range upper bound")
            lo, hi = float(lo_tok.value), float(hi_tok.value)
            if lo > hi:
                self._fail(
                    f"bad range [{lo_tok.lexeme}..{hi_tok.lexeme}]: low > high",
                    self._span(lo_tok, hi_tok),
                    "P-003",
                )
            return attribute, "in", (lo, hi)
        if tok.kind is _CMP:
            comparator = self._advance().lexeme
            value = self._expect(_NUMBER, "bound").value
            return attribute, comparator, value
        self._fail(f"expected comparator, found {self._describe(tok)}")

    def _optional_unit(self) -> str | None:
        tok = self._peek()
        if tok.kind is _IDENT and self._peek(1).kind is not _COLON:
            return self._advance().lexeme
        return None

    # --- structural ---

    def _block(self, _owner: None) -> None:
        start, id_tok, name = self._head()
        self._expect_word("level")
        level = self._level()
        props = self._props()
        declared = self._declare(
            Element(
                id_tok.lexeme, ElementKind.BLOCK, name, level=level, properties=props
            ),
            self._span(start),
        )
        if self._peek().kind is _LBRACE:
            self._advance()
            self._statements(
                self._BLOCK_BODY,
                id_tok.lexeme if declared else None,
                at_eof="unexpected end of input in block body",
            )

    def _variant(self, block: str | None) -> None:
        start, v_tok, name = self._head()
        props = self._props()
        span = self._span(start)
        if (
            self._declare(
                Element(v_tok.lexeme, ElementKind.VARIANT, name, properties=props),
                span,
            )
            and block is not None
        ):
            self._relate(
                Relation(RelationKind.REFERENCES, block, (v_tok.lexeme,)), span
            )

    def _kbref(self, block: str | None) -> None:
        start = self._advance()
        target = self._ident().lexeme
        if block is not None:
            self._relate(
                Relation(RelationKind.KB_REF, block, (target,)), self._span(start)
            )

    def _effect(self, _owner: None) -> None:
        start = self._advance()
        a = self._ident().lexeme
        self._expect(_ARROW, "'->'")
        b = self._ident().lexeme
        label = str(self._expect(_STRING, "effect label").value)
        self._relate(
            Relation(RelationKind.EFFECT, a, (b,), label=label),
            self._span(start),
        )

    def _channel(self, _owner: None) -> None:
        start = self._advance()
        a = self._ident().lexeme
        self._expect(_BIARROW, "'<->'")
        b = self._ident().lexeme
        label = str(self._expect(_STRING, "channel label").value)
        props = self._props()
        self._relate(
            Relation(
                RelationKind.CHANNEL_LINK, a, (b,), label=label, properties=props
            ),
            self._span(start),
        )

    def _contains(self, _owner: None) -> None:
        start = self._advance()
        parent = self._ident().lexeme
        children = self._id_group()
        span = self._span(start)
        for child in children:
            self._relate(Relation(RelationKind.CONTAINS, parent, (child,)), span)

    # --- knowledge ---

    def _entry(self, _owner: None) -> None:
        start, id_tok, name = self._head()
        self._expect_word("type")
        type_tok = self._word_token("type token")
        self._expect_word("year")
        year_tok = self._expect(_NUMBER, "year")
        if not isinstance(year_tok.value, int) or year_tok.value < 0:
            self._fail("year must be a natural number", year_tok.span, "P-003")
        props = [
            Property("type", type_tok.lexeme),
            Property("year", year_tok.value),
        ]
        props.extend(self._props(seen={"type", "year"}))
        self._declare(
            Element(
                id_tok.lexeme,
                ElementKind.KNOWLEDGE_ENTRY,
                name,
                properties=tuple(props),
            ),
            self._span(start),
        )

    # --- shared pieces ---

    def _head(self, what: str = "name string") -> tuple[Token, Token, str]:
        """`keyword id "name"`, which starts every declaring statement."""
        start = self._advance()
        id_tok = self._ident()
        return start, id_tok, str(self._expect(_STRING, what).value)

    def _level(self) -> AbstractionLevel:
        tok = self._peek()
        try:
            level = AbstractionLevel(tok.lexeme)
        except ValueError:
            self._fail(
                f"expected abstraction level (context|system|component), "
                f"found {self._describe(tok)}"
            )
        self._advance()
        return level

    def _props(self, seen: set[str] | None = None) -> tuple[Property, ...]:
        """A `{ key: value ... }` block; () if the next tokens do not open one."""
        tokens, pos = self.tokens, self.pos
        if not (
            tokens[pos].kind is _LBRACE
            and tokens[pos + 1].kind in _WORDS
            and tokens[pos + 2].kind is _COLON
        ):
            return ()
        self.pos += 1
        seen = set() if seen is None else set(seen)
        props: list[Property] = []
        while True:
            tok = tokens[self.pos]
            if tok.kind is _RBRACE:
                self.pos += 1
                return tuple(props)
            if tok.kind is _EOF:
                self._error("unexpected end of input in property block")
                return tuple(props)
            key_tok = self._word_token("property key")
            self._expect(_COLON, "':'")
            value, unit = self._prop_value()
            if key_tok.lexeme in seen:
                self._error(
                    f"property {key_tok.lexeme!r} redefined",
                    key_tok.span,
                    "P-004",
                )
            else:
                seen.add(key_tok.lexeme)
                props.append(Property(key_tok.lexeme, value, unit))

    def _prop_value(self):
        tok = self._peek()
        if tok.kind is _NUMBER:
            self._advance()
            return tok.value, self._optional_unit()
        if tok.kind is _STRING:
            self._advance()
            return str(tok.value), None
        if tok.is_word("true") or tok.is_word("false"):
            self._advance()
            return tok.lexeme == "true", None
        self._fail(f"expected property value, found {self._describe(tok)}")

    # Statement tables: keyword -> handler(parser, owner). Each table's
    # keys are also the words `_statements` recovers at.
    _FEATURE_BODY = {
        "mandatory": partial(_child_rel, kind=RelationKind.MANDATORY),
        "optional": partial(_child_rel, kind=RelationKind.OPTIONAL),
        "orgroup": _orgroup,
        "alternative": _alternative,
        "refines_goal": partial(_child_rel, kind=RelationKind.REFINES_GOAL),
    }
    _BLOCK_BODY = {"variant": _variant, "kbref": _kbref}
    _STRATEGY = {
        "goal": partial(
            _named_strategy_element, kind=ElementKind.GOAL, props_allowed=True
        ),
        "stakeholder": partial(
            _named_strategy_element, kind=ElementKind.STAKEHOLDER, props_allowed=True
        ),
        "note": partial(
            _named_strategy_element,
            kind=ElementKind.STRATEGY_NOTE,
            props_allowed=False,
        ),
    }
    _FUNCTIONAL = {
        "feature": partial(_feature_like, kind=ElementKind.FEATURE),
        "function": partial(_feature_like, kind=ElementKind.FUNCTION),
        "requires": partial(_xrel, kind=RelationKind.REQUIRES),
        "excludes": partial(_xrel, kind=RelationKind.EXCLUDES),
    }
    _QUALITY = {"requirement": _requirement}
    _STRUCTURAL = {
        "block": _block,
        "effect": _effect,
        "channel": _channel,
        "contains": _contains,
        "allocate": partial(_xrel, kind=RelationKind.ALLOCATE),
    }
    _KNOWLEDGE = {"entry": _entry}
    _SECTIONS = {
        "strategy": partial(_section, statements=_STRATEGY),
        "functional": partial(_section, statements=_FUNCTIONAL),
        "quality": partial(_section, statements=_QUALITY),
        "structural": partial(_section, statements=_STRUCTURAL),
        "knowledge": partial(_section, statements=_KNOWLEDGE),
    }


def parse(source: str, file: str = "<string>") -> ParseResult:
    """Parse one model. The model is present iff no error was diagnosed."""
    tokens, lex_diags = tokenize(source, file)
    parser = _Parser(tokens, file)
    parser.parse()
    diags = sort_diagnostics(lex_diags + parser.diagnostics)
    if has_errors(diags):
        return ParseResult(None, diags)
    model = Model(
        name=parser.model_name,
        elements=parser.elements,
        relations=tuple(parser.relations),
        requirement_bodies=tuple(parser.bodies),
        spans=parser.spans,
    )
    return ParseResult(model, diags)


def parse_file(path: str | Path) -> ParseResult:
    """Parse a UTF-8 file; bytes that are not UTF-8 raise ImogError naming the line."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # exc.object holds the whole file
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise ImogError(f"{p}:{line_no}: not UTF-8 text: {exc.reason}") from None
    return parse(text, str(p))
