# The parser as it was before every brace body went through one
# table-driven statement loop, copied literally (only its imports now
# name the `imog` package). tests/test_parser.py holds the current parser
# to the same diagnostics, models and spans on fixture, generated and
# damaged text.
"""Recursive-descent parser for the `.imog` format (imog-dsl v1).

Parsing is total: syntax problems become P-xxx diagnostics and the
parser re-synchronizes at the next statement keyword, skipping balanced
brace groups so one corrupt statement does not poison the rest of the
file. The parsed model is returned only when no error was emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from imog.diagnostics import Diagnostic, SourceSpan, Severity, make, sort_diagnostics
from imog.lexer import Token, TokenKind, tokenize
from imog.model import (
    AbstractionLevel,
    Element,
    ElementKind,
    Model,
    Property,
    Relation,
    RelationKind,
    RequirementBody,
)

_SECTION_WORDS = ("strategy", "functional", "quality", "structural", "knowledge")

_LEVELS = {
    "context": AbstractionLevel.CONTEXT,
    "system": AbstractionLevel.SYSTEM,
    "component": AbstractionLevel.COMPONENT,
}


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
        self.tokens = tokens
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
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _prev_span(self) -> SourceSpan:
        return self.tokens[max(self.pos - 1, 0)].span

    def _span_from(self, start: SourceSpan) -> SourceSpan:
        end = self._prev_span()
        return SourceSpan(
            self.file, start.start_line, start.start_col, end.end_line, end.end_col
        )

    def _describe(self, tok: Token) -> str:
        if tok.kind is TokenKind.EOF:
            return "end of input"
        return repr(tok.lexeme)

    def _error(
        self, message: str, span: SourceSpan | None = None, code: str = "P-001"
    ) -> None:
        self.diagnostics.append(
            make(code, message, span=span or self._peek().span)
        )

    def _fail(self, message: str) -> None:
        self._error(message)
        raise _Recover

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self._peek()
        if tok.kind is kind:
            return self._advance()
        self._fail(f"expected {what}, found {self._describe(tok)}")
        raise AssertionError  # unreachable

    def _expect_word(self, word: str) -> Token:
        tok = self._peek()
        if tok.is_word(word):
            return self._advance()
        self._fail(f"expected '{word}', found {self._describe(tok)}")
        raise AssertionError

    def _ident(self, what: str = "identifier") -> Token:
        tok = self._peek()
        if tok.kind is TokenKind.IDENT:
            return self._advance()
        if tok.kind is TokenKind.KEYWORD:
            self._fail(f"keyword {tok.lexeme!r} cannot be used as an {what}")
        self._fail(f"expected {what}, found {self._describe(tok)}")
        raise AssertionError

    def _word_token(self, what: str) -> Token:
        """A bare token position (property key, attribute, type): keywords allowed."""
        tok = self._peek()
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            return self._advance()
        self._fail(f"expected {what}, found {self._describe(tok)}")
        raise AssertionError

    def _sync(self, words: frozenset[str]) -> None:
        """Skip to the next statement keyword at the current brace depth."""
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.EOF:
                return
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
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
                name_tok = self._expect(TokenKind.STRING, "model name string")
                self.model_name = str(name_tok.value)
                self._expect(TokenKind.LBRACE, "'{'")
                break
            except _Recover:
                if self._peek().kind is not TokenKind.EOF:
                    self._advance()
                self._sync(frozenset({"model"}))
                if self._peek().kind is TokenKind.EOF:
                    return
        sections = frozenset(_SECTION_WORDS)
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.RBRACE:
                self._advance()
                break
            if tok.kind is TokenKind.EOF:
                self._error("unexpected end of input, expected '}'")
                break
            if tok.lexeme == "strategy":
                self._section(tok, self._STRATEGY_STMTS)
            elif tok.lexeme == "functional":
                self._section(tok, self._FUNCTIONAL_STMTS)
            elif tok.lexeme == "quality":
                self._section(tok, self._QUALITY_STMTS)
            elif tok.lexeme == "structural":
                self._section(tok, self._STRUCTURAL_STMTS)
            elif tok.lexeme == "knowledge":
                self._section(tok, self._KNOWLEDGE_STMTS)
            else:
                self._error(f"expected a section, found {self._describe(tok)}")
                self._advance()
                self._sync(sections)
        tail = self._peek()
        if tail.kind is not TokenKind.EOF:
            self._error(
                f"unexpected content after model: {self._describe(tail)}"
            )

    def _section(self, keyword: Token, statements: dict) -> None:
        self._advance()  # section keyword
        try:
            self._expect(TokenKind.LBRACE, "'{'")
        except _Recover:
            self._sync(frozenset(_SECTION_WORDS))
            return
        words = frozenset(statements)
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.RBRACE:
                self._advance()
                return
            if tok.kind is TokenKind.EOF:
                self._error("unexpected end of input, expected '}'")
                return
            handler = statements.get(tok.lexeme)
            if handler is None:
                self._error(f"unexpected token {self._describe(tok)}")
                self._advance()
                self._sync(words)
                continue
            try:
                handler(self)
            except _Recover:
                self._sync(words)

    # --- strategy ---

    def _goal(self) -> None:
        self._named_strategy_element(ElementKind.GOAL, props_allowed=True)

    def _stakeholder(self) -> None:
        self._named_strategy_element(ElementKind.STAKEHOLDER, props_allowed=True)

    def _note(self) -> None:
        self._named_strategy_element(ElementKind.STRATEGY_NOTE, props_allowed=False)

    def _named_strategy_element(self, kind: ElementKind, props_allowed: bool) -> None:
        start = self._advance().span  # statement keyword
        id_tok = self._ident()
        name = str(self._expect(TokenKind.STRING, "name string").value)
        props: tuple[Property, ...] = ()
        if props_allowed and self._looks_like_props():
            props = self._props()
        self._declare(
            Element(id_tok.lexeme, kind, name, properties=props),
            self._span_from(start),
        )

    # --- functional ---

    def _feature(self) -> None:
        self._feature_like(ElementKind.FEATURE)

    def _function(self) -> None:
        self._feature_like(ElementKind.FUNCTION)

    def _feature_like(self, kind: ElementKind) -> None:
        start = self._advance().span
        id_tok = self._ident()
        name = str(self._expect(TokenKind.STRING, "name string").value)
        level = None
        if self._peek().is_word("level"):
            self._advance()
            level = self._level()
        props: tuple[Property, ...] = ()
        if self._looks_like_props():
            props = self._props()
        self._declare(
            Element(id_tok.lexeme, kind, name, level=level, properties=props),
            self._span_from(start),
        )
        if self._peek().kind is TokenKind.LBRACE:
            self._advance()
            self._feature_body(id_tok.lexeme)

    def _feature_body(self, parent: str) -> None:
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.RBRACE:
                self._advance()
                return
            if tok.kind is TokenKind.EOF:
                self._error("unexpected end of input in feature body")
                return
            try:
                if tok.is_word("mandatory"):
                    self._child_rel(parent, RelationKind.MANDATORY)
                elif tok.is_word("optional"):
                    self._child_rel(parent, RelationKind.OPTIONAL)
                elif tok.is_word("orgroup"):
                    self._orgroup(parent)
                elif tok.is_word("alternative"):
                    self._alternative(parent)
                elif tok.is_word("refines_goal"):
                    self._child_rel(parent, RelationKind.REFINES_GOAL)
                else:
                    self._error(f"unexpected token {self._describe(tok)}")
                    self._advance()
                    raise _Recover
            except _Recover:
                self._sync(
                    frozenset(
                        {
                            "mandatory",
                            "optional",
                            "orgroup",
                            "alternative",
                            "refines_goal",
                        }
                    )
                )

    def _child_rel(self, parent: str, kind: RelationKind) -> None:
        start = self._advance().span
        child = self._ident().lexeme
        self._relate(Relation(kind, parent, (child,)), self._span_from(start))

    def _orgroup(self, parent: str) -> None:
        start = self._advance().span
        self._expect(TokenKind.LBRACKET, "'['")
        lo_tok = self._expect(TokenKind.NUMBER, "lower bound")
        self._expect(TokenKind.DOTDOT, "'..'")
        hi_tok = self._expect(TokenKind.NUMBER, "upper bound")
        self._expect(TokenKind.RBRACKET, "']'")
        card_span = SourceSpan(
            self.file,
            lo_tok.span.start_line,
            lo_tok.span.start_col,
            hi_tok.span.end_line,
            hi_tok.span.end_col,
        )
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
                self._span_from(start),
            )

    def _alternative(self, parent: str) -> None:
        start = self._advance().span
        vp_tok = self._ident()
        name = str(self._expect(TokenKind.STRING, "variation point label").value)
        members = self._id_group()
        span = self._span_from(start)
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
        self._expect(TokenKind.LBRACE, "'{'")
        ids = [self._ident().lexeme]
        while self._peek().kind is TokenKind.IDENT:
            ids.append(self._advance().lexeme)
        self._expect(TokenKind.RBRACE, "'}'")
        return ids

    def _requires(self) -> None:
        self._xrel(RelationKind.REQUIRES)

    def _excludes(self) -> None:
        self._xrel(RelationKind.EXCLUDES)

    def _xrel(self, kind: RelationKind) -> None:
        start = self._advance().span
        a = self._ident().lexeme
        self._expect(TokenKind.ARROW, "'->'")
        b = self._ident().lexeme
        self._relate(Relation(kind, a, (b,)), self._span_from(start))

    # --- quality ---

    def _requirement(self) -> None:
        start = self._advance().span
        id_tok = self._ident()
        name = str(self._expect(TokenKind.STRING, "name string").value)
        self._expect_word("on")
        target = self._ident("target id").lexeme
        attribute = comparator = unit = None
        bound: int | float | tuple[float, float] | None = None
        if self._peek().is_word("attr"):
            self._advance()
            attribute = self._word_token("attribute token").lexeme
            attribute, comparator, bound = self._attr_triple(attribute)
            unit = self._optional_unit()
        props: tuple[Property, ...] = ()
        if self._looks_like_props():
            props = self._props()
        span = self._span_from(start)
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
            lo_tok = self._expect(TokenKind.NUMBER, "range lower bound")
            self._expect(TokenKind.DOTDOT, "'..'")
            hi_tok = self._expect(TokenKind.NUMBER, "range upper bound")
            lo, hi = float(lo_tok.value), float(hi_tok.value)
            if lo > hi:
                self._error(
                    f"bad range [{lo_tok.lexeme}..{hi_tok.lexeme}]: low > high",
                    SourceSpan(
                        self.file,
                        lo_tok.span.start_line,
                        lo_tok.span.start_col,
                        hi_tok.span.end_line,
                        hi_tok.span.end_col,
                    ),
                    "P-003",
                )
                raise _Recover
            return attribute, "in", (lo, hi)
        if tok.kind is TokenKind.CMP:
            comparator = self._advance().lexeme
            value = self._expect(TokenKind.NUMBER, "bound").value
            return attribute, comparator, value
        self._fail(f"expected comparator, found {self._describe(tok)}")

    def _optional_unit(self) -> str | None:
        tok = self._peek()
        if tok.kind is TokenKind.IDENT and self._peek(1).kind is not TokenKind.COLON:
            return self._advance().lexeme
        return None

    # --- structural ---

    def _block(self) -> None:
        start = self._advance().span
        id_tok = self._ident()
        name = str(self._expect(TokenKind.STRING, "name string").value)
        self._expect_word("level")
        level = self._level()
        props: tuple[Property, ...] = ()
        if self._looks_like_props():
            props = self._props()
        declared = self._declare(
            Element(
                id_tok.lexeme, ElementKind.BLOCK, name, level=level, properties=props
            ),
            self._span_from(start),
        )
        if self._peek().kind is TokenKind.LBRACE:
            self._advance()
            self._block_body(id_tok.lexeme if declared else None)

    def _block_body(self, block: str | None) -> None:
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.RBRACE:
                self._advance()
                return
            if tok.kind is TokenKind.EOF:
                self._error("unexpected end of input in block body")
                return
            try:
                if tok.is_word("variant"):
                    start = self._advance().span
                    v_tok = self._ident()
                    v_name = str(
                        self._expect(TokenKind.STRING, "name string").value
                    )
                    v_props: tuple[Property, ...] = ()
                    if self._looks_like_props():
                        v_props = self._props()
                    span = self._span_from(start)
                    if (
                        self._declare(
                            Element(
                                v_tok.lexeme,
                                ElementKind.VARIANT,
                                v_name,
                                properties=v_props,
                            ),
                            span,
                        )
                        and block is not None
                    ):
                        self._relate(
                            Relation(
                                RelationKind.REFERENCES, block, (v_tok.lexeme,)
                            ),
                            span,
                        )
                elif tok.is_word("kbref"):
                    start = self._advance().span
                    target = self._ident().lexeme
                    if block is not None:
                        self._relate(
                            Relation(RelationKind.KB_REF, block, (target,)),
                            self._span_from(start),
                        )
                else:
                    self._error(f"unexpected token {self._describe(tok)}")
                    self._advance()
                    raise _Recover
            except _Recover:
                self._sync(frozenset({"variant", "kbref"}))

    def _effect(self) -> None:
        start = self._advance().span
        a = self._ident().lexeme
        self._expect(TokenKind.ARROW, "'->'")
        b = self._ident().lexeme
        label = str(self._expect(TokenKind.STRING, "effect label").value)
        self._relate(
            Relation(RelationKind.EFFECT, a, (b,), label=label),
            self._span_from(start),
        )

    def _channel(self) -> None:
        start = self._advance().span
        a = self._ident().lexeme
        self._expect(TokenKind.BIARROW, "'<->'")
        b = self._ident().lexeme
        label = str(self._expect(TokenKind.STRING, "channel label").value)
        props: tuple[Property, ...] = ()
        if self._looks_like_props():
            props = self._props()
        self._relate(
            Relation(
                RelationKind.CHANNEL_LINK, a, (b,), label=label, properties=props
            ),
            self._span_from(start),
        )

    def _contains(self) -> None:
        start = self._advance().span
        parent = self._ident().lexeme
        children = self._id_group()
        span = self._span_from(start)
        for child in children:
            self._relate(Relation(RelationKind.CONTAINS, parent, (child,)), span)

    def _allocate(self) -> None:
        self._xrel(RelationKind.ALLOCATE)

    # --- knowledge ---

    def _entry(self) -> None:
        start = self._advance().span
        id_tok = self._ident()
        name = str(self._expect(TokenKind.STRING, "name string").value)
        self._expect_word("type")
        type_tok = self._word_token("type token")
        self._expect_word("year")
        year_tok = self._expect(TokenKind.NUMBER, "year")
        if not isinstance(year_tok.value, int) or year_tok.value < 0:
            self._error("year must be a natural number", year_tok.span, "P-003")
            raise _Recover
        props = [
            Property("type", type_tok.lexeme),
            Property("year", year_tok.value),
        ]
        if self._looks_like_props():
            props.extend(self._props(seen={"type", "year"}))
        self._declare(
            Element(
                id_tok.lexeme,
                ElementKind.KNOWLEDGE_ENTRY,
                name,
                properties=tuple(props),
            ),
            self._span_from(start),
        )

    # --- shared pieces ---

    def _level(self) -> AbstractionLevel:
        tok = self._peek()
        if tok.lexeme in _LEVELS:
            self._advance()
            return _LEVELS[tok.lexeme]
        self._fail(
            f"expected abstraction level (context|system|component), "
            f"found {self._describe(tok)}"
        )
        raise AssertionError

    def _looks_like_props(self) -> bool:
        return (
            self._peek().kind is TokenKind.LBRACE
            and self._peek(1).kind in (TokenKind.IDENT, TokenKind.KEYWORD)
            and self._peek(2).kind is TokenKind.COLON
        )

    def _props(self, seen: set[str] | None = None) -> tuple[Property, ...]:
        self._expect(TokenKind.LBRACE, "'{'")
        seen = set() if seen is None else set(seen)
        props: list[Property] = []
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.RBRACE:
                self._advance()
                return tuple(props)
            if tok.kind is TokenKind.EOF:
                self._error("unexpected end of input in property block")
                return tuple(props)
            key_tok = self._word_token("property key")
            self._expect(TokenKind.COLON, "':'")
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
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            return tok.value, self._optional_unit()
        if tok.kind is TokenKind.STRING:
            self._advance()
            return str(tok.value), None
        if tok.is_word("true") or tok.is_word("false"):
            self._advance()
            return tok.lexeme == "true", None
        self._fail(f"expected property value, found {self._describe(tok)}")

    _STRATEGY_STMTS = {
        "goal": _goal,
        "stakeholder": _stakeholder,
        "note": _note,
    }
    _FUNCTIONAL_STMTS = {
        "feature": _feature,
        "function": _function,
        "requires": _requires,
        "excludes": _excludes,
    }
    _QUALITY_STMTS = {"requirement": _requirement}
    _STRUCTURAL_STMTS = {
        "block": _block,
        "effect": _effect,
        "channel": _channel,
        "contains": _contains,
        "allocate": _allocate,
    }
    _KNOWLEDGE_STMTS = {"entry": _entry}


def parse(source: str, file: str = "<string>") -> ParseResult:
    """Parse one model. The model is present iff no error was diagnosed."""
    tokens, lex_diags = tokenize(source, file)
    parser = _Parser(tokens, file)
    parser.parse()
    diags = sort_diagnostics(lex_diags + parser.diagnostics)
    if any(d.severity is Severity.ERROR for d in diags):
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
    p = Path(path)
    return parse(p.read_text(encoding="utf-8"), str(p))
