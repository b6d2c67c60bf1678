"""Independent brute-force oracles used by the test suite.

The configuration oracle enumerates every subset of the feature-tree
nodes as a bitmask and applies the semantic rules literally; it shares
no code with the package's pruned backtracking search. The conflict
oracle intersects requirement intervals pairwise (for intervals, an
empty joint intersection always shows up in some pair). The reference
effective-requirements walk is the original recursive definition, kept
literally for differential tests of the iterative, memoized one; the
reference feature-forest checks keep the original recursive cycle
search the same way, and the reference lexer the original
character-at-a-time tokenizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from imog.diagnostics import Diagnostic, SourceSpan, make
from imog.lexer import KEYWORDS, TokenKind
from imog.model import (
    ElementKind,
    Model,
    RelationKind,
    TREE_ELEMENT_KINDS,
    TREE_KINDS,
)


class BruteForce:
    """Literal subset interpreter of the configuration rules."""

    def __init__(self, model: Model):
        self.ids = [
            e.id for e in model.elements.values() if e.kind in TREE_ELEMENT_KINDS
        ]
        self.bit = {i: 1 << k for k, i in enumerate(self.ids)}
        node_set = set(self.ids)
        self.parent_edges: list[tuple[str, str]] = []
        self.mandatory: list[tuple[str, str]] = []
        self.groups: list[tuple[str, list[str], int, int]] = []
        self.requires: list[tuple[str, str]] = []
        self.excludes: list[tuple[str, str]] = []
        for rel in model.relations:
            if rel.kind in TREE_KINDS and rel.source in node_set:
                targets = [t for t in rel.targets if t in node_set]
                for t in targets:
                    self.parent_edges.append((rel.source, t))
                if rel.kind is RelationKind.MANDATORY and targets:
                    self.mandatory.append((rel.source, targets[0]))
                elif rel.kind is RelationKind.OR_GROUP and targets:
                    lo, hi = rel.cardinality or (1, len(targets))
                    self.groups.append((rel.source, targets, lo, hi))
                elif rel.kind is RelationKind.ALTERNATIVE and targets:
                    self.groups.append((rel.source, targets, 1, 1))
            elif rel.kind is RelationKind.REQUIRES:
                if rel.source in node_set and rel.targets[0] in node_set:
                    self.requires.append((rel.source, rel.targets[0]))
            elif rel.kind is RelationKind.EXCLUDES:
                if rel.source in node_set and rel.targets[0] in node_set:
                    self.excludes.append((rel.source, rel.targets[0]))
        children = {c for _, c in self.parent_edges}
        roots = [n for n in self.ids if n not in children]
        self.root = roots[0] if len(roots) == 1 else None
        if len(roots) > 1:
            raise ValueError("oracle needs a single-root tree")

    def is_valid(self, mask: int) -> bool:
        bit = self.bit
        # rule 1: the root is selected
        if self.root is not None and not mask & bit[self.root]:
            return False
        # rule 2: a selected child implies its parent
        for p, c in self.parent_edges:
            if mask & bit[c] and not mask & bit[p]:
                return False
        # rule 3: a selected parent forces mandatory children
        for p, c in self.mandatory:
            if mask & bit[p] and not mask & bit[c]:
                return False
        # rules 4 and 5: group cardinalities ([1..1] for variation points)
        for p, members, lo, hi in self.groups:
            selected = sum(1 for m in members if mask & bit[m])
            if mask & bit[p]:
                if not lo <= selected <= hi:
                    return False
            elif selected != 0:
                return False
        # rule 6: requires
        for a, b in self.requires:
            if mask & bit[a] and not mask & bit[b]:
                return False
        # rule 7: excludes
        for a, b in self.excludes:
            if mask & bit[a] and mask & bit[b]:
                return False
        return True

    def _to_set(self, mask: int) -> frozenset[str]:
        return frozenset(i for i in self.ids if mask & self.bit[i])

    def all_valid(self) -> list[frozenset[str]]:
        return [
            self._to_set(mask)
            for mask in range(1 << len(self.ids))
            if self.is_valid(mask)
        ]

    def count(self) -> int:
        return sum(1 for mask in range(1 << len(self.ids)) if self.is_valid(mask))

    def dead(self) -> set[str]:
        alive: set[str] = set()
        for config in self.all_valid():
            alive |= config
        return set(self.ids) - alive

    def forced(
        self, decisions: dict[str, bool]
    ) -> tuple[set[str], set[str], bool]:
        """(forced_in, forced_out, satisfiable) over all extensions."""
        extensions = [
            config
            for config in self.all_valid()
            if all((i in config) == v for i, v in decisions.items())
        ]
        if not extensions:
            return set(), set(), False
        forced_in = set.intersection(*(set(c) for c in extensions))
        forced_out = set(self.ids) - set.union(*(set(c) for c in extensions))
        return forced_in, forced_out, True


def canonical_order(configs: list[frozenset[str]]) -> list[tuple[str, ...]]:
    return sorted(tuple(sorted(c)) for c in configs)


# --- conflict oracle ------------------------------------------------------------


def _interval(comparator: str, bound) -> tuple[float, float, bool, bool]:
    """(lo, hi, lo_open, hi_open)."""
    if comparator == "in":
        lo, hi = bound
        return float(lo), float(hi), False, False
    b = float(bound)
    return {
        "<=": (-math.inf, b, False, False),
        "<": (-math.inf, b, False, True),
        ">=": (b, math.inf, False, False),
        ">": (b, math.inf, True, False),
        "==": (b, b, False, False),
    }[comparator]


def _disjoint(a, b) -> bool:
    lo_a, hi_a, lo_ao, hi_ao = a
    lo_b, hi_b, lo_bo, hi_bo = b
    if hi_a < lo_b or hi_b < lo_a:
        return True
    if hi_a == lo_b and (hi_ao or lo_bo):
        return True
    if hi_b == lo_a and (hi_bo or lo_ao):
        return True
    return False


def _effective_bodies(model: Model, block: str) -> list:
    """Requirements constraining the block: direct, allocated, inherited."""
    out = []
    frontier = [block]
    seen = set()
    while frontier:
        current = frontier.pop(0)
        if current in seen:
            continue
        seen.add(current)
        feature_sources = [
            rel.source
            for rel in model.relations
            if rel.kind is RelationKind.ALLOCATE and rel.targets[0] == current
        ]
        for body in model.requirement_bodies:
            if body.target == current or body.target in feature_sources:
                out.append(body)
        for rel in model.relations:
            if rel.kind is RelationKind.CONTAINS and rel.targets[0] == current:
                frontier.append(rel.source)
    return out


def conflict_keys(model: Model) -> set[tuple[str, str, str | None]]:
    """(block, attribute, unit) triples with some disjoint requirement pair."""
    keys = set()
    for element in model.elements.values():
        if element.kind is not ElementKind.BLOCK:
            continue
        bodies = [
            b for b in _effective_bodies(model, element.id) if b.machine_checkable
        ]
        for a, b in combinations(bodies, 2):
            if a.attribute != b.attribute or a.unit != b.unit:
                continue
            if _disjoint(
                _interval(a.comparator, a.bound), _interval(b.comparator, b.bound)
            ):
                keys.add((element.id, a.attribute, a.unit))
    return keys


# --- reference effective-requirements walk -------------------------------------


def effective_reference(
    model: Model, block: str, include_inherited: bool = True
) -> list[tuple]:
    """(body, origin kind, via) triples, by the recursive definition.

    Recursion depth is the containment depth: small models only.
    """
    return _effective_walk(model, block, include_inherited, frozenset())


def _effective_walk(
    model: Model, block: str, include_inherited: bool, seen: frozenset[str]
) -> list[tuple]:
    out: list[tuple] = []
    for body in model.requirement_bodies:
        if body.target == block:
            out.append((body, "direct", None))
    for rel in model.relations:
        if rel.kind is RelationKind.ALLOCATE and rel.targets[0] == block:
            feature = rel.source
            for body in model.requirement_bodies:
                if body.target == feature:
                    out.append((body, "allocation", feature))
    if include_inherited:
        seen = seen | {block}
        for rel in model.relations:
            if rel.kind is RelationKind.CONTAINS and rel.targets[0] == block:
                parent = rel.source
                if parent in seen or parent not in model.elements:
                    continue
                for body, _kind, _via in _effective_walk(model, parent, True, seen):
                    out.append((body, "inherited", parent))
    return out


def conflicts_reference(model: Model) -> list[tuple]:
    """(block, attribute, unit, ((owner, kind, via), ...)) per empty group.

    Same grouping and order as the package: blocks in declaration order,
    buckets by (attribute, unit), entries in effective order. Emptiness
    is decided pairwise.
    """
    groups = []
    for element in model.elements.values():
        if element.kind is not ElementKind.BLOCK:
            continue
        buckets: dict[tuple, list] = {}
        for body, kind, via in effective_reference(model, element.id):
            if body.machine_checkable:
                buckets.setdefault((body.attribute, body.unit), []).append(
                    (body, kind, via)
                )
        for (attribute, unit), entries in sorted(
            buckets.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        ):
            if any(
                _disjoint(
                    _interval(a.comparator, a.bound), _interval(b.comparator, b.bound)
                )
                for (a, _, _), (b, _, _) in combinations(entries, 2)
            ):
                groups.append(
                    (
                        element.id,
                        attribute,
                        unit,
                        tuple((body.owner, kind, via) for body, kind, via in entries),
                    )
                )
    return groups


# --- reference feature-forest checks --------------------------------------------


def _tree_edges(model: Model) -> tuple[list[str], list[tuple[str, str]]]:
    nodes = [e.id for e in model.elements.values() if e.kind in TREE_ELEMENT_KINDS]
    node_set = set(nodes)
    edges = [
        (rel.source, t)
        for rel in model.relations
        if rel.kind in TREE_KINDS and rel.source in node_set
        for t in rel.targets
        if t in node_set
    ]
    return nodes, edges


def cycle_reference(model: Model) -> list[str] | None:
    """First feature-tree cycle (closed: a, b, a) by the recursive search.

    Nodes in element order, children in edge order. Recursion depth is
    the tree depth: small models only.
    """
    nodes, edges = _tree_edges(model)
    children: dict[str, list[str]] = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for child in children.get(node, ()):
            if color[child] == GRAY:
                return stack[stack.index(child) :] + [child]
            if color[child] == WHITE:
                found = visit(child)
                if found:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for n in nodes:
        if color[n] == WHITE:
            found = visit(n)
            if found:
                return found
    return None


def tree_error_reference(model: Model) -> str | None:
    """The message variability rejects the tree with, or None if valid.

    Checked in order: a child with several parents (the first such
    child by edge order), a cycle, several roots.
    """
    nodes, edges = _tree_edges(model)
    counts: dict[str, int] = {}
    for _, c in edges:
        counts[c] = counts.get(c, 0) + 1
    for child, count in counts.items():
        if count > 1:
            return f"{child!r} has {count} parents in the feature tree"
    cycle = cycle_reference(model)
    if cycle:
        return f"feature tree contains a cycle through {cycle[0]!r}"
    roots = sorted(n for n in nodes if n not in counts)
    if len(roots) > 1:
        return f"feature tree has {len(roots)} roots: {', '.join(roots)}"
    return None


# --- reference lexer -------------------------------------------------------------
# The original character-at-a-time tokenizer, copied literally so the
# differential test can hold the regex tokenizer to the same tokens,
# spans and P-001 diagnostics. Numbers start and extend with
# `str.isdigit()`, so digits such as '²' make it raise ValueError;
# callers skip inputs on which it raises.


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    value: object  # str for words/strings, int|float for numbers
    span: SourceSpan


_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ":": TokenKind.COLON,
}

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


class ReferenceLexer:
    def __init__(self, source: str, file: str):
        self.source = source
        self.file = file
        self.pos = 0
        self.line = 1
        self.col = 1
        self.diagnostics: list[Diagnostic] = []

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _here(self) -> tuple[int, int]:
        return self.line, self.col

    def _span(self, start: tuple[int, int]) -> SourceSpan:
        end_line, end_col = self.line, self.col - 1
        if (end_line, end_col) < start:
            end_line, end_col = start
        return SourceSpan(self.file, start[0], start[1], end_line, end_col)

    def _error(self, message: str, start: tuple[int, int]) -> None:
        self.diagnostics.append(
            make("P-001", message, span=self._span(start))
        )

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            self._skip_trivia()
            start = self._here()
            ch = self._peek()
            if not ch:
                out.append(
                    Token(TokenKind.EOF, "", None, self._span(start))
                )
                return out
            if ch in _PUNCT:
                self._advance()
                out.append(Token(_PUNCT[ch], ch, ch, self._span(start)))
            elif ch == '"':
                out.append(self._string(start))
            elif ch.isdigit() or (ch == "-" and self._peek(1).isdigit()):
                out.append(self._number(start))
            elif ch.isalpha() or ch == "_":
                out.append(self._word(start))
            elif ch == "-" and self._peek(1) == ">":
                self._advance()
                self._advance()
                out.append(Token(TokenKind.ARROW, "->", "->", self._span(start)))
            elif ch == "<" and self._peek(1) == "-" and self._peek(2) == ">":
                self._advance()
                self._advance()
                self._advance()
                out.append(
                    Token(TokenKind.BIARROW, "<->", "<->", self._span(start))
                )
            elif ch in "<>=" :
                out.append(self._comparator(start))
            elif ch == "." and self._peek(1) == ".":
                self._advance()
                self._advance()
                out.append(Token(TokenKind.DOTDOT, "..", "..", self._span(start)))
            else:
                self._advance()
                self._error(f"unexpected character {ch!r}", start)

    def _skip_trivia(self) -> None:
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _string(self, start: tuple[int, int]) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                self._error("unterminated string", start)
                break
            self._advance()
            if ch == '"':
                break
            if ch == "\\":
                esc = self._peek()
                if esc in _ESCAPES:
                    self._advance()
                    chars.append(_ESCAPES[esc])
                else:
                    self._error(f"unknown escape \\{esc}", start)
            else:
                chars.append(ch)
        text = "".join(chars)
        return Token(TokenKind.STRING, f'"{text}"', text, self._span(start))

    def _number(self, start: tuple[int, int]) -> Token:
        chars: list[str] = []
        if self._peek() == "-":
            chars.append(self._advance())
        while self._peek().isdigit():
            chars.append(self._advance())
        is_float = False
        # a fraction dot must be followed by a digit, so `1..2` stays a range
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            chars.append(self._advance())
            while self._peek().isdigit():
                chars.append(self._advance())
        lexeme = "".join(chars)
        value: int | float = float(lexeme) if is_float else int(lexeme)
        return Token(TokenKind.NUMBER, lexeme, value, self._span(start))

    def _word(self, start: tuple[int, int]) -> Token:
        chars: list[str] = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        lexeme = "".join(chars)
        kind = TokenKind.KEYWORD if lexeme in KEYWORDS else TokenKind.IDENT
        return Token(kind, lexeme, lexeme, self._span(start))

    def _comparator(self, start: tuple[int, int]) -> Token:
        ch = self._advance()
        if self._peek() == "=":
            self._advance()
            op = ch + "="
        else:
            op = ch
        if op == "=":
            self._error("unexpected character '='", start)
            op = "=="  # degrade gracefully
        return Token(TokenKind.CMP, op, op, self._span(start))


def tokenize_reference(
    source: str, file: str
) -> tuple[list[Token], list[Diagnostic]]:
    lexer = ReferenceLexer(source, file)
    toks = lexer.tokens()
    return toks, lexer.diagnostics
