"""Canonical pretty-printer for models.

Output is deterministic: sections in fixed order, elements in
declaration order, one relation per line, 2-space indent. Re-parsing
the output yields a structurally equal model, and printing is
idempotent byte-for-byte.
"""

from __future__ import annotations

from .model import (
    Element,
    ElementKind,
    Model,
    Property,
    Relation,
    RelationKind,
    RequirementBody,
)

_IND = "  "

_STRUCTURAL_RELATIONS = (
    RelationKind.EFFECT,
    RelationKind.CHANNEL_LINK,
    RelationKind.CONTAINS,
    RelationKind.ALLOCATE,
)
_STRATEGY_KEYWORD = {
    ElementKind.GOAL: "goal",
    ElementKind.STAKEHOLDER: "stakeholder",
    ElementKind.STRATEGY_NOTE: "note",
}


def escape_string(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return out.replace("\t", "\\t")


def quote(text: str) -> str:
    return f'"{escape_string(text)}"'


def format_number(value: int | float) -> str:
    """The one writer of numbers: exact, with no exponent (the grammar has none).

    A float is its shortest `repr` with the exponent (below 1e-4 and from
    1e16) shifted into the digits; an integral float is an integer below
    1e15 and keeps `.0` above, so that it re-reads as that float.
    """
    if isinstance(value, bool):  # guard: bools are ints
        raise TypeError("booleans are not numbers here")
    if isinstance(value, int):
        return str(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    text = repr(value)
    mantissa, _, exponent = text.partition("e")
    if not exponent:
        return text
    sign, digits = ("-", mantissa[1:]) if value < 0 else ("", mantissa)
    digits = digits.replace(".", "")
    point = int(exponent) + 1  # `repr` puts one digit before its point
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    return f"{sign}{digits.ljust(point, '0')}.0"


def format_bound(body: RequirementBody) -> str:
    """A requirement's bound as written after its comparator; "" if none."""
    if body.bound is None:
        return ""
    if body.comparator == "in":
        lo, hi = body.bound  # type: ignore[misc]
        return f"{format_number(lo)}..{format_number(hi)}"
    return format_number(body.bound)  # type: ignore[arg-type]


def format_value(prop: Property, unit_sep: str = " ") -> str:
    """A property value; the knowledge store joins a unit with no blank."""
    v = prop.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return format_number(v) + (f"{unit_sep}{prop.unit}" if prop.unit else "")
    return quote(v)


class _Printer:
    def __init__(self, model: Model):
        self.model = model
        self.lines: list[str] = []

    def emit(self, depth: int, text: str) -> None:
        self.lines.append(_IND * depth + text)

    def render(self) -> str:
        m = self.model
        self.emit(0, f"model {quote(m.name)} {{")
        self._strategy()
        self._functional()
        self._quality()
        self._structural()
        self._knowledge()
        self.emit(0, "}")
        return "\n".join(self.lines) + "\n"

    def _props_block(self, depth: int, props: tuple[Property, ...], head: str) -> None:
        if not props:
            self.emit(depth, head)
            return
        self.emit(depth, head + " {")
        for p in props:
            self.emit(depth + 1, f"{p.key}: {format_value(p)}")
        self.emit(depth, "}")

    # --- sections ---

    def _strategy(self) -> None:
        elements = self.model.elements_of_kind(*_STRATEGY_KEYWORD)
        if not elements:
            return
        self.emit(1, "strategy {")
        for e in elements:
            head = f"{_STRATEGY_KEYWORD[e.kind]} {e.id} {quote(e.name)}"
            if e.kind is ElementKind.STRATEGY_NOTE:
                self.emit(2, head)
            else:
                self._props_block(2, e.properties, head)
        self.emit(1, "}")

    def _functional(self) -> None:
        nodes = self.model.elements_of_kind(ElementKind.FEATURE, ElementKind.FUNCTION)
        xrels = [
            r
            for r in self.model.relations
            if r.kind in (RelationKind.REQUIRES, RelationKind.EXCLUDES)
        ]
        if not nodes and not xrels:
            return
        self.emit(1, "functional {")
        for e in nodes:
            keyword = "feature" if e.kind is ElementKind.FEATURE else "function"
            self._owner(e, keyword, self._body_relations(e.id), self._frel)
        for r in xrels:
            self.emit(2, f"{r.kind.value} {r.source} -> {r.targets[0]}")
        self.emit(1, "}")

    def _owner(self, e: Element, keyword: str, body: list[Relation], statement) -> None:
        """`e`'s head and properties, then a body of one `statement` per relation."""
        head = f"{keyword} {e.id} {quote(e.name)}"
        if e.level is not None:
            head += f" level {e.level.value}"
        if body and not e.properties:
            self.emit(2, head + " {")
        else:
            self._props_block(2, e.properties, head)
            if not body:
                return
            self.emit(2, "{")
        for rel in body:
            statement(rel)
        self.emit(2, "}")

    def _body_relations(self, parent: str) -> list[Relation]:
        return self.model.index.outgoing(
            parent,
            RelationKind.MANDATORY,
            RelationKind.OPTIONAL,
            RelationKind.OR_GROUP,
            RelationKind.REFINES_GOAL,
        )

    def _frel(self, rel: Relation) -> None:
        if rel.kind is RelationKind.OR_GROUP:
            lo, hi = rel.cardinality or (1, len(rel.targets))
            self.emit(3, f"orgroup [{lo}..{hi}] {{ {' '.join(rel.targets)} }}")
            return
        if rel.kind is RelationKind.MANDATORY:
            target = self.model.lookup(rel.targets[0])
            if target is not None and target.kind is ElementKind.VARIATION_POINT:
                alt = self._alternative_of(target.id)
                if alt is not None:
                    self.emit(
                        3,
                        f"alternative {target.id} {quote(target.name)} "
                        f"{{ {' '.join(alt.targets)} }}",
                    )
                    return
            self.emit(3, f"mandatory {rel.targets[0]}")
            return
        self.emit(3, f"{rel.kind.value} {rel.targets[0]}")

    def _alternative_of(self, vp_id: str) -> Relation | None:
        alternatives = self.model.index.outgoing(vp_id, RelationKind.ALTERNATIVE)
        return alternatives[0] if alternatives else None

    def _quality(self) -> None:
        bodies = self.model.requirement_bodies
        if not bodies:
            return
        self.emit(1, "quality {")
        for body in bodies:
            owner = self.model.lookup(body.owner)
            name = owner.name if owner is not None else body.owner
            props = owner.properties if owner is not None else ()
            head = f"requirement {body.owner} {quote(name)} on {body.target}"
            if body.machine_checkable:
                head += f" attr {body.attribute} {body.comparator} {format_bound(body)}"
                if body.unit:
                    head += f" {body.unit}"
            self._props_block(2, props, head)
        self.emit(1, "}")

    def _structural(self) -> None:
        blocks = self.model.elements_of_kind(ElementKind.BLOCK)
        rels = [r for r in self.model.relations if r.kind in _STRUCTURAL_RELATIONS]
        if not blocks and not rels:
            return
        self.emit(1, "structural {")
        for block in blocks:
            attached = self.model.index.outgoing(
                block.id, RelationKind.REFERENCES, RelationKind.KB_REF
            )
            self._owner(block, "block", attached, self._attached)
        for r in rels:
            if r.kind is RelationKind.EFFECT:
                self.emit(2, f"effect {r.source} -> {r.targets[0]} {quote(r.label or '')}")
            elif r.kind is RelationKind.CHANNEL_LINK:
                head = f"channel {r.source} <-> {r.targets[0]} {quote(r.label or '')}"
                self._props_block(2, r.properties, head)
            elif r.kind is RelationKind.CONTAINS:
                self.emit(2, f"contains {r.source} {{ {r.targets[0]} }}")
            else:
                self.emit(2, f"allocate {r.source} -> {r.targets[0]}")
        self.emit(1, "}")

    def _attached(self, r: Relation) -> None:
        if r.kind is RelationKind.KB_REF:
            self.emit(3, f"kbref {r.targets[0]}")
            return
        variant = self.model.lookup(r.targets[0])
        if variant is not None:
            head = f"variant {variant.id} {quote(variant.name)}"
            self._props_block(3, variant.properties, head)

    def _knowledge(self) -> None:
        entries = self.model.elements_of_kind(ElementKind.KNOWLEDGE_ENTRY)
        if not entries:
            return
        self.emit(1, "knowledge {")
        for e in entries:
            type_value = e.property_value("type")
            year_value = e.property_value("year")
            if not isinstance(type_value, str) or not isinstance(year_value, int):
                raise ValueError(f"knowledge entry {e.id!r} lacks type/year properties")
            rest = tuple(p for p in e.properties if p.key not in ("type", "year"))
            head = f"entry {e.id} {quote(e.name)} type {type_value} year {year_value}"
            self._props_block(2, rest, head)
        self.emit(1, "}")


def print_model(model: Model) -> str:
    """Render the model in canonical `.imog` form."""
    return _Printer(model).render()
