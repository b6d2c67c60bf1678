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
    if isinstance(value, bool):  # guard: bools are ints
        raise TypeError("booleans are not numbers here")
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        # the grammar has no exponent form
        text = f"{value:.12f}".rstrip("0").rstrip(".")
    return text


def _format_prop_value(prop: Property) -> str:
    v = prop.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        text = format_number(v)
        if prop.unit:
            text += f" {prop.unit}"
        return text
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
            self.emit(depth + 1, f"{p.key}: {_format_prop_value(p)}")
        self.emit(depth, "}")

    # --- sections ---

    def _strategy(self) -> None:
        elements = [
            e
            for e in self.model.elements.values()
            if e.kind in _STRATEGY_KEYWORD
        ]
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
        nodes = [
            e
            for e in self.model.elements.values()
            if e.kind in (ElementKind.FEATURE, ElementKind.FUNCTION)
        ]
        xrels = [
            r
            for r in self.model.relations
            if r.kind in (RelationKind.REQUIRES, RelationKind.EXCLUDES)
        ]
        if not nodes and not xrels:
            return
        self.emit(1, "functional {")
        for e in nodes:
            self._feature_like(e)
        for r in xrels:
            self.emit(2, f"{r.kind.value} {r.source} -> {r.targets[0]}")
        self.emit(1, "}")

    def _feature_like(self, e: Element) -> None:
        keyword = "feature" if e.kind is ElementKind.FEATURE else "function"
        head = f"{keyword} {e.id} {quote(e.name)}"
        if e.level is not None:
            head += f" level {e.level.value}"
        body = self._body_relations(e.id)
        if not body:
            self._props_block(2, e.properties, head)
            return
        if e.properties:
            self._props_block(2, e.properties, head)
            self.emit(2, "{")
        else:
            self.emit(2, head + " {")
        for rel in body:
            self._frel(rel)
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
            self.emit(
                3, f"orgroup [{lo}..{hi}] {{ {' '.join(rel.targets)} }}"
            )
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
                head += f" attr {body.attribute} {self._bound(body)}"
                if body.unit:
                    head += f" {body.unit}"
            self._props_block(2, props, head)
        self.emit(1, "}")

    @staticmethod
    def _bound(body: RequirementBody) -> str:
        if body.comparator == "in":
            lo, hi = body.bound  # type: ignore[misc]
            return f"in {format_number(lo)}..{format_number(hi)}"
        return f"{body.comparator} {format_number(body.bound)}"  # type: ignore[arg-type]

    def _structural(self) -> None:
        blocks = [
            e
            for e in self.model.elements.values()
            if e.kind is ElementKind.BLOCK
        ]
        rels = [
            r
            for r in self.model.relations
            if r.kind
            in (
                RelationKind.EFFECT,
                RelationKind.CHANNEL_LINK,
                RelationKind.CONTAINS,
                RelationKind.ALLOCATE,
            )
        ]
        if not blocks and not rels:
            return
        self.emit(1, "structural {")
        for block in blocks:
            self._block(block)
        for r in rels:
            if r.kind is RelationKind.EFFECT:
                self.emit(
                    2,
                    f"effect {r.source} -> {r.targets[0]} {quote(r.label or '')}",
                )
            elif r.kind is RelationKind.CHANNEL_LINK:
                head = (
                    f"channel {r.source} <-> {r.targets[0]} {quote(r.label or '')}"
                )
                self._props_block(2, r.properties, head)
            elif r.kind is RelationKind.CONTAINS:
                self.emit(2, f"contains {r.source} {{ {r.targets[0]} }}")
            else:
                self.emit(2, f"allocate {r.source} -> {r.targets[0]}")
        self.emit(1, "}")

    def _block(self, block: Element) -> None:
        head = f"block {block.id} {quote(block.name)}"
        if block.level is not None:
            head += f" level {block.level.value}"
        attached = self.model.index.outgoing(
            block.id, RelationKind.REFERENCES, RelationKind.KB_REF
        )
        if not attached:
            self._props_block(2, block.properties, head)
            return
        if block.properties:
            self._props_block(2, block.properties, head)
            self.emit(2, "{")
        else:
            self.emit(2, head + " {")
        for r in attached:
            if r.kind is RelationKind.KB_REF:
                self.emit(3, f"kbref {r.targets[0]}")
            else:
                variant = self.model.lookup(r.targets[0])
                if variant is None:
                    continue
                self._props_block(
                    3,
                    variant.properties,
                    f"variant {variant.id} {quote(variant.name)}",
                )
        self.emit(2, "}")

    def _knowledge(self) -> None:
        entries = [
            e
            for e in self.model.elements.values()
            if e.kind is ElementKind.KNOWLEDGE_ENTRY
        ]
        if not entries:
            return
        self.emit(1, "knowledge {")
        for e in entries:
            type_value = e.property_value("type")
            year_value = e.property_value("year")
            if not isinstance(type_value, str) or not isinstance(year_value, int):
                raise ValueError(
                    f"knowledge entry {e.id!r} lacks type/year properties"
                )
            rest = tuple(
                p for p in e.properties if p.key not in ("type", "year")
            )
            head = (
                f"entry {e.id} {quote(e.name)} type {type_value} year {year_value}"
            )
            self._props_block(2, rest, head)
        self.emit(1, "}")


def print_model(model: Model) -> str:
    """Render the model in canonical `.imog` form."""
    return _Printer(model).render()
