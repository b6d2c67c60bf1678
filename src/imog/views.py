"""Level/perspective filters and the exporters.

A filtered view is a genuine sub-model, so every analysis runs on it
unchanged. Exports are deterministic byte-for-byte: DOT graphs, a CSV
requirements table, and a roadmap scaffold following the seven process
steps.
"""

from __future__ import annotations

import csv
import io
import re
from typing import Iterable

from . import trace
from .model import (
    AbstractionLevel,
    Element,
    ElementKind,
    Model,
    Perspective,
    PROCESS_ORDER,
    ProcessStep,
    Relation,
    RelationKind,
    RequirementBody,
    Role,
    step_info,
)
from .lexer import read_number
from .printer import format_bound


def filter_view(
    model: Model,
    levels: Iterable[AbstractionLevel],
    perspectives: Iterable[Perspective],
) -> Model:
    """Sub-model of the given levels and perspectives.

    Elements without a level pass the level filter; a relation survives
    iff every endpoint that exists in the model survives (endpoints that
    live outside the model, e.g. store-backed knowledge references, are
    kept as they are).
    """
    level_set = set(levels)
    perspective_set = set(perspectives)
    if not level_set or not perspective_set:
        raise ValueError("levels and perspectives must be non-empty")

    # a variant has no level of its own: it lives at its block's level
    variant_level: dict[str, AbstractionLevel] = {}
    for rel in model.relations:
        if rel.kind is RelationKind.REFERENCES:
            owner = model.elements.get(rel.source)
            if owner is not None and owner.level is not None:
                variant_level.setdefault(rel.targets[0], owner.level)

    def effective_level(e: Element) -> AbstractionLevel | None:
        if e.level is not None:
            return e.level
        if e.kind is ElementKind.VARIANT:
            return variant_level.get(e.id)
        return None

    kept_elements = {
        e.id: e
        for e in model.elements.values()
        if (effective_level(e) is None or effective_level(e) in level_set)
        and e.perspective in perspective_set
    }

    def endpoint_ok(endpoint: str) -> bool:
        if endpoint in model.elements:
            return endpoint in kept_elements
        return True  # external reference: not ours to filter

    relations: list[Relation] = []
    spans: dict[str | int, object] = {}
    for element_id in kept_elements:
        span = model.spans.get(element_id)
        if span is not None:
            spans[element_id] = span
    for index, rel in enumerate(model.relations):
        if all(endpoint_ok(e) for e in rel.endpoints()):
            span = model.spans.get(index)
            if span is not None:
                spans[len(relations)] = span
            relations.append(rel)
    bodies = tuple(
        b
        for b in model.requirement_bodies
        if b.owner in kept_elements and endpoint_ok(b.target)
    )
    return Model(
        name=model.name,
        elements=kept_elements,
        relations=tuple(relations),
        requirement_bodies=bodies,
        spans=spans,
    )


# --- graph export (DOT) --------------------------------------------------------

_NODE_STYLE: dict[ElementKind, str] = {
    ElementKind.GOAL: 'shape=ellipse, color="darkorange"',
    ElementKind.STAKEHOLDER: 'shape=ellipse, color="gray40"',
    ElementKind.STRATEGY_NOTE: 'shape=note, color="gray40"',
    ElementKind.FEATURE: 'shape=box, color="black"',
    ElementKind.FUNCTION: 'shape=box, style=rounded, color="black"',
    ElementKind.VARIATION_POINT: 'shape=diamond, color="black"',
    ElementKind.REQUIREMENT: 'shape=note, color="brown"',
    ElementKind.BLOCK: 'shape=box, style=filled, fillcolor="lightblue"',
    ElementKind.VARIANT: 'shape=box, style=filled, fillcolor="palegreen"',
    ElementKind.KNOWLEDGE_ENTRY: 'shape=cylinder, color="gray20"',
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _node_line(element: Element) -> str:
    label = f"{element.id}\\n{_dot_escape(element.name)}"
    if element.kind is ElementKind.VARIANT:
        label = "<<Variant>>\\n" + label
    return f'  "{element.id}" [label="{label}", {_NODE_STYLE[element.kind]}];'


_EDGE_STYLE: dict[RelationKind, str] = {
    RelationKind.MANDATORY: 'arrowhead=dot, label="mandatory"',
    RelationKind.OPTIONAL: 'arrowhead=odot, label="optional"',
    RelationKind.REQUIRES: 'style=dashed, label="<<requires>>"',
    RelationKind.EXCLUDES: 'style=dashed, label="<<excludes>>"',
    RelationKind.REFINES_GOAL: 'style=dotted, label="<<references>>"',
    RelationKind.CONSTRAINS: 'style=dotted, label="<<constrains>>"',
    RelationKind.ALLOCATE: 'style=bold, label="<<allocate>>"',
    RelationKind.CONTAINS: 'arrowtail=diamond, dir=both, label="contains"',
    RelationKind.KB_REF: 'style=dotted, label="<<references>>"',
    RelationKind.REFERENCES: "style=dashed, arrowhead=none",
}


def _edge_lines(model: Model, rel: Relation) -> list[str]:
    lines = []
    if rel.kind is RelationKind.EFFECT:
        attrs = f'color="purple", label="<<effect>> {_dot_escape(rel.label or "")}"'
        lines.append(f'  "{rel.source}" -> "{rel.targets[0]}" [{attrs}];')
    elif rel.kind is RelationKind.CHANNEL_LINK:
        attrs = f'dir=both, label="{_dot_escape(rel.label or "")}"'
        lines.append(f'  "{rel.source}" -> "{rel.targets[0]}" [{attrs}];')
    elif rel.kind is RelationKind.OR_GROUP:
        lo, hi = rel.cardinality or (1, len(rel.targets))
        for target in rel.targets:
            lines.append(f'  "{rel.source}" -> "{target}" [label="[{lo}..{hi}]"];')
    elif rel.kind is RelationKind.ALTERNATIVE:
        for target in rel.targets:
            lines.append(f'  "{rel.source}" -> "{target}" [label="alt"];')
    else:
        attrs = _EDGE_STYLE[rel.kind]
        for target in rel.targets:
            lines.append(f'  "{rel.source}" -> "{target}" [{attrs}];')
    return lines


def export_graph(
    model: Model,
    *,
    levels: Iterable[AbstractionLevel] | None = None,
    perspectives: Iterable[Perspective] | None = None,
) -> str:
    """DOT digraph of the (optionally filtered) model.

    Nodes are labeled `id\\nname` and styled by kind; variants carry the
    <<Variant>> stereotype; effects become labeled purple edges.
    """
    view = model
    if levels is not None or perspectives is not None:
        view = filter_view(
            model,
            levels if levels is not None else tuple(AbstractionLevel),
            perspectives if perspectives is not None else tuple(Perspective),
        )
    lines = [f'digraph "{_dot_escape(view.name)}" {{']
    for element in view.elements.values():
        lines.append(_node_line(element))
    for rel in view.relations:
        existing = [t for t in rel.targets if t in view.elements]
        if rel.source not in view.elements or len(existing) != len(rel.targets):
            continue  # store-backed reference: no node to draw
        lines.extend(_edge_lines(view, rel))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- requirements table ---------------------------------------------------------

TABLE_HEADER = tuple(
    "id name target target_perspective attribute comparator bound unit rationale".split()
)


def export_requirements_table(model: Model) -> str:
    """CSV table of the quality perspective, one row per requirement."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for body in sorted(model.requirement_bodies, key=lambda b: b.owner):
        owner = model.lookup(body.owner)
        target = model.lookup(body.target)
        target_perspective = ""
        if target is not None:
            target_perspective = target.perspective.value.capitalize()
        writer.writerow(
            [
                body.owner,
                owner.name if owner else "",
                body.target,
                target_perspective,
                body.attribute or "",
                body.comparator or "",
                format_bound(body),
                body.unit or "",
                body.rationale or "",
            ]
        )
    return buffer.getvalue()


_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?\Z"  # ASCII digits, as `format_number` writes them
_COMPARATORS = frozenset(("<", ">", "<=", ">=", "==", "in"))


def _read_bound(comparator: str, text: str):
    """A bound cell read as the language reads it; ValueError where it would not."""
    if not comparator and not text:
        return None
    parts = text.split("..") if comparator == "in" else [text]
    if (
        comparator not in _COMPARATORS
        or len(parts) != 1 + (comparator == "in")
        or not all(re.match(_NUMBER, part) for part in parts)
    ):
        raise ValueError(f"bad bound {text!r} for comparator {comparator!r}")
    if comparator != "in":
        return read_number(text)
    lo, hi = (float(read_number(part)) for part in parts)
    if lo > hi:
        raise ValueError(f"bad range {text!r}: low > high")
    return lo, hi


def parse_requirements_table(text: str) -> list[RequirementBody]:
    """Inverse of export_requirements_table; a bad bound's ValueError names its row."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or tuple(rows[0]) != TABLE_HEADER:
        raise ValueError("not a requirements table")
    bodies = []
    for row_no, row in enumerate(rows[1:], start=2):
        try:
            owner, _, target, _, attribute, comparator, bound_text, unit, rationale = row
            bound = _read_bound(comparator, bound_text)
        except ValueError as exc:
            raise ValueError(f"requirements table row {row_no}: {exc}") from None
        bodies.append(
            RequirementBody(
                owner=owner,
                target=target,
                attribute=attribute or None,
                comparator=comparator or None,
                bound=bound,  # type: ignore[arg-type]
                unit=unit or None,
                rationale=rationale or None,
            )
        )
    return bodies


# --- roadmap scaffold -----------------------------------------------------------


def _step_status(model: Model, step: ProcessStep) -> str:
    info = step_info(step)
    if isinstance(info.artifact, Perspective):
        count = len(model.elements_of_perspective(info.artifact))
    else:  # the roadmap document builds on the extracted insights
        count = len(model.elements_of_perspective(Perspective.KNOWLEDGE))
    if count == 0:
        return "not started"
    return f"in progress ({count} elements)"


def roadmap_scaffold(model: Model) -> str:
    """Scaffold with one section per process step, in process order."""
    report = trace.coverage_report(model)
    lines = [f"# Roadmap scaffold: {model.name}", ""]
    for number, step in enumerate(PROCESS_ORDER, start=1):
        info = step_info(step)
        lines.append(f"## {number}. {step.value}")
        if info.leader is not None:
            lines.append(f"Leader: {info.leader.value}")
        role_names = [r.value for r in Role if r in info.roles]
        lines.append("Roles: " + ", ".join(role_names))
        if isinstance(info.artifact, Perspective):
            lines.append(
                f"Artifact: {info.artifact.value.capitalize()} Perspective"
            )
        else:
            lines.append(f"Artifact: {info.artifact}")
        lines.append(f"Status: {_step_status(model, step)}")
        if step is ProcessStep.INNOVATION_IDENTIFICATION:
            lines.extend(_strategy_prose(model))
        if step is ProcessStep.SOLUTION_SPACE_EXPLORATION:
            lines.append(f"Unallocated features/functions: {len(report.unallocated)}")
            lines.append(f"Requirement conflicts: {len(report.conflict_groups)}")
        if step is ProcessStep.ROADMAP_WRITING:
            lines.extend(_timeline(model))
        lines.append("")
    return "\n".join(lines)


def _strategy_prose(model: Model) -> list[str]:
    elements = model.elements_of_perspective(Perspective.STRATEGY)
    if not elements:
        return []
    lines = ["Strategy notes:"]
    for e in elements:
        text = e.name
        if e.description:
            text += f" -- {e.description}"
        lines.append(f"  {e.id}: {text}")
    return lines


def _timeline(model: Model) -> list[str]:
    entries = model.elements_of_kind(ElementKind.KNOWLEDGE_ENTRY)
    if not entries:
        return ["Timeline: (no knowledge entries)"]

    def year_of(e: Element) -> int:
        value = e.property_value("year")
        return value if isinstance(value, int) else 0

    lines = ["Timeline:"]
    for e in sorted(entries, key=lambda e: (year_of(e), e.id)):
        lines.append(f"  {year_of(e)}  {e.id}  {e.name}")
    return lines
