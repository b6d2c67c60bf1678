"""Traceability analytics over the allocation/constraint graph.

The bridge between problem and solution space is the allocation edge:
requirements placed on features flow to the blocks realizing them, and
blocks additionally inherit the requirements of their containing
ancestors. A conflict is an attribute of one block constrained to an
empty admissible set by two or more requirements with the same unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .diagnostics import Diagnostic, make, sort_diagnostics
from .errors import UnknownElementError
from .model import (
    ElementKind,
    Model,
    ModelIndex,
    RelationKind,
    RequirementBody,
    TREE_KINDS,
)


@dataclass(frozen=True)
class Origin:
    kind: str  # "direct" | "allocation" | "inherited"
    via: str | None = None  # allocated feature, or containing ancestor block

    def describe(self) -> str:
        if self.kind == "direct":
            return "direct"
        if self.kind == "allocation":
            return f"via allocation from {self.via}"
        return f"inherited from {self.via}"


@dataclass(frozen=True)
class Interval:
    """Admissible numeric set of one comparator/bound pair."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def intersect(self, other: "Interval") -> "Interval":
        # larger lower bound wins, open beating closed at a tie
        if (other.lo, other.lo_open) > (self.lo, self.lo_open):
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open
        # smaller upper bound wins, open beating closed at a tie
        if (other.hi, not other.hi_open) < (self.hi, not self.hi_open):
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        lo = "-inf" if self.lo == -math.inf else f"{self.lo:g}"
        hi = "inf" if self.hi == math.inf else f"{self.hi:g}"
        return f"{left}{lo}, {hi}{right}"


def interval_of(body: RequirementBody) -> Interval:
    cmp, bound = body.comparator, body.bound
    if cmp == "in":
        lo, hi = bound  # type: ignore[misc]
        return Interval(float(lo), float(hi))
    b = float(bound)  # type: ignore[arg-type]
    if cmp == "<=":
        return Interval(-math.inf, b)
    if cmp == "<":
        return Interval(-math.inf, b, hi_open=True)
    if cmp == ">=":
        return Interval(b, math.inf)
    if cmp == ">":
        return Interval(b, math.inf, lo_open=True)
    if cmp == "==":
        return Interval(b, b)
    raise ValueError(f"unknown comparator {cmp!r}")


@dataclass(frozen=True)
class ConflictGroup:
    block: str
    attribute: str
    unit: str | None
    requirements: tuple[tuple[str, Origin, Interval], ...]  # (owner, origin, set)


@dataclass(frozen=True)
class TraceReport:
    unallocated: tuple[str, ...]
    unconstrained: tuple[str, ...]
    conflict_groups: tuple[ConflictGroup, ...]
    goal_coverage: dict[str, tuple[str, ...]]


def effective_requirements(
    model: Model, block: str, *, include_inherited: bool = True
) -> list[tuple[RequirementBody, Origin]]:
    """Direct, allocated, and (optionally) containment-inherited requirements.

    Order is deterministic: direct bodies in declaration order, then one
    batch per allocation edge in edge order, then each containing block's
    own effective list in `contains`-edge order, tagged as inherited via
    that immediate parent. A parent already on the walk's path is
    skipped, so containment cycles end.

    Cost: the model index is built once in O(relations + bodies); the
    inherited lists are built once per model from the parents' lists, in
    O(total effective entries), at most blocks x containment depth. That
    is the size of the output the conflict check has to read.
    """
    if block not in model.elements:
        raise UnknownElementError(block)
    if not include_inherited:
        return _own(model.index, block)
    return list(_effective(model, block))


_DIRECT = Origin("direct")


def _own(index: ModelIndex, block: str) -> list[tuple[RequirementBody, Origin]]:
    """Direct bodies, then one batch per allocation edge into the block."""
    out = [(body, _DIRECT) for body in index.bodies_by_target.get(block, ())]
    for _, rel in index.by_target.get(block, ()):
        if rel.kind is RelationKind.ALLOCATE and rel.targets[0] == block:
            origin = Origin("allocation", via=rel.source)
            out.extend(
                (body, origin) for body in index.bodies_by_target.get(rel.source, ())
            )
    return out


def _effective(model: Model, block: str) -> list[tuple[RequirementBody, Origin]]:
    """The shared, cached effective list of one element; do not mutate.

    An explicit stack replaces recursion: a frame is [id, its unvisited
    parents, its list so far, whether its walk is path-independent]. A
    walk that skips a parent for being on the path depends on that path,
    so its list is kept only as the answer to its own top-level query;
    every other list is reused wherever its block is reached again.
    """
    index = model.index
    table, reusable = index.effective, index.path_independent
    if block in table:
        return table[block]

    def frame(node: str) -> list:
        return [node, iter(index.parents.get(node, ())), _own(index, node), True]

    on_path = {block}
    stack = [frame(block)]
    while True:
        top = stack[-1]
        for parent in top[1]:
            if parent in on_path:
                top[3] = False
            elif parent in reusable:
                _inherit(top[2], parent, table[parent])
            else:
                on_path.add(parent)
                stack.append(frame(parent))
                break
        else:
            node, _, out, independent = stack.pop()
            on_path.remove(node)
            if independent or not stack:
                table[node] = out
            if independent:
                reusable.add(node)
            if not stack:
                return out
            _inherit(stack[-1][2], node, out)
            stack[-1][3] &= independent


def _inherit(
    out: list[tuple[RequirementBody, Origin]],
    parent: str,
    entries: list[tuple[RequirementBody, Origin]],
) -> None:
    origin = Origin("inherited", via=parent)
    out.extend((body, origin) for body, _ in entries)


def find_conflicts(model: Model) -> list[ConflictGroup]:
    """Empty-intersection groups per (block, attribute, unit).

    Requirements without a checkable attribute triple are skipped
    (already flagged W-204); different units are never compared.

    Cost: the effective lists of `effective_requirements`, built once per
    model in O(total effective entries), plus one pass over them.
    """
    groups: list[ConflictGroup] = []
    for block in model.elements.values():
        if block.kind is not ElementKind.BLOCK:
            continue
        buckets: dict[tuple[str, str | None], list] = {}
        for body, origin in effective_requirements(model, block.id):
            if not body.machine_checkable:
                continue
            key = (body.attribute, body.unit)
            buckets.setdefault(key, []).append((body, origin))
        for (attribute, unit), entries in sorted(
            buckets.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        ):
            if len(entries) < 2:
                continue
            common = Interval(-math.inf, math.inf)
            for body, _ in entries:
                common = common.intersect(interval_of(body))
            if common.empty:
                groups.append(
                    ConflictGroup(
                        block.id,
                        attribute,
                        unit,
                        tuple(
                            (body.owner, origin, interval_of(body))
                            for body, origin in entries
                        ),
                    )
                )
    return groups


def _unit_mismatches(model: Model) -> list[Diagnostic]:
    diags = []
    for block in model.elements.values():
        if block.kind is not ElementKind.BLOCK:
            continue
        by_attr: dict[str, dict[str | None, list[str]]] = {}
        for body, _ in effective_requirements(model, block.id):
            if not body.machine_checkable:
                continue
            by_attr.setdefault(body.attribute, {}).setdefault(
                body.unit, []
            ).append(body.owner)
        for attribute in sorted(by_attr):
            units = by_attr[attribute]
            if len(units) > 1:
                owners = sorted(o for lst in units.values() for o in lst)
                unit_names = ", ".join(
                    sorted(u if u is not None else "(none)" for u in units)
                )
                diags.append(
                    make(
                        "I-301",
                        f"unit mismatch on attribute {attribute!r} of block "
                        f"{block.id!r} ({unit_names}), not compared",
                        [block.id, *owners],
                        model.span_of(block.id),
                    )
                )
    return diags


def conflict_diagnostics(model: Model) -> list[Diagnostic]:
    """C-301 per conflict group plus I-301 unit-mismatch notes."""
    diags = []
    for group in find_conflicts(model):
        owners = [owner for owner, _, _ in group.requirements]
        unit = f" {group.unit}" if group.unit else ""
        diags.append(
            make(
                "C-301",
                f"requirements on attribute {group.attribute!r}{unit} of block "
                f"{group.block!r} admit no common value: "
                + "; ".join(
                    f"{owner} {origin.describe()} {interval}"
                    for owner, origin, interval in group.requirements
                ),
                [group.block, *owners],
                model.span_of(group.block),
            )
        )
    diags.extend(_unit_mismatches(model))
    return sort_diagnostics(diags)


# Edges whose target meaning can change when the source changes.
def _impact_edges(model: Model) -> dict[str, list[str]]:
    adjacency: dict[str, list[str]] = {}

    def add(a: str, b: str) -> None:
        adjacency.setdefault(a, []).append(b)

    for rel in model.relations:
        if rel.kind in TREE_KINDS:
            for t in rel.targets:
                add(rel.source, t)
        elif rel.kind is RelationKind.REFINES_GOAL:
            add(rel.targets[0], rel.source)  # goal -> refining feature
        elif rel.kind is RelationKind.ALLOCATE:
            add(rel.source, rel.targets[0])
        elif rel.kind is RelationKind.CONSTRAINS:
            add(rel.targets[0], rel.source)  # target -> requirement
        elif rel.kind is RelationKind.CONTAINS:
            add(rel.source, rel.targets[0])
        elif rel.kind is RelationKind.KB_REF:
            add(rel.source, rel.targets[0])
    return adjacency


def impact(model: Model, element_id: str) -> set[str]:
    """Everything transitively downstream of the id, the id excluded."""
    if element_id not in model.elements:
        raise UnknownElementError(element_id)
    adjacency = _impact_edges(model)
    seen = {element_id}
    frontier = [element_id]
    while frontier:
        current = frontier.pop()
        for nxt in adjacency.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    seen.discard(element_id)
    return seen


def coverage_report(model: Model) -> TraceReport:
    """Allocation, requirement, conflict and goal coverage of the model.

    Reads the model index (O(relations + bodies), built once) and the
    shared effective lists, so the cost is that of `find_conflicts`.
    """
    index = model.index
    unallocated = sorted(
        e.id
        for e in model.elements.values()
        if e.kind in (ElementKind.FEATURE, ElementKind.FUNCTION)
        and not index.outgoing(e.id, RelationKind.ALLOCATE)
    )
    unconstrained = sorted(
        e.id
        for e in model.elements.values()
        if e.kind is ElementKind.BLOCK
        and not effective_requirements(model, e.id)
    )
    goal_coverage: dict[str, tuple[str, ...]] = {}
    for goal in sorted(
        e.id for e in model.elements.values() if e.kind is ElementKind.GOAL
    ):
        refiners = sorted(
            rel.source
            for _, rel in index.by_target.get(goal, ())
            if rel.kind is RelationKind.REFINES_GOAL and rel.targets[0] == goal
        )
        goal_coverage[goal] = tuple(refiners)
    groups = sorted(
        find_conflicts(model), key=lambda g: (g.block, g.attribute, g.unit or "")
    )
    return TraceReport(
        tuple(unallocated), tuple(unconstrained), tuple(groups), goal_coverage
    )


def report_to_text(report: TraceReport) -> str:
    """Human-readable coverage table."""
    lines = ["trace report", "============"]
    lines.append("unallocated features/functions:")
    for i in report.unallocated or ("(none)",):
        lines.append(f"  {i}")
    lines.append("blocks without requirements:")
    for i in report.unconstrained or ("(none)",):
        lines.append(f"  {i}")
    lines.append("requirement conflicts:")
    if not report.conflict_groups:
        lines.append("  (none)")
    for g in report.conflict_groups:
        unit = f" [{g.unit}]" if g.unit else ""
        lines.append(f"  {g.block}.{g.attribute}{unit}:")
        for owner, origin, interval in g.requirements:
            lines.append(f"    {owner} ({origin.describe()}) {interval}")
    lines.append("goal coverage:")
    if not report.goal_coverage:
        lines.append("  (none)")
    for goal, refiners in report.goal_coverage.items():
        covered = " ".join(refiners) if refiners else "(uncovered)"
        lines.append(f"  {goal}: {covered}")
    return "\n".join(lines) + "\n"


def report_to_records(report: TraceReport) -> str:
    """Line-delimited machine-readable form of the coverage report."""
    records: list[str] = []
    for i in report.unallocated:
        records.append(json.dumps({"record": "unallocated", "element": i}))
    for i in report.unconstrained:
        records.append(json.dumps({"record": "unconstrained", "element": i}))
    for g in report.conflict_groups:
        records.append(
            json.dumps(
                {
                    "record": "conflict",
                    "block": g.block,
                    "attribute": g.attribute,
                    "unit": g.unit,
                    "requirements": [
                        {
                            "owner": owner,
                            "origin": origin.kind,
                            "via": origin.via,
                            "interval": str(interval),
                        }
                        for owner, origin, interval in g.requirements
                    ],
                }
            )
        )
    for goal, refiners in report.goal_coverage.items():
        records.append(
            json.dumps(
                {"record": "goal", "goal": goal, "refined_by": list(refiners)}
            )
        )
    return "\n".join(records) + ("\n" if records else "")
