"""Reference resolution and cross-perspective consistency checks.

resolve() guarantees that every relation endpoint names an element of a
legal kind; validate() enforces the structure rules (feature forest,
containment level order) and reports the soft obligations (allocation
coverage, goal coverage, checkable requirements) that keep the problem
and solution descriptions connected.
"""

from __future__ import annotations

from . import trace
from .diagnostics import Diagnostic, make, sort_diagnostics
from .model import (
    ElementKind,
    Model,
    Perspective,
    RelationKind,
    TREE_ELEMENT_KINDS,
    feature_forest,
)

_FEATURE_FUNCTION = frozenset({ElementKind.FEATURE, ElementKind.FUNCTION})
_BLOCK = frozenset({ElementKind.BLOCK})

# Legal (source kinds, target kinds) per relation kind. Requires/Excludes
# connect feature-tree elements like the tree edges do.
ENDPOINT_RULES: dict[RelationKind, tuple[frozenset, frozenset]] = {
    RelationKind.REFINES_GOAL: (_FEATURE_FUNCTION, frozenset({ElementKind.GOAL})),
    RelationKind.CONSTRAINS: (
        frozenset({ElementKind.REQUIREMENT}),
        frozenset({ElementKind.FEATURE, ElementKind.FUNCTION, ElementKind.BLOCK}),
    ),
    RelationKind.ALLOCATE: (_FEATURE_FUNCTION, _BLOCK),
    RelationKind.KB_REF: (
        frozenset({ElementKind.BLOCK, ElementKind.VARIANT}),
        frozenset({ElementKind.KNOWLEDGE_ENTRY}),
    ),
    RelationKind.EFFECT: (_BLOCK, _BLOCK),
    RelationKind.CHANNEL_LINK: (_BLOCK, _BLOCK),
    RelationKind.CONTAINS: (_BLOCK, _BLOCK),
    RelationKind.REFERENCES: (_BLOCK, frozenset({ElementKind.VARIANT})),
    RelationKind.MANDATORY: (TREE_ELEMENT_KINDS, TREE_ELEMENT_KINDS),
    RelationKind.OPTIONAL: (TREE_ELEMENT_KINDS, TREE_ELEMENT_KINDS),
    RelationKind.OR_GROUP: (TREE_ELEMENT_KINDS, TREE_ELEMENT_KINDS),
    RelationKind.ALTERNATIVE: (TREE_ELEMENT_KINDS, TREE_ELEMENT_KINDS),
    RelationKind.REQUIRES: (TREE_ELEMENT_KINDS, TREE_ELEMENT_KINDS),
    RelationKind.EXCLUDES: (TREE_ELEMENT_KINDS, TREE_ELEMENT_KINDS),
}


def resolve(model: Model) -> list[Diagnostic]:
    """R-101 for dangling references, R-102 for endpoint-type violations.

    KbRef targets absent from the model are skipped here: they may live
    in the external knowledge store and are the business of check_kbrefs.
    """
    diags: list[Diagnostic] = []
    for index, rel in enumerate(model.relations):
        span = model.span_of(index)
        label = rel.kind.value
        unresolved = False
        for endpoint in rel.endpoints():
            if endpoint in model.elements:
                continue
            if rel.kind is RelationKind.KB_REF and endpoint != rel.source:
                continue
            unresolved = True
            diags.append(
                make(
                    "R-101",
                    f"unresolved reference {endpoint!r} in {label} relation",
                    [endpoint, rel.source],
                    span,
                )
            )
        if unresolved:
            continue
        source_kinds, target_kinds = ENDPOINT_RULES[rel.kind]
        source = model.elements[rel.source]
        if source.kind not in source_kinds:
            diags.append(
                make(
                    "R-102",
                    f"{label} relation cannot start at {source.kind.value} "
                    f"{rel.source!r}",
                    [rel.source],
                    span,
                )
            )
        for target_id in rel.targets:
            target = model.elements.get(target_id)
            if target is None:  # store-backed kbref target
                continue
            if target.kind not in target_kinds:
                diags.append(
                    make(
                        "R-102",
                        f"{label} relation cannot point at {target.kind.value} "
                        f"{target_id!r}",
                        [rel.source, target_id],
                        span,
                    )
                )
    return sort_diagnostics(diags)


def validate(model: Model, *, partial: bool = False) -> list[Diagnostic]:
    """Structure rules and modeling obligations over a resolved model.

    With partial=True (filtered views) the root-feature and
    allocation-completeness checks (R-202, W-202, W-203) are suppressed.
    """
    diags: list[Diagnostic] = []
    diags.extend(_check_forest(model, partial))
    diags.extend(_check_vp_under_orgroup(model))
    diags.extend(_check_contains_levels(model))
    if not partial:
        diags.extend(_check_allocation(model))
    diags.extend(_check_requirement_attrs(model))
    diags.extend(_check_goal_coverage(model))
    diags.extend(_check_empty_perspectives(model))
    return sort_diagnostics(diags)


def _check_forest(model: Model, partial: bool) -> list[Diagnostic]:
    forest = feature_forest(model)
    diags = [
        make(
            "R-201",
            f"{child!r} has {len(ps)} parents in the feature tree",
            [child, *sorted(set(ps))],
            model.span_of(child),
        )
        for child, ps in forest.parents.items()
        if len(ps) > 1
    ]
    if forest.cycle:
        diags.append(
            make(
                "R-201",
                "feature tree contains a cycle: " + " -> ".join(forest.cycle),
                forest.cycle,
                model.span_of(forest.cycle[0]),
            )
        )
    if not partial and len(forest.roots) > 1:
        roots = sorted(forest.roots)
        diags.append(
            make(
                "R-202",
                f"{len(roots)} root features (exactly one expected)",
                roots,
                model.span_of(roots[1]),
            )
        )
    return diags


def _check_vp_under_orgroup(model: Model) -> list[Diagnostic]:
    diags = []
    for index, rel in enumerate(model.relations):
        if rel.kind is not RelationKind.OR_GROUP:
            continue
        for target_id in rel.targets:
            target = model.elements.get(target_id)
            if target is not None and target.kind is ElementKind.VARIATION_POINT:
                diags.append(
                    make(
                        "W-201",
                        f"variation point {target_id!r} is a member of an or-group",
                        [rel.source, target_id],
                        model.span_of(index),
                    )
                )
    return diags


def _check_contains_levels(model: Model) -> list[Diagnostic]:
    diags = []
    for index, rel in enumerate(model.relations):
        if rel.kind is not RelationKind.CONTAINS:
            continue
        parent = model.elements.get(rel.source)
        child = model.elements.get(rel.targets[0])
        if parent is None or child is None:
            continue
        if parent.level is None or child.level is None:
            continue
        if parent.level.rank > child.level.rank:
            diags.append(
                make(
                    "R-203",
                    f"{child.level.value} block {child.id!r} cannot live inside "
                    f"{parent.level.value} block {parent.id!r}",
                    [parent.id, child.id],
                    model.span_of(index),
                )
            )
    return diags


def _check_allocation(model: Model) -> list[Diagnostic]:
    diags = []
    index = model.index
    for e in model.elements.values():
        if e.kind in _FEATURE_FUNCTION and not index.outgoing(
            e.id, RelationKind.ALLOCATE
        ):
            diags.append(
                make(
                    "W-202",
                    f"{e.kind.value} {e.id!r} is not allocated to any solution block",
                    [e.id],
                    model.span_of(e.id),
                )
            )
        elif e.kind is ElementKind.BLOCK and not index.incoming(
            e.id, RelationKind.ALLOCATE, RelationKind.CONTAINS
        ):
            diags.append(
                make(
                    "W-203",
                    f"block {e.id!r} has no incoming allocation and no parent block",
                    [e.id],
                    model.span_of(e.id),
                )
            )
    return diags


def _check_requirement_attrs(model: Model) -> list[Diagnostic]:
    diags = []
    for body in model.requirement_bodies:
        if not body.machine_checkable:
            diags.append(
                make(
                    "W-204",
                    f"requirement {body.owner!r} has no attribute/comparator/bound "
                    "triple and cannot join conflict checking",
                    [body.owner],
                    model.span_of(body.owner),
                )
            )
    return diags


def _check_goal_coverage(model: Model) -> list[Diagnostic]:
    index = model.index
    return [
        make(
            "W-205",
            f"goal {e.id!r} is not referenced by any feature or function",
            [e.id],
            model.span_of(e.id),
        )
        for e in model.elements.values()
        if e.kind is ElementKind.GOAL
        and not index.incoming(e.id, RelationKind.REFINES_GOAL)
    ]


def _check_empty_perspectives(model: Model) -> list[Diagnostic]:
    present = {e.perspective for e in model.elements.values()}
    return [
        make("I-201", f"{perspective.value} perspective is empty")
        for perspective in Perspective
        if perspective not in present
    ]


def check_model(model: Model) -> list[Diagnostic]:
    """resolve + validate + requirement-conflict diagnostics, report-sorted.

    Validation and conflict analysis only run once resolution is clean,
    matching their preconditions.
    """
    diags = resolve(model)
    if any(d.code == "R-101" or d.code == "R-102" for d in diags):
        return sort_diagnostics(diags)
    diags.extend(validate(model))
    diags.extend(trace.conflict_diagnostics(model))
    return sort_diagnostics(diags)
