"""Independent brute-force oracles used by the test suite.

The configuration oracle enumerates every subset of the feature-tree
nodes as a bitmask and applies the semantic rules literally; it shares
no code with the package's pruned backtracking search. The conflict
oracle intersects requirement intervals pairwise (for intervals, an
empty joint intersection always shows up in some pair). The reference
effective-requirements walk is the original recursive definition, kept
literally for differential tests of the iterative, memoized one.
"""

from __future__ import annotations

import math
from itertools import combinations

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
                    lo, hi = rel.cardinality
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
