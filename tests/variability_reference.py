# The configuration engine as it was before the feature model was compiled
# into a BDD: the backtracker over sorted ids (`_constraints`, `_by_node`,
# `_solutions`, `_satisfiable`), its helpers `_guard_budget` and
# `_require_tree_node`, the four public analyses and the rescanning unit
# propagation, copied literally (only the imports now name the `imog`
# package; `_build_graph`, `_Graph` and the result classes are imported).
# tests/test_variability.py holds the compiled engine to the same counts,
# configurations, dead features and propagation states on random trees.

from __future__ import annotations

from typing import Iterator, Mapping

from imog.errors import BudgetExceededError, UnknownElementError
from imog.model import TREE_ELEMENT_KINDS, Model
from imog.variability import (
    DEFAULT_BUDGET,
    Configuration,
    PropagationState,
    RuleConflict,
    _build_graph,
    _Graph,
)


# --- constraint evaluation over partial assignments --------------------------


def _constraints(graph: _Graph):
    """(check, involved ids) pairs; check returns False when definitely violated."""
    cons = []
    if graph.root is not None:
        root = graph.root

        def root_check(assign, _root=root):
            return assign.get(_root) is not False

        cons.append((root_check, (root,)))
    for p, c in graph.parent_edges:

        def parent_check(assign, p=p, c=c):
            return not (assign.get(c) is True and assign.get(p) is False)

        cons.append((parent_check, (p, c)))
    for p, c in graph.mandatory:

        def mandatory_check(assign, p=p, c=c):
            return not (assign.get(p) is True and assign.get(c) is False)

        cons.append((mandatory_check, (p, c)))
    for parent, members, lo, hi in graph.groups:

        def group_check(assign, parent=parent, members=members, lo=lo, hi=hi):
            selected = undecided = 0
            for m in members:
                v = assign.get(m)
                if v is True:
                    selected += 1
                elif v is None:
                    undecided += 1
            if selected > hi:
                return False
            pv = assign.get(parent)
            if pv is True and selected + undecided < lo:
                return False
            if pv is False and selected > 0:
                return False
            return True

        cons.append((group_check, (parent, *members)))
    for a, b in graph.requires:

        def requires_check(assign, a=a, b=b):
            return not (assign.get(a) is True and assign.get(b) is False)

        cons.append((requires_check, (a, b)))
    for a, b in graph.excludes:

        def excludes_check(assign, a=a, b=b):
            return not (assign.get(a) is True and assign.get(b) is True)

        cons.append((excludes_check, (a, b)))
    return cons


def _by_node(cons, nodes):
    table: dict[str, list] = {n: [] for n in nodes}
    for check, involved in cons:
        for n in involved:
            table[n].append(check)
    return table


def _solutions(
    graph: _Graph, assumptions: Mapping[str, bool] | None = None
) -> Iterator[frozenset[str]]:
    """All valid configurations extending the assumptions, canonical order."""
    order = sorted(graph.nodes)
    cons = _constraints(graph)
    table = _by_node(cons, graph.nodes)
    assign: dict[str, bool | None] = {n: None for n in graph.nodes}
    fixed: dict[str, bool] = dict(assumptions or {})

    def ok(node: str) -> bool:
        return all(check(assign) for check in table[node])

    def choices(node: str) -> Iterator[bool]:
        return iter((fixed[node],) if node in fixed else (True, False))

    if not order:
        yield frozenset()
        return
    # untried[i] holds the values of order[i] still to try: an explicit
    # stack in place of one recursion level per feature
    untried = [choices(order[0])]
    while untried:
        node = order[len(untried) - 1]
        for value in untried[-1]:
            assign[node] = value
            if ok(node):
                break
        else:
            assign[node] = None
            untried.pop()
            continue
        if len(untried) == len(order):
            yield frozenset(n for n, v in assign.items() if v)
        else:
            untried.append(choices(order[len(untried)]))


def _satisfiable(graph: _Graph, assumptions: Mapping[str, bool]) -> bool:
    for _ in _solutions(graph, assumptions):
        return True
    return False


def _guard_budget(graph: _Graph, budget: int) -> None:
    if len(graph.nodes) > budget:
        raise BudgetExceededError(budget, len(graph.nodes))


def _require_tree_node(model: Model, element_id: str) -> None:
    element = model.elements.get(element_id)
    if element is None or element.kind not in TREE_ELEMENT_KINDS:
        raise UnknownElementError(element_id)


# --- public operations --------------------------------------------------------


def count_configurations(model: Model, *, budget: int = DEFAULT_BUDGET) -> int:
    graph = _build_graph(model)
    _guard_budget(graph, budget)
    return sum(1 for _ in _solutions(graph))


def enumerate_configurations(
    model: Model, limit: int | None = None, *, budget: int = DEFAULT_BUDGET
) -> list[Configuration]:
    graph = _build_graph(model)
    _guard_budget(graph, budget)
    # canonical order compares sorted-id tuples positionally, which no
    # fixed variable order streams directly; desk-scale models make
    # materializing acceptable
    configs = list(_solutions(graph))
    configs.sort(key=lambda s: tuple(sorted(s)))
    if limit is not None:
        configs = configs[:limit]
    return [Configuration(s) for s in configs]


def dead_features(model: Model, *, budget: int = DEFAULT_BUDGET) -> set[str]:
    """Ids that appear in no valid configuration."""
    graph = _build_graph(model)
    _guard_budget(graph, budget)
    return {
        node
        for node in graph.nodes
        if not _satisfiable(graph, {node: True})
    }


def propagate(
    model: Model,
    decisions: Mapping[str, bool],
    *,
    budget: int = DEFAULT_BUDGET,
) -> PropagationState:
    """Forced consequences of a partial selection.

    Unit propagation of the semantic rules runs first; within the budget
    the result is then made exact by satisfiability-probing every open
    feature, so forced-in/forced-out match the brute-force semantics.
    Beyond the budget the (sound) unit-propagation fixpoint is returned.
    """
    graph = _build_graph(model)
    for element_id in decisions:
        _require_tree_node(model, element_id)

    value, conflict = _unit_propagation(graph, decisions)

    if conflict is None and len(graph.nodes) <= budget:
        if not _satisfiable(graph, value):
            conflict = RuleConflict(
                "unsatisfiable", tuple(sorted(decisions))
            )
        else:
            for node in sorted(graph.nodes):
                if node in value:
                    continue
                if not _satisfiable(graph, {**value, node: True}):
                    value[node] = False
                elif not _satisfiable(graph, {**value, node: False}):
                    value[node] = True

    forced_in = frozenset(n for n, v in value.items() if v)
    forced_out = frozenset(n for n, v in value.items() if not v)
    open_ids = frozenset(graph.nodes) - forced_in - forced_out
    return PropagationState(forced_in, forced_out, open_ids, conflict)


def _unit_propagation(
    graph: _Graph, decisions: Mapping[str, bool]
) -> tuple[dict[str, bool], RuleConflict | None]:
    value: dict[str, bool] = dict(decisions)
    conflict: RuleConflict | None = None

    def set_value(node: str, v: bool, rule: str, elements: tuple[str, ...]) -> bool:
        nonlocal conflict
        cur = value.get(node)
        if cur is None:
            value[node] = v
            return True
        if cur != v and conflict is None:
            conflict = RuleConflict(rule, elements)
        return False

    changed = True
    while changed and conflict is None:
        changed = False
        if graph.root is not None:
            changed |= set_value(graph.root, True, "root", (graph.root,))
        for p, c in graph.parent_edges:
            if value.get(c) is True:
                changed |= set_value(p, True, "parent", (p, c))
            if value.get(p) is False:
                changed |= set_value(c, False, "parent", (p, c))
        for p, c in graph.mandatory:
            if value.get(p) is True:
                changed |= set_value(c, True, "mandatory", (p, c))
            if value.get(c) is False:
                changed |= set_value(p, False, "mandatory", (p, c))
        for parent, members, lo, hi in graph.groups:
            rule = "alternative" if (lo, hi) == (1, 1) else "orgroup"
            ids = (parent, *members)
            selected = [m for m in members if value.get(m) is True]
            undecided = [m for m in members if value.get(m) is None]
            if len(selected) > hi:
                conflict = conflict or RuleConflict(rule, ids)
                break
            if value.get(parent) is True:
                if len(selected) + len(undecided) < lo:
                    conflict = conflict or RuleConflict(rule, ids)
                    break
                if len(selected) == hi:
                    for m in undecided:
                        changed |= set_value(m, False, rule, ids)
                elif len(selected) + len(undecided) == lo:
                    for m in undecided:
                        changed |= set_value(m, True, rule, ids)
            elif value.get(parent) is False:
                for m in members:
                    if value.get(m) is None:
                        changed |= set_value(m, False, rule, ids)
        for a, b in graph.requires:
            if value.get(a) is True:
                changed |= set_value(b, True, "requires", (a, b))
            if value.get(b) is False:
                changed |= set_value(a, False, "requires", (a, b))
        for a, b in graph.excludes:
            if value.get(a) is True:
                changed |= set_value(b, False, "excludes", (a, b))
            if value.get(b) is True:
                changed |= set_value(a, False, "excludes", (a, b))
    return value, conflict
