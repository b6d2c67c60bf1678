"""Configuration semantics of the feature tree and its analyses.

A configuration (a set of selected features/functions/variation points)
is valid iff: (1) the root is selected; (2) a selected child implies its
parent; (3) a selected parent forces its mandatory children; (4) an
or-group [m..n] has between m and n selected members when its parent is
selected, none otherwise; (5) a variation point selects exactly one
alternative when selected, none otherwise; (6) requires a->b forces b
with a; (7) excludes a->b forbids selecting both.

Every analysis within the budget compiles the tree and its cross-tree
rules once into a reduced ordered BDD (Bryant, IEEE TC 1986) whose
variables are the ids in sorted order, and reads its answer off that one
structure (the operations catalogued by Benavides et al., IS 2010): the
count from weighted path counts, dead features and exact propagation
from one pass that records which values each level takes on paths to 1,
and the configurations by one walk in canonical order, lexicographic
over the sorted tuple of selected ids (so a configuration precedes its
proper extensions), with nothing sorted. Each pass is linear in the BDD
size, and a limited enumeration costs O(n) per configuration returned.

The BDD can grow exponentially with the number of ids; the budget guard
(DEFAULT_BUDGET ids) keeps it at desk scale. The sorted-id order is
chosen so enumeration is one direct walk, at the price of a larger
diagram and more work where the tree's depth-first order would be
smaller: a 3000-deep `mandatory` chain (library callers only,
budget=3000) takes about 0.5 s to compile on a 2-vCPU machine. Beyond
the budget only `propagate` answers, with unit propagation alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

from .errors import (
    BudgetExceededError,
    InvalidFeatureTreeError,
    UnknownElementError,
)
from .model import (
    ElementKind,
    Model,
    RelationKind,
    TREE_ELEMENT_KINDS,
    feature_forest,
)

DEFAULT_BUDGET = 24


@dataclass(frozen=True)
class Configuration:
    selected: frozenset[str]

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.selected))


@dataclass(frozen=True)
class RuleConflict:
    rule: str
    elements: tuple[str, ...]


@dataclass(frozen=True)
class PropagationState:
    forced_in: frozenset[str]
    forced_out: frozenset[str]
    open: frozenset[str]
    conflict: RuleConflict | None = None


class _Graph(NamedTuple):
    """The feature tree's rules, as the engines read them (a NamedTuple:
    every command imports this module, and a frozen dataclass costs
    about 1.6 ms of that import, against 0.2 ms)."""

    nodes: tuple[str, ...]
    root: str | None
    parent_edges: tuple[tuple[str, str], ...]
    mandatory: tuple[tuple[str, str], ...]
    groups: tuple[tuple[str, tuple[str, ...], int, int], ...]  # incl. alternatives
    requires: tuple[tuple[str, str], ...]
    excludes: tuple[tuple[str, str], ...]


def _build_graph(model: Model) -> _Graph:
    forest = feature_forest(model)
    for child, ps in forest.parents.items():
        if len(ps) > 1:
            raise InvalidFeatureTreeError(
                f"{child!r} has {len(ps)} parents in the feature tree"
            )
    if forest.cycle:
        raise InvalidFeatureTreeError(
            f"feature tree contains a cycle through {forest.cycle[0]!r}"
        )
    if len(forest.roots) > 1:
        raise InvalidFeatureTreeError(
            f"feature tree has {len(forest.roots)} roots: "
            f"{', '.join(sorted(forest.roots))}"
        )
    node_set = set(forest.nodes)
    mandatory: list[tuple[str, str]] = []
    groups: list[tuple[str, tuple[str, ...], int, int]] = []
    requires: list[tuple[str, str]] = []
    excludes: list[tuple[str, str]] = []
    for rel in model.relations:
        if rel.source not in node_set:
            continue
        if rel.kind in (RelationKind.REQUIRES, RelationKind.EXCLUDES):
            if rel.targets[0] in node_set:
                pairs = requires if rel.kind is RelationKind.REQUIRES else excludes
                pairs.append((rel.source, rel.targets[0]))
            continue
        targets = tuple(t for t in rel.targets if t in node_set)
        if not targets:
            continue
        if rel.kind is RelationKind.MANDATORY:
            mandatory.append((rel.source, targets[0]))
        elif rel.kind is RelationKind.OR_GROUP:
            lo, hi = rel.cardinality or (1, len(targets))
            groups.append((rel.source, targets, lo, hi))
        elif rel.kind is RelationKind.ALTERNATIVE:
            groups.append((rel.source, targets, 1, 1))
    return _Graph(
        forest.nodes,
        forest.roots[0] if forest.roots else None,
        forest.edges,
        tuple(mandatory),
        tuple(groups),
        tuple(requires),
        tuple(excludes),
    )


# --- the compiled configuration space ----------------------------------------


class _Space:
    """The feature model compiled into one reduced ordered BDD.

    Level i decides ids[i], the i-th id in sorted order. Node k is the
    triple nodes[k] = (level, low, high); 0 and 1 are the terminals, at
    level n. mk creates children before their parents, so node ids are
    already in bottom-up order and every analysis is one pass over the
    list. Each rule is built directly as a small BDD (literals, two-literal
    clauses, an equality per mandatory child and a layered counter per
    group, Een & Sorensson 2006), and the rules are conjoined deepest top
    level first. Ids in `fixed` join the rules as literals, so the root
    is the space restricted to them.
    """

    def __init__(self, graph: _Graph, fixed: Mapping[str, bool] | None = None):
        ids = self.ids = sorted(graph.nodes)
        level = {node: i for i, node in enumerate(ids)}
        self.nodes = [(len(ids), 0, 0), (len(ids), 1, 1)]
        self.unique: dict[tuple[int, int, int], int] = {}
        # a mandatory child and a group's members carry their child ->
        # parent clause in their own rule
        covered = set(graph.mandatory)
        covered.update((p, m) for p, members, _, _ in graph.groups for m in members)
        rules = [
            self.clause(level[c], False, level[p], True)
            for p, c in graph.parent_edges
            if (p, c) not in covered
        ]
        rules += [self.equal(level[p], level[c]) for p, c in graph.mandatory]
        rules += [self.clause(level[a], False, level[b], True) for a, b in graph.requires]
        rules += [self.clause(level[a], False, level[b], False) for a, b in graph.excludes]
        for parent, members, lo, hi in graph.groups:
            rules.append(self.group(level[parent], [level[m] for m in members], lo, hi))
        if graph.root is not None:
            rules.append(self.literal(level[graph.root], True))
        rules += [self.literal(level[node], v) for node, v in (fixed or {}).items()]
        # deepest top level first, then neighbours pairwise (an odd one
        # out is the deepest): each product stays local, where conjoining
        # into one growing BDD rescans it
        rules.sort(key=lambda k: self.nodes[k][0], reverse=True)
        while len(rules) > 1:
            odd = len(rules) % 2
            rules[odd:] = [
                self.conj(rules[i], rules[i + 1])
                for i in range(odd, len(rules) - 1, 2)
            ]
        self.root = rules[0] if rules else 1

    def mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self.unique.get(key)
        if node is None:
            node = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
        return node

    def literal(self, a: int, v: bool) -> int:
        """Level a is v."""
        return self.mk(a, 0, 1) if v else self.mk(a, 1, 0)

    def clause(self, a: int, va: bool, b: int, vb: bool) -> int:
        """(level a is va) or (level b is vb)."""
        if a > b:
            a, va, b, vb = b, vb, a, va
        if a == b:
            return self.literal(a, va) if va == vb else 1
        other = self.literal(b, vb)
        return self.mk(a, other, 1) if va else self.mk(a, 1, other)

    def equal(self, a: int, b: int) -> int:
        """Levels a and b take the same value (a != b)."""
        if a > b:
            a, b = b, a
        return self.mk(a, self.literal(b, False), self.literal(b, True))

    def group(self, parent: int, members: list[int], lo: int, hi: int) -> int:
        """Parent on and lo <= #members on <= hi, or parent and members off.

        A layered counter: below the last member, state c is the count
        so far, capped at hi + 1, and each member level moves c to c or
        c + 1. The parent's low branch needs c = 0 and every member
        below it off.
        """
        cap = max(hi + 1, 0)
        above = len(members)
        layer = [int(lo <= c <= hi) for c in range(min(above, cap) + 1)]
        off = 1  # every member below is off
        for v in sorted([*members, parent], reverse=True):
            if v == parent:
                layer = [self.mk(v, 0 if c else off, node) for c, node in enumerate(layer)]
            else:
                above -= 1
                off = self.mk(v, off, 0)
                layer = [
                    self.mk(v, layer[c], layer[min(c + 1, cap)])
                    for c in range(min(above, cap) + 1)
                ]
        return layer[0]

    def conj(self, f: int, g: int) -> int:
        """f AND g, with an explicit stack and a memo."""
        nodes, unique = self.nodes, self.unique
        memo: dict[tuple[int, int], int] = {}
        done: list[int] = []
        todo = [(f, g, -1)]  # level -1: a pair to solve; else a node to build
        while todo:
            f, g, level = todo.pop()
            if level >= 0:
                high = done.pop()
                low = done.pop()
                node = low
                if low != high:
                    key = (level, low, high)
                    node = unique.get(key)
                    if node is None:
                        node = unique[key] = len(nodes)
                        nodes.append(key)
                memo[f, g] = node
                done.append(node)
                continue
            if f > g:
                f, g = g, f
            if f < 2 or f == g:  # the terminals sort first
                done.append(0 if f == 0 else g)
                continue
            node = memo.get((f, g))
            if node is not None:
                done.append(node)
                continue
            level, f0, f1 = nodes[f]
            lg, g0, g1 = nodes[g]
            if lg < level:
                level, f0, f1 = lg, f, f
            elif level < lg:
                g0 = g1 = g
            todo.append((f, g, level))
            todo.append((f1, g1, -1))
            todo.append((f0, g0, -1))
        return done[0]

    def count(self) -> int:
        """Path counts, weighted by 2 ** skipped levels."""
        nodes = self.nodes
        paths = [0, 1]  # assignments of the levels from the node's own down
        for level, low, high in nodes[2:]:
            paths.append(
                (paths[low] << (nodes[low][0] - level - 1))
                + (paths[high] << (nodes[high][0] - level - 1))
            )
        return paths[self.root] << nodes[self.root][0]

    def values(self) -> tuple[list[bool], list[bool]]:
        """Per level: does some path to 1 set it true, and false?

        One top-down pass over the nodes reachable from the root; a level
        an edge skips is free, so it counts as both.
        """
        nodes, root = self.nodes, self.root
        n = len(self.ids)
        can_true, can_false = [False] * n, [False] * n
        if root == 0:
            return can_true, can_false
        reached = bytearray(root + 1)
        reached[root] = 1
        free = [0] * (n + 1)  # +1 where a skipped range starts, -1 past its end
        free[0] += 1
        free[nodes[root][0]] -= 1
        branches = ((1, can_false), (2, can_true))  # low, high
        for k in range(root, 1, -1):
            if reached[k]:
                node = nodes[k]
                for branch, seen in branches:
                    child = node[branch]
                    if child:
                        seen[node[0]] = True
                        reached[child] = 1
                        free[node[0] + 1] += 1
                        free[nodes[child][0]] -= 1
        skipped = 0
        for i in range(n):
            skipped += free[i]
            if skipped:
                can_true[i] = can_false[i] = True
        return can_true, can_false

    def configurations(self) -> Iterator[frozenset[str]]:
        """Every configuration in canonical order, one O(n) walk each.

        Two configurations first differ at some level i, and the one
        with ids[i] on comes first unless the other turns every later id
        off. So at level i the walk emits the all-off completion (if the
        low chain reaches 1), then the high branch, then the low branch
        without that completion, entered only if it holds another one.
        """
        ids, nodes = self.ids, self.nodes
        n = len(ids)
        all_off = [False, True]  # the low chain of the node reaches 1
        more = [False, False]  # a completion with some id on exists
        for level, low, high in nodes[2:]:
            all_off.append(all_off[low])
            more.append(
                high != 0
                or (low != 0 and (nodes[low][0] > level + 1 or more[low]))
            )
        chosen: list[str] = []
        # (level, node, emit the all-off completion, len(chosen) there)
        stack = [(0, self.root, True, 0)] if self.root else []
        while stack:
            i, k, first, m = stack.pop()
            del chosen[m:]
            if first and all_off[k]:
                yield frozenset(chosen)
            if i == n:
                continue
            level, low, high = nodes[k]
            if level > i:
                low = high = k
            if low and (nodes[low][0] > i + 1 or more[low]):
                stack.append((i + 1, low, False, m))
            if high:
                chosen.append(ids[i])
                stack.append((i + 1, high, True, m + 1))


def _require_tree_node(model: Model, element_id: str) -> None:
    element = model.elements.get(element_id)
    if element is None or element.kind not in TREE_ELEMENT_KINDS:
        raise UnknownElementError(element_id)


def _compile(model: Model, budget: int) -> _Space:
    graph = _build_graph(model)
    if len(graph.nodes) > budget:
        raise BudgetExceededError(budget, len(graph.nodes))
    return _Space(graph)


# --- public operations --------------------------------------------------------


def count_configurations(model: Model, *, budget: int = DEFAULT_BUDGET) -> int:
    return _compile(model, budget).count()


def enumerate_configurations(
    model: Model, limit: int | None = None, *, budget: int = DEFAULT_BUDGET
) -> list[Configuration]:
    """The first `limit` configurations (all if None) in canonical order.

    The walk stops after `limit` configurations; a negative limit raises
    ValueError.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"enumeration limit must not be negative, got {limit}")
    space = _compile(model, budget)
    configs: list[Configuration] = []
    if limit != 0:
        for selected in space.configurations():
            configs.append(Configuration(selected))
            if len(configs) == limit:
                break
    return configs


def dead_features(model: Model, *, budget: int = DEFAULT_BUDGET) -> set[str]:
    """Ids that appear in no valid configuration."""
    space = _compile(model, budget)
    can_true, _ = space.values()
    return {node for node, alive in zip(space.ids, can_true) if not alive}


def propagate(
    model: Model,
    decisions: Mapping[str, bool],
    *,
    budget: int = DEFAULT_BUDGET,
) -> PropagationState:
    """Forced consequences of a partial selection.

    Within the budget the answer is read off the space compiled with
    the decisions as literals, so forced-in/forced-out match the
    brute-force semantics; unit propagation of the semantic rules runs
    only to name the rule an unsatisfiable selection breaks. Beyond the
    budget the (sound) unit-propagation fixpoint is returned.
    """
    graph = _build_graph(model)
    for element_id in decisions:
        _require_tree_node(model, element_id)

    exact = len(graph.nodes) <= budget
    if exact:
        space = _Space(graph, decisions)
    if exact and space.root:
        can_true, can_false = space.values()
        value = {
            node: on
            for node, on, off in zip(space.ids, can_true, can_false)
            if not (on and off)
        }
        conflict = None
    else:
        value, conflict = _unit_propagation(graph, decisions)
        if exact and conflict is None:
            conflict = RuleConflict("unsatisfiable", tuple(sorted(decisions)))

    forced_in = frozenset(n for n, v in value.items() if v)
    forced_out = frozenset(n for n, v in value.items() if not v)
    open_ids = frozenset(graph.nodes) - forced_in - forced_out
    return PropagationState(forced_in, forced_out, open_ids, conflict)


def _unit_propagation(
    graph: _Graph, decisions: Mapping[str, bool]
) -> tuple[dict[str, bool], RuleConflict | None]:
    """The unit-propagation fixpoint, or the first rule found violated.

    A worklist: every rule is visited once, and again only when one of
    its ids gets a value, so the cost is O(rules + assignments x rules
    per id) whatever the declaration order. Without a conflict the
    fixpoint is unique; with one, the values set so far are returned.
    """
    value: dict[str, bool] = dict(decisions)
    if graph.root is not None:  # unconditional: applied before the worklist
        if value.get(graph.root) is False:
            return value, RuleConflict("root", (graph.root,))
        value[graph.root] = True
    # (rule, elements, lo, hi) for a group; (rule, elements, x, vx, y, vy)
    # for a pair rule, read as "x = vx forces y = vy", and therefore
    # "y = not vy forces x = not vx". A visit reads its rule in place and
    # assigns directly, so visiting a pair rule allocates nothing.
    rules: list[tuple] = [
        ("parent", (p, c), c, True, p, True) for p, c in graph.parent_edges
    ]
    rules += [("mandatory", (p, c), p, True, c, True) for p, c in graph.mandatory]
    for parent, members, lo, hi in graph.groups:
        rule = "alternative" if (lo, hi) == (1, 1) else "orgroup"
        rules.append((rule, (parent, *members), lo, hi))
    rules += [("requires", (a, b), a, True, b, True) for a, b in graph.requires]
    rules += [("excludes", (a, b), a, True, b, False) for a, b in graph.excludes]
    watchers: dict[str, list[int]] = {}
    for k, rule in enumerate(rules):
        for node in rule[1]:
            watchers.setdefault(node, []).append(k)
    queue = list(range(len(rules)))
    queued = [True] * len(rules)

    for k in queue:  # also visits the rules appended while it runs
        queued[k] = False  # a group can break its own bounds: lo > hi
        rule = rules[k]
        if len(rule) == 6:
            name, ids, x, vx, y, vy = rule
            if value.get(x) is vx:
                node, v = y, vy
            elif value.get(y) is (not vy):
                node, v = x, not vx
            else:
                continue
            cur = value.get(node)
            if cur is not None:
                if cur != v:
                    return value, RuleConflict(name, ids)
                continue
            value[node] = v
            for j in watchers[node]:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
            continue
        name, ids, lo, hi = rule
        parent = value.get(ids[0])
        selected = sum(1 for m in ids[1:] if value.get(m) is True)
        undecided = [m for m in ids[1:] if value.get(m) is None]
        if selected > hi or (parent is True and selected + len(undecided) < lo):
            return value, RuleConflict(name, ids)
        if parent is False or (parent is True and selected == hi):
            v = False
        elif parent is True and selected + len(undecided) == lo:
            v = True
        else:
            continue
        for node in undecided:
            value[node] = v
            for j in watchers[node]:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
    return value, None


def variant_combinations(model: Model, blocks: list[str]) -> int:
    """Product over blocks of their attached variant counts (0 counts as 1)."""
    total = 1
    for block_id in blocks:
        element = model.elements.get(block_id)
        if element is None:
            raise UnknownElementError(block_id)
        count = sum(
            1
            for rel in model.index.outgoing(block_id, RelationKind.REFERENCES)
            if (target := model.elements.get(rel.targets[0])) is not None
            and target.kind is ElementKind.VARIANT
        )
        total *= max(count, 1)
    return total


def format_configuration(model_name: str, config: Configuration) -> str:
    """Line record: model name, then the sorted selected ids."""
    return f"{model_name},{' '.join(config.sorted_ids())}"
