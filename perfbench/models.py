"""Seeded corpus generators for the benchmark, each with its known answers.

Every model is emitted in the canonical layout that `imog.printer` uses,
so printing a whole model must give back the generated text byte for
byte. The known answers (planted C-301 groups, configuration counts, dead
features, store contents) are derived from the generator's own
structures: nothing in this module imports or calls imog.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

_VOCAB = (
    "urban", "mobility", "battery", "motor", "frame", "sensor", "signal",
    "torque", "charge", "range", "rider", "safety", "weight", "cost",
    "supplier", "market", "service", "fleet", "route", "station", "dock",
    "brake", "display", "wheel", "comfort", "noise", "thermal", "module",
    "interface", "protocol", "update", "firmware", "repair", "recycling",
    "cell", "pack", "controller", "housing", "material", "steel", "aluminium",
    "polymer", "demand", "growth", "pilot", "launch", "partner", "network",
    "density", "efficiency", "lifetime", "warranty", "assembly", "test",
    "quality", "standard", "regulation", "city", "commuter", "tourist",
)
_UNITS = ("kg", "W", "km", "s", "V", "Wh")
TYPES = ("sensor", "actuator", "controller", "material")
_LEVELS = ("context", "system", "component")

# Pinned into SOURCE_DATE_EPOCH for every command, so knowledge
# extraction writes the same provenance timestamp on every run.
SOURCE_DATE_EPOCH = 1700000000
TIMESTAMP = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(SOURCE_DATE_EPOCH))


def q(text: str) -> str:
    """Quoted DSL string; generated prose never needs escapes."""
    return f'"{text}"'


def prose(rng: random.Random, lo: int, hi: int) -> str:
    words = [rng.choice(_VOCAB) for _ in range(rng.randint(lo, hi))]
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def name(rng: random.Random) -> str:
    return " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(2, 4))).capitalize()


class Text:
    """Line emitter mirroring the canonical printer's layout."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("  " * depth + line)

    def props(self, depth: int, head: str, props: list[tuple[str, str]]) -> None:
        if not props:
            self.emit(depth, head)
            return
        self.emit(depth, head + " {")
        for key, value in props:
            self.emit(depth + 1, f"{key}: {value}")
        self.emit(depth, "}")

    def owner(self, depth, head, props, body) -> None:
        """An element with properties and a statement body (feature, block)."""
        if not body:
            self.props(depth, head, props)
            return
        if props:
            self.props(depth, head, props)
            self.emit(depth, "{")
        else:
            self.emit(depth, head + " {")
        for line_head, line_props in body:
            self.props(depth + 1, line_head, line_props)
        self.emit(depth, "}")

    def section(self, keyword: str, fill) -> None:
        before = len(self.lines)
        self.emit(1, keyword + " {")
        fill()
        if len(self.lines) == before + 1:
            self.lines.pop()
            return
        self.emit(1, "}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# --- system: five perspectives, allocations, planted C-301 -------------------


def fanout_parents(n: int, fanout: int = 4) -> list[int | None]:
    return [None] + [(i - 1) // fanout for i in range(1, n)]


def chain_parents(n: int) -> list[int | None]:
    return [None] + list(range(n - 1))


def system_model(rng: random.Random, title: str, parents: list[int | None]):
    """Block containment tree given by `parents`; returns (text, answers).

    Everything the trace layer's cost depends on (allocations, which
    elements carry requirements, where conflicts are planted) follows from
    the tree alone, so every seed costs the same; the seed picks names,
    prose, bounds and the edges that trace does not walk.
    """
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    depth = [0] * n
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
            depth[i] = depth[p] + 1

    def below(i: int) -> list[int]:
        out, stack = [], list(children[i])
        while stack:
            j = stack.pop()
            out.append(j)
            stack.extend(children[j])
        return out

    n_feat = n // 2 + 2
    n_func = n // 8 + 1
    n_goal = 3 + n // 25
    n_entry = 2 + n // 30
    feat_parent = [None] + [(i - 1) // 4 for i in range(1, n_feat)]
    unallocated = [f"F{n_feat - 2}", f"F{n_feat - 1}"]
    alloc: dict[str, int] = {"F0": 0}
    for i in range(1, n_feat - 2):
        alloc[f"F{i}"] = i * n // n_feat
    func_parent = [rng.randrange(n_feat) for _ in range(n_func)]
    for j in range(n_func):
        alloc[f"FN{j}"] = (2 * j + 1) * n // (2 * n_func)

    reqs: list[tuple[str, str, str, list]] = []  # (id, target, attr text, props)
    for i in range(n):
        reqs.append((f"RB{i}", f"B{i}", f"attr a{i} <= {rng.randint(5, 90)} kg", []))
    for i in range(1, n_feat, 2):
        props = [("rationale", q(prose(rng, 6, 12)))] if i % 3 == 0 else []
        reqs.append((f"RF{i}", f"F{i}", f"attr f{i} >= {rng.randint(1, 400)} W", props))
    for k in range(2):  # W-204: no checkable triple
        reqs.append((f"RN{k}", f"B{(2 * k + 1) * n // 4}", "", [("rationale", q(prose(rng, 6, 12)))]))
    # each planted conflict: a block bound against a feature allocated to it,
    # seen again on every block below it
    planted = sorted({n // 4, n // 2, 3 * n // 4})
    c301 = 0
    for j, b in enumerate(planted):
        alloc[f"FC{j}"] = b
        reqs.append((f"RC{j}a", f"B{b}", f"attr c{j} <= {rng.randint(5, 10)} kg", []))
        upper = "in 20..30 kg" if j % 2 else ">= 20 kg"
        reqs.append((f"RC{j}b", f"FC{j}", f"attr c{j} {upper}", []))
        c301 += 1 + len(below(b))

    t = Text()
    t.emit(0, f"model {q(title)} {{")

    def strategy():
        for g in range(n_goal + 2):  # the last two goals stay unreferenced
            t.props(2, f"goal G{g} {q(name(rng))}",
                    [("description", q(prose(rng, 8, 16))), ("priority", str(g % 3 + 1))])
        t.props(2, f"stakeholder S0 {q(name(rng))}", [("stake", q(prose(rng, 6, 10)))])
        t.emit(2, f"note N0 {q(prose(rng, 8, 14))}")

    def functional():
        for i in range(n_feat):
            body = []
            for c in range(1, n_feat):
                if feat_parent[c] == i:
                    kind = "mandatory" if rng.random() < 0.4 else "optional"
                    body.append((f"{kind} F{c}", []))
            if i == 0:
                body += [(f"optional FC{j}", []) for j in range(len(planted))]
            body += [(f"mandatory FN{j}", []) for j in range(n_func) if func_parent[j] == i]
            body.append((f"refines_goal G{i % n_goal}", []))
            head = f"feature F{i} {q(name(rng))}" + (" level context" if i == 0 else "")
            t.owner(2, head, [], body)
        for j in range(len(planted)):
            t.emit(2, f"feature FC{j} {q(name(rng))}")
        for j in range(n_func):
            t.emit(2, f"function FN{j} {q(name(rng))}")

    def quality():
        for rid, target, attr, props in reqs:
            head = f"requirement {rid} {q(name(rng))} on {target}" + (f" {attr}" if attr else "")
            t.props(2, head, props)

    kbrefs: dict[int, str] = {}

    def structural():
        for i in range(n):
            props = [("mass", f"{rng.randint(1, 50)} kg")]
            if i % 3 == 0:
                props.append(("description", q(prose(rng, 6, 12))))
            body = []
            if i % 5 == 0:
                body += [(f"variant V{i}{s} {q(name(rng))}", [("year", str(rng.randint(2024, 2030)))])
                         for s in "ab"]
            if i % 7 == 0:
                kbrefs[i] = f"K{i % n_entry}"
                body.append((f"kbref {kbrefs[i]}", []))
            head = f"block B{i} {q(name(rng))} level {_LEVELS[min(depth[i], 2)]}"
            t.owner(2, head, props, body)
        for k in range(max(1, n // 10)):
            a, b = rng.randrange(n), rng.randrange(n)
            t.emit(2, f"effect B{a} -> B{b} {q(name(rng))}")
            t.props(2, f"channel B{b} <-> B{a} {q(name(rng))}", [("rate", f"{k + 1} V")])
        for i in range(1, n):
            t.emit(2, f"contains B{parents[i]} {{ B{i} }}")
        for element, b in alloc.items():
            t.emit(2, f"allocate {element} -> B{b}")

    def knowledge():
        for k in range(n_entry):
            t.props(2, f"entry K{k} {q(name(rng))} type {rng.choice(TYPES)} year {rng.randint(2020, 2030)}",
                    [("energy", f"{rng.randint(1, 90)} Wh")])

    for keyword, fill in (("strategy", strategy), ("functional", functional), ("quality", quality),
                          ("structural", structural), ("knowledge", knowledge)):
        t.section(keyword, fill)
    t.emit(0, "}")

    probe = children[0][0] if children[0] else 0
    reached = {probe, *below(probe)}
    impact = {f"B{i}" for i in reached if i != probe}
    impact |= {rid for rid, target, _, _ in reqs if target.startswith("B") and int(target[1:]) in reached}
    impact |= {kbrefs[i] for i in reached if i in kbrefs}
    variants = sum(2 for i in range(n) if i % 5 == 0)
    answers = {
        "title": title,
        "elements": n + variants + n_feat + len(planted) + n_func + n_goal + 4 + len(reqs) + n_entry,
        "c301": c301,
        "warnings": 2 + 2 + 2,  # W-202 unallocated, W-204 no triple, W-205 unreferenced goals
        "unallocated": sorted(unallocated),
        "goal_coverage": {
            f"G{g}": sorted(f"F{i}" for i in range(n_feat) if i % n_goal == g) for g in range(n_goal + 2)
        },
        "impact_id": f"B{probe}",
        "impact": sorted(impact),
    }
    return t.text(), answers


# --- bulk: text-heavy models with few blocks ----------------------------------


def bulk_model(rng: random.Random, title: str, target_bytes: int):
    """Prose-heavy model of roughly `target_bytes`; returns (text, answers)."""
    unit = max(1, target_bytes // 10_000)  # element counts per 10 KB of text
    n_goal, n_note, n_feat, n_func = 4 * unit, 3 * unit, 22 * unit, 4 * unit
    n_entry, n_block = 2 * unit, 4
    edges = 0
    requirement_ids: list[str] = []
    elements = 0

    # feature tree: F0 is the root; children are attached in small groups
    bodies: dict[str, list[tuple[str, list]]] = {f"F{i}": [] for i in range(n_feat)}
    vps: list[tuple[str, str]] = []
    nxt = 1
    while nxt < n_feat:
        parent = f"F{rng.randrange(0, max(1, nxt // 3))}"
        roll = rng.random()
        size = min(rng.randint(2, 3), n_feat - nxt)
        if roll < 0.6 or size < 2:
            kind = "mandatory" if roll < 0.2 else "optional"
            bodies[parent].append((f"{kind} F{nxt}", []))
            edges += 1
            nxt += 1
            continue
        members = " ".join(f"F{nxt + k}" for k in range(size))
        if roll < 0.8:
            lo = rng.randint(1, size)
            bodies[parent].append((f"orgroup [{lo}..{rng.randint(lo, size)}] {{ {members} }}", []))
            edges += size
        else:
            vp = f"VP{len(vps)}"
            vps.append((vp, name(rng)))
            bodies[parent].append((f"alternative {vp} {q(vps[-1][1])} {{ {members} }}", []))
            edges += 1 + size
        nxt += size
    func_parent = [rng.randrange(n_feat) for _ in range(n_func)]
    for j, p in enumerate(func_parent):
        bodies[f"F{p}"].append((f"mandatory FN{j}", []))
        edges += 1
    for i in range(n_feat):
        bodies[f"F{i}"].append((f"refines_goal G{i % (n_goal - 2)}", []))
        edges += 1

    t = Text()
    t.emit(0, f"model {q(title)} {{")

    def strategy():
        nonlocal elements
        for g in range(n_goal):  # the last two goals stay unreferenced
            t.props(2, f"goal G{g} {q(name(rng))}",
                    [("description", q(prose(rng, 25, 45))), ("priority", str(g % 5 + 1))])
        t.props(2, f"stakeholder S0 {q(name(rng))}", [("stake", q(prose(rng, 20, 30)))])
        for k in range(n_note):
            t.emit(2, f"note N{k} {q(prose(rng, 15, 30))}")
        elements += n_goal + 1 + n_note

    def functional():
        nonlocal elements
        for i in range(n_feat):
            props = [("description", q(prose(rng, 10, 25))), ("effort", f"{rng.randint(1, 40)} d")]
            if rng.random() < 0.5:
                props.append(("risk", f"0.{rng.randint(1, 9)}5"))
            head = f"feature F{i} {q(name(rng))}" + (" level context" if i == 0 else "")
            t.owner(2, head, props, bodies[f"F{i}"])
        for j in range(n_func):
            t.props(2, f"function FN{j} {q(name(rng))}", [("description", q(prose(rng, 10, 20)))])
        elements += n_feat + n_func + len(vps)

    def quality():
        nonlocal edges, elements
        k = 0
        for i in range(0, n_feat, 3):
            rid = f"R{k}"
            attr = f"attr q{k} <= {rng.randint(1, 500)} {rng.choice(_UNITS)}"
            t.props(2, f"requirement {rid} {q(name(rng))} on F{i} {attr}",
                    [("rationale", q(prose(rng, 12, 24)))])
            requirement_ids.append(rid)
            k += 1
        for j in range(2):  # W-204: no checkable triple
            rid = f"RN{j}"
            t.props(2, f"requirement {rid} {q(name(rng))} on B{j}", [("rationale", q(prose(rng, 12, 24)))])
            requirement_ids.append(rid)
        edges += len(requirement_ids)
        elements += len(requirement_ids)

    def structural():
        nonlocal edges, elements
        for b in range(n_block):
            body = [(f"variant V{b}{s} {q(name(rng))}", [("note", q(prose(rng, 6, 12)))]) for s in "ab"]
            level = "context" if b == 0 else "system"
            t.owner(2, f"block B{b} {q(name(rng))} level {level}",
                    [("description", q(prose(rng, 10, 20)))], body)
            edges += 2
        for b in range(1, n_block):
            t.emit(2, f"contains B0 {{ B{b} }}")
        t.emit(2, "allocate F0 -> B0")
        for i in range(1, n_feat):
            t.emit(2, f"allocate F{i} -> B{i % n_block}")
        for j in range(n_func):
            t.emit(2, f"allocate FN{j} -> B{j % n_block}")
        edges += (n_block - 1) + n_feat + n_func
        elements += n_block * 3

    def knowledge():
        nonlocal elements
        for k in range(n_entry):
            t.props(2, f"entry K{k} {q(name(rng))} type {rng.choice(TYPES)} year {rng.randint(2020, 2030)}",
                    [("summary", q(prose(rng, 15, 30)))])
        elements += n_entry

    for keyword, fill in (("strategy", strategy), ("functional", functional), ("quality", quality),
                          ("structural", structural), ("knowledge", knowledge)):
        t.section(keyword, fill)
    t.emit(0, "}")
    answers = {
        "title": title,
        "elements": elements,
        "edges": edges,
        "warnings": 2 + 2,  # W-204 no triple, W-205 unreferenced goals
        "requirements": sorted(requirement_ids),
    }
    return t.text(), answers


# --- features: small trees with analytic counts --------------------------------


@dataclass
class _Tree:
    parent: dict[str, str | None]
    groups: dict[str, list[tuple]]  # node -> [(kind, members, lo, hi)]
    kind: dict[str, str]  # feature | function | vp
    requires_pairs: list[tuple[str, str]]  # optional leaf siblings, a -> b
    benign: list[tuple[str, str]]  # x -> core node
    dead_roots: list[tuple[str, str]]  # (root, optional child it excludes)
    core: set[str]

    def subtree(self, node: str) -> list[str]:
        out, stack = [], [node]
        while stack:
            n = stack.pop()
            out.append(n)
            for _, members, _, _ in self.groups[n]:
                stack.extend(members)
        return out


def _feature_tree(rng: random.Random, n_nodes: int) -> _Tree:
    root = "F01"
    counter = 1
    parent: dict[str, str | None] = {root: None}
    kind = {root: "feature"}
    groups: dict[str, list[tuple]] = {root: []}
    core = {root}

    def fresh(k: str, par: str) -> str:
        nonlocal counter
        counter += 1
        node = f"{'VP' if k == 'vp' else 'FN' if k == 'function' else 'F'}{counter:02d}"
        parent[node], kind[node], groups[node] = par, k, []
        return node

    while counter < n_nodes:
        hosts = [n for n in parent if kind[n] == "feature"]
        par = rng.choice(hosts)
        roll = rng.random()
        room = n_nodes - counter
        leaf = "function" if rng.random() < 0.2 else "feature"
        if roll < 0.6 or room < 3:
            g = "mandatory" if roll < 0.1 else "optional"
            child = fresh(leaf, par)
            groups[par].append((g, [child], 1, 1))
            if g == "mandatory" and par in core:
                core.add(child)
        elif roll < 0.85:
            size = rng.randint(2, min(3, room))
            members = [fresh("feature", par) for _ in range(size)]
            lo = rng.randint(1, size)
            groups[par].append(("orgroup", members, lo, rng.randint(lo, size)))
        else:
            size = rng.randint(2, min(3, room - 1))
            vp = fresh("vp", par)
            members = [fresh("feature", vp) for _ in range(size)]
            groups[par].append(("mandatory", [vp], 1, 1))
            groups[vp].append(("alternative", members, 1, 1))
            if par in core:
                core.add(vp)

    optional = [(p, g[1][0]) for p in groups for g in groups[p] if g[0] == "optional"]
    rng.shuffle(optional)
    tree = _Tree(parent, groups, kind, [], [], [], core)
    used: set[str] = set()
    # one planted dead feature: the root excludes an optional child of a
    # core node, a leaf where there is one
    optional.sort(key=lambda pc: bool(groups[pc[1]]))
    for par, child in optional:
        if par in core:
            tree.dead_roots.append(("F01", child))
            used.update(tree.subtree(child))
            break
    # one requires pair between optional leaf siblings
    leaves = [(p, c) for p, c in optional if c not in used and not groups[c]]
    by_parent: dict[str, list[str]] = {}
    for p, c in leaves:
        by_parent.setdefault(p, []).append(c)
    for p in sorted(by_parent):
        if len(by_parent[p]) >= 2:
            a, b = sorted(by_parent[p])[:2]
            tree.requires_pairs.append((a, b))
            used.update((a, b))
            break
    # one requires into the core, which never removes a configuration
    free = sorted(n for n in parent if n not in used and kind[n] != "vp" and n not in core)
    if free:
        tree.benign.append((rng.choice(free), rng.choice(sorted(core - {"F01"}) or ["F01"])))
    return tree


def _count(tree: _Tree, assume: dict[str, bool]) -> int:
    """Valid configurations under `assume`, by products over subtrees."""
    assume = dict(assume)
    for _, dead in tree.dead_roots:
        if assume.get(dead) is True:
            return 0
        assume[dead] = False
    pair_of = {a: b for a, b in tree.requires_pairs}
    paired = set(pair_of.values())

    def off(node: str) -> int:
        return 0 if any(assume.get(n) is True for n in tree.subtree(node)) else 1

    def on(node: str) -> int:
        if assume.get(node) is False:
            return 0
        total = 1
        for kind, members, lo, hi in tree.groups[node]:
            if kind == "mandatory":
                total *= on(members[0])
            elif kind == "optional":
                m = members[0]
                if m in paired:
                    continue  # counted with its pair
                if m in pair_of:
                    b = pair_of[m]
                    total *= off(m) * off(b) + off(m) * on(b) + on(m) * on(b)
                else:
                    total *= off(m) + on(m)
            else:  # orgroup or alternative: ways with j members selected
                ways = [1] + [0] * len(members)
                for m in members:
                    a, b = on(m), off(m)
                    ways = [ways[j] * b + (ways[j - 1] * a if j else 0) for j in range(len(ways))]
                total *= sum(ways[lo:hi + 1])
            if not total:
                return 0
        return total

    return on("F01")


def _configs(tree: _Tree, node: str) -> list[frozenset[str]]:
    """Every valid selection inside node's subtree, node selected (no cross rules)."""
    options = [[frozenset({node})]]
    for kind, members, lo, hi in tree.groups[node]:
        if kind == "mandatory":
            options.append(_configs(tree, members[0]))
        elif kind == "optional":
            options.append([frozenset()] + _configs(tree, members[0]))
        else:
            combos = [frozenset()]
            sizes = [0]
            for m in members:
                sub = _configs(tree, m)
                combos, sizes = (
                    combos + [c | s for c in combos for s in sub],
                    sizes + [k + 1 for k in sizes for _ in sub],
                )
            options.append([c for c, k in zip(combos, sizes) if lo <= k <= hi])
    out = [frozenset()]
    for choice in options:
        out = [a | b for a in out for b in choice]
    return out


def features_model(
    rng: random.Random, shape: random.Random, title: str, n_nodes: int, band: tuple[int, int]
):
    """Feature tree of `n_nodes` tree elements whose configuration count
    lies within `band`; returns (text, answers).

    The tree and its cross-tree rules come from `shape`, names and the
    propagation probe from `rng`. How much work the solver does depends
    on the shape and the order of its ids, so a caller that wants every
    seed to cost the same passes a shape generator that ignores the seed.
    """
    for _ in range(10_000):
        tree = _feature_tree(shape, n_nodes)
        count = _count(tree, {})
        if band[0] <= count <= band[1]:
            break
    else:
        raise ValueError(f"no {n_nodes}-node tree with a count in {band}")
    t = Text()
    t.emit(0, f"model {q(title)} {{")
    t.emit(1, "functional {")
    vp_names = {n: name(rng) for n in tree.kind if tree.kind[n] == "vp"}
    for node in tree.parent:
        if tree.kind[node] == "vp":
            continue
        body = []
        for kind, members, lo, hi in tree.groups[node]:
            if kind == "orgroup":
                body.append((f"orgroup [{lo}..{hi}] {{ {' '.join(members)} }}", []))
            elif tree.kind[members[0]] == "vp":
                vp = members[0]
                alt = tree.groups[vp][0][1]
                body.append((f"alternative {vp} {q(vp_names[vp])} {{ {' '.join(alt)} }}", []))
            else:
                body.append((f"{kind} {members[0]}", []))
        head = f"{tree.kind[node]} {node} {q(name(rng))}" + (" level context" if node == "F01" else "")
        t.owner(2, head, [], body)
    for a, b in tree.requires_pairs + tree.benign:
        t.emit(2, f"requires {a} -> {b}")
    for a, b in tree.dead_roots:
        t.emit(2, f"excludes {a} -> {b}")
    t.emit(1, "}")
    t.emit(0, "}")

    nodes = sorted(tree.parent)
    configs = [
        c for c in _configs(tree, "F01")
        if not any(b in c for _, b in tree.dead_roots)
        and all(b in c for a, b in tree.requires_pairs if a in c)
    ]
    if len(configs) != count:
        raise AssertionError(f"{title}: enumerated {len(configs)} != analytic {count}")
    first = sorted(tuple(sorted(c)) for c in configs)[:10]
    dead = [n for n in nodes if _count(tree, {n: True}) == 0]
    pick = [n for n in nodes if 0 < _count(tree, {n: True}) < count]
    select = {shape.choice(pick): shape.random() < 0.5} if pick else {}
    forced_in = [n for n in nodes if _count(tree, {**select, n: False}) == 0 or select.get(n) is True]
    forced_out = [n for n in nodes if _count(tree, {**select, n: True}) == 0 or select.get(n) is False]
    answers = {
        "title": title,
        "elements": len(nodes),
        "count": count,
        "first": [f"{title},{' '.join(c)}" for c in first],
        "dead": dead,
        "select": ",".join(f"{n}={'in' if v else 'out'}" for n, v in select.items()),
        "propagate": [
            "forced-in: " + " ".join(forced_in),
            "forced-out: " + " ".join(forced_out),
            "open: " + " ".join(n for n in nodes if n not in forced_in and n not in forced_out),
        ],
    }
    return t.text(), answers


# --- store: batches to extract, and a model that references them --------------


def store_batch(rng: random.Random, index: int, n_blocks: int):
    """Model of blocks and variants to extract; returns (text, entries)."""
    title = f"Batch {index}"
    t = Text()
    t.emit(0, f"model {q(title)} {{")
    t.emit(1, "structural {")
    entries: list[dict] = []
    for k in range(n_blocks):
        bid = f"X{index:03d}_{k:02d}"
        etype = rng.choice(TYPES)
        year = rng.randint(2020, 2032)
        mass = rng.randint(1, 90)
        vendor = name(rng)
        props = [("stereotype", q(etype)), ("year", str(year)), ("mass", f"{mass} kg"), ("vendor", q(vendor))]
        body = []
        block_name = name(rng)
        if k % 4 == 0:
            vid = f"{bid}_v"
            v_name, v_year = name(rng), rng.randint(2020, 2032)
            body.append((f"variant {vid} {q(v_name)}", [("year", str(v_year))]))
        t.owner(2, f"block {bid} {q(block_name)} level system", props, body)
        entries.append(_entry(bid, block_name, etype, year, [f"prop.mass={mass}kg", f'prop.vendor="{vendor}"'], title))
        if body:
            entries.append(_entry(vid, v_name, "variant", v_year, [], title))
    t.emit(1, "}")
    t.emit(0, "}")
    return t.text(), entries


def _entry(eid, ename, etype, year, props, model_title) -> dict:
    fields = ["entry", eid, f'name="{ename}"', f"type={etype}", f"year={year}", *props,
              f'provenance="{model_title}@{TIMESTAMP}"']
    return {"id": eid, "type": etype, "year": year, "mass": bool(props), "line": " ".join(fields)}


def kbref_model(rng: random.Random, ids: list[str], target_year: int) -> str:
    t = Text()
    t.emit(0, f"model {q('Reference check')} {{")
    t.emit(1, "structural {")
    body = [(f"kbref {i}", []) for i in ids]
    t.owner(2, f"block BK0 {q(name(rng))} level context", [("target_year", str(target_year))], body)
    t.emit(1, "}")
    t.emit(0, "}")
    return t.text()
