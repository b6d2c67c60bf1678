"""Seeded random model generators emitting `.imog` text.

Two flavors: pure feature models for the variability analyses, and full
five-section models for the parser round-trip. Generation is driven by
a random.Random instance, so corpora are reproducible from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

_WORDS = (
    "power",
    "drive",
    "sense",
    "brake",
    "charge",
    "display",
    "fold",
    "route",
    "grip",
    "light",
    "signal",
    "assist",
    "battery",
    "motor",
    "frame",
)

# characters that decide where tokens start and end (form feed and
# no-break space are whitespace to `\s` but not to imog), plus whole
# tokens: the alphabet of the lexer differential and robustness tests
LEXER_ALPHABET = (
    *'{}[]:"\\-<>=./ \t\r\n\f\xa0nt09a_é½١',
    *("model", "->", "<->", "..", "//", "1.5"),
)

_UNITS = ("kg", "W", "km", "s", "EUR", "V")

_LEVELS = ("context", "system", "component")


def _q(text: str) -> str:
    """Quote for DSL emission, escaping backslashes and quotes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _name(rng: random.Random) -> str:
    words = rng.sample(_WORDS, rng.randint(1, 3))
    text = " ".join(words).capitalize()
    if rng.random() < 0.08:
        text += ' with "quotes"'
    if rng.random() < 0.05:
        text += " and \\ backslash"
    return text


@dataclass
class _Node:
    id: str
    kind: str  # feature | function | vp
    name: str
    statements: list[str] = field(default_factory=list)


class _TreeBuilder:
    """Random feature tree plus cross-tree constraints."""

    def __init__(self, rng: random.Random, max_nodes: int):
        self.rng = rng
        self.counter = 0
        root = self._fresh("feature")
        self.nodes: list[_Node] = [root]
        self.root = root
        budget = rng.randint(0, max_nodes - 1)
        while budget > 0:
            budget = self._grow(budget)

    def _fresh(self, kind: str) -> _Node:
        self.counter += 1
        prefix = {"feature": "F", "function": "FN", "vp": "VP"}[kind]
        return _Node(f"{prefix}{self.counter}", kind, _name(self.rng))

    def _leaf_kind(self) -> str:
        return "function" if self.rng.random() < 0.2 else "feature"

    def _grow(self, budget: int) -> int:
        rng = self.rng
        parent = rng.choice([n for n in self.nodes if n.kind != "vp"])
        roll = rng.random()
        if roll < 0.35 or budget < 3:
            child = self._fresh(self._leaf_kind())
            self.nodes.append(child)
            keyword = "mandatory" if rng.random() < 0.5 else "optional"
            parent.statements.append(f"{keyword} {child.id}")
            return budget - 1
        size = min(rng.randint(2, 3), budget - (1 if roll >= 0.7 else 0))
        if size < 2:
            child = self._fresh(self._leaf_kind())
            self.nodes.append(child)
            parent.statements.append(f"optional {child.id}")
            return budget - 1
        members = [self._fresh(self._leaf_kind()) for _ in range(size)]
        self.nodes.extend(members)
        ids = " ".join(m.id for m in members)
        if roll < 0.7:  # or-group
            lo = rng.randint(1, size)
            hi = rng.randint(lo, size)
            parent.statements.append(f"orgroup [{lo}..{hi}] {{ {ids} }}")
            return budget - size
        vp = self._fresh("vp")
        self.nodes.append(vp)
        parent.statements.append(f'alternative {vp.id} {_q(vp.name)} {{ {ids} }}')
        return budget - size - 1

    def cross_rules(self) -> list[str]:
        rng = self.rng
        candidates = [n.id for n in self.nodes]
        rules = []
        for keyword in ("requires", "excludes"):
            for _ in range(rng.randint(0, 2)):
                if len(candidates) < 2:
                    break
                a, b = rng.sample(candidates, 2)
                rules.append(f"{keyword} {a} -> {b}")
        return rules

    def section_lines(self) -> list[str]:
        lines = []
        for node in self.nodes:
            if node.kind == "vp":
                continue  # declared inline by its alternative statement
            head = f'{node.kind} {node.id} {_q(node.name)}'
            if node.statements:
                lines.append(f"    {head} {{")
                for stmt in node.statements:
                    lines.append(f"      {stmt}")
                lines.append("    }")
            else:
                lines.append(f"    {head}")
        for rule in self.cross_rules():
            lines.append(f"    {rule}")
        return lines


def feature_model_text(rng: random.Random, max_features: int = 15) -> str:
    """A functional-perspective-only model with at most max_features tree nodes."""
    tree = _TreeBuilder(rng, max_features)
    lines = ['model "Generated" {', "  functional {"]
    lines.extend(tree.section_lines())
    lines.extend(["  }", "}"])
    return "\n".join(lines) + "\n"


def _props(rng: random.Random, keys: list[str]) -> list[str]:
    lines = []
    for key in rng.sample(keys, rng.randint(0, min(2, len(keys)))):
        roll = rng.random()
        if roll < 0.4:
            value = str(rng.randint(0, 500))
            if rng.random() < 0.5:
                value += f" {rng.choice(_UNITS)}"
        elif roll < 0.6:
            value = f"{rng.randint(0, 50)}.{rng.randint(1, 9)}"
        elif roll < 0.8:
            value = _q(_name(rng))
        else:
            value = rng.choice(("true", "false"))
        lines.append(f"{key}: {value}")
    return lines


def _emit_props(lines: list[str], indent: str, props: list[str]) -> None:
    if not props:
        return
    lines[-1] += " {"
    for p in props:
        lines.append(f"{indent}  {p}")
    lines.append(f"{indent}}}")


def full_model_text(rng: random.Random, max_elements: int = 30) -> str:
    """A model touching every section, valid by construction."""
    lines = [f'model {_q(_name(rng))} {{']

    goals = [f"G{i}" for i in range(rng.randint(0, 3))]
    stakeholders = [f"S{i}" for i in range(rng.randint(0, 2))]
    if goals or stakeholders or rng.random() < 0.3:
        lines.append("  strategy {")
        for g in goals:
            lines.append(f'    goal {g} {_q(_name(rng))}')
            _emit_props(lines, "    ", _props(rng, ["priority", "target_year"]))
        for s in stakeholders:
            lines.append(f'    stakeholder {s} {_q(_name(rng))}')
            _emit_props(lines, "    ", _props(rng, ["stake"]))
        if rng.random() < 0.4:
            lines.append(f'    note N0 {_q(_name(rng))}')
        lines.append("  }")

    tree = _TreeBuilder(rng, max(1, min(10, max_elements - 12)))
    feature_ids = [n.id for n in tree.nodes if n.kind != "vp"]
    for node in tree.nodes:
        if node.kind != "vp" and goals and rng.random() < 0.3:
            node.statements.append(f"refines_goal {rng.choice(goals)}")
    lines.append("  functional {")
    lines.extend(tree.section_lines())
    lines.append("  }")

    blocks: list[tuple[str, int]] = []  # (id, level index)
    variants: list[str] = []
    entries = [f"K{i}" for i in range(rng.randint(0, 2))]
    n_blocks = rng.randint(0, 4)
    structural_lines: list[str] = []
    for i in range(n_blocks):
        level = rng.randint(0, 2)
        block_id = f"B{i}"
        structural_lines.append(
            f'    block {block_id} {_q(_name(rng))} level {_LEVELS[level]}'
        )
        _emit_props(structural_lines, "    ", _props(rng, ["power", "mass"]))
        body: list[str] = []
        for v in range(rng.randint(0, 2)):
            variant_id = f"V{i}_{v}"
            variants.append(variant_id)
            body.append(f'      variant {variant_id} {_q(_name(rng))}')
        if entries and rng.random() < 0.5:
            body.append(f"      kbref {rng.choice(entries)}")
        if body:
            structural_lines[-1] += " {"
            structural_lines.extend(body)
            structural_lines.append("    }")
        blocks.append((block_id, level))
    for child_id, child_level in blocks[1:]:
        coarser = [b for b, lv in blocks if lv <= child_level and b != child_id]
        if coarser and rng.random() < 0.5:
            structural_lines.append(
                f"    contains {rng.choice(coarser)} {{ {child_id} }}"
            )
    if len(blocks) >= 2:
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample([b for b, _ in blocks], 2)
            if rng.random() < 0.5:
                structural_lines.append(f'    effect {a} -> {b} {_q(_name(rng))}')
            else:
                structural_lines.append(f'    channel {a} <-> {b} {_q(_name(rng))}')
                _emit_props(structural_lines, "    ", _props(rng, ["rate"]))
    if blocks:
        for feature_id in feature_ids:
            if rng.random() < 0.5:
                block_id, _ = rng.choice(blocks)
                structural_lines.append(f"    allocate {feature_id} -> {block_id}")
    if structural_lines:
        lines.append("  structural {")
        lines.extend(structural_lines)
        lines.append("  }")

    req_targets = feature_ids + [b for b, _ in blocks]
    n_reqs = rng.randint(0, 3)
    if n_reqs and req_targets:
        lines.append("  quality {")
        for i in range(n_reqs):
            target = rng.choice(req_targets)
            head = f'    requirement R{i} {_q(_name(rng))} on {target}'
            if rng.random() < 0.6:
                attribute = rng.choice(("weight", "cost", "range", "latency"))
                roll = rng.random()
                if roll < 0.2:
                    head += f" attr {attribute} in {rng.randint(0, 10)}..{rng.randint(10, 99)}"
                else:
                    cmp = rng.choice(("<=", ">=", "==", "<", ">"))
                    head += f" attr {attribute} {cmp} {rng.randint(0, 99)}"
                if rng.random() < 0.5:
                    head += f" {rng.choice(_UNITS)}"
            lines.append(head)
            _emit_props(lines, "    ", _props(rng, ["rationale"]))
        lines.append("  }")

    if entries:
        lines.append("  knowledge {")
        for e in entries:
            year = rng.randint(2020, 2035)
            lines.append(
                f'    entry {e} {_q(_name(rng))} type '
                f'{rng.choice(("sensor", "technology", "regulation"))} year {year}'
            )
            _emit_props(lines, "    ", _props(rng, ["energy"]))
        lines.append("  }")

    lines.append("}")
    return "\n".join(lines) + "\n"
