"""Traceability: effective requirements, conflicts, impact, coverage."""

from __future__ import annotations

import io
import random
import sys
import threading

import networkx as nx
import pytest

import imog
from conftest import golden_text, parse_fixture
from genmodels import full_model_text
from imog import cli, trace
from imog.errors import UnknownElementError
from imog.model import Element, ElementKind, Model, RelationKind, TREE_KINDS
from oracle import conflict_keys, conflicts_reference, effective_reference


_COMPARATORS = ("<=", ">=", "==", "<", ">", "in")


def _random_body(rng: random.Random, owner: str) -> imog.RequirementBody:
    comparator = rng.choice(_COMPARATORS)
    if comparator == "in":
        lo = rng.randint(-20, 20)
        bound = (float(lo), float(lo + rng.randint(0, 15)))
    else:
        bound = rng.randint(-20, 20)
    return imog.RequirementBody(owner, "B", "w", comparator, bound, "kg")


def test_interval_emptiness_matches_pairwise_oracle():
    from oracle import _disjoint, _interval

    rng = random.Random(2718)
    for _ in range(500):
        a = _random_body(rng, "Ra")
        b = _random_body(rng, "Rb")
        joint = trace.interval_of(a).intersect(trace.interval_of(b))
        oracle_disjoint = _disjoint(
            _interval(a.comparator, a.bound), _interval(b.comparator, b.bound)
        )
        assert joint.empty == oracle_disjoint, (a, b)


def test_interval_construction_and_intersection():
    a = trace.interval_of(
        imog.RequirementBody("R1", "B", "w", "<=", 25, "kg")
    )
    b = trace.interval_of(
        imog.RequirementBody("R2", "B", "w", ">=", 30, "kg")
    )
    assert a.intersect(b).empty
    c = trace.interval_of(imog.RequirementBody("R3", "B", "w", "in", (10, 20)))
    assert not a.intersect(c).empty
    lt = trace.interval_of(imog.RequirementBody("R4", "B", "w", "<", 10))
    ge = trace.interval_of(imog.RequirementBody("R5", "B", "w", ">=", 10))
    assert lt.intersect(ge).empty
    eq = trace.interval_of(imog.RequirementBody("R6", "B", "w", "==", 10))
    assert not ge.intersect(eq).empty


def test_effective_requirements_direct_plus_allocated(conflict_model):
    effs = trace.effective_requirements(conflict_model, "B_mount")
    assert [(b.owner, o.kind) for b, o in effs] == [
        ("R_sturdy", "direct"),
        ("R_light", "allocation"),
    ]
    assert effs[1][1].via == "F_hook"


def test_effective_requirements_empty_block(escooter):
    assert trace.effective_requirements(escooter, "B_roadway") == []


def test_effective_requirements_unknown_block(escooter):
    with pytest.raises(UnknownElementError):
        trace.effective_requirements(escooter, "B_ghost")


def test_effective_requirements_battery_golden(escooter):
    lines = [
        f"{body.owner} {origin.describe()}"
        for body, origin in trace.effective_requirements(escooter, "B_battery")
    ]
    assert "\n".join(lines) + "\n" == golden_text("escooter.b_battery_reqs.txt")


def test_inheritance_flag_disables_contains_descent(escooter):
    with_inherit = trace.effective_requirements(escooter, "B_battery")
    without = trace.effective_requirements(
        escooter, "B_battery", include_inherited=False
    )
    assert {b.owner for b, _ in with_inherit} - {b.owner for b, _ in without} == {
        "R_weight",
        "R_comfort",
    }


def test_conflict_fixture_single_group(conflict_model):
    groups = trace.find_conflicts(conflict_model)
    assert len(groups) == 1
    group = groups[0]
    assert (group.block, group.attribute, group.unit) == ("B_mount", "weight", "kg")
    assert {owner for owner, _, _ in group.requirements} == {"R_light", "R_sturdy"}


def test_conflict_disappears_when_either_requirement_removed():
    source = parse_fixture("conflict.imog")
    text = open("tests/fixtures/conflict.imog", encoding="utf-8").read()
    for owner in ("R_light", "R_sturdy"):
        line = next(l for l in text.splitlines() if f"requirement {owner}" in l)
        reduced = imog.parse(text.replace(line + "\n", ""), "reduced.imog")
        assert reduced.ok
        assert trace.find_conflicts(reduced.model) == []
    assert len(trace.find_conflicts(source.model)) == 1


def test_two_seeded_groups_and_unit_mismatch(conflicts_two_model):
    groups = trace.find_conflicts(conflicts_two_model)
    keys = {(g.block, g.attribute, g.unit) for g in groups}
    assert keys == {("B_fan", "airflow", "cfm"), ("B_fan", "noise", "dB")}
    assert keys == conflict_keys(conflicts_two_model)
    diags = trace.conflict_diagnostics(conflicts_two_model)
    assert [d.code for d in diags if d.code == "C-301"] == ["C-301", "C-301"]
    i301 = [d for d in diags if d.code == "I-301"]
    assert len(i301) == 1
    assert "mass" in i301[0].message


def test_same_bounds_different_units_is_info_not_conflict():
    source = """model "M" {
  functional { feature F "f" }
  quality {
    requirement Ra "a" on B attr weight <= 25 kg
    requirement Rb "b" on B attr weight >= 30 g
  }
  structural { block B "b" level system allocate F -> B }
}
"""
    model = imog.parse(source, "units.imog").model
    assert trace.find_conflicts(model) == []
    diags = trace.conflict_diagnostics(model)
    assert [d.code for d in diags] == ["I-301"]


def test_conflicts_symmetric_under_renaming_and_reordering(conflicts_two_model):
    text = open("tests/fixtures/conflicts_two.imog", encoding="utf-8").read()
    renamed = (
        text.replace("R_flow_min", "R_zz")
        .replace("R_flow_max", "R_aa")
        .replace("R_noise_lo", "R_mm")
    )
    lines = renamed.splitlines()
    req_lines = [l for l in lines if l.strip().startswith("requirement")]
    shuffled = list(reversed(req_lines))
    for old, new in zip(req_lines, shuffled):
        lines[lines.index(old)] = "\0" + new
    renamed = "\n".join(l.lstrip("\0") for l in lines)
    model = imog.parse(renamed, "renamed.imog").model
    assert model is not None
    keys = {(g.block, g.attribute, g.unit) for g in trace.find_conflicts(model)}
    assert keys == {("B_fan", "airflow", "cfm"), ("B_fan", "noise", "dB")}


def test_effective_requirements_monotone_in_allocation(escooter):
    before = trace.effective_requirements(escooter, "B_motor")
    extended = Model(
        name=escooter.name,
        elements=escooter.elements,
        relations=escooter.relations
        + (imog.Relation(RelationKind.ALLOCATE, "F_root", ("B_motor",)),),
        requirement_bodies=escooter.requirement_bodies,
        spans=escooter.spans,
    )
    after = trace.effective_requirements(extended, "B_motor")
    before_keys = [(b.owner, o.kind, o.via) for b, o in before]
    after_keys = [(b.owner, o.kind, o.via) for b, o in after]
    for key in before_keys:
        assert key in after_keys
    assert len(after_keys) > len(before_keys)


def _nx_graph(model: Model) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(model.elements)
    for rel in model.relations:
        if rel.kind in TREE_KINDS:
            for t in rel.targets:
                g.add_edge(rel.source, t)
        elif rel.kind is RelationKind.REFINES_GOAL:
            g.add_edge(rel.targets[0], rel.source)
        elif rel.kind is RelationKind.ALLOCATE:
            g.add_edge(rel.source, rel.targets[0])
        elif rel.kind is RelationKind.CONSTRAINS:
            g.add_edge(rel.targets[0], rel.source)
        elif rel.kind is RelationKind.CONTAINS:
            g.add_edge(rel.source, rel.targets[0])
        elif rel.kind is RelationKind.KB_REF:
            if rel.targets[0] in model.elements:
                g.add_edge(rel.source, rel.targets[0])
    return g


def test_impact_root_reaches_all_features(escooter):
    result = trace.impact(escooter, "F_root")
    features = {
        e.id
        for e in escooter.elements.values()
        if e.kind.value in ("feature", "function", "variation_point")
    }
    assert features - {"F_root"} <= result


def test_impact_isolated_block(escooter):
    assert trace.impact(escooter, "B_roadway") == set()


def test_impact_goal_golden(escooter):
    got = sorted(trace.impact(escooter, "G_mobility"))
    assert "\n".join(got) + "\n" == golden_text("escooter.impact_g_mobility.txt")


def test_impact_matches_networkx_reachability(escooter):
    g = _nx_graph(escooter)
    for element_id in escooter.elements:
        assert trace.impact(escooter, element_id) == nx.descendants(g, element_id)


def test_impact_matches_networkx_on_generated_models():
    rng = random.Random(8080)
    for i in range(15):
        model = imog.parse(full_model_text(rng), f"imp{i}.imog").model
        g = _nx_graph(model)
        for element_id in model.elements:
            assert trace.impact(model, element_id) == nx.descendants(g, element_id)


def test_impact_is_a_closure(escooter):
    for start in ("G_mobility", "F_root", "B_escooter"):
        reach = trace.impact(escooter, start)
        for y in reach:
            assert trace.impact(escooter, y) <= reach | {y}


def test_coverage_report_fully_linked_toy_model():
    source = """model "Toy" {
  strategy { goal G "g" }
  functional { feature F "f" { refines_goal G } }
  quality { requirement R "r" on B attr w <= 1 kg }
  structural { block B "b" level system allocate F -> B }
  knowledge { entry K "k" type technology year 2024 }
}
"""
    model = imog.parse(source, "toy.imog").model
    report = trace.coverage_report(model)
    assert report.unallocated == ()
    assert report.unconstrained == ()
    assert report.conflict_groups == ()
    assert report.goal_coverage == {"G": ("F",)}


def test_coverage_report_golden(escooter):
    report = trace.coverage_report(escooter)
    assert trace.report_to_text(report) == golden_text("escooter.coverage.txt")


def test_coverage_differential_deleting_allocate_edge(escooter):
    base = trace.coverage_report(escooter)
    for index, rel in enumerate(escooter.relations):
        if rel.kind is not RelationKind.ALLOCATE:
            continue
        reduced = Model(
            name=escooter.name,
            elements=escooter.elements,
            relations=escooter.relations[:index] + escooter.relations[index + 1 :],
            requirement_bodies=escooter.requirement_bodies,
            spans={},
        )
        report = trace.coverage_report(reduced)
        assert set(report.unallocated) == set(base.unallocated) | {rel.source}
        assert report.goal_coverage == base.goal_coverage


def test_report_records_are_line_delimited_json(escooter):
    import json

    text = trace.report_to_records(trace.coverage_report(escooter))
    records = [json.loads(line) for line in text.splitlines()]
    kinds = {r["record"] for r in records}
    assert kinds == {"unallocated", "unconstrained", "goal"}


# --- differential test of the iterative effective-requirements walk ----------


def _random_block_graph(rng: random.Random) -> Model:
    """Containment cycles, self-loops, diamonds, dangling parents and
    repeated allocate edges, with requirements on blocks and features."""
    blocks = [f"B{i}" for i in range(rng.randint(1, 7))]
    features = [f"F{i}" for i in range(rng.randint(0, 3))]
    elements = {b: Element(b, ElementKind.BLOCK, b) for b in blocks}
    elements.update({f: Element(f, ElementKind.FEATURE, f) for f in features})
    relations = [
        imog.Relation(
            RelationKind.CONTAINS,
            rng.choice(blocks + ["B_ghost"]),
            (rng.choice(blocks),),
        )
        for _ in range(rng.randint(0, 2 * len(blocks) + 2))
    ]
    if features:
        relations += [
            imog.Relation(
                RelationKind.ALLOCATE, rng.choice(features), (rng.choice(blocks),)
            )
            for _ in range(rng.randint(0, 4))
        ]
    relations += rng.sample(relations, k=min(len(relations), rng.randint(0, 3)))
    rng.shuffle(relations)
    bodies = []
    for k in range(rng.randint(0, 7)):
        target = rng.choice(blocks + features + ["X_ghost"])
        if rng.random() < 0.2:
            bodies.append(imog.RequirementBody(f"R{k}", target))
        else:
            body = _random_body(rng, f"R{k}")
            bodies.append(
                imog.RequirementBody(
                    body.owner,
                    target,
                    rng.choice(("w", "h")),
                    body.comparator,
                    body.bound,
                    rng.choice(("kg", "g")),
                )
            )
    return Model("G", elements, tuple(relations), tuple(bodies))


def _keys(entries):
    return [(body.owner, origin.kind, origin.via) for body, origin in entries]


def _reference_keys(triples):
    return [(body.owner, kind, via) for body, kind, via in triples]


def test_effective_requirements_match_recursive_reference():
    rng = random.Random(4242)
    cyclic = self_loops = 0
    for _ in range(1500):
        model = _random_block_graph(rng)
        contains = nx.DiGraph(
            (r.source, r.targets[0])
            for r in model.relations
            if r.kind is RelationKind.CONTAINS
        )
        cyclic += not nx.is_directed_acyclic_graph(contains)
        self_loops += nx.number_of_selfloops(contains) > 0
        blocks = list(model.elements)
        rng.shuffle(blocks)  # the shared table must not depend on query order
        for block in blocks + blocks:
            for inherited in (True, False):
                got = trace.effective_requirements(
                    model, block, include_inherited=inherited
                )
                want = effective_reference(model, block, inherited)
                assert _keys(got) == _reference_keys(want), (model, block)
                assert [b for b, _ in got] == [b for b, _, _ in want]
    assert cyclic > 300 and self_loops > 100


def test_find_conflicts_match_recursive_reference():
    rng = random.Random(1729)
    seen_conflicts = 0
    for _ in range(1500):
        model = _random_block_graph(rng)
        got = [
            (
                g.block,
                g.attribute,
                g.unit,
                tuple((owner, o.kind, o.via) for owner, o, _ in g.requirements),
            )
            for g in trace.find_conflicts(model)
        ]
        assert got == conflicts_reference(model), model
        seen_conflicts += bool(got)
    assert seen_conflicts > 100


def test_shared_effective_table_under_concurrent_queries():
    rng = random.Random(606)
    models = [_random_block_graph(rng) for _ in range(40)]
    want = [
        {
            block: _reference_keys(effective_reference(model, block))
            for block in model.elements
        }
        for model in models
    ]
    mismatches: list = []

    def worker(order_seed: int) -> None:
        order = random.Random(order_seed)
        for model, expected in zip(models, want):
            blocks = list(model.elements)
            order.shuffle(blocks)
            for block in blocks:
                if _keys(trace.effective_requirements(model, block)) != expected[block]:
                    mismatches.append((model, block))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def _deep_chain_text(depth: int, leaf_first: bool) -> str:
    """A containment chain B0 > B1 > ..., with a feature requirement
    allocated to the root B0 contradicting the root's own."""
    order = list(reversed(range(depth))) if leaf_first else list(range(depth))
    blocks = [f'    block B{i} "b{i}" level system' for i in order]
    edges = [f"    contains B{i} {{ B{i + 1} }}" for i in order if i < depth - 1]
    return "\n".join(
        [
            'model "Deep" {',
            '  functional { feature F "f" }',
            "  quality {",
            '    requirement R_light "l" on F attr weight <= 25 kg',
            '    requirement R_sturdy "s" on B0 attr weight >= 30 kg',
            "  }",
            "  structural {",
            *blocks,
            *edges,
            "    allocate F -> B0",
            "  }",
            "}",
            "",
        ]
    )


@pytest.mark.parametrize("leaf_first", [True, False], ids=["leaf_first", "root_first"])
def test_deep_containment_chain_checks_without_recursion(tmp_path, leaf_first):
    depth = 1500
    path = tmp_path / "deep.imog"
    path.write_text(_deep_chain_text(depth, leaf_first), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["check", str(path)], out, err) == 1
    c301 = [line for line in err.getvalue().splitlines() if line.startswith("C-301 ")]
    assert len(c301) == depth
    model = imog.parse_file(path).model
    leaf = trace.effective_requirements(model, f"B{depth - 1}")
    assert _keys(leaf) == [
        ("R_sturdy", "inherited", f"B{depth - 2}"),
        ("R_light", "inherited", f"B{depth - 2}"),
    ]
