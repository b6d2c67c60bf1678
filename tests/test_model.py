"""Metamodel: lookup, relation queries, process-step table, kind mapping."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace

import pytest

import imog
from conftest import parse_fixture
from genmodels import full_model_text
from imog.errors import UnknownElementError
from imog.model import (
    ROADMAP_DOCUMENT,
    AbstractionLevel,
    Element,
    ElementKind,
    IN_HOUSE_ROLES,
    KIND_PERSPECTIVE,
    Model,
    Perspective,
    ProcessStep,
    Relation,
    RelationKind,
    RequirementBody,
    Role,
    Space,
    step_info,
    structurally_equal,
)


def test_lookup_root_feature(escooter):
    element = escooter.lookup("F_root")
    assert element is not None
    assert element.name == "Providing mobility with an e-scooter"
    assert element.kind is ElementKind.FEATURE


def test_lookup_absent_is_none():
    model = imog.parse('model "Empty" {}').model
    assert model.lookup("X") is None


def test_lookup_block_perspective(escooter):
    block = escooter.lookup("B_battery")
    assert block.perspective is Perspective.STRUCTURAL
    assert block.level is AbstractionLevel.SYSTEM


def test_kind_perspective_total_and_stable():
    assert set(KIND_PERSPECTIVE) == set(ElementKind)
    assert KIND_PERSPECTIVE[ElementKind.FEATURE] is Perspective.FUNCTIONAL
    assert KIND_PERSPECTIVE[ElementKind.KNOWLEDGE_ENTRY] is Perspective.KNOWLEDGE


def test_perspective_spaces():
    assert Perspective.STRATEGY.space is Space.PROBLEM
    assert Perspective.FUNCTIONAL.space is Space.PROBLEM
    assert Perspective.QUALITY.space is Space.BOTH
    assert Perspective.STRUCTURAL.space is Space.SOLUTION
    assert Perspective.KNOWLEDGE.space is Space.SOLUTION


def test_level_order_coarse_to_fine():
    assert (
        AbstractionLevel.CONTEXT.rank
        < AbstractionLevel.SYSTEM.rank
        < AbstractionLevel.COMPONENT.rank
    )


def test_relations_of_incoming_effects(escooter):
    effects = escooter.relations_of("B_escooter", RelationKind.EFFECT)
    assert [r.label for r in effects] == ["Incoming Forces", "weight"]
    assert all(r.targets == ("B_escooter",) for r in effects)


def test_relations_of_isolated_element(escooter):
    assert escooter.relations_of("N_vision") == []


def test_relations_of_unknown_raises(escooter):
    with pytest.raises(UnknownElementError):
        escooter.relations_of("nope")


def test_relations_of_mandatory_matches_linear_scan(escooter):
    got = escooter.relations_of("F_root", RelationKind.MANDATORY)
    want = [
        r
        for r in escooter.relations
        if r.kind is RelationKind.MANDATORY
        and ("F_root" == r.source or "F_root" in r.targets)
    ]
    assert got == want


def test_relations_of_is_complete(escooter):
    covered = set()
    for element_id in escooter.elements:
        for rel in escooter.relations_of(element_id):
            covered.add(id(rel))
    external_only = [
        r
        for r in escooter.relations
        if all(e not in escooter.elements for e in r.endpoints())
    ]
    assert len(covered) == len(escooter.relations) - len(external_only)


def test_relations_of_complete_on_generated_models():
    rng = random.Random(1234)
    for i in range(20):
        model = imog.parse(full_model_text(rng), f"gen{i}").model
        covered = set()
        for element_id in model.elements:
            for rel in model.relations_of(element_id):
                covered.add(id(rel))
        reachable = [
            r
            for r in model.relations
            if any(e in model.elements for e in r.endpoints())
        ]
        assert len(covered) == len(reachable)


def _scan(model, element_id, kind=None):
    return [
        r
        for r in model.relations
        if (kind is None or r.kind is kind)
        and (r.source == element_id or element_id in r.targets)
    ]


def test_relations_of_matches_linear_scan_on_generated_models():
    rng = random.Random(4321)
    for i in range(20):
        model = imog.parse(full_model_text(rng), f"gen{i}").model
        for element_id in model.elements:
            assert model.relations_of(element_id) == _scan(model, element_id)
            for kind in (RelationKind.CONTAINS, RelationKind.ALLOCATE):
                got = model.relations_of(element_id, kind)
                assert got == _scan(model, element_id, kind)


def test_relations_of_lists_self_and_repeated_targets_once():
    loop = Relation(RelationKind.CONTAINS, "B", ("B",))
    twice = Relation(RelationKind.OR_GROUP, "F", ("B", "B"))
    model = Model(
        "M",
        {i: Element(i, ElementKind.BLOCK, i) for i in ("B", "F")},
        (loop, twice, loop),
    )
    assert model.relations_of("B") == [loop, twice, loop]
    assert model.relations_of("F") == [twice]


def test_index_incoming_reads_first_targets_in_declaration_order():
    allocate = Relation(RelationKind.ALLOCATE, "F", ("B",))
    group = Relation(RelationKind.OR_GROUP, "P", ("A", "B", "B"))
    contains = Relation(RelationKind.CONTAINS, "K", ("B",))
    dangling = Relation(RelationKind.ALLOCATE, "GHOST", ("B",))
    repeated = Relation(RelationKind.OR_GROUP, "P", ("A", "A"))
    model = Model(
        "M",
        {i: Element(i, ElementKind.BLOCK, i) for i in ("A", "B", "F", "K", "P")},
        (allocate, group, contains, dangling, repeated),
    )
    index = model.index
    assert index.incoming("B", RelationKind.ALLOCATE, RelationKind.CONTAINS) == [
        allocate,
        contains,
        dangling,
    ]
    assert index.incoming("B", RelationKind.ALLOCATE) == [allocate, dangling]
    assert index.incoming("B", RelationKind.OR_GROUP) == []
    assert index.incoming("A", RelationKind.OR_GROUP) == [group, repeated]
    assert index.incoming("GHOST", *RelationKind) == []
    rng = random.Random(2468)
    for i in range(10):
        model = imog.parse(full_model_text(rng), f"gen{i}").model
        for element_id in model.elements:
            for kinds in ((RelationKind.ALLOCATE,), tuple(RelationKind)):
                assert model.index.incoming(element_id, *kinds) == [
                    r
                    for r in model.relations
                    if r.kind in kinds and r.targets[0] == element_id
                ]


def test_model_mappings_are_read_only(escooter):
    with pytest.raises(TypeError):
        escooter.elements["X"] = escooter.elements["F_root"]
    with pytest.raises(TypeError):
        escooter.spans["F_root"] = escooter.spans[0]
    again = parse_fixture("escooter.imog").model
    assert again == escooter
    assert structurally_equal(again, escooter)
    escooter.relations_of("F_root")  # builds the cached index
    for copied in (pickle.loads(pickle.dumps(escooter)), copy.deepcopy(escooter)):
        assert copied == escooter
        assert copied.spans == escooter.spans
        assert copied.relations_of("F_root") == escooter.relations_of("F_root")


def test_structurally_equal_tells_apart_each_part():
    block = Element("B", ElementKind.BLOCK, "b")
    req = Element("R", ElementKind.REQUIREMENT, "r")
    rel = Relation(RelationKind.CONSTRAINS, "R", ("B",))
    body = RequirementBody("R", "B", "weight", "<=", 1)
    base = Model("M", {"B": block, "R": req}, (rel,), (body,))
    assert structurally_equal(base, replace(base, spans={"B": None}))
    differing = {
        "name": replace(base, name="N"),
        "elements": replace(base, elements={"B": block, "R": replace(req, name="s")}),
        "relation multiset": replace(base, relations=(rel, rel)),
        "body multiset": replace(base, requirement_bodies=(body, body)),
    }
    for part, other in differing.items():
        assert not structurally_equal(base, other), part
        assert not structurally_equal(other, base), part


def test_model_keeps_its_own_copy_of_the_mappings():
    elements = {"B": Element("B", ElementKind.BLOCK, "b")}
    model = Model("M", elements)
    assert model.relations_of("B") == []
    elements["C"] = Element("C", ElementKind.BLOCK, "c")
    assert list(model.elements) == ["B"]
    assert model == Model("M", {"B": Element("B", ElementKind.BLOCK, "b")})


def test_step_info_solution_space_exploration():
    info = step_info(ProcessStep.SOLUTION_SPACE_EXPLORATION)
    assert info.leader is Role.SYSTEM_ARCHITECT
    assert info.artifact is Perspective.STRUCTURAL


def test_step_info_innovation_identification():
    info = step_info(ProcessStep.INNOVATION_IDENTIFICATION)
    assert info.artifact is Perspective.STRATEGY
    assert Role.COMMITTEE_LEADER in info.roles
    assert Role.IMOG_MODEL_EXPERT in info.roles


def test_step_info_insight_extraction_has_no_in_house_roles():
    info = step_info(ProcessStep.INSIGHT_EXTRACTION)
    assert not info.roles & IN_HOUSE_ROLES
    assert info.artifact is Perspective.KNOWLEDGE


def test_step_info_every_step_has_roles_and_artifact():
    artifacts = []
    for step in ProcessStep:
        info = step_info(step)
        assert info.roles
        artifacts.append(info.artifact)
    assert artifacts == [
        Perspective.STRATEGY,
        Perspective.FUNCTIONAL,
        Perspective.QUALITY,
        Perspective.STRUCTURAL,
        Perspective.KNOWLEDGE,
        ROADMAP_DOCUMENT,
        ROADMAP_DOCUMENT,
    ]
